#include "util/csv.h"

#include <cstdio>
#include <sstream>

#include "util/assert.h"

namespace hyco {

void CsvWriter::header(std::initializer_list<std::string> names) {
  header(std::vector<std::string>(names));
}

void CsvWriter::header(const std::vector<std::string>& names) {
  HYCO_CHECK_MSG(!header_written_, "CSV header written twice");
  HYCO_CHECK_MSG(!names.empty(), "CSV header must have at least one column");
  columns_ = names.size();
  header_written_ = true;
  write_line(names);
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  if (header_written_) {
    HYCO_CHECK_MSG(fields.size() == columns_,
                   "CSV row has " << fields.size() << " fields, expected "
                                  << columns_);
  }
  ++rows_;
  write_line(fields);
}

void CsvWriter::write_line(const std::vector<std::string>& fields) {
  bool first = true;
  for (const auto& f : fields) {
    if (!first) (*out_) << ',';
    (*out_) << escape(f);
    first = false;
  }
  (*out_) << '\n';
}

std::string CsvWriter::escape(const std::string& field) {
  const bool needs_quote =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace hyco
