// Minimal CSV emitter used by the experiment harnesses so results can be
// post-processed (plotting, regression diffing) outside the binary, and the
// JSON string escaper every JSON writer shares.
#pragma once

#include <initializer_list>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace hyco {

/// Streams rows of a CSV document with RFC-4180 quoting.
class CsvWriter {
 public:
  /// The writer does not own the stream; it must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Writes the header row; must be called at most once, before any row.
  void header(std::initializer_list<std::string> names);
  void header(const std::vector<std::string>& names);

  /// Writes one data row. Field counts are checked against the header.
  void row(const std::vector<std::string>& fields);

  /// Convenience: converts arithmetic fields with operator<<.
  template <typename... Ts>
  void row_values(const Ts&... vals) {
    std::vector<std::string> fields;
    fields.reserve(sizeof...(vals));
    (fields.push_back(stringify(vals)), ...);
    row(fields);
  }

  [[nodiscard]] std::size_t rows_written() const { return rows_; }

  /// Quotes a field if it contains separators, quotes, or newlines.
  static std::string escape(const std::string& field);

 private:
  template <typename T>
  static std::string stringify(const T& v) {
    if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(v);
    } else {
      return to_string_via_stream(v);
    }
  }
  template <typename T>
  static std::string to_string_via_stream(const T& v);

  void write_line(const std::vector<std::string>& fields);

  std::ostream* out_;
  std::size_t columns_ = 0;
  std::size_t rows_ = 0;
  bool header_written_ = false;
};

/// Escapes a string for embedding in a JSON document (quotes not included).
[[nodiscard]] std::string json_escape(const std::string& s);

template <typename T>
std::string CsvWriter::to_string_via_stream(const T& v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace hyco
