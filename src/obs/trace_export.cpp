#include "obs/trace_export.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <string_view>
#include <type_traits>

#include "util/csv.h"

namespace hyco::obs {

namespace {

constexpr std::string_view kSchema = "hyco-trace/3";
constexpr char kBinaryMagic[8] = {'H', 'Y', 'T', 'R', 'C', 'B', '3', '\n'};

using TraceTuple = std::array<std::int64_t, kTraceFields.size()>;

template <typename E>
constexpr std::int64_t as_int(E v) {
  return static_cast<std::int64_t>(v);
}

/// The record as its tuple, in kTraceFields order.
TraceTuple to_tuple(const TraceRecord& r) {
  const auto bits = [](std::uint64_t v) {
    return static_cast<std::int64_t>(v);
  };
  return {r.at,           as_int(r.kind),      r.proc,
          bits(r.mid),    bits(r.parent),      r.peer,
          as_int(r.cause), as_int(r.msg.kind), r.msg.instance,
          r.msg.round,    as_int(r.msg.phase), as_int(r.msg.est),
          r.msg.origin,   bits(r.msg.value),   r.round,
          as_int(r.phase), bits(r.args[0]),    bits(r.args[1]),
          bits(r.args[2])};
}

/// Inverse of to_tuple(): false when an enum or a 32-bit field is out of
/// range (`r` is then partly written).
bool from_tuple(const TraceTuple& t, TraceRecord& r) {
  constexpr std::int64_t kMin32 = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kMax32 = std::numeric_limits<std::int32_t>::max();
  std::size_t i = 0;
  // Takes the next entry into `field` if it lies in [lo, hi].
  const auto take = [&](auto& field, std::int64_t lo, std::int64_t hi) {
    const std::int64_t v = t[i++];
    if (v < lo || v > hi) return false;
    field = static_cast<std::remove_reference_t<decltype(field)>>(v);
    return true;
  };
  // Takes the next entry's bits into an unsigned 64-bit field.
  const auto bits = [&](std::uint64_t& field) {
    field = static_cast<std::uint64_t>(t[i++]);
    return true;
  };
  r.at = t[i++];
  return take(r.kind, 0, as_int(kTraceKindLast)) &&
         take(r.proc, kMin32, kMax32) && bits(r.mid) && bits(r.parent) &&
         take(r.peer, kMin32, kMax32) &&
         take(r.cause, 0, as_int(kDropCauseLast)) &&
         take(r.msg.kind, as_int(MsgKind::Phase), as_int(kMsgKindLast)) &&
         take(r.msg.instance, kMin32, kMax32) &&
         take(r.msg.round, kMin32, kMax32) &&
         take(r.msg.phase, as_int(Phase::One), as_int(Phase::Two)) &&
         take(r.msg.est, as_int(Estimate::Zero), as_int(Estimate::Bot)) &&
         take(r.msg.origin, kMin32, kMax32) && bits(r.msg.value) &&
         take(r.round, kMin32, kMax32) &&
         take(r.phase, as_int(Phase::One), as_int(Phase::Two)) &&
         bits(r.args[0]) && bits(r.args[1]) && bits(r.args[2]);
}

/// Inverts json_escape() (util/csv.h) for the header's label.
bool unescape(const std::string& s, std::string& out) {
  out.clear();
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (++i >= s.size()) return false;
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 >= s.size()) return false;
        unsigned v = 0;
        for (int k = 0; k < 4; ++k) {
          const char c = s[i + 1 + static_cast<std::size_t>(k)];
          v <<= 4;
          if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
          else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
          else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
          else return false;
        }
        if (v > 0xFF) return false;  // the writer only escapes control bytes
        out += static_cast<char>(v);
        i += 4;
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

/// Consumes `token` from the front of `s`.
bool eat(std::string_view& s, std::string_view token) {
  if (!s.starts_with(token)) return false;
  s.remove_prefix(token.size());
  return true;
}

/// Consumes a decimal integer from the front of `s`.
template <typename T>
bool number(std::string_view& s, T& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc()) return false;
  s.remove_prefix(static_cast<std::size_t>(end - s.data()));
  return true;
}

/// Consumes an escaped JSON string body and its closing quote.
bool string_body(std::string_view& s, std::string& out) {
  std::size_t j = 0;
  while (j < s.size() && s[j] != '"') j += s[j] == '\\' ? 2 : 1;
  if (j >= s.size() || !unescape(std::string(s.substr(0, j)), out)) {
    return false;
  }
  s.remove_prefix(j + 1);
  return true;
}

/// Parses the JSONL header line exactly as write_trace_jsonl() emits it.
bool parse_header_line(std::string_view s, TraceMeta& meta,
                       std::uint64_t& count) {
  if (!(eat(s, "{\"schema\":\"") && eat(s, kSchema) &&
        eat(s, "\",\"cell\":") && number(s, meta.cell) &&
        eat(s, ",\"run\":") && number(s, meta.run) &&
        eat(s, ",\"seed\":") && number(s, meta.seed) &&
        eat(s, ",\"label\":\"") && string_body(s, meta.label) &&
        eat(s, ",\"records\":") && number(s, count) &&
        eat(s, ",\"recorded\":") && number(s, meta.recorded) &&
        eat(s, ",\"truncated\":"))) {
    return false;
  }
  meta.truncated = s == "true}";
  return meta.truncated || s == "false}";
}

/// Parses one JSONL record line: the tuple's entries under their
/// kTraceFields keys, in order, exactly as write_trace_jsonl() emits them.
bool parse_record_line(std::string_view s, TraceTuple& t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!(eat(s, i == 0 ? "{\"" : ",\"") && eat(s, kTraceFields[i]) &&
          eat(s, "\":") && number(s, t[i]))) {
      return false;
    }
  }
  return s == "}";
}

template <typename T>
void put_raw(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool get_raw(std::istream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return in.gcount() == static_cast<std::streamsize>(sizeof(v));
}

constexpr std::uint32_t kMaxStringBytes = 1u << 20;

bool get_string(std::istream& in, std::string& s) {
  std::uint32_t len = 0;
  if (!get_raw(in, len) || len > kMaxStringBytes) return false;
  s.resize(len);
  if (len == 0) return true;
  in.read(s.data(), static_cast<std::streamsize>(len));
  return in.gcount() == static_cast<std::streamsize>(len);
}

}  // namespace

void write_trace_jsonl(std::ostream& out, const TraceMeta& meta,
                       const Trace& trace) {
  // Ring accounting is stamped from the trace itself, so the header is
  // honest regardless of what the caller left in `meta`.
  const std::uint64_t recorded = trace.recorded();
  const bool truncated = recorded > trace.size();
  out << "{\"schema\":\"" << kSchema << "\",\"cell\":" << meta.cell
      << ",\"run\":" << meta.run << ",\"seed\":" << meta.seed
      << ",\"label\":\"" << json_escape(meta.label)
      << "\",\"records\":" << trace.size() << ",\"recorded\":" << recorded
      << ",\"truncated\":" << (truncated ? "true" : "false") << "}\n";
  trace.for_each([&](const TraceRecord& r) {
    const TraceTuple t = to_tuple(r);
    for (std::size_t i = 0; i < t.size(); ++i) {
      out << (i == 0 ? "{\"" : ",\"") << kTraceFields[i] << "\":" << t[i];
    }
    out << "}\n";
  });
}

bool read_trace_jsonl(std::istream& in, TraceMeta& meta,
                      std::vector<TraceRecord>& records) {
  records.clear();
  std::string line;
  std::uint64_t count = 0;
  if (!std::getline(in, line) || !parse_header_line(line, meta, count)) {
    return false;
  }
  // Cap the pre-reservation: `count` is attacker-controlled input in the
  // fuzzing sense, and the vector grows on demand anyway.
  records.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      count, kMaxStringBytes)));
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    TraceTuple t;
    TraceRecord r;
    if (!parse_record_line(line, t) || !from_tuple(t, r)) return false;
    records.push_back(r);
  }
  return records.size() == count;
}

void write_trace_binary(std::ostream& out, const TraceMeta& meta,
                        const Trace& trace) {
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  put_raw(out, meta.cell);
  put_raw(out, meta.run);
  put_raw(out, meta.seed);
  put_raw(out, static_cast<std::uint32_t>(meta.label.size()));
  out.write(meta.label.data(),
            static_cast<std::streamsize>(meta.label.size()));
  const std::uint64_t recorded = trace.recorded();
  put_raw(out, recorded);
  put_raw(out, static_cast<std::uint8_t>(recorded > trace.size() ? 1 : 0));
  put_raw(out, static_cast<std::uint64_t>(trace.size()));
  trace.for_each([&](const TraceRecord& r) { put_raw(out, to_tuple(r)); });
}

bool read_trace_binary(std::istream& in, TraceMeta& meta,
                       std::vector<TraceRecord>& records) {
  records.clear();
  char magic[sizeof(kBinaryMagic)];
  in.read(magic, sizeof(magic));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(magic)) ||
      std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    return false;
  }
  if (!get_raw(in, meta.cell) || !get_raw(in, meta.run) ||
      !get_raw(in, meta.seed) || !get_string(in, meta.label)) {
    return false;
  }
  std::uint8_t truncated = 0;
  if (!get_raw(in, meta.recorded) || !get_raw(in, truncated) ||
      truncated > 1) {
    return false;
  }
  meta.truncated = truncated != 0;
  std::uint64_t count = 0;
  if (!get_raw(in, count)) return false;
  records.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      count, kMaxStringBytes)));
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceTuple t;
    TraceRecord r;
    if (!get_raw(in, t) || !from_tuple(t, r)) return false;
    records.push_back(r);
  }
  return true;
}

}  // namespace hyco::obs
