// Structured trace export: promotes the trace ring to a schema'd,
// machine-parseable artifact so a failing seed's full event timeline feeds
// replay tooling instead of grep.
//
// Every record travels as one fixed tuple of integers (kTraceFields below):
// the typed fields of sim/trace.h, enums as their underlying values. Two
// formats carry that tuple under one schema ("hyco-trace/3"):
//  * JSONL — a header line {"schema":"hyco-trace/3","cell":..,"run":..,
//    "seed":..,"label":"..","records":..,"recorded":..,"truncated":..}
//    followed by one object per record naming the tuple's entries in order,
//    {"at":..,"kind":..,"proc":..,...};
//  * compact binary — magic "HYTRCB3\n", the same header fields, then each
//    record as the tuple's kTraceFields.size() int64 values: fixed-size, no
//    per-record length or padding (host-endian; a local replay format, not
//    a portable archive).
// `recorded` is the total number of records the run produced and
// `truncated` flags that the ring wrapped, so the file holds only the
// trailing window. Both formats round-trip exactly through the readers
// below, which only accept what the writers emit: a record whose kind,
// drop cause, message kind, phase or estimate is out of range is rejected,
// and so are hyco-trace/1 and /2 files (v2 carried free-text details).
#pragma once

#include <array>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "sim/trace.h"

namespace hyco::obs {

/// The record tuple's entries in file order, named as the JSONL keys.
inline constexpr auto kTraceFields = std::to_array<const char*>(
    {"at", "kind", "proc", "mid", "parent", "peer", "cause", "msg_kind",
     "msg_inst", "msg_round", "msg_phase", "msg_est", "msg_origin",
     "msg_value", "round", "phase", "arg0", "arg1", "arg2"});

/// Identity of the traced run, stamped into the export header so a trace
/// file is self-describing (which cell, which run index, which seed).
struct TraceMeta {
  std::uint64_t cell = 0;
  std::uint64_t run = 0;
  std::uint64_t seed = 0;
  std::string label;
  /// Total records the run produced (Trace::recorded()); the writers stamp
  /// it so a wrapped ring is detectable from the file alone.
  std::uint64_t recorded = 0;
  /// True when the ring dropped its oldest records (recorded > held).
  bool truncated = false;
};

void write_trace_jsonl(std::ostream& out, const TraceMeta& meta,
                       const Trace& trace);
void write_trace_binary(std::ostream& out, const TraceMeta& meta,
                        const Trace& trace);

/// Parse a JSONL/binary trace written by the writers above. Returns false
/// on any malformed header or record. `records` is replaced, oldest first.
bool read_trace_jsonl(std::istream& in, TraceMeta& meta,
                      std::vector<TraceRecord>& records);
bool read_trace_binary(std::istream& in, TraceMeta& meta,
                       std::vector<TraceRecord>& records);

}  // namespace hyco::obs
