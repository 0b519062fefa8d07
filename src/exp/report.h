// Report emitters for executed grids: RFC-4180 CSV (via util/csv) for
// spreadsheet/plotting pipelines and a self-contained JSON document for
// regression diffing. Both render only from CellResult aggregates, and both
// format numbers deterministically — two executions of the same spec (at
// any thread count) emit byte-identical documents.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "exp/sink.h"
#include "util/table.h"

namespace hyco {

/// Opt-in report sections. All default off, and the added columns/keys are
/// strictly appended, so documents emitted with the defaults are
/// byte-identical to pre-observability builds.
struct ReportOptions {
  /// Network scenario counters (delivered / dropped_* / duplicated /
  /// held_partitioned sums) per cell.
  bool net_stats = false;
  /// Per-phase latency metrics (coin flips, phase1/phase2/decide-spread ns)
  /// — meaningful when the spec ran with collect_obs.
  bool phase_metrics = false;
  /// Executor wall/CPU profile (wall_ms, cpu_ms, msgs_per_sec) — host
  /// timing, NOT deterministic; keep out of regression-diffed artifacts.
  bool profile = false;
  /// Replicated-service workload columns (decided ops, decided-ops/sec,
  /// client-latency p50/p99/p999, batches, slots) — meaningful when the
  /// grid has service cells.
  bool service = false;
};

/// One row per cell: axis labels, counts, and per-metric mean/p50/p95/max.
void write_cell_csv(std::ostream& out, const std::vector<CellResult>& results,
                    const ReportOptions& opts = {});

/// Sharded CSV for huge grids: writes `ceil(results / shard_size)` files
/// named "<path>.000", "<path>.001", … each with the full header and
/// `shard_size` cells in cell order. Returns the shard paths. Concatenating
/// the shards minus repeated headers reproduces write_cell_csv byte for
/// byte. Throws ContractViolation when a shard cannot be opened.
std::vector<std::string> write_cell_csv_sharded(
    const std::string& path, const std::vector<CellResult>& results,
    std::size_t shard_size, const ReportOptions& opts = {});

/// {"experiment": ..., "cells": [...]} with a stats object per metric and
/// the failing seeds listed per cell (the replay work list survives into
/// the artifact).
void write_cell_json(std::ostream& out, const std::string& experiment_name,
                     const std::vector<CellResult>& results,
                     const ReportOptions& opts = {});

/// Renders an ASCII summary table (one row per cell) for quick terminal use.
[[nodiscard]] Table to_table(const std::string& title,
                             const std::vector<CellResult>& results);

/// Shortest-round-trip double formatting ("17 significant digits max, no
/// locale"), shared by both emitters so documents stay byte-stable.
[[nodiscard]] std::string format_number(double v);

/// format_number of `hist.percentile(q)` clamped to the exact [min, max] of
/// the moments kept beside it: interpolating inside a power-of-two bucket
/// can otherwise land above the largest sample.
[[nodiscard]] std::string format_percentile(const obs::LogHistogram& hist,
                                            const ExactMoments& mo, double q);

}  // namespace hyco
