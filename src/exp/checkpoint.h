// Checkpoint/resume for interrupted sweeps.
//
// A checkpoint file is an append-only text log: a header binding it to one
// specific grid (a fingerprint over every cell's label, run count, seeds,
// and the accumulator capacities), followed by self-delimited blocks. Two
// block kinds exist:
//  * a *cell* block holds the full, final CellAccumulator of one completed
//    cell;
//  * a *chunk* block holds the accumulator of one executed run range
//    [begin, end) of a cell still in flight — the chunk-granular trail that
//    lets a single monster cell resume mid-cell instead of from zero.
// Both carry exact 128-bit moment sums, reservoir entries, latency
// histogram counts, and the failure ring. Because the accumulator is exact
// integer state and merge-order-invariant, a resumed sweep reconstructs
// completed cells bit-for-bit, re-runs only the uncovered ranges of partial
// cells, and its final CSV/JSON artifacts are byte-identical to an
// uninterrupted run.
//
// The loader ignores trailing partial blocks — a process killed mid-append
// loses at most one cell (or, with chunk blocks, one chunk). Chunk blocks
// of a cell that also has a cell block are redundant and dropped on load.
//
// The same accumulator-state encoding doubles as the wire format of the
// distributed sweep protocol (src/dist/proto.h): workers ship chunk
// accumulators to the coordinator as exactly these lines.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "exp/sink.h"
#include "exp/spec.h"

namespace hyco {

/// Identity of a grid execution: any change to the cell list, run counts,
/// seeds, inputs, or accumulator capacities changes the fingerprint, and
/// load_checkpoint refuses to resume across it.
[[nodiscard]] std::uint64_t grid_fingerprint(
    const std::vector<ExperimentCell>& cells, std::size_t reservoir_capacity,
    std::size_t failure_capacity);

/// Serializes an accumulator's statistical state (metric moments +
/// reservoirs, failure ring, obs and service lines — everything except the
/// run counts, which block headers carry). Shared by cell blocks, chunk
/// blocks, and the distributed wire protocol.
void write_accumulator_state(std::ostream& out, const CellAccumulator& acc);

/// Parses the lines written by write_accumulator_state into `out`
/// (reconstructing reservoir/failure capacities from the stream; the caller
/// sets runs/terminated/violations from its own header). Returns true on
/// success; on failure returns false and, when `stop_line` is non-null,
/// stores the offending line (empty at end of stream) so block loaders can
/// resync on a following block header. Never throws on malformed input.
bool read_accumulator_state(std::istream& in, CellAccumulator& out,
                            std::string* stop_line = nullptr);

/// Writes the one-line header; call once on a fresh checkpoint stream.
void write_checkpoint_header(std::ostream& out, std::uint64_t fingerprint);

/// Appends one completed cell's block (call with the cell's finalized
/// accumulator). Flushes so a kill loses at most the block in flight.
void append_checkpoint_cell(std::ostream& out, std::uint64_t cell_index,
                            const CellAccumulator& acc);

/// Appends one executed chunk's block: the accumulator of runs
/// [begin, end) of cell `cell_index`. Flushed like cell blocks.
void append_checkpoint_chunk(std::ostream& out, std::uint64_t cell_index,
                             std::uint64_t begin, std::uint64_t end,
                             const CellAccumulator& acc);

/// One folded run range of a partially-completed cell.
struct ChunkCheckpoint {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  CellAccumulator acc;
};

/// Everything a checkpoint stream holds: completed cells keyed by their
/// spec-expansion index, plus — for cells with no cell block — the folded
/// chunk ranges, sorted by begin, overlap-free (later conflicting blocks
/// are dropped).
struct CheckpointData {
  std::map<std::uint64_t, CellAccumulator> cells;
  std::map<std::uint64_t, std::vector<ChunkCheckpoint>> chunks;
};

/// Rewrites loaded checkpoint data as its minimal equivalent stream: the
/// header, one cell block per completed cell, then one chunk block per
/// *maximal contiguous chunk chain* — accumulator merge-order invariance
/// makes the merged block exactly equal to folding its originals, so a
/// resume from the compacted file is byte-identical to one from the full
/// trail. Used on --resume to keep the append-only trail from growing
/// without bound across repeated crash/restart cycles; write to a
/// temporary and rename over the original so a kill mid-rewrite cannot
/// lose the old file.
void write_compacted_checkpoint(std::ostream& out, std::uint64_t fingerprint,
                                const CheckpointData& data);

/// Parses a checkpoint stream, cell and chunk blocks both. Throws
/// ContractViolation when the header is missing or the fingerprint does not
/// match `expected_fingerprint`; silently drops malformed or truncated
/// trailing blocks.
[[nodiscard]] CheckpointData load_checkpoint_data(
    std::istream& in, std::uint64_t expected_fingerprint);

/// Cell-granular view of load_checkpoint_data (chunk blocks are parsed but
/// not returned) — the pre-chunk-checkpoint interface, kept for callers
/// that resume at cell granularity only.
[[nodiscard]] std::map<std::uint64_t, CellAccumulator> load_checkpoint(
    std::istream& in, std::uint64_t expected_fingerprint);

/// What a sweep still has to run after loading its checkpoint.
struct ResumePlan {
  /// The loaded checkpoint restricted to the grid. A block naming a cell
  /// outside it, or a chunk that runs past its cell's run count, is
  /// dropped and its runs execute again; a chunk trail that covers its
  /// whole cell is merged into a finished cell block. Rewrite it with
  /// write_compacted_checkpoint(), then hand it to CollectingSink::resume()
  /// so the sink folds the new runs on top of it.
  CheckpointData checkpoint;
  /// Runs no block covers, in cell order (cell_pos = grid position).
  std::vector<RunSpan> spans;
  /// Runs the checkpoint covers: the grid's total minus the spans'.
  std::uint64_t resumed_runs = 0;
};

/// Plans a sweep over a whole expanded grid (cells[i].index == i) that
/// resumes `checkpoint`; an empty checkpoint plans every run.
[[nodiscard]] ResumePlan plan_resume(const std::vector<ExperimentCell>& cells,
                                     CheckpointData checkpoint);

}  // namespace hyco
