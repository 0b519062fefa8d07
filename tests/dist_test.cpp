// Distributed sweep engine (src/dist/): the chunk-granular work ledger's
// state machine (lease → expire → re-lease → fold exactly-once, plus the
// adaptive lease tail), the wire protocol (framing, host:port validation,
// accumulator round-trip, garbage rejection), and end-to-end
// coordinator/worker grids over localhost TCP — including a worker killed
// mid-chunk, a lease that expires on a wedged worker, connections severed
// by the chaos proxy, and the coordinator itself crashing and resuming
// from its checkpoint — all of which must leave the merged artifacts
// byte-identical to a single-machine streaming run. Mid-cell
// chunk-checkpoint resume and its compacted rewrite ride the same
// accumulator encoding and are pinned here too.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/chaos.h"
#include "dist/coordinator.h"
#include "dist/ledger.h"
#include "dist/proto.h"
#include "dist/worker.h"
#include "exp/checkpoint.h"
#include "exp/executor.h"
#include "exp/report.h"
#include "util/assert.h"
#include "util/rng.h"

namespace hyco {
namespace {

using dist::Coordinator;
using dist::CoordinatorOptions;
using dist::WorkLedger;

ExperimentSpec dist_spec() {
  ExperimentSpec spec;
  spec.name = "dist-test";
  spec.algorithms = {Algorithm::HybridLocalCoin};
  spec.layouts = {ClusterLayout::even(4, 2), ClusterLayout::even(6, 2)};
  spec.runs_per_cell = 40;
  spec.base_seed = 77;
  return spec;
}

std::string render_artifacts(const std::string& name,
                             const std::vector<CellResult>& results) {
  std::ostringstream os;
  write_cell_csv(os, results);
  write_cell_json(os, name, results);
  return os.str();
}

/// Single-machine streaming reference for a grid.
std::string reference_artifacts(const ExperimentSpec& spec) {
  const auto cells = spec.expand();
  CollectingSink sink(cells, {});
  ParallelExecutor::Options opts;
  opts.threads = 2;
  ParallelExecutor(opts).run(cells, sink);
  return render_artifacts(spec.name, sink.take_results());
}

CoordinatorOptions test_coordinator_options() {
  CoordinatorOptions opts;
  opts.port = 0;  // ephemeral
  opts.lease_grain = 7;
  opts.poll_interval = std::chrono::milliseconds(20);
  opts.max_wait = std::chrono::minutes(2);  // fail loudly, never hang CI
  return opts;
}

std::vector<RunSpan> full_spans(const std::vector<ExperimentCell>& cells) {
  std::vector<RunSpan> spans;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    spans.push_back({c, 0, cells[c].runs});
  }
  return spans;
}

// ---- work ledger ------------------------------------------------------------

TEST(WorkLedger, LeaseExpireReleaseFoldExactlyOnce) {
  WorkLedger ledger(1, 10);
  ledger.add_span(0, 0, 25);  // chunks [0,10) [10,20) [20,25)
  EXPECT_EQ(ledger.chunk_count(), 3u);
  EXPECT_EQ(ledger.total_runs(), 25u);
  EXPECT_FALSE(ledger.all_folded());

  const auto t0 = WorkLedger::Clock::now();
  const auto ttl = std::chrono::milliseconds(100);

  const auto l1 = ledger.acquire(1, t0, ttl);
  ASSERT_TRUE(l1.has_value());
  EXPECT_EQ(l1->begin, 0u);
  EXPECT_EQ(l1->end, 10u);
  EXPECT_EQ(ledger.leased_chunks(), 1u);

  // The lease expires; the chunk re-queues and re-leases to someone else.
  EXPECT_EQ(ledger.expire(t0 + std::chrono::milliseconds(50)), 0u);
  EXPECT_EQ(ledger.expire(t0 + std::chrono::milliseconds(150)), 1u);
  EXPECT_EQ(ledger.leased_chunks(), 0u);
  const auto l2 = ledger.acquire(2, t0, ttl);
  ASSERT_TRUE(l2.has_value());
  EXPECT_EQ(l2->begin, 10u);  // FIFO: next fresh chunk first
  const auto l3 = ledger.acquire(2, t0, ttl);
  ASSERT_TRUE(l3.has_value());
  EXPECT_EQ(l3->begin, 20u);
  const auto l4 = ledger.acquire(3, t0, ttl);
  ASSERT_TRUE(l4.has_value());
  EXPECT_EQ(l4->begin, 0u);  // the expired chunk came back around
  EXPECT_FALSE(ledger.acquire(3, t0, ttl).has_value());

  // First fold wins; the late original result is a duplicate.
  const auto f1 = ledger.fold(0, 0, 10);
  EXPECT_EQ(f1.outcome, WorkLedger::FoldOutcome::kAccepted);
  EXPECT_FALSE(f1.cell_completed);
  const auto dup = ledger.fold(0, 0, 10);
  EXPECT_EQ(dup.outcome, WorkLedger::FoldOutcome::kDuplicate);
  EXPECT_EQ(ledger.folded_runs(), 10u);

  // Unknown ranges are rejected outright.
  EXPECT_EQ(ledger.fold(0, 0, 5).outcome, WorkLedger::FoldOutcome::kUnknown);
  EXPECT_EQ(ledger.fold(0, 3, 10).outcome,
            WorkLedger::FoldOutcome::kUnknown);

  const auto f2 = ledger.fold(0, 10, 20);
  EXPECT_EQ(f2.outcome, WorkLedger::FoldOutcome::kAccepted);
  EXPECT_FALSE(f2.cell_completed);
  const auto f3 = ledger.fold(0, 20, 25);
  EXPECT_EQ(f3.outcome, WorkLedger::FoldOutcome::kAccepted);
  EXPECT_TRUE(f3.cell_completed);
  EXPECT_TRUE(ledger.all_folded());
  EXPECT_TRUE(ledger.cell_folded(0));
}

TEST(WorkLedger, ReleaseOwnerRequeuesItsLeases) {
  WorkLedger ledger(2, 8);
  ledger.add_span(0, 0, 16);
  ledger.add_span(1, 0, 8);
  const auto t0 = WorkLedger::Clock::now();
  const auto ttl = std::chrono::seconds(60);
  (void)ledger.acquire(7, t0, ttl);
  (void)ledger.acquire(7, t0, ttl);
  (void)ledger.acquire(9, t0, ttl);
  EXPECT_EQ(ledger.leased_chunks(), 3u);
  EXPECT_EQ(ledger.release_owner(7), 2u);  // worker 7 disconnected
  EXPECT_EQ(ledger.leased_chunks(), 1u);
  EXPECT_EQ(ledger.pending_chunks(), 2u);
  // The released chunks can be folded by whoever re-executes them.
  EXPECT_EQ(ledger.fold(0, 0, 8).outcome,
            WorkLedger::FoldOutcome::kAccepted);
}

TEST(WorkLedger, SpansRespectGrainAndCells) {
  WorkLedger ledger(3, 1000);
  ledger.add_span(0, 0, 5);
  ledger.add_span(2, 100, 104);  // mid-cell span (resume complement)
  EXPECT_EQ(ledger.chunk_count(), 2u);
  EXPECT_TRUE(ledger.cell_folded(1));  // no registered work
  EXPECT_FALSE(ledger.cell_folded(2));
  EXPECT_EQ(ledger.fold(2, 100, 104).outcome,
            WorkLedger::FoldOutcome::kAccepted);
  EXPECT_TRUE(ledger.cell_folded(2));
  EXPECT_THROW(ledger.add_span(0, 3, 7), ContractViolation);  // overlap
  EXPECT_THROW(ledger.add_span(0, 9, 9), ContractViolation);  // empty
}

TEST(WorkLedger, AcquireSplitsLongChunksAtMaxLen) {
  WorkLedger ledger(1, 10);
  ledger.add_span(0, 0, 25);  // chunks [0,10) [10,20) [20,25)
  const auto t0 = WorkLedger::Clock::now();
  const auto ttl = std::chrono::seconds(60);

  // A capped acquire splits the head chunk: the first max_len runs go out,
  // the tail re-registers at the *front* of the queue.
  const auto l1 = ledger.acquire(1, t0, ttl, 4);
  ASSERT_TRUE(l1.has_value());
  EXPECT_EQ(l1->begin, 0u);
  EXPECT_EQ(l1->end, 4u);
  EXPECT_EQ(ledger.chunk_count(), 4u);   // the split minted a new chunk
  EXPECT_EQ(ledger.total_runs(), 25u);   // ...but no runs appeared or vanished

  const auto l2 = ledger.acquire(2, t0, ttl);  // uncapped: the tail, not [10,20)
  ASSERT_TRUE(l2.has_value());
  EXPECT_EQ(l2->begin, 4u);
  EXPECT_EQ(l2->end, 10u);

  // A cap wider than the chunk leaves it whole.
  const auto l3 = ledger.acquire(3, t0, ttl, 100);
  ASSERT_TRUE(l3.has_value());
  EXPECT_EQ(l3->begin, 10u);
  EXPECT_EQ(l3->end, 20u);

  // The pre-split range no longer exists; the split ranges fold exactly-once.
  EXPECT_EQ(ledger.fold(0, 0, 10).outcome, WorkLedger::FoldOutcome::kUnknown);
  EXPECT_EQ(ledger.fold(0, 0, 4).outcome, WorkLedger::FoldOutcome::kAccepted);
  EXPECT_EQ(ledger.fold(0, 4, 10).outcome, WorkLedger::FoldOutcome::kAccepted);
  EXPECT_EQ(ledger.fold(0, 10, 20).outcome,
            WorkLedger::FoldOutcome::kAccepted);
  const auto l4 = ledger.acquire(1, t0, ttl, 5);  // exact fit: no split
  ASSERT_TRUE(l4.has_value());
  EXPECT_EQ(l4->begin, 20u);
  EXPECT_EQ(l4->end, 25u);
  EXPECT_EQ(ledger.chunk_count(), 4u);
  EXPECT_TRUE(ledger.fold(0, 20, 25).cell_completed);
  EXPECT_TRUE(ledger.all_folded());
}

TEST(WorkLedger, AdaptiveLeaseCapShrinksTowardFloor) {
  using dist::adaptive_lease_cap;
  // Plenty of work left: the grain passes through untouched.
  EXPECT_EQ(adaptive_lease_cap(4096, 32, 1'000'000, 8), 4096u);
  EXPECT_EQ(adaptive_lease_cap(100, 8, 1000, 2), 100u);
  // The tail: halve until every worker has ~2 cap-sized chunks left.
  EXPECT_EQ(adaptive_lease_cap(64, 4, 80, 1), 32u);
  EXPECT_EQ(adaptive_lease_cap(64, 4, 48, 1), 16u);
  EXPECT_EQ(adaptive_lease_cap(100, 8, 100, 1), 50u);
  // The floor stops the shrink even when the remainder says go lower.
  EXPECT_EQ(adaptive_lease_cap(64, 4, 8, 1), 4u);
  EXPECT_EQ(adaptive_lease_cap(64, 4, 0, 3), 4u);
  // Zero workers is treated as one (a lease request proves one exists).
  EXPECT_EQ(adaptive_lease_cap(64, 4, 1, 0), 4u);
  // floor >= grain disables the adaptive tail entirely.
  EXPECT_EQ(adaptive_lease_cap(64, 64, 1, 5), 64u);
  EXPECT_EQ(adaptive_lease_cap(64, 128, 1, 5), 64u);
  // A zero floor is clamped to one run.
  EXPECT_EQ(adaptive_lease_cap(16, 0, 1, 1), 1u);
}

// ---- protocol ---------------------------------------------------------------

TEST(Proto, HostPortValidation) {
  const auto hp = dist::parse_host_port("127.0.0.1:7600");
  EXPECT_EQ(hp.host, "127.0.0.1");
  EXPECT_EQ(hp.port, 7600);
  EXPECT_EQ(dist::parse_host_port("example.com:1").port, 1);
  EXPECT_THROW((void)dist::parse_host_port("localhost"), ContractViolation);
  EXPECT_THROW((void)dist::parse_host_port(":80"), ContractViolation);
  EXPECT_THROW((void)dist::parse_host_port("h:0"), ContractViolation);
  EXPECT_THROW((void)dist::parse_host_port("h:65536"), ContractViolation);
  EXPECT_THROW((void)dist::parse_host_port("h:80x"), ContractViolation);
  EXPECT_THROW((void)dist::validate_port(0, "--serve"), ContractViolation);
  EXPECT_THROW((void)dist::validate_port(99999, "--serve"),
               ContractViolation);
}

TEST(Proto, FrameRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(dist::send_frame(fds[0], dist::MsgType::kWait,
                               dist::encode_wait(250)));
  ASSERT_TRUE(dist::send_frame(fds[0], dist::MsgType::kLeaseReq, ""));
  dist::Frame f;
  ASSERT_TRUE(dist::recv_frame(fds[1], f));
  EXPECT_EQ(f.type, dist::MsgType::kWait);
  std::uint32_t ms = 0;
  EXPECT_TRUE(dist::decode_wait(f.payload, ms));
  EXPECT_EQ(ms, 250u);
  ASSERT_TRUE(dist::recv_frame(fds[1], f));
  EXPECT_EQ(f.type, dist::MsgType::kLeaseReq);
  EXPECT_TRUE(f.payload.empty());
  ::close(fds[0]);
  EXPECT_FALSE(dist::recv_frame(fds[1], f));  // EOF
  ::close(fds[1]);
}

TEST(Proto, FrameBufferReassemblesSplitFrames) {
  const std::string one = dist::encode_lease({3, 10, 20});
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(dist::send_frame(fds[0], dist::MsgType::kLease, one));
  ASSERT_TRUE(dist::send_frame(fds[0], dist::MsgType::kDone, ""));
  std::string wire(4096, '\0');
  const ssize_t n = ::recv(fds[1], wire.data(), wire.size(), 0);
  ASSERT_GT(n, 0);
  wire.resize(static_cast<std::size_t>(n));
  ::close(fds[0]);
  ::close(fds[1]);

  dist::FrameBuffer buf;
  // Drip-feed one byte at a time: frames must surface exactly when whole.
  std::size_t yielded = 0;
  for (const char c : wire) {
    buf.feed(&c, 1);
    while (const auto f = buf.next()) {
      if (yielded == 0) {
        EXPECT_EQ(f->type, dist::MsgType::kLease);
        dist::LeaseMsg lease;
        ASSERT_TRUE(dist::decode_lease(f->payload, lease));
        EXPECT_EQ(lease.cell_index, 3u);
        EXPECT_EQ(lease.begin, 10u);
        EXPECT_EQ(lease.end, 20u);
      } else {
        EXPECT_EQ(f->type, dist::MsgType::kDone);
      }
      ++yielded;
    }
  }
  EXPECT_EQ(yielded, 2u);
  EXPECT_FALSE(buf.error());
}

/// One hand-built frame: 4-byte big-endian length (type byte + payload),
/// then the type, then the payload.
std::string raw_frame(std::uint32_t len, std::uint8_t type,
                      const std::string& payload) {
  std::string f;
  f.push_back(static_cast<char>(len >> 24));
  f.push_back(static_cast<char>(len >> 16));
  f.push_back(static_cast<char>(len >> 8));
  f.push_back(static_cast<char>(len));
  f.push_back(static_cast<char>(type));
  f += payload;
  return f;
}

TEST(Proto, FrameBufferRejectsHostileLengthPrefixes) {
  // An oversized length means a garbage or hostile peer: the buffer turns
  // sticky-errored instead of allocating, and stays errored even when a
  // perfectly valid frame follows the poison.
  dist::FrameBuffer oversized;
  const std::string big = raw_frame(dist::kMaxFrameBytes + 1, 1, "");
  oversized.feed(big.data(), big.size());
  EXPECT_FALSE(oversized.next().has_value());
  EXPECT_TRUE(oversized.error());
  const std::string ok = raw_frame(1, 4, "");  // a valid LeaseReq
  oversized.feed(ok.data(), ok.size());
  EXPECT_FALSE(oversized.next().has_value());
  EXPECT_TRUE(oversized.error());

  // A zero length (no room for even the type byte) is equally malformed.
  dist::FrameBuffer zero;
  const std::string z = raw_frame(0, 7, "");
  zero.feed(z.data(), z.size());
  EXPECT_FALSE(zero.next().has_value());
  EXPECT_TRUE(zero.error());

  // Truncation is not an error — the frame simply isn't whole yet.
  dist::FrameBuffer cut;
  const std::string whole = raw_frame(10, 5, "abcdefghi");
  cut.feed(whole.data(), 7);
  EXPECT_FALSE(cut.next().has_value());
  EXPECT_FALSE(cut.error());
  cut.feed(whole.data() + 7, whole.size() - 7);
  const auto f = cut.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->payload, "abcdefghi");
  EXPECT_FALSE(cut.error());
}

TEST(Proto, FrameBufferSurvivesSeededGarbage) {
  // Pure noise, fed in random-sized slices: the decoder must reject it
  // cleanly (almost every random length prefix is oversized) and never
  // crash, hang, or hand a frame to a decoder that then throws.
  Rng rng(2026);
  dist::FrameBuffer noise_buf;
  std::string noise(64 * 1024, '\0');
  for (auto& c : noise) c = static_cast<char>(rng.next_u64() & 0xFF);
  std::size_t off = 0;
  while (off < noise.size() && !noise_buf.error()) {
    const std::size_t n = std::min<std::size_t>(
        1 + static_cast<std::size_t>(rng.bounded(509)), noise.size() - off);
    noise_buf.feed(noise.data() + off, n);
    off += n;
    while (const auto frame = noise_buf.next()) {
      dist::HelloMsg h;
      (void)dist::decode_hello(frame->payload, h);
    }
  }

  // Frame-aligned garbage: valid length prefixes around random types and
  // payload bytes. Every frame must surface exactly once, and every decoder
  // must refuse the junk payloads by returning false, never by throwing.
  std::string wire;
  const int kFrames = 200;
  for (int i = 0; i < kFrames; ++i) {
    const std::uint32_t payload_len =
        static_cast<std::uint32_t>(rng.bounded(64));
    std::string payload;
    for (std::uint32_t k = 0; k < payload_len; ++k) {
      payload.push_back(static_cast<char>(rng.next_u64() & 0xFF));
    }
    wire += raw_frame(payload_len + 1,
                      static_cast<std::uint8_t>(rng.next_u64() & 0xFF),
                      payload);
  }
  dist::FrameBuffer buf;
  int yielded = 0;
  off = 0;
  while (off < wire.size()) {
    const std::size_t n = std::min<std::size_t>(
        1 + static_cast<std::size_t>(rng.bounded(17)), wire.size() - off);
    buf.feed(wire.data() + off, n);
    off += n;
    while (const auto frame = buf.next()) {
      ++yielded;
      dist::HelloMsg h;
      (void)dist::decode_hello(frame->payload, h);
      dist::LeaseMsg l;
      (void)dist::decode_lease(frame->payload, l);
      dist::ResultMsg r;
      (void)dist::decode_result(frame->payload, r);
      std::uint32_t ms = 0;
      (void)dist::decode_wait(frame->payload, ms);
    }
  }
  EXPECT_EQ(yielded, kFrames);
  EXPECT_FALSE(buf.error());
}

TEST(Proto, ResultEncodingRoundTripsAccumulatorExactly) {
  // A real accumulator (reservoirs and failure ring populated by actual
  // runs) must survive the wire byte-exactly — the distributed determinism
  // contract reduces to this round-trip plus merge invariance.
  const auto cells = dist_spec().expand();
  const ExperimentCell& cell = cells[0];
  CellAccumulator acc;
  for (std::uint64_t k = 0; k < 12; ++k) {
    const RunConfig cfg = cell.run_config(k);
    acc.add(extract_record(k, cfg.seed, run_consensus(cfg)));
  }

  dist::ResultMsg msg;
  msg.cell_index = cell.index;
  msg.begin = 0;
  msg.end = 12;
  msg.acc = acc;
  const std::string payload = dist::encode_result(msg);

  dist::ResultMsg back;
  ASSERT_TRUE(dist::decode_result(payload, back));
  EXPECT_EQ(back.cell_index, cell.index);
  EXPECT_EQ(back.begin, 0u);
  EXPECT_EQ(back.end, 12u);
  EXPECT_EQ(back.acc.runs, acc.runs);
  EXPECT_EQ(back.acc.terminated, acc.terminated);
  EXPECT_EQ(back.acc.violations, acc.violations);
  // Exactness: every rendered statistic (moments, percentiles, failure
  // list) of the decoded accumulator matches the original's byte for byte.
  // (Reservoir heap *layout* may legally differ — the kept set and
  // everything derived from it may not.)
  CellAccumulator fa = acc;
  fa.finalize();
  CellAccumulator fb = back.acc;
  fb.finalize();
  std::vector<CellResult> ra, rb;
  ra.emplace_back(cell, std::move(fa));
  rb.emplace_back(cell, std::move(fb));
  EXPECT_EQ(render_artifacts("roundtrip", ra),
            render_artifacts("roundtrip", rb));

  dist::ResultMsg bad;
  EXPECT_FALSE(dist::decode_result("result 0 5 5 0 0 0\n", bad));
  EXPECT_FALSE(dist::decode_result("garbage", bad));
}

// ---- end-to-end over localhost TCP -----------------------------------------

/// Runs a coordinator for `spec` on an ephemeral port and hands its port to
/// `drive` (which runs workers / rogue clients); returns the rendered
/// artifacts of the coordinator's merged results.
std::string serve_grid(const ExperimentSpec& spec, CoordinatorOptions opts,
                       const std::function<void(std::uint16_t)>& drive) {
  const auto cells = spec.expand();
  Coordinator coordinator(cells, full_spans(cells), grid_fingerprint(cells),
                          std::move(opts));
  coordinator.bind();
  const std::uint16_t port = coordinator.port();
  CollectingSink sink(cells, {});
  std::thread server([&] { coordinator.serve(sink); });
  drive(port);
  server.join();
  return render_artifacts(spec.name, sink.take_results());
}

dist::WorkerOptions worker_options(std::uint16_t port, unsigned sessions) {
  dist::WorkerOptions w;
  w.target = {"127.0.0.1", port};
  w.sessions = sessions;
  return w;
}

/// A well-formed Hello for this grid.
dist::HelloMsg make_hello(std::uint64_t fp, std::size_t n_cells,
                          std::uint64_t reconnect = 0) {
  dist::HelloMsg hello;
  hello.fingerprint = fp;
  hello.cells = n_cells;
  hello.reconnect = reconnect;
  return hello;
}

/// A raw session that completes the handshake and takes one lease it never
/// folds. Returns its socket, or -1 when any step fails.
int take_one_lease(std::uint16_t port, std::uint64_t fp, std::size_t n_cells) {
  const int fd = dist::connect_once({"127.0.0.1", port});
  if (fd < 0) return -1;
  dist::Frame f;
  const bool leased =
      dist::send_frame(fd, dist::MsgType::kHello,
                       dist::encode_hello(make_hello(fp, n_cells))) &&
      dist::recv_frame(fd, f) && f.type == dist::MsgType::kWelcome &&
      dist::send_frame(fd, dist::MsgType::kLeaseReq, "") &&
      dist::recv_frame(fd, f) && f.type == dist::MsgType::kLease;
  if (!leased) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(DistributedSweep, TwoWorkersMatchLocalByteForByte) {
  // Both workers get work by construction, not by timing: a raw session
  // holds one lease so the grid cannot finish, the one-session worker
  // starts only after a run has folded (which only the two-session worker
  // can have done), and the held lease goes back once all four
  // connections are up.
  const ExperimentSpec spec = dist_spec();
  const std::string reference = reference_artifacts(spec);
  const auto cells = spec.expand();
  const std::uint64_t fp = grid_fingerprint(cells);

  std::mutex mu;
  std::condition_variable changed;
  std::uint64_t folded = 0;
  std::size_t connections = 0;
  CoordinatorOptions opts = test_coordinator_options();
  opts.progress = [&](std::uint64_t runs, std::uint64_t, std::size_t conns) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      folded = runs;
      connections = conns;
    }
    changed.notify_all();
  };
  const auto await = [&](const auto& ready) {
    std::unique_lock<std::mutex> lock(mu);
    return changed.wait_for(lock, std::chrono::minutes(1), ready);
  };

  const std::string distributed =
      serve_grid(spec, std::move(opts), [&](std::uint16_t port) {
        const int held = take_one_lease(port, fp, cells.size());
        ASSERT_GE(held, 0);
        std::thread w1([&] {
          const auto r = dist::run_worker(cells, fp, worker_options(port, 2));
          EXPECT_TRUE(r.completed) << r.error;
          EXPECT_GT(r.runs_executed, 0u);
        });
        EXPECT_TRUE(await([&] { return folded > 0; }));
        std::thread w2([&] {
          const auto r2 = dist::run_worker(cells, fp, worker_options(port, 1));
          EXPECT_TRUE(r2.completed) << r2.error;
        });
        EXPECT_TRUE(await([&] { return connections == 4; }));
        ::close(held);
        w2.join();
        w1.join();
      });
  EXPECT_EQ(distributed, reference);
}

TEST(DistributedSweep, RejectsForeignGridFingerprint) {
  const ExperimentSpec spec = dist_spec();
  const auto cells = spec.expand();
  const std::uint64_t fp = grid_fingerprint(cells);

  const std::string distributed =
      serve_grid(spec, test_coordinator_options(), [&](std::uint16_t port) {
        // Wrong fingerprint first: rejected before any run executes.
        const auto bad =
            dist::run_worker(cells, fp + 1, worker_options(port, 1));
        EXPECT_FALSE(bad.completed);
        EXPECT_NE(bad.error.find("rejected"), std::string::npos) << bad.error;
        EXPECT_EQ(bad.runs_executed, 0u);
        // A correct worker still completes the grid afterwards.
        const auto good =
            dist::run_worker(cells, fp, worker_options(port, 2));
        EXPECT_TRUE(good.completed) << good.error;
      });
  EXPECT_EQ(distributed, reference_artifacts(spec));
}

TEST(DistributedSweep, WorkerKilledMidChunkLeavesOutputIdentical) {
  const ExperimentSpec spec = dist_spec();
  const auto cells = spec.expand();
  const std::uint64_t fp = grid_fingerprint(cells);

  const std::string distributed =
      serve_grid(spec, test_coordinator_options(), [&](std::uint16_t port) {
        // The "killed" worker: completes the handshake, takes a lease, and
        // vanishes without folding it. Its chunk must re-queue.
        const int fd = take_one_lease(port, fp, cells.size());
        ASSERT_GE(fd, 0);
        ::close(fd);  // SIGKILL equivalent: the TCP connection just dies

        const auto r = dist::run_worker(cells, fp, worker_options(port, 2));
        EXPECT_TRUE(r.completed) << r.error;
      });
  EXPECT_EQ(distributed, reference_artifacts(spec));
}

TEST(DistributedSweep, ExpiredLeaseOnWedgedWorkerIsReassigned) {
  const ExperimentSpec spec = dist_spec();
  const auto cells = spec.expand();
  const std::uint64_t fp = grid_fingerprint(cells);

  CoordinatorOptions opts = test_coordinator_options();
  opts.lease_ttl = std::chrono::milliseconds(150);

  int wedged_fd = -1;
  const std::string distributed =
      serve_grid(spec, std::move(opts), [&](std::uint16_t port) {
        // The wedged worker: leases a chunk and then sits on it, connection
        // alive, well past the lease TTL.
        wedged_fd = take_one_lease(port, fp, cells.size());
        ASSERT_GE(wedged_fd, 0);
        std::this_thread::sleep_for(std::chrono::milliseconds(400));

        // A live worker drains the grid, the expired chunk included.
        const auto r = dist::run_worker(cells, fp, worker_options(port, 1));
        EXPECT_TRUE(r.completed) << r.error;
      });
  if (wedged_fd >= 0) ::close(wedged_fd);
  EXPECT_EQ(distributed, reference_artifacts(spec));
}

TEST(DistributedSweep, AdaptiveLeaseTailShrinksToFloor) {
  // One serial manual worker against grain 64 / floor 4 on an 80-run grid:
  // the lease lengths it is handed follow the adaptive_lease_cap schedule
  // exactly (the protocol is strictly request/response on one connection,
  // so there is no timing in this sequence), the final leases sit on the
  // floor, and the resharded tail must not change a single output byte.
  const ExperimentSpec spec = dist_spec();
  const auto cells = spec.expand();
  const std::uint64_t fp = grid_fingerprint(cells);

  CoordinatorOptions opts = test_coordinator_options();
  opts.lease_grain = 64;
  opts.lease_floor = 4;

  std::vector<std::uint64_t> lengths;
  const std::string distributed =
      serve_grid(spec, std::move(opts), [&](std::uint16_t port) {
        const int fd = dist::connect_once({"127.0.0.1", port});
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(dist::send_frame(
            fd, dist::MsgType::kHello,
            dist::encode_hello(make_hello(fp, cells.size()))));
        dist::Frame f;
        ASSERT_TRUE(dist::recv_frame(fd, f));
        ASSERT_EQ(f.type, dist::MsgType::kWelcome);

        std::uint64_t executed = 0;
        while (executed < spec.total_runs()) {
          ASSERT_TRUE(dist::send_frame(fd, dist::MsgType::kLeaseReq, ""));
          ASSERT_TRUE(dist::recv_frame(fd, f));
          ASSERT_EQ(f.type, dist::MsgType::kLease);
          dist::LeaseMsg lease;
          ASSERT_TRUE(dist::decode_lease(f.payload, lease));
          lengths.push_back(lease.end - lease.begin);

          dist::ResultMsg result;
          result.cell_index = lease.cell_index;
          result.begin = lease.begin;
          result.end = lease.end;
          for (std::uint64_t k = lease.begin; k < lease.end; ++k) {
            const RunConfig cfg = cells[lease.cell_index].run_config(k);
            result.acc.add(extract_record(k, cfg.seed, run_consensus(cfg)));
          }
          ASSERT_TRUE(dist::send_frame(fd, dist::MsgType::kResult,
                                       dist::encode_result(result)));
          executed += lease.end - lease.begin;
        }
        ::close(fd);
      });

  // 80 runs, one worker: 64 halves to 32 up front, the caps shrink as the
  // pool drains, and the last two leases sit exactly on the floor.
  const std::vector<std::uint64_t> expected = {32, 8, 16, 8, 8, 4, 4};
  EXPECT_EQ(lengths, expected);
  EXPECT_EQ(distributed, reference_artifacts(spec));
}

TEST(DistributedSweep, WorkerRidesOutSeveredConnections) {
  // A chaos proxy between the worker and the coordinator cuts the
  // connection mid-stream on a seeded byte budget (twice, then turns
  // transparent so the grid always drains). The worker's backoff/re-hello
  // recovery must ride the injuries out and the bytes must not change.
  const ExperimentSpec spec = dist_spec();
  const auto cells = spec.expand();
  const std::uint64_t fp = grid_fingerprint(cells);

  const std::string distributed =
      serve_grid(spec, test_coordinator_options(), [&](std::uint16_t port) {
        dist::ChaosProxyOptions popts;
        popts.target = {"127.0.0.1", port};
        popts.seed = 42;
        popts.sever_min_bytes = 1500;  // past the handshake, well inside the
        popts.sever_max_bytes = 3000;  // grid's total traffic
        popts.max_severs = 2;
        dist::ChaosProxy proxy(popts);
        proxy.start();

        dist::WorkerOptions wopts = worker_options(proxy.port(), 1);
        wopts.reconnect_attempts = 50;
        wopts.reconnect_base = std::chrono::milliseconds(10);
        wopts.reconnect_cap = std::chrono::milliseconds(100);
        const auto r = dist::run_worker(cells, fp, wopts);
        EXPECT_TRUE(r.completed) << r.error;
        EXPECT_GE(r.reconnects, 1u);
        EXPECT_GE(proxy.severed(), 1u);
        proxy.stop();
      });
  EXPECT_EQ(distributed, reference_artifacts(spec));
}

TEST(DistributedSweep, CoordinatorCrashAndResumeMatchesByteForByte) {
  // Full failover drill: the coordinator checkpoint-appends every fold,
  // dies abruptly after three (every socket torn down, no Done — the
  // injected SIGKILL), and a second coordinator resumes from the
  // checkpoint on the *same port*. The workers, started before the crash,
  // ride it out with backoff + re-hello. Checkpointed chunks merge under
  // the restarted run's results; the combined artifacts must be
  // byte-identical to a never-crashed run.
  const ExperimentSpec spec = dist_spec();
  const auto cells = spec.expand();
  const std::uint64_t fp = grid_fingerprint(cells);

  std::stringstream ckpt;
  write_checkpoint_header(ckpt, fp);
  CollectingSink::Options sink_opts;
  sink_opts.on_chunk = [&](const ExperimentCell& cell, std::uint64_t begin,
                           std::uint64_t end, const CellAccumulator& acc) {
    append_checkpoint_chunk(ckpt, cell.index, begin, end, acc);
  };

  CoordinatorOptions opts = test_coordinator_options();
  opts.crash_after_chunks = 3;
  auto first = std::make_unique<Coordinator>(cells, full_spans(cells), fp,
                                             std::move(opts));
  first->bind();
  const std::uint16_t port = first->port();

  // Generous recovery budget: the sessions must survive both the crash
  // window and however long the restart takes.
  dist::WorkerOptions wopts = worker_options(port, 1);
  wopts.reconnect_attempts = 200;
  wopts.reconnect_base = std::chrono::milliseconds(10);
  wopts.reconnect_cap = std::chrono::milliseconds(100);
  dist::WorkerReport r1, r2;
  std::thread w1([&] { r1 = dist::run_worker(cells, fp, wopts); });
  std::thread w2([&] { r2 = dist::run_worker(cells, fp, wopts); });

  bool crashed = false;
  try {
    CollectingSink doomed(cells, std::move(sink_opts));
    first->serve(doomed);
  } catch (const dist::ChaosKill& kill) {
    crashed = true;
    EXPECT_GE(kill.folded_chunks, 3u);
  }
  ASSERT_TRUE(crashed);
  first.reset();

  // Resume exactly as `sweep --serve --resume` does.
  std::istringstream in(ckpt.str());
  ResumePlan plan = plan_resume(cells, load_checkpoint_data(in, fp));
  // 3 folded chunks of 12: the crash left real work (this also proves the
  // checkpoint caught the pre-crash folds).
  ASSERT_FALSE(plan.spans.empty());
  ASSERT_GT(plan.resumed_runs, 0u);

  CoordinatorOptions opts2 = test_coordinator_options();
  opts2.port = port;  // the endpoint the workers keep redialing
  Coordinator second(cells, plan.spans, fp, std::move(opts2));
  second.bind();
  CollectingSink sink(cells, {});
  sink.resume(std::move(plan.checkpoint));
  second.serve(sink);
  w1.join();
  w2.join();
  EXPECT_TRUE(r1.completed) << r1.error;
  EXPECT_TRUE(r2.completed) << r2.error;
  EXPECT_GE(r1.reconnects + r2.reconnects, 1u);
  EXPECT_EQ(render_artifacts(spec.name, sink.take_results()),
            reference_artifacts(spec));
}

// ---- health endpoint + distributed obs metrics ------------------------------

/// Parses the first unsigned integer after `key` in a flat JSON string.
std::uint64_t json_uint_after(const std::string& json, const std::string& key) {
  const auto pos = json.find(key);
  if (pos == std::string::npos) return ~0ull;
  std::uint64_t v = 0;
  bool any = false;
  for (std::size_t i = pos + key.size(); i < json.size(); ++i) {
    const char c = json[i];
    if (c < '0' || c > '9') break;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
    any = true;
  }
  return any ? v : ~0ull;
}

/// One HTTP GET against the coordinator's health endpoint; returns the raw
/// response (headers + JSON body).
std::string fetch_health(std::uint16_t port) {
  const int fd = dist::connect_once({"127.0.0.1", port});
  if (fd < 0) return {};
  const char req[] = "GET /health HTTP/1.0\r\n\r\n";
  (void)::send(fd, req, sizeof(req) - 1, 0);
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

TEST(DistributedSweep, HealthEndpointServesMonotonicProgress) {
  // collect_obs on: phase timings ride the wire alongside the counters, and
  // the final artifacts (obs columns included) must still match a local run.
  ExperimentSpec spec = dist_spec();
  spec.collect_obs = true;
  const auto cells = spec.expand();
  const std::uint64_t fp = grid_fingerprint(cells);

  CoordinatorOptions opts = test_coordinator_options();
  opts.health_port = 0;  // ephemeral
  opts.lease_grain = 16;
  Coordinator coordinator(cells, full_spans(cells), fp, std::move(opts));
  coordinator.bind();
  const std::uint16_t hport = coordinator.health_port();
  ASSERT_NE(hport, 0);
  // A checkpointing sink, so the endpoint reports its flush age.
  std::stringstream ckpt;
  CollectingSink::Options sink_opts;
  sink_opts.on_chunk = [&](const ExperimentCell& cell, std::uint64_t begin,
                           std::uint64_t end, const CellAccumulator& acc) {
    append_checkpoint_chunk(ckpt, cell.index, begin, end, acc);
  };
  CollectingSink sink(cells, std::move(sink_opts));
  std::thread server([&] { coordinator.serve(sink); });

  // Before any worker connects: schema present, zero progress, no workers.
  const std::string before = fetch_health(hport);
  ASSERT_NE(before.find("\"schema\":\"hyco-health/2\""), std::string::npos)
      << before;
  EXPECT_EQ(json_uint_after(before, "\"folded\":"), 0u);
  EXPECT_NE(before.find("\"checkpoint_flush_ms\":-1"), std::string::npos);
  EXPECT_NE(before.find("\"workers\":[]"), std::string::npos);
  const std::uint64_t total = json_uint_after(before, "\"total\":");
  EXPECT_EQ(total, spec.total_runs());

  // A manual worker folds exactly one chunk, so "mid-sweep" is a state we
  // control rather than a race we hope to win.
  const int fd = dist::connect_once({"127.0.0.1", coordinator.port()});
  ASSERT_GE(fd, 0);
  dist::HelloMsg hello;
  hello.fingerprint = fp;
  hello.cells = cells.size();
  ASSERT_TRUE(dist::send_frame(fd, dist::MsgType::kHello,
                               dist::encode_hello(hello)));
  dist::Frame f;
  ASSERT_TRUE(dist::recv_frame(fd, f));
  ASSERT_EQ(f.type, dist::MsgType::kWelcome);
  ASSERT_TRUE(dist::send_frame(fd, dist::MsgType::kLeaseReq, ""));
  ASSERT_TRUE(dist::recv_frame(fd, f));
  ASSERT_EQ(f.type, dist::MsgType::kLease);
  dist::LeaseMsg lease;
  ASSERT_TRUE(dist::decode_lease(f.payload, lease));

  dist::ResultMsg result;
  result.cell_index = lease.cell_index;
  result.begin = lease.begin;
  result.end = lease.end;
  for (std::uint64_t k = lease.begin; k < lease.end; ++k) {
    const RunConfig cfg = cells[lease.cell_index].run_config(k);
    result.acc.add(extract_record(k, cfg.seed, run_consensus(cfg)));
  }
  ASSERT_TRUE(dist::send_frame(fd, dist::MsgType::kResult,
                               dist::encode_result(result)));
  // Frames on one connection are handled in order: once the next lease
  // round-trips, the Result before it has been folded.
  ASSERT_TRUE(dist::send_frame(fd, dist::MsgType::kLeaseReq, ""));
  ASSERT_TRUE(dist::recv_frame(fd, f));
  ASSERT_TRUE(f.type == dist::MsgType::kLease ||
              f.type == dist::MsgType::kWait);

  const std::string mid = fetch_health(hport);
  const std::uint64_t chunk_len = lease.end - lease.begin;
  EXPECT_EQ(json_uint_after(mid, "\"folded\":"), chunk_len) << mid;
  EXPECT_NE(mid.find("\"welcomed\":true"), std::string::npos);
  EXPECT_EQ(json_uint_after(mid, "\"folded_runs\":"), chunk_len) << mid;
  EXPECT_LT(json_uint_after(mid, "\"checkpoint_flush_ms\":"), 60'000u) << mid;

  // The manual worker vanishes (its second lease re-queues); real workers
  // drain the rest and the artifacts — obs columns included — must match a
  // single-machine run byte for byte.
  ::close(fd);
  const auto r = dist::run_worker(cells, fp, worker_options(
                                      coordinator.port(), 2));
  EXPECT_TRUE(r.completed) << r.error;
  server.join();
  const std::vector<CellResult> results = sink.take_results();

  ReportOptions ropts;
  ropts.net_stats = true;
  ropts.phase_metrics = true;
  std::ostringstream da;
  write_cell_csv(da, results, ropts);
  write_cell_json(da, spec.name, results, ropts);

  CollectingSink local_sink(cells, {});
  ParallelExecutor::Options eopts;
  eopts.threads = 2;
  ParallelExecutor(eopts).run(cells, local_sink);
  auto local = local_sink.take_results();
  std::ostringstream la;
  write_cell_csv(la, local, ropts);
  write_cell_json(la, spec.name, local, ropts);
  EXPECT_EQ(da.str(), la.str());
}

TEST(DistributedSweep, HealthEndpointReportsRecoveryCounters) {
  // The hyco-health/2 recovery block: a lease aging on a wedged worker
  // shows up as oldest_lease_ms before it expires, the expiry bumps
  // lease_expiries + requeued_chunks, and a re-hello bumps
  // worker_reconnects (with the per-worker reconnect count echoed back).
  const ExperimentSpec spec = dist_spec();
  const auto cells = spec.expand();
  const std::uint64_t fp = grid_fingerprint(cells);

  CoordinatorOptions opts = test_coordinator_options();
  opts.health_port = 0;
  opts.lease_ttl = std::chrono::milliseconds(250);
  Coordinator coordinator(cells, full_spans(cells), fp, std::move(opts));
  coordinator.bind();
  const std::uint16_t hport = coordinator.health_port();
  ASSERT_NE(hport, 0);
  CollectingSink sink(cells, {});
  std::thread server([&] { coordinator.serve(sink); });

  // The wedged worker: leases a chunk, then sits on it.
  const int fd = dist::connect_once({"127.0.0.1", coordinator.port()});
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(dist::send_frame(fd, dist::MsgType::kHello,
                               dist::encode_hello(make_hello(fp,
                                                             cells.size()))));
  dist::Frame f;
  ASSERT_TRUE(dist::recv_frame(fd, f));
  ASSERT_EQ(f.type, dist::MsgType::kWelcome);
  ASSERT_TRUE(dist::send_frame(fd, dist::MsgType::kLeaseReq, ""));
  ASSERT_TRUE(dist::recv_frame(fd, f));
  ASSERT_EQ(f.type, dist::MsgType::kLease);

  // Mid-lease (well inside the TTL): the lease's age is visible, nothing
  // has expired yet, and with no checkpoint hook wired the flush stamp
  // stays at its -1 sentinel.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  const std::string aging = fetch_health(hport);
  ASSERT_NE(aging.find("\"recovery\":{"), std::string::npos) << aging;
  EXPECT_NE(aging.find("\"checkpoint_flush_ms\":-1"), std::string::npos)
      << aging;
  const std::uint64_t age = json_uint_after(aging, "\"oldest_lease_ms\":");
  EXPECT_GE(age, 1u) << aging;
  EXPECT_LT(age, 10'000u) << aging;
  EXPECT_EQ(json_uint_after(aging, "\"lease_expiries\":"), 0u) << aging;

  // Past the TTL: exactly one lease expired and re-queued.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const std::string expired = fetch_health(hport);
  EXPECT_EQ(json_uint_after(expired, "\"lease_expiries\":"), 1u) << expired;
  EXPECT_EQ(json_uint_after(expired, "\"requeued_chunks\":"), 1u) << expired;
  EXPECT_EQ(json_uint_after(expired, "\"worker_reconnects\":"), 0u)
      << expired;

  // A re-hello (session's third connect) registers as a reconnect, and the
  // worker row echoes its cumulative count.
  const int fd2 = dist::connect_once({"127.0.0.1", coordinator.port()});
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(dist::send_frame(
      fd2, dist::MsgType::kHello,
      dist::encode_hello(make_hello(fp, cells.size(), 2))));
  ASSERT_TRUE(dist::recv_frame(fd2, f));
  ASSERT_EQ(f.type, dist::MsgType::kWelcome);
  const std::string rejoined = fetch_health(hport);
  EXPECT_EQ(json_uint_after(rejoined, "\"worker_reconnects\":"), 1u)
      << rejoined;
  EXPECT_NE(rejoined.find("\"reconnects\":2"), std::string::npos) << rejoined;

  // Real workers drain the grid — the expired chunk included — and the
  // artifacts still match a local run byte for byte.
  const auto r =
      dist::run_worker(cells, fp, worker_options(coordinator.port(), 2));
  EXPECT_TRUE(r.completed) << r.error;
  server.join();
  ::close(fd);
  ::close(fd2);
  EXPECT_EQ(render_artifacts(spec.name, sink.take_results()),
            reference_artifacts(spec));
}

// ---- mid-cell chunk-checkpoint resume --------------------------------------

TEST(ChunkCheckpoint, MidCellResumeMatchesUninterruptedByteForByte) {
  // One monster cell. The interrupted session executes only [0, 120) +
  // [200, 260), appending chunk blocks; the resumed session loads them,
  // runs the complement spans, merges, and must land on identical bytes.
  ExperimentSpec spec;
  spec.name = "monster";
  spec.algorithms = {Algorithm::HybridLocalCoin};
  spec.layouts = {ClusterLayout::even(4, 2)};
  spec.runs_per_cell = 300;
  spec.base_seed = 11;
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 1u);
  const std::uint64_t fp = grid_fingerprint(cells);
  const std::string reference = reference_artifacts(spec);

  std::stringstream file;
  write_checkpoint_header(file, fp);
  {
    std::mutex mu;
    CollectingSink::Options sink_opts;
    sink_opts.on_chunk = [&](const ExperimentCell& cell, std::uint64_t begin,
                             std::uint64_t end, const CellAccumulator& acc) {
      const std::lock_guard<std::mutex> lock(mu);
      append_checkpoint_chunk(file, cell.index, begin, end, acc);
    };
    CollectingSink sink(cells, std::move(sink_opts));
    ParallelExecutor::Options opts;
    opts.threads = 2;
    opts.chunk_size = 32;
    ParallelExecutor(opts).run(cells, {{0, 0, 120}, {0, 200, 260}}, sink);
  }

  ResumePlan plan = plan_resume(cells, load_checkpoint_data(file, fp));
  ASSERT_EQ(plan.checkpoint.chunks.size(), 1u);
  EXPECT_EQ(plan.resumed_runs, 180u);
  ASSERT_EQ(plan.spans.size(), 2u);  // [120, 200) and [260, 300)
  EXPECT_EQ(plan.spans[0].begin, 120u);
  EXPECT_EQ(plan.spans[0].end, 200u);
  EXPECT_EQ(plan.spans[1].begin, 260u);
  EXPECT_EQ(plan.spans[1].end, 300u);

  CollectingSink sink(cells, {});
  sink.resume(std::move(plan.checkpoint));
  ParallelExecutor::Options opts;
  opts.threads = 2;
  opts.chunk_size = 57;  // a different grain must not change the bytes
  ParallelExecutor(opts).run(cells, plan.spans, sink);
  EXPECT_EQ(render_artifacts(spec.name, sink.take_results()), reference);
}

TEST(ChunkCheckpoint, LoaderDropsDuplicatesOverlapsAndTruncation) {
  const auto cells = dist_spec().expand();
  const std::uint64_t fp = grid_fingerprint(cells);

  CellAccumulator acc;
  for (std::uint64_t k = 0; k < 10; ++k) {
    const RunConfig cfg = cells[0].run_config(k);
    acc.add(extract_record(k, cfg.seed, run_consensus(cfg)));
  }

  // Cell 0's [0,10) is written twice (a re-executed chunk) → one copy
  // stays. Cell 1 keeps [0,10) and [10,20); an overlapping [5,15) (a raced
  // duplicate) drops.
  std::stringstream file;
  write_checkpoint_header(file, fp);
  append_checkpoint_chunk(file, 0, 0, 10, acc);
  append_checkpoint_chunk(file, 0, 0, 10, acc);
  append_checkpoint_chunk(file, 1, 0, 10, acc);
  append_checkpoint_chunk(file, 1, 5, 15, acc);
  append_checkpoint_chunk(file, 1, 10, 20, acc);

  const CheckpointData data = load_checkpoint_data(file, fp);
  ASSERT_EQ(data.chunks.size(), 2u);
  ASSERT_EQ(data.chunks.at(0).size(), 1u);
  EXPECT_EQ(data.chunks.at(0)[0].end, 10u);
  const auto& list = data.chunks.at(1);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].begin, 0u);
  EXPECT_EQ(list[0].end, 10u);
  EXPECT_EQ(list[1].begin, 10u);
  EXPECT_EQ(list[1].end, 20u);

  // A truncated trailing chunk block is dropped; the complete blocks before
  // it survive.
  std::stringstream file2;
  write_checkpoint_header(file2, fp);
  append_checkpoint_chunk(file2, 1, 0, 10, acc);
  append_checkpoint_chunk(file2, 1, 10, 20, acc);
  const std::string text = file2.str();
  std::istringstream cut(text.substr(0, text.size() - 30));
  const CheckpointData partial = load_checkpoint_data(cut, fp);
  ASSERT_EQ(partial.chunks.count(1), 1u);
  EXPECT_EQ(partial.chunks.at(1).size(), 1u);
}

TEST(ChunkCheckpoint, CompactionMergesEachChainIntoOneBlock) {
  const auto cells = dist_spec().expand();
  const std::uint64_t fp = grid_fingerprint(cells);

  CellAccumulator acc;
  for (std::uint64_t k = 0; k < 10; ++k) {
    const RunConfig cfg = cells[0].run_config(k);
    acc.add(extract_record(k, cfg.seed, run_consensus(cfg)));
  }

  // Cell 0: a trail covering all 40 runs. Cell 1: a contiguous
  // [0,10)+[10,20) chain and a detached [30,40).
  std::stringstream file;
  write_checkpoint_header(file, fp);
  for (std::uint64_t b = 0; b < 40; b += 10) {
    append_checkpoint_chunk(file, 0, b, b + 10, acc);
  }
  append_checkpoint_chunk(file, 1, 0, 10, acc);
  append_checkpoint_chunk(file, 1, 10, 20, acc);
  append_checkpoint_chunk(file, 1, 30, 40, acc);

  const CheckpointData data = load_checkpoint_data(file, fp);
  std::stringstream compact;
  write_compacted_checkpoint(compact, fp, data);
  EXPECT_LT(compact.str().size(), file.str().size());

  // The rewrite lands the finished cell as the one block [0,40), merges
  // cell 1's chain into one block, and leaves the gap before [30,40) open.
  const CheckpointData out = load_checkpoint_data(compact, fp);
  ASSERT_EQ(out.chunks.size(), 2u);
  ASSERT_EQ(out.chunks.at(0).size(), 1u);
  EXPECT_EQ(out.chunks.at(0)[0].begin, 0u);
  EXPECT_EQ(out.chunks.at(0)[0].end, 40u);
  EXPECT_EQ(out.chunks.at(0)[0].acc.runs, 40u);
  const auto& list = out.chunks.at(1);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].begin, 0u);
  EXPECT_EQ(list[0].end, 20u);
  EXPECT_EQ(list[0].acc.runs, 20u);
  EXPECT_EQ(list[1].begin, 30u);
  EXPECT_EQ(list[1].end, 40u);
}

TEST(ChunkCheckpoint, CompactedRewriteResumesByteForByte) {
  // The --resume compaction path end to end: an interrupted session leaves
  // a chunk trail with a gap, the rewrite collapses it, and a resume from
  // the compacted file lands on the same bytes as an uninterrupted run.
  const ExperimentSpec spec = dist_spec();
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 2u);
  const std::uint64_t fp = grid_fingerprint(cells);
  const std::string reference = reference_artifacts(spec);

  // Interrupted session: cell 0 executed [0,10) + [20,40) in grain-10
  // chunks (three chunk blocks); cell 1 untouched.
  std::stringstream file;
  write_checkpoint_header(file, fp);
  {
    std::mutex mu;
    CollectingSink::Options sink_opts;
    sink_opts.on_chunk = [&](const ExperimentCell& cell, std::uint64_t begin,
                             std::uint64_t end, const CellAccumulator& a) {
      const std::lock_guard<std::mutex> lock(mu);
      append_checkpoint_chunk(file, cell.index, begin, end, a);
    };
    CollectingSink sink(cells, std::move(sink_opts));
    ParallelExecutor::Options opts;
    opts.threads = 2;
    opts.chunk_size = 10;
    ParallelExecutor(opts).run(cells, {{0, 0, 10}, {0, 20, 40}}, sink);
  }

  const CheckpointData loaded = load_checkpoint_data(file, fp);
  std::stringstream compact;
  write_compacted_checkpoint(compact, fp, loaded);
  EXPECT_LT(compact.str().size(), file.str().size());

  const CheckpointData reloaded = load_checkpoint_data(compact, fp);
  ASSERT_EQ(reloaded.chunks.size(), 1u);
  const auto& list = reloaded.chunks.at(0);
  ASSERT_EQ(list.size(), 2u);  // [20,30)+[30,40) merged; the gap survives
  EXPECT_EQ(list[0].begin, 0u);
  EXPECT_EQ(list[0].end, 10u);
  EXPECT_EQ(list[1].begin, 20u);
  EXPECT_EQ(list[1].end, 40u);
  EXPECT_EQ(list[1].acc.runs, 20u);

  // Resume from the compacted file at a different grain: complement spans
  // only, folded on top of the checkpoint — byte-identical artifacts.
  ResumePlan plan = plan_resume(cells, reloaded);
  ASSERT_EQ(plan.spans.size(), 2u);  // cell 0's gap [10,20), all of cell 1
  EXPECT_EQ(plan.spans[0].cell_pos, 0u);
  EXPECT_EQ(plan.spans[0].begin, 10u);
  EXPECT_EQ(plan.spans[0].end, 20u);
  EXPECT_EQ(plan.spans[1].cell_pos, 1u);
  EXPECT_EQ(plan.spans[1].length(), 40u);
  CollectingSink sink(cells, {});
  sink.resume(std::move(plan.checkpoint));
  ParallelExecutor::Options opts;
  opts.threads = 2;
  opts.chunk_size = 7;
  ParallelExecutor(opts).run(cells, plan.spans, sink);
  EXPECT_EQ(render_artifacts(spec.name, sink.take_results()), reference);
}

}  // namespace
}  // namespace hyco
