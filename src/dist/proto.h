// Wire protocol of the distributed sweep engine (src/dist/).
//
// Transport: length-prefixed frames over TCP — a 4-byte big-endian payload
// length, a 1-byte message type, then the payload. Payloads are plain text
// (the same debuggable style as the checkpoint file); the heavyweight one,
// a chunk result, embeds the accumulator exactly as the checkpoint's
// write_accumulator_state() lines, so the wire encoding and the on-disk
// chunk-checkpoint encoding are one format.
//
// Session shape (worker side):
//   connect → Hello{version, grid fingerprint, cell count, capacities,
//                   reconnect count}
//   ← Welcome (or Reject{reason} + close)
//   loop: LeaseReq → ← Lease{cell, begin, end} | Wait{ms} | Done
//         execute the lease, → Result{cell, begin, end, accumulator}
// The coordinator never initiates messages except a final unsolicited Done
// broadcast when the grid completes; workers therefore poll the socket
// while honoring a Wait so the Done is seen promptly.
//
// Recovery is a *re-hello*, not a new frame kind: a session that loses its
// connection mid-sweep (worker sever, coordinator crash/restart) dials in
// again and sends a fresh Hello with `reconnect` bumped. The coordinator
// treats every connection as new — the dead session's leases were already
// re-queued on disconnect (or by lease-TTL expiry), so the worker abandons
// any un-folded local chunk and simply leases afresh; the reconnect count
// only feeds the health endpoint's recovery counters.
//
// Everything here is defensive against a misbehaving peer: decode functions
// return false instead of throwing, and frame lengths are capped. The only
// throwing entry points are the CLI-facing validators (parse_host_port) and
// the local socket constructors, which fail on *our* end of the wire.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "exp/sink.h"

namespace hyco::dist {

inline constexpr std::uint32_t kProtocolVersion = 3;

/// Upper bound on a frame payload. A chunk result is bounded by the
/// accumulator state (reservoir entries × metrics), far below this; a
/// length field beyond it means a garbage/hostile peer, and the connection
/// is dropped instead of allocating.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,   ///< worker → coordinator: identity handshake
  kWelcome = 2, ///< coordinator → worker: handshake accepted
  kReject = 3,  ///< coordinator → worker: handshake refused (reason text)
  kLeaseReq = 4,///< worker → coordinator: give me a chunk
  kLease = 5,   ///< coordinator → worker: runs [begin, end) of one cell
  kWait = 6,    ///< coordinator → worker: nothing leasable now, retry in ms
  kDone = 7,    ///< coordinator → worker: grid complete, disconnect
  kResult = 8,  ///< worker → coordinator: executed chunk accumulator
};

struct Frame {
  MsgType type = MsgType::kHello;
  std::string payload;
};

/// Worker identity handshake. The grid itself never crosses the wire
/// (crash/delay axes hold closures): workers are launched with the same
/// grid flags as the coordinator, and the fingerprint — the same one the
/// checkpoint uses — proves both sides expanded the identical grid.
struct HelloMsg {
  std::uint32_t version = kProtocolVersion;
  std::uint64_t fingerprint = 0;
  std::uint64_t cells = 0;
  std::uint64_t reservoir_capacity = 0;
  std::uint64_t failure_capacity = 0;
  /// 0 on a session's first connect; on a re-hello after a mid-sweep
  /// disconnect, how many times this session has reconnected so far.
  std::uint64_t reconnect = 0;
};

struct LeaseMsg {
  std::uint64_t cell_index = 0;  ///< spec-expansion index (shared identity)
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// One executed chunk coming home: identity plus the accumulator (runs,
/// terminated and violations counts ride the header line; the rest is the
/// shared accumulator-state encoding).
struct ResultMsg {
  std::uint64_t cell_index = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  CellAccumulator acc;
};

[[nodiscard]] std::string encode_hello(const HelloMsg& m);
[[nodiscard]] bool decode_hello(const std::string& payload, HelloMsg& out);
[[nodiscard]] std::string encode_lease(const LeaseMsg& m);
[[nodiscard]] bool decode_lease(const std::string& payload, LeaseMsg& out);
[[nodiscard]] std::string encode_wait(std::uint32_t millis);
[[nodiscard]] bool decode_wait(const std::string& payload,
                               std::uint32_t& millis);
[[nodiscard]] std::string encode_reject(const std::string& reason);
[[nodiscard]] std::string encode_result(const ResultMsg& m);
[[nodiscard]] bool decode_result(const std::string& payload, ResultMsg& out);

/// Writes one frame, looping until every byte is on the wire. Returns false
/// on any socket error (the peer is gone; no errno inspection needed).
bool send_frame(int fd, MsgType type, const std::string& payload);

/// Blocking read of one complete frame. Returns false on EOF, socket error,
/// or an oversized/malformed length prefix.
bool recv_frame(int fd, Frame& out);

/// Incremental frame decoder for the coordinator's poll loop: feed() raw
/// bytes as they arrive, next() yields complete frames. Once error() turns
/// true (oversized frame) the connection must be dropped.
class FrameBuffer {
 public:
  void feed(const char* data, std::size_t len) { buf_.append(data, len); }
  [[nodiscard]] std::optional<Frame> next();
  [[nodiscard]] bool error() const { return error_; }

 private:
  std::string buf_;
  std::size_t consumed_ = 0;
  bool error_ = false;
};

/// A validated endpoint. parse_host_port accepts "HOST:PORT" with a
/// non-empty host and a port in [1, 65535]; it throws ContractViolation
/// with an actionable message otherwise — the CLI calls it on the main
/// thread before any socket or worker thread exists.
struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

[[nodiscard]] HostPort parse_host_port(const std::string& text);

/// Validates a CLI port number (throws ContractViolation outside
/// [1, 65535]). The coordinator additionally accepts 0 internally
/// (ephemeral, for tests) but the flag surface does not.
[[nodiscard]] std::uint16_t validate_port(long long value, const char* flag);

/// Binds and listens on `port` (0 = kernel-assigned); stores the bound port
/// in *bound_port when non-null. Returns the listening fd; throws
/// ContractViolation when the address is unavailable.
int listen_on(std::uint16_t port, std::uint16_t* bound_port = nullptr);

/// One blocking connect attempt. Returns the fd, or -1 (with no throw —
/// workers retry while the coordinator is still starting).
int connect_once(const HostPort& target);

}  // namespace hyco::dist
