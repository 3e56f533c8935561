// Binary wire protocol of the standalone kNN query server (src/rpc/).
//
// Layout rules, in the tarantool-iproto tradition of compact fixed-header
// framing:
//   * everything is little-endian; doubles travel as the IEEE-754 bit
//     pattern of the producing machine (std::bit_cast through uint64_t), so
//     a decoded reply is BITWISE identical to the encoded one — the
//     loopback-determinism contract of the simulator depends on this;
//   * every message is one frame: a fixed 20-byte header (magic, version,
//     opcode, reserved flags, request id, payload length) followed by
//     `payload_len` payload bytes;
//   * requests and replies are correlated by the client-chosen `request_id`
//     echoed verbatim in the reply header. The server answers a
//     connection's requests in arrival order (per-connection FIFO), so ids
//     are for sanity checking and pipelined bookkeeping, not reordering.
//
// Messages:
//   kKnnRequest  — the arguments of core::SpatialServer::QueryKnn: query
//                  point, k, PruneBounds (presence-flagged lower/upper plus
//                  the lower_id_cut), already_certified.
//   kKnnReply    — core::ServerReply: the answering EINN traversal's
//                  access counter (miss and shared/private-miss accounting
//                  included) and the ranked neighbor list. The INN baseline
//                  is not a server result and is not shipped; version-1
//                  frames, whose replies carried it as a second counter,
//                  poison the FrameDecoder like any other version.
//   kRegionKnnRequest — the arguments of
//                  core::SpatialServer::QueryKnnWithRegion (the ship_region
//                  extension): query point, k, the search horizon and the
//                  client's certain region R_c as a counted list of disks
//                  (center, radius), at most kMaxRegionCircles of them.
//                  Answered with a kKnnReply. The coverage tests of one
//                  request share a fixed polygon-work budget, so a region
//                  of many small disks costs pages, not unbounded geometry.
//   kRivalRequest — the arguments of core::SpatialServer::QueryRivals (the
//                  INSQ rival fetch of continuous queries): query point and
//                  radius. Answered with a kKnnReply whose counter holds
//                  the fetch's logical pages; the fetch reads no pool page
//                  and adds no ServerStats entry. More than kMaxKnnK rivals
//                  get a kError instead: the reply would not fit one frame,
//                  and the scan stops at the first rival past that cap, so
//                  even a huge radius reads a bounded part of the tree.
//                  Both opcodes were added without a version bump: a server
//                  that predates them answers kUnsupportedOpcode.
//   kError       — a well-formed error reply: machine code + message. Sent
//                  instead of a kKnnReply for invalid requests, instead of
//                  crashing or answering silently-empty.
//   kPing/kPong  — liveness no-ops (connection smoke tests).
//
// The `FrameDecoder` is the single framing parser used by the server, the
// client, and the loopback transport: incremental (robust to arbitrary read
// fragmentation), and fail-stop on malformed input — a bad magic, version,
// reserved flags, or oversized length poisons the stream with a descriptive
// Status instead of resynchronizing (after garbage there is no trustworthy
// frame boundary; the connection must be torn down).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/server_link.h"
#include "src/geom/circle.h"
#include "src/geom/vec2.h"
#include "src/rtree/knn.h"

namespace senn::rpc {

/// "SNNQ" when read as raw little-endian bytes on the wire.
inline constexpr uint32_t kMagic = 0x514E4E53u;
inline constexpr uint8_t kProtocolVersion = 2;
/// Fixed frame header size in bytes.
inline constexpr size_t kHeaderSize = 20;
/// Default cap on a single frame's payload. Replies carry at most the
/// server_request_k neighbors (32 bytes each), so 1 MiB is generous;
/// anything larger is a corrupt or hostile length field.
inline constexpr size_t kDefaultMaxPayload = 1u << 20;
/// The largest k a request may carry. A reply holds at most k neighbors of
/// 32 bytes after its 52-byte counter and count, and a reply larger than
/// kDefaultMaxPayload would poison the client's decoder; a huge k would
/// also make one request scan the whole tree.
inline constexpr int32_t kMaxKnnK = static_cast<int32_t>((kDefaultMaxPayload - 52) / 32);
/// The most disks a kRegionKnnRequest may carry (core::kMaxRegionDisks):
/// the server tests node coverage against every disk, so a longer region is
/// refused as an invalid argument, well before its frame nears
/// kDefaultMaxPayload.
inline constexpr int32_t kMaxRegionCircles = core::kMaxRegionDisks;

enum class Opcode : uint8_t {
  kKnnRequest = 1,
  kKnnReply = 2,
  kError = 3,
  kPing = 4,
  kPong = 5,
  kRegionKnnRequest = 6,
  kRivalRequest = 7,
};

/// Machine-readable category of a kError reply.
enum class ErrorCode : uint32_t {
  /// Request decoded but failed semantic validation (k <= 0, non-finite
  /// coordinates, inconsistent PruneBounds, ...).
  kInvalidArgument = 1,
  /// Payload (or frame) bytes could not be decoded at all.
  kMalformedFrame = 2,
  /// Frame was well-formed but its opcode is not one the server answers.
  kUnsupportedOpcode = 3,
  /// Admission control rejected the request (load shedding).
  kOverloaded = 4,
  /// Unexpected server-side failure.
  kInternal = 5,
};

const char* ErrorCodeName(ErrorCode code);

struct FrameHeader {
  uint32_t magic = kMagic;
  uint8_t version = kProtocolVersion;
  uint8_t opcode = 0;
  /// Reserved; must be zero on the wire (a nonzero value is malformed).
  uint16_t flags = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
};

/// One complete decoded frame.
struct Frame {
  FrameHeader header;
  std::vector<uint8_t> payload;

  Opcode opcode() const { return static_cast<Opcode>(header.opcode); }
};

/// The arguments of one SpatialServer::QueryKnn call, as shipped by a
/// client (mirrors core::BatchQuery).
struct KnnRequest {
  geom::Vec2 q;
  int32_t k = 1;
  int32_t already_certified = 0;
  rtree::PruneBounds bounds;
};

/// The arguments of one SpatialServer::QueryKnnWithRegion call.
struct RegionKnnRequest {
  geom::Vec2 q;
  int32_t k = 1;
  double horizon = 0.0;
  std::vector<geom::Circle> region;
};

/// The arguments of one SpatialServer::QueryRivals call.
struct RivalRequest {
  geom::Vec2 q;
  double radius = 0.0;
};

/// Payload of a kError reply.
struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

// --- encoding --------------------------------------------------------------

/// Appends one complete frame (header + payload already encoded).
void EncodeFrame(Opcode opcode, uint64_t request_id, const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* out);

void EncodeKnnRequest(uint64_t request_id, const KnnRequest& request,
                      std::vector<uint8_t>* out);
void EncodeRegionKnnRequest(uint64_t request_id, const RegionKnnRequest& request,
                            std::vector<uint8_t>* out);
void EncodeRivalRequest(uint64_t request_id, const RivalRequest& request,
                        std::vector<uint8_t>* out);
void EncodeKnnReply(uint64_t request_id, const core::ServerReply& reply,
                    std::vector<uint8_t>* out);
void EncodeError(uint64_t request_id, const ErrorReply& error, std::vector<uint8_t>* out);
void EncodePing(uint64_t request_id, std::vector<uint8_t>* out);
void EncodePong(uint64_t request_id, std::vector<uint8_t>* out);

// --- decoding --------------------------------------------------------------

/// Payload decoders: reject truncated payloads AND trailing garbage (a
/// payload must be consumed exactly), so a length-field mismatch can never
/// smuggle bytes across message boundaries.
Result<KnnRequest> DecodeKnnRequest(const std::vector<uint8_t>& payload);
Result<RegionKnnRequest> DecodeRegionKnnRequest(const std::vector<uint8_t>& payload);
Result<RivalRequest> DecodeRivalRequest(const std::vector<uint8_t>& payload);
Result<core::ServerReply> DecodeKnnReply(const std::vector<uint8_t>& payload);
Result<ErrorReply> DecodeError(const std::vector<uint8_t>& payload);

/// Semantic validation applied at the protocol boundary, before a request
/// may reach the query engine: finite coordinates, 0 < k <= kMaxKnnK,
/// 0 <= already_certified <= k, finite non-negative bounds with
/// lower <= upper. Returns InvalidArgument describing the first violation.
Status ValidateKnnRequest(const KnnRequest& request);
/// Finite coordinates, 0 < k <= kMaxKnnK, a finite non-negative horizon,
/// at most kMaxRegionCircles disks, each with a finite center and a finite
/// non-negative radius.
Status ValidateRegionKnnRequest(const RegionKnnRequest& request);
/// Finite coordinates and a finite non-negative radius.
Status ValidateRivalRequest(const RivalRequest& request);

/// Incremental frame parser. Feed() accepts arbitrary byte fragments (a
/// frame may arrive one byte at a time, or many frames in one read);
/// complete frames queue up for Next(). The first malformed header or
/// oversized length returns a non-OK Status and poisons the decoder: every
/// later Feed() fails with the same status, and frames decoded BEFORE the
/// poison point remain retrievable (the server answers what was valid, then
/// closes).
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  Status Feed(const uint8_t* data, size_t n);
  /// Pops the next complete frame; false when none is pending.
  bool Next(Frame* out);
  /// Frames decoded and not yet popped.
  size_t pending() const { return frames_.size(); }
  bool poisoned() const { return !error_.ok(); }
  const Status& error() const { return error_; }
  /// Bytes buffered but not yet forming a complete frame.
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  size_t max_payload_;
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  std::deque<Frame> frames_;
  Status error_;
};

}  // namespace senn::rpc
