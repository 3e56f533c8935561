#include "src/rpc/wire.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace senn::rpc {
namespace {

// Stores the low `bytes` bytes of `v` little-endian at *p and advances it
// (two's complement for signed fields, so an int32 keeps its 4 bytes).
// Shifts, not memcpy of host memory, keep the wire format byte-stable on
// any host endianness.
void Put(uint64_t v, int bytes, uint8_t** p) {
  for (int i = 0; i < bytes; ++i) *(*p)++ = static_cast<uint8_t>(v >> (8 * i));
}
// IEEE-754 bit pattern: decoding reproduces the exact double, which is what
// makes wire-transported replies bitwise-identical to in-process ones.
void PutF64(double v, uint8_t** p) { Put(std::bit_cast<uint64_t>(v), 8, p); }

// Appends one frame in place: `out` grows once, to the frame's exact size,
// the header is written, and the returned cursor is where the
// `payload_len` payload bytes go.
uint8_t* AppendFrame(Opcode opcode, uint64_t request_id, size_t payload_len,
                     std::vector<uint8_t>* out) {
  const size_t start = out->size();
  out->resize(start + kHeaderSize + payload_len);
  uint8_t* p = out->data() + start;
  Put(kMagic, 4, &p);
  Put(kProtocolVersion, 1, &p);
  Put(static_cast<uint8_t>(opcode), 1, &p);
  Put(0, 2, &p);  // reserved flags
  Put(request_id, 8, &p);
  Put(payload_len, 4, &p);
  return p;
}

// Bounds-checked little-endian reader over one payload.
class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<uint8_t>& payload) : data_(payload) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = data_[pos_++];
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) r |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
    pos_ += 4;
    *v = r;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) r |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
    pos_ += 8;
    *v = r;
    return true;
  }
  bool ReadI32(int32_t* v) {
    uint32_t u = 0;
    if (!ReadU32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }
  bool ReadI64(int64_t* v) {
    uint64_t u = 0;
    if (!ReadU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool ReadF64(double* v) {
    uint64_t u = 0;
    if (!ReadU64(&u)) return false;
    *v = std::bit_cast<double>(u);
    return true;
  }
  bool ReadBytes(size_t n, std::string* out) {
    if (pos_ + n > data_.size()) return false;
    out->assign(reinterpret_cast<const char*>(data_.data()) + pos_, n);
    pos_ += n;
    return true;
  }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  const std::vector<uint8_t>& data_;
  size_t pos_ = 0;
};

constexpr size_t kCounterSize = 6 * 8;
// Id, x, y and distance of one reply neighbor.
constexpr size_t kNeighborSize = 32;
static_assert(kCounterSize + 4 + kNeighborSize * static_cast<size_t>(kMaxKnnK) <=
                  kDefaultMaxPayload,
              "a reply to the largest valid k must fit one frame");

void PutCounter(const rtree::AccessCounter& c, uint8_t** p) {
  for (uint64_t v : {c.index_nodes, c.leaf_nodes, c.index_misses, c.leaf_misses,
                     c.shared_misses, c.private_misses}) {
    Put(v, 8, p);
  }
}

bool ReadCounter(PayloadReader* r, rtree::AccessCounter* c) {
  return r->ReadU64(&c->index_nodes) && r->ReadU64(&c->leaf_nodes) &&
         r->ReadU64(&c->index_misses) && r->ReadU64(&c->leaf_misses) &&
         r->ReadU64(&c->shared_misses) && r->ReadU64(&c->private_misses);
}

// Query point, k, horizon and circle count of a kRegionKnnRequest; then
// center and radius per circle.
constexpr size_t kRegionFixedSize = 8 + 8 + 4 + 8 + 4;
constexpr size_t kCircleSize = 24;
static_assert(kRegionFixedSize + kCircleSize * static_cast<size_t>(kMaxRegionCircles) <=
                  kDefaultMaxPayload,
              "a region request with the most circles allowed must fit one frame");

// PruneBounds presence flags.
constexpr uint8_t kHasLower = 0x1;
constexpr uint8_t kHasUpper = 0x2;
constexpr uint8_t kKnownBoundsFlags = kHasLower | kHasUpper;

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated ") + what + " payload");
}
Status Trailing(const char* what) {
  return Status::InvalidArgument(std::string("trailing bytes after ") + what + " payload");
}

}  // namespace

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidArgument:
      return "invalid-argument";
    case ErrorCode::kMalformedFrame:
      return "malformed-frame";
    case ErrorCode::kUnsupportedOpcode:
      return "unsupported-opcode";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "unknown";
}

void EncodeFrame(Opcode opcode, uint64_t request_id, const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* out) {
  uint8_t* p = AppendFrame(opcode, request_id, payload.size(), out);
  std::copy(payload.begin(), payload.end(), p);
}

void EncodeKnnRequest(uint64_t request_id, const KnnRequest& request,
                      std::vector<uint8_t>* out) {
  const bool lower = request.bounds.lower.has_value();
  const bool upper = request.bounds.upper.has_value();
  // q, k, already_certified, flags, the present bounds, lower_id_cut.
  const size_t len = 8 + 8 + 4 + 4 + 1 + (lower ? 8 : 0) + (upper ? 8 : 0) + 8;
  uint8_t* p = AppendFrame(Opcode::kKnnRequest, request_id, len, out);
  PutF64(request.q.x, &p);
  PutF64(request.q.y, &p);
  Put(static_cast<uint32_t>(request.k), 4, &p);
  Put(static_cast<uint32_t>(request.already_certified), 4, &p);
  Put((lower ? kHasLower : 0) | (upper ? kHasUpper : 0), 1, &p);
  if (lower) PutF64(*request.bounds.lower, &p);
  if (upper) PutF64(*request.bounds.upper, &p);
  Put(static_cast<uint64_t>(request.bounds.lower_id_cut), 8, &p);
}

void EncodeRegionKnnRequest(uint64_t request_id, const RegionKnnRequest& request,
                            std::vector<uint8_t>* out) {
  const size_t len = kRegionFixedSize + kCircleSize * request.region.size();
  uint8_t* p = AppendFrame(Opcode::kRegionKnnRequest, request_id, len, out);
  PutF64(request.q.x, &p);
  PutF64(request.q.y, &p);
  Put(static_cast<uint32_t>(request.k), 4, &p);
  PutF64(request.horizon, &p);
  Put(request.region.size(), 4, &p);
  for (const geom::Circle& c : request.region) {
    PutF64(c.center.x, &p);
    PutF64(c.center.y, &p);
    PutF64(c.radius, &p);
  }
}

void EncodeRivalRequest(uint64_t request_id, const RivalRequest& request,
                        std::vector<uint8_t>* out) {
  uint8_t* p = AppendFrame(Opcode::kRivalRequest, request_id, 8 + 8 + 8, out);
  PutF64(request.q.x, &p);
  PutF64(request.q.y, &p);
  PutF64(request.radius, &p);
}

void EncodeKnnReply(uint64_t request_id, const core::ServerReply& reply,
                    std::vector<uint8_t>* out) {
  const size_t len = kCounterSize + 4 + kNeighborSize * reply.neighbors.size();
  uint8_t* p = AppendFrame(Opcode::kKnnReply, request_id, len, out);
  PutCounter(reply.einn_accesses, &p);
  Put(reply.neighbors.size(), 4, &p);
  for (const core::RankedPoi& n : reply.neighbors) {
    Put(static_cast<uint64_t>(n.id), 8, &p);
    PutF64(n.position.x, &p);
    PutF64(n.position.y, &p);
    PutF64(n.distance, &p);
  }
}

void EncodeError(uint64_t request_id, const ErrorReply& error, std::vector<uint8_t>* out) {
  uint8_t* p = AppendFrame(Opcode::kError, request_id, 4 + 4 + error.message.size(), out);
  Put(static_cast<uint32_t>(error.code), 4, &p);
  Put(error.message.size(), 4, &p);
  std::copy(error.message.begin(), error.message.end(), p);
}

void EncodePing(uint64_t request_id, std::vector<uint8_t>* out) {
  AppendFrame(Opcode::kPing, request_id, 0, out);
}

void EncodePong(uint64_t request_id, std::vector<uint8_t>* out) {
  AppendFrame(Opcode::kPong, request_id, 0, out);
}

Result<KnnRequest> DecodeKnnRequest(const std::vector<uint8_t>& payload) {
  PayloadReader r(payload);
  KnnRequest req;
  uint8_t flags = 0;
  if (!r.ReadF64(&req.q.x) || !r.ReadF64(&req.q.y) || !r.ReadI32(&req.k) ||
      !r.ReadI32(&req.already_certified) || !r.ReadU8(&flags)) {
    return Truncated("kKnnRequest");
  }
  if ((flags & ~kKnownBoundsFlags) != 0) {
    return Status::InvalidArgument("unknown PruneBounds presence flags");
  }
  if ((flags & kHasLower) != 0) {
    double lower = 0.0;
    if (!r.ReadF64(&lower)) return Truncated("kKnnRequest");
    req.bounds.lower = lower;
  }
  if ((flags & kHasUpper) != 0) {
    double upper = 0.0;
    if (!r.ReadF64(&upper)) return Truncated("kKnnRequest");
    req.bounds.upper = upper;
  }
  if (!r.ReadI64(&req.bounds.lower_id_cut)) return Truncated("kKnnRequest");
  if (r.remaining() != 0) return Trailing("kKnnRequest");
  return req;
}

Result<RegionKnnRequest> DecodeRegionKnnRequest(const std::vector<uint8_t>& payload) {
  PayloadReader r(payload);
  RegionKnnRequest req;
  uint32_t count = 0;
  if (!r.ReadF64(&req.q.x) || !r.ReadF64(&req.q.y) || !r.ReadI32(&req.k) ||
      !r.ReadF64(&req.horizon) || !r.ReadU32(&count)) {
    return Truncated("kRegionKnnRequest");
  }
  // Checked before anything is allocated: a corrupt count must not size
  // the region.
  const uint64_t circle_bytes = static_cast<uint64_t>(count) * kCircleSize;
  if (circle_bytes > r.remaining()) return Truncated("kRegionKnnRequest");
  if (circle_bytes < r.remaining()) return Trailing("kRegionKnnRequest");
  req.region.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    geom::Circle c;
    if (!r.ReadF64(&c.center.x) || !r.ReadF64(&c.center.y) || !r.ReadF64(&c.radius)) {
      return Truncated("kRegionKnnRequest");
    }
    req.region.push_back(c);
  }
  return req;
}

Result<RivalRequest> DecodeRivalRequest(const std::vector<uint8_t>& payload) {
  PayloadReader r(payload);
  RivalRequest req;
  if (!r.ReadF64(&req.q.x) || !r.ReadF64(&req.q.y) || !r.ReadF64(&req.radius)) {
    return Truncated("kRivalRequest");
  }
  if (r.remaining() != 0) return Trailing("kRivalRequest");
  return req;
}

Result<core::ServerReply> DecodeKnnReply(const std::vector<uint8_t>& payload) {
  PayloadReader r(payload);
  core::ServerReply reply;
  uint32_t count = 0;
  if (!ReadCounter(&r, &reply.einn_accesses) || !r.ReadU32(&count)) {
    return Truncated("kKnnReply");
  }
  // kNeighborSize bytes per neighbor: a count larger than the remaining payload is a
  // corrupt length, not a reason to allocate count entries up front.
  if (static_cast<uint64_t>(count) * kNeighborSize != r.remaining()) {
    return Status::InvalidArgument("kKnnReply neighbor count disagrees with payload size");
  }
  reply.neighbors.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    core::RankedPoi poi;
    if (!r.ReadI64(&poi.id) || !r.ReadF64(&poi.position.x) || !r.ReadF64(&poi.position.y) ||
        !r.ReadF64(&poi.distance)) {
      return Truncated("kKnnReply");
    }
    reply.neighbors.push_back(poi);
  }
  if (r.remaining() != 0) return Trailing("kKnnReply");
  return reply;
}

Result<ErrorReply> DecodeError(const std::vector<uint8_t>& payload) {
  PayloadReader r(payload);
  uint32_t code = 0;
  uint32_t len = 0;
  if (!r.ReadU32(&code) || !r.ReadU32(&len)) return Truncated("kError");
  ErrorReply err;
  err.code = static_cast<ErrorCode>(code);
  if (!r.ReadBytes(len, &err.message)) return Truncated("kError");
  if (r.remaining() != 0) return Trailing("kError");
  return err;
}

namespace {

Status ValidatePoint(geom::Vec2 q) {
  if (!std::isfinite(q.x) || !std::isfinite(q.y)) {
    return Status::InvalidArgument("query coordinates must be finite");
  }
  return Status::OK();
}

bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0.0; }

Status ValidateK(int32_t k) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (k > kMaxKnnK) {
    return Status::InvalidArgument("k exceeds " + std::to_string(kMaxKnnK) +
                                   ": the reply would not fit one frame");
  }
  return Status::OK();
}

}  // namespace

Status ValidateKnnRequest(const KnnRequest& request) {
  Status point = ValidatePoint(request.q);
  if (!point.ok()) return point;
  Status k = ValidateK(request.k);
  if (!k.ok()) return k;
  if (request.already_certified < 0 || request.already_certified > request.k) {
    return Status::InvalidArgument("already_certified must lie in [0, k]");
  }
  const rtree::PruneBounds& b = request.bounds;
  if (b.lower.has_value() && !FiniteNonNegative(*b.lower)) {
    return Status::InvalidArgument("bounds.lower must be finite and non-negative");
  }
  if (b.upper.has_value() && !FiniteNonNegative(*b.upper)) {
    return Status::InvalidArgument("bounds.upper must be finite and non-negative");
  }
  if (b.lower.has_value() && b.upper.has_value() && *b.lower > *b.upper) {
    return Status::InvalidArgument("inconsistent PruneBounds: lower exceeds upper");
  }
  return Status::OK();
}

Status ValidateRegionKnnRequest(const RegionKnnRequest& request) {
  Status point = ValidatePoint(request.q);
  if (!point.ok()) return point;
  Status k = ValidateK(request.k);
  if (!k.ok()) return k;
  if (!FiniteNonNegative(request.horizon)) {
    return Status::InvalidArgument("horizon must be finite and non-negative");
  }
  if (request.region.size() > static_cast<size_t>(kMaxRegionCircles)) {
    return Status::InvalidArgument("region exceeds " + std::to_string(kMaxRegionCircles) +
                                   " circles");
  }
  for (const geom::Circle& c : request.region) {
    if (!std::isfinite(c.center.x) || !std::isfinite(c.center.y) ||
        !FiniteNonNegative(c.radius)) {
      return Status::InvalidArgument(
          "region circles need finite centers and finite non-negative radii");
    }
  }
  return Status::OK();
}

Status ValidateRivalRequest(const RivalRequest& request) {
  Status point = ValidatePoint(request.q);
  if (!point.ok()) return point;
  if (!FiniteNonNegative(request.radius)) {
    return Status::InvalidArgument("radius must be finite and non-negative");
  }
  return Status::OK();
}

Status FrameDecoder::Feed(const uint8_t* data, size_t n) {
  if (!error_.ok()) return error_;
  buffer_.insert(buffer_.end(), data, data + n);
  for (;;) {
    const size_t avail = buffer_.size() - consumed_;
    if (avail < kHeaderSize) break;
    const uint8_t* p = buffer_.data() + consumed_;
    FrameHeader h;
    h.magic = static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
              static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
    h.version = p[4];
    h.opcode = p[5];
    h.flags = static_cast<uint16_t>(static_cast<uint16_t>(p[6]) |
                                    static_cast<uint16_t>(p[7]) << 8);
    h.request_id = 0;
    for (int i = 0; i < 8; ++i) {
      h.request_id |= static_cast<uint64_t>(p[8 + i]) << (8 * i);
    }
    h.payload_len = static_cast<uint32_t>(p[16]) | static_cast<uint32_t>(p[17]) << 8 |
                    static_cast<uint32_t>(p[18]) << 16 | static_cast<uint32_t>(p[19]) << 24;
    if (h.magic != kMagic) {
      error_ = Status::InvalidArgument("bad frame magic");
      return error_;
    }
    if (h.version != kProtocolVersion) {
      error_ = Status::InvalidArgument("unsupported protocol version " +
                                       std::to_string(h.version) + " (this peer speaks " +
                                       std::to_string(kProtocolVersion) + ")");
      return error_;
    }
    if (h.flags != 0) {
      error_ = Status::InvalidArgument("nonzero reserved frame flags");
      return error_;
    }
    if (h.payload_len > max_payload_) {
      error_ = Status::OutOfRange("frame payload exceeds the size limit");
      return error_;
    }
    if (avail < kHeaderSize + h.payload_len) break;  // wait for the rest
    Frame frame;
    frame.header = h;
    frame.payload.assign(p + kHeaderSize, p + kHeaderSize + h.payload_len);
    frames_.push_back(std::move(frame));
    consumed_ += kHeaderSize + h.payload_len;
  }
  // Compact: drop fully-consumed prefix so long-lived connections do not
  // grow the buffer without bound.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return Status::OK();
}

bool FrameDecoder::Next(Frame* out) {
  if (frames_.empty()) return false;
  *out = std::move(frames_.front());
  frames_.pop_front();
  return true;
}

}  // namespace senn::rpc
