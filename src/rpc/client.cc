#include "src/rpc/client.h"

#include <string>
#include <utility>

namespace senn::rpc {
namespace {

Status FromErrorReply(const ErrorReply& err) {
  const std::string msg =
      std::string("server error [") + ErrorCodeName(err.code) + "]: " + err.message;
  switch (err.code) {
    case ErrorCode::kInvalidArgument:
    case ErrorCode::kMalformedFrame:
    case ErrorCode::kUnsupportedOpcode:
      return Status::InvalidArgument(msg);
    case ErrorCode::kOverloaded:
      return Status::FailedPrecondition(msg);
    case ErrorCode::kInternal:
      return Status::Internal(msg);
  }
  return Status::Internal(msg);
}

}  // namespace

Result<core::ServerReply> Client::Knn(const KnnRequest& request) {
  const uint64_t id = SendKnn(request);
  Status st = Flush();
  if (!st.ok()) return st;
  return Wait(id);
}

template <class Request>
Result<core::ServerReply> Client::Call(
    const Request& request, void (*encode)(uint64_t, const Request&, std::vector<uint8_t>*)) {
  const uint64_t id = next_id_++;
  encode(id, request, &outbox_);
  ++inflight_;
  return Wait(id);
}

Result<core::ServerReply> Client::RegionKnn(const RegionKnnRequest& request) {
  return Call(request, EncodeRegionKnnRequest);
}

Result<core::ServerReply> Client::Rivals(const RivalRequest& request) {
  return Call(request, EncodeRivalRequest);
}

uint64_t Client::SendKnn(const KnnRequest& request) {
  const uint64_t id = next_id_++;
  EncodeKnnRequest(id, request, &outbox_);
  ++inflight_;
  return id;
}

Status Client::Flush() {
  if (outbox_.empty()) return Status::OK();
  Status st = transport_->Send(outbox_.data(), outbox_.size());
  outbox_.clear();
  return st;
}

Result<core::ServerReply> Client::Wait(uint64_t request_id) {
  Status st = Flush();
  if (!st.ok()) return st;
  for (;;) {
    auto it = done_.find(request_id);
    if (it != done_.end()) {
      Result<core::ServerReply> result = std::move(it->second);
      done_.erase(it);
      if (inflight_ > 0) --inflight_;
      return result;
    }
    st = Pump();
    if (!st.ok()) return st;
  }
}

Status Client::Ping() {
  const uint64_t id = next_id_++;
  EncodePing(id, &outbox_);
  Status st = Flush();
  if (!st.ok()) return st;
  while (pongs_.find(id) == pongs_.end()) {
    st = Pump();
    if (!st.ok()) return st;
  }
  pongs_.erase(id);
  return Status::OK();
}

Status Client::Pump() {
  const size_t had = decoder_.pending();
  std::vector<uint8_t> buf;
  while (decoder_.pending() == had) {
    buf.clear();
    Status st = transport_->Receive(&buf);
    if (!st.ok()) return st;
    st = decoder_.Feed(buf.data(), buf.size());
    if (!st.ok()) {
      return Status::Internal("malformed reply stream: " + st.message());
    }
  }
  Frame frame;
  while (decoder_.Next(&frame)) FileFrame(std::move(frame));
  return Status::OK();
}

void Client::FileFrame(Frame frame) {
  const uint64_t id = frame.header.request_id;
  reply_log_.push_back(id);
  switch (frame.opcode()) {
    case Opcode::kKnnReply: {
      Result<core::ServerReply> reply = DecodeKnnReply(frame.payload);
      done_.emplace(id, std::move(reply));
      break;
    }
    case Opcode::kError: {
      Result<ErrorReply> err = DecodeError(frame.payload);
      Status st = err.ok() ? FromErrorReply(*err)
                           : Status::Internal("undecodable kError reply: " +
                                              err.status().message());
      done_.emplace(id, Result<core::ServerReply>(std::move(st)));
      break;
    }
    case Opcode::kPong:
      pongs_[id] = true;
      break;
    default:
      // A server never sends requests; file it as an error so a Wait on
      // this id (if any) fails loudly instead of hanging.
      done_.emplace(id, Result<core::ServerReply>(Status::Internal(
                            "unexpected opcode in the reply stream")));
      break;
  }
}

}  // namespace senn::rpc
