#include "src/rpc/loopback.h"

#include <utility>

namespace senn::rpc {

Status LoopbackTransport::Send(const uint8_t* data, size_t n) {
  if (poisoned_) {
    return Status::FailedPrecondition("loopback connection closed after a protocol error");
  }
  Status st = decoder_.Feed(data, n);
  Frame frame;
  while (decoder_.Next(&frame)) pending_.push_back(std::move(frame));
  if (!st.ok()) {
    // Same behavior as the TCP server: frames decoded before the poison
    // point stay answerable and are answered FIRST; the framing error then
    // gets its own kError reply (request id 0 — no trustworthy id exists
    // past the corruption), and the connection is dead afterwards.
    framing_error_ = st.message();
    poisoned_ = true;
  }
  return Status::OK();
}

Status LoopbackTransport::Receive(std::vector<uint8_t>* out) {
  if (!pending_.empty()) {
    std::vector<Frame> group;
    group.swap(pending_);
    service_->AnswerGroup(group, &inbox_, tracer_);
  }
  if (poisoned_ && !error_emitted_) {
    EncodeError(0, {ErrorCode::kMalformedFrame, framing_error_}, &inbox_);
    error_emitted_ = true;
  }
  if (inbox_.empty()) {
    return Status::FailedPrecondition("no request in flight on the loopback transport");
  }
  out->insert(out->end(), inbox_.begin(), inbox_.end());
  inbox_.clear();
  return Status::OK();
}

}  // namespace senn::rpc
