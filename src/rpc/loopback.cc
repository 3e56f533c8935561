#include "src/rpc/loopback.h"

#include <cstdio>
#include <cstdlib>
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

namespace {

ServiceOptions OneRequestPerGroup() {
  ServiceOptions options;
  options.batch.max_group = 1;
  return options;
}

}  // namespace

LoopbackLink::LoopbackLink(core::SpatialServer* server)
    : service_(server, OneRequestPerGroup()), transport_(&service_), client_(&transport_) {}

template <class Call>
core::ServerReply LoopbackLink::Traced(obs::QueryTracer* tracer, Call&& call) {
  transport_.SetTracer(tracer);
  Result<core::ServerReply> answered = call();
  transport_.SetTracer(nullptr);
  if (!answered.ok()) {
    // Every caller would go on with a wrong answer: stop instead.
    std::fprintf(stderr, "LoopbackLink: server call failed: %s\n",
                 answered.status().message().c_str());
    std::abort();
  }
  return std::move(answered).value();
}

core::ServerReply LoopbackLink::QueryKnn(geom::Vec2 q, int k, rtree::PruneBounds bounds,
                                         int already_certified, obs::QueryTracer* tracer) {
  return Traced(tracer, [&] { return client_.Knn({q, k, already_certified, bounds}); });
}

core::ServerReply LoopbackLink::QueryKnnWithRegion(geom::Vec2 q, int k, double horizon,
                                                   const std::vector<geom::Circle>& region,
                                                   obs::QueryTracer* tracer) {
  return Traced(tracer, [&] { return client_.RegionKnn({q, k, horizon, region}); });
}

core::ServerReply LoopbackLink::QueryRivals(geom::Vec2 q, double radius) {
  return Traced(nullptr, [&] { return client_.Rivals({q, radius}); });
}

}  // namespace senn::rpc
