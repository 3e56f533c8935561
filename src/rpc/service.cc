#include "src/rpc/service.h"

#include <optional>
#include <utility>

#include "src/obs/metrics.h"

namespace senn::rpc {

QueryService::QueryService(core::SpatialServer* server, ServiceOptions options,
                           obs::MetricsRegistry* metrics)
    : options_(options), metrics_(metrics), batch_(server, options.batch) {}

void QueryService::AnswerGroup(const std::vector<Frame>& frames, std::vector<uint8_t>* out,
                               obs::QueryTracer* tracer) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.groups;
  stats_.requests += frames.size();

  // Pass 1: triage. Valid kNN requests gather into one batch; everything
  // else pre-encodes its reply into the slot so pass 2 can emit strictly in
  // request order.
  struct Slot {
    std::optional<size_t> query_index;   // into `queries` when a valid request
    std::vector<uint8_t> ready_reply;    // pre-encoded otherwise
  };
  std::vector<Slot> slots(frames.size());
  std::vector<core::BatchQuery> queries;
  std::vector<uint64_t> query_request_ids;
  uint64_t errors = 0;
  uint64_t pings = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    const Frame& f = frames[i];
    const uint64_t id = f.header.request_id;
    Slot& slot = slots[i];
    switch (f.opcode()) {
      case Opcode::kPing:
        EncodePong(id, &slot.ready_reply);
        ++pings;
        break;
      case Opcode::kKnnRequest: {
        Result<KnnRequest> req = DecodeKnnRequest(f.payload);
        if (!req.ok()) {
          EncodeError(id, {ErrorCode::kMalformedFrame, req.status().message()},
                      &slot.ready_reply);
          ++errors;
          break;
        }
        Status valid = ValidateKnnRequest(*req);
        if (!valid.ok()) {
          EncodeError(id, {ErrorCode::kInvalidArgument, valid.message()}, &slot.ready_reply);
          ++errors;
          break;
        }
        slot.query_index = queries.size();
        queries.push_back({req->q, req->k, req->bounds, req->already_certified});
        query_request_ids.push_back(id);
        break;
      }
      default:
        EncodeError(id, {ErrorCode::kUnsupportedOpcode, "opcode is not a server request"},
                    &slot.ready_reply);
        ++errors;
        break;
    }
  }

  // One shared-traversal batch answers every valid request of the group.
  std::vector<core::ServerReply> replies;
  if (!queries.empty()) {
    replies = batch_.AnswerBatch(queries, tracer, metrics_);
  }

  // Pass 2: emit in request order.
  for (size_t i = 0; i < frames.size(); ++i) {
    const Slot& slot = slots[i];
    if (slot.query_index.has_value()) {
      EncodeKnnReply(query_request_ids[*slot.query_index], replies[*slot.query_index], out);
    } else {
      out->insert(out->end(), slot.ready_reply.begin(), slot.ready_reply.end());
    }
  }

  stats_.replies += queries.size() + pings;
  stats_.errors += errors;
  stats_.pings += pings;
  if (metrics_ != nullptr) {
    metrics_->Inc("rpc/groups");
    metrics_->Inc("rpc/requests", frames.size());
    if (errors > 0) metrics_->Inc("rpc/errors", errors);
    metrics_->Observe("rpc/group_size", static_cast<double>(frames.size()));
  }
}

void QueryService::RecordShed(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (metrics_ != nullptr) metrics_->Inc("rpc/shed", n);
}

core::BatchStats QueryService::batch_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batch_.stats();
}

ServiceStats QueryService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace senn::rpc
