#include "src/rpc/service.h"

#include <optional>
#include <utility>

#include "src/obs/metrics.h"

namespace senn::rpc {

QueryService::QueryService(core::SpatialServer* server, ServiceOptions options,
                           obs::MetricsRegistry* metrics)
    : options_(options), metrics_(metrics), server_(server), batch_(server, options.batch) {}

namespace {

// Decodes and validates one request payload; on failure encodes the kError
// reply into `*error_reply` and returns nullopt.
template <class Request>
std::optional<Request> Admit(uint64_t id, const std::vector<uint8_t>& payload,
                             Result<Request> (*decode)(const std::vector<uint8_t>&),
                             Status (*validate)(const Request&),
                             std::vector<uint8_t>* error_reply) {
  Result<Request> req = decode(payload);
  if (!req.ok()) {
    EncodeError(id, {ErrorCode::kMalformedFrame, req.status().message()}, error_reply);
    return std::nullopt;
  }
  Status valid = validate(*req);
  if (!valid.ok()) {
    EncodeError(id, {ErrorCode::kInvalidArgument, valid.message()}, error_reply);
    return std::nullopt;
  }
  return std::move(req).value();
}

}  // namespace

void QueryService::AnswerGroup(const std::vector<Frame>& frames, std::vector<uint8_t>* out,
                               obs::QueryTracer* tracer) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.groups;
  stats_.requests += frames.size();

  // Pass 1: triage. Valid kNN requests gather into one batch; region and
  // rival requests are answered here, in arrival order; every reply but the
  // batch's is pre-encoded into its slot so pass 2 can emit strictly in
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
  uint64_t regions = 0;
  uint64_t rivals = 0;
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
        std::optional<KnnRequest> req =
            Admit(id, f.payload, DecodeKnnRequest, ValidateKnnRequest, &slot.ready_reply);
        if (!req.has_value()) {
          ++errors;
          break;
        }
        slot.query_index = queries.size();
        queries.push_back({req->q, req->k, req->bounds, req->already_certified});
        query_request_ids.push_back(id);
        break;
      }
      case Opcode::kRegionKnnRequest: {
        std::optional<RegionKnnRequest> req =
            Admit(id, f.payload, DecodeRegionKnnRequest, ValidateRegionKnnRequest,
                  &slot.ready_reply);
        if (!req.has_value()) {
          ++errors;
          break;
        }
        EncodeKnnReply(id,
                       server_->QueryKnnWithRegion(req->q, req->k, req->horizon, req->region,
                                                   tracer),
                       &slot.ready_reply);
        ++regions;
        break;
      }
      case Opcode::kRivalRequest: {
        std::optional<RivalRequest> req =
            Admit(id, f.payload, DecodeRivalRequest, ValidateRivalRequest, &slot.ready_reply);
        if (!req.has_value()) {
          ++errors;
          break;
        }
        // One rival past the cap proves the set too large; the scan stops there.
        const core::ServerReply reply =
            server_->QueryRivals(req->q, req->radius, static_cast<size_t>(kMaxKnnK) + 1);
        if (reply.neighbors.size() > static_cast<size_t>(kMaxKnnK)) {
          // Larger than one reply frame: the client's decoder would poison.
          EncodeError(id, {ErrorCode::kInvalidArgument, "rival set exceeds one reply frame"},
                      &slot.ready_reply);
          ++errors;
          break;
        }
        EncodeKnnReply(id, reply, &slot.ready_reply);
        ++rivals;
        break;
      }
      default:
        EncodeError(id, {ErrorCode::kUnsupportedOpcode, "opcode is not a server request"},
                    &slot.ready_reply);
        ++errors;
        break;
    }
  }

  // One shared-traversal batch answers every valid kNN request of the group.
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

  stats_.replies += queries.size() + regions + rivals + pings;
  stats_.knn += queries.size();
  stats_.region += regions;
  stats_.rival += rivals;
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
