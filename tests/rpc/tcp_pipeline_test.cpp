// Multi-client pipelined TCP tests of rpc::Server (satellite: concurrency).
// Runs under TSan and ASan via check.sh stages 2-3.
//
// The load test drives an in-process server with several client threads,
// each pipelining bursts of distinguishable queries, and asserts the two
// transport guarantees every client depends on:
//   * reply <-> request-id matching: the reply for id X answers the query
//     sent under X (checked by giving every request a unique query point
//     and comparing against a local SpatialServer oracle);
//   * per-connection FIFO: reply frames arrive in send order.
#include "src/rpc/server.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/server.h"
#include "src/obs/metrics.h"
#include "src/rpc/client.h"
#include "src/rpc/tcp.h"

namespace senn::rpc {
namespace {

using geom::Vec2;

std::vector<core::Poi> WorldPois(int n = 500, double extent = 1000.0) {
  Rng rng = Rng(20060403).Stream("tcp/world");
  std::vector<core::Poi> pois;
  for (int i = 0; i < n; ++i) {
    pois.push_back({i, {rng.Uniform(0, extent), rng.Uniform(0, extent)}});
  }
  return pois;
}

Result<std::unique_ptr<TcpClientTransport>> ConnectTo(const Server& server) {
  return TcpClientTransport::Connect("127.0.0.1", server.port());
}

TEST(TcpPipelineTest, BlockingRoundTripMatchesDirectQuery) {
  std::vector<core::Poi> pois = WorldPois();
  core::SpatialServer oracle(pois);
  core::SpatialServer served(pois);
  Server server(&served, {});
  ASSERT_TRUE(server.Start().ok());

  auto transport = ConnectTo(server);
  ASSERT_TRUE(transport.ok()) << transport.status().message();
  Client client(transport->get());

  KnnRequest request;
  request.q = {400, 600};
  request.k = 7;
  Result<core::ServerReply> reply = client.Knn(request);
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  EXPECT_EQ(*reply, oracle.QueryKnn(request.q, request.k));
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
}

TEST(TcpPipelineTest, MultiClientPipelinedLoadKeepsMatchingAndFifo) {
  constexpr int kClients = 4;
  constexpr int kBursts = 8;
  constexpr int kDepth = 8;  // pipeline depth per burst

  std::vector<core::Poi> pois = WorldPois();
  core::SpatialServer served(pois);
  ServerOptions options;
  options.worker_threads = 3;
  options.service.batch.max_group = 4;  // shared traversals inside bursts
  options.service.batch.cluster_cell_m = 200.0;
  Server server(&served, options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &server, &pois, &failures] {
      // QueryKnn bumps the server's access counters, so each thread gets a
      // private oracle over the shared (read-only) POI set.
      core::SpatialServer oracle(pois);
      auto transport = ConnectTo(server);
      if (!transport.ok()) {
        ++failures;
        return;
      }
      Client client(transport->get());
      Rng rng = Rng(20060403).Stream("tcp/client", static_cast<uint64_t>(c));
      for (int burst = 0; burst < kBursts; ++burst) {
        // Every request gets a unique query point, so a mismatched reply
        // (answering some other request) is detectable.
        std::vector<KnnRequest> requests;
        std::vector<uint64_t> ids;
        for (int d = 0; d < kDepth; ++d) {
          KnnRequest request;
          request.q = {rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
          request.k = 1 + static_cast<int32_t>(rng.NextIndex(8));
          requests.push_back(request);
          ids.push_back(client.SendKnn(request));
        }
        if (!client.Flush().ok()) {
          ++failures;
          return;
        }
        for (int d = 0; d < kDepth; ++d) {
          Result<core::ServerReply> reply = client.Wait(ids[static_cast<size_t>(d)]);
          if (!reply.ok()) {
            ++failures;
            return;
          }
          // reply <-> request-id matching, via the oracle. The batched
          // answering path is bitwise-equivalent to QueryKnn (PR 6), so
          // neighbors must match exactly.
          const core::ServerReply want =
              oracle.QueryKnn(requests[static_cast<size_t>(d)].q,
                              requests[static_cast<size_t>(d)].k);
          if (reply->neighbors != want.neighbors) {
            ++failures;
            return;
          }
        }
      }
      // Per-connection FIFO: the reply log is exactly the send order.
      const std::vector<uint64_t>& log = client.reply_log();
      if (log.size() != static_cast<size_t>(kBursts * kDepth)) {
        ++failures;
        return;
      }
      for (size_t i = 0; i < log.size(); ++i) {
        if (log[i] != i + 1) {  // ids are 1-based and consecutive
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(counters.frames_received,
            static_cast<uint64_t>(kClients) * kBursts * kDepth);
  EXPECT_EQ(counters.framing_errors, 0u);
  server.Stop();
  EXPECT_EQ(server.service().stats().requests,
            static_cast<uint64_t>(kClients) * kBursts * kDepth);
}

TEST(TcpPipelineTest, MalformedBytesGetErrorReplyThenClose) {
  std::vector<core::Poi> pois = WorldPois(100);
  core::SpatialServer served(pois);
  Server server(&served, {});
  ASSERT_TRUE(server.Start().ok());

  auto transport = ConnectTo(server);
  ASSERT_TRUE(transport.ok());
  // A valid request followed by garbage: expect its reply, then the framing
  // kError, then the server closes the connection.
  std::vector<uint8_t> bytes;
  KnnRequest request;
  request.q = {100, 100};
  request.k = 2;
  EncodeKnnRequest(31, request, &bytes);
  for (int i = 0; i < 24; ++i) bytes.push_back(0xEE);
  ASSERT_TRUE((*transport)->Send(bytes.data(), bytes.size()).ok());

  FrameDecoder decoder;
  std::vector<Frame> frames;
  bool closed = false;
  while (frames.size() < 2 && !closed) {
    std::vector<uint8_t> chunk;
    Status st = (*transport)->Receive(&chunk);
    if (!st.ok()) {
      closed = true;
      break;
    }
    ASSERT_TRUE(decoder.Feed(chunk.data(), chunk.size()).ok());
    Frame frame;
    while (decoder.Next(&frame)) frames.push_back(std::move(frame));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].opcode(), Opcode::kKnnReply);
  EXPECT_EQ(frames[0].header.request_id, 31u);
  EXPECT_EQ(frames[1].opcode(), Opcode::kError);
  Result<ErrorReply> error = DecodeError(frames[1].payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, ErrorCode::kMalformedFrame);
  // The connection is torn down after the error frame.
  std::vector<uint8_t> rest;
  Status st = (*transport)->Receive(&rest);
  EXPECT_EQ(st.code(), Status::Code::kFailedPrecondition) << st.message();
  server.Stop();
}

TEST(TcpPipelineTest, GarbageOnlyConnectionGetsOneErrorThenClose) {
  std::vector<core::Poi> pois = WorldPois(100);
  core::SpatialServer served(pois);
  Server server(&served, {});
  ASSERT_TRUE(server.Start().ok());

  auto transport = ConnectTo(server);
  ASSERT_TRUE(transport.ok());
  // No valid header at all: nothing to answer, one kError, then the close.
  const std::vector<uint8_t> bytes(64, 0xEE);
  ASSERT_TRUE((*transport)->Send(bytes.data(), bytes.size()).ok());

  FrameDecoder decoder;
  std::vector<Frame> frames;
  Status st;
  while (st.ok()) {
    std::vector<uint8_t> chunk;
    st = (*transport)->Receive(&chunk);
    ASSERT_TRUE(decoder.Feed(chunk.data(), chunk.size()).ok());
    Frame frame;
    while (decoder.Next(&frame)) frames.push_back(std::move(frame));
  }
  EXPECT_EQ(st.code(), Status::Code::kFailedPrecondition) << st.message();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].opcode(), Opcode::kError);
  EXPECT_EQ(frames[0].header.request_id, 0u);
  Result<ErrorReply> error = DecodeError(frames[0].payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, ErrorCode::kMalformedFrame);
  server.Stop();
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.frames_received, 0u);
  EXPECT_EQ(counters.groups_dispatched, 0u);
  EXPECT_EQ(counters.framing_errors, 1u);
  EXPECT_EQ(server.service().stats().requests, 0u);
}

TEST(TcpPipelineTest, AdmissionControlShedsWithOverloaded) {
  std::vector<core::Poi> pois = WorldPois(100);
  core::SpatialServer served(pois);
  ServerOptions options;
  options.max_inflight_requests = 2;  // tiny cap: a burst of 8 must shed
  Server server(&served, options);
  ASSERT_TRUE(server.Start().ok());

  auto transport = ConnectTo(server);
  ASSERT_TRUE(transport.ok());
  Client client(transport->get());
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    KnnRequest request;
    request.q = {10.0 * i, 10.0 * i};
    request.k = 1;
    ids.push_back(client.SendKnn(request));
  }
  ASSERT_TRUE(client.Flush().ok());
  int shed = 0, answered = 0;
  for (uint64_t id : ids) {
    Result<core::ServerReply> reply = client.Wait(id);
    if (reply.ok()) {
      ++answered;
    } else {
      EXPECT_EQ(reply.status().code(), Status::Code::kFailedPrecondition)
          << reply.status().message();
      ++shed;
    }
  }
  // The burst may land as one group (all shed) or split across reads; either
  // way anything beyond the cap came back kOverloaded, and the connection
  // survived.
  EXPECT_GT(shed, 0);
  EXPECT_EQ(shed + answered, 8);
  EXPECT_EQ(server.counters().requests_shed, static_cast<uint64_t>(shed));
  KnnRequest request;
  request.q = {1, 1};
  request.k = 1;
  EXPECT_TRUE(client.Knn(request).ok());  // connection still usable
  server.Stop();
}

// Two loops shedding and answering at once both count into one metrics
// registry. Every write to it must go through the QueryService lock: under
// TSan this is the test that sees a shed on one loop race an answer on the
// other, and the counts must add up either way.
//
// Both outcomes are certain, not left to scheduling. A pipelined burst of
// kBurstDepth > kCap requests arrives as one group (a single write, well
// under one read), and a group larger than the cap is shed however idle the
// engine is. Blocking single requests are groups of one, which only a burst
// being shed at that instant can push over the cap; and each blocking client
// gets its first answer before any burst is sent.
TEST(TcpPipelineTest, ShedAndAnsweredCountsAgreeInOneRegistry) {
  constexpr size_t kCap = 48;
  constexpr int kPipeliners = 2;
  constexpr int kBursts = 12;
  constexpr int kBurstDepth = 128;
  constexpr int kBlockers = 2;
  constexpr int kBlockingRequests = 192;
  static_assert(kBurstDepth > static_cast<int>(kCap));

  std::vector<core::Poi> pois = WorldPois();
  core::SpatialServer served(pois);
  obs::MetricsRegistry metrics;
  ServerOptions options;
  options.worker_threads = 2;
  options.max_inflight_requests = kCap;
  Server server(&served, options, &metrics);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> failures{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<int> blockers_answered_once{0};
  // Counts one reply; false on a transport failure.
  auto tally = [&](const Result<core::ServerReply>& reply) {
    if (reply.ok()) {
      ++answered;
    } else if (reply.status().code() == Status::Code::kFailedPrecondition) {
      ++shed;
    } else {
      ++failures;
      return false;
    }
    return true;
  };
  auto request_at = [](Rng* rng) {
    KnnRequest request;
    request.q = {rng->Uniform(0, 1000), rng->Uniform(0, 1000)};
    request.k = 4;
    return request;
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kBlockers; ++c) {
    clients.emplace_back([c, &server, &failures, &blockers_answered_once, &tally, &request_at] {
      auto transport = ConnectTo(server);
      if (!transport.ok()) {
        ++failures;
        ++blockers_answered_once;
        return;
      }
      Client client(transport->get());
      Rng rng = Rng(20060403).Stream("tcp/blocking", static_cast<uint64_t>(c));
      for (int i = 0; i < kBlockingRequests; ++i) {
        if (!tally(client.Knn(request_at(&rng)))) return;
        if (i == 0) ++blockers_answered_once;
      }
    });
  }
  for (int c = 0; c < kPipeliners; ++c) {
    clients.emplace_back([c, &server, &failures, &blockers_answered_once, &tally, &request_at] {
      while (blockers_answered_once.load() < kBlockers) std::this_thread::yield();
      auto transport = ConnectTo(server);
      if (!transport.ok()) {
        ++failures;
        return;
      }
      Client client(transport->get());
      Rng rng = Rng(20060403).Stream("tcp/shed", static_cast<uint64_t>(c));
      for (int burst = 0; burst < kBursts; ++burst) {
        std::vector<uint64_t> ids;
        for (int d = 0; d < kBurstDepth; ++d) ids.push_back(client.SendKnn(request_at(&rng)));
        if (!client.Flush().ok()) {
          ++failures;
          return;
        }
        for (uint64_t id : ids) {
          if (!tally(client.Wait(id))) return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();
  EXPECT_EQ(failures.load(), 0);

  const uint64_t sent = static_cast<uint64_t>(kPipeliners) * kBursts * kBurstDepth +
                        static_cast<uint64_t>(kBlockers) * kBlockingRequests;
  RecordProperty("shed", static_cast<int>(shed.load()));
  RecordProperty("answered", static_cast<int>(answered.load()));
  EXPECT_GT(shed.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(shed.load() + answered.load(), sent);
  EXPECT_EQ(server.counters().requests_shed, shed.load());
  EXPECT_EQ(metrics.counter("rpc/shed"), server.counters().requests_shed);
  EXPECT_EQ(metrics.counter("rpc/requests"), answered.load());
}

TEST(TcpPipelineTest, StopWhileClientsConnectedShutsDownCleanly) {
  std::vector<core::Poi> pois = WorldPois(100);
  core::SpatialServer served(pois);
  Server server(&served, {});
  ASSERT_TRUE(server.Start().ok());
  auto transport = ConnectTo(server);
  ASSERT_TRUE(transport.ok());
  Client client(transport->get());
  KnnRequest request;
  request.q = {5, 5};
  request.k = 1;
  ASSERT_TRUE(client.Knn(request).ok());
  server.Stop();  // with the connection open
  // A second Stop is a no-op.
  server.Stop();
}

// Every event loop polls the same stop pipe. If one loop consumed the stop
// wakeup, the others would sleep in poll() and Stop() would hang.
TEST(TcpPipelineTest, StopReachesEveryLoop) {
  constexpr int kClients = 8;
  std::vector<core::Poi> pois = WorldPois(100);
  core::SpatialServer oracle(pois);
  core::SpatialServer served(pois);
  ServerOptions options;
  options.worker_threads = 4;
  Server server(&served, options);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::unique_ptr<TcpClientTransport>> transports;
  for (int c = 0; c < kClients; ++c) {
    auto transport = ConnectTo(server);
    ASSERT_TRUE(transport.ok()) << transport.status().message();
    Client client(transport->get());
    KnnRequest request;
    request.q = {100.0 * c, 50.0 * c};
    request.k = 3;
    Result<core::ServerReply> reply = client.Knn(request);
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    EXPECT_EQ(reply->neighbors, oracle.QueryKnn(request.q, request.k).neighbors) << c;
    transports.push_back(std::move(*transport));
  }
  server.Stop();  // every connection still open
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(counters.connections_closed, static_cast<uint64_t>(kClients));
}

// SIGPIPE regression: clients that pipeline a burst and close without
// reading leave the server writing replies into connections the peer has
// already shut down. A client that half-closes and then resets leaves the
// server's socket in CLOSE_WAIT with a pending reset; a plain write() to it
// raises SIGPIPE and kills the whole process (this test binary included),
// while send(MSG_NOSIGNAL) just reports a closed connection. Several
// clients close at varied points of the answer/write cycle; with
// write() the process died in 23 of 26 runs (4-core Linux VM).
TEST(TcpPipelineTest, ClientsClosingMidReplyDoNotKillTheServer) {
  constexpr int kClients = 4;
  constexpr int kRounds = 40;
  constexpr int kRequests = 300;
  std::vector<core::Poi> pois = WorldPois();
  core::SpatialServer served(pois);
  ServerOptions options;
  options.worker_threads = 2;
  Server server(&served, options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &server, &failures] {
      Rng rng = Rng(20060403).Stream("tcp/sigpipe", static_cast<uint64_t>(c));
      for (int round = 0; round < kRounds; ++round) {
        auto transport = ConnectTo(server);
        if (!transport.ok()) {
          ++failures;
          return;
        }
        // k = 64 makes every reply about 2 KiB.
        std::vector<uint8_t> bytes;
        for (int i = 0; i < kRequests; ++i) {
          KnnRequest request;
          request.q = {rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
          request.k = 64;
          EncodeKnnRequest(static_cast<uint64_t>(i) + 1, request, &bytes);
        }
        if (!(*transport)->Send(bytes.data(), bytes.size()).ok()) continue;
        // Wait for the first reply bytes: they prove the server accepted the
        // connection (a client reset while still in the accept queue is
        // dropped by the kernel uncounted). One read takes at most 64 KiB
        // of the roughly 600 KiB of replies, so the server is still writing.
        std::vector<uint8_t> first;
        if (!(*transport)->Receive(&first).ok()) {
          ++failures;
          continue;
        }
        // Half-close while the burst is being answered, then reset: close
        // with most replies unread.
        const int fd = (*transport)->fd();
        std::this_thread::sleep_for(std::chrono::microseconds(rng.NextIndex(200)));
        ::shutdown(fd, SHUT_WR);
        std::this_thread::sleep_for(std::chrono::microseconds(rng.NextIndex(50)));
        struct linger abortive = {1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abortive, sizeof(abortive));
        transport->reset();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The server survived and still answers a well-behaved client exactly.
  core::SpatialServer oracle(pois);
  auto transport = ConnectTo(server);
  ASSERT_TRUE(transport.ok()) << transport.status().message();
  Client client(transport->get());
  Rng rng = Rng(20060403).Stream("tcp/sigpipe-check");
  for (int i = 0; i < 16; ++i) {
    KnnRequest request;
    request.q = {rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    request.k = 1 + i % 8;
    Result<core::ServerReply> reply = client.Knn(request);
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    EXPECT_EQ(reply->neighbors, oracle.QueryKnn(request.q, request.k).neighbors) << i;
  }
  EXPECT_EQ(server.counters().connections_accepted,
            static_cast<uint64_t>(kClients * kRounds) + 1);
  server.Stop();
}

// The client side of the same bug: sending into a connection the server has
// closed must surface as an error Status, not a SIGPIPE.
TEST(TcpPipelineTest, SendingToAStoppedServerFailsWithoutASignal) {
  std::vector<core::Poi> pois = WorldPois(100);
  core::SpatialServer served(pois);
  Server server(&served, {});
  ASSERT_TRUE(server.Start().ok());
  auto transport = ConnectTo(server);
  ASSERT_TRUE(transport.ok());
  Client client(transport->get());
  KnnRequest request;
  request.q = {5, 5};
  request.k = 1;
  ASSERT_TRUE(client.Knn(request).ok());
  server.Stop();

  std::vector<uint8_t> bytes;
  EncodeKnnRequest(2, request, &bytes);
  // The first send after the server's close may still be accepted locally;
  // the peer's reset turns a later one into EPIPE.
  Status st;
  for (int attempt = 0; attempt < 1000 && st.ok(); ++attempt) {
    st = (*transport)->Send(bytes.data(), bytes.size());
    if (st.ok()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(st.ok());
}

// Read-side backpressure: a client that pipelines requests and never reads
// its replies must stop being read once its unsent replies pass the
// server's budget, so its own sends stall after a bounded number of bytes.
// Without the budget the server reads, answers and buffers without end, and
// the client reaches kSendCap. The client then reads every reply: each
// answers its own request, in send order.
TEST(TcpPipelineTest, ClientThatNeverReadsIsBackpressured) {
  constexpr int kK = 16;  // about 550 bytes per reply, ten times the request
  constexpr size_t kSendCap = size_t{8} << 20;
  constexpr int kStallMs = 500;  // unwritable this long: the server stopped reading
  std::vector<core::Poi> pois = WorldPois();
  core::SpatialServer served(pois);
  Server server(&served, {});
  ASSERT_TRUE(server.Start().ok());
  auto transport = ConnectTo(server);
  ASSERT_TRUE(transport.ok());
  const int fd = (*transport)->fd();
  // A small client send buffer keeps the stall point, and the run time,
  // down to what the server side buffers.
  const int sndbuf = 64 << 10;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)), 0);

  Rng rng = Rng(20060403).Stream("tcp/backpressure");
  std::vector<geom::Vec2> points;
  std::vector<uint8_t> pending;  // encoded, not yet sent
  size_t off = 0;
  size_t sent = 0;
  bool stalled = false;
  while (!stalled && sent < kSendCap) {
    if (off == pending.size()) {
      pending.clear();
      off = 0;
      for (int i = 0; i < 64; ++i) {
        KnnRequest request;
        request.q = {rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
        request.k = kK;
        points.push_back(request.q);
        EncodeKnnRequest(points.size(), request, &pending);
      }
    }
    const ssize_t w = ::send(fd, pending.data() + off, pending.size() - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<size_t>(w);
      sent += static_cast<size_t>(w);
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << std::strerror(errno);
    struct pollfd pfd = {fd, POLLOUT, 0};
    stalled = ::poll(&pfd, 1, kStallMs) == 0;
  }
  ASSERT_TRUE(stalled) << "sent " << sent << " bytes without the server stopping reading";

  // Read every reply, finishing the partly sent batch as the socket drains.
  core::SpatialServer oracle(pois);
  FrameDecoder decoder;
  std::vector<uint8_t> buf(1 << 16);
  size_t received = 0;
  while (received < points.size()) {
    short events = POLLIN;
    if (off < pending.size()) events |= POLLOUT;
    struct pollfd pfd = {fd, events, 0};
    // Generous: the segments dropped while the server was not reading come
    // back on TCP's retransmit backoff, which can take seconds.
    ASSERT_EQ(::poll(&pfd, 1, 30000), 1) << "stuck after " << received << " replies";
    if (pfd.revents & POLLOUT) {
      const ssize_t w = ::send(fd, pending.data() + off, pending.size() - off, MSG_NOSIGNAL);
      if (w > 0) off += static_cast<size_t>(w);
    }
    if (!(pfd.revents & POLLIN)) continue;
    const ssize_t r = ::read(fd, buf.data(), buf.size());
    ASSERT_GT(r, 0) << "connection lost after " << received << " replies";
    ASSERT_TRUE(decoder.Feed(buf.data(), static_cast<size_t>(r)).ok());
    Frame frame;
    while (decoder.Next(&frame)) {
      ASSERT_EQ(frame.opcode(), Opcode::kKnnReply);
      ASSERT_EQ(frame.header.request_id, received + 1);
      Result<core::ServerReply> reply = DecodeKnnReply(frame.payload);
      ASSERT_TRUE(reply.ok());
      EXPECT_EQ(reply->neighbors, oracle.QueryKnn(points[received], kK).neighbors) << received;
      ++received;
    }
  }
  server.Stop();
}

}  // namespace
}  // namespace senn::rpc
