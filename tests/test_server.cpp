// The proxy daemon, bottom-up: wire encoding, deterministic payloads,
// the serving engine's range math and session accounting, and a full
// in-process loopback integration run with concurrent clients. The
// integration test is the ISSUE's tier-1 server gate and runs under
// ASan+UBSan and TSan in CI.
#include "server/daemon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "server/client.h"
#include "server/engine.h"
#include "server/payload.h"
#include "server/wire.h"
#include "util/rng.h"

namespace sc::server {
namespace {

ServiceConfig small_config() {
  ServiceConfig config;
  config.objects = 64;
  config.seed = 11;
  config.policy = "pb";
  config.estimator = "oracle";
  config.cache_fraction = 0.1;
  return config;
}

std::size_t open_fd_count() {
  return static_cast<std::size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/fd"),
      std::filesystem::directory_iterator{}));
}

// ---------------------------------------------------------------- wire

TEST(Wire, ScalarCodecsRoundTrip) {
  std::vector<std::uint8_t> buf;
  wire::put_u32(buf, 0xDEADBEEFu);
  wire::put_u64(buf, 0x0123456789ABCDEFull);
  wire::put_f64(buf, -1234.5678);
  ASSERT_EQ(buf.size(), 4u + 8u + 8u);
  EXPECT_EQ(wire::get_u32(buf.data()), 0xDEADBEEFu);
  EXPECT_EQ(wire::get_u64(buf.data() + 4), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(wire::get_f64(buf.data() + 12), -1234.5678);
  // Little-endian on the wire, by byte.
  EXPECT_EQ(buf[0], 0xEF);
  EXPECT_EQ(buf[3], 0xDE);
}

TEST(Wire, GetRequestRoundTrip) {
  std::vector<std::uint8_t> frame;
  wire::encode_get(frame, wire::GetRequest{42, 1000, 65536});
  ASSERT_EQ(frame.size(), wire::kGetRequestSize);
  EXPECT_EQ(frame[0], wire::kOpGet);
  wire::GetRequest out;
  ASSERT_TRUE(wire::decode_get(frame.data(), frame.size(), out));
  EXPECT_EQ(out.object, 42u);
  EXPECT_EQ(out.offset, 1000u);
  EXPECT_EQ(out.length, 65536u);
  // Truncated or oversized bodies are rejected.
  EXPECT_FALSE(wire::decode_get(frame.data(), frame.size() - 1, out));
  frame.push_back(0);
  EXPECT_FALSE(wire::decode_get(frame.data(), frame.size(), out));
}

// ---------------------------------------------------------------- payload

TEST(Payload, ByteIsDeterministicAndObjectDependent) {
  EXPECT_EQ(payload_byte(1, 0), payload_byte(1, 0));
  // Different objects produce different streams (overwhelmingly).
  int diffs = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    diffs += payload_byte(1, i) != payload_byte(2, i);
  }
  EXPECT_GT(diffs, 0);
}

TEST(Payload, FillMatchesByteAtEveryAlignment) {
  // fill_payload's block fast path must agree with the scalar
  // definition for every start alignment and ragged tail.
  for (std::uint64_t offset = 0; offset < 9; ++offset) {
    for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 31u, 64u}) {
      std::vector<std::uint8_t> buf(len, 0xAA);
      fill_payload(7, offset, buf.data(), len);
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(buf[i], payload_byte(7, offset + i))
            << "offset=" << offset << " len=" << len << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------- engine

TEST(ServiceEngine, CatalogIsDeterministicForSeedAndCount) {
  const auto a = ServiceEngine::make_catalog(32, 9);
  const auto b = ServiceEngine::make_catalog(32, 9);
  const auto c = ServiceEngine::make_catalog(32, 10);
  ASSERT_EQ(a.size(), b.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.object(i).size_bytes, b.object(i).size_bytes);
    any_diff |= a.object(i).size_bytes != c.object(i).size_bytes;
  }
  EXPECT_TRUE(any_diff);  // the seed actually matters
}

TEST(ServiceEngine, RejectsBadObjectAndBadRange) {
  ServiceEngine engine(small_config());
  EXPECT_EQ(engine.serve_range(engine.catalog().size(), 0, 1).status,
            wire::kBadObject);
  const std::uint64_t size = engine.object_size(0);
  EXPECT_EQ(engine.serve_range(0, size + 1, 0).status, wire::kBadRange);
  EXPECT_EQ(engine.serve_range(0, size - 1, 2).status, wire::kBadRange);
  EXPECT_EQ(engine.serve_range(0, 0, wire::kMaxGetLength + 1).status,
            wire::kBadRange);
  // Zero-length probes and exact-boundary ranges are valid.
  EXPECT_EQ(engine.serve_range(0, size, 0).status, wire::kOk);
  EXPECT_EQ(engine.serve_range(0, size - 1, 1).status, wire::kOk);
}

TEST(ServiceEngine, ByteSplitIsExactAndAdmissionRunsAtOffsetZero) {
  // LRU admits unconditionally; utility policies may legitimately cache
  // a zero prefix for a fast path, which would make this test vacuous.
  ServiceConfig config = small_config();
  config.policy = "lru";
  ServiceEngine engine(config);
  // Cold object: everything comes from origin, and the
  // session-opening request admits a prefix.
  const auto first = engine.serve_range(5, 0, 4096);
  ASSERT_EQ(first.status, wire::kOk);
  EXPECT_EQ(first.cache_bytes, 0u);
  EXPECT_EQ(first.origin_bytes, 4096u);
  const std::uint64_t cached = engine.cached_bytes(5);
  EXPECT_GT(cached, 0u);

  // Second session start: the cached prefix now covers the range head.
  const auto second = engine.serve_range(5, 0, 4096);
  ASSERT_EQ(second.status, wire::kOk);
  EXPECT_EQ(second.cache_bytes + second.origin_bytes, 4096u);
  EXPECT_EQ(second.cache_bytes, std::min<std::uint64_t>(cached, 4096));

  // Mid-stream chunk: the byte split is exactly the prefix clamp, and a
  // non-opening chunk must NOT re-run admission (prefix unchanged).
  const std::uint64_t before = engine.cached_bytes(5);
  const std::uint64_t far = engine.object_size(5) - 4096;
  const auto chunk = engine.serve_range(5, far, 4096);
  ASSERT_EQ(chunk.status, wire::kOk);
  const std::uint64_t expect_cache =
      before > far ? std::min<std::uint64_t>(before - far, 4096) : 0;
  EXPECT_EQ(chunk.cache_bytes, expect_cache);
  EXPECT_EQ(chunk.origin_bytes, 4096u - expect_cache);
  EXPECT_EQ(engine.cached_bytes(5), before);
}

TEST(ServiceEngine, SessionAccountingTracksViewedFraction) {
  ServiceEngine engine(small_config());
  const std::uint64_t size = engine.object_size(2);
  (void)engine.serve_range(2, 0, 1024);
  engine.end_session(2, size / 2);  // departed halfway
  const ServiceStats stats = engine.snapshot();
  EXPECT_EQ(stats.sessions, 1u);
  EXPECT_NEAR(stats.mean_viewed_fraction,
              static_cast<double>(size / 2) / static_cast<double>(size), 1e-9);
}

TEST(ServiceEngine, StatsJsonContainsTheCounters) {
  ServiceEngine engine(small_config());
  (void)engine.serve_range(0, 0, 512);
  const std::string json = engine.stats_json();
  EXPECT_NE(json.find("\"requests\": 1"), std::string::npos);
  EXPECT_NE(json.find("hit_ratio"), std::string::npos);
  EXPECT_NE(json.find("capacity_bytes"), std::string::npos);
  // Persistence/uptime fields are always present (warm_start is simply
  // false when persistence is off).
  EXPECT_NE(json.find("\"uptime_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"warm_start\": false"), std::string::npos);
  EXPECT_GE(engine.snapshot().uptime_s, 0.0);
}

TEST(ServiceEngine, AuditPassesOnALiveEngine) {
  ServiceEngine engine(small_config());
  for (std::uint64_t id = 0; id < 16; ++id) {
    (void)engine.serve_range(id, 0, 4096);
  }
  const auto report = engine.audit();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 0u);
}

// ---------------------------------------------------------------- daemon

TEST(ProxyDaemon, LoopbackServesConcurrentClientsByteAccurately) {
  const std::size_t fds_before = open_fd_count();
  ServiceEngine engine(small_config());
  ProxyDaemon daemon(engine);
  daemon.start();
  ASSERT_GT(daemon.port(), 0);

  // Concurrent clients stream Zipf-free deterministic schedules: each
  // walks its own object set in chunks and byte-checks every response
  // against the deterministic payload function.
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kSessionsPerClient = 12;
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        ProxyClient client("127.0.0.1", daemon.port());
        util::Rng rng(100 + c);
        for (std::size_t s = 0; s < kSessionsPerClient; ++s) {
          const auto object = static_cast<std::uint64_t>(
              rng.uniform() * static_cast<double>(engine.catalog().size() / 2));
          const std::uint64_t size = engine.object_size(object);
          const std::uint64_t budget =
              std::min<std::uint64_t>(size, 48 * 1024);
          for (std::uint64_t off = 0; off < budget; off += 16 * 1024) {
            const std::uint64_t len =
                std::min<std::uint64_t>(16 * 1024, budget - off);
            const auto reply = client.get(object, off, len);
            if (reply.status != wire::kOk) {
              errors[c] = "unexpected status";
              return;
            }
            if (reply.cache_bytes + reply.origin_bytes != len ||
                reply.data.size() != len) {
              errors[c] = "byte split does not cover the range";
              return;
            }
            for (std::size_t i = 0; i < reply.data.size(); ++i) {
              if (reply.data[i] != payload_byte(object, off + i)) {
                errors[c] = "payload mismatch";
                return;
              }
            }
          }
        }
        // Exercise STAT and STATS on a live connection too.
        const auto stat = client.stat(0);
        if (stat.status != wire::kOk || stat.size_bytes == 0) {
          errors[c] = "bad STAT reply";
        }
        if (client.stats().find("requests") == std::string::npos) {
          errors[c] = "bad STATS reply";
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) EXPECT_EQ(e, "");

  // With half the catalog under a 10% cache, repeat accesses hit.
  const ServiceStats stats = engine.snapshot();
  EXPECT_GT(stats.requests, 0u);
  EXPECT_GT(stats.hit_ratio, 0.0);
  EXPECT_GT(stats.sessions, 0u);
  EXPECT_EQ(static_cast<std::size_t>(daemon.connections_accepted()), kClients);

  daemon.stop();
  // Clean shutdown releases every socket: fd count returns to baseline.
  EXPECT_EQ(open_fd_count(), fds_before);
}

TEST(ProxyDaemon, MalformedFramesGetBadRequestNotDisconnect) {
  ServiceEngine engine(small_config());
  ProxyDaemon daemon(engine);
  daemon.start();
  ProxyClient client("127.0.0.1", daemon.port());
  // A GET for an out-of-catalog object is answered, not dropped...
  const auto bad = client.get(1u << 20, 0, 16);
  EXPECT_EQ(bad.status, wire::kBadObject);
  // ...and the connection still works afterwards.
  const auto good = client.get(0, 0, 16);
  EXPECT_EQ(good.status, wire::kOk);
  ASSERT_EQ(good.data.size(), 16u);
  daemon.stop();
}

TEST(ProxyDaemon, StopIsIdempotentAndRestartableEngineStateSurvives) {
  ServiceEngine engine(small_config());
  {
    ProxyDaemon daemon(engine);
    daemon.start();
    ProxyClient client("127.0.0.1", daemon.port());
    (void)client.get(1, 0, 2048);
    daemon.stop();
    daemon.stop();  // idempotent
  }
  // Engine state persists across daemon lifetimes (the daemon is a
  // transport; the engine owns the cache).
  EXPECT_GT(engine.snapshot().requests, 0u);
  ProxyDaemon second(engine);
  second.start();
  ProxyClient client("127.0.0.1", second.port());
  const auto reply = client.get(1, 0, 2048);
  EXPECT_EQ(reply.status, wire::kOk);
  second.stop();
}

TEST(ProxyDaemon, AuditFrameReturnsACleanJsonReportOverTheWire) {
  ServiceEngine engine(small_config());
  ProxyDaemon daemon(engine);
  daemon.start();
  ProxyClient client("127.0.0.1", daemon.port());
  (void)client.get(2, 0, 4096);  // some state to audit
  const std::string report = client.audit();
  EXPECT_NE(report.find("\"ok\": true"), std::string::npos) << report;
  EXPECT_NE(report.find("\"violations\": []"), std::string::npos);
  daemon.stop();
}

TEST(ProxyDaemon, EveryOffsetZeroGetOpensANewSession) {
  // A GET at offset 0 opens a session even when the connection was
  // already streaming the same object: three offset-0 runs are three
  // sessions, one multi-chunk run is one.
  ServiceEngine engine(small_config());
  ProxyDaemon daemon(engine);
  daemon.start();
  {
    ProxyClient client("127.0.0.1", daemon.port());
    for (int run = 0; run < 3; ++run) {
      ASSERT_EQ(client.get(3, 0, 1024).status, wire::kOk);
    }
  }
  // The connection thread closes the last session after the client
  // hangs up; wait for it.
  for (int i = 0; i < 500 && engine.snapshot().sessions < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(engine.snapshot().requests, 3u);
  EXPECT_EQ(engine.snapshot().sessions, 3u);
  {
    ProxyClient client("127.0.0.1", daemon.port());
    for (std::uint64_t off = 0; off < 3 * 1024; off += 1024) {
      ASSERT_EQ(client.get(3, off, 1024).status, wire::kOk);
    }
  }
  // stop() joins every connection thread, so the count is final.
  daemon.stop();
  EXPECT_EQ(engine.snapshot().requests, 6u);
  EXPECT_EQ(engine.snapshot().sessions, 4u);
}

// ---------------------------------------------------------------- chaos

TEST(ServiceEngine, OriginTimeoutMapsToTypedOriginDown) {
  // An upstream stall longer than the configured timeout is treated as
  // an unreachable origin: typed kOriginDown, not a pinned thread.
  ServiceConfig config = small_config();
  config.origin.latency_s = 0.2;   // every fetch would stall 200 ms...
  config.origin_timeout_s = 0.05;  // ...which the engine refuses to pay
  config.max_retries = 1;
  config.retry_backoff_s = 0.001;
  ServiceEngine engine(config);
  const auto res = engine.serve_range(0, 0, 4096);
  EXPECT_EQ(res.status, wire::kOriginDown);
  const ServiceStats stats = engine.snapshot();
  EXPECT_GE(stats.origin_timeouts, 1u);
  EXPECT_GE(stats.origin_down, 1u);
  EXPECT_EQ(stats.origin_retries, 1u);
  // Zero-length probes never need the origin and still answer kOk.
  EXPECT_EQ(engine.serve_range(0, 0, 0).status, wire::kOk);
}

TEST(ServiceEngine, OriginOutageDegradesGracefullyAndRecovers) {
  // One wall-clock outage window [1s, 2.5s) from engine start. Warm a
  // prefix before it opens, drill during it, verify recovery after.
  ServiceConfig config = small_config();
  config.policy = "lru";  // admits unconditionally -> a warm prefix exists
  config.origin.fault = "fault:outage=1+1.5";
  config.max_retries = 2;
  config.retry_backoff_s = 0.01;
  ServiceEngine engine(config);

  ASSERT_EQ(engine.serve_range(3, 0, 4096).status, wire::kOk);
  const std::uint64_t cached = engine.cached_bytes(3);
  ASSERT_GT(cached, 0u);

  std::this_thread::sleep_for(std::chrono::milliseconds(1300));  // t ~ 1.3s

  // Fully-cached ranges keep answering kOk (graceful degradation)...
  const std::uint64_t len = std::min<std::uint64_t>(cached, 4096);
  const auto warm = engine.serve_range(3, 0, len);
  EXPECT_EQ(warm.status, wire::kOk);
  EXPECT_EQ(warm.cache_bytes, len);
  EXPECT_EQ(warm.origin_bytes, 0u);

  // ...while ranges needing origin bytes fail typed after bounded
  // retries, and no admission runs for them (nothing to back the fill).
  const auto cold = engine.serve_range(7, 0, 4096);
  EXPECT_EQ(cold.status, wire::kOriginDown);
  EXPECT_EQ(engine.cached_bytes(7), 0u);

  const ServiceStats mid = engine.snapshot();
  EXPECT_GE(mid.origin_down, 1u);
  EXPECT_EQ(mid.origin_retries, config.max_retries);
  EXPECT_GE(mid.degraded_hits, 1u);
  EXPECT_NE(engine.stats_json().find("\"origin_down\""), std::string::npos);

  std::this_thread::sleep_for(std::chrono::milliseconds(1400));  // t ~ 2.7s

  // The window has closed: the same request succeeds and admission
  // resumes. kOriginDown is transient by contract.
  EXPECT_EQ(engine.serve_range(7, 0, 4096).status, wire::kOk);
  EXPECT_GT(engine.cached_bytes(7), 0u);
}

TEST(ProxyDaemon, OriginDownTravelsTheWireAsALoneStatusByte) {
  ServiceConfig config = small_config();
  config.origin.fault = "fault:outage=0+3600";  // down for the whole test
  config.max_retries = 1;
  config.retry_backoff_s = 0.001;
  ServiceEngine engine(config);
  ProxyDaemon daemon(engine);
  daemon.start();
  ProxyClient client("127.0.0.1", daemon.port());
  const auto reply = client.get(0, 0, 4096);
  EXPECT_EQ(reply.status, wire::kOriginDown);
  EXPECT_TRUE(reply.data.empty());
  // The connection survives the error reply: STAT still answers.
  EXPECT_EQ(client.stat(0).status, wire::kOk);
  daemon.stop();
}

int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ProxyDaemon, AbruptClientCloseMidResponseDoesNotKillTheDaemon) {
  // Queue several max-length GETs and vanish without reading: the
  // daemon's response writes overflow the socket buffers and hit a dead
  // peer. With MSG_NOSIGNAL on the write path this surfaces as EPIPE on
  // that connection only; a raised SIGPIPE would kill this whole test
  // binary (default disposition — nothing here ignores it).
  const std::size_t fds_before = open_fd_count();
  ServiceEngine engine(small_config());
  ProxyDaemon daemon(engine);
  daemon.start();

  for (int round = 0; round < 3; ++round) {
    const int fd = raw_connect(daemon.port());
    ASSERT_GE(fd, 0);
    const std::uint64_t len =
        std::min<std::uint64_t>(engine.object_size(0), wire::kMaxGetLength);
    std::vector<std::uint8_t> body;
    wire::encode_get(body, wire::GetRequest{0, 0, len});
    ASSERT_TRUE(wire::write_frame(fd, body.data(), body.size()));
    for (int i = 0; i < 3; ++i) {
      // Best-effort: the daemon may already have torn the connection
      // down mid-burst, which is exactly the behaviour under test.
      (void)wire::write_frame(fd, body.data(), body.size());
    }
    ::close(fd);
  }

  // The daemon must still be serving new connections byte-accurately.
  ProxyClient client("127.0.0.1", daemon.port());
  const auto reply = client.get(1, 0, 2048);
  EXPECT_EQ(reply.status, wire::kOk);
  ASSERT_EQ(reply.data.size(), 2048u);
  for (std::size_t i = 0; i < reply.data.size(); ++i) {
    ASSERT_EQ(reply.data[i], payload_byte(1, i));
  }
  client.close();
  daemon.stop();
  // Every aborted connection's fd was reclaimed.
  EXPECT_EQ(open_fd_count(), fds_before);
}

TEST(ProxyDaemon, IdleConnectionsAreDisconnectedAfterTheTimeout) {
  ServiceEngine engine(small_config());
  DaemonConfig config;
  config.idle_timeout_s = 0.3;
  ProxyDaemon daemon(engine, config);
  daemon.start();

  ProxyClient idle("127.0.0.1", daemon.port());
  EXPECT_EQ(idle.get(0, 0, 512).status, wire::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  // The daemon closed the silent connection; the next request fails at
  // the transport layer, not with a protocol error.
  EXPECT_THROW((void)idle.get(0, 0, 512), std::runtime_error);

  // Fresh connections are unaffected, and a busy connection never
  // trips the timeout because activity resets per frame.
  ProxyClient fresh("127.0.0.1", daemon.port());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(fresh.get(0, 0, 512).status, wire::kOk);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  }
  daemon.stop();
}

TEST(ProxyDaemon, AcceptLoopSurvivesFdExhaustion) {
  // Clamp RLIMIT_NOFILE just above current usage so accept() hits
  // EMFILE, then verify the daemon rides it out (logs once, backs off)
  // and accepts again once fds return.
  ServiceEngine engine(small_config());
  ProxyDaemon daemon(engine);
  daemon.start();

  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  rlimit tight = old_limit;
  tight.rlim_cur = static_cast<rlim_t>(open_fd_count() + 8);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);

  {
    // Each accepted client costs two fds here (client + server end);
    // a few connections exhaust the headroom and the backlog holds the
    // rest while the accept loop backs off.
    std::vector<std::unique_ptr<ProxyClient>> clients;
    for (int i = 0; i < 8; ++i) {
      try {
        clients.push_back(
            std::make_unique<ProxyClient>("127.0.0.1", daemon.port()));
      } catch (const std::exception&) {
        break;  // the client side hit the limit first; good enough
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  }  // destroying the clients returns their fds

  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old_limit), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // The loop never exited: a fresh connection is accepted and served.
  ProxyClient fresh("127.0.0.1", daemon.port());
  EXPECT_EQ(fresh.get(0, 0, 1024).status, wire::kOk);
  daemon.stop();
}

}  // namespace
}  // namespace sc::server
