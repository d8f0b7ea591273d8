// Connection churn against the live daemon: tens of thousands of short
// connections over one daemon lifetime. Every connection's thread must
// be reclaimed once the connection closes, so the process's thread
// count, virtual size and open fds stay bounded by the connections that
// are open at once, not by the connections ever accepted — a daemon
// that kept every finished thread until stop() would map one stack per
// lifetime connection and abort once thread creation failed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "server/client.h"
#include "server/daemon.h"
#include "server/engine.h"
#include "server/wire.h"

namespace sc::server {
namespace {

constexpr std::size_t kChurnConnections = 50000;
constexpr std::size_t kWarmupConnections = 1000;
constexpr std::size_t kSampleEvery = 2500;

struct ProcessUsage {
  std::size_t threads = 0;
  std::size_t vm_size_kb = 0;
  std::size_t fds = 0;
};

ProcessUsage usage() {
  ProcessUsage u;
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      status >> u.threads;
    } else if (key == "VmSize:") {
      status >> u.vm_size_kb;
    }
    status.ignore(1 << 12, '\n');
  }
  u.fds = static_cast<std::size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/fd"),
      std::filesystem::directory_iterator{}));
  return u;
}

/// One short connection: connect, one STAT round trip (so the daemon
/// really ran a connection thread for it), then an abortive close. The
/// RST keeps the client side out of TIME_WAIT, so 50k connections do
/// not exhaust the loopback ephemeral port range.
bool churn_once(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0;
  if (ok) {
    std::vector<std::uint8_t> body{wire::kOpStat};
    wire::put_u64(body, 0);
    std::vector<std::uint8_t> reply;
    ok = wire::write_frame(fd, body.data(), body.size()) &&
         wire::read_frame(fd, reply) && !reply.empty() &&
         reply[0] == wire::kOk;
  }
  const linger abortive{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abortive, sizeof abortive);
  ::close(fd);
  return ok;
}

TEST(DaemonChurn, FiftyThousandConnectionsKeepThreadsMemoryAndFdsBounded) {
  ServiceConfig config;
  config.objects = 64;
  config.seed = 11;
  config.policy = "pb";
  config.estimator = "oracle";
  config.cache_fraction = 0.1;
  ServiceEngine engine(config);
  ProxyDaemon daemon(engine);
  daemon.start();

  // Warm up first, so allocator arenas and the thread-stack cache reach
  // their steady size before the baseline is taken.
  for (std::size_t i = 0; i < kWarmupConnections; ++i) {
    ASSERT_TRUE(churn_once(daemon.port())) << "warm-up connection " << i;
  }
  const ProcessUsage base = usage();

  ProcessUsage peak = base;
  std::size_t failed = 0;
  for (std::size_t i = 1; i <= kChurnConnections; ++i) {
    if (!churn_once(daemon.port())) ++failed;
    if (i % kSampleEvery == 0) {
      const ProcessUsage now = usage();
      peak.threads = std::max(peak.threads, now.threads);
      peak.vm_size_kb = std::max(peak.vm_size_kb, now.vm_size_kb);
      peak.fds = std::max(peak.fds, now.fds);
    }
  }
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(daemon.connections_accepted(),
            kWarmupConnections + kChurnConnections);

  // One connection is open at a time, so only the few threads still
  // exiting may be outstanding at a sample. A daemon that kept finished
  // threads would hold ~50k here, and map an 8 MiB stack for each.
  EXPECT_LE(peak.threads, base.threads + 16)
      << "connection threads are not being reclaimed";
  EXPECT_LE(peak.vm_size_kb, base.vm_size_kb + 512 * 1024)
      << "VmSize grew from " << base.vm_size_kb << " kB";
  EXPECT_LE(peak.fds, base.fds + 16);

  // The daemon is still serving.
  ProxyClient client("127.0.0.1", daemon.port());
  EXPECT_EQ(client.stat(1).status, wire::kOk);
  client.close();
  daemon.stop();
  const ProcessUsage after = usage();
  EXPECT_LE(after.fds, base.fds);
  EXPECT_LE(after.threads, base.threads);
}

}  // namespace
}  // namespace sc::server
