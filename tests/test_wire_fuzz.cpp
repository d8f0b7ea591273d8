// Seeded fuzzing of the wire protocol, bottom-up: frame reads over a
// socketpair under random write splits, truncation and out-of-bounds
// length headers; GET decoding of random-length bodies; and random
// frames and GET fields through a loopback ProxyDaemon. Every loop draws
// from its own fixed-seed util::Rng, so a failure replays exactly. The
// contract under test: a malformed or hostile peer costs at most its own
// connection — every reply is one well-formed frame with a known
// status, bad requests never end the connection, and the decision state
// still audits clean afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "server/daemon.h"
#include "server/engine.h"
#include "server/wire.h"
#include "util/rng.h"

namespace sc::server {
namespace {

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

/// Uniform integer in [0, n).
std::uint64_t below(util::Rng& rng, std::uint64_t n) {
  return static_cast<std::uint64_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(below(rng, 256));
  return out;
}

/// A frame's wire image: u32 length header (which may lie) + body.
std::vector<std::uint8_t> frame_image(std::uint32_t header_len,
                                      const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> out;
  wire::put_u32(out, header_len);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

/// Write `bytes` in random-sized pieces (a peer whose frames straddle
/// arbitrary segment boundaries).
void write_split(int fd, const std::vector<std::uint8_t>& bytes,
                 util::Rng& rng) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const std::size_t piece = std::min<std::size_t>(
        bytes.size() - done, 1 + below(rng, 97));
    const ssize_t w = ::send(fd, bytes.data() + done, piece, MSG_NOSIGNAL);
    if (w <= 0) return;
    done += static_cast<std::size_t>(w);
  }
}

struct SocketPair {
  int fd[2] = {-1, -1};
  SocketPair() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fd) != 0) fd[0] = fd[1] = -1;
  }
  ~SocketPair() {
    for (int f : fd) {
      if (f >= 0) ::close(f);
    }
  }
};

// ---------------------------------------------------------------- frames

TEST(WireFuzz, ReadFrameReassemblesRandomlySplitFrames) {
  util::Rng rng(2027);
  SocketPair sp;
  ASSERT_GE(sp.fd[0], 0);
  std::vector<std::vector<std::uint8_t>> bodies;
  for (int i = 0; i < 200; ++i) {
    // Every tenth frame is empty (len == 0 is a valid frame).
    bodies.push_back(random_bytes(rng, i % 10 == 0 ? 0 : below(rng, 3000)));
  }
  util::Rng split_rng(2028);
  std::thread writer([&] {
    for (const auto& body : bodies) {
      write_split(sp.fd[0], frame_image(
                                static_cast<std::uint32_t>(body.size()), body),
                  split_rng);
    }
  });
  std::vector<std::uint8_t> got;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    ASSERT_TRUE(wire::read_frame(sp.fd[1], got)) << "frame " << i;
    EXPECT_EQ(got, bodies[i]) << "frame " << i;
  }
  writer.join();
}

TEST(WireFuzz, ReadFrameRejectsTruncationAndOversizedHeaders) {
  util::Rng rng(2029);
  for (int iter = 0; iter < 100; ++iter) {
    SocketPair sp;
    ASSERT_GE(sp.fd[0], 0);
    std::vector<std::uint8_t> image;
    switch (iter % 3) {
      case 0: {  // body shorter than the header promises, then EOF
        const auto body = random_bytes(rng, 1 + below(rng, 2000));
        image = frame_image(static_cast<std::uint32_t>(body.size()), body);
        image.resize(4 + below(rng, body.size()));
        break;
      }
      case 1:  // a torn header (1-3 bytes), then EOF
        image = random_bytes(rng, 1 + below(rng, 3));
        break;
      default: {  // announced length past kMaxFrame: refused unread
        const std::uint64_t over =
            wire::kMaxFrame + 1 +
            below(rng, std::numeric_limits<std::uint32_t>::max() -
                           wire::kMaxFrame);
        image = frame_image(static_cast<std::uint32_t>(over),
                            random_bytes(rng, below(rng, 64)));
        break;
      }
    }
    write_split(sp.fd[0], image, rng);
    ::shutdown(sp.fd[0], SHUT_WR);
    std::vector<std::uint8_t> got;
    EXPECT_FALSE(wire::read_frame(sp.fd[1], got)) << "iter " << iter;
  }
}

TEST(WireFuzz, DecodeGetAcceptsExactlyTheWellFormedBodies) {
  util::Rng rng(2030);
  for (int iter = 0; iter < 2000; ++iter) {
    // Lengths cluster around the real GET size so near-misses are common.
    const std::size_t n = iter % 4 == 0
                              ? below(rng, 64)
                              : wire::kGetRequestSize - 2 + below(rng, 5);
    std::vector<std::uint8_t> body = random_bytes(rng, n);
    if (n > 0 && rng.uniform() < 0.5) body[0] = wire::kOpGet;
    wire::GetRequest req{7, 7, 7};
    const bool ok = wire::decode_get(body.data(), body.size(), req);
    const bool well_formed =
        n == wire::kGetRequestSize && body[0] == wire::kOpGet;
    ASSERT_EQ(ok, well_formed) << "iter " << iter << " n " << n;
    if (ok) {
      EXPECT_EQ(req.object, wire::get_u64(body.data() + 1));
      EXPECT_EQ(req.offset, wire::get_u64(body.data() + 9));
      EXPECT_EQ(req.length, wire::get_u64(body.data() + 17));
    }
  }
}

// ---------------------------------------------------------------- daemon

int connect_loopback(std::uint16_t port) {
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
  // Header and body go out as two writes; without TCP_NODELAY each
  // exchange waits out a delayed ACK.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // A daemon that never answers fails the test instead of hanging it.
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return fd;
}

/// A GET field drawn to hit the range checks' edges: in range, at the
/// end, one past it, and near the top of the u64 space (where a naive
/// offset + length overflows).
std::uint64_t edge_value(util::Rng& rng, std::uint64_t size) {
  switch (below(rng, 6)) {
    case 0: return 0;
    case 1: return below(rng, size + 1);
    case 2: return size;
    case 3: return size + 1;
    case 4: return kMaxU64 - below(rng, 4);
    default: return rng.engine()();  // anywhere in the u64 space
  }
}

TEST(WireFuzz, DaemonAnswersEveryHostileFrameAndStaysConsistent) {
  ServiceConfig config;
  config.objects = 64;
  config.seed = 11;
  config.cache_fraction = 0.1;
  ServiceEngine engine(config);
  ProxyDaemon daemon(engine);
  daemon.start();
  const int fd = connect_loopback(daemon.port());
  ASSERT_GE(fd, 0);

  util::Rng rng(2031);
  const std::uint64_t n_objects = engine.catalog().size();
  std::vector<std::uint8_t> body;
  std::vector<std::uint8_t> reply;
  std::size_t served = 0;
  for (int iter = 0; iter < 400; ++iter) {
    body.clear();
    // Expected reply: a lone status byte, or a kOk GET of `ok_length`
    // payload bytes, or a kOk STATS/AUDIT JSON body (any length).
    std::uint8_t expect_status = wire::kBadRequest;
    std::uint64_t ok_length = 0;
    bool json = false;
    if (iter % 2 == 0) {
      wire::GetRequest req;
      req.object = below(rng, 8) == 0 ? n_objects + below(rng, 4)
                                      : below(rng, n_objects);
      const std::uint64_t size =
          req.object < n_objects ? engine.object_size(req.object) : 4096;
      req.offset = edge_value(rng, size);
      req.length = below(rng, 4) == 0 ? edge_value(rng, wire::kMaxGetLength)
                                      : below(rng, 8192);
      wire::encode_get(body, req);
      if (req.object >= n_objects) {
        expect_status = wire::kBadObject;
      } else if (req.length > wire::kMaxGetLength || req.offset > size ||
                 size - req.offset < req.length) {
        expect_status = wire::kBadRange;
      } else {
        expect_status = wire::kOk;
        ok_length = req.length;
      }
    } else {
      // A random body: random opcode byte (mostly a real one) and a
      // random length, so wrong-size GET/STAT frames are common.
      body = random_bytes(rng, below(rng, 40));
      if (!body.empty() && rng.uniform() < 0.8) {
        body[0] = static_cast<std::uint8_t>(below(rng, 6));
      }
      if (!body.empty() &&
          (body[0] == wire::kOpStats || body[0] == wire::kOpAudit)) {
        expect_status = wire::kOk;
        json = true;
      } else if (!body.empty() && body[0] == wire::kOpGet &&
                 body.size() == wire::kGetRequestSize) {
        // Random fields; ids this large are never in the catalog.
        body[1 + 7] = 0xFF;
        expect_status = wire::kBadObject;
      } else if (!body.empty() && body[0] == wire::kOpStat &&
                 body.size() == wire::kStatRequestSize) {
        body[1 + 7] = 0xFF;
        expect_status = wire::kBadObject;
      }
    }
    ASSERT_TRUE(wire::write_frame(fd, body.data(), body.size()))
        << "iter " << iter << ": connection dropped";
    ASSERT_TRUE(wire::read_frame(fd, reply))
        << "iter " << iter << ": no well-formed reply frame";
    ASSERT_FALSE(reply.empty()) << "iter " << iter;
    ASSERT_EQ(reply[0], expect_status) << "iter " << iter;
    if (json) {
      ASSERT_GT(reply.size(), 1u) << "iter " << iter;
      EXPECT_EQ(reply[1], '{') << "iter " << iter;
    } else if (expect_status == wire::kOk) {
      ASSERT_EQ(reply.size(), wire::kGetResponseHeader + ok_length)
          << "iter " << iter;
      EXPECT_EQ(wire::get_u64(reply.data() + 1) +
                    wire::get_u64(reply.data() + 9),
                ok_length)
          << "iter " << iter;
      ++served;
    } else {
      EXPECT_EQ(reply.size(), 1u) << "iter " << iter;
    }
  }
  EXPECT_GT(served, 0u);

  // The same connection still answers, and the state audits clean.
  body.assign(1, wire::kOpAudit);
  ASSERT_TRUE(wire::write_frame(fd, body.data(), body.size()));
  ASSERT_TRUE(wire::read_frame(fd, reply));
  ASSERT_EQ(reply[0], wire::kOk);
  const std::string report(reply.begin() + 1, reply.end());
  EXPECT_NE(report.find("\"ok\": true"), std::string::npos) << report;
  ::close(fd);
  daemon.stop();
  EXPECT_TRUE(engine.audit().ok());
}

}  // namespace
}  // namespace sc::server
