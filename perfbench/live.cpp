// The live-daemon subcommands: `load` (open-loop generator against a
// running proxy_daemon) and `engine` (engine-direct replay of the same
// GET sequence, for the server's per-layer costs).
//
// Both derive one GET sequence from (seed, shape): request k goes to
// connection k % C, and every connection streams its own sessions — a
// Zipf-0.73 object, its prefix read in fixed-size ranges from offset 0
// up to a per-session byte budget, with early departure. That is the
// daemon's session boundary (a contiguous run of GETs for one object on
// one connection). The daemon configuration (corpus, policy, estimator,
// cache size) is live_config(), the one copy both the daemon's flags and
// the engine-direct replay come from.
#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "server/client.h"
#include "server/engine.h"
#include "server/payload.h"
#include "server/wire.h"
#include "stats/distributions.h"
#include "util/rng.h"

namespace pb {
namespace {

namespace wire = sc::server::wire;

/// Share of sessions that depart early, after a uniform 5-100% of
/// their byte budget.
constexpr double kDepart = 0.4;
constexpr double kZipfAlpha = 0.73;
/// The daemon runs on this host's loopback.
constexpr const char* kHost = "127.0.0.1";

/// The live workloads' daemon: pb, ewma, cache 2%, origin latency 0,
/// over a fixed 2000-object corpus (catalog seed 42). A --seed changes
/// the request sequence, not the corpus.
sc::server::ServiceConfig live_config() {
  sc::server::ServiceConfig c;
  c.objects = 2000;
  c.seed = 42;
  c.policy = "pb";
  c.estimator = "ewma";
  c.cache_fraction = 0.02;
  c.origin.latency_s = 0.0;
  return c;
}

/// Live load holds one persistent connection per CPU, and the
/// engine-direct replay serves them from as many threads.
std::size_t live_connections() {
  return std::max(1U, std::thread::hardware_concurrency());
}

struct LiveShape {
  std::uint64_t range = 1024;
  std::uint64_t session_bytes = 16 * 1024;
  std::uint64_t seed = 1;
};

LiveShape parse_shape(const Cli& cli) {
  LiveShape s;
  s.range = cli.get_count("range", s.range);
  s.session_bytes = cli.get_count("session-bytes", s.session_bytes);
  s.seed = cli.get_count("seed", s.seed);
  if (s.range == 0 || s.range > wire::kMaxGetLength || s.session_bytes == 0) {
    throw std::invalid_argument("bad --range / --session-bytes");
  }
  return s;
}

struct Get {
  std::uint64_t object;
  std::uint64_t offset;
  std::uint64_t length;
};

/// One connection's session stream.
class Sessions {
 public:
  Sessions(const sc::workload::Catalog& catalog,
           const sc::stats::ZipfLike& popularity, const LiveShape& shape,
           std::uint64_t seed)
      : catalog_(catalog), popularity_(popularity), shape_(shape), rng_(seed) {}

  Get next() {
    if (offset_ >= budget_) start();
    const std::uint64_t len = std::min(shape_.range, budget_ - offset_);
    const Get g{object_, offset_, len};
    offset_ += len;
    return g;
  }

 private:
  void start() {
    // Rank k is object k - 1, as in workload::TraceSampler.
    object_ = popularity_.sample(rng_) - 1;
    const auto size =
        static_cast<std::uint64_t>(catalog_.object(object_).size_bytes);
    budget_ = std::min(shape_.session_bytes, size);
    if (rng_.uniform() < kDepart) {
      budget_ = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(static_cast<double>(budget_) *
                                        rng_.uniform(0.05, 1.0)));
    }
    offset_ = 0;
  }

  const sc::workload::Catalog& catalog_;
  const sc::stats::ZipfLike& popularity_;
  LiveShape shape_;
  sc::util::Rng rng_;
  std::uint64_t object_ = 0;
  std::uint64_t offset_ = 0;
  std::uint64_t budget_ = 0;
};

sc::workload::Catalog live_catalog() {
  const sc::server::ServiceConfig c = live_config();
  return sc::server::ServiceEngine::make_catalog(c.objects, c.seed);
}

std::vector<Sessions> make_sessions(const sc::workload::Catalog& catalog,
                                    const sc::stats::ZipfLike& popularity,
                                    const LiveShape& shape, std::size_t conns) {
  std::vector<Sessions> out;
  sc::util::Rng seeder(shape.seed);
  for (std::size_t c = 0; c < conns; ++c) {
    out.emplace_back(catalog, popularity, shape,
                     seeder.fork("conn-" + std::to_string(c)).seed());
  }
  return out;
}

/// §3.3 immediate-playout quality of one reply, recovered from the
/// reply's own fields: with T = L / r, a positive delay d means
/// d = (L - T b - x) / b, so b = (L - x) / (d + T) and
/// Q = (T b + x) / L; zero delay means full quality.
double reply_quality(double length, double bitrate, double cached,
                     double delay_s) {
  if (delay_s <= 0.0 || length <= 0.0) return 1.0;
  const double t = length / bitrate;
  const double b = (length - cached) / (delay_s + t);
  return std::min(1.0, (t * b + cached) / length);
}

// ------------------------------------------------------------ /proc

struct ProcSample {
  double cpu_s = 0.0;
  double vol_ctx = 0.0;
  double invol_ctx = 0.0;
  double threads = 0.0;
  double vm_hwm_kb = 0.0;
};

double status_field(const std::string& path, const char* key) {
  std::ifstream f(path);
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, n, key) == 0) return std::stod(line.substr(n + 1));
  }
  return 0.0;
}

/// The daemon's counters, read from outside through /proc/<pid>:
/// utime+stime of the whole process, context switches summed over its
/// live threads, thread count and peak resident set.
ProcSample sample_proc(long pid) {
  ProcSample s;
  if (pid <= 0) return s;
  const std::string base = "/proc/" + std::to_string(pid);
  {
    std::ifstream f(base + "/stat");
    std::string text((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = text.rfind(')');
    if (close != std::string::npos) {
      std::istringstream rest(text.substr(close + 2));
      std::vector<std::string> fields;
      std::string tok;
      while (rest >> tok) fields.push_back(tok);
      // Fields after the command: state is index 0, utime 11, stime 12.
      if (fields.size() > 12) {
        const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
        s.cpu_s = (std::stod(fields[11]) + std::stod(fields[12])) / hz;
      }
    }
  }
  s.threads = status_field(base + "/status", "Threads:");
  s.vm_hwm_kb = status_field(base + "/status", "VmHWM:");
  if (DIR* d = opendir((base + "/task").c_str())) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] == '.') continue;
      const std::string st = base + "/task/" + e->d_name + "/status";
      s.vol_ctx += status_field(st, "voluntary_ctxt_switches:");
      s.invol_ctx += status_field(st, "nonvoluntary_ctxt_switches:");
    }
    closedir(d);
  }
  return s;
}

void proc_json(Json& j, const char* key, const ProcSample& s) {
  j.begin_object(key)
      .num("cpu_s", s.cpu_s)
      .num("vol_ctx", s.vol_ctx)
      .num("invol_ctx", s.invol_ctx)
      .num("threads", s.threads)
      .num("vm_hwm_kb", s.vm_hwm_kb)
      .end_object();
}

// ------------------------------------------------------------ generator

struct Pending {
  std::uint64_t k;
  Get get;
  std::int64_t due;
  std::int64_t sent;
  std::size_t frame_end;  // out-buffer offset just past this frame
};

struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  std::vector<std::uint8_t> in;
  std::size_t in_pos = 0;  // start of the first unparsed byte
  std::size_t in_len = 0;  // end of received bytes
  std::deque<Pending> pending;
  std::size_t unsent = 0;  // pending entries whose frame is not fully written
};

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, kHost, &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Phase {
  std::string name;
  double rate = 0.0;
  double seconds = 0.0;
};

/// "name:rate:seconds,..." in run order.
std::vector<Phase> parse_phases(const std::string& text) {
  std::vector<Phase> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    Phase p;
    const auto a = item.find(':');
    const auto b = item.rfind(':');
    if (a == std::string::npos || a == b) {
      throw std::invalid_argument("bad phase " + item);
    }
    p.name = item.substr(0, a);
    p.rate = std::stod(item.substr(a + 1, b - a - 1));
    p.seconds = std::stod(item.substr(b + 1));
    if (p.rate <= 0 || p.seconds <= 0) {
      throw std::invalid_argument("bad phase " + item);
    }
    out.push_back(p);
  }
  if (out.empty()) throw std::invalid_argument("no --phases");
  return out;
}

/// Per-phase tallies of replies.
struct Tally {
  std::uint64_t gets = 0;
  std::uint64_t failures = 0;
  std::uint64_t hits = 0;
  std::uint64_t verified = 0;
  double cache_bytes = 0.0;
  double origin_bytes = 0.0;
  double requested_bytes = 0.0;
  double delay_sum = 0.0;
  double quality_sum = 0.0;
  std::vector<float> latency_us;  // receive time - due time
  std::vector<float> late_us;     // send time - due time
  std::vector<float> rtt_us;      // receive time - send time
};

/// Waits longer than this sleep in ppoll; shorter ones spin.
constexpr std::int64_t kSleepNs = 2'000'000;

/// Single-threaded open-loop generator over persistent connections.
/// Requests are due at fixed spacing (rate R: request i of a phase is
/// due at start + i / R) whatever the daemon does; several requests may
/// be in flight on one connection (the protocol answers in order).
class Generator {
 public:
  explicit Generator(const Cli& cli)
      : shape_(parse_shape(cli)),
        catalog_(live_catalog()),
        popularity_(catalog_.size(), kZipfAlpha),
        verify_every_(std::max<std::size_t>(1, cli.get_count("verify-every", 1))),
        pid_(static_cast<long>(cli.get_count("pid", 0))),
        traced_phase_(cli.get_or("trace-phase", std::string())),
        rec_(!cli.get_or("spans", std::string()).empty()) {
    const std::size_t nconn = live_connections();
    sessions_ = make_sessions(catalog_, popularity_, shape_, nconn);
    conns_.resize(nconn);
    for (Conn& c : conns_) {
      c.fd = connect_to(static_cast<int>(cli.get_count("port", 0)));
      c.in.resize(2 * (wire::kMaxFrame + 4));
    }
    fds_.resize(nconn);
    expected_.resize(wire::kMaxGetLength);
    body_.reserve(wire::kGetRequestSize);
    samples_ = std::fopen(cli.get_or("samples", std::string()).c_str(), "wb");
    if (samples_ == nullptr) throw std::runtime_error("cannot open --samples");
  }

  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (samples_ != nullptr) std::fclose(samples_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Runs one phase; false when the daemon could not drain its backlog
  /// in time (the remaining phases are skipped).
  bool run_phase(const Phase& p, std::size_t index, Json& j) {
    Tally t;
    const bool traced = p.name == traced_phase_;
    const auto n = static_cast<std::uint64_t>(p.rate * p.seconds);
    const double gap_ns = 1e9 / p.rate;
    const ProcSample proc0 = sample_proc(pid_);
    const std::uint64_t backlog_start = outstanding();
    const std::int64_t t0 = now_ns();
    auto due_of = [&](std::uint64_t i) {
      return t0 + static_cast<std::int64_t>(static_cast<double>(i) * gap_ns);
    };
    // An overloaded step may leave a long queue; every reply is still
    // awaited (the accounting checks count them) unless the daemon stalls.
    const auto drain_limit_ns =
        static_cast<std::int64_t>(std::max(5.0, 4.0 * p.seconds) * 1e9);
    std::int64_t busy_ns = 0;
    std::uint64_t issued = 0;
    std::uint64_t backlog_end = 0;
    std::int64_t send_end = -1;
    bool drained = true;
    for (;;) {
      const std::int64_t busy0 = now_ns();
      while (issued < n && due_of(issued) <= busy0) issue(due_of(issued++));
      flush_all();
      const std::int64_t now = now_ns();
      if (send_end < 0 && issued == n && unsent_total() == 0) {
        send_end = now;
        backlog_end = outstanding();
      }
      if (send_end >= 0 && outstanding() == 0) break;
      if (send_end >= 0 && now - send_end > drain_limit_ns) {
        drained = false;
        break;
      }
      // Spin (poll without sleeping) unless the next request is far off:
      // a sleeping vCPU can take milliseconds to be woken, which would
      // show up as generator lateness rather than daemon latency.
      const std::int64_t wait_ns =
          issued < n ? std::max<std::int64_t>(0, due_of(issued) - now) : 0;
      busy_ns += now - busy0;
      wait(wait_ns > kSleepNs ? wait_ns - kSleepNs / 2 : 0);
      const std::int64_t busy1 = now_ns();
      receive_all(t, traced);
      busy_ns += now_ns() - busy1;
    }
    const std::int64_t t1 = now_ns();
    const ProcSample proc1 = sample_proc(pid_);

    j.begin_object()
        .str("name", p.name)
        .num("rate", p.rate)
        .num("seconds", p.seconds)
        .integer("issued", static_cast<long long>(issued))
        .integer("gets", static_cast<long long>(t.gets))
        .integer("failures", static_cast<long long>(t.failures))
        .integer("hits", static_cast<long long>(t.hits))
        .integer("verified", static_cast<long long>(t.verified))
        .num("cache_bytes", t.cache_bytes)
        .num("origin_bytes", t.origin_bytes)
        .num("requested_bytes", t.requested_bytes)
        .num("delay_sum", t.delay_sum)
        .num("quality_sum", t.quality_sum)
        .num("busy_share",
             static_cast<double>(busy_ns) /
                 static_cast<double>(std::max<std::int64_t>(1, t1 - t0)))
        .num("wall_s", static_cast<double>(t1 - t0) * 1e-9)
        .integer("backlog_start", static_cast<long long>(backlog_start))
        .integer("backlog_end", static_cast<long long>(backlog_end))
        .boolean("drained", drained);
    proc_json(j, "proc_start", proc0);
    proc_json(j, "proc_end", proc1);
    j.end_object();

    const std::uint32_t head[2] = {static_cast<std::uint32_t>(index),
                                   static_cast<std::uint32_t>(t.gets)};
    std::fwrite(head, sizeof head, 1, samples_);
    for (const auto* v : {&t.latency_us, &t.late_us, &t.rtt_us}) {
      std::fwrite(v->data(), sizeof(float), v->size(), samples_);
    }
    total_.gets += t.gets;
    total_.failures += t.failures;
    total_.cache_bytes += t.cache_bytes;
    total_.origin_bytes += t.origin_bytes;
    total_.requested_bytes += t.requested_bytes;
    total_.delay_sum += t.delay_sum;
    return drained;
  }

  [[nodiscard]] const Tally& total() const noexcept { return total_; }
  [[nodiscard]] const SpanRecorder& spans() const noexcept { return rec_; }

 private:
  void issue(std::int64_t due) {
    const std::size_t c = k_ % conns_.size();
    Conn& conn = conns_[c];
    const Get g = sessions_[c].next();
    body_.clear();
    wire::put_u32(body_, static_cast<std::uint32_t>(wire::kGetRequestSize));
    wire::encode_get(body_, wire::GetRequest{g.object, g.offset, g.length});
    if (conn.out_pos == conn.out.size()) {
      conn.out.clear();
      conn.out_pos = 0;
    }
    conn.out.insert(conn.out.end(), body_.begin(), body_.end());
    conn.pending.push_back(Pending{k_, g, due, 0, conn.out.size()});
    ++conn.unsent;
    ++k_;
  }

  void flush_all() {
    for (Conn& c : conns_) {
      while (c.out_pos < c.out.size()) {
        const ssize_t w = ::send(c.fd, c.out.data() + c.out_pos,
                                 c.out.size() - c.out_pos, MSG_NOSIGNAL);
        if (w < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          throw std::runtime_error("send failed: " +
                                   std::string(std::strerror(errno)));
        }
        c.out_pos += static_cast<std::size_t>(w);
      }
      if (c.unsent == 0) continue;
      // Frames are appended in order: the unsent ones are the newest.
      const std::int64_t now = now_ns();
      for (auto it = c.pending.end() - static_cast<long>(c.unsent);
           it != c.pending.end() && it->frame_end <= c.out_pos; ++it) {
        it->sent = now;
        --c.unsent;
      }
    }
  }

  void wait(std::int64_t ns) {
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds_[i].fd = conns_[i].fd;
      fds_[i].events = POLLIN;
      if (conns_[i].out_pos < conns_[i].out.size()) fds_[i].events |= POLLOUT;
      fds_[i].revents = 0;
    }
    const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                      static_cast<long>(ns % 1'000'000'000)};
    if (::ppoll(fds_.data(), fds_.size(), &ts, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll failed");
    }
  }

  void receive_all(Tally& t, bool traced) {
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if ((fds_[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& c = conns_[i];
      const ssize_t r =
          ::recv(c.fd, c.in.data() + c.in_len, c.in.size() - c.in_len, 0);
      if (r < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
        throw std::runtime_error("recv failed");
      }
      if (r == 0) throw std::runtime_error("daemon closed a connection");
      c.in_len += static_cast<std::size_t>(r);
      const std::int64_t now = now_ns();
      while (c.in_len - c.in_pos >= 4) {
        const std::uint32_t len = wire::get_u32(c.in.data() + c.in_pos);
        if (len == 0 || len > wire::kMaxFrame) {
          throw std::runtime_error("bad frame length");
        }
        if (c.in_len - c.in_pos - 4 < len) break;
        if (c.pending.empty()) throw std::runtime_error("unexpected reply");
        const Pending p = c.pending.front();
        c.pending.pop_front();
        reply(t, p, c.in.data() + c.in_pos + 4, len, now, traced);
        c.in_pos += 4 + len;
      }
      // Compact only when the tail could not take another whole frame.
      if (c.in_pos == c.in_len) {
        c.in_pos = c.in_len = 0;
      } else if (c.in.size() - c.in_len < wire::kMaxFrame + 4) {
        std::memmove(c.in.data(), c.in.data() + c.in_pos, c.in_len - c.in_pos);
        c.in_len -= c.in_pos;
        c.in_pos = 0;
      }
    }
  }

  void reply(Tally& t, const Pending& p, const std::uint8_t* body,
             std::size_t len, std::int64_t now, bool traced) {
    ++t.gets;
    const std::int64_t sent = p.sent > 0 ? p.sent : now;
    t.latency_us.push_back(static_cast<float>(static_cast<double>(now - p.due) * 1e-3));
    t.late_us.push_back(static_cast<float>(static_cast<double>(sent - p.due) * 1e-3));
    t.rtt_us.push_back(static_cast<float>(static_cast<double>(now - sent) * 1e-3));
    if (traced) {
      const auto req = static_cast<std::int64_t>(p.k);
      const std::int64_t root = rec_.add("get", -1, req, p.due, now);
      rec_.add("gen.queue", root, req, p.due, sent);
      rec_.add("rtt", root, req, sent, now);
    }
    if (body[0] != wire::kOk || len != wire::kGetResponseHeader + p.get.length) {
      ++t.failures;
      return;
    }
    const std::uint64_t cache = wire::get_u64(body + 1);
    const std::uint64_t origin = wire::get_u64(body + 9);
    const double delay = wire::get_f64(body + 17);
    if (cache + origin != p.get.length) {
      ++t.failures;
      return;
    }
    // A fixed seeded sample (every reply when verify_every_ == 1).
    if (sc::server::mix64(shape_.seed ^ p.k) % verify_every_ == 0) {
      sc::server::fill_payload(p.get.object, p.get.offset, expected_.data(),
                               p.get.length);
      ++t.verified;
      if (std::memcmp(expected_.data(), body + wire::kGetResponseHeader,
                      p.get.length) != 0) {
        ++t.failures;
        return;
      }
    }
    if (cache > 0) ++t.hits;
    t.cache_bytes += static_cast<double>(cache);
    t.origin_bytes += static_cast<double>(origin);
    t.requested_bytes += static_cast<double>(p.get.length);
    t.delay_sum += delay;
    t.quality_sum += reply_quality(static_cast<double>(p.get.length),
                                   catalog_.object(p.get.object).bitrate,
                                   static_cast<double>(cache), delay);
  }

  [[nodiscard]] std::uint64_t outstanding() const {
    std::uint64_t n = 0;
    for (const Conn& c : conns_) n += c.pending.size();
    return n;
  }
  [[nodiscard]] std::uint64_t unsent_total() const {
    std::uint64_t n = 0;
    for (const Conn& c : conns_) n += c.unsent;
    return n;
  }

  LiveShape shape_;
  sc::workload::Catalog catalog_;
  sc::stats::ZipfLike popularity_;
  std::uint64_t verify_every_;
  long pid_;
  std::string traced_phase_;
  SpanRecorder rec_;
  std::vector<Sessions> sessions_;
  std::vector<Conn> conns_;
  std::vector<pollfd> fds_;
  std::vector<std::uint8_t> expected_;
  std::vector<std::uint8_t> body_;
  std::uint64_t k_ = 0;
  Tally total_;
  std::FILE* samples_ = nullptr;
};

}  // namespace

int run_load(const Cli& cli) {
  cli.check_unknown({"port", "pid", "seed", "range", "session-bytes",
                     "verify-every", "samples", "phases", "trace-phase",
                     "spans"});
  const std::vector<Phase> phases =
      parse_phases(cli.get_or("phases", std::string()));
  const auto port = static_cast<std::uint16_t>(cli.get_count("port", 0));
  auto stats = [&] { return sc::server::ProxyClient(kHost, port).stats(); };
  const std::string stats_before = stats();

  Json j;
  j.begin_object().begin_array("phases");
  Tally total;
  {
    Generator gen(cli);
    for (std::size_t i = 0; i < phases.size(); ++i) {
      if (!gen.run_phase(phases[i], i, j)) break;
    }
    total = gen.total();
    gen.spans().write(cli.get_or("spans", std::string()));
  }  // connections close here, ending the daemon's sessions
  j.end_array();
  const std::string stats_after = stats();
  j.integer("connections", static_cast<long long>(live_connections()))
      .integer("gets", static_cast<long long>(total.gets))
      .integer("failures", static_cast<long long>(total.failures))
      .num("cache_bytes", total.cache_bytes)
      .num("origin_bytes", total.origin_bytes)
      .num("requested_bytes", total.requested_bytes)
      .num("delay_sum", total.delay_sum)
      .raw("stats_before", stats_before)
      .raw("stats_after", stats_after)
      .end_object()
      .print();
  return 0;
}

int run_stats(const Cli& cli) {
  cli.check_unknown({"port"});
  const auto port = static_cast<std::uint16_t>(cli.get_count("port", 0));
  std::printf("%s\n", sc::server::ProxyClient(kHost, port).stats().c_str());
  return 0;
}

std::vector<std::string> daemon_args() {
  const sc::server::ServiceConfig c = live_config();
  auto num = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  return {"--policy=" + c.policy,
          "--estimator=" + c.estimator,
          "--cache=" + num(c.cache_fraction),
          "--objects=" + std::to_string(c.objects),
          "--seed=" + std::to_string(c.seed),
          "--origin-latency-ms=" + num(c.origin.latency_s * 1e3)};
}

// ------------------------------------------------------------ engine

namespace {

/// One GET of the sequence with the connection that issues it.
struct SeqGet {
  std::size_t conn;
  Get get;
};

std::vector<SeqGet> make_sequence(const sc::workload::Catalog& catalog,
                                  const LiveShape& shape, std::size_t conns,
                                  std::size_t n) {
  const sc::stats::ZipfLike popularity(catalog.size(), kZipfAlpha);
  std::vector<Sessions> sessions =
      make_sessions(catalog, popularity, shape, conns);
  std::vector<SeqGet> seq;
  seq.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    seq.push_back(SeqGet{k % conns, sessions[k % conns].next()});
  }
  return seq;
}

/// Per-connection daemon session bookkeeping, as in ProxyDaemon: a GET
/// for another object ends the connection's current session.
struct SessionState {
  bool streaming = false;
  std::uint64_t object = 0;
  std::uint64_t high_water = 0;
};

struct ReplayTotals {
  double wall_s = 0.0;
  std::uint64_t sessions_ended = 0;
  std::uint64_t failures = 0;
  double bytes = 0.0;
};

/// The daemon's per-GET work, called directly: decode the request
/// frame, serve_range, end the previous session when the object changes,
/// encode the reply header and fill the payload. With `rec` enabled
/// every call gets its own span under one root span per GET. Building
/// the request frame is the client's work and is not timed.
ReplayTotals replay_engine(sc::server::ServiceEngine& engine,
                           const std::vector<SeqGet>& seq, std::size_t conns,
                           SpanRecorder& rec) {
  std::vector<SessionState> state(conns);
  std::vector<std::uint8_t> req;
  std::vector<std::uint8_t> reply;
  req.reserve(wire::kGetRequestSize);
  reply.reserve(wire::kGetResponseHeader + wire::kMaxGetLength);
  ReplayTotals r;
  const std::int64_t t0 = now_ns();
  for (std::size_t k = 0; k < seq.size(); ++k) {
    const SeqGet& s = seq[k];
    const auto id = static_cast<std::int64_t>(k);
    req.clear();
    wire::encode_get(req, wire::GetRequest{s.get.object, s.get.offset,
                                           s.get.length});
    const std::int64_t root = rec.open("request", -1, id);
    wire::GetRequest g;
    {
      Scoped sp(rec, "wire.decode", root, id);
      if (!wire::decode_get(req.data(), req.size(), g)) ++r.failures;
    }
    sc::server::ServeResult res;
    {
      Scoped sp(rec, "engine.serve_range", root, id);
      res = engine.serve_range(g.object, g.offset, g.length);
    }
    if (res.status != wire::kOk ||
        res.cache_bytes + res.origin_bytes != g.length) {
      ++r.failures;
      rec.close(root);
      continue;
    }
    SessionState& st = state[s.conn];
    if (st.streaming && st.object != g.object) {
      Scoped sp(rec, "engine.end_session", root, id);
      engine.end_session(st.object, st.high_water);
      st.high_water = 0;
      ++r.sessions_ended;
    }
    st.streaming = true;
    st.object = g.object;
    st.high_water = std::max(st.high_water, g.offset + g.length);
    {
      Scoped sp(rec, "wire.encode", root, id);
      reply.clear();
      reply.push_back(wire::kOk);
      wire::put_u64(reply, res.cache_bytes);
      wire::put_u64(reply, res.origin_bytes);
      wire::put_f64(reply, res.delay_s);
    }
    {
      Scoped sp(rec, "payload.fill", root, id);
      const std::size_t header = reply.size();
      reply.resize(header + g.length);
      sc::server::fill_payload(g.object, g.offset, reply.data() + header,
                               g.length);
    }
    r.bytes += static_cast<double>(g.length);
    rec.close(root);
  }
  r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return r;
}

}  // namespace

int run_engine(const Cli& cli) {
  cli.check_unknown({"seed", "range", "session-bytes", "requests", "spans"});
  const LiveShape shape = parse_shape(cli);
  const std::size_t conns = live_connections();
  const std::size_t threads = conns;
  const std::size_t n = cli.get_count("requests", 20000);
  const sc::server::ServiceConfig cfg = live_config();
  const sc::workload::Catalog catalog = live_catalog();
  const std::vector<SeqGet> seq = make_sequence(catalog, shape, conns, n);

  // 1 thread: untraced, then traced, each on a fresh engine.
  SpanRecorder off(false);
  SpanRecorder on(true);
  ReplayTotals untraced;
  ReplayTotals traced;
  {
    sc::server::ServiceEngine engine(cfg);
    untraced = replay_engine(engine, seq, conns, off);
  }
  {
    sc::server::ServiceEngine engine(cfg);
    traced = replay_engine(engine, seq, conns, on);
  }

  // `threads` threads against one engine, each owning the connections
  // c with c % threads == its index: serve_range time here is lock hold
  // plus lock wait.
  std::vector<std::int64_t> serve_ns(threads, 0);
  std::vector<std::int64_t> serve_calls(threads, 0);
  std::vector<std::uint64_t> failures(threads, 0);
  {
    sc::server::ServiceEngine engine(cfg);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (const SeqGet& s : seq) {
          if (s.conn % threads != t) continue;
          const std::int64_t a = now_ns();
          const auto res =
              engine.serve_range(s.get.object, s.get.offset, s.get.length);
          serve_ns[t] += now_ns() - a;
          ++serve_calls[t];
          if (res.status != wire::kOk) ++failures[t];
        }
      });
    }
    for (std::thread& th : pool) th.join();
  }
  std::int64_t tn_ns = 0;
  std::int64_t tn_calls = 0;
  std::uint64_t tn_failures = 0;
  for (std::size_t t = 0; t < threads; ++t) {
    tn_ns += serve_ns[t];
    tn_calls += serve_calls[t];
    tn_failures += failures[t];
  }

  Json j;
  j.begin_object()
      .integer("requests", static_cast<long long>(seq.size()))
      .num("untraced_wall_s", untraced.wall_s)
      .num("traced_wall_s", traced.wall_s)
      .integer("sessions_ended", static_cast<long long>(traced.sessions_ended))
      .integer("failures", static_cast<long long>(untraced.failures +
                                                  traced.failures + tn_failures))
      .num("bytes", traced.bytes)
      .integer("threads", static_cast<long long>(threads))
      .num("tN_serve_ns_total", static_cast<double>(tn_ns))
      .integer("tN_calls", static_cast<long long>(tn_calls))
      .end_object()
      .print();
  on.write(cli.get_or("spans", std::string()));
  return 0;
}

}  // namespace pb
