// Shared pieces of the perfbench binary: a monotonic clock, the
// in-memory span recorder, the allocation counter and a JSON writer. Every subcommand prints exactly one JSON object on
// stdout; run.py turns those into the benchmark's metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.h"

namespace pb {

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One span: a named interval at a layer boundary. Spans of one request
/// (or one block of requests, for per-request work too small to time
/// alone) share `req`; `parent` links a span to the span that caused it
/// (-1 for a root). `calls` is how many calls into the layer the span
/// covers, so ns-per-call is self time / calls.
struct Span {
  std::int64_t id;
  std::int64_t parent;
  std::int64_t req;
  const char* name;
  std::int64_t t0;
  std::int64_t t1;
  std::int64_t calls;
};

/// Keeps spans in memory while the benchmark runs and writes them out at
/// the end. Disabled recorders read no clock and store nothing, which is
/// the untraced configuration the tracing overhead is measured against.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// A span name that lives as long as the recorder (span names are
  /// stored as pointers).
  const char* intern(const std::string& name) {
    return names_.insert(name).first->c_str();
  }

  /// Open a span; returns its id (or -1 when disabled).
  std::int64_t open(const char* name, std::int64_t parent, std::int64_t req) {
    if (!enabled_) return -1;
    const auto id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{id, parent, req, name, now_ns(), 0, 0});
    return id;
  }

  void close(std::int64_t id, std::int64_t calls = 1) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = now_ns();
    s.calls = calls;
  }

  /// Record an already-timed interval; returns its id (-1 if disabled).
  std::int64_t add(const char* name, std::int64_t parent, std::int64_t req,
                   std::int64_t t0, std::int64_t t1, std::int64_t calls = 1) {
    if (!enabled_) return -1;
    const auto id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{id, parent, req, name, t0, t1, calls});
    return id;
  }

  /// Write every span as one text line:
  /// `id parent req name t0_ns t1_ns calls`.
  void write(const std::string& path) const {
    if (!enabled_ || path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    for (const Span& s : spans_) {
      std::fprintf(f, "%lld %lld %lld %s %lld %lld %lld\n",
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.req), s.name,
                   static_cast<long long>(s.t0), static_cast<long long>(s.t1),
                   static_cast<long long>(s.calls));
    }
    std::fclose(f);
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::set<std::string> names_;
};

/// Times one span for the lifetime of the guard.
class Scoped {
 public:
  Scoped(SpanRecorder& rec, const char* name, std::int64_t parent,
         std::int64_t req)
      : rec_(rec), id_(rec.open(name, parent, req)) {}
  ~Scoped() { rec_.close(id_, calls_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  void set_calls(std::int64_t calls) noexcept { calls_ = calls; }

 private:
  SpanRecorder& rec_;
  std::int64_t id_;
  std::int64_t calls_ = 1;
};

/// Global operator new calls since process start (main.cpp replaces the
/// allocation functions to count them).
[[nodiscard]] std::uint64_t allocation_count();

/// Minimal streaming JSON writer (objects, arrays, numbers, strings).
/// Doubles print with 17 significant digits so bit-identical results
/// compare equal as text.
class Json {
 public:
  Json& begin_object(const char* key = nullptr) { return open(key, '{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array(const char* key = nullptr) { return open(key, '['); }
  Json& end_array() { return close(']'); }

  Json& num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& integer(const char* key, long long v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  Json& boolean(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& nums(const char* key, const std::vector<double>& vs) {
    begin_array(key);
    for (double v : vs) num(nullptr, v);
    return end_array();
  }

  /// Insert an already-serialized JSON value.
  Json& raw(const char* key, const std::string& v) {
    prefix(key);
    out_ += v;
    first_ = false;
    return *this;
  }

  [[nodiscard]] const std::string& text() const noexcept { return out_; }
  void print() const { std::printf("%s\n", out_.c_str()); }

 private:
  Json& open(const char* key, char bracket) {
    prefix(key);
    out_ += bracket;
    first_ = true;
    return *this;
  }
  Json& close(char bracket) {
    out_ += bracket;
    first_ = false;
    return *this;
  }
  void prefix(const char* key) {
    if (!first_) out_ += ", ";
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\": ";
    }
  }

  std::string out_;
  bool first_ = true;
};

using Cli = sc::util::Cli;

int run_grid(const Cli& cli);
int run_replay(const Cli& cli);
int run_load(const Cli& cli);
int run_engine(const Cli& cli);
int run_stats(const Cli& cli);

/// The live workloads' daemon configuration as `proxy_daemon` flags.
/// The engine-direct replay and the load generator's payload checks use
/// the same configuration, so run.py starts the daemon with these.
std::vector<std::string> daemon_args();

}  // namespace pb
