// perfbench: the repository benchmark's measurement binary. run.py
// builds it and calls one subcommand per measurement:
//
//   info    build fingerprint (compiler, build type, LTO) and the
//           live workloads' proxy_daemon flags
//   grid    a simulator/fleet sweep grid through core::SweepRunner
//   replay  the per-layer replay of a grid's request stream
//   load    the open-loop generator driving a live proxy_daemon
//   engine  engine-direct replay of a live workload's GET sequence
//   stats   one STATS request to a live proxy_daemon (readiness probe)
//
// Each prints one JSON object on stdout and exits non-zero on any error.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <string>

#include "common.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

std::uint64_t pb::allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

int main(int argc, char** argv) {
  std::string cmd;
  try {
    const pb::Cli cli(argc, argv);
    if (cli.positional().size() != 1) {
      std::fprintf(stderr, "usage: perfbench info|grid|replay|load|engine|"
                           "stats [--key value ...]\n");
      return 2;
    }
    cmd = cli.positional().front();
    if (cmd == "info") {
      cli.check_unknown({});
      pb::Json j;
      j.begin_object()
          .str("compiler", PB_COMPILER)
          .str("build_type", PB_BUILD_TYPE)
          .boolean("lto", PB_LTO != 0)
          .begin_array("daemon_args");
      for (const std::string& a : pb::daemon_args()) j.str(nullptr, a);
      j.end_array().end_object().print();
      return 0;
    }
    if (cmd == "grid") return pb::run_grid(cli);
    if (cmd == "replay") return pb::run_replay(cli);
    if (cmd == "load") return pb::run_load(cli);
    if (cmd == "engine") return pb::run_engine(cli);
    if (cmd == "stats") return pb::run_stats(cli);
    std::fprintf(stderr, "perfbench: unknown subcommand %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: error: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
