#!/usr/bin/env python3
"""The repository benchmark: one command over the three consumers of the
paper's decision kernel — the simulator, the edge fleet and the live
proxy daemon.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run builds `perfbench` and
`proxy_daemon` (Release, the root project's own flags) into
$CARGO_TARGET_DIR or .bench_build. Prints a human-readable report, one
`record` line carrying the host fingerprint, and as the last line a JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics of the traced run with
--trace 1. Exits non-zero when any output check fails. See
perfbench/README.md for why each workload exists and what each metric
means.
"""

import argparse
import array
import json
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

NPROC = os.cpu_count() or 1

GRIDS = {
    # Requests per replication; every cell of a grid streams the same
    # trace per replication (perfbench runs eight replications).
    "paper-grid": {"shape": "paper", "requests": 250_000},
    "dynamic-grid": {"shape": "dynamic", "requests": 125_000},
}
LIVE = {
    "live-small": {"range": 1024, "session_bytes": 16 * 1024,
                   "nominal": 20_000, "limit_ms": 5.0, "verify_every": 1,
                   "ladder_from": 30_000, "ladder_steps": 31},
    "live-large": {"range": 256 * 1024, "session_bytes": 4 << 20,
                   "nominal": 2_000, "limit_ms": 20.0, "verify_every": 16,
                   "ladder_from": 3_000, "ladder_steps": 31},
}
# Daemon starts per live run; set-up time is their median. (`perfbench
# info` gives the daemon's flags, so they live in one place: live.cpp.)
SETUP_REPS = 5
# Share of a grid run's --seconds spent repeating the set-up grid (the
# same grid over a 2000-request trace); set-up time is the median.
GRID_SETUP_SHARE = 0.15

END_TO_END = [
    ("throughput_rps", "1/s"), ("p50_ms", "ms"), ("tail_ms", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("byte_hit_ratio", "ratio"),
    ("hit_ratio", "ratio"), ("startup_delay_s", "s"),
    ("stream_quality", "ratio"), ("success_rate", "ratio"),
]


class CheckFailed(Exception):
    pass


# ------------------------------------------------------------------ build

def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build perfbench + proxy_daemon; returns the
    build directory. Build output goes to stderr."""
    out = build_dir()
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(NPROC), "--target",
                    "perfbench", "proxy_daemon"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def perfbench(bdir, *args, timeout=170):
    """Run one perfbench subcommand and parse its JSON line."""
    cmd = [os.path.join(bdir, "perfbench")] + [str(a) for a in args]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if res.returncode != 0:
        raise CheckFailed("%s failed: %s" % (" ".join(cmd[1:3]),
                                             res.stderr.strip()))
    return json.loads(res.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------ grids

def run_grid(bdir, name, seed, budget_s, threads, requests, setup_budget_s=0,
             min_reps=3, max_reps=50):
    return perfbench(bdir, "grid", "--shape", GRIDS[name]["shape"],
                     "--seed", seed, "--requests", requests,
                     "--threads", threads,
                     "--budget-s", budget_s, "--setup-budget-s", setup_budget_s,
                     "--min-reps", min_reps, "--max-reps", max_reps)


def grid_checks(out):
    """Output checks on one grid run; returns a list of violations."""
    bad = []
    if not out["identical"]:
        bad.append("grid outcomes differ between repetitions")
    for fc in out["fleet_checks"]:
        if fc["per_proxy_sum"] != fc["aggregate"]:
            bad.append("%s: per-proxy requests sum to %d, aggregate %d" % (
                fc["fleet"], fc["per_proxy_sum"], fc["aggregate"]))
    for c in out["cells"]:
        for k in ("traffic_reduction", "hit_ratio", "quality"):
            if not 0.0 <= c[k] <= 1.0:
                bad.append("%s: %s = %r out of [0, 1]" % (c["label"], k, c[k]))
        if not c["delay_s"] >= 0.0:
            bad.append("%s: negative delay" % c["label"])
    return bad


def grid_outcomes(cells):
    """Grid outcomes weighted by measured requests: every cell streams the
    same trace with the same warm-up split, so the weights are equal."""
    mean = lambda k: statistics.fmean(c[k] for c in cells)  # noqa: E731
    return {"byte_hit_ratio": mean("traffic_reduction"),
            "hit_ratio": mean("hit_ratio"),
            "startup_delay_s": mean("delay_s"),
            "stream_quality": mean("quality")}


def grid_workload(bdir, name, seed, seconds):
    req = GRIDS[name]["requests"]
    out = run_grid(bdir, name, seed, (1 - GRID_SETUP_SHARE) * seconds, NPROC,
                   req, setup_budget_s=GRID_SETUP_SHARE * seconds)
    bad = grid_checks(out)
    rps = [r["requests"] / r["wall_s"] for r in out["reps"]]
    walls_ms = [w * 1e3 for r in out["reps"] for w in r["sim_wall_s"]]
    # The tail is the median over windows of at least four repetitions'
    # simulations, so a few simulations descheduled in one noisy period
    # move one window, not the figure.
    tq, tail, windows = benchlib.windowed_tail(
        walls_ms, window=min(len(walls_ms), 4 * len(out["reps"][0]["sim_wall_s"])))
    attempted = len(walls_ms) + len(out["fleet_checks"])
    m = {"throughput_rps": (benchlib.median(rps), len(rps),
                            "simulated requests/s over the whole grid, "
                            "%d threads" % NPROC),
         "p50_ms": (benchlib.median(walls_ms), len(walls_ms),
                    "per-simulation wall time"),
         "tail_ms": (tail, len(walls_ms), "per-simulation wall time, p%.1f, "
                     "median of %d windows" % (100 * tq, windows)),
         "setup_s": (benchlib.median(out["setup_s"]), len(out["setup_s"]),
                     "the grid over a 2000-request trace"),
         "peak_rss_mb": (out["peak_rss_mb"], 1, "benchmark process VmHWM")}
    for k, v in grid_outcomes(out["cells"]).items():
        m[k] = (v, len(out["cells"]), "request-weighted over the grid's cells")
    m["success_rate"] = (1.0 - len(bad) / attempted, attempted,
                         "1 - failed checks / simulations")
    report = ["grid %s: %d cells x %d replications x %d requests, "
              "%d repetitions" % (name, len(out["cells"]), out["runs"],
                                  req, len(out["reps"]))]
    return m, attempted, bad, report


# ------------------------------------------------------------------ live

class Daemon:
    """A proxy_daemon child process on an ephemeral loopback port."""

    def __init__(self, bdir, daemon_args):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [os.path.join(bdir, "repo", "proxy_daemon"), "--port=0"] +
            daemon_args,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.port = None
        for line in self.proc.stdout:
            if line.startswith("LISTENING "):
                self.port = int(line.split()[1])
                break
        try:
            if self.port is None:
                raise CheckFailed("proxy_daemon did not start")
            perfbench(bdir, "stats", "--port", self.port)
        except BaseException:
            self.stop()
            raise
        # Set-up time: spawn until the daemon answers its first frame.
        self.setup_s = time.perf_counter() - t0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def read_samples(path):
    """Per-phase (latency_ms, late_ms, rtt_ms) lists from `load`."""
    out = {}
    with open(path, "rb") as f:
        while True:
            head = f.read(8)
            if len(head) < 8:
                break
            idx, n = struct.unpack("<II", head)
            cols = []
            for _ in range(3):
                a = array.array("f")
                a.frombytes(f.read(4 * n))
                cols.append([v * 1e-3 for v in a])
            out[idx] = cols
    return out


class LiveRun:
    """Daemon set-up (SETUP_REPS spawns; the last one is measured) and the
    `load` calls against it. Client totals accumulate over every call so
    the accounting identities can be checked against the daemon's
    lifetime STATS at the end."""

    def __init__(self, bdir, name, seed, tmp):
        self.bdir, self.name, self.seed, self.tmp = bdir, name, seed, tmp
        self.cfg = LIVE[name]
        self.daemon_args = perfbench(bdir, "info")["daemon_args"]
        self.setup_s = []
        self.daemon = None
        self.calls = []

    def __enter__(self):
        for _ in range(SETUP_REPS):
            if self.daemon:
                self.daemon.stop()
                self.daemon = None
            self.daemon = Daemon(self.bdir, self.daemon_args)
            self.setup_s.append(self.daemon.setup_s)
        return self

    def __exit__(self, *exc):
        if self.daemon:
            self.daemon.stop()

    def load(self, phases, trace_phase=None, spans=None):
        cfg, d = self.cfg, self.daemon
        samples = os.path.join(self.tmp, "samples.bin")
        args = ["load", "--port", d.port, "--pid", d.proc.pid,
                "--seed", self.seed, "--range", cfg["range"],
                "--session-bytes", cfg["session_bytes"],
                "--verify-every", cfg["verify_every"],
                "--samples", samples,
                "--phases", ",".join("%s:%g:%g" % p for p in phases)]
        if trace_phase:
            args += ["--trace-phase", trace_phase, "--spans", spans]
        out = perfbench(self.bdir, *args)
        if d.proc.poll() is not None:
            raise CheckFailed("proxy_daemon exited during the run")
        per = read_samples(samples)
        for i, p in enumerate(out["phases"]):
            p["latency_ms"], p["late_ms"], p["rtt_ms"] = per.get(i, ([], [], []))
        self.calls.append(out)
        return out["phases"]

    def checks(self):
        """Failed GETs plus the client/daemon accounting identities."""
        c = self.calls
        failures = sum(o["failures"] for o in c)
        bad = []
        if failures:
            bad.append("%d GETs failed (status, byte split or payload)" %
                       failures)
        client = {"gets": sum(o["gets"] for o in c) - failures}
        for k in ("cache_bytes", "origin_bytes", "requested_bytes", "delay_sum"):
            client[k] = sum(o[k] for o in c)
        bad += benchlib.check_accounting(client, c[0]["stats_before"],
                                         c[-1]["stats_after"])
        return bad

    def attempted(self):
        return sum(o["gets"] for o in self.calls)

    def failures(self):
        return sum(o["failures"] for o in self.calls)


def proc_delta(p, key):
    return p["proc_end"][key] - p["proc_start"][key]


def phase_report(p, limit_ms):
    q, p99, k = benchlib.windowed_tail(p["latency_ms"])
    _, late99, _ = benchlib.windowed_tail(p["late_ms"])
    verdict, why = benchlib.judge_step(p, limit_ms)
    n = max(1, p["gets"])
    return ("  %-8s %8.0f/s n=%-7d p50=%.3fms p99(%d windows)=%s "
            "late99=%s busy=%.2f backlog %d->%d cpu=%.1fus/req "
            "ctx=%.2f/req %s (%s)" % (
                p["name"], p["rate"], p["gets"],
                benchlib.median(p["latency_ms"]) or 0, k,
                "%.3fms" % p99 if p99 is not None else "-",
                "%.3fms" % late99 if late99 is not None else "-",
                p["busy_share"], p["backlog_start"], p["backlog_end"],
                1e6 * proc_delta(p, "cpu_s") / n,
                (proc_delta(p, "vol_ctx") + proc_delta(p, "invol_ctx")) / n,
                verdict, why))


def phase_outcomes(p):
    n = max(1, p["gets"])
    return {"byte_hit_ratio": p["cache_bytes"] / max(1.0, p["requested_bytes"]),
            "hit_ratio": p["hits"] / n,
            "startup_delay_s": p["delay_sum"] / n,
            "stream_quality": p["quality_sum"] / n}


def live_workload(bdir, name, seed, seconds, tmp):
    cfg = LIVE[name]
    # Phase lengths as shares of --seconds: warm-up, the nominal-rate
    # measurement, then the bisection over the rate ladder (one step per
    # probe, about five probes).
    warm, nominal, probe_s = 0.12 * seconds, 0.3 * seconds, 0.09 * seconds
    with LiveRun(bdir, name, seed, tmp) as run:
        nom = run.load([("warm", cfg["nominal"], warm),
                        ("nominal", cfg["nominal"], nominal)])[1]
        steps = []

        def probe(rate):
            steps.append(run.load([("probe", rate, probe_s)])[0])
            return benchlib.judge_step(steps[-1], cfg["limit_ms"])[0] == "pass"

        top = benchlib.max_rate(probe, ladder(cfg))
        hwm_kb = steps[-1]["proc_end"]["vm_hwm_kb"]
    bad = run.checks()
    q, p99, k = benchlib.windowed_tail(nom["latency_ms"])
    attempted = run.attempted()
    m = {"throughput_rps": (top, len(steps),
                            "max_rate_rps: highest ladder rate with windowed "
                            "p99 < %g ms, no failures, no backlog growth"
                            % cfg["limit_ms"]),
         "p50_ms": (benchlib.median(nom["latency_ms"]), nom["gets"],
                    "from due time at %d/s" % cfg["nominal"]),
         "tail_ms": (p99, nom["gets"], "p%.0f from due time, median of %d "
                     "windows" % (100 * (q or 0), k)),
         "setup_s": (benchlib.median(run.setup_s), len(run.setup_s),
                     "daemon spawn to first STATS reply"),
         "peak_rss_mb": (hwm_kb / 1024.0, 1, "daemon VmHWM")}
    for key, v in phase_outcomes(nom).items():
        m[key] = (v, nom["gets"], "nominal phase replies")
    m["success_rate"] = (1.0 - run.failures() / max(1, attempted), attempted,
                         "1 - error_rate (failed GETs / attempted GETs)")
    verified = sum(p["verified"] for o in run.calls for p in o["phases"])
    report = ["live %s: %d connections, payload check %s (%d of %d replies "
              "byte-verified)" % (
                  name, run.calls[0]["connections"],
                  "all" if cfg["verify_every"] == 1 else
                  "seeded sample 1/%d" % cfg["verify_every"], verified,
                  attempted),
              "  error_rate %.6f (%d failed / %d attempted)" % (
                  run.failures() / max(1, attempted), run.failures(),
                  attempted)]
    report += [phase_report(p, cfg["limit_ms"])
               for o in run.calls for p in o["phases"]]
    verdict, why = benchlib.judge_step(nom, cfg["limit_ms"])
    if verdict == "invalid":
        report.append("NOTE: the nominal phase is invalid (%s); its latency "
                      "is not daemon latency" % why)
    return m, attempted, bad, report


def ladder(cfg):
    """The fixed offered rates of a live workload: 5% steps."""
    return [round(cfg["ladder_from"] * 1.05 ** i) for i in range(cfg["ladder_steps"])]


# ------------------------------------------------------------------ trace

def layer_ns(st, name, per=None):
    """Self ns per call of span `name` (or per `per` units)."""
    total, calls = st.get(name, (0, 0))
    div = per if per is not None else calls
    return total / div if div else float("nan")


def traced_run(bdir, workload, seed, seconds, tmp):
    """The per-layer attribution suite. Each layer is timed from the
    benchmark's own files, fed with the inputs of the workload it maps
    to; the named workload's family runs at full size, the others at a
    fifth of it."""
    lay = {}
    bad = []
    attempted = 0
    own_grid = workload if workload in GRIDS else "paper-grid"
    own_live = workload if workload in LIVE else "live-small"

    # Grids: the timed grid at nproc threads against the 1-thread traced
    # grid (outcomes must be identical), then the per-layer replay.
    for name in GRIDS:
        full = name == own_grid
        req = GRIDS[name]["requests"] // (1 if full else 5)
        par = run_grid(bdir, name, seed, 0, NPROC, req, min_reps=1, max_reps=1)
        ser = run_grid(bdir, name, seed, 0, 1, req, min_reps=1, max_reps=1)
        bad += grid_checks(par) + grid_checks(ser)
        if par["cells"] != ser["cells"]:
            bad.append("%s: %d-thread and 1-thread grid outcomes differ" % (
                name, NPROC))
        attempted += 2 * len(par["cells"])
        pr, sr = par["reps"][0], ser["reps"][0]
        if full:
            # The pool's slots (threads + 1: the calling thread joins)
            # run simulations side by side.
            lay["core.parallel_efficiency"] = (
                sum(pr["sim_wall_s"]) / (pr["wall_s"] * par["slots"]), "ratio")
            lay["core.serial_rps"] = (sr["requests"] / sr["wall_s"], "1/s")
            lay["alloc.per_req"] = (pr["allocations"] / pr["requests"], "count")
        per_cell = req
        if name == "dynamic-grid":
            # sim_wall_s is indexed cell * runs + replication.
            runs = ser["runs"]
            is_fleet = [ser["cell_is_fleet"][i // runs]
                        for i in range(len(sr["sim_wall_s"]))]
            fleet = [w for w, f in zip(sr["sim_wall_s"], is_fleet) if f]
            single = [w for w, f in zip(sr["sim_wall_s"], is_fleet) if not f]
            lay["fleet.ns_per_req"] = (1e9 * statistics.fmean(fleet) / per_cell, "ns")
            lay["sim.single_cell_ns_per_req"] = (
                1e9 * statistics.fmean(single) / per_cell, "ns")
            fc = [c for c in ser["cells"] if c["fleet"]]
            lay["fleet.load_imbalance"] = (
                statistics.fmean(c["load_imbalance"] for c in fc), "ratio")
            lay["fleet.uplink_utilization"] = (
                statistics.fmean(c["uplink_utilization"] for c in fc), "ratio")
            coop = [c for c in fc if "coop" in c["label"]]
            lay["fleet.peer_hit_ratio"] = (
                statistics.fmean(c["peer_hit_ratio"] for c in coop), "ratio")

        sp = os.path.join(tmp, "replay-%s.spans" % name)
        rp = perfbench(bdir, "replay", "--shape", GRIDS[name]["shape"],
                       "--seed", seed, "--requests", req * par["runs"],
                       "--spans", sp)
        st = benchlib.self_times(benchlib.read_spans(sp))
        reqs = sum(c["requests"] for c in rp["configs"])
        if full:
            u = sum(c["untraced_wall_s"] for c in rp["configs"])
            t = sum(c["traced_wall_s"] for c in rp["configs"])
            lay["trace.overhead_pct"] = (100.0 * (t - u) / u, "%")
        if name == "paper-grid":
            lay["workload.next_ns_per_req"] = (layer_ns(st, "workload.next", reqs), "ns")
            for c in rp["configs"]:
                lay["cache.on_access_ns." + c["policy"]] = (
                    layer_ns(st, "cache.on_access." + c["policy"]), "ns")
                if c["policy"] == "pb":
                    lay["cache.hits"] = (c["hits"], "count")
                    lay["cache.fill_bytes"] = (c["fill_bytes"], "bytes")
            lay["sim.deliver_ns_per_req"] = (layer_ns(st, "sim.deliver"), "ns")
            lay["sim.metrics_record_ns_per_req"] = (
                layer_ns(st, "sim.metrics_record"), "ns")
        else:
            for k in ("net.sample", "net.estimate", "net.observe",
                      "sim.events_schedule", "sim.events_run_until",
                      "sim.interactivity", "fleet.route"):
                lay[k + "_ns"] = (layer_ns(st, k), "ns")
            lay["sim.events_peak_depth"] = (
                max(c["peak_depth"] for c in rp["configs"]), "count")

    # Server, engine-direct: wire and engine costs on live-small's GET
    # sequence, payload fill on live-large's.
    eng = {}
    for name in LIVE:
        cfg = LIVE[name]
        n = 40_000 if cfg["range"] <= 4096 else 4_000
        if name != own_live:
            n //= 5
        sp = os.path.join(tmp, "engine-%s.spans" % name)
        e = perfbench(bdir, "engine", "--seed", seed, "--range", cfg["range"],
                      "--session-bytes", cfg["session_bytes"],
                      "--requests", n, "--spans", sp)
        if e["failures"]:
            bad.append("engine-direct %s: %d failed serves" % (name, e["failures"]))
        attempted += 3 * e["requests"]
        eng[name] = (e, benchlib.self_times(benchlib.read_spans(sp)))
    e, st = eng["live-small"]
    lay["server.wire.decode_ns"] = (layer_ns(st, "wire.decode", e["requests"]), "ns")
    lay["server.wire.encode_ns"] = (layer_ns(st, "wire.encode", e["requests"]), "ns")
    lay["server.engine.serve_ns.t1"] = (layer_ns(st, "engine.serve_range"), "ns")
    lay["server.engine.serve_ns.tN"] = (e["tN_serve_ns_total"] / e["tN_calls"], "ns")
    lay["server.engine.end_session_ns"] = (layer_ns(st, "engine.end_session"), "ns")
    el, stl = eng["live-large"]
    fill_ns, _ = stl.get("payload.fill", (0, 0))
    lay["server.payload.fill_ns_per_req"] = (fill_ns / el["requests"], "ns")
    lay["server.payload.fill_GBps"] = (el["bytes"] / fill_ns, "GB/s")

    # Live daemon: /proc counters and client RTT on the workload's own
    # live shape; a short run when the workload is a grid.
    cfg = LIVE[own_live]
    scale = seconds if workload in LIVE else seconds / 4
    phases = [("warm", cfg["nominal"], 0.15 * scale),
              ("nominal", cfg["nominal"], 0.3 * scale),
              ("traced", cfg["nominal"], 0.3 * scale)]
    sp = os.path.join(tmp, "live.spans")
    with LiveRun(bdir, own_live, seed, tmp) as run:
        _, nom, trc = run.load(phases, trace_phase="traced", spans=sp)
    bad += run.checks()
    attempted += run.attempted()
    n = max(1, nom["gets"])
    lay["server.daemon.cpu_us_per_req"] = (1e6 * proc_delta(nom, "cpu_s") / n, "us")
    lay["server.daemon.ctx_switches_per_req"] = (
        (proc_delta(nom, "vol_ctx") + proc_delta(nom, "invol_ctx")) / n, "count")
    lay["server.daemon.threads"] = (nom["proc_end"]["threads"], "count")
    st = benchlib.self_times(benchlib.read_spans(sp))
    rtt_us = 1e-3 * layer_ns(st, "rtt")
    e_own, st_own = eng[own_live]
    server_us = 1e-3 * (layer_ns(st_own, "engine.serve_range") +
                        layer_ns(st_own, "payload.fill") +
                        layer_ns(st_own, "wire.decode", e_own["requests"]) +
                        layer_ns(st_own, "wire.encode", e_own["requests"]))
    lay["server.transport_us"] = (rtt_us - server_us, "us")
    if workload in LIVE:
        p_u = benchlib.median(nom["latency_ms"])
        p_t = benchlib.median(trc["latency_ms"])
        lay["trace.overhead_pct"] = (100.0 * (p_t - p_u) / p_u, "%")
    return lay, attempted, bad


# ------------------------------------------------------------------ main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(list(GRIDS) + list(LIVE)))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    bdir = build()
    info = perfbench(bdir, "info")
    fp = benchlib.fingerprint(ROOT, info)

    tmp = tempfile.mkdtemp(prefix="run-", dir=bdir)
    try:
        if a.trace:
            lay, attempted, bad = traced_run(bdir, a.workload, a.seed,
                                             a.seconds, tmp)
            print("per-layer metrics (%s, traced run):" % a.workload)
            for k in sorted(lay):
                print("  %-40s %14.6g %s" % (k, lay[k][0], lay[k][1]))
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in lay.items()}
        else:
            if a.workload in GRIDS:
                m, attempted, bad, report = grid_workload(
                    bdir, a.workload, a.seed, a.seconds)
            else:
                m, attempted, bad, report = live_workload(
                    bdir, a.workload, a.seed, a.seconds, tmp)
            print("\n".join(report))
            print("end-to-end metrics (%s, seed %d):" % (a.workload, a.seed))
            units = dict(END_TO_END)
            for k, _ in END_TO_END:
                v, n, how = m[k]
                print("  %-16s %14.6g %-6s n=%-7d %s" % (k, v, units[k], n, how))
            metrics = {k: {"value": m[k][0], "unit": u} for k, u in END_TO_END}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for b in bad:
        print("CHECK FAILED: " + b)
    print(json.dumps({"record": {"workload": a.workload, "seed": a.seed,
                                 "seconds": a.seconds, "trace": a.trace,
                                 "host": fp}}))
    print(json.dumps({"correct": not bad, "attempted": int(attempted),
                      "failed": len(bad), "metrics": metrics}))
    return 1 if bad else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (CheckFailed, subprocess.SubprocessError, OSError, ValueError) as e:
        print("run.py: error: %s" % e, file=sys.stderr)
        sys.exit(1)
