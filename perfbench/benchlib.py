"""Pure helpers of the repository benchmark (run.py), kept apart so they
can be unit-tested (test_benchlib.py): the percentile and sample-count
rule, span self time, the maximum-rate selection, the accounting-identity
checker and the host fingerprint."""

import hashlib
import math
import os
import statistics
import subprocess

# A tail percentile is reported only with at least this many samples
# beyond it.
MIN_BEYOND = 10


def tail(values, cap=0.99):
    """The highest percentile <= `cap` that has at least MIN_BEYOND
    samples beyond it (nearest rank), as (fraction, value, n).
    Returns (None, None, n) when there are too few samples."""
    n = len(values)
    if n <= MIN_BEYOND:
        return None, None, n
    q = min(cap, (n - MIN_BEYOND) / n)
    rank = math.ceil(q * n - 1e-9)  # 1-based nearest rank, <= n - MIN_BEYOND
    return q, sorted(values)[rank - 1], n


def median(values):
    return statistics.median(values) if values else None


def self_times(spans):
    """Per span name: (total self time, total calls). A span's self time
    is its duration minus the part of its interval covered by its
    children; overlapping children are counted once (interval union),
    and a child sticking out of its parent is clipped to the parent.

    `spans` is an iterable of dicts with id, parent, name, t0, t1, calls.
    """
    spans = list(spans)
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    out = {}
    for s in spans:
        t0, t1 = s["t0"], s["t1"]
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(s["id"], ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        total, calls = out.get(s["name"], (0, 0))
        out[s["name"]] = (total + (t1 - t0) - covered, calls + s["calls"])
    return out


def read_spans(path):
    """Parse the `id parent req name t0 t1 calls` lines perfbench writes."""
    spans = []
    with open(path) as f:
        for line in f:
            i, p, r, name, t0, t1, calls = line.split()
            spans.append({"id": int(i), "parent": int(p), "req": int(r),
                          "name": name, "t0": int(t0), "t1": int(t1),
                          "calls": int(calls)})
    return spans


def windowed_tail(values, window=1000, max_windows=8, cap=0.99):
    """Median over consecutive windows of the windows' tail percentile.
    `values` are in arrival order; they are cut into equal windows of at
    least `window` samples (so each window supports a p99 under the
    sample-count rule), at most `max_windows` of them. A stall confined to
    one window moves one window's tail, not the median. Returns
    (fraction, value, windows) or (None, None, 0) when there are fewer
    than `window` samples."""
    k = min(max_windows, len(values) // window)
    if k == 0:
        return None, None, 0
    size = len(values) // k
    tails = [tail(values[i * size:(i + 1) * size], cap) for i in range(k)]
    return min(t[0] for t in tails), median([t[1] for t in tails]), k


def judge_step(step, limit_ms, late_share=0.25):
    """Classify one rate step of the open-loop generator.

    Invalid when the generator itself ran late (windowed p99 lateness
    against the schedule above `late_share` of the latency limit) or the
    sample cannot support a p99. A valid step passes when it has no
    failures, its backlog did not grow, and its windowed p99 latency (from
    each request's due time) is under the limit. The backlog is the
    requests sent or due but unanswered; it grew when, at the end of the
    step's sending, it exceeds its start value by more than the offered
    rate puts in flight within the latency limit (rate x limit).

    `step` has: rate, failures, backlog_start, backlog_end, drained,
    latency_ms and late_ms (lists in arrival order)."""
    q, p99, _ = windowed_tail(step["latency_ms"])
    _, late99, _ = windowed_tail(step["late_ms"])
    if q is None or q < 0.99:
        return "invalid", "too few samples for p99 (%d)" % len(step["latency_ms"])
    if late99 > late_share * limit_ms:
        return "invalid", "generator late: p99 lateness %.3f ms" % late99
    if step["failures"] > 0:
        return "fail", "%d failed GETs" % step["failures"]
    slack = step["rate"] * limit_ms * 1e-3
    if not step["drained"] or (step["backlog_end"] >
                               step["backlog_start"] + slack):
        return "fail", "backlog grew %d -> %d" % (step["backlog_start"],
                                                  step["backlog_end"])
    if p99 >= limit_ms:
        return "fail", "p99 %.3f ms over the %.3f ms limit" % (p99, limit_ms)
    return "pass", "p99 %.3f ms" % p99


def max_rate(probe, rates):
    """The highest of the fixed offered `rates` (ascending) whose step
    passes, found by bisection: `probe(rate)` runs one step and returns
    True when it passes. Assumes a step passing at a rate passes at every
    lower one; returns 0.0 when the lowest rate fails."""
    lo, hi = -1, len(rates)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(rates[mid]):
            lo = mid
        else:
            hi = mid
    return rates[lo] if lo >= 0 else 0.0


def check_accounting(client, before, after, tol=2e-6):
    """Accounting identities between what the client counted and the
    daemon's STATS counters (deltas between `before` and `after`).
    `client` has gets (successful GETs), cache_bytes, origin_bytes,
    requested_bytes and delay_sum. Returns a list of violations."""
    bad = []
    if client["cache_bytes"] + client["origin_bytes"] != client["requested_bytes"]:
        bad.append("cache + origin bytes %.0f != requested bytes %.0f" % (
            client["cache_bytes"] + client["origin_bytes"],
            client["requested_bytes"]))
    d_req = after["requests"] - before["requests"]
    if d_req != client["gets"]:
        bad.append("daemon counted %d GETs, client %d" % (d_req, client["gets"]))
    if before["requests"] == 0 and client["requested_bytes"] > 0:
        # STATS reports lifetime ratios; from a fresh daemon they must match
        # the client's totals to the printed precision.
        bhr = client["cache_bytes"] / client["requested_bytes"]
        if abs(after["byte_hit_ratio"] - bhr) > tol:
            bad.append("daemon byte hit ratio %.6f != client %.6f" % (
                after["byte_hit_ratio"], bhr))
        delay = client["delay_sum"] / client["gets"]
        if abs(after["mean_delay_s"] - delay) > tol * max(1.0, delay):
            bad.append("daemon mean delay %.6f != client %.6f" % (
                after["mean_delay_s"], delay))
    return bad


def source_digest(root):
    """sha256 over the repository's build inputs, identifying the code
    when no git metadata is available."""
    h = hashlib.sha256()
    paths = []
    for top in ("src", "apps"):
        for d, _, files in os.walk(os.path.join(root, top)):
            paths += [os.path.join(d, f) for f in files]
    paths.append(os.path.join(root, "CMakeLists.txt"))
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(root, build_info):
    """Host and build identity stamped on every record."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        # Only the checkout's own repository counts, not one enclosing it.
        git = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if (git.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(root)):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "compiler": build_info.get("compiler"),
            "build_type": build_info.get("build_type"),
            "lto": build_info.get("lto"), "git_commit": commit,
            "source_digest": source_digest(root)}
