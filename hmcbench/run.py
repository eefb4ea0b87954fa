#!/usr/bin/env python3
"""hmcbench: host-time benchmark of the hmcsim simulator.

Run from the root of a source checkout:

    python3 hmcbench/run.py --workload gups-hiload --seed 1 --seconds 30 --trace 0

It builds the simulator libraries, `hmcsim_cli` and the `hmcbench` binary
from source into $CARGO_TARGET_DIR (default .bench_build), runs one
workload, checks every output, prints each metric with its unit and
sample count, and ends with one JSON line:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
with no tracing; --trace 1 reports the per-layer metrics from a traced
pass (and an untraced pass of the same work, for the tracing overhead).
--workload all runs every workload in turn. --record-expected rewrites
expected.json for the default and held-out seeds. README.md in this
directory describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_JSON = os.path.join(HERE, "expected.json")

WORKLOADS = ("gups-hiload", "fleet-lowload", "serve-store")
# The seed work is tuned on, and one kept back for checking later claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2017
SELFCHECK_DIGEST = "e06b2b0e72a63a74"

# Work units. Every unit has a fixed size, so its counts and digests
# repeat exactly for a seed; a run repeats whole units for --seconds.
FLEET_CALLS = 40           # runFleet calls per hmcbench process
FLEET_TRACE_CALLS = 8      # one cycle of the fleet seeds
MIN_UNITS = 3
MIN_SETUPS = 21            # set-up samples per run (extra launches)
PROC_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure and build hmcsim_cli and hmcbench; return their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no simulator sources next to %s" % HERE)
    bdir = os.path.join(build_dir(), "hmcbench")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen,
        ["cmake", "--build", bdir, "-j", "2", "--target", "hmcsim_cli", "hmcbench"],
    ]
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            configured_here = "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE in f.read()
        if configured_here:
            steps = steps[1:]
        else:
            shutil.rmtree(bdir)
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             timeout=880)
        if res.returncode != 0:
            sys.stderr.write(res.stdout.decode(errors="replace")[-4000:])
            raise BenchError("build failed: %s" % " ".join(cmd))
    return os.path.join(bdir, "hmcsim_cli"), os.path.join(bdir, "hmcbench")


def launch(cmd):
    """Run one hmcbench process; return its last output line, parsed,
    with its exit code and set-up time added."""
    t_spawn = time.monotonic_ns()
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             timeout=PROC_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("timed out: %s" % " ".join(cmd)) from exc
    lines = res.stdout.decode(errors="replace").strip().splitlines()
    if not lines:
        sys.stderr.write(res.stderr.decode(errors="replace")[-2000:])
        raise BenchError("no output (exit %d): %s" % (res.returncode, " ".join(cmd)))
    out = json.loads(lines[-1])
    out["exit"] = res.returncode
    out["setup_s"] = (out["t_first_ns"] - t_spawn) / 1e9 if "t_first_ns" in out else None
    return out


def quantile(values, q):
    """Nearest-rank quantile of the pooled samples."""
    xs = sorted(values)
    return xs[min(len(xs) - 1, max(0, int(-(-q * len(xs) // 1)) - 1))]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

class Checks:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.run_ok = True

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def run_check(self, ok, what):
        """A check on the run as a whole (determinism, self-test)."""
        if not ok:
            self.run_ok = False
            self.notes.append(what)

    def determinism(self, ok, what):
        self.run_check(ok, "determinism break: " + what)


def load_expected():
    if not os.path.isfile(EXPECTED_JSON):
        return {}
    with open(EXPECTED_JSON) as f:
        return json.load(f)


def reference(workload, seed, observed, checks):
    """Compare @observed (name -> value) with the recorded values.

    The default and held-out seeds compare against expected.json. Any
    other seed compares against the first run of that seed in this
    checkout, kept in the build directory, so counts and digests must
    repeat across runs of one seed.
    """
    recorded = load_expected().get(str(seed), {}).get(workload)
    path = None
    if recorded is None:
        path = os.path.join(build_dir(), "hmcbench-ref", "%s-%d.json" % (workload, seed))
        recorded = {}
        if os.path.isfile(path):
            with open(path) as f:
                recorded = json.load(f)
    for key, value in observed.items():
        if key in recorded:
            checks.determinism(recorded[key] == value, "%s %s differs from seed %d's "
                               "recorded value" % (workload, key, seed))
    missing = {k: v for k, v in observed.items() if k not in recorded}
    if path and missing:
        recorded.update(missing)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = "%s.%d.tmp" % (path, os.getpid())
        with open(tmp, "w") as f:
            json.dump(recorded, f, sort_keys=True)
        os.replace(tmp, path)


def selfcheck(cli, checks):
    res = subprocess.run([cli, "--selfcheck"], stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, timeout=PROC_TIMEOUT_S)
    text = res.stdout.decode(errors="replace")
    want = "digests %s / %s" % (SELFCHECK_DIGEST, SELFCHECK_DIGEST)
    checks.op(res.returncode == 0 and want in text, "selfcheck digest")


def check_replies(replies, points, ref_lines):
    """Indices of serve replies that are not byte-equal to the in-process
    JSONL of their point."""
    return [i for i, (reply, p) in enumerate(zip(replies, points))
            if reply != ref_lines[p]]


def tamper_selftest(replies, points, ref_lines):
    """A reply with one byte changed must be counted as failed."""
    good = set(check_replies(replies, points, ref_lines))
    j = next((i for i in range(len(replies) // 2, len(replies)) if i not in good), None)
    if j is None:
        return False
    bad = list(replies)
    bad[j] = bad[j][:10] + ("0" if bad[j][10] != "0" else "1") + bad[j][11:]
    return set(check_replies(bad, points, ref_lines)) == good | {j}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def repeat(unit, seconds):
    """Run unit(k) for k = 0, 1, ... while another unit still fits in
    @seconds, and at least MIN_UNITS times."""
    out = []
    t0 = time.monotonic()
    while True:
        elapsed = time.monotonic() - t0
        if len(out) >= MIN_UNITS and elapsed * (len(out) + 1) / len(out) > seconds:
            return out
        out.append(unit(len(out)))


def setup_samples(reps, setup_only_cmd):
    """Set-up times of the timed launches, topped up to MIN_SETUPS with
    launches that stop at the first timed operation."""
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(launch(setup_only_cmd)["setup_s"])
    return setups


def gups_hiload(exe, cli, seed, seconds, trace, checks):
    base = [exe, "gups", "--seed", str(seed)]
    if trace:
        plain = launch(base)
        traced = launch(base + ["--trace"])
        for run in (plain, traced):
            checks.op(run["exit"] == 0, "gups process exit")
        for i, (a, b) in enumerate(zip(plain["digests"], traced["digests"])):
            checks.op(a == b, "gups point %d traced digest" % i)
        checks.op(plain["jsonl_fnv"] == traced["jsonl_fnv"], "gups traced JSONL")
        reference("gups-hiload", seed, {"digests": plain["digests"],
                                        "jsonl_fnv": plain["jsonl_fnv"],
                                        "trace_counts": traced["counts"]}, checks)
        return {"traced": traced, "untraced_wall_s": plain["wall_s"]}

    reps = repeat(lambda k: launch(base), seconds)
    setups = setup_samples(reps, base + ["--setup-only"])
    for rep in reps:
        checks.op(rep["exit"] == 0, "gups process exit")
        checks.determinism(rep["digests"] == reps[0]["digests"] and
                           rep["jsonl_fnv"] == reps[0]["jsonl_fnv"],
                           "gups repetitions differ")
    ref = reps[0]
    recorded = load_expected().get(str(seed), {}).get("gups-hiload", {})
    for rep in reps:
        want = recorded.get("digests", ref["digests"])
        for i, (a, b) in enumerate(zip(rep["digests"], want)):
            checks.op(a == b, "gups point %d stat digest" % i)
    reference("gups-hiload", seed, {"digests": ref["digests"],
                                    "jsonl_fnv": ref["jsonl_fnv"]}, checks)
    return {
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in reps],
        "sim_req_per_s": [r["requests"] / r["wall_s"] for r in reps],
        "op_ms": [r["op_ms"] for r in reps],
        "rss_kb": [r["rss_kb"] for r in reps],
    }


def fleet_lowload(exe, cli, seed, seconds, trace, checks):
    base = [exe, "fleet", "--seed", str(seed)]
    if trace:
        calls = ["--calls", str(FLEET_TRACE_CALLS)]
        plain = launch(base + calls)
        traced = launch(base + calls + ["--trace"])
        for run in (plain, traced):
            checks.op(run["exit"] == 0, "fleet process exit")
        for i, (a, b) in enumerate(zip(plain["digests"], traced["digests"])):
            checks.op(a == b, "fleet call %d traced stat_digest" % i)
        reference("fleet-lowload", seed, {"digests": plain["digests"],
                                          "trace_counts": traced["counts"]}, checks)
        return {"traced": traced, "untraced_wall_s": plain["wall_s"]}

    cmd = base + ["--calls", str(FLEET_CALLS)]
    reps = repeat(lambda k: launch(cmd), seconds)
    setups = setup_samples(reps, base + ["--setup-only"])
    cycle = reps[0]["digests"][:FLEET_TRACE_CALLS]
    recorded = load_expected().get(str(seed), {}).get("fleet-lowload", {})
    want = recorded.get("digests", cycle)
    for rep in reps:
        checks.op(rep["exit"] == 0, "fleet process exit")
        for i, d in enumerate(rep["digests"]):
            checks.op(d == want[i % len(want)], "fleet call %d stat_digest" % i)
    reference("fleet-lowload", seed, {"digests": cycle}, checks)
    return {
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in reps],
        "sim_req_per_s": [r["requests"] / r["wall_s"] for r in reps],
        "op_ms": [r["op_ms"] for r in reps],
        "rss_kb": [r["rss_kb"] for r in reps],
    }


def serve_store(exe, cli, seed, seconds, trace, checks):
    ref = launch([exe, "serve-ref", "--seed", str(seed)])
    ref_lines = ref["lines"]
    checks.op(ref["exit"] == 0, "serve reference")
    work = os.path.join(build_dir(), "serve-runs", "%d" % os.getpid())
    cmd = [exe, "serve", "--seed", str(seed), "--cli", cli]
    def round_(k):
        return launch(cmd + ["--dir", os.path.join(work, "round-%d" % k)] +
                      (["--trace"] if trace else []))

    try:
        rounds = [round_(0)] if trace else repeat(round_, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    selftest_ok = True
    for r in rounds:
        checks.op(r["exit"] == 0 and r["ok"] == 1, "serve session exit/0 failed")
        for i, reply in enumerate(r["publish_replies"]):
            checks.op(reply == ref_lines[i], "publish reply %d" % i)
        checks.op(r["probe_reply"] == ref_lines[0], "probe reply")
        points = [int(p) for p in r["session_points"]]
        bad = set(check_replies(r["replies"], points, ref_lines))
        for i in range(len(points)):
            checks.op(i not in bad, "serve reply %d" % i)
        checks.determinism(r["counts"] == r["want_counts"],
                           "serve counts %s != %s" % (r["counts"], r["want_counts"]))
        selftest_ok = selftest_ok and tamper_selftest(r["replies"], points, ref_lines)
    checks.run_check(selftest_ok, "self-test: a tampered serve reply was not counted as failed")
    observed = {"ref_sha256": hashlib.sha256("".join(ref_lines).encode()).hexdigest(),
                "counts": rounds[0]["counts"]}

    miss_points = set(int(p) for p in rounds[0]["session_points"]
                      if int(p) > rounds[0]["store_points"])
    miss_requests = sum(int(ref["requests"][p]) for p in miss_points)
    if trace:
        r = rounds[0]
        checks.op(r["traced_probe_reply"] == r["probe_reply"], "traced probe reply")
        for i, (a, b) in enumerate(zip(r["traced_replies"], r["replies"])):
            checks.op(a == b, "traced serve reply %d" % i)
        observed["trace_counts"] = r["trace_counts"]
        reference("serve-store", seed, observed, checks)
        return {"traced": {"layers": r["layers"], "wall_s": r["traced_wall_s"]},
                "untraced_wall_s": r["wall_s"]}

    reference("serve-store", seed, observed, checks)
    return {
        "setup_s": [r["setup_s"] for r in rounds],
        "wall_s": [r["wall_s"] for r in rounds],
        "sim_req_per_s": [miss_requests / r["wall_s"] for r in rounds],
        "op_ms": [[x / 1e3 for x in r["miss_us"]] for r in rounds],
        "rss_kb": [r["rss_kb"] for r in rounds],
        "store_hit_us": [x for r in rounds for x in r["store_hit_us"]],
        "mem_hit_us": [x for r in rounds for x in r["mem_hit_us"]],
    }


RUNNERS = {
    "gups-hiload": gups_hiload,
    "fleet-lowload": fleet_lowload,
    "serve-store": serve_store,
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(samples):
    """Every end-to-end metric of BENCHMARK.json from untraced samples:
    name -> (value, unit, sample count)."""
    if "traced" in samples:
        raise BenchError("end-to-end metrics come from untraced runs only")
    return {
        "setup_s": (statistics.median(samples["setup_s"]), "s", len(samples["setup_s"])),
        "wall_s": (statistics.median(samples["wall_s"]), "s", len(samples["wall_s"])),
        "sim_req_per_s": (statistics.median(samples["sim_req_per_s"]), "1/s",
                          len(samples["sim_req_per_s"])),
        "peak_rss_mb": (max(samples["rss_kb"]) / 1024.0, "MB", len(samples["rss_kb"])),
    }


def latencies(workload, samples):
    """Per-operation latency percentiles, printed but not gated: they
    spread more than the unit walls under host contention.

    A unit's operations are a fixed set of configs, so the pooled
    distribution has gaps between configs; the percentile is taken per
    unit and the median over units is reported. The serve hit kinds
    are pooled.
    """
    units = samples["op_ms"]
    n_ops = sum(len(u) for u in units)
    op = "serve_miss_ms" if workload == "serve-store" else "op_ms"
    out = {op + "_p%d" % round(q * 100):
           (statistics.median(quantile(u, q) for u in units), "ms", n_ops)
           for q in (0.5, 0.9)}
    for kind, qs in (("store_hit_us", (0.5, 0.9)), ("mem_hit_us", (0.5, 0.99))):
        for q in qs if kind in samples else ():
            out["serve_%s_p%d" % (kind, round(q * 100))] = \
                (quantile(samples[kind], q), "us", len(samples[kind]))
    return out


def per_layer(result, spec):
    """Every per-layer metric of BENCHMARK.json; a layer the workload does
    not call reports 0."""
    layers = dict(result["traced"]["layers"])
    layers["bench.trace_overhead_frac"] = \
        result["traced"]["wall_s"] / result["untraced_wall_s"] - 1.0
    return {m["name"]: (float(layers.get(m["name"], 0.0)), m["unit"], 1)
            for m in spec["per_layer"]}


def run_workload(workload, seed, seconds, trace, exe, cli):
    checks = Checks()
    selfcheck(cli, checks)
    result = RUNNERS[workload](exe, cli, seed, seconds, trace, checks)
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    if trace:
        metrics = per_layer(result, spec)
    else:
        metrics = end_to_end(result)
        names = [m["name"] for m in spec["end_to_end"]]
        if sorted(names) != sorted(metrics):
            raise BenchError("end-to-end metrics differ from BENCHMARK.json")
    printed = dict(metrics)
    if not trace:
        printed.update(latencies(workload, result))
    for name, (value, unit, n) in printed.items():
        print("%-14s %-28s %14.6g %-6s n=%d" % (workload, name, value, unit, n))
    for note in checks.notes:
        print("%-14s CHECK FAILED: %s" % (workload, note))
    return checks, metrics


def record_expected(exe, cli):
    """Rewrite expected.json from fresh runs of the recorded seeds."""
    if os.path.isfile(EXPECTED_JSON):
        os.remove(EXPECTED_JSON)
    out = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        out[str(seed)] = {}
        shutil.rmtree(os.path.join(build_dir(), "hmcbench-ref"), ignore_errors=True)
        for workload in WORKLOADS:
            checks = Checks()
            RUNNERS[workload](exe, cli, seed, 1, True, checks)
            if checks.failed or not checks.run_ok:
                raise BenchError("recording %s seed %d: %s" % (workload, seed, checks.notes))
            path = os.path.join(build_dir(), "hmcbench-ref", "%s-%d.json" % (workload, seed))
            with open(path) as f:
                out[str(seed)][workload] = json.load(f)
    shutil.rmtree(os.path.join(build_dir(), "hmcbench-ref"), ignore_errors=True)
    with open(EXPECTED_JSON, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()

    try:
        cli, exe = build()
        if args.record_expected:
            record_expected(exe, cli)
            return 0
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        attempted = failed = 0
        correct = True
        metrics = {}
        for workload in workloads:
            checks, m = run_workload(workload, args.seed, args.seconds,
                                     bool(args.trace), exe, cli)
            attempted += checks.attempted
            failed += checks.failed
            correct = correct and checks.failed == 0 and checks.run_ok
            prefix = "" if len(workloads) == 1 else workload + "/"
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u, _) in m.items()})
        print("failed_frac    %.6g (%d of %d operations)" % (
            failed / max(1, attempted), failed, attempted))
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        log("hmcbench: %s" % exc)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
