#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the octagon analyzer.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Builds the analyzer, optoctd and the benchmark harness from source (CMake,
into $CARGO_TARGET_DIR or .bench_build), runs one workload and prints a
run header, the run's notes, every metric with its unit, and as the last
line one JSON object: correct, attempted, failed, metrics. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. Exit codes: 0 ok; 1 an output mismatch (the result line
says correct: false); 2 build or usage error; 3 an OPTOCT_* variable is
set; 4 the measurement is invalid (generator late in a traced run,
layer sums off); no result line is printed for 2-4.

--smoke runs every workload briefly, traced and untraced, and checks that
a corrupted expected output is reported as a mismatch. --write-oracle
and --write-pool-order compute perfbench/expected/paper-suite.txt and
perfbench/expected/pool-order.txt when they are absent. See README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["paper-suite", "daemon-hot", "daemon-churn"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The paper-suite oracle, computed with the baseline library for the
# whole input pool and committed; runs only read it.
EXPECTED = os.path.join(HERE, "expected")
ORACLE = os.path.join(EXPECTED, "paper-suite.txt")
# Per paper-suite program, its pool reseedings from cheapest to dearest
# to analyze, measured once and committed; runs stratify their inputs by
# it.
POOL_ORDER = os.path.join(EXPECTED, "pool-order.txt")
# Every run but a building one must end within 180 s; stopping a
# runaway process group takes up to 10 s more.
RUN_LIMIT_S = 165


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def rel(path):
    return os.path.relpath(path, ROOT)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    """Configures (once) and builds optoct_perfbench and optoctd."""
    if not os.path.isdir(os.path.join(ROOT, "src")) or not os.path.isfile(
            os.path.join(ROOT, "CMakeLists.txt")):
        fail(2, "no analyzer sources next to perfbench/ (expected src/ and "
             "CMakeLists.txt at %s)" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", "optoct_perfbench", "optoctd"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(2, "build failed (log: %s)" % rel(log_path))
    return (os.path.join(out, "optoct_perfbench"),
            os.path.join(out, "optoct", "tools", "optoctd"))


def run_bounded(cmd, timeout_s):
    """Runs cmd in its own process group; on timeout the whole group
    (the harness, optoctd and its workers) is terminated and reaped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            preexec_fn=os.setpgrp, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout_s, 1))
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            deadline = time.monotonic() + 5
            while group_alive(proc) and time.monotonic() < deadline:
                time.sleep(0.05)
            if not group_alive(proc):
                break
        proc.wait()
        fail(4, "run exceeded its time limit (%d s)" % timeout_s)


def group_alive(proc):
    """True while any process of proc's group exists (proc itself is
    reaped first, so its zombie does not count)."""
    proc.poll()
    try:
        os.killpg(proc.pid, 0)
        return True
    except ProcessLookupError:
        return False


def header(args):
    flags, model = "", ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags") and not flags:
                    flags = line.split(":", 1)[1].strip()
                elif line.startswith("model name") and not model:
                    model = line.split(":", 1)[1].strip()
    except OSError:
        pass
    simd = [f for f in flags.split() if f in (
        "sse4_2", "avx", "avx2", "fma", "avx512f", "avx512dq", "avx512bw",
        "avx512vl")]
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.check_output(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "tools", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(base) for n in ns)
        for p in sorted(paths):
            digest.update(rel(p).encode())
            with open(p, "rb") as f:
                digest.update(f.read())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": model,
        "cpu_simd_flags": " ".join(simd),
        "cpu_flags_sha1": hashlib.sha1(flags.encode()).hexdigest()[:12],
        "commit": commit, "source_sha1": digest.hexdigest()[:12],
        "optoct_env": {},
    }


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(args, extra=()):
    """One workload run; returns the harness's result object."""
    bench, optoctd = build()
    start = time.monotonic()
    work = os.path.join(build_dir(), "run-" + args.workload)
    os.makedirs(work, exist_ok=True)
    if args.workload == "paper-suite":
        for path in (ORACLE, POOL_ORDER):
            if not os.path.isfile(path):
                fail(2, "the committed file %s is missing" % rel(path))
    cmd = [bench, args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--optoctd=" + rel(optoctd), "--work-dir=" + rel(work),
           "--expected-dir=" + rel(EXPECTED)] + list(extra)
    code, out = run_bounded(cmd, RUN_LIMIT_S - (time.monotonic() - start))
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(4, "benchmark harness failed (exit %d)" % code)
    return json.loads(lines[-1])


def report(args, res):
    hdr = header(args)
    hdr["simd_tier"] = res.get("simd_tier")
    print("header " + json.dumps(hdr, sort_keys=True))
    for note in res["notes"]:
        print("note " + note)
    names = metric_names(args.trace)
    metrics = res["metrics"]
    for name, m in metrics.items():
        print("metric %-30s %s %s" % (name, m["value"], m["unit"]))
    missing = [n for n in names if n not in metrics]
    if missing:
        fail(4, "metrics missing from the run: " + ", ".join(missing))
    if res["invalid"]:
        fail(4, "invalid measurement (see the notes above); not reported")
    unserved = [n for n in names if metrics[n]["value"] is None]
    if unserved and res["correct"]:
        fail(4, "no finite value for %s: %d of %d requests failed" % (
            ", ".join(unserved), res["failed"], res["attempted"]))
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {n: metrics[n] for n in names},
    }))
    return 0 if res["correct"] else 1


def write_expected(what, path):
    """Writes the paper-suite oracle or pool order with optoct_perfbench
    <what>. Only when the file is absent: a committed file is changed by
    deleting it, rerunning this, and reviewing the difference."""
    if os.path.exists(path):
        fail(2, "%s exists; it is not regenerated over (delete it first)"
             % rel(path))
    bench, _ = build()
    os.makedirs(EXPECTED, exist_ok=True)
    if subprocess.call([bench, what, "--expected-dir=" + rel(EXPECTED)],
                       cwd=ROOT) != 0:
        fail(2, what + " computation failed")
    print("wrote " + rel(path))
    return 0


def smoke():
    """Seconds-long self-test: every workload traced and untraced, and a
    corrupted expected output must be caught on every workload."""
    problems = []
    for wl in WORKLOADS:
        for trace in (0, 1):
            a = argparse.Namespace(workload=wl, seed=1, seconds=2, trace=trace)
            res = run_workload(a)
            ok = res["correct"] and not res["invalid"] and all(
                n in res["metrics"] for n in metric_names(trace))
            print("smoke %-12s trace=%d %s" % (wl, trace, "ok" if ok else
                                               "FAILED " + "; ".join(res["notes"][-3:])))
            if not ok:
                problems.append("%s trace=%d" % (wl, trace))
        a = argparse.Namespace(workload=wl, seed=1, seconds=1, trace=0)
        res = run_workload(a, ["--corrupt-expected"])
        caught = not res["correct"]
        print("smoke %-12s corrupted expected output %s" % (
            wl, "detected" if caught else "NOT DETECTED"))
        if not caught:
            problems.append(wl + " corrupted oracle")
    if problems:
        fail(1, "smoke failed: " + ", ".join(problems))
    print("smoke ok")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--write-oracle", action="store_true")
    p.add_argument("--write-pool-order", action="store_true")
    args = p.parse_args()

    env = sorted(k for k in os.environ if k.startswith("OPTOCT_"))
    if env:
        fail(3, "refusing to run with %s set: these variables swap kernels, "
             "so the run would measure a different program" % ", ".join(env))
    if args.smoke:
        return smoke()
    if args.write_oracle:
        return write_expected("oracle", ORACLE)
    if args.write_pool_order:
        return write_expected("pool-order", POOL_ORDER)
    if not args.workload:
        p.error("--workload is required")
    return report(args, run_workload(args))


if __name__ == "__main__":
    sys.exit(main())
