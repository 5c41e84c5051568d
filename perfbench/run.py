#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and its harness from source,
runs one workload, and prints one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload figure_sweep --seed 42 --seconds 30 --trace 0

Run from the repository root. Untraced (--trace 0), it first starts the
workload process several times with --setup-only to sample set-up time, then
runs whole passes, each in a fresh process, until --seconds have passed (at
least three), and reports the median of each end-to-end metric. Traced
(--trace 1), it runs one untraced pass and one traced pass, validates the
span file, prints the per-layer table and the tracing overhead, and reports
the per-layer metrics. README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("figure_sweep", "calibration", "governed_tenants")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
SETUP_SAMPLES = 25
MIN_PASSES = 3


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench/CMakeLists.txt in .bench_build."""
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
    # The compiler's and the LTO linker's temporary files stay in the tree.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(configure, stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr,
                   env=env, check=True)


def spawn(binary, workload, seed, *extra, echo=False):
    """Runs one workload process; returns its result line plus the set-up
    time measured from just before the spawn and its peak RSS."""
    argv = [os.path.join(BUILD, binary), workload, "--seed", str(seed), *extra]
    read_fd, write_fd = os.pipe()  # both close-on-exec; dup2 clears it on 1
    spawned = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, write_fd, 1)])
    os.close(write_fd)
    try:
        with os.fdopen(read_fd) as pipe:
            out = pipe.read()
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        raise RuntimeError(f"{' '.join(argv)} exited with {code}")
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    else:
        for line in lines[:-1]:
            if line.startswith("[FAIL]"):
                print(line, flush=True)
    result = json.loads(lines[-1])
    result["setup_s"] = result["t_first_trial"] - spawned
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    return result


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(workload, seed, seconds):
    setups = [spawn("perfbench", workload, seed, "--setup-only")["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        passes.append(spawn("perfbench", workload, seed))
    setups += [p["setup_s"] for p in passes]
    digests = {p["digest"] for p in passes}
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["ops_failed"] for p in passes)
    med = lambda key: statistics.median(p[key] for p in passes)
    for p in passes:
        log(f"{workload} seed {seed}: wall {p['wall_s']:.3f} s, cpu "
            f"{p['cpu_s']:.3f} s, rss {p['peak_rss_mb']:.1f} MB, set-up "
            f"{1e3 * p['setup_s']:.2f} ms, ops {p['ops']}, failed "
            f"{p['ops_failed']}, digest {p['digest']}")
    print(f"digest {workload} {passes[0]['digest']}")
    worst = max(p["flow_deviation"] for p in passes)
    print(f"forced flow law: worst deviation {100 * worst:.3f} %")
    if len(digests) != 1:
        print(f"[FAIL] passes of one seed gave different digests: {digests}")
    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": metric(med("wall_s"), "s"),
            "cpu_s": metric(med("cpu_s"), "s"),
            "peak_rss_mb": metric(med("peak_rss_mb"), "MB"),
            "setup_s": metric(statistics.median(setups), "s"),
        },
    }


def validate_spans(path):
    """tools/validate_trace_json.cmake, the repository's trace checker."""
    checker = os.path.join(ROOT, "tools", "validate_trace_json.cmake")
    if not os.path.exists(checker):
        print(f"[FAIL] span file check skipped: {checker} missing")
        return False
    done = subprocess.run(["cmake", f"-DTRACE_JSON={path}", "-P", checker],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    print(done.stdout.strip())
    return done.returncode == 0


def traced(workload, seed):
    base = spawn("perfbench", workload, seed)
    spans = os.path.join(BUILD, f"spans-{workload}.json")
    run = spawn("perfbench_traced", workload, seed, "--spans", spans,
                echo=True)
    overhead = run["wall_s"] / base["wall_s"] - 1.0
    print(f"tracing overhead: traced wall {run['wall_s']:.3f} s vs untraced "
          f"{base['wall_s']:.3f} s ({100 * overhead:+.1f} %); the replica "
          "pass and rungs come after the timed interval")
    attempted = base["ops"] + run["ops"]
    failed = base["ops_failed"] + run["ops_failed"]
    if run["digest"] != base["digest"]:
        print(f"[FAIL] traced digest {run['digest']} differs from untraced "
              f"{base['digest']}")
        failed += 1
    attempted += 1  # the span file check
    if not validate_spans(spans):
        failed += 1
    expected = per_layer_names()
    if expected is not None and list(run["layers"]) != expected:
        raise RuntimeError("per-layer metrics differ from BENCHMARK.json")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": run["layers"],
    }


def per_layer_names():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return [m["name"] for m in json.load(f)["per_layer"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        build()
        if args.trace:
            result = traced(args.workload, args.seed)
        else:
            result = untraced(args.workload, args.seed, args.seconds)
    except (subprocess.CalledProcessError, RuntimeError, OSError,
            ValueError) as err:
        log(f"perfbench: {err}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
