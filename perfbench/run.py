#!/usr/bin/env python3
"""rix benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. Builds the simulator from source into
.bench_build (perfbench/CMakeLists.txt), generates the workload's inputs
from the seed (perfbench/inputs.py), runs the executor (rixbench) in its
own process for the time budget, re-checks its outputs, and prints:

  - a "fingerprint" line: host, compiler, build and simulated checksum;
  - a "detail" line: workload-specific figures (see perfbench/metrics.json);
  - last, one JSON object with "correct", "attempted", "failed" and
    "metrics": every end-to-end metric of BENCHMARK.json (--trace 0) or
    every per-layer metric (--trace 1).

Exits non-zero without a result when the sources or the build are
missing or broken.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs as benchinputs  # noqa: E402
import validate  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REQUIRED = ["src/cli/rix_main.cc", "examples/scenarios/fig4.json",
            "BENCH_throughput.json", "BENCHMARK.json"]
RUN_TIMEOUT_S = 170
# The open-loop generator is behind when its p99 send delay exceeds this.
GEN_LATE_FLAG_MS = 5.0


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def worker_threads():
    return len(os.sched_getaffinity(0))


def build():
    """Configure (once) and build the benchmark package; returns the
    build directory."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                    str(worker_threads())],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR


def fingerprint(result):
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, val = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = val
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], check=True,
                                 capture_output=True, text=True
                                 ).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        version = "unknown"
    with open(os.path.join(BUILD_DIR, "cxx_flags.txt")) as f:
        flags = f.read()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, check=True, capture_output=True,
                             text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {
        "nproc": worker_threads(),
        "cpu_model": cpu,
        "compiler": version,
        "cxx_flags": flags.strip(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "git_rev": rev,
        "source_sha256": digest.hexdigest()[:16],
        "sim_checksum": result["checksum"],
    }


def cpu_times():
    """(steal, total) jiffies of the host's aggregate cpu line."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields)
    except (OSError, ValueError):
        return 0, 0


def run_executor(build_dir, doc, out_dir, deadline):
    """Run rixbench in its own process; returns (result, maxrss_kb)."""
    inputs_path = os.path.join(out_dir, "inputs.json")
    result_path = os.path.join(out_dir, "result.json")
    with open(inputs_path, "w") as f:
        json.dump(doc, f)
    # The executor gets its inputs from the file only: no RIX_* knob
    # of the caller's environment may change the workload.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RIX_")}
    proc = subprocess.Popen(
        [os.path.join(build_dir, "rixbench"), "run", inputs_path,
         result_path], cwd=ROOT, stdout=sys.stderr, env=env)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise RuntimeError("rixbench exceeded the time limit")
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError("rixbench exited with %d" % proc.returncode)
    with open(result_path) as f:
        return json.load(f), usage.ru_maxrss


def main(argv):
    with open(os.path.join(HERE, "metrics.json")) as f:
        names = sorted(json.load(f)["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log("not a rix checkout (missing %s)" % ", ".join(missing))
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = [m["name"] for m in
              bench["per_layer" if args.trace else "end_to_end"]]

    try:
        build_dir = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 3
    # The first run in a checkout builds; the run itself gets the budget.
    deadline = time.monotonic() + RUN_TIMEOUT_S

    out_dir = os.path.join(OUT_DIR, "%s-%d-t%d" % (args.workload, args.seed,
                                                   args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    doc = benchinputs.make_inputs(args.workload, args.seed, args.seconds,
                                  ROOT)
    doc.update({
        "trace": args.trace,
        "out_dir": os.path.relpath(out_dir, ROOT),
        "expected_dir": os.path.relpath(os.path.join(HERE, "expected"),
                                        ROOT),
        "rix": os.path.join(build_dir, "rix"),
    })
    steal0, total0 = cpu_times()
    try:
        result, maxrss_kb = run_executor(build_dir, doc, out_dir, deadline)
    except (OSError, RuntimeError, ValueError) as e:
        log(str(e))
        return 4
    steal1, total1 = cpu_times()
    # CPU time the hypervisor gave other guests while this run measured:
    # a noisy-host flag, not a property of rix.
    result["detail"]["bench.host_steal_pct"] = (
        100.0 * (steal1 - steal0) / max(1, total1 - total0))

    problems, attempted_extra = validate.check_result(result)
    failed = result["failed"] + len(problems)
    for p in (result["failures"] + problems)[:20]:
        log("FAILED: " + p)

    metrics = dict(result["metrics"])
    if not args.trace:
        rss_kb = result.get("daemon_maxrss_kb", maxrss_kb)
        metrics["peak_rss_mb"] = {"value": rss_kb / 1024.0, "unit": "MB"}
    absent = [n for n in wanted if n not in metrics]
    if absent:
        log("executor did not produce: %s" % ", ".join(absent))
        return 5
    late = result["detail"].get("bench.gen_late_ms.p99")
    if late is not None and late > GEN_LATE_FLAG_MS:
        result["detail"]["bench.gen_behind"] = 1
        log("open-loop generator ran %.1f ms late (p99): serve latencies "
            "include client delay" % late)
    print(json.dumps({"fingerprint": fingerprint(result)}))
    print(json.dumps({"detail": result["detail"]}))
    attempted = max(1, result["attempted"] + attempted_extra)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: metrics[n] for n in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
