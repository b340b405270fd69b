#!/usr/bin/env python3
"""hpn-sim benchmark entry point.

    python3 perfbench/run.py --workload <fleet|fig15_train|whatif> --seed <n>
                             --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. It builds the simulator libraries and the
benchmark driver from source into $CARGO_TARGET_DIR (default .bench_build),
runs one workload in one single-threaded process, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with --trace 1
its per_layer metrics, where 0 means the workload does not use that layer and
-1 that it does but the number cannot be seen from outside the program.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure once, then build incrementally; returns the driver path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            # Own process group, so a timeout stops make and the compilers too.
            proc = subprocess.Popen(cmd, stdout=f, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                rc = proc.wait(timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                rc = -1
            if rc != 0:
                f.flush()
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)} (log: {log})", 3)
    return out / "perfbench_driver"


def cache_value(cache, key):
    for line in cache:
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def stamp(args):
    """Where a result came from: code, build, machine and seed."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = ROOT / top
        for path in sorted(base.rglob("*") if base.is_dir() else [base]):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    cache_file = build_dir() / "CMakeCache.txt"
    cache = cache_file.read_text().splitlines() if cache_file.exists() else []
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
    compiler = cache_value(cache, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    flags = " ".join(filter(None, [cache_value(cache, "CMAKE_CXX_FLAGS"),
                                   cache_value(cache, "CMAKE_CXX_FLAGS_" + build_type.upper())]))
    return {"git_sha": sha or "none (not a git checkout)",
            "source_sha256": digest.hexdigest()[:16],
            "build_type": build_type, "cxx_flags": flags, "compiler": version,
            "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def run_driver(driver, argv, echo=True):
    """Run the driver; returns (exit code, parsed last line or None)."""
    scratch = build_dir() / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(driver), *argv, "--root", str(ROOT), "--scratch", str(scratch)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, None
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        return proc.returncode or -1, None
    try:
        return 0, json.loads(lines[-1])
    except json.JSONDecodeError:
        return -1, None


def shape_metrics(result, declared):
    """Exactly the declared metrics, in declared order, with declared units.
    A per-layer metric the workload does not emit is a layer it does not use."""
    got = result["metrics"]
    extra = sorted(set(got) - {m["name"] for m in declared})
    if extra:
        fail(f"driver reported undeclared metrics: {extra}", 4)
    shaped = {}
    for m in declared:
        entry = got.get(m["name"], {"value": 0, "unit": m["unit"]})
        if entry["unit"] not in (m["unit"], "-"):
            fail(f"metric {m['name']} in {entry['unit']}, declared {m['unit']}", 4)
        shaped[m["name"]] = {"value": entry["value"], "unit": m["unit"]}
    return shaped


def selftest(driver):
    """Tiny pass of each workload, untraced and traced, then the traced pass
    (which makes every kind of output comparison) with each expected output
    corrupted: that one must count failures."""
    ok = True
    for w in spec()["workloads"]:
        for trace, broken in (("0", False), ("1", False), ("1", True)):
            argv = ["--workload", w["name"], "--seed", "2024", "--seconds", "1",
                    "--trace", trace, "--tiny"] + (["--break-expected"] if broken else [])
            code, res = run_driver(driver, argv, echo=False)
            if broken:
                good = code == 0 and res is not None and res["failed"] > 0 \
                    and res["correct"] is False
            else:
                good = code == 0 and res is not None and res["failed"] == 0 \
                    and res["correct"] is True
            ok &= good
            print(f"selftest {w['name']:12s} trace={trace} "
                  f"{'wrong-expected' if broken else 'plain':14s} "
                  f"{'PASS' if good else 'FAIL'}"
                  + (f" (attempted {res['attempted']}, failed {res['failed']})" if res else ""))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (ROOT / "results").is_dir():
        fail(f"no simulator sources under {ROOT}: run from a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json missing")
    bench = spec()
    if not args.selftest and args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    driver = build()
    if args.selftest:
        return selftest(driver)

    code, result = run_driver(driver, ["--workload", args.workload, "--seed", str(args.seed),
                                       "--seconds", str(args.seconds),
                                       "--trace", str(args.trace)])
    if result is None:
        fail(f"driver failed (exit {code})", 1)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    result["metrics"] = shape_metrics(result, declared)
    print("stamp " + json.dumps(stamp(args), sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
