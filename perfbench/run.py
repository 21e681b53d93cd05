#!/usr/bin/env python3
"""The repository benchmark: builds mcirbm from this checkout and runs one
workload of perfbench (see BENCHMARK.json and perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. It configures and builds
perfbench/CMakeLists.txt (Release) into .bench_build/perfbench, runs the
harness, records the run environment as '# env.*' lines, and passes the
harness's result through as the last stdout line:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

The metric names and units are BENCHMARK.json's: the result holds its
end_to_end list (--trace 0) or its per_layer list (--trace 1, where the
metrics a workload does not exercise read 0). Exits non-zero, printing
no result, when the checkout holds no mcirbm sources, the build fails,
the harness fails or times out, or a metric is missing or unlisted.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("train_msra", "train_uci")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_digest(root):
    """sha256 over the sources the harness builds (stands in for a commit
    id when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for sub in ("src", "perfbench"):
        files += sorted(p for p in (root / sub).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit(root):
    if not (root / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def cache_value(build_dir, key):
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return ""
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def build(root, build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as err:
            fail("build step failed: %s" % err)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def compiler(build_dir):
    cxx = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.splitlines()[0].strip()
    except (OSError, subprocess.SubprocessError, IndexError):
        return cxx or "unknown"


def checked_metrics(root, metrics, trace):
    """The harness's metrics in BENCHMARK.json's order and units: the
    end_to_end list with --trace 0 (every one measured), the per_layer
    list with --trace 1 (those a workload does not exercise read 0)."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    for name, metric in metrics.items():
        if units.get(name) != metric["unit"]:
            fail("metric %s [%s] is not in BENCHMARK.json's %s list"
                 % (name, metric["unit"], "per_layer" if trace else "end_to_end"))
    out = {}
    for name, unit in units.items():
        if name not in metrics and not trace:
            fail("metric %s was not measured" % name)
        out[name] = metrics.get(name, {"value": 0, "unit": unit})
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = pathlib.Path.cwd()
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail("no mcirbm sources (CMakeLists.txt, src/) in " + str(root))
    build_root = root / ".bench_build"
    build_dir = build_root / "perfbench"
    build(root, build_dir)

    work_dir = build_root / "work" / ("%s-%d" % (args.workload, os.getpid()))
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir)]
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("harness exited with %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("harness printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    result["metrics"] = checked_metrics(root, result["metrics"], args.trace)

    env = {
        "nproc": os.cpu_count(),
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE") or "unknown",
        "compiler": compiler(build_dir),
        "commit": commit(root),
        "source_digest": source_digest(root),
        "MCIRBM_THREADS": os.environ.get("MCIRBM_THREADS", "unset"),
        "MCIRBM_DETERMINISTIC": os.environ.get("MCIRBM_DETERMINISTIC", "unset"),
    }
    for line in lines[:-1]:
        print(line)
    for key, value in env.items():
        print("# env.%s=%s" % (key, value))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
