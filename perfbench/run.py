#!/usr/bin/env python3
"""Repository benchmark: builds perfbench (Release) from this checkout's
sources and runs one workload over the five map variants.

    python3 perfbench/run.py --workload t1-paper --seed 1 --seconds 16 --trace 0

Run from the root of a checkout. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones (see perfbench/README.md). The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is the full report (environment
stamp, per-variant detail, failure messages), also saved under
.bench_build/results/.
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
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("t1-paper", "t1-hot", "read-mostly")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no library sources at {ROOT / 'src'}; run from the root of a "
            "full checkout")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j4",
                  "--target", "perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            die(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            die(f"build step {' '.join(step)} exited {done.returncode}")


def source_rev():
    """The git revision, or a digest of the sources when not a git tree."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_driver(workload, seed, seconds, trace, extra=()):
    """Runs the built driver; returns its parsed report."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--rev", source_rev(), *extra]
    # Library knobs read from the environment would change what is
    # measured; run with the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TSP_")}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"driver exceeded {RUN_TIMEOUT_S} s and was killed")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        hint = ""
        if proc.returncode == -signal.SIGABRT:
            hint = " (aborted: a heap-exhaustion TSP_CHECK prints above)"
        die(f"driver exited with status {proc.returncode}{hint}")
    lines = out.strip().splitlines()
    if not lines:
        die("driver printed no report")
    return json.loads(lines[-1])


def check_metric_names(report, trace):
    """Returns a problem for each metric BENCHMARK.json names that is not
    reported with its unit, and for each reported metric it does not name."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return []
    spec = json.loads(spec_path.read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    problems = [f"metric {name} [{unit}] reported as {got.get(name)}"
                for name, unit in wanted.items() if got.get(name) != unit]
    problems += [f"metric {name} is not in BENCHMARK.json"
                 for name in sorted(set(got) - set(wanted))]
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    build()
    report = run_driver(args.workload, args.seed, args.seconds, args.trace)
    problems = check_metric_names(report, args.trace)
    if problems:
        die("; ".join(problems))
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS_DIR / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": bool(report["correct"]) and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))


if __name__ == "__main__":
    main()
