#!/usr/bin/env python3
"""The benchmark's own test: a tiny-size run of every workload x variant
x crash phase, in both trace modes.

    python3 perfbench/smoke_test.py

Checks that
  * every metric BENCHMARK.json names is reported with its unit, and
    nothing else is;
  * every variant was crashed once early and once late in the writer's
    run, each crashed image recovered twice, and every run verified
    clean (failed == 0);
  * the verifier catches a deliberately wrong expected value (--perturb)
    in the clean-run check and after recovery, on every workload.
Exits 1 listing every check that did not hold.
"""

import sys

import run

SMOKE_SECONDS = 0.05
VARIANTS = ("native", "log_only", "log_flush", "skiplist", "lf_hash")


def main():
    run.build()
    problems = []

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            where = f"{workload} trace={trace}"
            report = run.run_driver(workload, 1, SMOKE_SECONDS, trace,
                                    ["--smoke"])
            problems += [f"{where}: {problem}"
                         for problem in run.check_metric_names(report, trace)]
            if report["attempted"] < 1:
                problems.append(f"{where}: nothing attempted")
            if report["failed"] != 0 or not report["correct"]:
                problems.append(f"{where}: {report['failed']} failed: "
                                f"{report['failures'][:3]}")
            for variant in VARIANTS:
                recoveries = report["variants"][variant]["recoveries"]
                if len(recoveries) != 4:
                    problems.append(f"{where}: {variant} has {len(recoveries)} "
                                    "recoveries, expected 2 crashes x 2")

        report = run.run_driver(workload, 1, SMOKE_SECONDS, 0,
                                ["--smoke", "--perturb"])
        messages = " ".join(report["failures"])
        if report["correct"] or report["failed"] == 0:
            problems.append(f"{workload}: a wrong expected value went unnoticed")
        for check in ("clean-run verification", "post-recovery verification"):
            if check not in messages:
                problems.append(f"{workload}: --perturb not caught by the "
                                f"{check}")

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"smoke test: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
