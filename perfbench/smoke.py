#!/usr/bin/env python3
"""The benchmark's own smoke test.  Run from the repository root:

    python3 perfbench/smoke.py

It runs every workload at minimal length, untraced and traced, and checks
that:
- every metric BENCHMARK.json names is printed, with its unit;
- every verdict matches the known-answer table (no task failed), and the
  table's classification rules behave on made-up answers;
- two seeds give the same set of tasks in a different order;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import collections
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import known  # noqa: E402
import workloads as w  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg, flush=True)
        sys.exit(1)
    print("ok: " + msg, flush=True)


def run(workload, trace, cwd="."):
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)

    # the classification rules, on made-up answers
    check(known.classify("workers-10", "deadlock-free", {"states": 1025, "transitions": 10250, "deadlocks": 0}) == "decided", "a matching answer is decided")
    check(known.classify("workers-10", "deadlock-free", {"states": 1024, "transitions": 10250, "deadlocks": 0}) == "failed", "a wrong state count fails")
    check(known.classify("phil-5-sym", "deadlock-free", {"deadlocks": 0}) == "failed", "a missed deadlock fails")
    check(known.classify("check-copier-must-fail", "holds", {"fails": 0, "holds": 1}) == "failed", "a must-fail case that holds fails")
    check(known.classify("family-workers-d8", "undecided", {}) == "undecided", "NOT CERTIFIED is undecided, not failed")

    # the orders the runs use, from the generators run_cold and run_serve draw on
    def first(gen, n):
        return [next(gen) for _ in range(n)]

    orders = {cold: (first(w.passes(cold, 1), 3), first(w.passes(cold, 2), 3)) for cold in w.COLD}
    for conn in ("interactive", "batch"):
        n = 3 * len(w.INTERACTIVE if conn == "interactive" else w.BATCH)
        orders["serve-mixed " + conn] = ([first(w.cycles(1, conn), n)], [first(w.cycles(2, conn), n)])
    for name, (a, b) in orders.items():
        check(
            all(collections.Counter(x) == collections.Counter(y) for x, y in zip(a, b)) and a != b,
            f"{name}: seeds 1 and 2 give the same tasks in a different order",
        )
        check(all(kind in known.KNOWN for kind in a[0]), f"{name}: every task has a known answer")

    for workload in w.WORKLOADS:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            r = run(workload, trace)
            check(r.returncode == 0, f"{workload} --trace {trace} exits 0 ({r.stderr.strip()[-300:]})")
            result = json.loads(r.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload} --trace {trace}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0, f"{workload} --trace {trace}: every verdict matches the known answers")
            metrics = result["metrics"]
            check(
                set(metrics) == {m["name"] for m in specs}
                and all(metrics[m["name"]]["unit"] == m["unit"] and isinstance(metrics[m["name"]]["value"], (int, float)) for m in specs),
                f"{workload} --trace {trace}: every metric present with its unit",
            )
            if trace == 0:
                check(all(metrics[m["name"]]["value"] > 0 for m in specs), f"{workload}: no end-to-end metric is 0")

    bare = os.path.join(w.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("_out", "__pycache__"))
    r = run("cold-prove", 0, cwd=bare)
    check(r.returncode != 0 and not r.stdout.strip(), "without the repository the benchmark fails without a result")
    shutil.rmtree(bare)
    print("smoke test passed")


if __name__ == "__main__":
    main()
