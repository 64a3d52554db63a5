#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs a smoke-sized version of every workload in BENCHMARK.json through
perfbench/run.py and checks that:

  * a plain run (--trace 0) prints every end-to-end metric of
    BENCHMARK.json with its unit, and nothing else, with zero failures;
  * a traced run (--trace 1) does the same for every per-layer metric,
    also with zero failures (the driver checks its traced passes and
    layer probes against the same references);
  * the same seed gives identical simulated outputs (energy_ratio and
    the result/decision digests), and another seed gives other inputs;
  * a corrupted reference digest (--corrupt-digest) is counted as a
    failure instead of passing.

Run from anywhere inside a checkout:

    python3 perfbench/tests/selftest.py

The first run builds the driver (see perfbench/run.py).  Exits 0 when
every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SEED = 7


class Run:
    """One smoke-sized benchmark run: its JSON result and digests."""

    def __init__(self, workload, seed, trace, *extra):
        command = [sys.executable, os.path.join("perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", "0.3", "--trace", str(trace), "--smoke",
                   *extra]
        self.label = " ".join(command[2:])
        out = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True, timeout=900)
        self.returncode = out.returncode
        lines = out.stdout.strip().splitlines()
        self.result = json.loads(lines[-1]) if out.returncode == 0 else None
        self.digests = {line.split()[1]: line.split()[2]
                        for line in lines if line.startswith("digest ")}
        self.stderr = out.stderr

    def metric(self, name):
        return self.result["metrics"][name]["value"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    def check_metrics(run, declared):
        metrics = run.result["metrics"]
        check(set(metrics) == {m["name"] for m in declared},
              f"{run.label}: emits exactly the declared metrics")
        for m in declared:
            got = metrics.get(m["name"], {}).get("unit")
            check(got == m["unit"],
                  f"{run.label}: {m['name']} in {m['unit']} (got {got})")

    for workload in (w["name"] for w in bench["workloads"]):
        plain = Run(workload, SEED, 0)
        if plain.returncode != 0:
            check(False, f"{plain.label}: exit 0\n{plain.stderr[-2000:]}")
            continue
        check(plain.result["correct"] and plain.result["failed"] == 0 and
              plain.result["attempted"] >= 1,
              f"{plain.label}: correct, no failures")
        check(bool(plain.digests), f"{plain.label}: prints its digests")
        check_metrics(plain, bench["end_to_end"])

        again = Run(workload, SEED, 0)
        check(again.returncode == 0 and again.digests == plain.digests and
              again.metric("energy_ratio") == plain.metric("energy_ratio"),
              f"{workload}: same seed, same digests and energy_ratio")

        other = Run(workload, SEED + 1, 0)
        check(other.returncode == 0 and other.digests != plain.digests,
              f"{workload}: another seed, other inputs")

        traced = Run(workload, SEED, 1)
        if traced.returncode != 0:
            check(False, f"{traced.label}: exit 0\n{traced.stderr[-2000:]}")
        else:
            check(traced.result["correct"] and traced.result["failed"] == 0,
                  f"{traced.label}: correct, no failures")
            check_metrics(traced, bench["per_layer"])

        corrupt = Run(workload, SEED, 0, "--corrupt-digest")
        check(corrupt.returncode == 0 and not corrupt.result["correct"] and
              corrupt.result["failed"] > 0,
              f"{corrupt.label}: corrupted digest counted as failed")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
