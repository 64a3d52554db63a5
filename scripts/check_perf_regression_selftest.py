#!/usr/bin/env python3
"""Self-test for check_perf_regression.py — the gate that gates the gates.

The regression checker is the only thing standing between a silent perf
or latency regression and a green build, so its failure modes must
themselves be pinned: a refactor that makes it exit 0 on malformed
input, skip the p99 comparison, or stop enforcing --require-section
would neuter CI without failing a single C++ test.  This script replays
every verdict the checker can reach against tiny synthetic bench files
and asserts both the exit code and the diagnostic text.

Runs hermetically in a temp directory; no repo state is touched.

Usage: check_perf_regression_selftest.py   (exit 0 iff all cases pass)
"""

import json
import os
import subprocess
import sys
import tempfile

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_perf_regression.py")


def bench(points):
    """A minimal bench record holding the given points."""
    return {"bench": "selftest", "schema_version": 1,
            "wall_time_seconds": 0.0, "points": points}


def point(section, name, policy, eps, p99=None):
    record = {"section": section, "name": name, "policy": policy,
              "events_per_sec": eps}
    if p99 is not None:
        record["latency_p99_us"] = p99
    return record


class Harness:
    def __init__(self, tmpdir):
        self.tmpdir = tmpdir
        self.cases = 0
        self.failures = []

    def write(self, stem, record):
        path = os.path.join(self.tmpdir, stem + ".json")
        with open(path, "w") as fh:
            if isinstance(record, str):
                fh.write(record)  # Deliberately malformed fixtures.
            else:
                json.dump(record, fh)
        return path

    def expect(self, label, argv, code, needle=""):
        """Run the checker; assert exit code and a diagnostic substring."""
        self.cases += 1
        proc = subprocess.run([sys.executable, CHECKER] + argv,
                              capture_output=True, text=True)
        output = proc.stdout + proc.stderr
        problems = []
        if proc.returncode != code:
            problems.append(f"exit {proc.returncode}, wanted {code}")
        if needle and needle not in output:
            problems.append(f"output lacks {needle!r}")
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}\n"
                                 f"  --- checker output ---\n{output}")
            print(f"FAIL {label}")
        else:
            print(f"ok   {label}")


def main():
    with tempfile.TemporaryDirectory(prefix="perf-selftest-") as tmpdir:
        h = Harness(tmpdir)

        base = h.write("baseline", bench([
            point("adm", "churn-25", "incremental", 1000.0, p99=50.0),
            point("adm", "churn-25", "scratch", 400.0, p99=120.0),
        ]))

        # Verdicts of the baseline comparison itself.
        same = h.write("same", bench([
            point("adm", "churn-25", "incremental", 1000.0, p99=50.0),
            point("adm", "churn-25", "scratch", 400.0, p99=120.0),
        ]))
        h.expect("identical files pass", [same, base], 0,
                 "baseline points within")

        slow = h.write("slow", bench([
            point("adm", "churn-25", "incremental", 700.0, p99=50.0),
            point("adm", "churn-25", "scratch", 400.0, p99=120.0),
        ]))
        h.expect("30% slowdown fails at 25% tolerance", [slow, base], 1,
                 "ev/s <")
        h.expect("30% slowdown passes at 40% tolerance",
                 [slow, base, "--tolerance", "0.4"], 0)

        lagging = h.write("lagging", bench([
            point("adm", "churn-25", "incremental", 1000.0, p99=80.0),
            point("adm", "churn-25", "scratch", 400.0, p99=120.0),
        ]))
        h.expect("p99 growth fails", [lagging, base], 1, "p99")
        h.expect("p99 growth passes at wider latency tolerance",
                 [lagging, base, "--latency-tolerance", "0.7"], 0)

        no_p99 = h.write("no_p99", bench([
            point("adm", "churn-25", "incremental", 1000.0),
            point("adm", "churn-25", "scratch", 400.0),
        ]))
        h.expect("p99 comparison skipped when current lacks the field",
                 [no_p99, base], 0)

        missing = h.write("missing", bench([
            point("adm", "churn-25", "incremental", 1000.0, p99=50.0),
        ]))
        h.expect("baseline point absent from current fails",
                 [missing, base], 1, "missing from current run")

        extra = h.write("extra", bench([
            point("adm", "churn-25", "incremental", 1000.0, p99=50.0),
            point("adm", "churn-25", "scratch", 400.0, p99=120.0),
            point("new", "fresh-point", "incremental", 9.0),
        ]))
        h.expect("point new in current is reported, not failed",
                 [extra, base], 0, "not in baseline")

        # Input validation: every malformed shape must name the file.
        garbage = h.write("garbage", "{not json")
        h.expect("malformed JSON is rejected", [garbage, base], 1,
                 "not valid JSON")
        pointless = h.write("pointless", {"schema_version": 1})
        h.expect("record without points array is rejected",
                 [pointless, base], 1, "no 'points' array")
        fieldless = h.write("fieldless", bench([{"section": "adm"}]))
        h.expect("point lacking required fields is rejected",
                 [fieldless, base], 1, "lacks")

        # --require-section must bind on BOTH sides of the comparison.
        h.expect("require-section present in both passes",
                 [same, base, "--require-section", "adm"], 0)
        h.expect("require-section absent everywhere fails",
                 [same, base, "--require-section", "ghost"], 1,
                 "required section 'ghost'")
        h.expect("require-section absent from baseline fails",
                 [extra, base, "--require-section", "new"], 1,
                 "no points in baseline")

        # --min-ratio: a within-run shape assertion.
        shaped = h.write("shaped", bench([
            point("adm", "churn-25", "incremental", 1000.0, p99=50.0),
            point("adm", "churn-25", "scratch", 400.0, p99=120.0),
        ]))
        h.expect("min-ratio satisfied passes",
                 [shaped, base, "--min-ratio", "adm", "churn-25", "0.4"], 0)
        h.expect("min-ratio violated fails",
                 [shaped, base, "--min-ratio", "adm", "churn-25", "0.5"], 1,
                 "of section peak")
        h.expect("min-ratio over unknown section fails",
                 [shaped, base, "--min-ratio", "ghost", "churn-25", "0.5"],
                 1, "has no")
        h.expect("min-ratio over unknown point name fails",
                 [shaped, base, "--min-ratio", "adm", "ghost", "0.5"], 1,
                 "no point named")
        h.expect("min-ratio with non-numeric ratio is rejected",
                 [shaped, base, "--min-ratio", "adm", "churn-25", "fast"],
                 1, "not a number")

        # --min-policy-ratio: one policy against another on one point.
        h.expect("min-policy-ratio satisfied passes",
                 [shaped, base, "--min-policy-ratio", "adm", "churn-25",
                  "scratch", "incremental", "0.4"], 0, "x0.40")
        h.expect("min-policy-ratio violated fails",
                 [shaped, base, "--min-policy-ratio", "adm", "churn-25",
                  "scratch", "incremental", "0.5"], 1,
                 "50% of incremental")
        h.expect("min-policy-ratio above 1 compares the right way round",
                 [shaped, base, "--min-policy-ratio", "adm", "churn-25",
                  "incremental", "scratch", "2.5"], 0)
        h.expect("min-policy-ratio over unknown section fails",
                 [shaped, base, "--min-policy-ratio", "ghost", "churn-25",
                  "scratch", "incremental", "0.4"], 1,
                 "no point ghost/churn-25/scratch or incremental")
        h.expect("min-policy-ratio over unknown policy fails",
                 [shaped, base, "--min-policy-ratio", "adm", "churn-25",
                  "scratch", "ghost", "0.4"], 1,
                 "no point adm/churn-25/ghost")
        h.expect("min-policy-ratio with non-numeric ratio is rejected",
                 [shaped, base, "--min-policy-ratio", "adm", "churn-25",
                  "scratch", "incremental", "fast"], 1, "not a number")
        h.expect("min-policy-ratio with too few arguments is rejected",
                 [shaped, base, "--min-policy-ratio", "adm", "churn-25",
                  "scratch", "0.4"], 2, "expected 5 arguments")

        if h.failures:
            print(f"\n{len(h.failures)}/{h.cases} self-test case(s) failed:",
                  file=sys.stderr)
            for failure in h.failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"\nall {h.cases} checker self-test cases passed")
        return 0


if __name__ == "__main__":
    sys.exit(main())
