#!/usr/bin/env python3
"""Run the checked-in mutants through the full ctest and print who kills them.

Each entry of the mutant list, scripts/mutants.json, names a file, an
exact piece of its text (it must occur exactly once), the text that
replaces it, and a one-line reason.  An entry whose replacement equals
its text is the control: it changes nothing, so every test must pass
with it applied.

The runner never edits the checkout.  It copies the tree (tracked files
plus untracked files git does not ignore) into a work directory, builds
it once, and then for each mutant applies the edit, rebuilds
incrementally, runs ctest, records the failing entries (and the failing
gtest cases inside them) and restores the file.

The control runs the full ctest; then the runner hashes each entry's
executable.  A mutant runs only the entries whose executable its rebuild
changed: an unchanged binary with unchanged inputs gives the control's
result, so it can kill nothing.  An entry whose command is not an
executable of the build tree, or that has DEPENDS or fixtures, runs with
every mutant that changes an executable.  A mutant that changes no
executable survives without running ctest.

Output: a table on stdout and, with --json, the kill matrix
(mutant x failing ctest entry) as JSON.

Exit status is 1 when a mutant survives (every test it runs passes, or
it changes no executable), when a mutant does not compile, when the
control dies or does not compile, when a mutant's text does not occur
exactly once, or when ctest runs no entry; 0 otherwise.

Usage: run_mutants.py [--work DIR] [--jobs N] [--json OUT]
           [--cmake-arg ARG]...
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUTANTS = os.path.join(REPO, "scripts", "mutants.json")
# Per-entry ctest timeout: a mutant that makes a loop spin dies by it.
TEST_TIMEOUT_S = 300

# Entry properties that tie an entry to others: such an entry always runs.
ALWAYS_RUN_PROPERTIES = {"DEPENDS", "FIXTURES_REQUIRED", "FIXTURES_SETUP",
                         "FIXTURES_CLEANUP"}

# ctest's status line for a finished entry, and a gtest failure line.
STATUS = re.compile(r"^\s*\d+/\d+ Test\s+#\d+: (\S+) \.*\s*(.*)$")
GTEST_FAILED = re.compile(r"^\[  FAILED  \] (\w+(?:/\w+)*\.\w+(?:/\w+)*)")


def load_mutants(path):
    with open(path) as fh:
        entries = json.load(fh)
    seen = set()
    for entry in entries:
        for key in ("id", "file", "find", "replace", "reason"):
            if not isinstance(entry.get(key), str):
                sys.exit(f"error: {path}: entry {entry.get('id')!r} lacks "
                         f"string field {key!r}")
        if entry["id"] in seen:
            sys.exit(f"error: {path}: duplicate id {entry['id']!r}")
        seen.add(entry["id"])
    controls = [e for e in entries if e["find"] == e["replace"]]
    if len(controls) != 1:
        sys.exit(f"error: {path}: expected exactly one control entry "
                 f"(replacement equal to its text), found {len(controls)}")
    return entries


def tree_files():
    """Tracked files plus untracked ones git does not ignore."""
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=REPO, check=True, capture_output=True).stdout
    return [f for f in out.decode().split("\0") if f]


def sync_tree(dest):
    """Copies the checkout into `dest`, rewriting only files that differ,
    so a reused work directory rebuilds incrementally."""
    copied = 0
    for rel in tree_files():
        src = os.path.join(REPO, rel)
        if not os.path.isfile(src):
            continue  # Deleted in the working tree but still in the index.
        dst = os.path.join(dest, rel)
        with open(src, "rb") as fh:
            data = fh.read()
        if os.path.exists(dst):
            with open(dst, "rb") as fh:
                if fh.read() == data:
                    continue
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(dst, "wb") as fh:
            fh.write(data)
        shutil.copymode(src, dst)
        copied += 1
    return copied


def run(cmd, cwd, log):
    """Runs `cmd`, appending its output to `log`; returns (code, output)."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    with open(log, "a") as fh:
        fh.write(f"$ {' '.join(cmd)}\n{proc.stdout}\n")
    return proc.returncode, proc.stdout


def ctest_entries(build):
    """Maps each ctest entry to the build-tree executable its command
    runs (None when it runs none), and returns the set of entries that
    must run with every mutant: those without such an executable, or
    with DEPENDS or fixtures."""
    out = subprocess.run(
        ["ctest", "--test-dir", build, "--show-only=json-v1"],
        check=True, capture_output=True, text=True).stdout
    root = os.path.realpath(build) + os.sep
    entries, always = {}, set()
    for test in json.loads(out)["tests"]:
        command = test.get("command") or [""]
        exe = os.path.realpath(command[0])
        if not (exe.startswith(root) and os.path.isfile(exe)):
            exe = None
        props = {p["name"] for p in test.get("properties", [])}
        if exe is None or props & ALWAYS_RUN_PROPERTIES:
            always.add(test["name"])
        entries[test["name"]] = exe
    return entries, always


def digests(entries):
    """SHA-256 of every executable the entries run."""
    out = {}
    for exe in set(entries.values()) - {None}:
        with open(exe, "rb") as fh:
            out[exe] = hashlib.sha256(fh.read()).hexdigest()
    return out


def ctest(build, jobs, work, log, names=None):
    """Runs ctest (only `names` when given); returns its output."""
    cmd = ["ctest", "--test-dir", build, "-j", str(jobs),
           "--output-on-failure", "--timeout", str(TEST_TIMEOUT_S)]
    if names is not None:
        cmd += ["-R", "^(" + "|".join(re.escape(n) for n in names) + ")$"]
    return run(cmd, work, log)[1]


def failing_entries(output):
    """Maps each failed ctest entry to the gtest cases it reported failed,
    and counts the entries that ran.  ctest prints a finished entry's
    captured output (--output-on-failure) right after its status line,
    so failure lines belong to the last status line seen."""
    failed = {}
    ran = 0
    current = None
    for line in output.splitlines():
        status = STATUS.match(line)
        if status:
            ran += 1
            name, verdict = status.groups()
            current = None
            if not verdict.startswith("Passed"):
                failed.setdefault(name, [])
                current = name
            continue
        case = GTEST_FAILED.match(line)
        if case and current is not None and case.group(1) not in failed[current]:
            failed[current].append(case.group(1))
    return failed, ran


def judge(record, output):
    """Sets the record's failing entries and status from ctest output."""
    record["failed"], ran = failing_entries(output)
    record["entries_run"] = ran
    if ran == 0:
        record["status"] = "no_tests_ran"
    else:
        record["status"] = "killed" if record["failed"] else "survived"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", help="work directory (reused if present; "
                        "default: a fresh temporary directory)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    parser.add_argument("--json", help="write the kill matrix here")
    parser.add_argument("--cmake-arg", action="append", default=[],
                        help="extra configure argument (repeatable)")
    args = parser.parse_args()

    mutants = load_mutants(MUTANTS)
    # The control runs first: if it dies, no kill below means anything.
    mutants.sort(key=lambda m: m["find"] != m["replace"])

    work = args.work or tempfile.mkdtemp(prefix="lpfps-mutants-")
    src = os.path.join(work, "src")
    build = os.path.join(work, "build")
    log = os.path.join(work, "log.txt")
    os.makedirs(src, exist_ok=True)
    copied = sync_tree(src)
    print(f"work directory {work} ({copied} files copied)", flush=True)

    started = time.monotonic()
    code, _ = run(["cmake", "-S", src, "-B", build,
                   "-DCMAKE_BUILD_TYPE=Release", *args.cmake_arg], work, log)
    if code == 0:
        code, _ = run(["cmake", "--build", build, "-j", str(args.jobs)],
                      work, log)
    if code != 0:
        sys.exit(f"error: the unmutated tree does not build (see {log})")
    print(f"initial build {time.monotonic() - started:.0f} s", flush=True)

    results = []
    entries = always = None  # Read after the control's run.
    baseline = None  # Executable -> digest of the control's build.
    for mutant in mutants:
        control = mutant["find"] == mutant["replace"]
        path = os.path.join(src, mutant["file"])
        with open(path) as fh:
            original = fh.read()
        record = {"id": mutant["id"], "file": mutant["file"],
                  "reason": mutant["reason"], "control": control,
                  "failed": {}}
        count = original.count(mutant["find"])
        if count != 1:
            record["status"] = "no_match" if count == 0 else "ambiguous"
            record["matches"] = count
            results.append(record)
            print(f"{mutant['id']}: text occurs {count} times in "
                  f"{mutant['file']}", flush=True)
            continue
        t0 = time.monotonic()
        try:
            with open(path, "w") as fh:
                fh.write(original.replace(mutant["find"], mutant["replace"]))
            code, _ = run(["cmake", "--build", build, "-j", str(args.jobs)],
                          work, log)
            if code != 0:
                record["status"] = "compile_error"
            elif control:
                judge(record, ctest(build, args.jobs, work, log))
                entries, always = ctest_entries(build)
                baseline = digests(entries)
            elif baseline is None:
                record["status"] = "no_control"
            else:
                now = digests(entries)
                changed = {exe for exe in now if now[exe] != baseline[exe]}
                record["executables_changed"] = len(changed)
                if not changed:
                    record["entries_run"] = 0
                    record["status"] = "survived"
                else:
                    names = [n for n, exe in entries.items()
                             if exe in changed or n in always]
                    judge(record, ctest(build, args.jobs, work, log, names))
        finally:
            with open(path, "w") as fh:
                fh.write(original)
        record["seconds"] = round(time.monotonic() - t0, 1)
        results.append(record)
        print(f"{mutant['id']}: {record['status']} ({record['seconds']} s) "
              f"{record.get('entries_run', 0)} entries run, "
              f"{len(record['failed'])} failed", flush=True)

    # Leave the work tree's binaries matching the unmutated source.
    run(["cmake", "--build", build, "-j", str(args.jobs)], work, log)

    problems = []
    for record in results:
        if record["control"]:
            if record["status"] != "survived":
                problems.append(f"control {record['id']}: {record['status']}")
        elif record["status"] != "killed":
            problems.append(f"{record['id']}: {record['status']}")

    width = max(len(r["id"]) for r in results)
    print()
    print(f"{'mutant':<{width}}  {'status':<13}  killed by")
    for record in results:
        killers = ", ".join(sorted(record["failed"])) or "-"
        print(f"{record['id']:<{width}}  {record['status']:<13}  {killers}")
    print()
    print(f"{sum(r['status'] == 'killed' for r in results)} killed, "
          f"{len(problems)} problems, "
          f"{time.monotonic() - started:.0f} s in all; log {log}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"mutants": results}, fh, indent=2)
            fh.write("\n")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
