#!/usr/bin/env python3
"""Self-tests of the campaign benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Checks the binary's own self-test (percentile helper, command-line parser),
that run.py rejects malformed command lines without printing a result, a
tiny smoke run of every workload untraced and traced, and that a perturbed
pinned digest fails every run with a non-zero exit. Takes about a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_RUNS = {"caps_mc": 12, "bms_guided": 32, "acc_server": 32}
failures = []


def run(args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                          capture_output=True, text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def check(ok, what, proc=None):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)
        if proc is not None:
            sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}

    proc = run(["--self-test"])
    check(proc.returncode == 0 and "self-test: ok" in proc.stdout, "binary self-test", proc)

    good = ["--workload", "caps_mc", "--seed", "1", "--seconds", "1", "--trace", "0"]
    bad_values = [("--seed", "abc"), ("--seed", "-1"), ("--seed", "7x"), ("--seconds", "0"),
                  ("--seconds", "-4"), ("--seconds", "1.5"), ("--seconds", "10s"),
                  ("--workload", "nope"), ("--trace", "2")]
    for flag, value in bad_values:
        args = list(good)
        args[args.index(flag) + 1] = value
        proc = run(args)
        check(proc.returncode != 0 and result_of(proc) is None and "usage" in proc.stderr,
              "rejects %s %s" % (flag, value), proc)
    proc = run(good[:-2])
    check(proc.returncode != 0 and result_of(proc) is None, "rejects a missing --trace", proc)

    for workload, runs in SMOKE_RUNS.items():
        for trace, names in (("0", end_to_end), ("1", per_layer)):
            proc = run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                        "--smoke", str(runs)])
            res = result_of(proc)
            check(proc.returncode == 0 and res is not None and res["correct"] and
                  res["failed"] == 0 and set(res["metrics"]) == names,
                  "smoke %s --trace %s" % (workload, trace), proc)

    # A pinned digest that differs from the fold must fail every run.
    proc = run(["--reference", "--workload", "acc_server", "--seed", "5", "--reps", "200",
                "--smoke", "32"])
    pins = [line.split() for line in proc.stdout.splitlines()]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    os.makedirs(target, exist_ok=True)
    path = os.path.join(target, "selftest-digests.txt")
    with open(path, "w") as f:
        for workload, seed, rep, runs, digest in pins:
            f.write("%s %s %s %s 0x%08x\n" % (workload, seed, rep, runs, int(digest, 16) ^ 1))
    proc = run(["--workload", "acc_server", "--seed", "5", "--seconds", "1", "--trace", "0",
                "--smoke", "32", "--digests", path])
    os.remove(path)
    res = result_of(proc)
    check(proc.returncode != 0 and res is not None and not res["correct"] and
          res["attempted"] > 0 and res["failed"] == res["attempted"],
          "perturbed pinned digest gives error_rate 1 and a non-zero exit", proc)

    print("selftest: %s" % ("ok" if not failures else "%d FAILED" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
