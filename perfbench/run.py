#!/usr/bin/env python3
"""Build and run the perfbench compile benchmark from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

NAME is estimate-mix or replay-warm (see perfbench/README.md).
The benchmark is built from source with dune on every call (a no-op once
built); its last line of standard output is the JSON result.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["estimate-mix", "replay-warm"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "epoc"))):
        die("run from the root of an EPOC checkout (no dune-project or lib/epoc here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if r.returncode != 0:
        die("build failed")


def run_exe(args):
    """Run the benchmark, returning (exit code, stdout lines)."""
    r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True)
    return r.returncode, r.stdout.splitlines()


def result_of(lines):
    return json.loads(lines[-1])


def self_test():
    """Tiny-size checks of the benchmark itself; exits 1 if any check fails."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    def run(workload, seed, trace, *extra, seconds=1):
        code, lines = run_exe(
            ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)] + list(extra))
        check(code == 0, "%s seed %d trace %d exits 0" % (workload, seed, trace))
        return lines, result_of(lines)

    def digests(lines):
        return [l for l in lines if l.startswith(("inputs digest", "counters digest"))]

    # every metric is printed, by name, with its declared unit
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in WORKLOADS:
            lines, res = run(w, 1, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, "%s trace %d prints every %s metric with its unit" % (w, trace, key))
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  "%s trace %d result has exactly the four keys" % (w, trace))
            for name in want:
                check(any(l.split()[:1] == [name] for l in lines),
                      "%s trace %d report line for %s" % (w, trace, name))

    # the same seed repeats exactly; another seed changes the inputs (the
    # order of a fixed corpus, so enough jobs that two orders differ)
    a_lines, a = run("estimate-mix", 7, 0, seconds=10)
    b_lines, b = run("estimate-mix", 7, 0, seconds=10)
    c_lines, _ = run("estimate-mix", 8, 0, seconds=10)
    check(digests(a_lines) == digests(b_lines), "same seed: same inputs and exact counters")
    for name in ("latency_ns.geomean", "esp.geomean"):
        check(a["metrics"][name]["value"] == b["metrics"][name]["value"],
              "same seed: identical " + name)
    check(digests(a_lines)[0] != digests(c_lines)[0], "another seed: other inputs")

    # injected faults are counted, never fatal
    _, r = run("estimate-mix", 1, 0, "--inject", "corrupt-ir")
    check(r["failed"] >= 1 and not r["correct"], "corrupted pulse-IR counts as failed")
    _, r = run("estimate-mix", 1, 0, "--inject", "fault")
    check(r["failed"] >= 1 and not r["correct"], "degraded job (Config.fault) counts as failed")

    # a replay that differs from its cold fill is measured, not failed
    _, r = run("replay-warm", 1, 1, "--inject", "stale-cold")
    check(r["metrics"]["cache.replay_mismatch_share"]["value"] == 1.0 and r["correct"],
          "stale cold-fill reference reads as replay_mismatch_share 1, not as failed")

    print("self-test: %d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


def main(argv):
    build()
    if argv == ["--self-test"]:
        self_test()
    if "all" in argv:
        i = argv.index("all")
        for w in WORKLOADS:
            code, lines = run_exe(argv[:i] + [w] + argv[i + 1:])
            print("\n".join(lines))
            if code != 0:
                sys.exit(code)
        return
    os.execv(EXE, [EXE] + argv)


if __name__ == "__main__":
    main(sys.argv[1:])
