#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check-determinism [--seed N]

Run from the root of a checkout. The first form builds
perfbench/main.exe with dune, runs it once and passes its output
through: the last line is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when the
build fails or a correctness gate fails. The second form runs every
workload twice at a reduced, fixed size with the same seed and checks
that all counts (vends, epochs, refills, allocated words, journal
bytes, output digest) are equal. Journal and snapshot files go to a
fresh directory under .perfbench-runs/ that is removed afterwards.
See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["vend-burst", "durable-crash", "pool-refill"]
# Fixed work for the determinism check: enough to cross refills,
# restarts and, on durable-crash, snapshot rotations and a crash.
CHECK_UNITS = {"vend-burst": 300, "durable-crash": 4000, "pool-refill": 150}
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    needed = ["dune-project", "lib", os.path.join("perfbench", "dune")]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("the program's sources are missing: " + ", ".join(missing))
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam is on PATH")
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        dune + ["build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def run(workload, seed, seconds, trace, units=None, capture=False, tag=None):
    rundir = os.path.join(
        ROOT, ".perfbench-runs", tag or "%s-%d" % (workload, os.getpid())
    )
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--dir", rundir,
    ]
    if units:
        cmd += ["--units", str(units)]
    try:
        return subprocess.run(
            cmd,
            cwd=ROOT,
            timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None,
            text=True,
        )
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(rundir))
        except OSError:
            pass


def counts(stdout, label):
    prefix = "counts %s " % label
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def check_determinism(seed):
    ok = True
    for w in WORKLOADS:
        # The same directory name both times: paths are part of what
        # the run allocates.
        outs = [
            run(w, seed, 60, 0, CHECK_UNITS[w], capture=True, tag="check-" + w)
            for _ in range(2)
        ]
        got = [counts(o.stdout, "pass1") for o in outs]
        same = got[0] is not None and got[0] == got[1]
        codes = [o.returncode for o in outs]
        traced = run(w, seed, 60, 1, CHECK_UNITS[w], capture=True,
                     tag="check-" + w)
        print("%-14s %s exit=%s traced-exit=%d\n  %s\n  %s"
              % (w, "equal" if same else "DIFFERENT", codes,
                 traced.returncode, got[0], got[1]))
        ok = ok and same and codes == [0, 0] and traced.returncode == 0
    print("determinism: " + ("ok" if ok else "FAILED"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--check-determinism", action="store_true")
    args = ap.parse_args()
    if not args.check_determinism and args.workload is None:
        ap.error("--workload is required")
    build()
    if args.check_determinism:
        sys.exit(0 if check_determinism(args.seed) else 1)
    done = run(args.workload, args.seed, args.seconds, args.trace)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
