"""Self-test of the reference checks: a wrong reference must raise fail_ratio.

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs one round of every workload twice: once against the true
references, once with every reference value shifted by WRONG_BY.  Exits
0 only if the first pass has fail_ratio 0 and the second fail_ratio 1,
that is, if every check can fail.
"""

import os
import shutil
import sys
import tempfile

import run

WRONG_BY = 1.0
SEED = 0


def fail_ratio(workload, workdir, bias):
    records, _, _ = run.run_rounds(workload, SEED, workdir, rounds=1, bias=bias)
    return len(run.failures(records)) / len(records), len(records)


def main():
    if not os.path.isfile(os.path.join(run.SRC, "envq", "__init__.py")):
        print(f"error: no envq sources under {run.SRC}", file=sys.stderr)
        return 2
    run.cap_blas_threads()
    os.makedirs(run.OUT, exist_ok=True)
    ok = True
    for workload in run.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix=f"selftest-{workload}-", dir=run.OUT)
        try:
            run.setup(workload, SEED, workdir)
            clean, n = fail_ratio(workload, workdir, 0.0)
            wrong, _ = fail_ratio(workload, workdir, WRONG_BY)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        passed = clean == 0.0 and wrong == 1.0
        ok = ok and passed
        print(f"{workload:16s} {n:3d} tasks  fail_ratio {clean:.3f} with true references, "
              f"{wrong:.3f} with references off by {WRONG_BY:g}  {'ok' if passed else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
