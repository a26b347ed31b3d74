#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one pass of each workload, requires its checks to pass, then perturbs
the outputs and requires the checks to catch each perturbation:

* fi-risk with every C(d) of the cd-curve artifacts halved;
* fi-risk with every ark-rate estimate scaled by 1 + 1e-6;
* farima-risk with one autocovariance lag scaled by 1 + 1e-7;
* mc-paths at a second master seed, which must still pass every check.

Exits 0 when every case behaves as stated, 1 otherwise.
"""

import shutil
import sys

import run  # fixes the thread settings before numpy loads


def outputs(name, seed):
    wl, workdir = run.setup(name, seed)
    try:
        _, raws, failed = run.run_pass(wl, None)
        if failed:
            raise SystemExit(f"{name}: {failed} operations failed")
        return wl, wl.parse({op.key: op.collect(raws[op.key]) for op in wl.ops})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def scaled(table, col, factor, row=None):
    """A copy of a parsed artifact with one column (or one cell) scaled."""
    meta, columns, rows = table
    rows = rows.copy()
    j = columns.index(col)
    if row is None:
        rows[:, j] *= factor
    else:
        rows[row, j] *= factor
    return meta, columns, rows


def main():
    results = []

    def expect(label, fails, caught, marker=""):
        ok = (any(marker in f for f in fails) if caught else not fails)
        results.append(ok)
        detail = fails[0] if fails else "no check failed"
        print(f"{'ok' if ok else 'FAILED'}  {label}: {detail}")

    fi, out = outputs("fi-risk", 1)
    expect("fi-risk as computed passes", fi.check(out), caught=False)
    bad = dict(out, cd=scaled(out["cd"], "C(d)", 0.5),
               cd_quarter=scaled(out["cd_quarter"], "C(d)", 0.5))
    expect("fi-risk with C(d) halved is caught", fi.check(bad), True, "C(")
    bad = dict(out, ark=scaled(out["ark"], "estimate", 1.0 + 1e-6))
    expect("fi-risk with ark_excess * (1 + 1e-6) is caught", fi.check(bad),
           True, "ark_excess")

    fa, out = outputs("farima-risk", 1)
    expect("farima-risk as computed passes", fa.check(out), caught=False)
    key = "farima_1d0.acov1000"
    acov = out[key].copy()
    acov[500] *= 1.0 + 1e-7
    expect("farima-risk with sigma(500) * (1 + 1e-7) is caught",
           fa.check(dict(out, **{key: acov})), True, "exact_autocov")

    for seed in (1, 2):
        mc, out = outputs("mc-paths", seed)
        expect(f"mc-paths at master seed {seed} passes", mc.check(out),
               caught=False)

    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
