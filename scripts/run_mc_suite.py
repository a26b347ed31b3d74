#!/usr/bin/env python3
"""The full Monte Carlo suite at deskside settings: 6-9 s and a peak RSS
of 63 MB on a 2-core host (Python 3.11, numpy 2.4, scipy 1.17).  The
sampler streams blocks of paths into each consumer, at most 2^16
embedding values or one embedding a block, so the peak holds one of the
longest paths (65536 values, coeffcov_high), not all 400 of them.
Reruns write the same bytes, whatever the BLAS thread count.

Artifacts in out/:
* estimation_error.csv - wk-plugin vs exact predictor MSE over T (slope -1)
* coeffcov_low.csv     - ark-plugin MSE over T at d=0.1 (slope -1)
* coeffcov_high.csv    - ark-plugin MSE over T at d=0.4 on a wide T grid
                         (slope 4d-2; the regime needs T >= 8192)
* covmoment_low.csv / covmoment_high.csv - lag-0 estimator MSE over n
* whittle_mc.csv       - replicated Whittle fits at d=0.3
* total_error.csv      - method excess vs estimation error on a (k, T) grid
"""

import pathlib
import sys

from longpred.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"


def run():
    OUT.mkdir(exist_ok=True)
    # the worst exit code, so that 0/1/2 keep their meaning
    return max(main(argv) for argv in (
        ["estimation-error", "--d", "0.1", "--k", "8",
         "--t-grid", "1024,2048,4096,8192", "--reps", "200",
         "--seed", "1234", "--out", str(OUT / "estimation_error.csv")],
        ["coeffcov-mc", "--d", "0.1", "--k", "8",
         "--t-grid", "1024,2048,4096,8192", "--reps", "200",
         "--seed", "1234", "--out", str(OUT / "coeffcov_low.csv")],
        ["coeffcov-mc", "--d", "0.4", "--k", "8",
         "--t-grid", "8192,16384,32768,65536", "--reps", "400",
         "--seed", "77", "--out", str(OUT / "coeffcov_high.csv")],
        ["covmoment-mc", "--d", "0.1",
         "--n-grid", "1024,2048,4096,8192", "--reps", "200",
         "--seed", "1234", "--out", str(OUT / "covmoment_low.csv")],
        ["covmoment-mc", "--d", "0.4",
         "--n-grid", "1024,2048,4096,8192", "--reps", "200",
         "--seed", "1234", "--out", str(OUT / "covmoment_high.csv")],
        ["whittle-mc", "--d", "0.3", "--t", "4096", "--reps", "100",
         "--seed", "2024", "--out", str(OUT / "whittle_mc.csv")],
        ["total-error", "--d", "0.2", "--k-grid", "8,16,32",
         "--t-grid", "512,1024,2048,4096", "--reps", "100",
         "--seed", "7", "--out", str(OUT / "total_error.csv")],
    ))


if __name__ == "__main__":
    sys.exit(run())
