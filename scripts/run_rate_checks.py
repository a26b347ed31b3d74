#!/usr/bin/env python3
"""Analytic k^-1 rate checks for both predictors.

Writes out/trunc_rate.csv and out/ark_rate.csv; each row carries the
excess at one (d, k) plus the fitted log-log slope in k (expected near -1).
The limits of k * excess are c_of_d(d) for truncation and d^2 for the
fitted-AR(k) route.
"""

import pathlib
import sys

from longpred.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"


def run():
    OUT.mkdir(exist_ok=True)
    # the worst exit code, so that 0/1/2 keep their meaning
    return max(main(argv) for argv in (
        ["trunc-rate", "--d", "0.1,0.2,0.3,0.4",
         "--k-grid", "100,200,400,800,1600",
         "--out", str(OUT / "trunc_rate.csv")],
        ["ark-rate", "--d", "0.1,0.2,0.3,0.4",
         "--k-grid", "100,200,400,800,1600",
         "--out", str(OUT / "ark_rate.csv")],
    ))


if __name__ == "__main__":
    sys.exit(run())
