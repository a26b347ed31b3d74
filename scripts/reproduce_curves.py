#!/usr/bin/env python3
"""Regenerate the two headline curves as CSV artifacts in out/:

* cd_curve.csv    - the k^-1 truncation-rate constant over d in [0.01, 0.49]
* ratio_curve.csv - the AR(k)-over-truncation improvement ratio r(k) on a
                    (d, k) grid

Plot with any CSV-aware tool; the files carry reproducibility headers.
"""

import pathlib
import sys

from longpred.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"


def run():
    OUT.mkdir(exist_ok=True)
    # the worst exit code, so that 0/1/2 keep their meaning
    return max(main(argv) for argv in (
        ["cd-curve", "--d-min", "0.01", "--d-max", "0.49",
         "--steps", "49", "--out", str(OUT / "cd_curve.csv")],
        ["ratio-curve",
         "--d", "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45",
         "--k", "5,10,20,50,100",
         "--out", str(OUT / "ratio_curve.csv")],
    ))


if __name__ == "__main__":
    sys.exit(run())
