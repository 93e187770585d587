#!/usr/bin/env python3
"""Regenerate all figure data products into ./figure_data/.

Runs the five CLI exports at their default resolutions:

  map        parameter-space Heisenberg-area map, zero-skewness curve,
             localization border, constant-duration diagonals
  gallery    time/frequency wavelet gallery over beta, gamma in
             {1/3, 1, 3, 9, 27} with Gaussian/quartic approximants
  besselfit  the Morse member closest to the Bessel wavelet: the 100x100
             grid scan over beta 1..50, gamma 0.02..2, its refinement, and
             the trace of every evaluation
  curves     inverse Heisenberg area and Gaussian similarity vs duration
             for gamma = 1..6 and the Morlet wavelet
  limits     lognormal- and band-pass-limit sup deviations

Takes about 0.4 s on a 2-CPU Xeon VM (Python 3.11, numpy 2.4): map,
gallery and curves about 0.08 s each, besselfit about 0.05 s, the limits
well under 0.01 s, and start-up and import about 0.12 s.  None of the five
commands needs scipy, and none imports it.  Every table is short enough to
be formatted in-process, so everything runs in one thread.
"""

import sys
import time
from pathlib import Path

from morsekit.cli import main

OUT = Path("figure_data")


def run(label, argv):
    t0 = time.time()
    rc = main(argv)
    print(f"[{label}] exit={rc} ({time.time() - t0:.1f}s)")
    if rc != 0:
        sys.exit(rc)


if __name__ == "__main__":
    run("map", ["map", "--out", str(OUT / "map")])
    run("gallery", ["gallery", "--out", str(OUT / "gallery")])
    run("besselfit", ["besselfit", "--out", str(OUT / "besselfit")])
    run(
        "curves",
        ["curves", "--out", str(OUT / "curves"), "--pgrid", "0.5:0.05:8"],
    )
    run(
        "limits-lognormal",
        [
            "limits",
            "--pvalue", "3",
            "--gamma", "1,0.5,0.1,0.01",
            "--target", "lognormal",
            "--out", str(OUT / "limits_lognormal"),
        ],
    )
    run(
        "limits-shannon",
        [
            "limits",
            "--pvalue", "1.5",
            "--gamma", "100,1000",
            "--target", "shannon",
            "--out", str(OUT / "limits_shannon"),
        ],
    )
    print(f"wrote {OUT}/")
