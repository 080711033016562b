#!/usr/bin/env python3
"""Emit transient-temperature trajectories that settle onto distinct isotherms.

Runs three N = 3, theta = pi/4 walks whose asymptotic temperature ratios
T/T_0 are 0.8, 1.0, and 1.1, writing one time series per ratio.  The
gamma angles for the 0.8 and 1.1 targets are found by bisection on the
phi = 0 cut of the asymptotic chi map; gamma = pi lands exactly on the
reference isotherm.
"""

import math
import sys

from cyclewalk import WalkParams, asymptotic_density_localized, chi_of_density
from cyclewalk import beta_of_chi, chi_reference
from cyclewalk.cli import main


def gamma_for_ratio(ratio: float, lo: float, hi: float) -> float:
    chi_ref = chi_reference(3, math.pi / 4)
    target = (math.tanh(beta_of_chi(chi_ref, 1.0) / ratio) / 2) ** 2

    def chi_at(g: float) -> float:
        return chi_of_density(
            asymptotic_density_localized(WalkParams(3, math.pi / 4, g, 0.0))
        )

    f_lo = chi_at(lo) - target
    for _ in range(80):
        mid = (lo + hi) / 2
        if (f_lo < 0) == ((chi_at(mid) - target) < 0):
            lo, f_lo = mid, chi_at(mid) - target
        else:
            hi = mid
    return (lo + hi) / 2


if __name__ == "__main__":
    targets = {
        "0.8": gamma_for_ratio(0.8, 1e-6, math.pi / 4),
        "1.0": math.pi,
        "1.1": gamma_for_ratio(1.1, math.pi / 4, 3 * math.pi / 4),
    }
    code = 0
    for label, gamma in targets.items():
        args = [
            "simulate",
            "--n", "3",
            "--gamma", repr(gamma),
            "--phi", "0",
            "--t-max", "500",
            "--out", f"transient_ratio_{label}.csv",
        ]
        code = max(code, main(args + sys.argv[1:]))
    sys.exit(code)
