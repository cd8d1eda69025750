"""Accuracy of the iso maps on a workload's probe pairs, against an oracle.

The oracle integrates the geodesic speed |inv_jvp(a + t w, w)| with
``scipy.integrate.quad`` at rtol 1e-13, independently of the library's
fixed-panel Gauss-Legendre tables.  These numbers are computed outside the
timed passes; for a given seed they repeat exactly, so a change that buys
speed by loosening the quadrature shows up as a worse value.
"""

import numpy as np
from scipy.integrate import quad

import isogeo as ig

from workloads import speed_cv


def oracle_distance(M, x, y):
    a = M.diffeo.forward(x)
    w = M.diffeo.forward(y) - a

    def speed(t):
        return float(np.linalg.norm(M.diffeo.inv_jvp(a + t * w, w)))

    value, _ = quad(speed, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=500)
    return value


def measure(probes):
    """Largest distance error, exp-log round-trip error and speed cv over the pairs."""
    dist_rel_err = roundtrip_err = cv = 0.0
    for _, M, x, y in probes:
        exact = oracle_distance(M, x, y)
        dist_rel_err = max(dist_rel_err, abs(ig.iso_distance(M, x, y) - exact) / exact)
        back = ig.iso_exp(M, ig.iso_log(M, x, y))
        roundtrip_err = max(roundtrip_err, float(np.linalg.norm(back - y)))
        cv = max(cv, speed_cv(ig.speed_profile(M, x, y)))
    return {"dist_rel_err": dist_rel_err, "roundtrip_err": roundtrip_err,
            "speed_cv": cv}
