"""50-digit values of the gamma = 3 chart near the vacuum, by mpmath.

The oracle the chart and asymptotics tests share: the density from
Newton's method on atanh(rho) - rho = nu, then k, k' and k'' from their
closed forms, all at working precision before any rounding.
"""

from fractions import Fraction

import mpmath as mp
import numpy as np

from cavlab import _frozen


def chart_highprec(nu, dps: int = 50):
    """(rho, k, k', k'') at one nu via mpmath; test oracle precision."""
    nu = mp.mpf(repr(float(nu)))
    rho = mp.cbrt(3 * nu) - mp.mpf(3) / 5 * nu
    for _ in range(60):
        f = mp.atanh(rho) - rho - nu
        fp = rho ** 2 / (1 - rho ** 2)
        step = f / fp
        rho -= step
        if abs(step) < mp.mpf(10) ** (-dps + 5) * rho:
            break
    q2 = 1 - rho ** 2
    k = mp.sqrt(2) * mp.acos(mp.sqrt(2 * q2 - 1)) - mp.acos(mp.sqrt(2 - 1 / q2))
    kp = mp.sqrt(1 - 2 * rho ** 2) / rho ** 2
    kpp = -2 * q2 ** 2 / (rho ** 5 * mp.sqrt(1 - 2 * rho ** 2))
    return rho, k, kp, kpp


def k_highprec(nu_values, dps: int = 50):
    """High-precision k(nu) via mpmath, rounded to floats."""
    with mp.workdps(dps):
        return np.array([float(chart_highprec(nu, dps)[1])
                         for nu in nu_values])


def k_remainder_highprec(nu_values, dps: int = 50):
    """L(nu) = k - c_sharp nu^(1/3) - c_flat nu - c_l nu^(5/3), all in mp.

    The subtraction must happen before rounding: near nu = 1e-8 the
    remainder is ~1e-19 while k itself is ~1e-3.
    """
    out = []
    with mp.workdps(dps):
        c_sharp = mp.cbrt(3)
        c_flat = mp.mpf(Fraction(_frozen.C_FLAT).numerator) / Fraction(
            _frozen.C_FLAT).denominator
        num, den = _frozen.K_SERIES_T[5]
        c_l = mp.mpf(num) / den * mp.cbrt(3) ** 5
        for nu in nu_values:
            nu_m = mp.mpf(repr(float(nu)))
            k = chart_highprec(nu_m, dps)[1]
            L = k - c_sharp * mp.cbrt(nu_m) - c_flat * nu_m \
                - c_l * mp.cbrt(nu_m) ** 5
            out.append(float(L))
    return np.array(out)
