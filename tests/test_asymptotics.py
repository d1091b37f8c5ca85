"""Near-vacuum series, jets, and the frozen-constant oracle.

The exact rational series that `cavlab/_frozen.py` freezes are derived
here, and `frozen_text` renders that file from them.  Regenerate it with

    PYTHONPATH=src python tests/test_asymptotics.py
"""

from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import cavlab.gaschart as gc
from cavlab import _frozen, vacuum
from chart_oracle import chart_highprec, k_highprec, k_remainder_highprec


# ----------------------------------------------------------------------
# Exact rational power-series helpers (coefficient lists, ascending).
# ----------------------------------------------------------------------

def _pmul(a, b, n):
    out = [Fraction(0)] * n
    for i, ai in enumerate(a):
        if i >= n or ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j >= n:
                break
            out[i + j] += ai * bj
    return out


def _psqrt_unit(a, n):
    # sqrt(a) with a[0] == 1, Newton iteration on series
    out = [Fraction(0)] * n
    out[0] = Fraction(1)
    for i in range(1, n):
        acc = a[i] if i < len(a) else Fraction(0)
        for j in range(1, i):
            acc -= out[j] * out[i - j]
        out[i] = acc / 2
    return out


def rational_chart_series(order: int = vacuum.SERIES_ORDER):
    """Exact series, in t = (3*nu)**(1/3), of the density and of k.

    Returns (rho_t, k_t): coefficient lists of Fractions, ascending powers
    of t, both odd series.  rho solves  sum_{j>=1} rho**(2j+1)/(2j+1) = nu
    = t**3/3;  k is the speed integral  int_0^rho sqrt(1-2s^2)/(1-s^2) ds
    composed with rho(t).
    """
    n = order
    # nu(rho)*3 = rho^3 * (1 + 3/5 rho^2 + 3/7 rho^4 + ...) =: rho^3 * S(rho^2)
    # Solve rho(t) from rho * S(rho^2)^(1/3) = t by Newton on series.
    # Work with the odd series rho(t) = t*(1 + correction in t^2).
    m = n // 2 + 2  # order in the squared variable
    S = [Fraction(3, 2 * j + 3) for j in range(m)]  # S[0]=1, S[1]=3/5, ...
    # cube root of S via Newton: R^3 = S, R[0]=1
    R = [Fraction(0)] * m
    R[0] = Fraction(1)
    for i in range(1, m):
        # (R^3)[i] = S[i]; isolate 3*R[i]
        acc = S[i]
        R3 = _pmul(_pmul(R, R, i + 1), R, i + 1)
        acc -= R3[i]
        R[i] = acc / 3
    # Now t = rho * R(rho^2); invert for rho = t * U(t^2):
    # t/rho = R(rho^2) with rho^2 = t^2*U^2 -> U * R(t^2 U^2) = 1.
    U = [Fraction(0)] * m
    U[0] = Fraction(1)
    for i in range(1, m):
        # coefficient i of U*R(x*U^2) must vanish (x = t^2)
        U2 = _pmul(U, U, m)
        xU2 = [Fraction(0)] + U2[: m - 1]
        # R(y) = 1 + sum_{j>=1} R[j] y^j with y = xU2
        Rfull = [Fraction(1)] + [Fraction(0)] * (m - 1)
        ypow = [Fraction(1)] + [Fraction(0)] * (m - 1)
        for j in range(1, m):
            ypow = _pmul(ypow, xU2, m)
            for idx in range(m):
                Rfull[idx] += R[j] * ypow[idx]
        prod = _pmul(U, Rfull, m)
        # prod must equal [1,0,0,...]; correct U[i] (prod[i] depends on U[i]
        # linearly with unit coefficient at this order)
        U[i] -= prod[i]
    rho_sq = _pmul(U, U, m)
    # k as a function of rho: integrand sqrt(1-2s^2)/(1-s^2), even in s
    A = [Fraction(0)] * m
    A[0] = Fraction(1)
    A[1] = Fraction(-2)  # 1 - 2 s^2  in the squared variable
    B = [Fraction(1)] * m  # 1/(1-s^2) = sum s^(2j)
    integrand_sq = _pmul(_psqrt_unit(A, m), B, m)
    # k(rho) = sum_j integrand_sq[j] * rho^(2j+1) / (2j+1)
    kq = [integrand_sq[j] / (2 * j + 1) for j in range(m)]
    # compose with rho(t) = t*U(t^2):  rho^(2j+1) = t^(2j+1) U^(2j+1)(t^2)
    # k(t) = t*U(t^2) * sum_j kq[j] * (t^2 U(t^2)^2)^j
    xU2 = _pmul([Fraction(0), Fraction(1)] + [Fraction(0)] * (m - 2), rho_sq, m)
    acc = [Fraction(0)] * m
    ypow = [Fraction(1)] + [Fraction(0)] * (m - 1)
    acc[0] = kq[0]
    for j in range(1, m):
        ypow = _pmul(ypow, xU2, m)
        for idx in range(m):
            acc[idx] += kq[j] * ypow[idx]
    k_even = _pmul(U, acc, m)
    # expand back to odd series in t
    rho_t = [Fraction(0)] * n
    k_t = [Fraction(0)] * n
    for j in range(m):
        if 2 * j + 1 < n:
            rho_t[2 * j + 1] = U[j]
            k_t[2 * j + 1] = k_even[j]
    return rho_t, k_t


def frozen_text() -> str:
    """The text of `cavlab/_frozen.py`, from the exact rational series."""
    rho_t, k_t = rational_chart_series(vacuum.SERIES_ORDER)
    assert k_t[1] == 1, "leading k coefficient must be exactly 1"
    c_flat = 3 * k_t[3]
    c_l = float(k_t[5]) * 3.0 ** (5.0 / 3.0)
    c_next = float(k_t[7]) * 3.0 ** (7.0 / 3.0)
    lines = [
        '"""Frozen near-vacuum series constants (generated; do not edit).',
        "",
        "Derived by frozen_text in tests/test_asymptotics.py from exact",
        "rational series inversion of the renormalized density followed by",
        "term-by-term integration of the characteristic-speed derivative.",
        '"""',
        "",
        f"C_FLAT = {float(c_flat)!r}  # exactly {c_flat}",
        f"C_L = {c_l!r}  # exactly {k_t[5]} * 3**(5/3)",
        f"C_SERIES_NEXT = {c_next!r}  # nu**(7/3) coefficient, exactly {k_t[7]} * 3**(7/3)",
        "",
        "# k(t) = sum_j a_j t**j with t = (3 nu)**(1/3); (numerator, denominator)",
        "K_SERIES_T = [",
    ]
    for a in k_t:
        lines.append(f"    ({a.numerator}, {a.denominator}),")
    lines.append("]")
    lines.append("")
    lines.append("# rho(t) likewise")
    lines.append("RHO_SERIES_T = [")
    for a in rho_t:
        lines.append(f"    ({a.numerator}, {a.denominator}),")
    lines.append("]")
    lines.append("")
    return "\n".join(lines)


def test_rational_oracle_reproduces_frozen_file():
    rho_t, k_t = rational_chart_series(vacuum.SERIES_ORDER)
    assert [(a.numerator, a.denominator) for a in k_t] == _frozen.K_SERIES_T
    assert [(a.numerator, a.denominator) for a in rho_t] == _frozen.RHO_SERIES_T
    assert k_t[1] == Fraction(1)  # c_sharp = 3**(1/3) exactly
    assert 3 * k_t[3] == Fraction(_frozen.C_FLAT).limit_denominator(10)


def test_frozen_file_is_generated():
    # "generated; do not edit": the file is frozen_text() byte for byte
    assert Path(_frozen.__file__).read_bytes() == frozen_text().encode()


def test_fit_asymptotic_constants():
    # the frozen constants against a least-squares fit of k on
    # {nu^(1/3), nu, nu^(5/3)} at 40 log-spaced nu in [1e-8, 1e-4], from
    # 50-digit closed-form samples; the remainder of the frozen series
    # stays inside a C nu^(7/3) envelope
    nus = np.geomspace(1e-8, 1e-4, 40)
    basis = np.stack([nus ** (1 / 3), nus, nus ** (5 / 3)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, k_highprec(nus), rcond=None)
    fit_c_sharp, fit_c_flat, fit_c_l = (float(c) for c in coef)
    envelope_C = float(np.max(np.abs(k_remainder_highprec(nus))
                              / nus ** (7 / 3)))
    assert vacuum.C_SHARP == pytest.approx(3 ** (1 / 3), abs=0)
    assert fit_c_sharp == pytest.approx(3 ** (1 / 3), abs=1e-8)
    # the 3-term fit omits the nu^(7/3) remainder; on [1e-8, 1e-4] that
    # contaminates c_flat at ~nu_hi^(4/3) and c_l at ~nu_hi^(2/3)
    assert fit_c_flat == pytest.approx(_frozen.C_FLAT, rel=1e-4)
    assert fit_c_l == pytest.approx(_frozen.C_L, rel=1e-2)
    assert envelope_C < 10 * abs(_frozen.C_SERIES_NEXT)


def test_remainder_slope():
    # L(nu) = k - c_sharp nu^(1/3) - c_flat nu - c_l nu^(5/3) of order nu^(7/3)
    nus = np.geomspace(1e-8, 1e-4, 25)
    L = k_remainder_highprec(nus)
    slope = np.polyfit(np.log(nus), np.log(np.abs(L)), 1)[0]
    assert slope >= 7 / 3 - 0.05


def test_cancellation_slope():
    # (2k'^2 + k k'') - (10/9) c_sharp c_flat nu^(-2/3) - c_tilde = O(nu^(2/3))
    c_sharp, c_flat, c_l = 3 ** (1 / 3), _frozen.C_FLAT, _frozen.C_L
    c_tilde = (28 / 9) * c_sharp * c_l + 2 * c_flat ** 2
    nus = np.geomspace(1e-8, 1e-4, 25)
    vals = []
    with mp.workdps(50):
        for nu in nus:
            nu_m = mp.mpf(repr(float(nu)))
            _, k, kp, kpp = chart_highprec(nu_m)
            expr = 2 * kp ** 2 + k * kpp \
                - mp.mpf(10) / 9 * c_sharp * c_flat * nu_m ** mp.mpf("-2/3") \
                - c_tilde
            vals.append(float(expr))
    slope = np.polyfit(np.log(nus), np.log(np.abs(vals)), 1)[0]
    assert slope >= 2 / 3 - 0.05


def test_series_matches_closed_forms_in_overlap():
    k_ser, rho_ser = vacuum.characteristic_series()
    nus = np.geomspace(1e-5, vacuum.NU_SERIES_SWITCH, 40)
    assert np.allclose(k_ser(nus), gc.k_of_nu(nus), rtol=1e-11, atol=0)
    assert np.allclose(rho_ser(nus), gc.rho_of_nu(nus), rtol=1e-11, atol=0)
    kp_ser = k_ser.dnu()
    assert np.allclose(kp_ser(nus), gc.kprime_of_nu(nus), rtol=1e-10, atol=0)
    kpp_ser = kp_ser.dnu()
    assert np.allclose(kpp_ser(nus), gc.kdoubleprime_of_nu(nus), rtol=1e-9,
                       atol=0)


def test_cube_root_series_algebra():
    k_ser, _ = vacuum.characteristic_series()
    nus = np.geomspace(1e-7, 1e-4, 9)
    prod = k_ser * k_ser
    assert np.allclose(prod(nus), k_ser(nus) ** 2, rtol=1e-13)
    kp = k_ser.dnu()  # leading power w**(-2) keeps w**1 after power(-1/2)
    inv_sqrt = kp.power(-0.5)
    assert np.allclose(inv_sqrt(nus), kp(nus) ** -0.5, rtol=1e-10)
    integ = k_ser.dnu().integrate0()
    assert np.allclose(integ(nus), k_ser(nus), rtol=1e-12)


def test_taylor_jet_algebra():
    f = vacuum.TaylorJet(np.array([2.0, 1.0, 0.5, -0.25, 0.1]))
    sq = f * f
    assert np.allclose(sq.c, f.power(2.0).c, rtol=1e-13)
    div = sq / f
    assert np.allclose(div.c, f.c, rtol=1e-13)
    root = sq.power(0.5)
    assert np.allclose(root.c, f.c, rtol=1e-13)


def test_jet_and_series_share_the_derivative():
    # both arithmetics take derivatives through dnu(); just above the
    # switch the jets of the closed forms and the cube-root series agree
    # on k, k' and k''
    k_ser, _ = vacuum.characteristic_series()
    nus = vacuum.NU_SERIES_SWITCH * np.array([1.05, 1.5, 2.2])
    k0 = gc.k_of_nu(nus)
    k_jet, kp_jet = vacuum.speed_coefficient_jets(gc.rho_of_nu(nus), k0, 6)
    jet, ser = k_jet, k_ser
    for _ in range(3):
        assert np.allclose(jet.c[:, 0], ser(nus), rtol=1e-13, atol=0)
        jet, ser = jet.dnu(), ser.dnu()
    assert np.array_equal(kp_jet.integral(k0).c, k_jet.c)


def test_density_jet_matches_highprec_derivatives():
    rho0 = 0.35
    nu0 = float(np.arctanh(rho0) - rho0)
    jet = vacuum.density_jet(rho0, 6)

    def rho_of_nu_mp(nu):
        r = mp.mpf("0.35")
        for _ in range(80):
            f = mp.atanh(r) - r - nu
            r -= f / (r ** 2 / (1 - r ** 2))
        return r

    with mp.workdps(40):
        for j in range(6):
            fd = float(mp.diff(rho_of_nu_mp, mp.mpf(repr(nu0)), j))
            assert jet.derivative(j) == pytest.approx(fd, rel=1e-12)


def test_speed_jets_match_highprec_derivatives():
    rho0 = 0.45
    nu0 = float(np.arctanh(rho0) - rho0)
    k0 = gc.k_of_nu(nu0)
    kjet, kpjet = vacuum.speed_coefficient_jets(rho0, k0, 7)

    def k_of_nu_mp(nu):
        r = mp.mpf("0.45")
        for _ in range(80):
            f = mp.atanh(r) - r - nu
            r -= f / (r ** 2 / (1 - r ** 2))
        q2 = 1 - r ** 2
        return mp.sqrt(2) * mp.acos(mp.sqrt(2 * q2 - 1)) - mp.acos(
            mp.sqrt(2 - 1 / q2))

    with mp.workdps(40):
        for j in range(1, 7):
            fd = float(mp.diff(k_of_nu_mp, mp.mpf(repr(nu0)), j))
            assert kjet.derivative(j) == pytest.approx(fd, rel=1e-11)


BATCH_NUS = np.geomspace(2.0 * vacuum.NU_SERIES_SWITCH, gc.NU_CR / 2.0, 6)


def test_batched_speed_jets_match_highprec():
    # value, c[1] and 2 c[2] of the k jet are k, k' and k'' at each node
    rho = gc.rho_of_nu(BATCH_NUS)
    kjet, _ = vacuum.speed_coefficient_jets(rho, gc.k_of_nu(BATCH_NUS), 10)
    assert kjet.c.shape == (len(BATCH_NUS), 12)
    with mp.workdps(50):
        for i, nu in enumerate(BATCH_NUS):
            _, k, kp, kpp = chart_highprec(nu)
            for got, want in ((kjet.c[i, 0], k), (kjet.c[i, 1], kp),
                              (2.0 * kjet.c[i, 2], kpp)):
                assert got == pytest.approx(float(want), rel=1e-12)


def test_batched_jets_equal_single_points():
    # one jet over an array of base points is the same arithmetic as one
    # jet per point: identical coefficients, element for element
    rho = gc.rho_of_nu(BATCH_NUS)
    k = gc.k_of_nu(BATCH_NUS)
    def jets(rho, k):
        return (*vacuum.speed_coefficient_jets(rho, k, 10),
                vacuum.density_jet(rho, 10))
    batch = jets(rho, k)
    derived = (batch[0] * batch[0]).power(-1.0) * batch[1].power(0.5) \
        / batch[2]
    for i in range(len(BATCH_NUS)):
        single = jets(float(rho[i]), float(k[i]))
        for got, want in zip(batch, single):
            assert want.c.ndim == 1
            assert np.array_equal(got.c[i], want.c)
        want = (single[0] * single[0]).power(-1.0) * single[1].power(0.5) \
            / single[2]
        assert np.array_equal(derived.c[i], want.c)


if __name__ == "__main__":
    Path(_frozen.__file__).write_text(frozen_text())
