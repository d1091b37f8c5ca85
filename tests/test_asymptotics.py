"""Near-vacuum series, jets, and the frozen-constant oracle."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import cavlab.gaschart as gc
from cavlab import _frozen, vacuum


def k_highprec(nu, dps=50):
    return vacuum._k_highprec(np.atleast_1d(nu), dps=dps)


def test_rational_oracle_reproduces_frozen_file():
    rho_t, k_t = vacuum.rational_chart_series(vacuum.SERIES_ORDER)
    assert [(a.numerator, a.denominator) for a in k_t] == _frozen.K_SERIES_T
    assert [(a.numerator, a.denominator) for a in rho_t] == _frozen.RHO_SERIES_T
    assert k_t[1] == Fraction(1)  # c_sharp = 3**(1/3) exactly
    assert 3 * k_t[3] == Fraction(_frozen.C_FLAT).limit_denominator(10)


def test_fit_asymptotic_constants():
    ac = vacuum.fit_asymptotic_constants()
    assert ac.c_sharp == pytest.approx(3 ** (1 / 3), abs=0)
    assert ac.fit_c_sharp == pytest.approx(3 ** (1 / 3), abs=1e-8)
    # the 3-term fit omits the nu^(7/3) remainder; on [1e-8, 1e-4] that
    # contaminates c_flat at ~nu_hi^(4/3) and c_l at ~nu_hi^(2/3)
    assert ac.fit_c_flat == pytest.approx(ac.c_flat, rel=1e-4)
    assert ac.fit_c_l == pytest.approx(ac.c_l, rel=1e-2)
    assert ac.envelope_C < 10 * abs(_frozen.C_SERIES_NEXT)


def test_remainder_slope():
    # L(nu) = k - c_sharp nu^(1/3) - c_flat nu - c_l nu^(5/3) of order nu^(7/3)
    nus = np.geomspace(1e-8, 1e-4, 25)
    L = vacuum._k_remainder_highprec(nus)
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
            _, k, kp, kpp = vacuum._chart_highprec(nu_m)
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
    total = k_ser + 2.5 - k_ser
    assert np.allclose(total(nus), 2.5, rtol=1e-12)
    integ = k_ser.dnu().integrate0()
    assert np.allclose(integ(nus), k_ser(nus), rtol=1e-12)


def test_taylor_jet_algebra():
    f = vacuum.TaylorJet(np.array([2.0, 1.0, 0.5, -0.25, 0.1]))
    sq = f * f
    assert np.allclose(sq.c, f.power(2.0).c, rtol=1e-13)
    div = sq / f
    assert np.allclose(div.c, f.c, rtol=1e-13)
    root = sq.sqrt()
    assert np.allclose(root.c, f.c, rtol=1e-13)


def test_jet_and_series_share_the_derivative():
    # both arithmetics take derivatives through dnu(); just above the
    # switch the jets of the closed forms and the cube-root series agree
    # on k, k' and k''
    k_ser, _ = vacuum.characteristic_series()
    nus = vacuum.NU_SERIES_SWITCH * np.array([1.05, 1.5, 2.2])
    k0 = gc.k_of_nu(nus)
    k_jet, kp_jet, _ = vacuum.speed_coefficient_jets(gc.rho_of_nu(nus), k0, 6)
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
    kjet, kpjet, _ = vacuum.speed_coefficient_jets(rho0, k0, 7)

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
    kjet, _, _ = vacuum.speed_coefficient_jets(rho, gc.k_of_nu(BATCH_NUS),
                                               10)
    assert kjet.c.shape == (len(BATCH_NUS), 12)
    with mp.workdps(50):
        for i, nu in enumerate(BATCH_NUS):
            _, k, kp, kpp = vacuum._chart_highprec(nu)
            for got, want in ((kjet.c[i, 0], k), (kjet.c[i, 1], kp),
                              (2.0 * kjet.c[i, 2], kpp)):
                assert got == pytest.approx(float(want), rel=1e-12)


def test_batched_jets_equal_single_points():
    # one jet over an array of base points is the same arithmetic as one
    # jet per point: identical coefficients, element for element
    rho = gc.rho_of_nu(BATCH_NUS)
    k = gc.k_of_nu(BATCH_NUS)
    batch = vacuum.speed_coefficient_jets(rho, k, 10)
    derived = (batch[0] * batch[0]).power(-1.0) * batch[1].sqrt() / batch[2]
    for i in range(len(BATCH_NUS)):
        single = vacuum.speed_coefficient_jets(float(rho[i]), float(k[i]), 10)
        for got, want in zip(batch, single):
            assert want.c.ndim == 1
            assert np.array_equal(got.c[i], want.c)
        want = (single[0] * single[0]).power(-1.0) * single[1].sqrt() \
            / single[2]
        assert np.array_equal(derived.c[i], want.c)
