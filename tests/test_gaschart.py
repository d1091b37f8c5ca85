"""Coordinate-chart checks: round trips, endpoint values, identities."""

import math

import numpy as np
import pytest

import cavlab.gaschart as gc
from chart_oracle import k_highprec

K_AT_QCR = (math.sqrt(2.0) - 1.0) * math.pi / 2.0  # k at the sonic speed


def kprime_of_q(q):
    """dk/dq = -(1/q) sqrt((2q^2-1)/(1-q^2)); -0.0 at q_cr, -inf at q_cav.

    The derivative the quadrature oracle for k(q) integrates."""
    q = np.asarray(q, dtype=float)
    num = np.clip(2.0 * q * q - 1.0, 0.0, None)
    den = 1.0 - q * q
    with np.errstate(divide="ignore"):
        out = -np.sqrt(num / np.where(den > 0, den, np.inf)) / q
        out = np.where(den <= 0.0, np.where(num > 0, -np.inf, -0.0), out)
    return out if out.shape else float(out)


def test_constants():
    assert gc.Q_CR == pytest.approx(math.sqrt(0.5), abs=0)
    assert gc.RHO_CR == pytest.approx(math.sqrt(0.5), abs=0)
    assert gc.NU_CR == pytest.approx(math.atanh(math.sqrt(0.5)) - math.sqrt(0.5),
                                     abs=1e-16)
    assert gc.NU_CR > 0


def test_rho_of_q_examples():
    assert gc.rho_of_q(1.0) == 0.0
    assert gc.rho_of_q(1 / math.sqrt(2)) == pytest.approx(1 / math.sqrt(2),
                                                          abs=1e-15)
    assert gc.rho_of_q(0.9) == pytest.approx(math.sqrt(0.19), abs=1e-15)
    with pytest.raises(gc.ChartDomainError):
        gc.rho_of_q(1.5)


def test_nu_of_rho_against_quadrature():
    # independent oracle: adaptive quadrature of tau^2/(1-tau^2)
    from scipy.integrate import quad
    for rho in [0.5, gc.RHO_CR, 0.2, 0.04]:
        val, err = quad(lambda t: t * t / (1 - t * t), 0.0, rho,
                        epsabs=1e-15, epsrel=1e-14)
        assert gc.nu_of_rho(rho) == pytest.approx(val, abs=2e-12)
    assert gc.nu_of_rho(0.0) == 0.0
    assert gc.nu_of_rho(0.5) == pytest.approx(math.atanh(0.5) - 0.5, rel=1e-14)
    with pytest.raises(gc.ChartDomainError):
        gc.nu_of_rho(1.0)


def test_rho_of_nu_examples():
    assert gc.rho_of_nu(0.0) == 0.0
    assert gc.rho_of_nu(gc.NU_CR) == pytest.approx(gc.RHO_CR, abs=1e-12)
    r = gc.rho_of_nu(1e-6)
    assert r == pytest.approx((3e-6) ** (1 / 3), rel=1e-2)  # leading order
    assert abs(gc.nu_of_rho(r) - 1e-6) < 1e-12 * 1e-6 * 1e3  # residual
    with pytest.raises(gc.ChartDomainError):
        gc.rho_of_nu(-1e-3)


def test_round_trips_dense():
    nus = np.geomspace(1e-10, gc.NU_CR * 0.9999, 10_000)
    rho = gc.rho_of_nu(nus)
    assert np.max(np.abs(gc.nu_of_rho(rho) - nus) / nus) < 1e-11
    rhos = np.linspace(0.0, gc.RHO_CR, 10_000)
    assert np.max(np.abs(gc.rho_of_nu(gc.nu_of_rho(rhos)) - rhos)) < 1e-11
    qs = np.linspace(0.0, 1.0, 10_000)
    # the Bernoulli map sqrt(1 - x^2) is its own inverse
    assert np.max(np.abs(gc.rho_of_q(gc.rho_of_q(qs)) - qs)) < 1e-11
    inner = rhos[rhos < gc.RHO_CR - 1e-6]
    assert np.max(np.abs(gc.rho_of_sigma(gc.sigma_of_rho(inner)) - inner)) < 1e-11


def test_k_endpoints_exact():
    assert abs(gc.k_of_q(gc.Q_CAV)) < 1e-14
    assert abs(gc.k_of_q(gc.Q_CR) - K_AT_QCR) < 1e-14


def test_k_of_q_against_quadrature():
    # oracle: integrate -k'(q) from 1 down to q
    from scipy.integrate import quad
    for q in [0.9, 0.75, 0.999]:
        val, err = quad(lambda s: -kprime_of_q(s), q, 1.0,
                        epsabs=1e-13, points=[1.0])
        assert gc.k_of_q(q) == pytest.approx(val, abs=1e-10)


def test_kprime_of_q():
    # float sqrt branch point: 2 q_cr^2 - 1 rounds to ~2e-16, |k'| ~ 3e-8
    assert kprime_of_q(gc.Q_CR) == pytest.approx(0.0, abs=5e-8)
    q = 0.8
    assert kprime_of_q(q) == pytest.approx(-(1 / q) * math.sqrt(0.28 / 0.36),
                                              rel=1e-13)
    # finite-difference cross-check
    h = 1e-6
    fd = (gc.k_of_q(q + h) - gc.k_of_q(q - h)) / (2 * h)
    assert kprime_of_q(q) == pytest.approx(fd, abs=1e-7)
    assert kprime_of_q(1.0) == -math.inf


def test_kprime_divergence_rate_near_cavitation():
    # k'(q) ~ -(1-q^2)^(-1/2): log-log slope -1/2 against (1-q)
    eps = np.geomspace(1e-8, 1e-4, 20)
    vals = -kprime_of_q(1.0 - eps)
    slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.01)


def test_k_of_nu_vacuum_limits():
    nus = np.geomspace(1e-10, 1e-6, 8)
    assert np.allclose(gc.k_of_nu(nus) / nus ** (1 / 3), 3 ** (1 / 3),
                       rtol=1e-3)
    assert np.allclose(gc.kprime_of_nu(nus) * nus ** (2 / 3), 3 ** (-2 / 3),
                       rtol=1e-3)


def test_k_of_nu_full_precision_near_vacuum():
    # the closed-form composition k(q(rho(nu))) loses digits as q -> 1
    # (5e-9 relative at nu = 1e-12); k_of_nu keeps all of them
    nus = np.geomspace(1e-12, 1e-3, 25)
    ref = k_highprec(nus)
    assert np.max(np.abs(gc.k_of_nu(nus) / ref - 1.0)) <= 1e-14


def test_kprime_identity():
    # k'(nu)^2 = (M^2-1)/rho^2 on a log grid
    nus = np.geomspace(1e-8, 0.9 * gc.NU_CR, 500)
    rho = gc.rho_of_nu(nus)
    q = np.sqrt(1.0 - rho * rho)
    m = gc.mach(rho, q)
    lhs = gc.kprime_of_nu(nus) ** 2
    rhs = (m * m - 1.0) / rho ** 2
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-9


def test_monotonicity_and_concavity():
    rhos = np.linspace(1e-4, gc.RHO_CR - 1e-4, 200)
    assert np.all(np.diff(gc.nu_of_rho(rhos)) > 0)
    assert np.all(np.diff(gc.sigma_of_rho(rhos)) > 0)
    qs = np.linspace(gc.Q_CR, 1.0, 200)
    assert np.all(np.diff(gc.k_of_q(qs)) < 0)
    nus = np.geomspace(1e-6, 0.9 * gc.NU_CR, 200)
    assert np.all(gc.kprime_of_nu(nus) > 0)
    assert np.all(gc.kdoubleprime_of_nu(nus) < 0)


def test_chart_table_columns():
    chart = gc.GasChart()
    tab = chart.table(np.geomspace(1e-6, chart.nu_star, 16))
    assert set(tab) == {"nu", "rho", "q", "sigma", "k", "kprime",
                        "kdoubleprime", "M"}
    assert np.all(tab["M"] > 1.0)
    with pytest.raises(gc.ChartDomainError):
        gc.GasChart(nu_star=1.0)

