"""Basis-function table: values, derivatives, recurrences, transforms."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, jv

import cavlab.gaschart as gc
from cavlab import kernelbasis as kb


def fhat_bessel(lam: int, xi):
    """Independent half-integer Bessel form c_lam |x|^(-lam-1/2) J_(lam+1/2).

    c_lam = sqrt(pi) 2^(lam+1/2) Gamma(lam+1) for lam >= 0 and
    c_{-n} = (-1)^(n-1)/(n-1)! sqrt(pi) 2^(1/2-n).
    """
    xi = np.abs(np.asarray(xi, dtype=float))
    if lam >= 0:
        c = math.sqrt(math.pi) * 2.0 ** (lam + 0.5) * gamma(lam + 1)
    else:
        n = -lam
        c = (-1.0) ** (n - 1) / gamma(n) * math.sqrt(math.pi) * 2.0 ** (0.5 - n)
    out = c * xi ** (-lam - 0.5) * jv(lam + 0.5, xi)
    return out if out.shape else float(out)


def G_physical(lam: int, nu, s):
    """Physical cone profile [k(nu)^2 - s^2]_+^lam for lam in {0, 1, 2}.

    Negative orders exist only as distributions.
    """
    if lam not in (0, 1, 2):
        raise ValueError("physical-space evaluation only for lam in {0,1,2}")
    k = np.asarray(gc.k_of_nu(nu), dtype=float)
    s = np.asarray(s, dtype=float)
    base = np.clip(k * k - s * s, 0.0, None)
    if lam == 0:
        out = (np.abs(s) <= k).astype(float)
    else:
        out = base ** lam
    return out if out.shape else float(out)


def Ghat(lam: int, nu, xi):
    """Ghat_lam(nu, xi) = k^(1+2 lam) fhat_lam(xi k)."""
    k = np.asarray(gc.k_of_nu(nu), dtype=float)
    return k ** (1 + 2 * lam) * kb.fhat(lam, np.asarray(xi) * k)


def test_values_at_zero():
    assert kb.fhat(0, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert kb.fhat(-2, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert kb.fhat(1, 0.0) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert kb.fhat(2, 0.0) == pytest.approx(16.0 / 15.0, abs=1e-15)
    assert kb.fhat(-1, 0.0) == 1.0
    assert kb.fhat(-3, 0.0) == pytest.approx(3.0 / 8.0, abs=1e-15)


def test_fhat1_at_pi():
    assert kb.fhat(1, math.pi) == pytest.approx(4.0 / math.pi ** 2, rel=1e-14)
    # quadrature oracle: fhat_1 = FT of (1-s^2)_+
    val, _ = quad(lambda s: (1 - s * s) * math.cos(math.pi * s), -1, 1,
                  epsabs=1e-14)
    assert kb.fhat(1, math.pi) == pytest.approx(val, abs=1e-12)


def test_dispatch_matches_highprec_across_cut():
    import mpmath as mp

    def exact(lam, x):
        x = mp.mpf(repr(x))
        s, c = mp.sin(x), mp.cos(x)
        return float({
            0: 2 * s / x,
            1: 4 * (s / x - c) / x ** 2,
            2: 16 * (3 * s / x ** 2 - 3 * c / x - s) / x ** 3,
            -1: c,
            -2: (x * s + c) / 2,
            -3: (3 * c + 3 * x * s - x * x * c) / 8,
        }[lam])

    with mp.workdps(40):
        for lam in kb.ORDERS:
            for x in [1e-5, 0.25, 0.4999, 0.5001, 1.0, 3.0, 25.0]:
                assert kb.fhat(lam, x) == pytest.approx(
                    exact(lam, x), rel=1e-11, abs=1e-12), (lam, x)


def _closed_mp(lam, x):
    """fhat_lam at an mpmath number x, from its closed trig form."""
    import mpmath as mp
    s, c = mp.sin(x), mp.cos(x)
    return {
        0: 2 * s / x,
        1: 4 * (s / x - c) / x ** 2,
        2: 16 * (3 * s / x ** 2 - 3 * c / x - s) / x ** 3,
        -1: c,
        -2: (x * s + c) / 2,
        -3: (3 * c + 3 * x * s - x * x * c) / 8,
    }[lam]


def _series_points(cut):
    """Points below an order's series cut, up to the last float below it."""
    below = float(np.nextafter(cut, 0.0))
    return np.concatenate([[0.0, 1e-300, 1e-8, 1e-3, below, -below],
                           np.linspace(-0.9998 * cut, 0.9998 * cut, 61)])


def test_series_match_exact_rational_series():
    # below each order's cut fhat, fhat' and fhat'' are the exact rational
    # series summed at 50 digits, to a few ulp of the sum of |terms|
    import mpmath as mp
    exact = kb._trig_series(kb._SERIES_TERMS)
    eps = np.finfo(float).eps
    with mp.workdps(50):
        for lam in kb.ORDERS:
            cut = kb._SERIES_CUT[lam]
            points = _series_points(cut)
            for d, fn in enumerate((kb.fhat, kb.fhat_d1, kb.fhat_d2)):
                got = fn(lam, points)
                for x, g in zip(points, got):
                    X = mp.mpf(float(x))
                    terms = [mp.mpf(c.numerator) / c.denominator
                             * X ** (2 * i + (d == 1))
                             for i, c in enumerate(exact[lam][d])]
                    scale = mp.fsum(abs(t) for t in terms)
                    err = abs(mp.mpf(float(g)) - mp.fsum(terms))
                    assert err <= 4 * eps * scale, (lam, d, x)
            # the truncated series is the function itself at the cut
            for d in range(3):
                x = mp.mpf(cut)
                terms = [mp.mpf(c.numerator) / c.denominator
                         * x ** (2 * i + (d == 1))
                         for i, c in enumerate(exact[lam][d])]
                ref = mp.diff(lambda t: _closed_mp(lam, t), x, d)
                assert abs(mp.fsum(terms) - ref) < 1e-20, (lam, d)


def test_every_order_near_its_cut_against_50_digits():
    # on |x| in [1/2, 2], both sides of every cut: fhat, fhat' and fhat''
    # of each order to 1e-14 of their size there.  The closed forms of
    # orders 1 and 2 alone would miss this by up to 8e-11 (fhat_2'' at
    # 1/2), which is why their series reach out to |x| = 2
    import mpmath as mp
    x = np.concatenate([np.linspace(0.5, 2.0, 61), [np.nextafter(2.0, 0.0)],
                        np.nextafter([0.5, 2.0], 3.0), [-0.7, -1.6]])
    with mp.workdps(50):
        for lam in kb.ORDERS:
            for d, fn in enumerate((kb.fhat, kb.fhat_d1, kb.fhat_d2)):
                ref = np.array([float(mp.diff(
                    lambda t: _closed_mp(lam, t), mp.mpf(float(v)), d))
                    for v in x])
                err = np.abs(fn(lam, x) - ref)
                assert err.max() <= 1e-14 * np.abs(ref).max(), (lam, d)


def test_series_values_depend_on_own_point_only():
    # the power tables come in blocks; no value depends on the others
    x = np.linspace(-0.49, 0.49, 9001)
    for lam in kb.ORDERS:
        for fn in (kb.fhat, kb.fhat_d1, kb.fhat_d2):
            whole = fn(lam, x)
            assert np.array_equal(whole[4090:4100], fn(lam, x[4090:4100]))
            assert whole[4096] == fn(lam, x[4096])


def test_series_memory_is_per_block():
    # one power table for every point would hold 10^6 x 18 floats (144 MB)
    x = np.linspace(-0.49, 0.49, 10 ** 6)
    tracemalloc.start()
    try:
        kb.fhat(0, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes * kb._SERIES_TERMS / 4


def test_evenness():
    xs = np.linspace(0.01, 40.0, 500)
    for lam in kb.ORDERS:
        assert np.allclose(kb.fhat(lam, xs), kb.fhat(lam, -xs), rtol=0,
                           atol=1e-14)


def test_against_bessel_oracle():
    xs = np.concatenate([np.geomspace(1e-3, 1.0, 50), np.linspace(1, 50, 200)])
    for lam in kb.ORDERS:
        a = kb.fhat(lam, xs)
        b = fhat_bessel(lam, xs)
        assert np.allclose(a, b, rtol=1e-10, atol=1e-10), lam


def test_derivatives_against_series_and_fd():
    xs = np.linspace(0.05, 30.0, 400)
    h = 1e-6
    for lam in kb.ORDERS:
        fd1 = (kb.fhat(lam, xs + h) - kb.fhat(lam, xs - h)) / (2 * h)
        assert np.allclose(kb.fhat_d1(lam, xs), fd1, atol=5e-8 * (1 + xs.max()))
        fd2 = (kb.fhat_d1(lam, xs + h) - kb.fhat_d1(lam, xs - h)) / (2 * h)
        assert np.allclose(kb.fhat_d2(lam, xs), fd2, atol=5e-8 * (1 + xs.max()))


def test_boundedness_and_decay_envelopes():
    xs = np.linspace(0.0, 500.0, 20_000)
    for lam in (-1, 0, 1, 2):
        assert np.max(np.abs(kb.fhat(lam, xs))) < 3.0
    # decay |fhat_2| <= C (1+x)^-3 etc.
    for lam, p in ((0, 1), (1, 2), (2, 3)):
        C = np.max(np.abs(kb.fhat(lam, xs)) * (1 + xs) ** p)
        assert C < 60.0
    # local-boundedness envelopes for the negative orders
    assert np.max(np.abs(kb.fhat(-2, xs)) / (1 + xs ** 2)) < 1.0
    assert np.max(np.abs(kb.fhat(-3, xs)) / ((1 + xs ** 2) * (1 + xs))) < 1.0


def test_recurrence_report():
    rep = kb.check_recurrences()
    assert rep["pass"], rep["failed"]
    assert rep["max_defect"] < 1e-10
    # exact harmonic relation at order -1
    assert rep["relations"]["dd_ladder[-1]"] < 1e-14
    # defect of d1[0] at xi = 1 is exact trig arithmetic
    x = np.array([1.0])
    d = kb.fhat_d1(0, x) + kb.fhat(0, x) / x - 2 * kb.fhat(-1, x) / x
    assert abs(d[0]) < 1e-14


def test_G_physical_and_transform_identity():
    rng = np.random.default_rng(7)
    # G0 is the cone indicator
    assert G_physical(0, 0.01, 0.0) == 1.0
    k = gc.k_of_nu(0.01)
    assert G_physical(0, 0.01, k * 1.01) == 0.0
    # integral of G1 = (4/3) k^3 = Ghat_1(nu, 0)
    for nu in (0.01, 0.05):
        k = gc.k_of_nu(nu)
        val, _ = quad(lambda s: G_physical(1, nu, s), -k, k, epsabs=1e-14)
        assert val == pytest.approx(4.0 * k ** 3 / 3.0, rel=1e-12)
        assert Ghat(1, nu, 0.0) == pytest.approx(val, rel=1e-12)
    # Ghat_n = k^(1+2n) fhat_n(xi k) against direct quadrature for n >= 0
    for _ in range(20):
        nu = float(rng.uniform(0.005, 0.08))
        xi = float(rng.uniform(-30, 30))
        k = gc.k_of_nu(nu)
        for lam in (0, 1, 2):
            num, _ = quad(lambda s: G_physical(lam, nu, s)
                          * math.cos(xi * s), 0.0, k, epsabs=1e-13,
                          limit=200)
            assert Ghat(lam, nu, xi) == pytest.approx(
                2 * num, abs=2e-12), (lam, nu, xi)
    with pytest.raises(ValueError):
        G_physical(-1, 0.01, 0.0)


def test_negative_order_transform_identity():
    # for negative orders the identity is checked against the Bessel forms
    rng = np.random.default_rng(11)
    for _ in range(20):
        nu = float(rng.uniform(0.005, 0.08))
        xi = float(rng.uniform(0.1, 30))
        k = gc.k_of_nu(nu)
        for lam in (-3, -2, -1):
            lhs = Ghat(lam, nu, xi)
            rhs = k ** (1 + 2 * lam) * fhat_bessel(lam, xi * k)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-11)
