"""Entropy generators/pairs: identities, admissibility, kernel closure."""

import math

import numpy as np
import pytest

import cavlab.gaschart as gc
from cavlab import entropy as en

Q_INF = 0.9
RHO_INF = math.sqrt(1 - Q_INF ** 2)
NU_BAR = gc.nu_of_rho(RHO_INF)


def generator_pde_residual(gen, nu_points, theta_points) -> float:
    """Sup residual of H_nunu = k'(nu)^2 H_thetatheta at sample points.

    H_nunu comes from Richardson-extrapolated centered differences of
    H_nu (the one derivative not provided analytically), with steps nu/100
    and nu/200; the achievable tolerance is the generator evaluation noise
    divided by the step.
    """
    worst = 0.0
    for nu in np.atleast_1d(nu_points):
        for th in np.atleast_1d(theta_points):
            def D(h):
                return float(gen.d(1, 0, nu + h, th)
                             - gen.d(1, 0, nu - h, th)) / (2 * h)
            h = nu * 1e-2
            hnn = (4.0 * D(h / 2) - D(h)) / 3.0
            target = gc.kprime_of_nu(nu) ** 2 * gen.d(0, 2, nu, th)
            scale = max(abs(float(target)), 1.0)
            worst = max(worst, abs(float(hnn - target)) / scale)
    return worst


@pytest.fixture(scope="module")
def chart():
    return gc.GasChart()


@pytest.fixture(scope="module")
def gen_star(chart):
    return en.special_generator(chart, NU_BAR)


@pytest.fixture(scope="module")
def pair_star():
    return en.special_pair(NU_BAR)


@pytest.fixture(scope="module")
def gen_kernel(regular, singular):
    return en.kernel_generator(regular, singular, 0.5, 0.5)


class TestSpecialGenerator:
    def test_Htt_is_one(self, gen_star):
        nus = np.geomspace(1e-5, 0.08, 7)
        ths = np.linspace(-1, 1, 5)
        assert np.all(gen_star.d(0, 2, nus[:, None], ths[None, :]) == 1.0)

    def test_N_properties(self):
        assert en.N_of_rho(RHO_INF, RHO_INF) == 0.0
        rhos = np.linspace(0.0, gc.RHO_CR, 4001)
        assert np.max(np.abs(en.N_of_rho(rhos, RHO_INF))) <= math.sqrt(2) + 1e-12

    def test_Hnu_identity(self, gen_star):
        # rho H_nu + H_tt = rho N(rho) exactly
        nus = np.geomspace(1e-6, 0.17, 60)
        rho = np.asarray(gc.rho_of_nu(nus))
        lhs = rho * gen_star.d(1, 0, nus, 0.3) + 1.0
        assert np.max(np.abs(lhs - rho * en.N_of_rho(rho, RHO_INF))) < 1e-12

    def test_pde_exact(self, gen_star):
        res = generator_pde_residual(gen_star, [1e-3, 1e-2, 5e-2],
                                     [0.0, 0.5])
        assert res < 1e-3  # limited by the finite-difference probe

    def test_domain_error(self, gen_star):
        with pytest.raises(en.GeneratorDomainError):
            gen_star.d(0, 0, 0.5, 0.0)
        with pytest.raises(en.GeneratorDomainError):
            en.special_generator(gc.GasChart(), 1.0)

    @pytest.mark.parametrize("i, j", [(2, 0), (0, 5), (-1, 0), (0, -1)])
    def test_order_outside_set(self, gen_star, i, j):
        # derivatives exist for i <= 1, j <= 4 only, whatever the state
        with pytest.raises(en.GeneratorDomainError, match="lacks derivative"):
            gen_star.d(i, j, 1e-3, 0.0)


def _counting(gen, calls):
    """gen with each derivative order counting its calls in calls[(i, j)]."""
    def derivative(i, j, nu, theta):
        calls[(i, j)] = calls.get((i, j), 0) + 1
        return gen.derivative(i, j, nu, theta)
    return en.Generator(derivative, gen.nu_range)


class TestLoewnerMorawetz:
    def test_special_pair_consistency(self, gen_star, pair_star):
        rng = np.random.default_rng(42)
        q = rng.uniform(gc.Q_CR + 1e-3, 1 - 1e-3, 50)
        th = rng.uniform(-0.6, 0.6, 50)
        rho = np.asarray(gc.rho_of_q(q))
        q1, q2 = en.loewner_morawetz(gen_star, rho, th)
        p1, p2 = pair_star(rho, th)
        assert np.abs(q1 - p1).max() <= 1e-9
        assert np.abs(q2 - p2).max() <= 1e-9

    def test_grid_against_special_pair_one_evaluation(self, gen_star,
                                                      pair_star):
        # a (nu x theta) grid by broadcasting; H_nu and H_theta are each
        # evaluated once, on every state at once
        calls = {}
        gen = _counting(gen_star, calls)
        rho = np.asarray(gc.rho_of_nu(np.geomspace(1e-6, 0.17, 9)))[:, None]
        th = np.linspace(-0.8, 0.8, 7)
        q1, q2 = en.loewner_morawetz(gen, rho, th)
        assert q1.shape == q2.shape == (9, 7)
        p1, p2 = pair_star(rho, th)
        assert np.abs(q1 - p1).max() <= 1e-12
        assert np.abs(q2 - p2).max() <= 1e-12
        assert calls == {(1, 0): 1, (0, 1): 1}

    def test_special_pair_values(self, pair_star):
        q1, q2 = pair_star(RHO_INF, 0.0)
        assert q1 == pytest.approx(-Q_INF, abs=1e-14)
        assert q2 == 0.0
        # theta = 0 forces Q2 = 0 for any density
        assert pair_star(0.3, 0.0)[1] == 0.0

    def test_constant_generator_gives_zero(self, chart):
        def derivative(i, j, nu, th):
            return np.full(np.broadcast_shapes(np.shape(nu), np.shape(th)),
                           1.0 if (i, j) == (0, 0) else 0.0)
        g = en.Generator(derivative, (0.0, gc.NU_CR))
        q1, q2 = en.loewner_morawetz(g, gc.rho_of_q(0.85), 0.4)
        assert q1 == 0.0 and q2 == 0.0

    def test_angle_generator(self, chart):
        # H = theta: Q = q e(theta + pi/2)
        def derivative(i, j, nu, th):
            shape = np.broadcast_shapes(np.shape(nu), np.shape(th))
            if (i, j) == (0, 0):
                return np.broadcast_to(th, shape).copy()
            return np.full(shape, 1.0 if (i, j) == (0, 1) else 0.0)
        g = en.Generator(derivative, (0.0, gc.NU_CR))
        q1, q2 = en.loewner_morawetz(g, gc.rho_of_q(0.85), 0.4)
        assert q1 == pytest.approx(-0.85 * math.sin(0.4), abs=1e-14)
        assert q2 == pytest.approx(0.85 * math.cos(0.4), abs=1e-14)

    def test_linearity(self, gen_star, chart):
        combo = en.Generator.combination([(2.0, gen_star), (-0.5, gen_star)])
        rho = gc.rho_of_q(0.88)
        q1a, q2a = en.loewner_morawetz(gen_star, rho, -0.2)
        q1b, q2b = en.loewner_morawetz(combo, rho, -0.2)
        assert q1b == pytest.approx(1.5 * q1a, rel=1e-12)
        assert q2b == pytest.approx(1.5 * q2a, rel=1e-12)


class TestConvexity:
    def test_check_is_the_least_margin(self, gen_kernel):
        nus = np.geomspace(1e-4, gen_kernel.nu_range[1] * 0.98, 5)
        ths = np.linspace(-0.5, 0.5, 4)
        c1, c2 = en.admissibility_margins(gen_kernel, nus, ths)
        assert c1.shape == c2.shape == (5, 4)
        rep = en.convexity_check(gen_kernel, nus, ths)
        assert rep["margin_convexity"] == c1.min()
        assert rep["margin_cross"] == c2.min()
        # each state's margins are those of its own 1 x 1 grid
        for i in (0, 4):
            for j in (0, 3):
                one = en.admissibility_margins(gen_kernel, nus[i:i + 1],
                                               ths[j:j + 1])
                assert one[0][0, 0] == pytest.approx(c1[i, j], rel=1e-12)
                assert one[1][0, 0] == pytest.approx(c2[i, j], rel=1e-12)

    def test_special_margins(self, gen_star, chart):
        rep = en.convexity_check(gen_star,
                                 np.geomspace(1e-4, 0.08, 10),
                                 np.linspace(-1.0, 1.0, 9))
        assert rep["admissible"]
        assert rep["margin_convexity"] == pytest.approx(1.0, abs=1e-12)

    def test_flipped_fails(self, gen_star):
        neg = en.Generator.combination([(-1.0, gen_star)])
        rep = en.convexity_check(neg, np.geomspace(1e-4, 0.08, 6),
                                 np.linspace(-1.0, 1.0, 5))
        assert not rep["admissible"]
        assert rep["margin_convexity"] == pytest.approx(-1.0, abs=1e-12)

    def test_kernel_perturbation_admissible(self, gen_star, gen_kernel):
        # the safe admixture size is set by the kernel generator's own
        # derivative bounds (the smoothed kernels reach ~1/sigma^3)
        nus = np.geomspace(1e-4, gen_kernel.nu_range[1] * 0.98, 8)
        ths = np.linspace(-0.5, 0.5, 7)
        mix, c = en.admissible_kernel_mix(gen_star, gen_kernel, nus, ths)
        assert c > 0
        rep = en.convexity_check(mix, nus, ths)
        assert rep["admissible"], (c, rep)
        # and five times the safe size must break admissibility somewhere
        big = en.Generator.combination([(1.0, gen_star),
                                        (40 * c, gen_kernel)])
        rep_big = en.convexity_check(big, nus, ths)
        assert not rep_big["admissible"]


class TestKernelGenerator:
    def test_pde_closure(self, gen_kernel):
        res = generator_pde_residual(gen_kernel, [5e-3, 2e-2, 6e-2],
                                     [0.0, 0.3])
        assert res < 5e-3  # limited by the finite-difference probe

    def test_compactness_bounds(self, gen_kernel, chart):
        lo, hi = gen_kernel.nu_range
        rep = en.compactness_bounds_check(
            gen_kernel, chart, np.geomspace(lo * 1.001, hi * 0.999, 24),
            np.linspace(-1.0, 1.0, 17))
        assert rep["stable"], rep
        assert np.isfinite(rep["C_combination"])

    def test_special_compactness(self, gen_star, chart):
        # rho H*_nu + H*_tt = rho N: family 1 constant is sup|N| <= sqrt(2)
        rep = en.compactness_bounds_check(
            gen_star, chart, nu_grid=np.geomspace(1e-6, 0.08, 30),
            theta_grid=np.linspace(-1, 1, 11))
        assert rep["C_combination"] <= math.sqrt(2) + 1e-9
        assert rep["stable"]


def test_divergence_chain_rule(chart, gen_star, pair_star):
    # For smooth fields, div_x Q = (rho H_nutheta - H_theta) V2
    #                            + (H_nu + H_thetatheta/rho) V1
    # with V1 = div(rho q e(theta)), V2 = div(q e(theta - pi/2)).
    def rho_f(x, y):
        return 0.42 + 0.03 * np.sin(x) * np.cos(2 * y)

    def th_f(x, y):
        return 0.1 * np.cos(x + y)

    def flux1(x, y):
        r = rho_f(x, y)
        q = np.sqrt(1 - r * r)
        t = th_f(x, y)
        return r * q * np.cos(t), r * q * np.sin(t)

    def flux2(x, y):
        r = rho_f(x, y)
        q = np.sqrt(1 - r * r)
        t = th_f(x, y)
        return q * np.sin(t), -q * np.cos(t)

    def div_of(F, x, y, h=1e-6):
        fx = (F(x + h, y)[0] - F(x - h, y)[0]) / (2 * h)
        fy = (F(x, y + h)[1] - F(x, y - h)[1]) / (2 * h)
        return fx + fy

    def Q_of(x, y):
        return np.array(pair_star(rho_f(x, y), th_f(x, y)))

    rng = np.random.default_rng(5)
    for _ in range(12):
        x, y = rng.uniform(-1, 1, 2)
        h = 1e-6
        divQ = (Q_of(x + h, y)[0] - Q_of(x - h, y)[0]) / (2 * h) \
            + (Q_of(x, y + h)[1] - Q_of(x, y - h)[1]) / (2 * h)
        V1 = div_of(flux1, x, y)
        V2 = div_of(flux2, x, y)
        r = rho_f(x, y)
        nu = gc.nu_of_rho(r)
        t = th_f(x, y)
        rhs = (r * gen_star.d(1, 1, nu, t) - gen_star.d(0, 1, nu, t)) * V2 \
            + (gen_star.d(1, 0, nu, t) + gen_star.d(0, 2, nu, t) / r) * V1
        assert divQ == pytest.approx(float(rhs), rel=2e-5, abs=1e-8)
