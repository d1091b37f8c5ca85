"""Kernel construction: coefficients, remainder, assembly, estimates."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import cavlab.gaschart as gc
from cavlab import entropy as en
from cavlab import kernelbasis as kb
from cavlab import kernelengine as ke
from cavlab._frozen import C_FLAT, C_L
from cavlab._spline import CubicSpline

C_SHARP = 3.0 ** (1.0 / 3.0)


@pytest.fixture(scope="module")
def chart():
    return gc.GasChart()


@pytest.fixture(scope="module")
def model(chart):
    return ke.CoefficientModel(chart)


# Every coefficient column as the former per-node (scalar jet) build gave
# it on the default 241-node grid at nu_star = nu_cr/2, at the rows
# PINNED_ROWS: two series rows, the last series and the first jet row
# around the switch (row 182), and two jet rows up to nu_star.
PINNED_ROWS = (120, 181, 182, 211, 240)
PINNED = {
    "alpha0": (
        6.534430113990312e-06, 0.0007042524792338248, 0.0007603577848773475,
        0.006997902027776731, 0.06558714262481057),
    "alpha0p": (
        0.7498900328779226, 0.7475740335868126, 0.7474507645933061,
        0.7402355979894966, 0.8106237745385795),
    "alpha0pp": (
        -8.40364052899034, -1.6666170221856094, -1.6188840929114865,
        -0.5312392787530363, 3.2092779102274975),
    "alpha1": (
        7.188793492007298e-10, 1.7262474500936385e-06, 1.959616390726384e-06,
        7.284203239419554e-05, -0.0018017814706710498),
    "alpha1p": (
        0.00013745847243236493, 0.003031888644011314, 0.003185888583151722,
        0.012134593229070675, -0.17203866681733354),
    "alpha1pp": (
        10.504482822675405, 2.0821629507436823, 2.0224135864563744,
        0.6457823747956286, -9.815680011638582),
    "ell": (
        6.783856252324632e-05, 0.001108326988329911, 0.0011915296829836386,
        0.018266723645666838, 5.80408262385421),
    "beta0": (
        2.0008816018180036, 2.020400639850592, 2.0214959252900933,
        2.1027819546705016, 2.7512728185692583),
    "beta0p": (
        67.51471275034888, 14.766090430803512, 14.425675910061909,
        8.081573224741058, 11.133998642864618),
    "beta0pp": (
        -2573245.0159270037, -4781.288241502537, -4303.983811864854,
        -159.6307528370697, 134.6239328057504),
    "beta1": (
        -0.5000139657765017, -0.4999442477050242, -0.49991847877920137,
        -0.49097875251997436, 0.45624385898733244),
    "beta1p": (
        -1.013765821645531, 0.3315042254472221, 0.3549412515992233,
        1.6232532384185927, 37.24233764218036),
    "beta1pp": (
        47184.8700585677, 320.98625394574634, 303.97158819812125,
        123.12359901826248, 1469.6993488351993),
    "beta2": (
        -0.35606069296561915, -0.40015371336022443, -0.4027540923717155,
        -0.6390087823843589, -12.266476970366927),
    "beta2p": (
        -145.36186459483693, -34.964144134522705, -34.33967560324846,
        -28.24457244971694, -542.1336454312079),
    "beta2pp": (
        5492176.864650119, 8821.388797520633, 7848.277670744895,
        -496.02809488323845, -28616.544122938223),
    "ell2": (
        19.4621135285439, 23.05212241710026, 23.27012927361866,
        45.73977201460546, 4040.168898685158),
}


def series_coeff(ser, wpow):
    idx = wpow - ser.lead
    return ser.c[idx] if 0 <= idx < len(ser.c) else 0.0


class TestCoefficientAsymptotics:
    """Leading constants of the coefficient functions near the vacuum."""

    def test_alpha0_leading(self, model):
        a0 = model.series["alpha0"]
        assert series_coeff(a0, 3) == pytest.approx(0.75, rel=1e-12)
        # the nu^(2/3) correction is ~2e-5 at nu = 1e-7
        nus = np.geomspace(1e-9, 1e-7, 5)
        assert np.allclose(a0(nus) / nus, 0.75, rtol=1e-4)

    def test_alpha_chain(self, model):
        a0 = model.series["alpha0"]
        a1 = model.series["alpha1"]
        C00, C01, C02 = (series_coeff(a0, p) for p in (3, 5, 7))
        assert C01 == pytest.approx(C00 * C_FLAT / (2 * C_SHARP), rel=1e-10)
        assert C02 == pytest.approx(
            C00 * (11 / 8 * (C_FLAT / C_SHARP) ** 2 - C_L / (2 * C_SHARP)),
            rel=1e-9)
        C10, C11 = series_coeff(a1, 5), series_coeff(a1, 7)
        assert C10 == pytest.approx(-1.25 * C01, rel=1e-10)
        assert C11 == pytest.approx(
            C10 * ((7 / 3) * (2 * C02 / (5 * C01) - C_FLAT / (2 * C_SHARP))
                   + 3 * C_FLAT / (2 * C_SHARP)), rel=1e-9)

    def test_ell_cancellation(self, model):
        # ell = -(alpha1'' + 5/4 alpha0''): the nu^(-1/3) terms cancel,
        # leaving |ell| + nu |ell'| <= C nu^(1/3)
        ell = model.series["ell"]
        assert ell.lead == 1
        nus = np.geomspace(1e-8, 1e-3, 40)
        vals = np.abs(ell(nus)) + nus * np.abs(model.series["ell"].dnu()(nus))
        assert np.max(vals / nus ** (1 / 3)) < 0.1

    def test_beta_chain(self, model):
        b0 = model.series["beta0"]
        b1 = model.series["beta1"]
        C00, C01 = series_coeff(b0, 0), series_coeff(b0, 2)
        # calibrated d0 doubles the paper normalization: C_b0,0 = 2
        assert C00 == pytest.approx(2.0, rel=1e-12)
        assert C01 == pytest.approx(-(5 * C_FLAT / (2 * C_SHARP)) * C00,
                                    rel=1e-10)
        C10, C11 = series_coeff(b1, 0), series_coeff(b1, 2)
        assert C10 == pytest.approx(-C01 / (2 * C_SHARP ** 2), rel=1e-10)
        ell1 = model.series["ell1"]
        assert series_coeff(ell1, -2) == pytest.approx(
            (10 / 3) * C10 * C_SHARP * C_FLAT + (10 / 9) * C11 * C_SHARP ** 2,
            rel=1e-9)
        b2 = model.series["beta2"]
        assert series_coeff(b2, 0) == pytest.approx(
            -9 / 8 * C_SHARP ** -4 * series_coeff(ell1, -2), rel=1e-9)

    def test_ell2_bounded(self, model):
        ell2 = model.series["ell2"]
        nus = np.geomspace(1e-8, 1e-3, 30)
        vals = np.abs(ell2(nus)) + nus ** (1 / 3) * np.abs(
            ell2.dnu()(nus))
        # fitted constant: ell2 -> 19.3 and nu^(1/3) ell2' -> ~310 at zero
        assert np.max(vals) < 1e3

    def test_beta1_ode(self, model):
        # 2 b1' k' k + b1 (4 k'^2 + k'' k) = beta0''/2 as series
        s = model.series
        k, kp, kpp = s["k"], s["kp"], s["kpp"]
        b1, b1p = s["beta1"], s["beta1p"]
        lhs = 2.0 * (b1p * kp * k) + b1 * (4.0 * (kp * kp) + kpp * k)
        rhs = 0.5 * s["beta0pp"]
        nus = np.geomspace(1e-8, 1e-4, 9)
        assert np.allclose(lhs(nus), rhs(nus), rtol=1e-12)

    def test_series_jet_consistency(self, model):
        # both evaluation branches agree just above the switch point
        grid = np.array([1.05e-3, 2e-3, 4e-3])
        cols = model.rows("regular", grid)
        for name in ("alpha0", "alpha0p", "alpha1", "ell"):
            ser = model.series[name](grid)
            assert np.allclose(cols[name], ser, rtol=1e-7), name


class TestCoefficientRows:
    """The batched row build: cost per array, values as before."""

    @pytest.mark.parametrize("kind", ["regular", "singular"])
    def test_chart_solved_once_per_array(self, model, chart, kind,
                                         monkeypatch):
        calls = []
        rho_of_nu = gc.rho_of_nu

        def counting(nu):
            calls.append(np.size(nu))
            return rho_of_nu(nu)
        monkeypatch.setattr(gc, "rho_of_nu", counting)
        counts = []
        for n_nu in (61, 241):
            calls.clear()
            nus = ke.GridSpec(n_nu=n_nu).nu_grid(chart.nu_star)
            model.rows(kind, nus)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 12, counts

    @pytest.mark.parametrize("kind", ["regular", "singular"])
    def test_rows_match_pinned_values(self, model, chart, kind):
        nus = ke.GridSpec().nu_grid(chart.nu_star)
        cols = model.rows(kind, nus)
        assert set(cols) <= set(PINNED)
        for name, col in cols.items():
            got = col[list(PINNED_ROWS)]
            tol = 1e-10 * np.max(np.abs(col))
            assert np.max(np.abs(got - PINNED[name])) <= tol, name

    @pytest.mark.parametrize("kind", ["regular", "singular"])
    def test_rows_below_switch_are_series(self, model, kind):
        nus = np.geomspace(1e-8, 5e-4, 5)
        for name, col in model.rows(kind, nus).items():
            ser = (model.series[name[:-2]].dnu().dnu()
                   if name.endswith("pp") else model.series[name])
            assert np.array_equal(col, ser(nus)), name

    def test_unknown_kind_is_rejected(self, model, chart):
        nus = ke.GridSpec(n_nu=81).nu_grid(chart.nu_star)
        with pytest.raises(ValueError, match="'foo'"):
            model.rows("foo", nus)
        # a table whose forcing column exists must not be read as "foo"
        coeffs = ke.build_singular_coeffs(chart, grid=ke.GridSpec(n_nu=81))
        with pytest.raises(ValueError, match="'foo'"):
            ke.integrate_remainder("foo", coeffs, [1.0])


class TestGrids:
    @pytest.mark.parametrize("xi_max", (2.0, 4.0))
    def test_xi_grid_must_increase(self, xi_max):
        # the log part starts where the linear part ends (XI_LINEAR_FACTOR
        # = 4); an xi_max_factor at or below it folds the grid back
        with pytest.raises(ValueError, match="not strictly increasing"):
            ke.GridSpec(xi_max_factor=xi_max)
        xi = ke.GridSpec(xi_max_factor=4.5).xi_grid(2.0)
        assert np.all(np.diff(xi) > 0)


class TestRemainderODE:
    def test_xi_zero_double_integral(self, chart):
        coeffs = ke.build_regular_coeffs(chart, grid=ke.GridSpec(n_nu=121))
        nu_eval, y, yp = ke.integrate_remainder("regular", coeffs, 0.0)[:3]
        w = coeffs.nu_grid ** (1 / 3)
        ell_spl = CubicSpline(w, coeffs.columns["ell"])
        for idx in (60, 90, 120):
            nu = nu_eval[idx]
            val, _ = quad(lambda t: (nu - t) * ell_spl(t ** (1 / 3)) * 16 / 15,
                          coeffs.nu_grid[0], nu, epsabs=1e-14, limit=200)
            assert y[idx] == pytest.approx(val, rel=5e-7, abs=1e-16)

    def test_energy_inequality(self, regular, singular):
        for tr in (regular, singular):
            rep = ke.verify_energy_inequality(tr)
            assert rep["pass"], rep

    def test_energy_ratio_is_resolved(self, regular, singular, monkeypatch):
        # the reported ratio is a measured value: it does not move when
        # the remainder is integrated 100 times more tightly
        loose = [ke.verify_energy_inequality(tr)["max_ratio"]
                 for tr in (regular, singular)]
        integrate = ke.integrate_remainder
        monkeypatch.setattr(ke, "integrate_remainder",
                            lambda *args, **kw: integrate(
                                *args, **{**kw, "rtol": 1e-12}))
        tight = [ke.verify_energy_inequality(tr)["max_ratio"]
                 for tr in (regular, singular)]
        assert tight == pytest.approx(loose, rel=1e-8, abs=0.0)
        # the regular maximum sits where the remainder is ~1e-17
        assert loose[0] == pytest.approx(0.93600945, abs=1e-8)

    def test_refinement_drift(self, regular, singular):
        # the default tolerances hold the columns xi = 0.7 and 4 of each
        # kind's forcing to 1e-6 of a 100 times tighter solve
        for tr in (regular, singular):
            xi = np.array([0.7, 4.0])
            _, y, _ = ke.integrate_remainder(tr.kind, tr.coeffs, xi)
            _, y2, _ = ke.integrate_remainder(tr.kind, tr.coeffs, xi,
                                              rtol=1e-12, atol=1e-16)
            drift = np.max(np.abs(y - y2), axis=0) / np.maximum(
                np.max(np.abs(y2), axis=0), 1e-300)
            assert np.max(drift) < 1e-6, tr.kind

    def test_linearity(self, chart):
        # doubling the forcing doubles the remainder (integrator-level)
        coeffs = ke.build_regular_coeffs(chart, grid=ke.GridSpec(n_nu=81))
        doubled = coeffs.scaled(2.0)
        for xi in (0.0, 7.0):
            _, y1, _ = ke.integrate_remainder("regular", coeffs, xi)[:3]
            _, y2, _ = ke.integrate_remainder("regular", doubled, xi)[:3]
            # independent adaptive step sequences agree to integrator level
            assert np.allclose(y2, 2.0 * y1, rtol=1e-6,
                               atol=1e-6 * np.abs(y1).max())

    # A failed integration must raise, naming the xi values it carried.
    # The stepper fails in one way: the step that meets the tolerance falls
    # below the spacing of floats at nu.  It gets there through steps
    # rejected for a NaN error, or with finite values at a large jump.
    _FAILED = ("xi=5.0, 7.5: required step size is less than spacing "
               "between numbers at t=")

    def test_failure_reporting(self, chart):
        # a NaN forcing column
        coeffs = ke.build_regular_coeffs(chart, grid=ke.GridSpec(n_nu=81))
        coeffs.columns["ell"] = np.full_like(coeffs.columns["ell"], np.nan)
        with pytest.raises(RuntimeError, match=self._FAILED):
            ke.integrate_remainder("regular", coeffs, [5.0, 7.5])

    def test_failure_reporting_at_a_jump(self, chart, monkeypatch):
        # finite values: the forcing jumps by 1e9 where xi k = 1
        coeffs = ke.build_regular_coeffs(chart, grid=ke.GridSpec(n_nu=81))
        monkeypatch.setattr(kb, "fhat", lambda lam, z: np.where(
            z < 1.0, 0.0, 1e9))
        with pytest.raises(RuntimeError, match=self._FAILED):
            ke.integrate_remainder("regular", coeffs, [5.0, 7.5])

    @pytest.mark.parametrize("kind", ["regular", "singular"])
    def test_stacked_columns_match_single_columns(self, chart, kind):
        # the stacked state is error-controlled in an RMS norm over all
        # columns; each column must still match its own tight solve
        build = (ke.build_regular_coeffs if kind == "regular"
                 else ke.build_singular_coeffs)
        coeffs = build(chart, grid=ke.GridSpec(n_nu=121))
        xis = np.array([0.0, 0.7, 3.0, 25.0])
        nu, *stacked = ke.integrate_remainder(kind, coeffs, xis,
                                              with_xi_derivative=True)
        assert np.array_equal(nu, coeffs.nu_grid)
        for j, xi in enumerate(xis):
            _, *ref = ke.integrate_remainder(kind, coeffs, xi, rtol=1e-13,
                                             atol=1e-17,
                                             with_xi_derivative=True)
            for got, want in zip(stacked, ref):
                assert got.shape == (len(nu), len(xis))
                err = np.max(np.abs(got[:, j] - want))
                assert err <= 1e-8 * np.max(np.abs(want)), (kind, xi)

    def test_table_is_one_integration(self, chart, monkeypatch):
        # build_kernel takes the remainder and its nu-, xi- and mixed
        # derivatives from one stacked integration, looked up by its
        # module name
        grid = ke.GridSpec(n_nu=81, n_xi_linear=3, n_xi_log=1)
        calls = []
        integrate = ke.integrate_remainder

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return integrate(*args, **kwargs)
        monkeypatch.setattr(ke, "integrate_remainder", counting)
        tr = ke.build_kernel("regular", chart, grid=grid)
        assert calls == [{"with_xi_derivative": True}]
        assert [t.shape for t in (tr.ghat, tr.ghat_nu, tr.ghat_xi,
                                  tr.ghat_nuxi)] == [(81, 4)] * 4


def _hand_expanded(tr, nu, xi, deriv):
    """Hhat (or Hhat_nu if deriv) of tr with each kind's expansion and its
    nu-derivative written out term by term: the reference for the
    evaluation that reads KINDS."""
    nu = tr._check_domain(nu)
    xi = np.asarray(xi, dtype=float)
    k = np.asarray(gc.k_of_nu(nu))
    kp = np.asarray(gc.kprime_of_nu(nu))
    z = xi * k

    def c(name):   # the column's own spline in log nu
        return CubicSpline(np.log(tr.coeffs.nu_grid),
                           tr.coeffs.columns[name])(np.log(nu))
    if tr.kind == "regular" and not deriv:
        out = c("alpha0") * kb.fhat(1, z) + c("alpha1") * kb.fhat(2, z)
    elif tr.kind == "regular":
        a0, a1, r = c("alpha0"), c("alpha1"), kp / k
        out = (2.0 * a0 * r * kb.fhat(0, z)
               + (c("alpha0p") - 3.0 * a0 * r + 4.0 * a1 * r) * kb.fhat(1, z)
               + (c("alpha1p") - 5.0 * a1 * r) * kb.fhat(2, z))
    elif not deriv:
        k2 = k * k
        out = (c("beta0") * kb.fhat(-2, z) + c("beta1") * k2 * kb.fhat(-1, z)
               + c("beta2") * k2 * k2 * kb.fhat(0, z))
    else:
        b0, b1, b2 = c("beta0"), c("beta1"), c("beta2")
        k2, k3, k4 = k * k, k ** 3, k ** 4
        xi2 = xi * xi
        c_m1 = c("beta1p") * k2 + 2.0 * b1 * kp * k + 2.0 * b2 * k3 * kp
        d_m1 = 0.5 * b0 * kp * k
        c_0 = c("beta2p") * k4 + 3.0 * b2 * kp * k3
        d_0 = -0.5 * b1 * kp * k3
        out = (c("beta0p") * kb.fhat(-2, z)
               + (c_m1 + xi2 * d_m1) * kb.fhat(-1, z)
               + (c_0 + xi2 * d_0) * kb.fhat(0, z))
    return out + tr._remainder(nu, xi, deriv=deriv)


def test_z_dfhat_table_is_the_basis_derivative():
    # every relation z fhat_lam' = sum c z^j fhat_mu the expansions use,
    # on the grid of kernelbasis.check_recurrences
    z = np.concatenate([np.geomspace(1e-3, 1.0, 300),
                        np.linspace(1.0, 60.0, 700)])
    orders = {lam for spec in ke.KINDS.values()
              for _, _, lam in spec.expansion}
    assert orders <= set(ke._Z_DFHAT)
    for lam, terms in ke._Z_DFHAT.items():
        got = sum(c * z ** j * kb.fhat(mu, z) for c, mu, j in terms)
        want = z * kb.fhat_d1(lam, z)
        # fhat_d1(2, z) loses ~1e-12 to cancellation just above z = 1/2
        assert np.max(np.abs(got - want)) <= 1e-11, lam


class TestExpansion:
    """Hhat and Hhat_nu from the KINDS expansion table."""

    @pytest.mark.parametrize("deriv", (False, True))
    def test_matches_hand_expanded_formulas(self, regular, singular, deriv):
        nus = np.geomspace(regular.nu_min * 2, regular.nu_star, 23)
        xis = np.linspace(0.0, 300.0, 4097)
        dense = np.geomspace(regular.nu_min, regular.nu_star, 1201)
        for tr in (regular, singular):
            fn = tr.Hhat_nu if deriv else tr.Hhat
            got = fn(nus[:, None], xis[None, :])
            want = _hand_expanded(tr, nus[:, None], xis[None, :], deriv)
            err = np.max(np.abs(got - want), axis=1)
            assert np.all(err <= 1e-14 * np.max(np.abs(want), axis=1)), \
                (tr.kind, err.max())
            # xi = 0, where the singular Hhat_nu is a difference of ~124s
            err0 = np.abs(fn(dense, 0.0) - _hand_expanded(tr, dense, 0.0,
                                                          deriv))
            assert err0.max() <= 1e-12, (tr.kind, err0.max())
            # scalars in, a scalar out
            nu, xi = float(nus[15]), 2.0
            assert fn(nu, xi) == pytest.approx(
                float(_hand_expanded(tr, nu, xi, deriv)), rel=1e-14)

    def test_each_order_evaluated_once(self, regular, singular, monkeypatch):
        # the nu-derivative reads z fhat' through fhat of the same orders
        calls = []
        fhat = kb.fhat

        def counting(lam, z):
            calls.append(lam)
            return fhat(lam, z)
        monkeypatch.setattr(kb, "fhat", counting)
        monkeypatch.setattr(kb, "fhat_d1", None)
        nus = np.geomspace(regular.nu_min * 2, regular.nu_star, 5)
        xis = np.linspace(0.0, 30.0, 7)
        for tr, name, orders in (
                (regular, "Hhat", [1, 2]), (regular, "Hhat_nu", [0, 1, 2]),
                (singular, "Hhat", [-2, -1, 0]),
                (singular, "Hhat_nu", [-2, -1, 0])):
            calls.clear()
            getattr(tr, name)(nus[:, None], xis[None, :])
            assert sorted(calls) == orders, (tr.kind, name)


class TestAssembledKernels:
    def test_initial_data_regular(self, regular):
        for rec in regular.limit_estimates():
            assert abs(rec["H_limit"]) < 1e-4
            assert abs(rec["Hnu_limit"] - 1.0) < 1e-4
        # pointwise smallness of Hhat itself at nu = 1e-7
        assert abs(regular.Hhat(1e-7, 1.0)) < 1e-4

    def test_initial_data_singular(self, singular):
        for rec in singular.limit_estimates():
            assert abs(rec["H_limit"] - 1.0) < 1e-4
            xi2 = rec["xi"] ** 2
            assert abs(rec["rhoHnu_limit"] - xi2) < 1e-4 * (1 + xi2)

    def test_exact_xi0_solution_regular(self, regular):
        # at xi = 0 the generator equation is H_nunu = 0, and with the
        # vacuum data the regular kernel's solution is H_r(nu, 0) = nu;
        # dense in nu, so values between the grid nodes count too
        nus = np.geomspace(regular.nu_min, regular.nu_star, 1201)
        assert np.abs(regular.Hhat(nus, 0.0) - nus).max() <= 1e-4
        assert np.abs(regular.Hhat_nu(nus, 0.0) - 1.0).max() <= 1e-4

    def test_calibration_factors(self, regular, singular):
        # paper c0 is already exact; d0 carries the documented factor 2
        assert regular.coeffs.calibration == pytest.approx(1.0, abs=1e-9)
        assert singular.coeffs.calibration == pytest.approx(1.0, abs=1e-8)
        _, norm, norm_paper = ke._header("singular", singular.coeffs)
        assert norm == pytest.approx(2.0 * norm_paper, rel=1e-8)

    def test_cancellation_estimates(self, regular, singular):
        rep = ke.verify_cancellation(regular)
        assert np.isfinite(rep["C"]) and rep["drift_ok"]
        assert rep["defect_slope_at_xi1"] >= 1 / 3 - 0.05
        rep = ke.verify_cancellation(singular)
        assert np.isfinite(rep["C"]) and rep["drift_ok"]

    def test_remainder_envelopes(self, regular, singular):
        for tr in (regular, singular):
            rep = ke.verify_remainder_envelope(tr)
            assert np.isfinite(rep["C"]) and rep["drift_ok"], rep

    def test_pde_residual(self, regular, singular):
        for tr in (regular, singular):
            assert ke.verify_kernel(tr)["generator_residual"] < 1e-10

    @pytest.mark.parametrize("kind,column", (("regular", "alpha1"),
                                             ("singular", "beta2")))
    def test_pde_residual_reads_the_table(self, request, kind, column):
        # the residual is evaluated from the table's own columns, so a
        # column 1 % off shows at the 1e-3 level
        tr = request.getfixturevalue(kind)
        cols = dict(tr.coeffs.columns)
        cols[column] = cols[column] * 1.01
        bad = ke.KernelTransform(
            kind, dataclasses.replace(tr.coeffs, columns=cols), tr.xi_grid,
            tr.ghat, tr.ghat_nu, tr.ghat_xi, tr.ghat_nuxi)
        assert ke.verify_kernel(bad)["generator_residual"] > 1e-3

    def test_hhat_nu_consistency(self, regular, singular):
        # analytic nu-derivative against differencing of Hhat itself; at
        # knots the columns are exact, between them the singular kernel's
        # derivative combination cancels strongly and the column-spline
        # error is amplified to ~1e-4 relative
        for tr in (regular, singular):
            for i in (140, 200):
                nu = float(tr.coeffs.nu_grid[i])
                for xi in (0.3, 6.0):
                    h = nu * 1e-3
                    fd = (tr.Hhat(nu + h, xi) - tr.Hhat(nu - h, xi)) / (2 * h)
                    assert tr.Hhat_nu(nu, xi) == pytest.approx(
                        float(fd), rel=2e-4, abs=1e-6)
            off = float(tr.coeffs.nu_grid[150] * 1.03)
            fd = (tr.Hhat(off * 1.001, 2.0) - tr.Hhat(off * 0.999, 2.0)) \
                / (0.002 * off)
            assert tr.Hhat_nu(off, 2.0) == pytest.approx(float(fd), rel=2e-3,
                                                         abs=1e-5)

    def test_evenness_in_xi(self, regular):
        nus = np.geomspace(regular.nu_min * 5, regular.nu_star, 5)
        xis = np.linspace(0.1, 50, 11)
        assert np.allclose(regular.Hhat(nus[:, None], xis[None, :]),
                           regular.Hhat(nus[:, None], -xis[None, :]),
                           rtol=0, atol=1e-14)

    def test_holder_envelope(self, regular):
        # ||g(nu,.)||_{C^0,alpha} <= int |xi|^alpha |ghat| dxi <= C nu^(2-alpha/3)
        nus = regular.coeffs.nu_grid[::12]
        xi = regular.xi_grid
        rows = np.abs(regular._remainder(nus[:, None], xi[None, :]))
        for alpha in (0.0, 0.5):
            integrals = 2.0 * np.trapezoid(rows * xi ** alpha, xi, axis=1)
            C = np.max(integrals / nus ** (2 - alpha / 3))
            assert np.isfinite(C) and C < 1e4

    def test_hhat_memory_is_per_pair(self, regular):
        # interpolating in xi reads two table entries per (nu, xi) pair;
        # copying a whole table row per pair needs n_pairs * n_xi floats
        nus = np.geomspace(regular.nu_min * 2, regular.nu_star, 50)
        xis = np.linspace(0.0, 60.0, 400)
        row_per_pair = nus.size * xis.size * len(regular.xi_grid) * 8
        tracemalloc.start()
        try:
            regular.Hhat(nus[:, None], xis[None, :])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < row_per_pair / 4

    @pytest.mark.parametrize("name", ("Hhat", "Hhat_nu"))
    def test_hhat_temporaries_scale_with_output(self, regular, singular,
                                                name):
        # the remainder lookup works on nu's and xi's own shapes, so a
        # row-shaped call holds a few arrays of the output's size at once
        nus = np.geomspace(regular.nu_min * 2, regular.nu_star, 23)
        xis = np.linspace(0.0, 300.0, 4097)
        for tr in (regular, singular):
            fn = getattr(tr, name)
            tracemalloc.start()
            try:
                out = fn(nus[:, None], xis[None, :])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * out.nbytes

    def test_domain_error(self, regular):
        with pytest.raises(ValueError):
            regular.Hhat(regular.nu_star * 2.0, 1.0)

    def test_remainder_shape_must_match_the_grids(self, regular):
        # build_kernel and load construct through the one constructor,
        # which checks every remainder table against the grids
        names = ("ghat", "ghat_nu", "ghat_xi", "ghat_nuxi")
        for bad in names:
            tables = [getattr(regular, name) for name in names]
            tables[names.index(bad)] = tables[names.index(bad)][:, :-1]
            with pytest.raises(ValueError, match="does not match the grids"):
                ke.KernelTransform("regular", regular.coeffs,
                                   regular.xi_grid, *tables)

    def test_save_load_round_trip(self, regular, tmp_path):
        path = str(tmp_path / "table.bin")
        regular.save(path)
        back = ke.KernelTransform.load(path)
        nus = np.geomspace(regular.nu_min * 3, regular.nu_star, 6)
        xis = np.linspace(0.0, 60.0, 7)
        assert np.array_equal(back.Hhat(nus[:, None], xis[None, :]),
                              regular.Hhat(nus[:, None], xis[None, :]))
        assert back.coeffs.calibration == regular.coeffs.calibration
        with pytest.raises(ValueError, match="magic"):
            bad = tmp_path / "bad.bin"
            bad.write_bytes(b"NOPE!")
            ke.KernelTransform.load(str(bad))

    @pytest.mark.parametrize("cut,section", [
        (6, "version/kind"), (30, "normalization"), (70, "column names"),
        (-8, "remainder ghat_nuxi")])
    def test_load_rejects_truncated_table(self, regular, tmp_path, cut,
                                          section):
        path = tmp_path / "table.bin"
        regular.save(str(path))
        data = path.read_bytes()
        path.write_bytes(data[:cut])
        with pytest.raises(ke.KernelTableError,
                           match=f"table.bin: truncated in section {section}"):
            ke.KernelTransform.load(str(path))

    @pytest.mark.parametrize("offset,byte,message", [
        (5, 7, "unknown table version 7"), (6, 2, "unknown kind byte 2")])
    def test_load_rejects_bad_header_byte(self, regular, tmp_path, offset,
                                          byte, message):
        path = tmp_path / "table.bin"
        regular.save(str(path))
        data = bytearray(path.read_bytes())
        data[offset] = byte
        path.write_bytes(bytes(data))
        with pytest.raises(ke.KernelTableError, match=message):
            ke.KernelTransform.load(str(path))

    def test_load_rejects_trailing_bytes(self, regular, tmp_path):
        path = tmp_path / "table.bin"
        regular.save(str(path))
        path.write_bytes(path.read_bytes() + b"\0\0\0")
        with pytest.raises(ke.KernelTableError, match="3 trailing bytes"):
            ke.KernelTransform.load(str(path))

    @pytest.mark.parametrize("change,section", [
        ("no alpha0", "column names"), ("extra column", "column names"),
        ("nu reversed", "nu grid"), ("nu from 0", "nu grid"),
        ("nu with nan", "nu grid"), ("nu below the calibration point",
                                     "nu grid"),
        ("xi unsorted", "xi grid"), ("xi negative", "xi grid"),
        ("xi with inf", "xi grid"), ("nan in ghat", "remainder ghat"),
        ("nan last in ghat_nuxi", "remainder ghat_nuxi"),
        ("inf last in ghat_nu", "remainder ghat_nu"),
        ("nan in alpha0", "column alpha0"),
        ("header nu_star 0.2", "normalization"),
        ("header nu_star 5e-8", "normalization"),
        ("normalization 1 ulp off", "normalization")])
    def test_load_rejects_bad_contents(self, regular, save_altered,
                                       save_corrupted, tmp_path, change,
                                       section):
        # each file is well formed byte for byte; its contents are not a
        # table's, so the splines in log nu or the xi brackets would fail
        # or read wrong values, a value that is not finite would pass the
        # verdicts that skip NaN, or the header would disagree with the
        # body it describes
        cols, nu = regular.coeffs.columns, regular.coeffs.nu_grid.copy()
        xi = regular.xi_grid.copy()
        changes = {
            "no alpha0": {"columns": {k: v for k, v in cols.items()
                                      if k != "alpha0"}},
            "extra column": {"columns": {**cols, "beta0": cols["alpha0"]}},
            "nu reversed": {"nu_grid": nu[::-1]},
            "nu from 0": {"nu_grid": np.concatenate([[0.0], nu[1:]])},
            "nu with nan": {"nu_grid": np.where(nu == nu[5], np.nan, nu)},
            "nu below the calibration point": {"nu_grid": nu * 1e-7},
            "xi unsorted": {"xi_grid": xi[[0, 2, 1, *range(3, len(xi))]]},
            "xi negative": {"xi_grid": np.concatenate([[-1.0], xi[1:]])},
            "xi with inf": {"xi_grid": np.concatenate([xi[:-1], [np.inf]])},
        }.get(change)
        path = tmp_path / "table.bin"
        if changes is None:
            save_corrupted(regular, path, change)
        else:
            save_altered(regular, path, **changes)
        with pytest.raises(ke.KernelTableError,
                           match=f"table.bin: .*section {section} "):
            ke.KernelTransform.load(str(path))

    def test_verify_report(self, regular):
        rep = ke.verify_kernel(regular)
        assert rep["pass"], rep

    def test_verify_report_gates_on_huygens_leakage(self, regular,
                                                    monkeypatch):
        monkeypatch.setattr(ke, "huygens_leakage", lambda tr: 2e-6)
        rep = ke.verify_kernel(regular)
        assert rep["huygens_leakage"] == 2e-6
        assert rep["pass"] is False


def _smoothed(tr):
    """The kernel smoothed by the Gaussian of width k(nu_star)/6 that
    entropy.kernel_generator and huygens_leakage use."""
    return ke.SmoothedKernel(tr, ke.GaussianSmoother(
        gc.k_of_nu(tr.nu_star) / 6.0))


class TestSmoothing:
    def test_huygens(self, regular, singular):
        for tr in (regular, singular):
            assert ke.huygens_leakage(tr) < 1e-6

    def test_initial_data_physical(self, regular, singular):
        for tr in (regular, singular):
            sk = _smoothed(tr)
            s_max = gc.k_of_nu(tr.nu_star) + 8.0 * sk.phi.width
            s = np.linspace(-s_max, s_max, 321)
            prof = sk.convolved_pairs(np.full_like(s, tr.nu_min * 2), s)
            if tr is regular:
                assert np.abs(prof).max() < 1e-6  # H^r * phi -> 0
            else:
                sig = sk.phi.sigma  # -> delta datum, the Gaussian density
                phi = np.exp(-0.5 * (s / sig) ** 2) \
                    / (sig * np.sqrt(2.0 * np.pi))
                assert np.abs(prof - phi).max() / phi.max() < 1e-2

    def test_smoothing_memory_is_per_block(self, regular):
        # the quadrature sums over xi a block of (nu, s) pairs at a time;
        # one dense (n_nu, n_s, n_xi) product on the leakage's grid takes
        # 12 * 321 * 4097 floats (126 MB)
        tracemalloc.start()
        try:
            ke.huygens_leakage(regular)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    @pytest.mark.parametrize("nu_deriv", (0, 1))
    def test_s_derivatives(self, regular, singular, nu_deriv):
        # d^j/ds^j (H*phi) is even in s for even j and odd for odd j, and
        # its centred difference in s is the derivative of order j + 1
        for tr in (regular, singular):
            sk = _smoothed(tr)
            phi = sk.phi
            s = np.linspace(-1.5, 1.5, 41) * gc.k_of_nu(tr.nu_star)
            nu = np.full_like(s, tr.nu_star / 3.0)
            h = 2.5e-4 * phi.width
            for j in range(5):
                val = sk.convolved_pairs(nu, s, j, nu_deriv)
                scale = np.abs(val).max()
                assert scale > 0
                mirror = sk.convolved_pairs(nu, -s, j, nu_deriv)
                assert np.abs(mirror - (-1) ** j * val).max() \
                    <= 1e-12 * scale
                if j == 4:
                    continue
                fd = (sk.convolved_pairs(nu, s + h, j, nu_deriv)
                      - sk.convolved_pairs(nu, s - h, j, nu_deriv)) / (2 * h)
                nxt = sk.convolved_pairs(nu, s, j + 1, nu_deriv)
                assert np.abs(fd - nxt).max() <= 1e-5 * np.abs(nxt).max()


def _per_pair_reference(sk, nu_flat, s_flat, s_deriv=0, nu_deriv=0):
    """The quadrature as a per-pair block loop: blocks of 256 pairs sorted
    by nu, Hhat rows for the distinct nu of each block, and cos/sin of
    every (pair, xi) product.  Returns the values and, per pair, the sum
    over xi of |weight x row|, the scale of the sum's rounding."""
    tr = sk.transform
    xi_top = min(sk.phi.xi_cutoff(), 2.0 * tr.xi_grid[-1])
    xi = np.linspace(0.0, xi_top, ke._N_XI)
    simpson = np.full(ke._N_XI, 2.0)
    simpson[1::2] = 4.0
    simpson[0] = simpson[-1] = 1.0
    sign = (1.0, -1.0, -1.0, 1.0)[s_deriv % 4]
    trig = np.sin if s_deriv % 2 else np.cos
    weight = simpson * sk.phi.phi_hat(xi) * xi ** s_deriv \
        * (sign * (xi[1] - xi[0]) / (3.0 * np.pi))
    transform = tr.Hhat_nu if nu_deriv else tr.Hhat
    nu_flat = np.asarray(nu_flat, dtype=float).ravel()
    s_flat = np.asarray(s_flat, dtype=float).ravel()
    out = np.empty(nu_flat.size)
    scale = np.empty(nu_flat.size)
    order = np.argsort(nu_flat, kind="stable")
    for start in range(0, nu_flat.size, 256):
        idx = order[start:start + 256]
        uniq, inv = np.unique(nu_flat[idx], return_inverse=True)
        rows = transform(uniq[:, None], xi[None, :]) * weight
        scale[idx] = np.abs(rows).sum(axis=1)[inv]
        osc = np.multiply.outer(s_flat[idx], xi)
        trig(osc, out=osc)
        osc *= rows[inv]
        out[idx] = osc.sum(axis=1)
    return out, scale


class TestQuadrature:
    @pytest.mark.parametrize("kind", ("regular", "singular"))
    def test_equals_per_pair_loop(self, request, kind):
        # rows once per distinct nu and trig once per distinct s leave each
        # pair's terms as they were, trig(s xi) times the weighted row; the
        # matrix product sums them over xi in another order, so each value
        # is the reference's to within the rounding of that sum
        tr = request.getfixturevalue(kind)
        k_star = gc.k_of_nu(tr.nu_star)
        sk = _smoothed(tr)
        NU, S = np.meshgrid(np.geomspace(tr.nu_min * 10, tr.nu_star, 4),
                            np.linspace(-1.5, 1.5, 13) * k_star,
                            indexing="ij")
        rng = np.random.default_rng(5)
        # more distinct nu than _NU_BLOCK and distinct s than _S_BLOCK,
        # with repeats, one pair given twice, and unsorted
        nu_set = np.geomspace(tr.nu_min * 2, tr.nu_star, 40)
        s_set = np.linspace(-2.0, 2.0, 90) * k_star
        nu_sc = rng.choice(nu_set, 150)
        s_sc = rng.choice(s_set, 150)
        nu_sc[7], s_sc[7] = nu_sc[3], s_sc[3]
        assert np.unique(nu_sc).size > ke._NU_BLOCK
        assert np.unique(s_sc).size > ke._S_BLOCK
        cases = [(NU, S), (nu_sc, s_sc), (NU[1:2, 5:6], S[1:2, 5:6])]
        for nu_deriv in (0, 1):
            for j in range(5):
                for nu, s in cases:
                    got = sk.convolved_pairs(nu, s, j, nu_deriv)
                    ref, scale = _per_pair_reference(sk, nu, s, j, nu_deriv)
                    assert np.all(np.abs(got - ref) <= 1e-14 * scale), \
                        (j, nu_deriv, nu.size)

    def test_pair_value_does_not_depend_on_the_call(self, regular):
        # every product has the same block shape, so a pair's value is the
        # same bit for bit alone, in a grid and in a sub-grid of it
        sk = _smoothed(regular)
        nus = np.geomspace(regular.nu_min * 10, regular.nu_star, 23)
        s = np.linspace(-1.5, 1.5, 70) * gc.k_of_nu(regular.nu_star)
        NU, S = np.meshgrid(nus, s, indexing="ij")
        for j, nu_deriv in ((0, 0), (3, 1)):
            grid = sk.convolved_pairs(NU, S, j, nu_deriv).reshape(NU.shape)
            for a, b in ((0, 0), (7, 65), (22, 13)):
                one = sk.convolved_pairs(nus[a:a + 1], s[b:b + 1], j,
                                         nu_deriv)
                assert one[0] == grid[a, b]
            sub = sk.convolved_pairs(NU[::2, ::3], S[::2, ::3], j, nu_deriv)
            assert np.array_equal(sub, grid[::2, ::3].ravel())

    def test_kernel_generator_is_the_weighted_sum(self, regular, singular):
        # one smoothed generator per kernel, combined: every derivative is
        # w_r (Hr*phi) + w_s (Hs*phi) bit for bit, on the intersection of
        # the tables' nu ranges
        def restricted(tr, lo, hi):
            """tr on its nu-grid rows lo:hi, nu_star the last of them."""
            c = tr.coeffs
            coeffs = dataclasses.replace(
                c, nu_grid=c.nu_grid[lo:hi],
                columns={k: v[lo:hi] for k, v in c.columns.items()})
            return ke.KernelTransform(tr.kind, coeffs, tr.xi_grid,
                                      tr.ghat[lo:hi], tr.ghat_nu[lo:hi],
                                      tr.ghat_xi[lo:hi], tr.ghat_nuxi[lo:hi])
        n = len(regular.coeffs.nu_grid)
        reg, sing = restricted(regular, 0, n - 30), restricted(singular, 20, n)
        gen = en.kernel_generator(reg, sing, 0.3, 0.7)
        assert gen.nu_range == (sing.nu_min, reg.nu_star)
        assert reg.nu_min < sing.nu_min and reg.nu_star < sing.nu_star
        phi = ke.GaussianSmoother.for_kernel(reg.nu_star)
        NU, TH = np.meshgrid(np.geomspace(*gen.nu_range, 5),
                             np.linspace(-1.0, 1.0, 4), indexing="ij")
        for i in (0, 1):
            for j in range(5):
                r, s = (ke.SmoothedKernel(tr, phi).convolved_pairs(
                    NU, TH, j, i).reshape(NU.shape) for tr in (reg, sing))
                assert np.array_equal(gen.d(i, j, NU, TH), 0.3 * r + 0.7 * s)
        with pytest.raises(en.GeneratorDomainError):
            gen.d(0, 0, reg.nu_star * 1.01, 0.0)

    def test_rows_once_per_nu_set(self, regular, singular, monkeypatch):
        # compactness_bounds_check fits on a grid and on its refinement;
        # every derivative grid of one fit reuses the kernel's rows
        calls = []
        for name in ("Hhat", "Hhat_nu"):
            def counted(self, nu, xi, _fn=getattr(ke.KernelTransform, name),
                        _name=name):
                calls.append((_name, self.kind, np.size(nu)))
                return _fn(self, nu, xi)
            monkeypatch.setattr(ke.KernelTransform, name, counted)
        gen = en.kernel_generator(regular, singular, 0.5, 0.5)
        lo, hi = gen.nu_range
        en.compactness_bounds_check(gen, gc.GasChart(),
                                    np.geomspace(lo * 1.001, hi * 0.999, 6),
                                    np.linspace(-1.0, 1.0, 5))
        assert sorted(calls) == sorted(
            (name, kind, n) for name in ("Hhat", "Hhat_nu")
            for kind in ("regular", "singular") for n in (6, 11))
