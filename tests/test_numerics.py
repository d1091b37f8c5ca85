"""cavlab's own DOP853 stepper and cubic spline against scipy's.

The kernel stack runs on numpy alone; these tests hold its two ported
numerical tools to the scipy routines they replace, on identical inputs.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline as ScipyCubicSpline

import cavlab.gaschart as gc
from cavlab import _dop853
from cavlab import kernelengine as ke
from cavlab._spline import CubicSpline


def _knots(n, rng):
    if n <= 4:
        return np.array([0.0, 0.7, 1.9, 2.5])[:n]
    return np.sort(rng.uniform(0.0, 3.0, n))


class TestSpline:
    @pytest.mark.parametrize("n", [2, 3, 4, 241, 1200])
    @pytest.mark.parametrize("trailing", [(), (3,), (2, 5)])
    def test_matches_scipy_inside_and_beyond_the_knots(self, n, trailing):
        rng = np.random.default_rng(n)
        x = _knots(n, rng)
        y = rng.normal(size=(n,) + trailing)
        ours, ref = CubicSpline(x, y), ScipyCubicSpline(x, y, axis=0)
        # the knots, points between them and both extrapolated ends
        u = np.concatenate([x, np.linspace(x[0] - 0.5, x[-1] + 0.5, 2001)])
        want = ref(u)
        got = ours(u)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        # a 2-D array of points gives the same values in its own shape
        m = len(u) // 2
        assert np.array_equal(ours(u[:2 * m].reshape(2, m)),
                              got[:2 * m].reshape((2, m) + trailing))

    @pytest.mark.parametrize("knots", ["uniform", "geometric", "cube_root"])
    def test_bit_for_bit_on_kernel_grids(self, knots):
        # knot grids like the kernel stack's (uniform in w, log nu, and
        # nu^(1/3) of a geometric nu grid): no row swaps in the solve, so
        # coefficients and values are scipy's exactly
        x = {"uniform": np.linspace(1e-3, 0.44, 1200),
             "geometric": np.log(np.geomspace(1e-9, 0.087, 241)),
             "cube_root": np.geomspace(1e-9, 0.087, 241) ** (1 / 3)}[knots]
        y = np.column_stack([np.sin(40.0 * x), np.exp(x)])
        ours, ref = CubicSpline(x, y), ScipyCubicSpline(x, y)
        u = np.linspace(x[0] - 0.1, x[-1] + 0.1, 3001)
        assert np.array_equal(ours.c, ref.c)
        assert np.array_equal(ours(u), ref(u))
        one = CubicSpline(x, y[:, 0])
        assert all(one(float(v)) == ref(v)[0] for v in u[::10])

    @pytest.mark.parametrize("n", [2, 3, 4, 241])
    def test_scalar_calls_match_array_calls(self, n):
        rng = np.random.default_rng(7)
        x = _knots(n, rng)
        spl = CubicSpline(x, np.cos(x))
        u = np.linspace(x[0] - 0.3, x[-1] + 0.3, 97)
        values = np.array([spl(float(v)) for v in u])
        assert isinstance(spl(float(u[5])), float)
        assert np.max(np.abs(values - spl(u))) <= 1e-15

    def test_low_order_data_are_reproduced(self):
        # not-a-knot through 4+ knots reproduces cubics; 3 knots give the
        # parabola and 2 the line
        x = np.array([0.0, 0.3, 1.1, 1.7, 2.0])
        cubic = x ** 3 - 2 * x + 1
        u = np.linspace(-0.5, 2.5, 31)
        assert CubicSpline(x, cubic)(u) == pytest.approx(
            u ** 3 - 2 * u + 1, rel=1e-13, abs=1e-13)
        assert CubicSpline(x[:3], x[:3] ** 2)(u) == pytest.approx(
            u ** 2, abs=1e-13)
        assert CubicSpline(x[:2], 3 * x[:2] - 1)(u) == pytest.approx(
            3 * u - 1, abs=1e-14)

    @pytest.mark.parametrize("x, y", [
        ([0.0], [1.0]), ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
        ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0]), ([0.0, 1.0], [1.0, 2.0, 3.0])])
    def test_bad_knots_are_rejected(self, x, y):
        with pytest.raises(ValueError):
            CubicSpline(x, y)


def _counted(fun):
    calls = []

    def wrapped(t, y):
        calls.append(t)
        return fun(t, y)
    return wrapped, calls


def _compare(fun, t0, t1, y0, t_eval, rtol, atol):
    """Our values and scipy's on one right-hand side, with their call
    counts."""
    ours, our_calls = _counted(fun)
    theirs, their_calls = _counted(fun)
    got = _dop853.solve(ours, t0, t1, y0, t_eval, rtol, atol)
    ref = solve_ivp(theirs, (t0, t1), y0, method="DOP853", t_eval=t_eval,
                    rtol=rtol, atol=atol)
    assert ref.success
    return got, ref.y, len(our_calls), len(their_calls)


class TestStepper:
    M = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.3], [0.2, 0.0, -0.5]])

    def rhs(self, t, y):
        return self.M @ y + np.sin(3.0 * t)

    @pytest.mark.parametrize("rtol, atol", [(1e-6, 1e-9), (1e-10, 1e-13)])
    @pytest.mark.parametrize("n_eval", [1, 7, 200])
    def test_matches_solve_ivp(self, rtol, atol, n_eval):
        t_eval = (np.array([9.0]) if n_eval == 1
                  else np.linspace(0.1, 9.0, n_eval))
        got, ref, ours, theirs = _compare(
            self.rhs, 0.1, 9.0, np.array([1.0, 0.0, 0.5]), t_eval, rtol, atol)
        assert ours == theirs
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_tiny_rtol_is_raised_as_scipy_raises_it(self):
        with pytest.warns(UserWarning, match="rtol"):
            got, ref, ours, theirs = _compare(
                self.rhs, 0.0, 2.0, np.array([1.0, 0.0, 0.5]),
                np.array([1.0, 2.0]), 1e-16, 1e-20)
        assert ours == theirs
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("t_eval", [[0.5, 0.2], [-0.1, 0.5], [0.5, 3.0]])
    def test_t_eval_must_ascend_within_the_interval(self, t_eval):
        with pytest.raises(ValueError, match="t_eval"):
            _dop853.solve(self.rhs, 0.0, 2.0, np.ones(3), t_eval, 1e-6, 1e-9)

    @pytest.mark.parametrize("kind", ["regular", "singular"])
    def test_matches_solve_ivp_on_the_remainder_system(self, monkeypatch,
                                                       kind):
        # the stacked remainder right-hand side with its xi-derivative
        # columns, as integrate_remainder hands it to the stepper
        seen = {}

        def capture(fun, *args):
            seen["fun"], seen["args"] = fun, args
            return np.zeros((len(args[2]), len(args[3])))
        monkeypatch.setattr(_dop853, "solve", capture)
        chart = gc.GasChart()
        coeffs = (ke.build_regular_coeffs if kind == "regular"
                  else ke.build_singular_coeffs)(chart,
                                                 grid=ke.GridSpec(n_nu=121))
        ke.integrate_remainder(kind, coeffs, [0.0, 0.7, 3.0, 25.0],
                               with_xi_derivative=True)
        monkeypatch.undo()
        got, ref, ours, theirs = _compare(seen["fun"], *seen["args"])
        assert ours == theirs
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
