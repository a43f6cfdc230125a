"""Slope, efficiency, and identity properties of generalized estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slope_lab as sl
from slope_lab import families

BERN = sl.Bernoulli(10)
P_GRID = np.linspace(0.05, 0.95, 10)

# Paper-reported rows of the Cauchy median table:
# n -> (Lambda(median), Lambda(median score), eff_median_pct,
#       eff_median_score_pct, n_eff_median, n_eff_median_score)
CAUCHY_TABLE = {
    1: (0.0, 0.50000, 0.0, 100.0, 0.0, 1.0),
    3: (0.0, 1.09064, 0.0, 72.71, 0.0, 2.2),
    5: (0.81883, 1.74552, 32.75, 69.82, 1.6, 3.5),
    7: (1.63377, 2.44042, 46.68, 69.73, 3.3, 4.9),
    9: (2.44703, 3.16164, 54.38, 70.26, 4.9, 6.3),
    15: (4.88286, 5.41608, 65.10, 72.21, 9.8, 10.8),
    31: (11.37087, 11.68970, 73.36, 75.42, 22.7, 23.4),
}


class Counted:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, y):
        self.calls += 1
        return self.fn(y)


def count_passes(monkeypatch, f):
    """The theta of every ``values`` call of f's class: one per pass."""
    thetas, values = [], type(f).values
    monkeypatch.setattr(type(f), "values", lambda self, theta, block, **kw: thetas.append(theta)
                        or values(self, theta, block, **kw))
    return thetas


def lift_y():
    return sl.lift_point_estimator(BERN, lambda y: float(y))


def lift_yy1():
    return sl.lift_point_estimator(BERN, lambda y: float(y * (y - 1)))


def lift_y2():
    return sl.lift_point_estimator(BERN, lambda y: float(y * y))


class TestExpect:
    def test_binomial_mean(self):
        assert BERN.expect(0.3, lambda y: y)[0] == pytest.approx(3.0)

    def test_binomial_variance_exact(self):
        assert BERN.expect(0.5, lambda y: (y - 5) ** 2)[0] == pytest.approx(2.5)

    def test_median_second_moment_matches_table(self):
        # 1 / Lambda(median) for n = 15
        v = sl.CauchyMedian(7).expect(0.0, lambda z: z * z)[0]
        assert v == pytest.approx(1.0 / 4.88286, abs=1e-4)

    def test_cauchy_mc_reports_se(self):
        f = sl.CauchyLocation(3)
        val, se = f.expect(0.0, lambda x: float(np.median(x)), mc_draws=20_000)
        assert se > 0
        assert abs(val) < 4 * se + 0.05


class TestScoreEstimator:
    def test_zero_at_mle(self):
        g = sl.score_estimator(BERN)
        assert g(5, 0.5) == 0.0

    def test_normal_score_is_line(self):
        f = sl.NormalLocation(2.0, 9)
        g = sl.score_estimator(f)
        xbar = 1.3
        slope = (
            sl.standardize(g, 0.5, xbar) - sl.standardize(g, -0.5, xbar)
        )  # over dtheta = 1
        assert slope == pytest.approx(-math.sqrt(f.n) / f.sigma, abs=1e-7)

    def test_cauchy_score_variance_is_info(self):
        f = sl.CauchyLocation(15)
        assert sl.squared_slope(sl.score_estimator(f), 2.0) == 7.5

    @pytest.mark.parametrize("f", [BERN, sl.NormalLocation(1.0, 3), sl.CauchyLocation(15), sl.CauchyMedian(3),
                                   sl.BivariateNormalSlice(3)], ids=lambda f: type(f).__name__)
    def test_closed_forms_take_no_pass(self, f, monkeypatch):
        g, th = sl.score_estimator(f), 0.3
        info = f.fisher_info(th)  # the median law's information is a cached quadrature, and not a moment
        passes = count_passes(monkeypatch, f)
        assert sl.squared_slope(g, th) == info
        assert sl.score_correlation2(g, th) == 1.0
        assert sl.lambda_efficiency(g, th) == info / f.reference_info(th)
        assert sl.effective_n(g, th) == info / f.reference_info(th) * f.n
        assert passes == []
        # the identity's right side is still a moment: one pass
        sl.check_identity(g, th, mc_draws=100)
        assert passes == [th]


class TestConstructor:
    def test_kind_and_mean_are_not_arguments(self):
        f = sl.Bernoulli(10)
        g = lambda y, p: y * (y - 1) - 90 * p * p
        for kw in ({"kind": "score"}, {"mean_fn": lambda p: 90 * p * p}, {"mean_deriv": lambda p: 123.0}):
            with pytest.raises(TypeError):
                sl.GenEstimator(f, g, **kw)
        # a custom estimator is taken at its word: not the score's closed forms
        est = sl.GenEstimator(f, g)
        assert type(est) is sl.GenEstimator and not hasattr(est, "ups") and not hasattr(est, "dups")
        assert sl.squared_slope(est, 0.3) == pytest.approx(42.155, abs=5e-4)
        assert sl.score_correlation2(est, 0.3) == pytest.approx(0.885, abs=5e-4)
        # the constructors give the other roles: the score's closed forms, the lift's ups and dups
        s = sl.score_estimator(f)
        assert sl.squared_slope(s, 0.3) == f.fisher_info(0.3) and sl.score_correlation2(s, 0.3) == 1.0
        h = sl.lift_point_estimator(f, lambda y: float(y * (y - 1)))
        assert h.dups(0.3) == pytest.approx(180 * 0.3, rel=1e-12)


class TestParameterChecks:
    FAMILIES = [sl.Bernoulli(10), sl.Bernoulli(10, chart="log_odds"), sl.NormalLocation(1.0, 3),
                sl.CauchyLocation(5), sl.CauchyMedian(3), sl.BivariateNormalSlice(3)]

    @pytest.mark.parametrize("f", FAMILIES, ids=lambda f: type(f).__name__)
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_variance_and_v_efficiency_check_theta(self, f, theta):
        u = lambda y: 1.0
        with pytest.raises(sl.DomainError):
            sl.variance(f, theta, u, mc_draws=10)
        with pytest.raises(sl.DomainError):
            sl.v_efficiency(f, u, theta, mc_draws=10)
        with pytest.raises(sl.DomainError):
            f.expect(theta, u, mc_draws=10)

    @pytest.mark.parametrize("f", FAMILIES, ids=lambda f: type(f).__name__)
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_score_closed_forms_check_theta(self, f, theta):
        g = sl.score_estimator(f)
        for fn in (sl.squared_slope, sl.score_correlation2, sl.lambda_efficiency, sl.effective_n):
            with pytest.raises(sl.DomainError):
                fn(g, theta, mc_draws=10)


class TestLift:
    def test_lift_of_y(self):
        h = lift_y()
        assert h(7, 0.3) == pytest.approx(7 - 3.0)

    def test_umvue_mean_function(self):
        h = lift_yy1()
        assert h.ups(0.4) == pytest.approx(90 * 0.16, abs=1e-9)

    def test_unbiased_lift_slope_minus_one(self):
        h = lift_y()  # unbiased for np; its mean derivative is constant
        assert h.deriv(3, 0.2) == pytest.approx(-10.0, abs=1e-6)
        assert h.deriv(3, 0.7) == pytest.approx(-10.0, abs=1e-6)

    def test_orientation_violation_raises(self):
        with pytest.raises(sl.OrientationError):
            sl.lift_point_estimator(BERN, lambda y: float(-y), check_grid=[0.3, 0.5])

    def test_lifted_mean_computed_once_per_theta(self):
        class Counted:
            def __init__(self, fn):
                self.fn, self.calls = fn, 0

            def __call__(self, y):
                self.calls += 1
                return self.fn(y)

        # one pass over the 11 support points keeps the u column: E[u] for
        # the lift's mean, E[u * score] for the slope and both moments of
        # the variance are reductions of it
        u = Counted(lambda y: float(y * (y - 1)))
        sl.lambda_efficiency(sl.lift_point_estimator(BERN, u), 0.3)
        assert u.calls == 11
        # one pass of 1000 draws keeps the median column: E[median] is its
        # mean, and both moments of the variance are reductions of it
        med = Counted(lambda x: float(x[7]))
        g = sl.lift_point_estimator(sl.CauchyLocation(15), med, mc_draws=1000)
        g.var(0.2, mc_draws=1000)
        assert med.calls == 1000

    def test_lift_mean_takes_the_callers_keywords(self):
        # the lift's own keywords are only defaults: built without mc_draws,
        # its mean does not run the default 10**6 draws
        f = sl.CauchyLocation(5)
        med = Counted(lambda x: float(x[2]))
        sl.lift_point_estimator(f, med).var(0.2, mc_draws=1000)
        assert med.calls == 1000
        kw = dict(mc_draws=600, mc_seed=3)
        for ups, dups in [(None, None), (lambda th: th, None)]:
            bare = sl.lift_point_estimator(f, lambda x: float(x[2]), mean_fn=ups, mean_deriv=dups)
            built = sl.lift_point_estimator(f, lambda x: float(x[2]), mean_fn=ups, mean_deriv=dups, **kw)
            a, b = sl.slope_report(bare, [-0.4, 0.9], **kw), sl.slope_report(built, [-0.4, 0.9], **kw)
            for c in ("lam", "rho2", "eff_lambda", "eff_n", "identity_residual"):
                assert getattr(a, c).tobytes() == getattr(b, c).tobytes(), c

    def test_lift_keywords_fill_in_every_moment_of_a_call(self):
        f = sl.CauchyLocation(5)
        med = Counted(lambda x: float(x[2]))
        g = sl.lift_point_estimator(f, med, mc_draws=1000)
        residual = sl.check_identity(g, 0.2, mc_seed=3)
        # E[h * score] at theta and ups at theta +- h, each over the lift's 1000 draws
        assert med.calls == 3 * 1000
        bare = sl.lift_point_estimator(f, lambda x: float(x[2]))
        assert residual == sl.check_identity(bare, 0.2, mc_draws=1000, mc_seed=3)
        med.calls = 0
        g.var(0.2)
        assert med.calls == 1000
        # a keyword the call gives overrides the lift's
        med.calls = 0
        sl.squared_slope(g, 0.2, mc_draws=500)
        assert med.calls == 500
        assert g.ups(0.4, mc_seed=3) == f.expect(0.4, lambda x: float(x[2]), mc_draws=1000, mc_seed=3)[0]


class TestStandardize:
    def test_hand_value(self):
        g = sl.score_estimator(BERN)
        assert sl.standardize(g, 0.5, 7) == pytest.approx(2 / math.sqrt(2.5))

    def test_zero_maps_to_zero(self):
        assert sl.standardize(lift_y(), 0.5, 5) == pytest.approx(0.0, abs=1e-12)

    def test_unit_variance(self):
        g = lift_yy1()
        for p in [0.2, 0.6]:
            v = g.var(p)
            total = BERN.expect(p, lambda y: (g(y, p) / math.sqrt(v)) ** 2)[0]
            assert total == pytest.approx(1.0, abs=1e-10)

    ROLES = {
        "score": lambda f, u: sl.score_estimator(f),
        "lift_closed_form": lambda f, u: sl.lift_point_estimator(f, u, mean_fn=lambda th: th, mean_deriv=lambda th: 1.0),
        "lift_engine": lambda f, u: sl.lift_point_estimator(f, u, mc_draws=50),
        "custom_deriv": lambda f, u: sl.GenEstimator(f, lambda y, th: u(y) - th, lambda y, th: -1.0),
        "custom": lambda f, u: sl.GenEstimator(f, lambda y, th: u(y) - th),
    }
    BAD = {
        "count_above_n": (BERN, 11),
        "nan_observation": (sl.CauchyLocation(5), [-1.0, 0.0, math.nan, 1.0, 2.0]),
        "unsorted": (sl.CauchyLocation(5), [-1.0, 1.0, 0.0, 2.0, 3.0]),
    }

    @pytest.mark.parametrize("role", ROLES)
    @pytest.mark.parametrize("bad", BAD)
    def test_sample_is_checked_before_any_pass(self, role, bad, monkeypatch):
        f, y = self.BAD[bad]
        u = Counted(lambda y: float(y * (y - 1)) if np.ndim(y) == 0 else float(y[2]))
        g = self.ROLES[role](f, u)
        passes = count_passes(monkeypatch, f)
        with pytest.raises(sl.DomainError):
            sl.standardize(g, 0.3, y, mc_draws=50)
        assert passes == [] and u.calls == 0


class TestSquaredSlopeAndEfficiency:
    def test_score_correlation_of_score_is_one(self):
        assert sl.score_correlation2(sl.score_estimator(BERN), 0.3) == 1.0

    def test_lift_of_y_fully_efficient(self):
        h = lift_y()
        for p in P_GRID:
            assert sl.score_correlation2(h, p) == pytest.approx(1.0, abs=1e-10)

    def test_umvue_efficiency_low_at_small_p(self):
        assert sl.score_correlation2(lift_yy1(), 0.15) <= 0.8

    def test_lambda_equals_rho2_times_info(self):
        for g in [lift_yy1(), lift_y2()]:
            for p in [0.15, 0.5, 0.85]:
                lam = sl.squared_slope(g, p)
                rho2 = sl.score_correlation2(g, p)
                assert lam == pytest.approx(rho2 * BERN.fisher_info(p), rel=1e-7)

    def test_fisher_bound(self):
        for g in [lift_y(), lift_yy1(), lift_y2()]:
            for p in P_GRID:
                assert sl.squared_slope(g, p) <= BERN.fisher_info(p) * (1 + 1e-8)

    def test_constant_estimator_has_no_slope(self):
        # V(g) = 0: no squared slope, score correlation or efficiency exists
        g = sl.GenEstimator(BERN, lambda y, th: 0.0)
        for quantity in (sl.squared_slope, sl.score_correlation2, sl.lambda_efficiency):
            with pytest.raises(sl.ZeroVarianceError, match="not positive"):
                quantity(g, 0.3)

    def test_v_efficiency_matches_lambda_efficiency_for_unbiased(self):
        # y/n is unbiased for p: Eff^V = Eff^Lambda (equality case)
        u = lambda y: y / 10.0
        for p in [0.2, 0.5, 0.8]:
            effv = sl.v_efficiency(BERN, u, p)
            effl = sl.lambda_efficiency(sl.lift_point_estimator(BERN, u), p)
            assert effv == pytest.approx(effl, abs=1e-8)

    def test_v_efficiency_takes_the_mean_once(self):
        # one pass over the 11 support points: E[u] for the bias check and
        # the variance are reductions of the kept u column
        u = Counted(lambda y: y / 10.0)
        sl.v_efficiency(BERN, u, 0.3)
        assert u.calls == 11

    def test_v_efficiency_rejects_biased(self):
        with pytest.raises(sl.BiasError):
            sl.v_efficiency(BERN, lambda y: float(y), 0.3)

    def test_cramer_rao_attained_by_y_over_n(self):
        for p in [0.1, 0.4, 0.7]:
            v = sl.variance(BERN, p, lambda y: y / 10.0)
            assert v == pytest.approx(p * (1 - p) / 10.0, abs=1e-12)
            assert v == pytest.approx(1.0 / BERN.fisher_info(p), abs=1e-12)

    def test_effective_sample_sizes_cauchy_median(self):
        fm = sl.CauchyMedian(7)  # n = 15
        s_med = sl.score_estimator(fm)
        assert sl.effective_n(s_med, 0.0) == pytest.approx(10.8, abs=0.05)
        th_med = sl.lift_point_estimator(fm, lambda z: z)
        assert sl.effective_n(th_med, 0.0) == pytest.approx(9.8, abs=0.05)
        assert sl.lambda_efficiency(s_med, 0.0) == pytest.approx(0.7221, abs=5e-4)


class TestIdentity:
    def test_score_identity_both_sides_are_info(self):
        g = sl.score_estimator(BERN)
        assert sl.check_identity(g, 0.3) < 1e-6

    def test_lift_y2_identity(self):
        assert sl.check_identity(lift_y2(), 0.4) < 1e-8

    def test_median_lift_identity(self):
        fm = sl.CauchyMedian(2)
        g = sl.lift_point_estimator(fm, lambda z: z)
        assert sl.check_identity(g, 0.0) < 1e-6


class TestSlopeReport:
    @staticmethod
    def passes_per_theta(g, grid, monkeypatch, **kw):
        calls = []

        def counted(f, theta, phi, **k):
            calls.append(theta)
            return values(f, theta, phi, **k)

        values = sl.Bernoulli.values
        monkeypatch.setattr(sl.Bernoulli, "values", counted)
        sl.slope_report(g, grid, **kw)
        return [calls.count(th) for th in grid]

    def test_each_moment_taken_once_per_theta(self, monkeypatch):
        # one pass over the support keeps every per-sample quantity: V(g),
        # E g' by deriv and by central differences, and E[g * score] are
        # reductions of it; the score needs only E[score^2] for its identity
        u = Counted(lambda y: float(y))
        g = sl.lift_point_estimator(BERN, u, mean_fn=lambda p: 10 * p, mean_deriv=lambda p: 10.0)
        assert self.passes_per_theta(g, [0.2, 0.6], monkeypatch) == [1, 1]
        assert u.calls == 2 * 11
        assert self.passes_per_theta(sl.score_estimator(BERN), [0.2, 0.6], monkeypatch) == [1, 1]

    @pytest.mark.parametrize(
        "make, passes",
        [
            (lambda f: sl.lift_point_estimator(f, lambda z: z, mean_fn=lambda th: th, mean_deriv=lambda th: 1.0), 3),
            (lambda f: sl.lift_point_estimator(f, lambda z: z), 7),
            (lambda f: sl.GenEstimator(f, lambda z, th: math.atan(z - th)), 4),
            (lambda f: sl.GenEstimator(f, lambda z, th: math.atan(z - th),
                                       deriv=lambda z, th: -1.0 / (1.0 + (z - th) ** 2)), 4),
            (sl.score_estimator, 1),
        ],
        ids=["lift_closed_form", "lift_engine", "custom_fd", "custom_deriv", "score"],
    )
    def test_quadrature_passes_per_theta(self, make, passes, monkeypatch):
        # each moment is one quadrature pass: V(g) two, E[g * score] one, and
        # E g' one for a custom estimator; a lift's slope is -dups and its
        # central difference that of its means, so neither takes a pass of its
        # own, and without closed forms ups, dups and ups at theta +- h take four
        f = sl.CauchyMedian(3)
        f.fisher_info(0.0)  # the information's quadrature is cached, and not a moment
        calls = []
        integrate = families.integrate_real_line
        monkeypatch.setattr(families, "integrate_real_line", lambda fn: calls.append(fn) or integrate(fn))
        counts = []
        for th in (-0.5, 1.0):
            calls.clear()
            sl.slope_report(make(f), [th])
            counts.append(len(calls))
        assert counts == [passes, passes]

    @pytest.mark.parametrize(
        "g, grid, kw",
        [
            (lift_yy1(), P_GRID, {}),
            (sl.score_estimator(BERN), P_GRID, {}),
            (sl.GenEstimator(BERN, lambda y, p: (y - 10 * p) * (1 + p)), P_GRID[::3], {}),
            (sl.GenEstimator(BERN, lambda y, p: (y - 10 * p) * (1 + p), deriv=lambda y, p: y - 20 * p - 10),
             P_GRID[::3], {}),
            (sl.lift_point_estimator(sl.CauchyMedian(3), lambda z: z), [-0.5, 1.0], {}),
            (sl.lift_point_estimator(sl.CauchyLocation(5), lambda x: float(x[2]), mean_fn=lambda th: th,
                                     mean_deriv=lambda th: 1.0), [0.3], {"mc_draws": 400, "mc_seed": 2}),
        ],
        ids=["lift_yy1", "score", "custom_fd", "custom_deriv", "median_quadrature", "median_mc"],
    )
    def test_columns_equal_the_standalone_functions(self, g, grid, kw):
        # the shared moments give the scalar functions' values bit for bit
        rep = sl.slope_report(g, grid, **kw)
        columns = {
            "lam": sl.squared_slope,
            "rho2": sl.score_correlation2,
            "eff_lambda": sl.lambda_efficiency,
            "eff_n": sl.effective_n,
            "identity_residual": sl.check_identity,
        }
        for name, fn in columns.items():
            want = np.array([fn(g, th, **kw) for th in grid])
            assert getattr(rep, name).tobytes() == want.tobytes(), name


class TestQuadratureBits:
    """Every ``slope_report`` column under quadrature, pinned by ``float.hex``
    (rows lam, rho2, eff_lambda, eff_n, identity_residual; columns THETAS)
    for four roles: a lift with closed forms (3 quadratures per theta), a
    lift without them (7), a custom estimator by central differences (4) and
    the score (1).  However the engine shares its work between these
    quadratures, each must keep these bits."""

    THETAS = [-1.25, 0.0, 2.5]
    FAMILIES = {"median3": sl.CauchyMedian(3), "median7": sl.CauchyMedian(7), "normal": sl.NormalLocation(1.0, 4)}
    ESTIMATORS = {
        "lift_closed_form": lambda f: sl.lift_point_estimator(f, lambda z: z, mean_fn=lambda th: th,
                                                              mean_deriv=lambda th: 1.0),
        "lift_engine": lambda f: sl.lift_point_estimator(f, lambda z: math.atan(z)),
        "custom_fd": lambda f: sl.GenEstimator(f, lambda z, th: math.atan(z - th)),
        "score": sl.score_estimator,
    }
    REPORTS = {
        ("median3", "lift_closed_form"): [
            "0x1.a23eadea37f21p+0", "0x1.a23eadea37f20p+0", "0x1.a23eadea37f1cp+0",
            "0x1.56c3d8d95e931p-1", "0x1.56c3d8d95e933p-1", "0x1.56c3d8d95e937p-1",
            "0x1.ddfe7d9df6cb8p-2", "0x1.ddfe7d9df6cb7p-2", "0x1.ddfe7d9df6cb2p-2",
            "0x1.a23eadea37f21p+1", "0x1.a23eadea37f20p+1", "0x1.a23eadea37f1cp+1",
            "0x1.c6f0000000000p-40", "0x1.8000000000000p-51", "0x1.cf00000000000p-43",
        ],
        ("median3", "lift_engine"): [
            "0x1.7447486ff8f13p+0", "0x1.1c2c685cf6227p+1", "0x1.942b35228d239p-1",
            "0x1.311816da11234p-1", "0x1.d1c74b7885308p-1", "0x1.4b3aafc842ef1p-2",
            "0x1.a97609a48a383p-2", "0x1.44c5098ed0276p-1", "0x1.cde83cb9c5df8p-3",
            "0x1.7447486ff8f13p+1", "0x1.1c2c685cf6227p+2", "0x1.942b35228d239p+0",
            "0x1.bc00000000000p-37", "0x1.c8bd000000000p-37", "0x1.5e11e00000000p-36",
        ],
        ("median3", "custom_fd"): [
            "0x1.1c2c685c4196ep+1", "0x1.1c2c685cd345dp+1", "0x1.1c2c685b383f6p+1",
            "0x1.d1c74b7885300p-1", "0x1.d1c74b7885308p-1", "0x1.d1c74b788530ep-1",
            "0x1.44c5098e01d10p-1", "0x1.44c5098ea84fdp-1", "0x1.44c5098cd2919p-1",
            "0x1.1c2c685c4196ep+2", "0x1.1c2c685cd345dp+2", "0x1.1c2c685b383f6p+2",
            "0x1.fb8ec00000000p-35", "0x1.8806000000000p-37", "0x1.3960a00000000p-33",
        ],
        ("median3", "score"): [
            "0x1.385f97941c4c5p+1", "0x1.385f97941c4c5p+1", "0x1.385f97941c4c5p+1",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.64ff88a944e98p-1", "0x1.64ff88a944e98p-1", "0x1.64ff88a944e98p-1",
            "0x1.385f97941c4c5p+2", "0x1.385f97941c4c5p+2", "0x1.385f97941c4c5p+2",
            "0x0.0p+0", "0x0.0p+0", "0x1.4000000000000p-49",
        ],
        ("median7", "lift_closed_form"): [
            "0x1.38809b95181f9p+2", "0x1.38809b95181f9p+2", "0x1.38809b95181f6p+2",
            "0x1.cd97937b58849p-1", "0x1.cd97937b58844p-1", "0x1.cd97937b5884dp-1",
            "0x1.4d55fb49b354ep-1", "0x1.4d55fb49b354ep-1", "0x1.4d55fb49b354bp-1",
            "0x1.38809b95181f9p+3", "0x1.38809b95181f9p+3", "0x1.38809b95181f6p+3",
            "0x1.c6c0000000000p-40", "0x1.8000000000000p-51", "0x1.ce80000000000p-43",
        ],
        ("median7", "lift_engine"): [
            "0x1.0bcf9bf5ffd1bp+2", "0x1.4f86fdd606953p+2", "0x1.f2b9ed3b71994p+1",
            "0x1.8b944424ed753p-1", "0x1.ef9a12b2e7dabp-1", "0x1.705486237de2fp-1",
            "0x1.1daa3ff55523fp-1", "0x1.65e553066d6bfp-1", "0x1.09fcc2ca5eb82p-1",
            "0x1.0bcf9bf5ffd1bp+3", "0x1.4f86fdd606953p+3", "0x1.f2b9ed3b71994p+2",
            "0x1.09a5200000000p-35", "0x1.c73a000000000p-37", "0x1.584ce00000000p-36",
        ],
        ("median7", "custom_fd"): [
            "0x1.4f86fdd4eaa58p+2", "0x1.4f86fdd5ce897p+2", "0x1.4f86fdd34d90cp+2",
            "0x1.ef9a12b2e7ea3p-1", "0x1.ef9a12b2e7dabp-1", "0x1.ef9a12b2e8101p-1",
            "0x1.65e553053e8e6p-1", "0x1.65e5530631a3bp-1", "0x1.65e5530385efcp-1",
            "0x1.4f86fdd4eaa58p+3", "0x1.4f86fdd5ce897p+3", "0x1.4f86fdd34d90cp+3",
            "0x1.7a00c00000000p-34", "0x1.2a69000000000p-36", "0x1.cffea00000000p-33",
        ],
        ("median7", "score"): [
            "0x1.5aa1077da9b4fp+2", "0x1.5aa1077da9b4fp+2", "0x1.5aa1077da9b4fp+2",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.71bcd4ca4e9eep-1", "0x1.71bcd4ca4e9eep-1", "0x1.71bcd4ca4e9eep-1",
            "0x1.5aa1077da9b4fp+3", "0x1.5aa1077da9b4fp+3", "0x1.5aa1077da9b4fp+3",
            "0x1.2000000000000p-47", "0x0.0p+0", "0x1.1000000000000p-46",
        ],
        ("normal", "lift_closed_form"): [
            "0x1.ffffffffffffcp+1", "0x1.0000000000000p+2", "0x1.ffffffffffff8p+1",
            "0x1.0000000000002p+0", "0x1.0000000000000p+0", "0x1.0000000000004p+0",
            "0x1.ffffffffffffcp-1", "0x1.0000000000000p+0", "0x1.ffffffffffff8p-1",
            "0x1.ffffffffffffcp+1", "0x1.0000000000000p+2", "0x1.ffffffffffff8p+1",
            "0x1.c6f0000000000p-40", "0x0.0p+0", "0x1.d000000000000p-43",
        ],
        ("normal", "lift_engine"): [
            "0x1.d15bf7f81cc3ap+1", "0x1.fa313aba2bb66p+1", "0x1.dc943e3cf4833p+1",
            "0x1.d15bf7f81cc45p-1", "0x1.fa313aba2bb66p-1", "0x1.dc943e3cf4796p-1",
            "0x1.d15bf7f81cc3ap-1", "0x1.fa313aba2bb66p-1", "0x1.dc943e3cf4833p-1",
            "0x1.d15bf7f81cc3ap+1", "0x1.fa313aba2bb66p+1", "0x1.dc943e3cf4833p+1",
            "0x1.6e16800000000p-36", "0x1.dcc5000000000p-37", "0x1.af0b400000000p-36",
        ],
        ("normal", "custom_fd"): [
            "0x1.fa313ab8bec11p+1", "0x1.fa313ab9e38b1p+1", "0x1.fa313ab6a87b5p+1",
            "0x1.fa313aba2bb67p-1", "0x1.fa313aba2bb66p-1", "0x1.fa313aba2bb6ep-1",
            "0x1.fa313ab8bec11p-1", "0x1.fa313ab9e38b1p-1", "0x1.fa313ab6a87b5p-1",
            "0x1.fa313ab8bec11p+1", "0x1.fa313ab9e38b1p+1", "0x1.fa313ab6a87b5p+1",
            "0x1.3717e00000000p-34", "0x1.ec24000000000p-37", "0x1.7f41a00000000p-33",
        ],
        ("normal", "score"): [
            "0x1.0000000000000p+2", "0x1.0000000000000p+2", "0x1.0000000000000p+2",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+2", "0x1.0000000000000p+2", "0x1.0000000000000p+2",
            "0x1.0000000000000p-49", "0x0.0p+0", "0x1.0000000000000p-48",
        ],
    }

    @pytest.mark.parametrize("family, estimator", list(REPORTS))
    def test_report_bits(self, family, estimator):
        rep = sl.slope_report(self.ESTIMATORS[estimator](self.FAMILIES[family]), self.THETAS)
        columns = (rep.lam, rep.rho2, rep.eff_lambda, rep.eff_n, rep.identity_residual)
        assert [float(v).hex() for col in columns for v in col] == self.REPORTS[family, estimator]


class TestMonteCarloBlocks:
    """The score-bearing integrands take a Monte Carlo chunk whole; the values
    stay those of the per-row calls, bit for bit."""

    F = sl.CauchyLocation(15)
    MED = staticmethod(lambda x: float(x[7]))

    @classmethod
    def estimators(cls, kw):
        f = cls.F
        return {
            "score": sl.score_estimator(f),
            "median_closed_form": sl.lift_point_estimator(f, cls.MED, mean_fn=lambda th: th,
                                                          mean_deriv=lambda th: 1.0),
            "median_engine_dups": sl.lift_point_estimator(f, cls.MED, mean_fn=lambda th: th, **kw),
            "custom": sl.GenEstimator(f, lambda x, th: float(x[7]) - th),
        }

    @staticmethod
    def everything(g, th, kw):
        rep = sl.slope_report(g, [th], **kw)
        x = np.sort(th + np.random.default_rng(1).standard_cauchy(15))
        values = [getattr(rep, c)[0] for c in ("lam", "rho2", "eff_lambda", "eff_n", "identity_residual")]
        values += [sl.check_identity(g, th, **kw), sl.standardize(g, th, x, **kw), g.var(th, **kw),
                   sl.lambda_efficiency(g, th, **kw)]
        if hasattr(g, "dups"):
            values.append(g.dups(th))
        return [float(v).hex() for v in values]

    @pytest.mark.parametrize("draws", [5000, 16384 + 7])
    def test_block_forms_equal_their_rows(self, draws, monkeypatch):
        kw = dict(mc_draws=draws, mc_seed=5)
        passes, chunks = [], []

        def spy_values(f, theta, block, **k):
            passes.append(theta)
            return values(f, theta, block, **k)

        def spy_scores(f, theta, ys):
            s = scores(f, theta, ys)
            chunks.append((theta, ys.copy(), s))
            return s

        values, scores = sl.CauchyLocation.values, sl.CauchyLocation.scores
        monkeypatch.setattr(sl.CauchyLocation, "values", spy_values)
        monkeypatch.setattr(sl.CauchyLocation, "scores", spy_scores)
        for g in self.estimators(kw).values():
            sl.slope_report(g, [0.4], **kw)
            g.var(0.4, **kw)
        # one pass over the draws per estimator and call; the score column is
        # kept by the four slope reports and the score's own variance, while
        # a lift's or a custom estimator's variance keeps only its own column
        assert len(passes) == 4 * 2
        assert len(chunks) == 5 * -(-draws // 16384)
        for th, x, s in chunks:
            # value by value: a sum can round a one-ulp difference away
            assert s.tobytes() == np.array([self.F.score(th, r) for r in x]).tobytes()

    def definitions(self, name, th, kw):
        """``everything`` from explicit per-moment expectations with per-row
        integrands: the definitions, none of them the slope engine's."""
        f, med, x = self.F, self.MED, np.sort(th + np.random.default_rng(1).standard_cauchy(15))
        E = lambda phi: f.expect(th, phi, **kw)[0]
        score = lambda y, t=th: f.score(t, y)
        info, h = f.fisher_info(th), 1e-5 * (1.0 + abs(th))
        if name == "score":
            m = E(score)
            var = E(lambda y: (score(y) - m) ** 2)
            cov = E(lambda y: score(y) * score(y))
            lam, rho2, residual, g = info, 1.0, abs(info - cov), score
        else:
            g = lambda y, t=th: med(y) - t
            m = E(g)
            var = E(lambda y: (g(y) - m) ** 2)
            cov = E(lambda y: g(y) * score(y))
            if name == "custom":
                fd = E(lambda y: (g(y, th + h) - g(y, th - h)) / (2.0 * h))
                slope = fd
            else:  # a lift's h' = -dups at every draw; its fd is the difference of its means, ups = theta
                fd = ((th - h) - (th + h)) / (2.0 * h)
                dups = 1.0 if name == "median_closed_form" else E(lambda y: med(y) * score(y))
                slope = -dups
            lam, rho2, residual = slope * slope / var, cov * cov / (var * info), abs(-fd - cov)
        eff = lam / info
        values = [lam, rho2, eff, eff * f.n, residual, residual, g(x) / math.sqrt(var), var, eff]
        if name.startswith("median"):
            values.append(dups)
        return [float(v).hex() for v in values]

    @pytest.mark.parametrize("draws, th, seed", [(5000, 0.4, 5), (16384 + 7, -1.3, 8), (3000, 2.2, 0)])
    def test_slope_quantities_equal_the_per_row_engine(self, draws, th, seed):
        kw = dict(mc_draws=draws, mc_seed=seed)
        for name, g in self.estimators(kw).items():
            assert self.everything(g, th, kw) == self.definitions(name, th, kw), name

    def test_score_runs_once_per_chunk(self, monkeypatch):
        calls = []
        score = sl.CauchyLocation.score

        def counted(self, theta, y):
            calls.append(np.ndim(y))
            return score(self, theta, y)

        monkeypatch.setattr(sl.CauchyLocation, "score", counted)
        med = Counted(self.MED)
        kw = dict(mc_draws=16384 + 7, mc_seed=1)
        g = sl.lift_point_estimator(self.F, med, mean_fn=lambda th: th, **kw)
        sl.slope_report(g, [0.1], **kw)
        # one pass of two chunks: the score once per chunk, the median once
        # per draw, and E[u * score] for the lift's dups from the same columns
        assert calls == [2] * 2
        assert med.calls == 16384 + 7
        calls.clear()
        sl.check_identity(sl.score_estimator(self.F), 0.1, mc_draws=5000)
        assert calls == [2] * 1

    def test_variance_and_standardize_keep_only_the_value_column(self, monkeypatch):
        draws = 16384 + 7  # two chunks
        kw = dict(mc_draws=draws, mc_seed=4)
        chunks = []
        scores = sl.CauchyLocation.scores
        monkeypatch.setattr(sl.CauchyLocation, "scores", lambda f, th, ys: chunks.append(th) or scores(f, th, ys))
        x = np.sort(0.3 + np.random.default_rng(1).standard_cauchy(15))
        stat = Counted(lambda y: float(y[7]))
        custom = sl.GenEstimator(self.F, lambda y, th: stat(y) - th)
        custom.var(0.3, **kw)
        assert stat.calls == draws
        stat.calls = 0
        sl.standardize(custom, 0.3, x, **kw)
        assert stat.calls == draws + 1
        med = Counted(self.MED)
        sl.lift_point_estimator(self.F, med, mean_fn=lambda th: th).var(0.3, **kw)
        assert med.calls == draws
        assert chunks == []
        sl.score_estimator(self.F).var(0.3, **kw)
        assert chunks == [0.3] * 2

    def test_statistic_runs_once_per_draw_per_theta(self):
        draws = 16384 + 7  # two chunks
        kw = dict(mc_draws=draws, mc_seed=4)
        med = Counted(self.MED)
        g = sl.lift_point_estimator(self.F, med, mean_fn=lambda th: th, mean_deriv=lambda th: 1.0)
        sl.slope_report(g, [-0.6, 0.3], **kw)
        assert med.calls == 2 * draws
        for fn in (sl.squared_slope, sl.check_identity):
            med.calls = 0
            fn(g, 0.3, **kw)
            assert med.calls == draws, fn.__name__


class TestNodeEngines:
    """The slope quantities on the binomial sum and the Gauss-Hermite rule,
    against explicit per-moment expectations written from the definitions:
    one weighted sum per moment, each square one product, as in the engine."""

    P_OF = {"p": lambda th: th, "log_odds": lambda th: 1.0 / (1.0 + math.exp(-th))}
    GRID = {"p": [0.05, 0.3, 0.62, 0.9], "log_odds": [-2.5, -0.4, 0.8, 3.0]}

    @classmethod
    def bernoulli_estimators(cls, f):
        p = cls.P_OF[f.chart]
        dp = (lambda th: 1.0) if f.chart == "p" else (lambda th: p(th) * (1.0 - p(th)))
        u = lambda y: float(y * (y - 1))
        mean, dmean = lambda th: 90.0 * p(th) ** 2, lambda th: 180.0 * p(th) * dp(th)
        g = lambda y, th: (y - 10.0 * p(th)) * (1.0 + th * th)
        dg = lambda y, th: -10.0 * dp(th) * (1.0 + th * th) + (y - 10.0 * p(th)) * 2.0 * th
        return {
            "score": (sl.score_estimator(f), None),
            "lift_engine": (sl.lift_point_estimator(f, u), (u, None, None)),
            "lift_mean_only": (sl.lift_point_estimator(f, u, mean_fn=mean), (u, mean, None)),
            "lift_closed_form": (sl.lift_point_estimator(f, u, mean_fn=mean, mean_deriv=dmean), (u, mean, dmean)),
            "custom_fd": (sl.GenEstimator(f, g), (g, None)),
            "custom_deriv": (sl.GenEstimator(f, g, deriv=dg), (g, dg)),
        }

    @staticmethod
    def everything(g, th, ys):
        """slope_report's columns, var and standardize at each y, by the slope engine."""
        rep = sl.slope_report(g, [th])
        values = [getattr(rep, c)[0] for c in ("lam", "rho2", "eff_lambda", "eff_n", "identity_residual")]
        return values + [g.var(th)] + [sl.standardize(g, th, y) for y in ys]

    @staticmethod
    def definitions(f, E, kind, parts, th, ys):
        """``everything`` from explicit per-moment expectations ``E(phi, th)``."""
        score, sq = (lambda y: f.score(th, y)), (lambda v: v * v)
        info, h = f.fisher_info(th), 1e-5 * (1.0 + abs(th))
        if kind == "score":
            m = E(score, th)
            var = E(lambda y: sq(score(y) - m), th)
            cov = E(lambda y: score(y) * score(y), th)
            lam, rho2, residual, g = info, 1.0, abs(info - cov), score
        elif kind.startswith("lift"):
            u, mean, dmean = parts
            ups = (lambda t: E(u, t)) if mean is None else mean
            dups = E(lambda y: u(y) * score(y), th) if dmean is None else dmean(th)
            ups_th = ups(th)
            g = lambda y: u(y) - ups_th
            m = E(g, th)
            var = E(lambda y: sq(g(y) - m), th)
            cov = E(lambda y: g(y) * score(y), th)
            slope = -dups  # h' = -dups at every y
            fd = (ups(th - h) - ups(th + h)) / (2.0 * h)
            lam, rho2, residual = slope * slope / var, cov * cov / (var * info), abs(-fd - cov)
        else:
            ev, dg = parts
            g = lambda y, t=th: ev(y, t)
            m = E(g, th)
            var = E(lambda y: sq(g(y) - m), th)
            cov = E(lambda y: g(y) * score(y), th)
            fd = E(lambda y: (g(y, th + h) - g(y, th - h)) / (2.0 * h), th)
            slope = fd if dg is None else E(lambda y: dg(y, th), th)
            lam, rho2, residual = slope * slope / var, cov * cov / (var * info), abs(-slope - cov)
        eff = lam / info
        return [lam, rho2, eff, eff * f.n, residual, var] + [g(y) / math.sqrt(var) for y in ys]

    @pytest.mark.parametrize("chart", ["p", "log_odds"])
    def test_bernoulli_equals_the_binomial_sums(self, chart):
        f = sl.Bernoulli(10, chart=chart)
        E = lambda phi, th: float(np.dot(f.pmf(th), [phi(y) for y in range(11)]))
        hexes = lambda vals: [float(v).hex() for v in vals]
        ys = range(11)
        for name, (g, parts) in self.bernoulli_estimators(f).items():
            for th in self.GRID[chart]:
                want = self.definitions(f, E, name, parts, th, ys)
                assert hexes(self.everything(g, th, ys)) == hexes(want), (name, th)
        u = lambda y: y / 10.0
        for th in self.GRID[chart]:
            m = E(u, th)
            v = E(lambda y: (u(y) - m) * (u(y) - m), th)
            assert sl.v_efficiency(f, u, th, tol=math.inf).hex() == (1.0 / (f.fisher_info(th) * v)).hex()

    def test_bivariate_slice_equals_the_nested_rule(self):
        # the rule's one weighted sum over its 4,096 nodes adds in another
        # order than the nested sum over each coordinate, so the two agree to
        # rounding: these tolerances were fixed before the engine changed
        f = sl.BivariateNormalSlice(6)
        nodes, w = np.polynomial.hermite_e.hermegauss(64)
        sd = 1.0 / math.sqrt(f.n)

        def E(phi, th):
            total = 0.0
            for a, wa in zip(nodes, w):
                total += wa * sum(wb * phi((th + sd * a, sd * b)) for b, wb in zip(nodes, w))
            return total / (2.0 * math.pi)

        u = lambda z: z[0] + 0.5 * z[1] ** 2
        estimators = {
            "score": (sl.score_estimator(f), None),
            "lift_on_axis": (sl.lift_point_estimator(f, lambda z: z[0], mean_fn=lambda th: th,
                                                     mean_deriv=lambda th: 1.0),
                             (lambda z: z[0], lambda th: th, lambda th: 1.0)),
            "lift_off_axis": (sl.lift_point_estimator(f, lambda z: z[1], mean_fn=lambda th: 0.0,
                                                      mean_deriv=lambda th: 0.0),
                              (lambda z: z[1], lambda th: 0.0, lambda th: 0.0)),
            "lift_engine": (sl.lift_point_estimator(f, u), (u, None, None)),
            "custom_fd": (sl.GenEstimator(f, lambda z, th: math.tanh(z[0] - th) + 0.1 * z[1]),
                          (lambda z, th: math.tanh(z[0] - th) + 0.1 * z[1], None)),
        }
        ys = [(0.3, -0.2), (1.4, 0.9)]
        for name, (g, parts) in estimators.items():
            for th in (-0.3, 0.4, 1.1):
                got, want = self.everything(g, th, ys), self.definitions(f, E, name, parts, th, ys)
                residual = 4
                for i, (a, b) in enumerate(zip(got, want)):
                    if i == residual:
                        assert a == pytest.approx(b, rel=0.0, abs=1e-10), (name, th, i)
                    else:
                        assert a == pytest.approx(b, rel=1e-14, abs=1e-30), (name, th, i)


class TestInvariance:
    def test_chart_invariance_of_efficiency(self):
        fo = sl.Bernoulli(10, chart="log_odds")
        for u in [lambda y: float(y * (y - 1)), lambda y: float(y * y)]:
            gp = sl.lift_point_estimator(BERN, u)
            go = sl.lift_point_estimator(fo, u)
            for p in [0.1, 0.35, 0.6, 0.9]:
                th = sl.reparam(BERN, "p", "log_odds", p)
                assert sl.lambda_efficiency(gp, p) == pytest.approx(
                    sl.lambda_efficiency(go, th), abs=1e-8
                )

    def test_chart_invariance_of_standardized_score_distribution(self):
        fo = sl.Bernoulli(10, chart="log_odds")
        sp = sl.score_estimator(BERN)
        so = sl.score_estimator(fo)
        for p in [0.15, 0.5, 0.75]:
            th = sl.reparam(BERN, "p", "log_odds", p)
            for y in range(11):
                assert sl.standardize(sp, p, y) == pytest.approx(
                    sl.standardize(so, th, y), abs=1e-10
                )

    def test_lambda_invariant_under_positive_rescaling(self):
        base = lift_y2()
        k = lambda th: 2.0 + math.sin(th)
        dk = lambda th: math.cos(th)
        scaled = sl.GenEstimator(
            family=BERN,
            evaluate=lambda y, th: k(th) * base.evaluate(y, th),
            deriv=lambda y, th: dk(th) * base.evaluate(y, th) + k(th) * base.deriv(y, th),
        )
        for p in [0.2, 0.5, 0.8]:
            assert sl.squared_slope(scaled, p) == pytest.approx(
                sl.squared_slope(base, p), rel=1e-8
            )

    def test_affine_statistic_invariance(self):
        u = lambda y: float(y * (y - 1))
        ua = lambda y: 3.0 * u(y) - 7.0
        g, ga = sl.lift_point_estimator(BERN, u), sl.lift_point_estimator(BERN, ua)
        for p in [0.1, 0.5, 0.9]:
            assert sl.score_correlation2(g, p) == pytest.approx(
                sl.score_correlation2(ga, p), abs=1e-10
            )

    def test_label_swap_asymmetry(self):
        p = 0.1
        u2 = lambda y: float(y * (y - 1))
        u2_swapped = lambda y: float((10 - y) * (10 - y - 1))
        r_a = sl.score_correlation2(sl.lift_point_estimator(BERN, u2), p)
        # swapped statistic is negatively associated with the score
        swapped = sl.GenEstimator(
            family=BERN,
            evaluate=sl.lift_point_estimator(
                BERN, lambda y: -u2_swapped(y)
            ).evaluate,
        )
        r_b = sl.score_correlation2(swapped, p)
        assert abs(r_a - r_b) > 0.1
        # u = y is label-swap symmetric
        r_y = sl.score_correlation2(sl.lift_point_estimator(BERN, lambda y: float(y)), p)
        neg_swap_y = sl.GenEstimator(
            family=BERN,
            evaluate=sl.lift_point_estimator(BERN, lambda y: float(-(10 - y))).evaluate,
        )
        assert r_y == pytest.approx(sl.score_correlation2(neg_swap_y, p), abs=1e-10)

    def test_two_submanifold_demo(self):
        bv = sl.BivariateNormalSlice(6)
        on_axis = sl.lift_point_estimator(
            bv, lambda z: z[0], mean_fn=lambda th: th, mean_deriv=lambda th: 1.0
        )
        off_axis = sl.lift_point_estimator(
            bv, lambda z: z[1], mean_fn=lambda th: 0.0, mean_deriv=lambda th: 0.0
        )
        assert sl.squared_slope(on_axis, 0.4) == pytest.approx(6.0, abs=1e-9)
        assert sl.squared_slope(off_axis, 0.4) == 0.0
        # both statistics have variance 1/n: indistinguishable by variance
        assert on_axis.var(0.4) == pytest.approx(1 / 6, abs=1e-9)
        assert off_axis.var(0.4) == pytest.approx(1 / 6, abs=1e-9)

    @given(st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=0, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_standardized_score_chart_invariance_property(self, p, y):
        fo = sl.Bernoulli(10, chart="log_odds")
        th = sl.reparam(BERN, "p", "log_odds", p)
        a = sl.standardize(sl.score_estimator(BERN), p, y)
        b = sl.standardize(sl.score_estimator(fo), th, y)
        assert a == pytest.approx(b, abs=1e-9)


class TestCauchyTable:
    @pytest.mark.parametrize("n", sorted(CAUCHY_TABLE))
    def test_rows_match_reported_values(self, n):
        lam_t, lam_s, eff_t, eff_s, n_t, n_s = CAUCHY_TABLE[n]
        row = sl.cauchy_table_row(n)
        assert row.lam_full_score == n / 2
        assert row.lam_median == pytest.approx(lam_t, abs=1e-3)
        assert row.lam_median_score == pytest.approx(lam_s, abs=1e-3)
        assert row.eff_median == pytest.approx(eff_t, abs=0.05)
        assert row.eff_median_score == pytest.approx(eff_s, abs=0.05)
        assert row.n_median == pytest.approx(n_t, abs=0.05)
        assert row.n_median_score == pytest.approx(n_s, abs=0.05)
        assert row.variance_diverges == (n in (1, 3))

    def test_rejects_even_n(self):
        with pytest.raises(ValueError):
            sl.cauchy_table_row(6)

    @pytest.mark.parametrize("n", [-1, 0, 33])
    def test_out_of_range_n_is_a_domain_error(self, n):
        with pytest.raises(sl.DomainError):
            sl.cauchy_table_row(n)


class TestBernoulliEfficiencyCurves:
    def test_curve_shapes(self):
        p, e1, e2, e3 = sl.bernoulli_efficiency_curves(10, np.linspace(0.02, 0.98, 25))
        assert np.allclose(e1, 1.0, atol=1e-10)
        # efficiency of y(y-1) vanishes linearly as p -> 0
        assert e2[0] < 0.3
        assert np.all(np.diff(e2[p < 0.5]) > 0)
        left = p < 0.5
        assert np.all(e2[left] <= e3[left] + 1e-9)
        assert np.all(e3 <= 1.0 + 1e-9)
