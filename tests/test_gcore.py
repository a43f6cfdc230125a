"""Slope, efficiency, and identity properties of generalized estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slope_lab as sl

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


def lift_y():
    return sl.lift_point_estimator(BERN, lambda y: float(y))


def lift_yy1():
    return sl.lift_point_estimator(BERN, lambda y: float(y * (y - 1)))


def lift_y2():
    return sl.lift_point_estimator(BERN, lambda y: float(y * y))


class TestExpect:
    def test_binomial_mean(self):
        assert sl.expect(BERN, 0.3, lambda y: y) == pytest.approx(3.0)

    def test_binomial_variance_exact(self):
        assert sl.expect(BERN, 0.5, lambda y: (y - 5) ** 2) == pytest.approx(2.5)

    def test_median_second_moment_matches_table(self):
        # 1 / Lambda(median) for n = 15
        v = sl.expect(sl.CauchyMedian(7), 0.0, lambda z: z * z)
        assert v == pytest.approx(1.0 / 4.88286, abs=1e-4)

    def test_cauchy_mc_reports_se(self):
        f = sl.CauchyLocation(3)
        val, se = sl.expect(
            f, 0.0, lambda x: float(np.median(x)), mc_draws=20_000, return_se=True
        )
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


class TestLift:
    def test_lift_of_y(self):
        h = lift_y()
        assert h(7, 0.3) == pytest.approx(7 - 3.0)

    def test_umvue_mean_function(self):
        h = lift_yy1()
        assert h.mean_fn(0.4) == pytest.approx(90 * 0.16, abs=1e-9)

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

        # 11 support points: E[u * score] for the slope, E[u] for the
        # lift's mean, then E[h] and E[(h - E h)^2] for the variance
        u = Counted(lambda y: float(y * (y - 1)))
        sl.lambda_efficiency(sl.lift_point_estimator(BERN, u), 0.3)
        assert u.calls == 4 * 11
        # 1000 draws each for E[median] and the two passes of the variance
        med = Counted(lambda x: float(x[7]))
        g = sl.lift_point_estimator(sl.CauchyLocation(15), med, mc_draws=1000)
        g.var(0.2, mc_draws=1000)
        assert med.calls == 3 * 1000


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
            total = sl.expect(BERN, p, lambda y: (g(y, p) / math.sqrt(v)) ** 2)
            assert total == pytest.approx(1.0, abs=1e-10)


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

    def test_v_efficiency_matches_lambda_efficiency_for_unbiased(self):
        # y/n is unbiased for p: Eff^V = Eff^Lambda (equality case)
        u = lambda y: y / 10.0
        for p in [0.2, 0.5, 0.8]:
            effv = sl.v_efficiency(BERN, u, p)
            effl = sl.lambda_efficiency(sl.lift_point_estimator(BERN, u), p)
            assert effv == pytest.approx(effl, abs=1e-8)

    def test_v_efficiency_takes_the_mean_once(self):
        # 11 support points: E[u] for the bias check, reused by the variance pass
        u = Counted(lambda y: y / 10.0)
        sl.v_efficiency(BERN, u, 0.3)
        assert u.calls == 2 * 11

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

        def counted(*a, **k):
            calls.append(a[1])
            return expect(*a, **k)

        expect = sl.gcore.expect
        monkeypatch.setattr(sl.gcore, "expect", counted)
        sl.slope_report(g, grid, **kw)
        return [calls.count(th) for th in grid]

    def test_each_moment_taken_once_per_theta(self, monkeypatch):
        # V(g) (two passes), E g' by deriv, E g' by central differences and
        # E[g * score]; the score needs only E[score^2] for its identity
        g = sl.lift_point_estimator(BERN, lambda y: float(y), mean_fn=lambda p: 10 * p, mean_deriv=lambda p: 10.0)
        assert self.passes_per_theta(g, [0.2, 0.6], monkeypatch) == [5, 5]
        assert self.passes_per_theta(sl.score_estimator(BERN), [0.2, 0.6], monkeypatch) == [1, 1]

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
        if g.mean_deriv is not None:
            values.append(g.mean_deriv(th))
        return [float(v).hex() for v in values]

    @pytest.mark.parametrize("draws", [5000, 16384 + 7])
    def test_block_forms_equal_their_rows(self, draws, monkeypatch):
        kw = dict(mc_draws=draws, mc_seed=5)
        seen = []

        def spy(f, theta, phi, **k):
            seen.append((theta, phi))
            return expect(f, theta, phi, **k)

        expect = sl.gcore.expect
        monkeypatch.setattr(sl.gcore, "expect", spy)
        for g in self.estimators(kw).values():
            sl.slope_report(g, [0.4], **kw)
            g.var(0.4, **kw)
        blocked = [(th, phi) for th, phi in seen if hasattr(phi, "block")]
        # V(score) twice, E[score^2] and E[g * score] of each other estimator, E[u * score]
        assert len(blocked) == 2 + 4 + 1
        u = np.random.default_rng(draws).random((16384, 15))
        for th, phi in blocked:
            stripped = lambda x: phi(x)
            a = self.F.expect(th, phi, **kw)
            b = self.F.expect(th, stripped, **kw)
            assert [v.hex() for v in a] == [v.hex() for v in b]
            # value by value too: a sum can round a one-ulp difference away
            x = np.sort(th + np.tan(np.pi * (u - 0.5)), axis=1)
            assert phi.block(x).tobytes() == np.array([phi(r) for r in x]).tobytes()

    @pytest.mark.parametrize("draws, th, seed", [(5000, 0.4, 5), (16384 + 7, -1.3, 8), (3000, 2.2, 0)])
    def test_slope_quantities_equal_the_per_row_engine(self, draws, th, seed, monkeypatch):
        kw = dict(mc_draws=draws, mc_seed=seed)
        blocked = {k: self.everything(g, th, kw) for k, g in self.estimators(kw).items()}
        monkeypatch.setattr(sl.gcore, "_with_block", lambda phi, block: phi)
        per_row = {k: self.everything(g, th, kw) for k, g in self.estimators(kw).items()}
        assert blocked == per_row

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
        # E[u * score] and E[g * score], two chunks each.  The median runs per
        # row: twice for V(g), twice for E g' by central differences, once each
        # for E[g * score] and E[u * score]
        assert calls == [2] * 4
        assert med.calls == 6 * (16384 + 7)
        calls.clear()
        sl.check_identity(sl.score_estimator(self.F), 0.1, mc_draws=5000)
        assert calls == [2] * 2


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
