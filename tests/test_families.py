"""Family-level contracts: densities, scores, information, samplers."""

import math

import numpy as np
import pytest
from scipy import integrate

import slope_lab as sl
from slope_lab import families
from slope_lab.quadrature import integrate_real_line

RNG = lambda seed=0: np.random.Generator(np.random.Philox(key=[seed, 0]))


class TestLoglik:
    def test_bernoulli_closed_form(self):
        f = sl.Bernoulli(10)
        assert f.loglik(0.5, 5) == pytest.approx(10 * math.log(0.5), abs=1e-12)

    def test_cauchy_single_obs_at_mode(self):
        f = sl.CauchyLocation(1)
        assert f.loglik(0.0, np.array([0.0])) == pytest.approx(-math.log(math.pi))

    def test_normal_maximal_at_xbar(self):
        f = sl.NormalLocation(1.0, 4)
        best = f.loglik(0.0, 0.0)
        for th in [-1.0, -0.3, 0.2, 0.9]:
            assert f.loglik(th, 0.0) < best

    def test_domain_errors(self):
        with pytest.raises(sl.DomainError):
            sl.Bernoulli(10).loglik(1.5, 5)
        with pytest.raises(sl.DomainError):
            sl.Bernoulli(10).loglik(0.5, 11)
        with pytest.raises(sl.DomainError):
            sl.CauchyLocation(3).loglik(0.0, np.array([2.0, 1.0, 3.0]))  # unsorted


class TestScore:
    def test_bernoulli_score_zero_at_mle(self):
        assert sl.Bernoulli(10).score(0.5, 5) == 0.0

    def test_cauchy_hand_value(self):
        f = sl.CauchyLocation(1)
        assert f.score(1.0, np.array([0.0])) == pytest.approx(-1.0)

    def test_normal_hand_value(self):
        f = sl.NormalLocation(1.0, 4)
        assert f.score(0.5, 1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "family,grid",
        [
            (sl.Bernoulli(10), np.linspace(0.05, 0.95, 10)),
            (sl.NormalLocation(1.3, 4), np.linspace(-2, 2, 10)),
            (sl.CauchyMedian(3), np.linspace(-2, 2, 10)),
        ],
    )
    def test_score_integrates_to_zero(self, family, grid):
        for th in grid:
            mean = sl.expect(family, th, lambda y: family.score(th, y))
            assert abs(mean) < 1e-8

    @pytest.mark.parametrize(
        "family,grid",
        [
            (sl.Bernoulli(10), np.linspace(0.05, 0.95, 10)),
            (sl.NormalLocation(1.3, 4), np.linspace(-2, 2, 10)),
            (sl.CauchyMedian(3), np.linspace(-2, 2, 10)),
        ],
    )
    def test_information_identity(self, family, grid):
        # V(score) vs -E[d(score)/dtheta] via central differences
        for th in grid:
            v = sl.variance(family, th, lambda y: family.score(th, y))
            h = 1e-5 * (1 + abs(th))
            neg_e_dd = -sl.expect(
                family,
                th,
                lambda y: (family.score(th + h, y) - family.score(th - h, y)) / (2 * h),
            )
            assert v == pytest.approx(neg_e_dd, abs=1e-5 * max(1.0, v))
            assert v == pytest.approx(family.fisher_info(th), rel=1e-6)

    def test_chart_covariance_of_score(self):
        # score in log-odds chart = (dp/dtheta) * score in p chart
        fp = sl.Bernoulli(10, chart="p")
        fo = sl.Bernoulli(10, chart="log_odds")
        for p in [0.1, 0.35, 0.5, 0.8]:
            th = sl.reparam(fp, "p", "log_odds", p)
            dp_dth = p * (1 - p)
            for y in range(11):
                assert fo.score(th, y) == pytest.approx(dp_dth * fp.score(p, y), abs=1e-10)


class TestFisherInfo:
    def test_cauchy_full_sample(self):
        assert sl.CauchyLocation(15).fisher_info(0.0) == 7.5

    def test_bernoulli(self):
        assert sl.Bernoulli(10).fisher_info(0.5) == pytest.approx(40.0)

    def test_median_single_observation(self):
        assert sl.CauchyMedian(0).fisher_info(0.0) == pytest.approx(0.5, abs=1e-9)


class TestMedianDensity:
    def test_k0_is_standard_cauchy(self):
        assert sl.median_density(0, 0.0, 0.0) == pytest.approx(1 / math.pi)

    def test_normalizes(self):
        total = integrate_real_line(lambda z: sl.median_density(7, z, 0.0))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_symmetric(self):
        c, th, k = 1.7, 0.4, 3
        assert sl.median_density(k, th + c, th) == pytest.approx(
            sl.median_density(k, th - c, th), abs=1e-12
        )

    def test_large_k_no_overflow(self):
        assert np.isfinite(sl.median_density(120, 0.3, 0.0))

    @pytest.mark.parametrize("k", [0, 1])
    def test_variance_diverges_small_k(self, k):
        with pytest.raises(sl.DivergentIntegralError):
            sl.median_variance(k)

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_variance_exists_k_ge_2(self, k):
        assert sl.median_variance(k) > 0

    @pytest.mark.parametrize("k", [1, 3])
    def test_variance_cached_including_divergence(self, k, monkeypatch):
        # the truncation ladder runs once per k, also when it finds the
        # variance divergent (k < 2): later calls answer from the cache
        calls = []
        ladder = families.integrate_real_line_or_divergent

        def counted(f):
            calls.append(1)
            return ladder(f)

        monkeypatch.setattr(families, "_MEDIAN_VAR_CACHE", {})
        monkeypatch.setattr(families, "integrate_real_line_or_divergent", counted)
        outcomes = []
        for _ in range(3):
            try:
                outcomes.append(sl.median_variance(k))
            except sl.DivergentIntegralError as exc:
                outcomes.append(type(exc))
        assert len(calls) == 1
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert (outcomes[0] is sl.DivergentIntegralError) == (k < 2)


class TestDensitiesNormalize:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_bernoulli_pmf_sums_to_one(self, p):
        assert sl.Bernoulli(10).pmf(p).sum() == pytest.approx(1.0, abs=1e-12)

    def test_normal_density_integrates_to_one(self):
        f = sl.NormalLocation(2.0, 5)
        total = integrate_real_line(lambda x: f.density(0.7, x))
        assert total == pytest.approx(1.0, abs=1e-8)


class TestSampler:
    def test_bernoulli_support(self):
        f = sl.Bernoulli(10)
        ys = [f.sample(0.3, RNG(s)) for s in range(50)]
        assert all(0 <= y <= 10 for y in ys)

    def test_determinism(self):
        f = sl.CauchyLocation(15)
        a = f.sample(1.0, RNG(42))
        b = f.sample(1.0, RNG(42))
        assert np.array_equal(a, b)

    def test_cauchy_sorted(self):
        x = sl.CauchyLocation(15).sample(0.0, RNG(3))
        assert np.all(np.diff(x) >= 0)

    def test_empirical_median_matches_location(self):
        rng = RNG(11)
        f = sl.CauchyLocation(1)
        draws = np.array([f.sample(3.0, rng)[0] for _ in range(100_000)])
        # se of the sample median of N Cauchy draws is ~ pi/(2 sqrt(N))
        assert np.median(draws) == pytest.approx(3.0, abs=0.02)


class TestReparam:
    def test_symmetry_point(self):
        f = sl.Bernoulli(10)
        assert sl.reparam(f, "p", "log_odds", 0.5) == pytest.approx(0.0)

    def test_round_trip(self):
        f = sl.Bernoulli(10)
        th = sl.reparam(f, "p", "log_odds", 0.5)
        assert sl.reparam(f, "log_odds", "p", th) == pytest.approx(0.5, abs=1e-14)

    def test_hand_value(self):
        f = sl.Bernoulli(10)
        assert sl.reparam(f, "p", "log_odds", 0.75) == pytest.approx(math.log(3.0))

    def test_boundary_rejected(self):
        with pytest.raises(sl.DomainError):
            sl.reparam(sl.Bernoulli(10), "p", "log_odds", 1.0)

    def test_bad_chart_rejected(self):
        with pytest.raises(sl.DomainError):
            sl.reparam(sl.NormalLocation(1.0, 2), "p", "theta", 0.5)
