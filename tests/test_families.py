"""Family-level contracts: densities, scores, information, samplers."""

import math
from dataclasses import dataclass

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


class TestCauchyBlockScore:
    """CauchyLocation.score on a block (m, n) of sorted rows: each row's score
    bit for bit, and one bad row fails the block as one bad sample fails."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 15, 16, 129])
    def test_block_equals_rows_bit_for_bit(self, n):
        f = sl.CauchyLocation(n)
        rng = RNG(n)
        for th in (0.0, 0.37, -2.5):
            x = np.sort(th + np.tan(np.pi * (rng.random((max(64, 20_000 // n), n)) - 0.5)), axis=1)
            rows = np.array([f.score(th, r) for r in x])
            assert f.score(th, x).tobytes() == rows.tobytes()
            assert isinstance(f.score(th, x[0]), float)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda x: x[:, ::-1],  # every row descending
            lambda x: np.where(np.arange(x.shape[0])[:, None] == 3, x[:, ::-1], x),  # one row unsorted
            lambda x: np.where((np.arange(x.size) == 17).reshape(x.shape), np.inf, x),
            lambda x: np.where((np.arange(x.size) == 33).reshape(x.shape), np.nan, x),
            lambda x: x[:, 1:],  # width n - 1
            lambda x: x[None],  # three axes
        ],
        ids=["unsorted", "one_row_unsorted", "inf", "nan", "width", "ndim"],
    )
    def test_bad_block_raises(self, bad):
        f = sl.CauchyLocation(5)
        x = np.sort(RNG(3).standard_cauchy((8, 5)), axis=1)
        f.score(0.0, x)
        with pytest.raises(sl.DomainError):
            f.score(0.0, bad(x))

    def test_one_sample_paths_still_take_one_sample(self):
        f = sl.CauchyLocation(5)
        x = np.sort(RNG(4).standard_cauchy((3, 5)), axis=1)
        for call in (f.check_sample, lambda y: f.loglik(0.0, y)):
            with pytest.raises(sl.DomainError):
                call(x)


class TestMcDraws:
    @pytest.mark.parametrize("draws", [0, 1, -3, 2.5, True, np.float64(100.0)])
    def test_rejected(self, draws):
        with pytest.raises(sl.DomainError, match="mc_draws"):
            sl.expect(sl.CauchyLocation(5), 0.0, lambda x: float(x[2]), mc_draws=draws, return_se=True)

    @pytest.mark.parametrize("draws", [2, np.int64(3)])
    def test_two_draws_give_a_standard_error(self, draws):
        value, se = sl.expect(sl.CauchyLocation(5), 0.0, lambda x: float(x[2]), mc_draws=draws, return_se=True)
        assert math.isfinite(value) and math.isfinite(se) and se > 0


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

    def test_cauchy_expect_rejects_seeds_outside_philox_key_range(self):
        f = sl.CauchyLocation(3)
        for seed in (-1, 2**63, 2**64 - 1, 2**64):
            with pytest.raises(sl.DomainError):
                f.expect(0.0, lambda y: y[0], mc_draws=10, mc_seed=seed)
        assert f.expect(0.0, lambda y: y[0], mc_draws=10, mc_seed=2**63 - 1)[1] > 0

    def test_cauchy_expect_in_chunks_draws_the_one_shot_stream(self):
        # a last chunk shorter than the others, and a row that straddles
        # Philox's 4-word blocks (n = 5)
        draws = 2 * families._MC_CHUNK + 37
        u = RNG(3).random((draws, 5))
        x = np.sort(0.2 + np.tan(math.pi * (u - 0.5)), axis=1)
        vals = x[:, 2] * x[:, 0]
        want = (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(draws)))
        assert sl.CauchyLocation(5).expect(0.2, lambda y: y[2] * y[0], mc_draws=draws, mc_seed=3) == want

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


_CAUCHY_Y = np.array([-1.3, -0.2, 0.1, 0.4, 2.0])
_CAUCHY_MLE = 0.07355630226354834  # a root of the score, pinned below
_BERN_INFO = 10 / (0.3 * 0.7)

# One (family, theta, sample) per family with the values its methods must
# give: closed forms where there are any, otherwise numbers pinned from
# the implementation before the methods moved onto the families.  KL is
# taken from theta to theta + 0.3; None means the method is not defined.
CONTRACT = [
    (sl.Bernoulli(10), 0.3, 4, dict(
        expect=(_BERN_INFO, 0.0),
        reference_info=_BERN_INFO,
        observed_info=4 / 0.3**2 + 6 / 0.7**2,
        mle=0.4,
        sup_loglik=4 * math.log(0.4) + 6 * math.log(0.6),
        kl=10 * (0.3 * math.log(0.3 / 0.6) + 0.7 * math.log(0.7 / 0.4)),
    )),
    (sl.NormalLocation(1.3, 4), 0.2, 0.5, dict(
        expect=(4 / 1.3**2, 0.0),
        reference_info=4 / 1.3**2,
        observed_info=4 / 1.3**2,
        mle=0.5,
        sup_loglik=0.0,
        kl=4 * 0.3**2 / (2 * 1.3**2),
    )),
    (sl.CauchyLocation(5), 0.2, _CAUCHY_Y, dict(
        # Philox Monte Carlo, 2000 draws with seed 1: 2.5 +- one se
        expect=(2.5644510902971107, 0.077154519120221),
        reference_info=5 / 2,
        observed_info=float(np.sum(2 * (1 - (_CAUCHY_Y - 0.2) ** 2) / (1 + (_CAUCHY_Y - 0.2) ** 2) ** 2)),
        mle=_CAUCHY_MLE,
        sup_loglik=-float(np.sum(np.log(math.pi * (1 + (_CAUCHY_Y - _CAUCHY_MLE) ** 2)))),
        kl=math.log(0.3**2 + 4) - math.log(4),
    )),
    (sl.CauchyMedian(3), 0.2, 0.5, dict(
        expect=(2.4404172394939416, 0.0),
        reference_info=7 / 2,
        observed_info=3.4320310377256025,
        mle=0.5,
        # the median of 7 draws has density 7!/(3! 3!) 2^-6 / pi at its center
        sup_loglik=math.log(140 / (64 * math.pi)),
        kl=0.10794959467847175,
    )),
    (sl.BivariateNormalSlice(4), 0.2, (0.5, -0.1), dict(
        expect=(4.0, 0.0),
        reference_info=4.0,
        observed_info=4.0,
        mle=None,
        sup_loglik=None,
        kl=None,
    )),
]
CONTRACT_IDS = [type(f).__name__ for f, _, _, _ in CONTRACT]
REL = 1e-9  # quadrature and central differences; closed forms agree to ~1e-15


class TestFamilyContract:
    """Each Family method, and the public function it serves, gives the
    family's known value at one (theta, sample)."""

    @pytest.mark.parametrize("f,th,y,want", CONTRACT, ids=CONTRACT_IDS)
    def test_expect(self, f, th, y, want):
        phi = lambda s: f.score(th, s) ** 2
        kw = dict(mc_draws=2000, mc_seed=1)
        for value, se in (f.expect(th, phi, **kw), sl.expect(f, th, phi, return_se=True, **kw)):
            assert value == pytest.approx(want["expect"][0], rel=REL)
            assert se == pytest.approx(want["expect"][1], rel=REL)
        # E[score^2] is the Fisher information, up to the Monte Carlo error
        assert abs(value - f.fisher_info(th)) <= max(se, 1e-9)

    @pytest.mark.parametrize("f,th,y,want", CONTRACT, ids=CONTRACT_IDS)
    def test_information(self, f, th, y, want):
        for info in (f.reference_info(th), sl.reference_info(f, th)):
            assert info == pytest.approx(want["reference_info"], rel=1e-14)
        # a central difference except for the Normal and Cauchy closed forms
        for info in (f.observed_info(th, y), sl.observed_info(f, th, y)):
            assert info == pytest.approx(want["observed_info"], rel=1e-8)

    @pytest.mark.parametrize("f,th,y,want", CONTRACT, ids=CONTRACT_IDS)
    def test_mle_and_sup_loglik(self, f, th, y, want):
        if want["mle"] is None:
            for call in (lambda: f.mle(y), lambda: sl.family_mle(f, y), lambda: sl.lrt_estimate(f, y)):
                with pytest.raises(NotImplementedError):
                    call()
            return
        for mle in (f.mle(y), sl.family_mle(f, y)):
            assert mle == pytest.approx(want["mle"], rel=1e-12)
        assert f.score(want["mle"], y) == pytest.approx(0.0, abs=1e-12)
        L = sl.lrt_estimate(f, y)
        assert L.mle == pytest.approx(want["mle"], rel=1e-12)
        for sup in (L.sup_loglik, f.sup_loglik(y, L.mle)):
            assert sup == pytest.approx(want["sup_loglik"], rel=1e-12, abs=1e-15)
        assert L(L.mle) == 0.0

    @pytest.mark.parametrize("f,th,y,want", CONTRACT, ids=CONTRACT_IDS)
    def test_kl(self, f, th, y, want):
        if want["kl"] is None:
            for call in (lambda: f.kl(th, th + 0.3), lambda: sl.kl_divergence(f, th, th + 0.3)):
                with pytest.raises(NotImplementedError):
                    call()
            return
        for kl in (f.kl(th, th + 0.3), sl.kl_divergence(f, th, th + 0.3)):
            assert kl == pytest.approx(want["kl"], rel=REL)
        assert f.kl(th, th) == pytest.approx(0.0, abs=1e-12)


@dataclass(frozen=True)
class Logistic(sl.Family):
    """Logistic location, one observation: a family defined outside the
    package with only the required methods."""

    def check_sample(self, y):
        if not np.isfinite(y):
            raise sl.DomainError(f"y={y} is not finite")

    def density(self, theta, y):
        e = np.exp(-np.abs(np.asarray(y, dtype=float) - theta))
        return e / (1.0 + e) ** 2

    def loglik(self, theta, y):
        return float(np.log(self.density(theta, y)))

    def score(self, theta, y):
        return float(np.tanh((y - theta) / 2.0))

    def fisher_info(self, theta):
        return 1.0 / 3.0


class TestNewFamily:
    """A new family needs no edit elsewhere in the package."""

    def test_base_methods_serve_the_public_functions(self):
        f = Logistic()
        assert sl.expect(f, 0.4, lambda y: f.score(0.4, y) ** 2) == pytest.approx(1 / 3, rel=1e-8)
        # the sample value is unbiased with variance pi^2 / 3
        g = sl.lift_point_estimator(f, lambda y: y, mean_fn=lambda th: th, mean_deriv=lambda th: 1.0)
        assert sl.squared_slope(g, 0.4) == pytest.approx(3 / math.pi**2, rel=1e-7)
        assert sl.lambda_efficiency(g, 0.4) == pytest.approx(9 / math.pi**2, rel=1e-7)
        assert sl.observed_info(f, 0.0, 0.0) == pytest.approx(0.5, rel=1e-8)
        assert sl.reference_info(f, 0.4) == 1 / 3
        assert sl.default_grid(f, 3).tolist() == [-4.0, 0.0, 4.0]

    def test_likelihood_ratio_and_kl_need_their_methods(self):
        f = Logistic()
        with pytest.raises(NotImplementedError):
            sl.lrt_estimate(f, 0.0)
        with pytest.raises(NotImplementedError):
            sl.kl_divergence(f, 0.0, 1.0)
