"""Family-level contracts: densities, scores, information, samplers."""

import contextlib
import math
import signal
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

    @pytest.mark.parametrize("theta", [-2.5, 0.0, 1.5, 5.0])
    def test_bernoulli_log_odds_is_the_p_chart_at_expit(self, theta):
        f, fp = sl.Bernoulli(10, chart="log_odds"), sl.Bernoulli(10)
        p = 1.0 / (1.0 + math.exp(-theta))
        for y in (0, 3, 10):
            assert f.loglik(theta, y) == pytest.approx(fp.loglik(p, y), rel=1e-12)

    def test_bivariate_slice_loglik(self):
        f = sl.BivariateNormalSlice(4)
        y = (0.3, -0.5)
        assert f.loglik(0.1, y) == pytest.approx(-4.0 * (0.2**2 + 0.5**2) / 2.0, rel=1e-12)
        # its theta-derivative is the score, which z2 does not enter
        h = 1e-6
        assert (f.loglik(0.1 + h, y) - f.loglik(0.1 - h, y)) / (2 * h) == pytest.approx(f.score(0.1, y), rel=1e-8)

    @pytest.mark.parametrize("y", [(math.nan, 1.0), (1.0, math.inf), (1.0,), (1.0, 2.0, 3.0), 1.0], ids=repr)
    def test_bivariate_sample_is_a_finite_pair(self, y):
        f = sl.BivariateNormalSlice(4)
        for call in (f.check_sample, lambda y: f.loglik(0.0, y), lambda y: f.score(0.0, y)):
            with pytest.raises(sl.DomainError, match="pair"):
                call(y)


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
            mean = family.expect(th, lambda y: family.score(th, y))[0]
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
            neg_e_dd = -family.expect(
                th,
                lambda y: (family.score(th + h, y) - family.score(th - h, y)) / (2 * h),
            )[0]
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


class TestSizeParameters:
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: sl.Bernoulli(v),
            lambda v: sl.NormalLocation(1.0, v),
            lambda v: sl.CauchyLocation(v),
            lambda v: sl.BivariateNormalSlice(v),
            lambda v: sl.CauchyMedian(v - 1),  # k = n - 1: its least value is 0
        ],
        ids=["bernoulli", "normal", "cauchy", "bivariate", "median"],
    )
    @pytest.mark.parametrize("value", [0, -2, 2.5, math.nan, math.inf, 3.0, np.float64(4.0)])
    def test_a_size_is_an_integer_at_least_its_least(self, make, value):
        with pytest.raises(sl.DomainError, match="must be a (positive|nonnegative) integer"):
            make(value)

    @pytest.mark.parametrize(
        "make",
        [sl.Bernoulli, lambda v: sl.NormalLocation(1.0, v), sl.CauchyLocation, sl.BivariateNormalSlice],
        ids=["bernoulli", "normal", "cauchy", "bivariate"],
    )
    def test_a_size_is_not_a_bool(self, make):
        # True == 1, so only the type tells a bool from a one-observation size
        with pytest.raises(sl.DomainError, match="must be a positive integer"):
            make(True)
        assert make(np.int64(10)).n == 10

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_normal_sigma_is_positive_and_finite(self, sigma):
        with pytest.raises(sl.DomainError, match="sigma"):
            sl.NormalLocation(sigma, 3)

    def test_least_sizes_are_accepted(self):
        assert sl.CauchyMedian(0).n == 1
        assert sl.CauchyLocation(1).fisher_info(0.0) == 0.5


class TestMcDraws:
    @pytest.mark.parametrize("draws", [0, 1, -3, 2.5, True, np.float64(100.0)])
    def test_rejected(self, draws):
        with pytest.raises(sl.DomainError, match="mc_draws"):
            sl.CauchyLocation(5).expect(0.0, lambda x: float(x[2]), mc_draws=draws)

    @pytest.mark.parametrize("draws", [2, np.int64(3)])
    def test_two_draws_give_a_standard_error(self, draws):
        value, se = sl.CauchyLocation(5).expect(0.0, lambda x: float(x[2]), mc_draws=draws)
        assert math.isfinite(value) and math.isfinite(se) and se > 0


def _summary():
    return sl.run_coverage(sl.SimConfig(n=5, reps=40, seed=0))


class TestInputsAreChecked:
    """Each method checks what it is given: the engine the Monte Carlo
    arguments of every family, whether or not it draws, and each family
    method its sample and parameter, as ``CauchyLocation`` does."""

    CASES = {
        "expect-bernoulli-mc": lambda: sl.Bernoulli(3).expect(0.5, lambda y: 1.0, mc_draws=2.5, mc_seed=True),
        "expect-normal-mc": lambda: sl.NormalLocation(1.0, 3).expect(0.5, lambda y: 1.0, mc_draws=-1, mc_seed="x"),
        "variance-median-mc": lambda: sl.variance(sl.CauchyMedian(3), 0.5, lambda z: z, mc_draws=-1),
        "median_density-bool": lambda: families.median_density(True, 0.0, 0.0),
        "median_sd-float": lambda: sl.mc.median_sd(7.5),
        "bernoulli-mle-above-n": lambda: sl.Bernoulli(10).mle(11),
        "bernoulli-mle-fraction": lambda: sl.Bernoulli(10).mle(2.5),
        "family_mle-above-n": lambda: sl.Bernoulli(10).mle(11),
        "log-odds-mle-above-n": lambda: sl.Bernoulli(10, chart="log_odds").mle(11),
        "bernoulli-sup_loglik-above-n": lambda: sl.Bernoulli(10).sup_loglik(11, 1.1),
        "normal-mle-nan": lambda: sl.NormalLocation(1.0, 3).mle(math.nan),
        "median-mle-inf": lambda: sl.CauchyMedian(3).mle(math.inf),
        "normal-observed_info-nan": lambda: sl.NormalLocation(1.0, 3).observed_info(math.nan, 0.0),
        "observed_info-normal-nan": lambda: sl.observed_info(sl.NormalLocation(1.0, 3), math.nan, 0.0),
        "cauchy-observed_info-nan": lambda: sl.CauchyLocation(3).observed_info(math.nan, np.array([0.0, 1.0, 2.0])),
        "kl_ball-radius-nan": lambda: sl.KlBall(sl.NormalLocation(1.0, 3), 0.0, math.nan),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_bad_input_is_a_domain_error(self, case):
        with pytest.raises(sl.DomainError):
            self.CASES[case]()


class TestIntegerRule:
    """Every size, count and seed: an int or numpy integer, never a bool or
    a float, or a DomainError; one helper, families.check_int, decides."""

    ENTRIES = {
        "SimConfig.n": (lambda v: sl.SimConfig(n=v), 15),
        "SimConfig.reps": (lambda v: sl.SimConfig(reps=v), 20),
        "SimConfig.seed": (lambda v: sl.SimConfig(seed=v), 3),
        "expect.mc_seed": (lambda v: sl.CauchyLocation(5).expect(0.0, lambda x: float(x[2]), mc_draws=64,
                                                                 mc_seed=v), 3),
        "bin_by_obs_info.bins": (lambda v: sl.bin_by_obs_info(_summary(), v).counts.tolist(), 4),
        "default_grid.points": (lambda v: sl.default_grid(sl.Bernoulli(3), v).tolist(), 5),
        "cauchy_table_row.n": (lambda v: sl.cauchy_table_row(v), 5),
        "median_fisher_info.k": (sl.median_fisher_info, 3),
        "median_variance.k": (sl.median_variance, 2),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), True, np.True_, "3"], ids=repr)
    def test_a_bool_or_float_is_a_domain_error(self, entry, value):
        with pytest.raises(sl.DomainError, match=r"must be (a positive|a nonnegative|an) integer"):
            self.ENTRIES[entry][0](value)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_a_numpy_integer_is_accepted(self, entry):
        make, good = self.ENTRIES[entry]
        assert make(np.int64(good)) == make(good)

    @pytest.mark.parametrize("entry", ["median_fisher_info.k", "median_variance.k"])
    def test_a_cached_law_is_not_given_for_a_float(self, entry):
        # each k is integrated once and cached; a float equal to a k
        # already cached is refused all the same
        make, good = self.ENTRIES[entry]
        make(np.int64(good))
        with pytest.raises(sl.DomainError, match="must be a nonnegative integer"):
            make(float(good))


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail the block with TimeoutError if it runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestBisectFarOut:
    """Beyond about 1e6 the float spacing exceeds the 1e-10 tolerance, so the
    bisection stops when no float is left between its ends."""

    def test_kl_length_far_out_ends(self):
        with deadline(6):
            length = sl.kl_length(sl.NormalLocation(1.0, 1), (1e7, 1e7 + 1))
        assert length == pytest.approx(0.125, rel=1e-6)

    def test_lrt_interval_far_out_ends(self):
        with deadline(6):
            iv = sl.lrt_interval(sl.lrt_estimate(sl.NormalLocation(1.0, 4), 1e7), 1.96)
        assert (iv.lo, iv.hi) == pytest.approx((1e7 - 0.98, 1e7 + 0.98), abs=1e-8)


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

    @pytest.mark.parametrize("k", [0, 3, 7, 15])
    def test_an_array_is_its_points_bit_for_bit(self, k):
        # every square is one product, so a point's density does not depend
        # on whether it comes alone or in an array
        z = 3.0 * np.random.default_rng(1).standard_cauchy(20_000)
        alone = np.array([sl.median_density(k, float(v), 0.0) for v in z])
        assert np.count_nonzero(sl.median_density(k, z, 0.0) != alone) == 0

    @pytest.mark.parametrize("k", [0, 1])
    def test_variance_diverges_small_k(self, k):
        with pytest.raises(sl.DivergentIntegralError):
            sl.median_variance(k)

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_variance_exists_k_ge_2(self, k):
        assert sl.median_variance(k) > 0

    def test_variance_k2_matches_high_precision(self):
        # a 30-digit quadrature gives 1.22125307065229623435; the integral's
        # tail beyond |z| = 1e9 alone is 1.6e-9 of it
        assert sl.median_variance(2) == pytest.approx(1.2212530706522962, rel=1e-14)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_variance_cached_including_divergence(self, k, monkeypatch):
        # the divergence for k < 2 is a rule that needs no quadrature; for
        # k >= 2 the first call integrates and later calls hit the cache
        calls = []

        def counted(f):
            calls.append(1)
            return integrate_real_line(f)

        monkeypatch.setattr(families, "integrate_real_line", counted)
        families.median_variance.cache_clear()
        outcomes = []
        for _ in range(3):
            try:
                outcomes.append(sl.median_variance(k))
            except sl.DivergentIntegralError as exc:
                outcomes.append(type(exc))
        assert len(calls) == (0 if k < 2 else 1)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert (outcomes[0] is sl.DivergentIntegralError) == (k < 2)


class TestMedianLawBits:
    """The median law's information (k = 0..15), variance (k = 2..15) and
    divergence, pinned by ``float.hex``: each is one ``CauchyMedian.expect``
    and keeps the bits of its earlier own quadrature.  The uncached
    functions are called, so each value is integrated here."""

    FISHER_INFO = [
        "0x1.0000000000000p-1", "0x1.173432eb10400p+0", "0x1.bedaa17c24990p+0", "0x1.385f97941c4c5p+1",
        "0x1.94b0afe065388p+1", "0x1.f35711abd29cdp+1", "0x1.29d60f3c4c14ap+2", "0x1.5aa1077da9b4fp+2",
        "0x1.8be6cc949e8ebp+2", "0x1.bd8cadfbb1e7cp+2", "0x1.ef7f36c49a135p+2", "0x1.10d7f0778add2p+3",
        "0x1.2a09ce1a939e0p+3", "0x1.4350ea4e1aa1cp+3", "0x1.5ca9e4793aa17p+3", "0x1.76120a69a9dc2p+3",
    ]
    VARIANCE = [
        "0x1.38a40a8e9757ap+0", "0x1.3962c4b3fdfcbp-1", "0x1.a277881994820p-2", "0x1.3a2ab7569834ap-2",
        "0x1.f708c74e20b9ap-3", "0x1.a36d5de07796bp-3", "0x1.67aa355310288p-3", "0x1.3ad105a05604bp-3",
        "0x1.17eac3d81d42ep-3", "0x1.f7f8ad328a27ep-4", "0x1.ca3fbaba5b049p-4", "0x1.a422885877b57p-4",
        "0x1.83e02a039eb67p-4", "0x1.6837d66e9a275p-4",
    ]
    KL = {
        (1, 0.0, 0.5): "0x1.0d2db51ff4c7ep-3",
        (1, 1.0, -2.0): "0x1.28f70252d631cp+1",
        (3, 0.0, 0.5): "0x1.2a1cbb41aa67fp-2",
        (3, 1.0, -2.0): "0x1.1ffac099a19a0p+2",
        (7, 0.0, 0.5): "0x1.464059d4b3e97p-1",
        (7, 1.0, -2.0): "0x1.1444cad4a757ep+3",
    }

    def test_fisher_info(self):
        assert [sl.median_fisher_info.__wrapped__(k).hex() for k in range(16)] == self.FISHER_INFO

    def test_variance(self):
        assert [sl.median_variance.__wrapped__(k).hex() for k in range(2, 16)] == self.VARIANCE

    def test_kl(self):
        assert {key: sl.CauchyMedian(key[0]).kl(*key[1:]).hex() for key in self.KL} == self.KL


class TestDensitiesNormalize:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_bernoulli_pmf_sums_to_one(self, p):
        assert sl.Bernoulli(10).pmf(p).sum() == pytest.approx(1.0, abs=1e-12)

    def test_normal_density_integrates_to_one(self):
        f = sl.NormalLocation(2.0, 5)
        total = integrate_real_line(lambda x: f.density(0.7, x))
        assert total == pytest.approx(1.0, abs=1e-8)


class TestQuadratureFailures:
    def test_nan_integrand_does_not_converge(self):
        with pytest.raises(sl.QuadratureError, match="did not converge"):
            integrate_real_line(lambda t: math.nan)

    def test_infinite_value(self):
        with pytest.raises(sl.QuadratureError, match="non-finite"):
            integrate_real_line(lambda t: math.inf)

    def test_error_estimate_above_tolerance(self, monkeypatch):
        monkeypatch.setattr(integrate, "quad", lambda *a, **k: (1.0, 1e-3))
        with pytest.raises(sl.QuadratureError, match="error estimate"):
            integrate_real_line(lambda t: 1.0)


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

    def test_normal_mean_draws_xbar(self):
        f = sl.NormalLocation(2.0, 4)  # xbar has SD 1
        rng = RNG(5)
        draws = np.array([f.sample(0.7, rng) for _ in range(4000)])
        f.check_sample(draws[0])
        # each bound is about five standard errors
        assert draws.mean() == pytest.approx(0.7, abs=0.08)
        assert draws.std() == pytest.approx(1.0, abs=0.06)

    def test_cauchy_median_draws_the_middle_observation(self):
        for k, theta, seed in [(0, 0.0, 1), (2, -1.5, 2), (7, 3.0, 3)]:
            z = sl.CauchyMedian(k).sample(theta, RNG(seed))
            assert z == sl.CauchyLocation(2 * k + 1).sample(theta, RNG(seed))[k]
        rng = RNG(4)
        draws = np.array([sl.CauchyMedian(2).sample(1.0, rng) for _ in range(4000)])
        assert np.median(draws) == pytest.approx(1.0, abs=0.06)

    def test_bivariate_slice_draws_a_pair(self):
        f = sl.BivariateNormalSlice(4)  # each coordinate has SD 1/2
        rng = RNG(6)
        draws = np.array([f.sample(-0.4, rng) for _ in range(4000)])
        f.check_sample(tuple(draws[0]))
        assert draws.mean(axis=0) == pytest.approx([-0.4, 0.0], abs=0.04)
        assert draws.std(axis=0) == pytest.approx([0.5, 0.5], abs=0.03)

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

    @pytest.mark.parametrize("charts, value", [(("log_odds", "p"), math.nan), (("log_odds", "p"), math.inf),
                                               (("p", "p"), 2.0)], ids=repr)
    def test_the_value_is_checked_in_its_own_chart(self, charts, value):
        with pytest.raises(sl.DomainError):
            sl.reparam(sl.Bernoulli(10), *charts, value)


class TestLogOddsFarOut:
    """Below theta of about -709.78 e^-theta overflows, and p = e^theta:
    every log-odds method gives a value there, and the KL divergence the
    DomainError of a p that rounds to 0."""

    F = sl.Bernoulli(10, chart="log_odds")

    def test_p_is_e_theta_where_e_minus_theta_overflows(self):
        for theta in (-709.79, -720.0, -800.0):
            assert families._logistic(theta) == math.exp(theta)
        assert families._logistic(-709.78) == pytest.approx(math.exp(-709.78), rel=1e-15)

    def test_methods_give_values(self):
        assert self.F.fisher_info(-800.0) == 0.0 and self.F.fisher_info(-720.0) > 0.0
        assert self.F.loglik(-800.0, 0) == 0.0 and self.F.loglik(-800.0, 3) == -2400.0
        assert self.F.score(-800.0, 0) == 0.0 and self.F.score(-800.0, 3) == 3.0
        assert sl.reparam(self.F, "log_odds", "p", -800.0) == 0.0
        assert sl.reparam(self.F, "log_odds", "p", -720.0) == math.exp(-720.0)

    def test_kl_where_p_rounds_to_0(self):
        with pytest.raises(sl.DomainError, match="not both in"):
            sl.kl_divergence(self.F, -800.0, 0.0)


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
        value, se = f.expect(th, phi, **kw)
        assert value == pytest.approx(want["expect"][0], rel=REL)
        assert se == pytest.approx(want["expect"][1], rel=REL)
        # E[score^2] is the Fisher information, up to the Monte Carlo error
        assert abs(value - f.fisher_info(th)) <= max(se, 1e-9)

    @pytest.mark.parametrize("f,th,y,want", CONTRACT, ids=CONTRACT_IDS)
    def test_information(self, f, th, y, want):
        assert f.reference_info(th) == pytest.approx(want["reference_info"], rel=1e-14)
        # a central difference except for the Normal and Cauchy closed forms
        for info in (f.observed_info(th, y), sl.observed_info(f, th, y)):
            assert info == pytest.approx(want["observed_info"], rel=1e-8)

    @pytest.mark.parametrize("f,th,y,want", CONTRACT, ids=CONTRACT_IDS)
    def test_mle_and_sup_loglik(self, f, th, y, want):
        if want["mle"] is None:
            for call in (
                lambda: f.mle(y), lambda: sl.lrt_interval(sl.lrt_estimate(f, y), 1.96)
            ):
                with pytest.raises(NotImplementedError):
                    call()
            return
        assert f.mle(y) == pytest.approx(want["mle"], rel=1e-12)
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


@dataclass(frozen=True)
class Coin(sl.Family):
    """One flip with success probability theta: a node family defined
    outside the package, with ``values`` giving its nodes' weights, and the
    base ``scores``."""

    def param_domain(self):
        return (0.0, 1.0)

    def score(self, theta, y):
        return (y - theta) / (theta * (1.0 - theta))

    def fisher_info(self, theta):
        return 1.0 / (theta * (1.0 - theta))

    def values(self, theta, block, *, mc_draws=families.DEFAULT_MC_DRAWS, mc_seed=0):
        return np.asarray(block([0, 1]), dtype=float), np.array([1.0 - theta, theta])


class Flat(sl.Family):
    """A likelihood that never falls: no level below its sup is reached."""

    def mle(self, y):
        return 0.0

    def loglik(self, theta, y):
        return 0.0


class TestNewFamily:
    """A new family needs no edit elsewhere in the package."""

    def test_base_methods_serve_the_public_functions(self):
        f = Logistic()
        assert f.expect(0.4, lambda y: f.score(0.4, y) ** 2)[0] == pytest.approx(1 / 3, rel=1e-8)
        # the sample value is unbiased with variance pi^2 / 3
        g = sl.lift_point_estimator(f, lambda y: y, mean_fn=lambda th: th, mean_deriv=lambda th: 1.0)
        assert sl.squared_slope(g, 0.4) == pytest.approx(3 / math.pi**2, rel=1e-7)
        assert sl.lambda_efficiency(g, 0.4) == pytest.approx(9 / math.pi**2, rel=1e-7)
        assert sl.observed_info(f, 0.0, 0.0) == pytest.approx(0.5, rel=1e-8)
        assert f.reference_info(0.4) == 1 / 3
        assert sl.default_grid(f, 3).tolist() == [-4.0, 0.0, 4.0]

    def test_a_node_family_needs_values_and_weights(self):
        f = Coin()
        assert sl.variance(f, 0.3, lambda y: float(y)) == pytest.approx(0.21, rel=1e-14)
        assert f.scores(0.3, [0, 1]).tolist() == [f.score(0.3, 0), f.score(0.3, 1)]
        g = sl.lift_point_estimator(f, lambda y: float(y))
        assert sl.squared_slope(g, 0.3) == pytest.approx(1 / 0.21, rel=1e-12)
        assert sl.check_identity(g, 0.3) < 1e-8
        with pytest.raises(sl.DomainError):
            sl.variance(f, 1.0, lambda y: float(y))

    def test_lrt_hull_needs_a_likelihood_that_falls(self):
        with pytest.raises(sl.BracketError, match="60 doublings"):
            Flat().lrt_hull(0.0, 1.92)

    def test_likelihood_ratio_and_kl_need_their_methods(self):
        f = Logistic()
        with pytest.raises(NotImplementedError):
            sl.lrt_interval(sl.lrt_estimate(f, 0.0), 1.96)
        with pytest.raises(NotImplementedError):
            sl.kl_divergence(f, 0.0, 1.0)
