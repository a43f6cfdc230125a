"""Interval constructions: MLE search, score/LRT inversion, Wald, exact."""

import math

import numpy as np
import pytest
from scipy import stats

import slope_lab as sl

RNG = lambda seed: np.random.Generator(np.random.Philox(key=[seed, 0]))
Z95 = stats.norm.ppf(0.975)


class TestCauchyMle:
    def test_single_observation(self):
        assert sl.cauchy_mle([3.7]) == 3.7

    @pytest.mark.parametrize("v", [0.3, -7.3, 123.456, 1e-3])
    def test_constant_sample_is_exact(self, v):
        assert sl.cauchy_mle([v]) == v
        assert sl.cauchy_mle([v, v, v]) == v

    def test_two_symmetric_observations(self):
        # loglik is symmetric about 0 with a mode there for |x| < 1
        assert sl.cauchy_mle([-0.5, 0.5]) == pytest.approx(0.0, abs=1e-9)

    def test_two_far_observations_bimodal_picks_smaller(self):
        # for |x| > 1 the midpoint is a local min and the two modes are
        # symmetric; ties break toward the smaller theta
        theta = sl.cauchy_mle([-3.0, 3.0])
        assert theta < 0
        mode = math.sqrt(9.0 - 1.0)
        assert theta == pytest.approx(-mode, abs=1e-8)

    def test_score_zero_at_mle(self):
        x = np.sort(stats.cauchy.rvs(loc=1.5, size=15, random_state=7))
        th = sl.cauchy_mle(x)
        f = sl.CauchyLocation(15)
        assert f.score(th, x) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(20))
    def test_brute_force_oracle(self, seed):
        x = np.sort(stats.cauchy.rvs(loc=0.0, size=15, random_state=seed))
        th = sl.cauchy_mle(x)
        f = sl.CauchyLocation(15)
        grid = np.linspace(x[0], x[-1], 200_001)
        ll = np.array([-np.sum(np.log1p((x - t) ** 2)) for t in grid])
        best = grid[np.argmax(ll)]
        assert f.loglik(th, x) >= f.loglik(best, x) - 1e-9

    @pytest.mark.parametrize(
        "x",
        [
            # range/2000 is about 10, far wider than a mode
            [-1.0e4, -9.0e3, 2.31, 2.35, 2.4, 2.52, 9.5e3, 1.0e4],
            [-1.0e4, -1.0e4 + 0.05, 3.3, 3.9, 1.0e4],
            # two modes whose log-likelihoods differ by about 1e-5
            [-5.0, -4.9, 5.0, 5.1 + 1e-4],
            [-5.1 - 1e-4, -5.0, 4.9, 5.0],
        ],
    )
    def test_wide_and_near_bimodal_samples(self, x):
        # independent oracle: a 1e-4 grid over the unit windows, which
        # hold every local maximum
        x = np.array(x)
        grid = (x[:, None] + np.linspace(-1.0, 1.0, 20_001)[None, :]).ravel()
        ll = np.zeros_like(grid)
        for xi in x:
            ll -= np.log1p((xi - grid) ** 2)
        th = sl.cauchy_mle(x)
        assert -np.sum(np.log1p((x - th) ** 2)) >= ll.max() - 1e-12
        assert th == pytest.approx(grid[np.argmax(ll)], abs=1e-4)

    def test_observation_beyond_lattice_range_is_not_certified(self):
        # past +-1e15 the scan lattice cannot cover the windows
        with pytest.raises(sl.CertificateError):
            sl.cauchy_mle([0.0, 0.5, 1e16])
        x = np.array([[0.0, 0.5, 1e16], [0.0, 0.5, 1.0]])
        theta = sl.cauchy.cauchy_level_set_batch(x, 0.0)[0]
        assert np.isnan(theta[0]) and theta[1] == pytest.approx(0.5, abs=1e-12)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(sl.DomainError):
            sl.cauchy_mle([])
        with pytest.raises(sl.DomainError):
            sl.cauchy_mle([0.0, np.inf])


def test_flat_stationary_point_sample_certifies():
    # l = -2 log 2 - log(1 + theta^4 / 4) for x = (-1, 1): l'' = 0 at the
    # maximum theta = 0, where rounding hides the score's sign over a
    # stretch of about 1e-5; the certificate must still close it
    x = np.array([-1.0, 1.0])
    th = sl.cauchy_mle(x)
    assert math.isfinite(th) and abs(th) <= 1e-4
    grid = (x[:, None] + np.linspace(-1.0, 1.0, 20_001)[None, :]).ravel()
    ll = -np.log1p((x[0] - grid) ** 2) - np.log1p((x[1] - grid) ** 2)
    assert -np.sum(np.log1p((x - th) ** 2)) >= ll.max() - 1e-12


def test_scalar_cauchy_path_is_the_kernel_on_a_batch_of_one():
    # 50 seeded n = 15 samples and the tied x = (-3, 3), whose level set
    # is disconnected at z = 1 and one interval at z = 1.96
    samples = [np.sort(RNG(seed).standard_cauchy(15)) for seed in range(50)] + [np.array([-3.0, 3.0])]
    disconnected = 0
    for x in samples:
        f = sl.CauchyLocation(x.size)
        theta_hat = sl.cauchy.cauchy_level_set_batch(x[None], 0.0)[0]
        assert sl.cauchy_mle(x) == theta_hat[0]
        for z in (1.0, Z95):
            iv = sl.lrt_interval(sl.lrt_estimate(f, x), z)
            _, target, outer, flag = sl.cauchy.cauchy_level_set_batch(x[None], z * z / 2.0)
            lo, hi = sl.cauchy.cauchy_level_set_ends(x[None], outer, target)
            assert (iv.lo, iv.hi, iv.disconnected) == (lo[0], hi[0], flag[0])
            assert sl.kl_length(f, iv) == sl.cauchy_kl_length_from_width(np.array([iv.hi - iv.lo]))[0]
            disconnected += iv.disconnected
    assert disconnected >= 1


class TestKernelBits:
    """The kernel's own bits, by ``float.hex``: theta_hat and both ends of the
    1.96 LRT interval.  The other kernel tests compare its paths with each
    other, which share one bisection, so only pins show a move in it."""

    PINS = {
        (0.25,): ("0x1.0000000000000p-2", "-0x1.14f74f5d81636p+1", "0x1.54f74f5d81636p+1", False),
        (-1.5, 0.75): ("-0x1.c7e0f66afed08p-1", "-0x1.6181aa39289c8p+1", "0x1.0181aa39289c8p+1", False),
        (-4.0, -0.5, 0.3, 2.2, 9.0): (
            "0x1.e79d763e00a8ep-4", "-0x1.57b8334c5840ap+0", "0x1.1d807f56f1d0ep+1", False),
        (-3.1, -2.9, 0.1, 5.0, 5.2, 5.3, 40.0): (
            "0x1.4152c953d1a6ep+2", "0x1.e6eeeb9f57082p+1", "0x1.7a866cf3dd0f6p+2", False),
        (-6.0, 6.0): ("-0x1.7aa10d193c22cp+2", "-0x1.ffdcbc8c2fa90p+2", "0x1.ffdcbc8c2fa90p+2", True),
        (-0.0031, -0.0002, 0.0007, 0.0044): (
            "0x1.d7dad6cbda3e8p-12", "-0x1.91bfc6afebbdep-1", "0x1.9235bd9754afcp-1", False),
        (-12.5, -1.25, -0.8, -0.1, 0.05, 0.4, 0.9, 1.7, 3.3, 250.0): (
            "0x1.72a23b334da8cp-3", "-0x1.78dc13c29962cp-1", "0x1.2539db647c996p+0", False),
    }

    @pytest.mark.parametrize("x", PINS, ids=lambda x: f"n{len(x)}_{x[0]:g}")
    def test_mle_and_lrt_ends(self, x):
        iv = sl.lrt_interval(sl.lrt_estimate(sl.CauchyLocation(len(x)), np.array(x)), 1.96)
        assert (sl.cauchy_mle(x).hex(), iv.lo.hex(), iv.hi.hex(), iv.disconnected) == self.PINS[x]


def test_flat_stationary_point_level_set_is_not_certified():
    # the same x = (-1, 1) at the LRT drop: the flat stretch multiplies the
    # open cells past their cap, so the interval is refused, not guessed
    L = sl.lrt_estimate(sl.CauchyLocation(2), np.array([-1.0, 1.0]))
    with pytest.raises(sl.CertificateError):
        sl.lrt_interval(L, Z95)


def test_cauchy_estimate_and_interval_take_one_certified_pass(monkeypatch):
    calls = []
    kernel = sl.cauchy.cauchy_level_set_batch
    monkeypatch.setattr(sl.cauchy, "cauchy_level_set_batch", lambda *a, **k: calls.append(1) or kernel(*a, **k))
    f = sl.CauchyLocation(15)
    x = np.sort(RNG(3).standard_cauchy(15))
    L = sl.lrt_estimate(f, x)
    assert len(calls) == 0
    iv = sl.lrt_interval(L, Z95)
    assert len(calls) == 1
    # the MLE, read afterwards, is a pass of its own, taken once
    assert L.mle == L.mle and iv.contains(L.mle)
    assert len(calls) == 2


class TestCauchySampleChecks:
    """Every CauchyLocation method that takes a sample checks it as loglik does."""

    @pytest.mark.parametrize(
        "y", [[0.1, 0.2, 0.5], [0.1], [1.0, np.nan], [0.5, 0.1]], ids=["three", "one", "nan", "unsorted"]
    )
    def test_bad_samples_are_rejected(self, y):
        f = sl.CauchyLocation(2)
        for call in (
            lambda: f.mle(y),
            lambda: f.observed_info(0.5, y),
            lambda: f.lrt_hull(y, 1.0),
            lambda: sl.lrt_estimate(f, y),
            lambda: f.loglik(0.5, y),
        ):
            with pytest.raises(sl.DomainError):
                call()

    def test_module_cauchy_mle_still_sorts(self):
        x = np.array([2.0, -1.3, 0.4, 0.1, -0.2])
        assert sl.cauchy_mle(x) == sl.cauchy_mle(np.sort(x)) == sl.CauchyLocation(5).mle(np.sort(x))

    def test_nan_observed_information_is_a_curvature_error(self):
        class NanInfo(sl.NormalLocation):
            def observed_info(self, theta_hat, y):
                return math.nan

        with pytest.raises(sl.CurvatureError):
            sl.observed_info(NanInfo(1.0, 2), 0.0, 0.0)


def test_cauchy_score_keeps_its_argument_and_bits():
    # a block (15, m) as the kernel holds it, a transposed block and a lone
    # sample, each summed in sample order, and one row whose sum over axis
    # 0 returns each term
    tiny_huge = [0.0, -0.0, 5e-324, -1e-300, 1e150, -1e200, 1e300]
    blocks = (RNG(1).standard_cauchy((15, 999)), RNG(2).standard_cauchy((999, 15)).T, RNG(3).standard_cauchy(15))
    for t in blocks + (np.concatenate([RNG(0).standard_cauchy(4096), tiny_huge])[None],):
        before = t.copy()
        with np.errstate(over="ignore"):
            want = np.add.accumulate(2.0 * t / (t * t + 1.0), axis=0)[-1]
            assert np.asarray(sl.cauchy.cauchy_score(t)).tobytes() == want.tobytes()
        assert t.tobytes() == before.tobytes()
    with np.errstate(over="ignore"):
        # past 2^1023 the unscaled form overflows 2t, giving inf / inf = NaN
        assert sl.cauchy.cauchy_score(np.array([1.7e308, -1.7e308])) == 0.0


class TestFamilyMle:
    def test_bernoulli_p(self):
        assert sl.Bernoulli(10).mle(3) == pytest.approx(0.3)

    def test_bernoulli_log_odds_boundary(self):
        f = sl.Bernoulli(10, chart="log_odds")
        assert f.mle(0) == -math.inf
        assert f.mle(10) == math.inf
        assert f.mle(5) == pytest.approx(0.0)

    def test_normal(self):
        assert sl.NormalLocation(2.0, 5).mle(1.4) == 1.4


class TestObservedInfo:
    def test_normal_is_expected(self):
        f = sl.NormalLocation(2.0, 8)
        assert sl.observed_info(f, 0.3, 0.3) == pytest.approx(2.0)

    def test_cauchy_hand_value(self):
        # single observation at the MLE: -l'' = 2(1 - 0)/(1)^2 = 2
        f = sl.CauchyLocation(1)
        assert sl.observed_info(f, 0.0, np.array([0.0])) == pytest.approx(2.0)

    def test_matches_finite_difference(self):
        x = np.sort(stats.cauchy.rvs(size=15, random_state=3))
        f = sl.CauchyLocation(15)
        th = sl.cauchy_mle(x)
        h = 1e-5
        fd = -(f.score(th + h, x) - f.score(th - h, x)) / (2 * h)
        assert sl.observed_info(f, th, x) == pytest.approx(fd, rel=1e-5)

    def test_negative_curvature_raises(self):
        # far from the data the Cauchy loglik is locally convex
        f = sl.CauchyLocation(2)
        with pytest.raises(sl.CurvatureError):
            sl.observed_info(f, 10.0, np.array([-0.5, 0.5]))


class Wavy(sl.Family):
    """Unit information and the score y - theta + 5 sin(theta), which rises
    near theta = 0, inside the first search bracket [-50, 50]."""

    def score(self, theta, y):
        return y - theta + 5.0 * math.sin(theta)

    def fisher_info(self, theta):
        return 1.0


class TestScoreInterval:
    def test_rising_standardized_score_is_refused(self):
        with pytest.raises(sl.NonMonotoneError):
            sl.score_interval(Wavy(), 0.0, Z95)

    def test_normal_closed_form(self):
        # sbar = sqrt(n)(xbar - theta)/sigma, so the interval is
        # xbar +/- k sigma/sqrt(n)
        f = sl.NormalLocation(2.0, 9)
        iv = sl.score_interval(f, 1.0, Z95)
        half = Z95 * 2.0 / 3.0
        assert iv.lo == pytest.approx(1.0 - half, abs=1e-8)
        assert iv.hi == pytest.approx(1.0 + half, abs=1e-8)

    def test_bernoulli_contains_mle(self):
        f = sl.Bernoulli(10)
        iv = sl.score_interval(f, 3, Z95)
        assert iv.contains(0.3)
        assert 0.0 < iv.lo < iv.hi < 1.0

    def test_bernoulli_boundary_counts(self):
        # at y = 0 the standardized score is nonpositive everywhere, so
        # the two-sided set runs into the chart boundary
        with pytest.raises(sl.NonexistenceError):
            sl.score_interval(sl.Bernoulli(10), 0, Z95)

    def test_cauchy_nonexistence(self):
        # the standardized Cauchy score tends to 0 in both tails; for a
        # dispersed sample it never reaches +/-k
        x = np.array(sorted([-40.0, -20.0, -5.0, 0.0, 5.0, 20.0, 40.0]))
        with pytest.raises(sl.NonexistenceError):
            sl.score_interval(sl.CauchyLocation(7), x, 3.5)

    def test_cauchy_fails_even_for_tight_sample(self):
        # the decay to zero in the tails is structural, not an artifact
        # of a dispersed sample: the sub-level set always includes the
        # tails, so no bounded interval exists at any sample
        x = np.linspace(-0.5, 0.5, 15)
        with pytest.raises(sl.NonexistenceError):
            sl.score_interval(sl.CauchyLocation(15), x, 2.0)

    def test_width_increases_with_k(self):
        f = sl.Bernoulli(10)
        widths = [sl.score_interval(f, 4, k).width for k in (0.5, 1.0, 1.5, 2.0)]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_equivariant_under_reparam(self):
        # the standardized score is chart-invariant, so endpoints map
        # through the chart transformation
        fp = sl.Bernoulli(10, chart="p")
        fo = sl.Bernoulli(10, chart="log_odds")
        ivp = sl.score_interval(fp, 3, Z95)
        ivo = sl.score_interval(fo, 3, Z95)
        assert ivo.lo == pytest.approx(sl.reparam(fp, "p", "log_odds", ivp.lo), abs=1e-6)
        assert ivo.hi == pytest.approx(sl.reparam(fp, "p", "log_odds", ivp.hi), abs=1e-6)

    def test_bad_level(self):
        with pytest.raises(sl.DomainError):
            sl.score_interval(sl.Bernoulli(10), 4, -1.0)


class TestLrt:
    def test_zero_at_mle(self):
        x = np.sort(stats.cauchy.rvs(size=15, random_state=2))
        L = sl.lrt_estimate(sl.CauchyLocation(15), x)
        assert L(L.mle) == pytest.approx(0.0, abs=1e-10)
        assert L(L.mle + 1.0) < 0.0

    def test_bernoulli_boundary_sup(self):
        L = sl.lrt_estimate(sl.Bernoulli(10), 0)
        # S(theta) = 2 * 10 * log(1 - theta) for y = 0
        assert L(0.1) == pytest.approx(20.0 * math.log(0.9), abs=1e-10)

    @pytest.mark.parametrize("n", [1, 10, 40])
    def test_bernoulli_boundary_mle_gives_one_sided_hull(self, n):
        # y = 0: S(p) = 2n log(1 - p) > -z^2 on [0, 1 - exp(-z^2 / (2n)));
        # y = n is its mirror image
        edge = 1.0 - math.exp(-1.96**2 / (2.0 * n))
        lo0 = sl.lrt_interval(sl.lrt_estimate(sl.Bernoulli(n), 0), 1.96)
        hin = sl.lrt_interval(sl.lrt_estimate(sl.Bernoulli(n), n), 1.96)
        assert (lo0.lo, hin.hi) == (0.0, 1.0)
        assert lo0.hi == pytest.approx(edge, abs=1e-9)
        assert hin.lo == pytest.approx(1.0 - edge, abs=1e-9)
        assert not (lo0.disconnected or hin.disconnected)
        if n == 10:
            assert lo0.hi == pytest.approx(0.174759, abs=1e-6)
        # the log-odds MLE is -inf / +inf: the same hulls mapped through the logit
        lo0_odds = sl.lrt_interval(sl.lrt_estimate(sl.Bernoulli(n, chart="log_odds"), 0), 1.96)
        hin_odds = sl.lrt_interval(sl.lrt_estimate(sl.Bernoulli(n, chart="log_odds"), n), 1.96)
        assert (lo0_odds.lo, hin_odds.hi) == (-math.inf, math.inf)
        assert lo0_odds.hi == pytest.approx(math.log(edge / (1.0 - edge)), abs=1e-9)
        assert hin_odds.lo == -lo0_odds.hi
        assert not (lo0_odds.disconnected or hin_odds.disconnected)

    def test_normal_equals_score_interval(self):
        # quadratic loglik: LRT set and score inversion coincide
        f = sl.NormalLocation(1.5, 6)
        L = sl.lrt_estimate(f, 0.7)
        iv_l = sl.lrt_interval(L, Z95)
        iv_s = sl.score_interval(f, 0.7, Z95)
        assert iv_l.lo == pytest.approx(iv_s.lo, abs=1e-8)
        assert iv_l.hi == pytest.approx(iv_s.hi, abs=1e-8)

    def test_contains_mle_and_widens_with_z(self):
        x = np.sort(stats.cauchy.rvs(size=15, random_state=5))
        L = sl.lrt_estimate(sl.CauchyLocation(15), x)
        w = [sl.lrt_interval(L, z).width for z in (1.0, 1.5, 2.0, 2.5)]
        assert all(a < b for a, b in zip(w, w[1:]))
        assert sl.lrt_interval(L, Z95).contains(L.mle)

    def test_adjustment_scales_level(self):
        x = np.sort(stats.cauchy.rvs(size=15, random_state=5))
        L = sl.lrt_estimate(sl.CauchyLocation(15), x)
        a = sl.lrt_interval(L, Z95, adjustment=1.1)
        b = sl.lrt_interval(L, 1.1 * Z95)
        assert a.lo == pytest.approx(b.lo, abs=1e-9)
        assert a.hi == pytest.approx(b.hi, abs=1e-9)
        assert a.width > sl.lrt_interval(L, Z95).width

    def test_disconnected_flag(self):
        # two distant clusters: the level set splits at small z
        x = np.array([-6.0, -5.9, -5.8, 5.8, 5.9, 6.0])
        L = sl.lrt_estimate(sl.CauchyLocation(6), x)
        iv = sl.lrt_interval(L, 1.2)
        assert iv.disconnected
        assert iv.lo < -5.0 and iv.hi > 5.0

    def test_connected_flag_for_tight_sample(self):
        x = np.sort(stats.cauchy.rvs(size=15, random_state=4))
        L = sl.lrt_estimate(sl.CauchyLocation(15), x)
        assert not sl.lrt_interval(L, Z95).disconnected


class TestLrtFarEnds:
    """A hull end is bracketed and bisected however far out it lies, or
    infinite when the set reaches past the largest float."""

    def test_end_near_3e72(self):
        f = sl.CauchyLocation(15)
        x = np.sort(np.random.default_rng(1).standard_cauchy(15))
        L = sl.lrt_estimate(f, x)
        iv = sl.lrt_interval(L, 100.0)
        target = L.sup_loglik - 5000.0
        for end in (iv.lo, iv.hi):
            assert 1e72 < abs(end) < 1e73
            assert f.loglik(end * (1.0 - 1e-12), x) > target > f.loglik(end * (1.0 + 1e-12), x)

    def test_single_observation_at_drop_700(self):
        # l = -log(1 + (theta - 0.3)^2) > -700 for |theta - 0.3| < sqrt(e^700 - 1)
        iv = sl.lrt_interval(sl.lrt_estimate(sl.CauchyLocation(1), np.array([0.3])), math.sqrt(1400.0))
        half = math.sqrt(math.expm1(700.0))
        assert iv.lo == pytest.approx(0.3 - half, rel=1e-12)
        assert iv.hi == pytest.approx(0.3 + half, rel=1e-12)

    def test_set_past_the_largest_float_has_infinite_ends(self):
        # at theta = +-1.8e308, l = -2 log(1.8e308) = -1419.6 > -2000
        iv = sl.lrt_interval(sl.lrt_estimate(sl.CauchyLocation(1), np.array([0.3])), math.sqrt(4000.0))
        assert (iv.lo, iv.hi) == (-math.inf, math.inf)

    def test_far_row_leaves_its_batch_neighbour_alone(self):
        x = np.array([[0.3], [0.3]])
        _, target, outer, _ = sl.cauchy.cauchy_level_set_batch(x, 1.92)
        alone = sl.cauchy.cauchy_level_set_ends(x[:1], outer[:, :1], target[:1])
        target[1] = -700.0
        lo, hi = sl.cauchy.cauchy_level_set_ends(x, outer, target)
        assert (lo[0], hi[0]) == (alone[0][0], alone[1][0])
        assert hi[1] == pytest.approx(0.3 + math.sqrt(math.expm1(700.0)), rel=1e-12)


class TestLevelChecks:
    """A level that is not positive and finite is a DomainError naming it."""

    BAD = [math.nan, math.inf, -math.inf, 0.0, -1.0]

    @pytest.mark.parametrize("z", BAD)
    def test_lrt_interval(self, z):
        L = sl.lrt_estimate(sl.CauchyLocation(15), np.sort(RNG(3).standard_cauchy(15)))
        with pytest.raises(sl.DomainError, match="level"):
            sl.lrt_interval(L, z)
        with pytest.raises(sl.DomainError, match="level"):
            sl.lrt_interval(L, Z95, adjustment=z)

    @pytest.mark.parametrize("f,y", [(sl.NormalLocation(1.0, 4), 0.3), (sl.Bernoulli(10), 3)])
    def test_lrt_interval_with_an_infinite_drop(self, f, y):
        # 1e200 is finite, but its drop z^2 / 2 is not
        with pytest.raises(sl.DomainError, match="level"):
            sl.lrt_interval(sl.lrt_estimate(f, y), 1e200)

    @pytest.mark.parametrize("z", BAD)
    def test_wald_interval(self, z):
        with pytest.raises(sl.DomainError, match="level"):
            sl.wald_interval(0.0, 7.5, z)
        with pytest.raises(sl.DomainError, match="level"):
            sl.wald_interval(0.0, 7.5, Z95, adjustment=z)

    @pytest.mark.parametrize("k", BAD)
    def test_score_interval(self, k):
        with pytest.raises(sl.DomainError, match="level"):
            sl.score_interval(sl.NormalLocation(1.0, 4), 0.2, k)

    @pytest.mark.parametrize("drop", [math.nan, math.inf, -1.0])
    def test_level_set_drop(self, drop):
        with pytest.raises(sl.DomainError, match="drop"):
            sl.cauchy.cauchy_level_set_batch(np.array([[-0.5, 0.5, 2.0]]), drop)


class TestWald:
    def test_hand_values(self):
        iv = sl.wald_interval(2.0, 4.0, 1.0)
        assert (iv.lo, iv.hi) == (1.5, 2.5)

    def test_adjustment(self):
        iv = sl.wald_interval(0.0, 1.0, 2.0, adjustment=1.05518)
        assert iv.hi == pytest.approx(2.11036)

    def test_normal_wald_equals_score(self):
        f = sl.NormalLocation(2.0, 9)
        iv_w = sl.wald_interval(1.0, f.fisher_info(1.0), Z95)
        iv_s = sl.score_interval(f, 1.0, Z95)
        assert iv_w.lo == pytest.approx(iv_s.lo, abs=1e-8)
        assert iv_w.hi == pytest.approx(iv_s.hi, abs=1e-8)

    def test_bad_info(self):
        with pytest.raises(sl.DomainError):
            sl.wald_interval(0.0, 0.0, 1.0)

    @pytest.mark.parametrize("theta_hat", [math.nan, math.inf, -math.inf])
    def test_non_finite_estimate_is_named(self, theta_hat):
        with pytest.raises(sl.DomainError, match="theta_hat"):
            sl.wald_interval(theta_hat, 1.0, Z95)

    @pytest.mark.parametrize("info", [math.inf, math.nan])
    def test_infinite_info_is_named(self, info):
        with pytest.raises(sl.DomainError, match="information"):
            sl.wald_interval(0.0, info, Z95)


class TestExactBernoulli:
    @pytest.mark.parametrize(
        "n, y",
        [pytest.param(n, y, id=str(y) if n == 10 else f"n{n}-{y}") for n in (1, 5, 10, 40) for y in range(n + 1)],
    )
    def test_clopper_pearson_beta_oracle(self, n, y):
        alpha = 0.05
        iv = sl.exact_bernoulli_interval(n, y, alpha)
        lo = 0.0 if y == 0 else stats.beta.ppf(alpha / 2, y, n - y + 1)
        hi = 1.0 if y == n else stats.beta.ppf(1 - alpha / 2, y + 1, n - y)
        assert iv.lo == pytest.approx(lo, abs=1e-8)
        assert iv.hi == pytest.approx(hi, abs=1e-8)
        # beta.ppf shares its inverse with the code; the binomial tails are
        # a forward evaluation that checks each end independently
        if y > 0:
            assert stats.binom.sf(y - 1, n, iv.lo) == pytest.approx(alpha / 2, rel=1e-9)
        if y < n:
            assert stats.binom.cdf(y, n, iv.hi) == pytest.approx(alpha / 2, rel=1e-9)

    def test_symmetry(self):
        a = sl.exact_bernoulli_interval(10, 3, 0.05)
        b = sl.exact_bernoulli_interval(10, 7, 0.05)
        assert a.lo == pytest.approx(1.0 - b.hi, abs=1e-9)
        assert a.hi == pytest.approx(1.0 - b.lo, abs=1e-9)

    def test_narrows_with_alpha(self):
        w1 = sl.exact_bernoulli_interval(10, 4, 0.01).width
        w5 = sl.exact_bernoulli_interval(10, 4, 0.05).width
        assert w5 < w1

    def test_domain_errors(self):
        with pytest.raises(sl.DomainError):
            sl.exact_bernoulli_interval(10, 11, 0.05)
        with pytest.raises(sl.DomainError):
            sl.exact_bernoulli_interval(10, 4, 0.0)

    @pytest.mark.parametrize("n, y", [(10, 2.5), (10, -1), (10, math.nan), (10, math.inf),
                                      (0, 0), (-3, 0), (2.5, 1), (math.nan, 0), (math.inf, 0)])
    def test_count_and_trials_are_checked(self, n, y):
        # as Bernoulli(n) takes them: n a positive integer, y an integer in [0, n]
        with pytest.raises(sl.DomainError, match="not an integer" if n == 10 else "n must be a positive integer"):
            sl.exact_bernoulli_interval(n, y, 0.05)


class TestIntervalType:
    def test_degenerate_rejected(self):
        with pytest.raises(sl.DomainError):
            sl.Interval(lo=1.0, hi=1.0, method="lrt", level_k=1.0)

    def test_contains_is_open(self):
        iv = sl.Interval(lo=0.0, hi=1.0, method="lrt", level_k=1.0)
        assert iv.contains(0.5)
        assert not iv.contains(0.0)
        assert iv.width == 1.0
