"""KL divergences, balls, and reparameterization-invariant lengths."""

import math

import numpy as np
import pytest

import slope_lab as sl
from slope_lab.quadrature import integrate_real_line


class TestDivergence:
    def test_zero_iff_equal(self):
        f = sl.CauchyLocation(15)
        assert sl.kl_divergence(f, 0.7, 0.7) == 0.0
        assert sl.kl_divergence(f, 0.7, 0.8) > 0.0

    def test_cauchy_hand_value(self):
        # gap 2: log(8) - log(4) = log 2
        f = sl.CauchyLocation(15)
        assert sl.kl_divergence(f, 2.0, 0.0) == pytest.approx(math.log(2.0))

    def test_cauchy_quadrature_oracle(self):
        # closed form against direct integration of the log density ratio
        d = 1.3
        num = integrate_real_line(
            lambda x: (1.0 / (math.pi * (1.0 + (x - d) ** 2)))
            * (np.log1p((x - 0.0) ** 2) - np.log1p((x - d) ** 2))
        )
        f = sl.CauchyLocation(1)
        assert sl.kl_divergence(f, d, 0.0) == pytest.approx(num, abs=1e-7)

    def test_normal_hand_value(self):
        f = sl.NormalLocation(2.0, 8)
        # 8 * 1.5^2 / (2 * 4) = 2.25
        assert sl.kl_divergence(f, 1.5, 0.0) == pytest.approx(2.25)

    def test_bernoulli_hand_value(self):
        f = sl.Bernoulli(1)
        v = 0.3 * math.log(0.3 / 0.5) + 0.7 * math.log(0.7 / 0.5)
        assert sl.kl_divergence(f, 0.3, 0.5) == pytest.approx(v)

    def test_bernoulli_scales_with_n(self):
        a = sl.kl_divergence(sl.Bernoulli(1), 0.3, 0.5)
        b = sl.kl_divergence(sl.Bernoulli(10), 0.3, 0.5)
        assert b == pytest.approx(10.0 * a)

    def test_median_vs_expectation_oracle(self):
        f = sl.CauchyMedian(3)
        direct = f.expect(0.6, lambda z: np.log(f.density(0.6, z)) - np.log(f.density(0.0, z)))[0]
        assert sl.kl_divergence(f, 0.6, 0.0) == pytest.approx(direct, abs=1e-7)

    def test_asymmetric_for_bernoulli(self):
        f = sl.Bernoulli(5)
        assert sl.kl_divergence(f, 0.1, 0.4) != pytest.approx(
            sl.kl_divergence(f, 0.4, 0.1)
        )

    def test_translation_invariance(self):
        f = sl.CauchyLocation(15)
        assert sl.kl_divergence(f, 5.0, 7.0) == pytest.approx(
            sl.kl_divergence(f, 0.0, 2.0)
        )

    def test_cauchy_divergence_is_the_length_formula_bit_for_bit(self):
        # one formula, cauchy.cauchy_kl_length: D at gap d is the KL length of
        # (-d, d), where libm's log and numpy's would differ in the last bit
        f = sl.CauchyLocation(15)
        gaps = np.abs(3.0 * np.random.default_rng(1).standard_cauchy(100_000))
        differ = [d for d in gaps if f.kl(0.0, d) != sl.kl_length(f, (-d, d))]
        assert differ == []

    def test_bernoulli_log_odds_divergence_is_the_p_charts(self):
        fp, fo = sl.Bernoulli(10), sl.Bernoulli(10, chart="log_odds")
        ps = [0.001, 0.05, 0.2, 0.45, 0.5, 0.73, 0.999]
        for p1 in ps:
            for p2 in ps:
                want = sl.kl_divergence(fp, p1, p2)
                got = sl.kl_divergence(fo, sl.reparam(fp, "p", "log_odds", p1), sl.reparam(fp, "p", "log_odds", p2))
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_bernoulli_log_odds_divergence_needs_p_inside_0_1(self):
        # e^-40 vanishes beside 1, so p rounds to 1 at theta = 40: the
        # divergence is refused there, not taken through log(0)
        fo = sl.Bernoulli(10, chart="log_odds")
        for args in [(40.0, 0.0), (0.0, 40.0)]:
            with pytest.raises(sl.DomainError):
                sl.kl_divergence(fo, *args)


class TestKlBall:
    def test_contains(self):
        ball = sl.KlBall(sl.CauchyLocation(15), center=0.0, radius=math.log(2.0))
        assert ball.contains(1.9)
        assert not ball.contains(2.1)

    def test_covers_endpoints(self):
        f = sl.CauchyLocation(15)
        iv = sl.Interval(lo=-1.0, hi=1.0, method="lrt", level_k=1.0)
        assert sl.KlBall(f, 0.0, sl.kl_divergence(f, 1.0, 0.0)).covers(iv)
        assert not sl.KlBall(f, 0.0, 0.9 * sl.kl_divergence(f, 1.0, 0.0)).covers(iv)

    def test_negative_radius_rejected(self):
        with pytest.raises(sl.DomainError):
            sl.KlBall(sl.CauchyLocation(15), 0.0, -0.1)


class TestKlLength:
    def test_cauchy_closed_form(self):
        f = sl.CauchyLocation(15)
        for w in [0.5, 1.0, 2.0, 4.0]:
            assert sl.kl_length(f, (0.0, w)) == pytest.approx(
                float(sl.cauchy_kl_length_from_width(w)), abs=1e-9
            )

    def test_closed_form_hand_value(self):
        # width 4 -> half 2 -> log(8/4) = log 2
        assert float(sl.cauchy_kl_length_from_width(4.0)) == pytest.approx(math.log(2.0))

    def test_vectorized(self):
        w = np.array([0.0, 1.0, 2.0])
        out = sl.cauchy_kl_length_from_width(w)
        assert out.shape == (3,)
        assert out[0] == 0.0
        assert np.all(np.diff(out) > 0)

    def test_translation_invariant(self):
        f = sl.CauchyLocation(15)
        assert sl.kl_length(f, (0.0, 2.0)) == pytest.approx(
            sl.kl_length(f, (5.0, 7.0)), abs=1e-9
        )

    def test_symmetric_family_center_is_midpoint(self):
        f = sl.NormalLocation(1.0, 4)
        assert sl.kl_length_center(f, (1.0, 3.0)) == pytest.approx(2.0, abs=1e-6)
        f = sl.CauchyLocation(15)
        assert sl.kl_length_center(f, (-1.0, 5.0)) == pytest.approx(2.0, abs=1e-6)

    def test_bernoulli_center_skewed(self):
        # asymmetric divergence: optimal center of (0.1, 0.5) is not 0.3
        f = sl.Bernoulli(10)
        c = sl.kl_length_center(f, (0.1, 0.5))
        r = sl.kl_length(f, (0.1, 0.5))
        assert 0.1 < c < 0.5
        assert abs(c - 0.3) > 1e-3
        # the optimum equalizes the two endpoint divergences
        assert sl.kl_divergence(f, 0.1, c) == pytest.approx(
            sl.kl_divergence(f, 0.5, c), abs=1e-7
        )
        assert r == pytest.approx(sl.kl_divergence(f, 0.1, c), abs=1e-7)

    def test_monotone_under_inclusion(self):
        f = sl.CauchyLocation(15)
        assert sl.kl_length(f, (-1.0, 1.0)) < sl.kl_length(f, (-1.0, 2.0))
        assert sl.kl_length(f, (-1.0, 2.0)) < sl.kl_length(f, (-3.0, 2.0))

    def test_degenerate_is_zero(self):
        assert sl.kl_length(sl.CauchyLocation(15), (1.0, 1.0)) == 0.0

    @pytest.mark.parametrize("f, pair", [(sl.Bernoulli(10), (2.0, 2.0)), (sl.CauchyLocation(5), (math.inf, math.inf))],
                             ids=["bernoulli-p-2", "cauchy-inf"])
    def test_a_degenerate_pair_checks_its_ends(self, f, pair):
        with pytest.raises(sl.DomainError):
            sl.kl_length(f, pair)
        with pytest.raises(sl.DomainError):
            sl.kl_length_center(f, pair)

    def test_bernoulli_log_odds_length_is_the_p_charts(self):
        # the KL length does not change under reparameterization; it is bisected
        # in each chart, so the two agree to the bisection's tolerance
        fp, fo = sl.Bernoulli(10), sl.Bernoulli(10, chart="log_odds")
        for lo, hi in [(0.2, 0.45), (0.01, 0.3), (0.5, 0.97), (0.05, 0.95)]:
            ends = tuple(sl.reparam(fp, "p", "log_odds", p) for p in (lo, hi))
            assert sl.kl_length(fo, ends) == pytest.approx(sl.kl_length(fp, (lo, hi)), rel=1e-9)

    def test_accepts_interval_object(self):
        f = sl.CauchyLocation(15)
        iv = sl.Interval(lo=-1.0, hi=1.0, method="lrt", level_k=1.0)
        assert sl.kl_length(f, iv) == pytest.approx(sl.kl_length(f, (-1.0, 1.0)))

    def test_out_of_order_rejected(self):
        with pytest.raises(sl.DomainError):
            sl.kl_length(sl.CauchyLocation(15), (2.0, 1.0))

    def test_divergence_monotone_in_gap(self):
        # the endpoint-only cover check relies on this
        for f in [sl.CauchyLocation(15), sl.NormalLocation(1.3, 4)]:
            gaps = np.linspace(0.0, 5.0, 40)
            d = [sl.kl_divergence(f, g, 0.0) for g in gaps]
            assert all(a < b for a, b in zip(d, d[1:]))
        f = sl.Bernoulli(10)
        ps = np.linspace(0.3, 0.95, 30)
        d = [sl.kl_divergence(f, p, 0.3) for p in ps[1:]]
        assert all(a < b for a, b in zip(d, d[1:]))
        # the smallest ball's center is the crossing of D(lo||c) and
        # D(hi||c): D(p1||c) must grow as c moves away from p1 either way
        above = np.linspace(0.3, 0.95, 30)[1:]
        d = [sl.kl_divergence(f, 0.3, c) for c in above]
        assert all(a < b for a, b in zip(d, d[1:]))
        below = np.linspace(0.3, 0.02, 30)[1:]
        d = [sl.kl_divergence(f, 0.3, c) for c in below]
        assert all(a < b for a, b in zip(d, d[1:]))
