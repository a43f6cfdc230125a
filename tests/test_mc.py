"""Monte Carlo coverage engine: determinism, projections, edge cases."""

import dataclasses
import decimal
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import slope_lab as sl
from slope_lab import cauchy, cli, intervals
from slope_lab.cauchy import cauchy_level_set_batch, cauchy_level_set_ends
from slope_lab.mc import _draw_batch, _run_batch

CFG_SMALL = sl.SimConfig(n=15, reps=2000, seed=0)


def _mle_batch(x, counters=None):
    return cauchy_level_set_batch(x, 0.0, counters)[0]


def _csv_bytes_by_rows(summary):
    """The row-by-row formatting that SimSummary.csv_bytes replaced, kept
    as the reference its bytes must equal."""
    buf = io.StringIO()
    buf.write("#schema=slope_lab.replicates.v1\r\n")
    buf.write("rep,theta_hat,i_obs,hit_we,hit_wo,hit_lrt,kl_we,kl_wo,kl_lrt\r\n")
    t = summary.replicates
    for i in range(t.shape[0]):
        buf.write(
            f"{t['rep'][i]},{t['theta_hat'][i]:.17g},{t['i_obs'][i]:.17g},"
            f"{int(t['hit_we'][i])},{int(t['hit_wo'][i])},{int(t['hit_lrt'][i])},"
            f"{t['kl_we'][i]:.17g},{t['kl_wo'][i]:.17g},{t['kl_lrt'][i]:.17g}\r\n"
        )
    return buf.getvalue().encode()


@pytest.fixture(scope="module")
def small_summary():
    return sl.run_coverage(CFG_SMALL)


class TestConfig:
    def test_z_level(self):
        assert sl.SimConfig(alpha=0.05).z == pytest.approx(1.959963985, abs=1e-8)

    def test_bad_values(self):
        with pytest.raises(sl.DomainError):
            sl.SimConfig(reps=0)
        with pytest.raises(sl.DomainError):
            sl.SimConfig(alpha=1.0)
        # Philox key words: numpy casts larger ones through float64, so
        # they would alias other seeds' streams
        for seed in (-1, 2**63, 2**64 - 1, 2**64, 1.5):
            with pytest.raises(sl.DomainError):
                sl.SimConfig(seed=seed)
        assert sl.SimConfig(seed=2**63 - 1).seed == 2**63 - 1

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_theta_true_is_finite(self, theta):
        with pytest.raises(sl.DomainError, match="theta_true"):
            sl.SimConfig(theta_true=theta)
        # a finite value is valid input, even where its replicates fail
        assert sl.SimConfig(theta_true=1e300).theta_true == 1e300


def _draws_by_generator(seed, start, count, n, theta):
    """One numpy Philox Generator per replicate: the reference stream."""
    x = np.empty((count, n))
    for r in range(count):
        u = np.random.Generator(np.random.Philox(key=[seed, start + r])).random(n)
        x[r] = theta + np.tan(math.pi * (u - 0.5))
    return np.sort(x, axis=1)


class TestDraws:
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 15, 16, 33])
    def test_matches_numpy_philox_streams(self, n):
        for seed in (0, 1, 2**32 + 5, 2**63 - 1):
            for start in (0, 4093):
                got = _draw_batch(seed, start, 6, n, 0.25)
                want = _draws_by_generator(seed, start, 6, n, 0.25)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (seed, start)

    def test_deterministic_and_batch_invariant(self):
        a = _draw_batch(0, 0, 10, 15, 0.0)
        b = np.vstack([_draw_batch(0, 0, 4, 15, 0.0), _draw_batch(0, 4, 6, 15, 0.0)])
        assert np.array_equal(a, b)

    def test_sorted_rows(self):
        x = _draw_batch(3, 0, 5, 15, 1.0)
        assert np.all(np.diff(x, axis=1) >= 0)

    def test_cauchy_marginal(self):
        x = _draw_batch(1, 0, 2000, 15, 0.0).ravel()
        # KS test against the standard Cauchy cdf
        stat = stats.kstest(x, stats.cauchy.cdf).pvalue
        assert stat > 0.01

    def test_location_shift(self):
        a = _draw_batch(2, 0, 3, 15, 0.0)
        b = _draw_batch(2, 0, 3, 15, 4.0)
        assert np.allclose(b, a + 4.0)


class TestBatchMle:
    def test_matches_scalar_mle(self):
        x = _draw_batch(5, 0, 50, 15, 0.0)
        batch = _mle_batch(x)
        for r in range(50):
            assert batch[r] == pytest.approx(sl.cauchy_mle(x[r]), abs=1e-8)

    def test_tie_goes_to_smaller_theta(self):
        # two exactly tied modes at -sqrt(8) and sqrt(8), as in the scalar
        # test; the second row is the first shifted by 2 and unsorted
        theta = _mle_batch(np.array([[-3.0, 3.0], [5.0, -1.0]]))
        assert theta[0] == pytest.approx(-math.sqrt(8.0), abs=1e-12)
        assert theta[1] == pytest.approx(2.0 - math.sqrt(8.0), abs=1e-12)

    def test_capped_rows_fail_instead_of_returning(self, monkeypatch):
        x = _draw_batch(0, 0, 200, 15, 0.0)
        full = _mle_batch(x)
        drop = intervals.lrt_drop(sl.SimConfig().z)  # the LRT level set _run_batch certifies too
        needs_halving, lrt_needs_halving = np.zeros((2, 200), dtype=bool)
        for r in range(200):
            for flags, d in ((needs_halving, 0.0), (lrt_needs_halving, drop)):
                counters = cauchy.MleCounters()
                cauchy_level_set_batch(x[r : r + 1], d, counters)
                flags[r] = counters.halved > 0
        assert needs_halving.any() and not lrt_needs_halving.all()
        monkeypatch.setattr(cauchy, "_MAX_HALVINGS", 0)
        counters = cauchy.MleCounters()
        capped = _mle_batch(x, counters)
        assert np.array_equal(np.isnan(capped), needs_halving)
        assert np.array_equal(capped[~needs_halving], full[~needs_halving])
        assert counters.capped == needs_halving.sum()
        with pytest.raises(sl.CertificateError):
            sl.cauchy_mle(x[np.argmax(needs_halving)])
        cfg = sl.SimConfig(reps=200, seed=0)
        out, _, reasons = _run_batch(cfg, cfg.z, 0, 200)
        assert reasons["failed_cap"] == out["failed"].sum() == lrt_needs_halving.sum()
        assert np.isnan(out["theta_hat"][lrt_needs_halving]).all()


def _batch_hulls(x, z):
    """LRT hulls and disconnection flags of the rows of x, from the batch kernel."""
    theta_hat, target, outer, disconnected = cauchy_level_set_batch(x, z * z / 2.0)
    lo, hi = cauchy_level_set_ends(x, outer, target)
    return lo, hi, disconnected


def _scalar_hull(x, z):
    return sl.lrt_interval(sl.lrt_estimate(sl.CauchyLocation(x.size), x), z)


def _grid_disconnected(x, theta_hat, z, chunk=512):
    """Independent oracle: whether {l > l(theta_hat) - z^2/2} leaves and
    re-enters on a grid of step 0.01 over every unit window and 101 points
    across every gap between neighbouring observations."""
    w = np.linspace(-1.0, 1.0, 201)
    q = np.linspace(0.0, 1.0, 101)
    lo, hi = x[:, :-1, None] + 1.0, x[:, 1:, None] - 1.0
    windows = (x[:, :, None] + w).reshape(len(x), -1)
    gaps = (lo + (hi - lo) * q).reshape(len(x), -1)
    grid = np.concatenate([windows, gaps], axis=1)
    grid.sort(axis=1)
    target = -np.log1p((x - theta_hat[:, None]) ** 2).sum(axis=1) - z * z / 2.0
    out = np.zeros(len(x), dtype=bool)
    for c in range(0, len(x), chunk):
        g, xc = grid[c : c + chunk], x[c : c + chunk]
        ll = np.zeros_like(g)
        for i in range(x.shape[1]):
            ll -= np.log1p((xc[:, i : i + 1] - g) ** 2)
        above = ll > target[c : c + chunk, None]
        first = np.argmax(above, axis=1)
        last = above.shape[1] - 1 - np.argmax(above[:, ::-1], axis=1)
        out[c : c + chunk] = above.sum(axis=1) < last - first + 1
    return out


class TestLrtRoots:
    z = sl.SimConfig().z

    def test_batch_roots_match_scalar_interval(self):
        x = _draw_batch(0, 0, 300, 15, 0.0)
        lo, hi, disconnected = _batch_hulls(x, self.z)
        for r in range(x.shape[0]):
            iv = _scalar_hull(x[r], self.z)
            assert iv.lo == pytest.approx(lo[r], abs=1e-8) and iv.hi == pytest.approx(hi[r], abs=1e-8), r
            assert iv.disconnected == disconnected[r]

    @pytest.mark.parametrize(
        "rep,hull", [(13057, (-3.9097, 1.3131)), (13645, (-2.3005, 1.6988))]
    )
    def test_disconnected_level_set_gives_its_hull(self, rep, hull):
        # seed-0 replicates with a second component: both paths report
        # the outermost roots, not the crossing nearest theta_hat
        x = _draw_batch(0, rep, 1, 15, 0.0)
        lo, hi, disconnected = _batch_hulls(x, self.z)
        iv = _scalar_hull(x[0], self.z)
        for got in ((lo[0], hi[0]), (iv.lo, iv.hi)):
            assert got == pytest.approx(hull, abs=1e-4)
        assert disconnected[0] and iv.disconnected

    def test_disconnection_count_matches_grid_oracle(self):
        start, count = 12288, 4096
        x = _draw_batch(0, start, count, 15, 0.0)
        theta_hat, _, _, disconnected = cauchy_level_set_batch(x, self.z * self.z / 2.0)
        oracle = _grid_disconnected(x, theta_hat, self.z)
        got, want = np.nonzero(disconnected)[0] + start, np.nonzero(oracle)[0] + start
        assert got.tolist() == want.tolist() == [13057, 13645]
        _, _, counters = _run_batch(sl.SimConfig(seed=0), self.z, start, count)
        assert counters["lrt_disconnected"] == oracle.sum()


def _loglik_at(x, theta):
    """l of the one sample ``x`` at each point of ``theta``, its terms
    added in sample order, as the kernel adds them."""
    return -np.add.accumulate(np.log1p((x[:, None] - theta[None, :]) ** 2), axis=0)[-1]


def _level_set_laying_every_window(x, drop):
    """The kernel with no window skipped."""
    lay_all = lambda x, drop: np.zeros(x.shape, dtype=bool)
    with mock.patch.object(cauchy, "_unreachable_windows", lay_all):
        return cauchy_level_set_batch(x, drop)


def _level_set_keeping_every_cell(x, drop, counters=None):
    """The kernel building every cell of its lattice, with l at both ends."""
    keep_all = lambda h, sa, sb, n: np.ones(h.shape, dtype=bool)
    with mock.patch.object(cauchy, "_can_stay_open", keep_all):
        return cauchy_level_set_batch(x, drop, counters)


def _topology_oracle(x, t):
    """Independent oracle for one sorted sample: the local maxima of l above
    t and whether {l > t} is not one interval, from a lattice of step 1e-3
    over every unit window and, in every gap between windows, where l is
    convex, its minimum, bisected on the score.  None when some extremum
    lies within 1e-4 of t, where the lattice cannot decide."""
    k = np.round(x / 1e-3).astype(np.int64)
    points = [np.unique((k[:, None] + np.arange(-1002, 1003)).ravel()) * 1e-3]
    score = lambda th: float((2.0 * (x - th) / (1.0 + (x - th) ** 2)).sum())
    for a, b in zip(x[:-1] + 1.01, x[1:] - 1.01):
        if a < b and score(a) < 0.0 < score(b):
            for _ in range(200):
                mid = 0.5 * (a + b)
                a, b = (mid, b) if score(mid) < 0.0 else (a, mid)
            points.append([a])
    g = np.sort(np.concatenate(points))
    ll = _loglik_at(x, g)
    inner = ll[1:-1]
    peaks = (inner > ll[:-2]) & (inner >= ll[2:])
    troughs = (inner < ll[:-2]) & (inner <= ll[2:])
    if np.any(np.abs(inner[peaks | troughs] - t) < 1e-4):
        return None
    above = ll > t
    runs = int(above[0]) + int(np.count_nonzero(above[1:] & ~above[:-1]))
    return g[1:-1][peaks & (inner > t)], runs > 1


def _check_skip_is_sound(x, drop):
    """The kernel on the one sorted sample ``x``: against itself laying
    every window, against the dense-grid oracle, and l below the level over
    each skipped window.  Returns the number of windows skipped."""
    counters = cauchy.MleCounters()
    theta_hat, target, outer, disconnected = cauchy_level_set_batch(x[None], drop, counters)
    skipped = cauchy._unreachable_windows(x[:, None], drop)[:, 0]
    assert counters.windows_skipped == skipped.sum()
    # laying every window gives the same answer, bit for bit
    ref = _level_set_laying_every_window(x[None], drop)
    for got, want in zip((theta_hat, target, outer, disconnected), ref):
        assert got.tobytes() == want.tobytes()
    # theta_hat is a global maximizer on the grid over every window
    l_hat = _loglik_at(x, theta_hat)[0]
    assert target[0] == l_hat - drop
    grid = (x[:, None] + np.linspace(-1.0, 1.0, 2001)).ravel()
    assert l_hat >= _loglik_at(x, grid).max() - 1e-12 * (1.0 + abs(l_hat))
    # l stays below the level over each skipped window, widened as the bound is
    for xi in x[skipped]:
        assert _loglik_at(x, xi + np.linspace(-1.4, 1.4, 28_001)).max() < target[0]
    oracle = _topology_oracle(x, target[0])
    if drop == 0.0:
        # the set is theta_hat and the maxima tied with it, each a point
        assert outer[0][0] == theta_hat[0]
        assert _loglik_at(x, outer[1])[0] == pytest.approx(l_hat, rel=1e-12, abs=1e-12)
        assert disconnected[0] == (outer[1][0] != theta_hat[0])
    elif oracle is not None:
        maxima, split = oracle
        ends = np.concatenate([maxima, theta_hat])
        assert outer[0][0] == pytest.approx(ends.min(), abs=2e-3)
        assert outer[1][0] == pytest.approx(ends.max(), abs=2e-3)
        assert disconnected[0] == split
    return int(skipped.sum())


_SKIP_DROPS = (0.0, 0.5, intervals.lrt_drop(sl.SimConfig().z), 4.5)  # 0 and z^2 / 2 for z = 1, 1.96, 3


class TestWindowSkip:
    """The window skip of ``cauchy_level_set_batch`` drops no maximum and no
    point of the level set."""

    @pytest.mark.parametrize("drop", _SKIP_DROPS)
    @pytest.mark.parametrize(
        "x",
        [
            [0.0, 60.0],
            [-0.3, 0.4, 250.0],
            [-1e6, -0.5, 0.2, 0.9, 40.0],
            [-3.0, 3.0, 8.0, 1e4, 1e15],
            list(np.sort(np.r_[np.random.default_rng(4).standard_cauchy(12), -700.0, 90.0, 3e5])),
        ],
        ids=["n2", "n3", "n5", "n5-wide", "n15"],
    )
    def test_far_outliers(self, x, drop):
        skipped = _check_skip_is_sound(np.array(x), drop)
        # two windows bound each other: l(x_k) lies under the other's bound
        assert (skipped == 0) if len(x) == 2 else (skipped > 0)

    @pytest.mark.parametrize("drop", _SKIP_DROPS)
    @pytest.mark.parametrize("n", [3, 5, 15])
    def test_bound_just_above_and_below_the_level(self, n, drop):
        # an outlier D to the right of a fixed cluster, D bisected to adjacent
        # floats where the skip of its window switches on
        cluster = np.sort(np.random.default_rng(n).uniform(-1.5, 1.5, n - 1))
        row = lambda d: np.append(cluster, d)
        skips = lambda d: bool(cauchy._unreachable_windows(row(d)[:, None], drop)[-1, 0])
        lo, hi = cluster[-1], 1e6
        assert not skips(lo) and skips(hi)
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if skips(mid) else (mid, hi)
        assert _check_skip_is_sound(row(lo), drop) == 0
        assert _check_skip_is_sound(row(hi), drop) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 3, 5, 15]),
        seed=st.integers(0, 2**32 - 1),
        far=st.lists(st.floats(4.0, 1e6) | st.floats(-1e6, -4.0), min_size=1, max_size=4),
        drop=st.sampled_from(_SKIP_DROPS),
    )
    def test_random_clusters_with_far_outliers(self, n, seed, far, drop):
        k = min(len(far), n - 1)
        cluster = np.random.default_rng(seed).uniform(-3.0, 3.0, n - k)
        _check_skip_is_sound(np.sort(np.r_[cluster, far[:k]]), drop)

    @pytest.mark.parametrize("x0", [-1.6046209097536697, -1.1936498704489582])
    def test_tied_maxima_at_drop_zero_are_two_points(self, x0):
        # l of two points more than 2 apart is symmetric about their midpoint:
        # two global maxima, and at drop 0 the level set is both of them
        x = np.array([x0, 4.0])
        theta_hat, target, outer, disconnected = cauchy_level_set_batch(x[None], 0.0)
        assert outer[0][0] == theta_hat[0] < x0 + 1.0 and outer[1][0] > 3.0
        assert outer[0][0] + outer[1][0] == pytest.approx(x0 + 4.0, abs=1e-9)
        assert disconnected[0]
        _check_skip_is_sound(x, 0.0)

    def test_batch_counts_match_the_mask(self):
        x = _draw_batch(0, 0, 512, 15, 0.0)
        drop = intervals.lrt_drop(sl.SimConfig().z)
        counters = cauchy.MleCounters()
        got = cauchy_level_set_batch(x, drop, counters)
        assert counters.windows_skipped == cauchy._unreachable_windows(x.T, drop).sum() > 0
        # in a batch the answer is the unskipped one bit for bit
        for a, b in zip(got, _level_set_laying_every_window(x, drop)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _lattice_by_sort(x, skipped):
    """The sort-and-dedupe construction that ``cauchy._lattice`` replaced,
    kept as its reference: every window's indices in one row, a skipped
    window's sorted last, and each index kept once."""
    first = np.floor((x - 1.0) / cauchy._CELL).astype(np.int64) - 1
    j = first[:, :, None] + np.arange(cauchy._WINDOW_POINTS)
    j[skipped] = cauchy._SKIPPED
    j = np.sort(j.reshape(x.shape[0], x.shape[1] * cauchy._WINDOW_POINTS), axis=1)
    fresh = j != cauchy._SKIPPED
    fresh[:, 1:] &= j[:, 1:] != j[:, :-1]
    return np.nonzero(fresh)[0], j[fresh]


class TestKernelLayout:
    """The kernel works on one (n, B) transpose of its batch: the lattice it
    lays, its chunks, and its rows kept apart."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(0, 6),
        n=st.integers(1, 15),
        seed=st.integers(0, 2**32 - 1),
        values=st.sampled_from(["cauchy", "wide", "ties", "constant"]),
        p_skip=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    )
    def test_lattice_matches_sort_and_dedupe(self, rows, n, seed, values, p_skip):
        rng = np.random.default_rng(seed)
        if values == "cauchy":
            x = rng.standard_cauchy((rows, n))
        elif values == "wide":
            x = rng.standard_cauchy((rows, n)) * 10.0 ** rng.integers(-3, 15, (rows, 1))
        elif values == "ties":
            x = rng.choice([-2.0, -0.3, 0.0, 0.1, 0.2, 1.7], (rows, n))
        else:
            x = np.repeat(rng.normal(size=(rows, 1)), n, axis=1)
        skipped = rng.random((rows, n)) < p_skip
        if rows:
            skipped[rng.integers(rows)] = True  # a row with every window skipped
        row, j = cauchy._lattice(x, skipped)
        want_row, want_j = _lattice_by_sort(x, skipped)
        assert row.tolist() == want_row.tolist() and j.tolist() == want_j.tolist()

    def test_empty_batch(self):
        theta_hat, target, outer, disconnected = cauchy_level_set_batch(np.empty((0, 15)), 1.92)
        assert (theta_hat.shape, target.shape, outer.shape, disconnected.shape) == ((0,), (0,), (2, 0), (0,))
        lo, hi = cauchy_level_set_ends(np.empty((0, 15)), outer, target)
        assert lo.shape == hi.shape == (0,)

    def test_row_permutation_permutes_every_output(self):
        x = _draw_batch(0, 0, 512, 15, 0.0)
        x[1] = x[1, ::-1]  # unsorted
        x[2] = 0.7  # constant
        x[3, -1] = 2e15  # beyond the lattice's range: NaN
        c = 20.0 + np.sort(np.random.default_rng(4).uniform(0.0, 1.0, 7))
        x[4] = np.r_[-c[::-1], 0.0, c]  # symmetric: two tied maxima
        perm = np.random.default_rng(1).permutation(len(x))
        for drop in (0.0, intervals.lrt_drop(sl.SimConfig().z)):
            theta_hat, target, outer, disconnected = cauchy_level_set_batch(x, drop)
            ends = cauchy_level_set_ends(x, outer, target)
            got = cauchy_level_set_batch(x[perm], drop)
            got_ends = cauchy_level_set_ends(x[perm], got[2], got[1])
            for a, b in zip((*got, *got_ends), (theta_hat, target, outer, disconnected, *ends)):
                assert a.tobytes() == b[..., perm].tobytes()

    @pytest.mark.parametrize("n", [3, 15, 61])
    def test_element_budgets_give_the_same_outputs(self, n, monkeypatch):
        x = _draw_batch(n, 0, 250, n, 0.0)
        drop = intervals.lrt_drop(sl.SimConfig().z)

        def run():
            counters = cauchy.MleCounters()
            return [a.tobytes() for a in cauchy_level_set_batch(x, drop, counters)], counters

        want, want_counters = run()
        points = want_counters.lattice_points
        # the lattice in chunks of s points leaves one over, alone in its chunk
        s = next(s for s in range(3, points) if points % s == 1)
        # 1 point a chunk, that last point alone, and one chunk for everything
        for budget in (n, s * n, points * n):
            monkeypatch.setattr(cauchy, "_CHUNK_ELEMENTS", budget)
            assert run() == (want, want_counters)
        stops = lambda size: [(p.start, p.stop) for p in cauchy._chunks(size, n)]
        monkeypatch.setattr(cauchy, "_CHUNK_ELEMENTS", s * n)
        assert stops(points)[-1] == (points - 1, points)
        monkeypatch.setattr(cauchy, "_CHUNK_ELEMENTS", 5 * n)
        assert stops(11) == [(0, 5), (5, 10), (10, 11)] and stops(10) == [(0, 5), (5, 10)]
        assert stops(1) == [(0, 1)] and stops(0) == []
        monkeypatch.setattr(cauchy, "_CHUNK_ELEMENTS", 1)  # below one point: 1 point a chunk
        assert stops(3) == [(0, 1), (1, 2), (2, 3)]


def _full_skip_test(x, drop):
    """The window-skip test of every window of the sorted rows of ``x``, at
    the level of ``cauchy._unreachable_windows``: U_i below l(x_m) - drop
    by the margin, m = n // 2, as a (B, n) mask."""
    n = x.shape[1]
    level = -np.log1p((x - x[:, n // 2 : n // 2 + 1]) ** 2).sum(axis=1) - drop
    d = [np.maximum(np.abs(x - x[:, i : i + 1]) - cauchy._REACH, 0.0) for i in range(n)]
    bound = np.stack([-np.log1p(di * di).sum(axis=1) for di in d], axis=1)
    return bound < (level - cauchy._SKIP_MARGIN * (1.0 + np.abs(level)))[:, None]


class TestLeanKernel:
    """Cells the score closes are never built and windows are tested
    outside-in, and neither moves an output."""

    @pytest.mark.parametrize("drop", [0.0, intervals.lrt_drop(sl.SimConfig().z)])
    @pytest.mark.parametrize("n", [2, 3, 15, 61])
    def test_outputs_match_every_cell_and_every_window(self, n, drop):
        x = _draw_batch(0, 0, 512, n, 0.0)
        counters, full = cauchy.MleCounters(), cauchy.MleCounters()
        outputs = lambda level_set: [
            a.tobytes() for a in (*level_set, *cauchy_level_set_ends(x, level_set[2], level_set[1]))
        ]
        got = outputs(cauchy_level_set_batch(x, drop, counters))
        assert got == outputs(_level_set_keeping_every_cell(x, drop, full))
        assert got == outputs(_level_set_laying_every_window(x, drop))
        assert counters == full and counters.brackets > 0

    @pytest.mark.parametrize("drop", [0.0, intervals.lrt_drop(sl.SimConfig().z)])
    @pytest.mark.parametrize("n", [2, 3, 15, 61, 201])
    def test_outside_in_mask_is_the_full_tests_end_runs(self, n, drop):
        x = _draw_batch(1, 0, 512, n, 0.0)
        full = _full_skip_test(x, drop)
        got = cauchy._unreachable_windows(np.ascontiguousarray(x.T), drop).T
        assert not (got & ~full).any()
        # outside-in: the runs of windows the full test skips from each end
        ends = lambda mask: np.logical_and.accumulate(mask, axis=1)
        assert np.array_equal(got, ends(full) | ends(full[:, ::-1])[:, ::-1])
        assert not got[:, n // 2].any() and (got.any() or n == 2)


def _scaled_cauchy_draw(rng):
    """One sample of the scaled draws behind the scalar checks: n in 2..15,
    standard Cauchy scaled by 10^-2..10^2, sorted."""
    n = rng.integers(2, 16)
    return np.sort(rng.standard_cauchy(n) * 10.0 ** rng.integers(-2, 3))


class TestRowBitsAreItsOwn:
    """Every Cauchy sum adds the observations in sample order, whatever the
    shape, so no output depends on the rows that share its arrays."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4096])
    @pytest.mark.parametrize("n", [1, 2, 15, 201])
    def test_sums_add_in_sample_order(self, n, m):
        # and a sum of -0.0 terms is -0.0, as its first term is
        for u in (np.random.default_rng(n * m).standard_cauchy((n, m)), np.full((n, m), -0.0)):
            want = np.add.accumulate(u, axis=0)[-1]
            assert cauchy._sum_obs(u).tobytes() == want.tobytes()
            if m == 1:
                assert np.asarray(cauchy._sum_obs(u[:, 0])).tobytes() == want.tobytes()

    @pytest.mark.parametrize("drop", [0.0, intervals.lrt_drop(sl.SimConfig().z)])
    @pytest.mark.parametrize("n", [2, 3, 15, 61])
    def test_a_row_alone_gives_its_batch_row(self, n, drop):
        x = _draw_batch(0, 0, 512, n, 0.0)
        theta_hat, target, outer, disconnected = cauchy_level_set_batch(x, drop)
        lo, hi = cauchy_level_set_ends(x, outer, target)
        batch = np.stack([theta_hat, target, outer[0], outer[1], disconnected, lo, hi], axis=1)
        for r in range(len(x)):
            alone = cauchy_level_set_batch(x[r : r + 1], drop)
            ends = cauchy_level_set_ends(x[r : r + 1], alone[2], alone[1])
            got = np.concatenate([alone[0], alone[1], *alone[2], alone[3], *ends])
            assert got.tobytes() == batch[r].tobytes(), r

    def test_scalar_mle_is_the_theta_hat_of_the_lrt_pass(self):
        # draws on which the MLE pass (drop 0) and the LRT pass bisect
        # different numbers of brackets at once
        rng = np.random.default_rng(7)
        draws = [_scaled_cauchy_draw(rng) for _ in range(1143)]
        for i in (23, 174, 843, 1142):
            theta_hat = cauchy.certified_level_set(draws[i][None], intervals.lrt_drop(sl.SimConfig().z))[0][0]
            assert sl.cauchy_mle(draws[i]) == theta_hat, i

    def test_a_last_batch_of_one_gives_the_replicates_bits(self, monkeypatch):
        monkeypatch.setattr(sl.mc, "BATCH", 8)
        cfg = sl.SimConfig(reps=8 * 12, seed=0)
        every = sl.run_coverage(cfg).replicates
        for reps in range(9, 8 * 12, 8):
            last = sl.run_coverage(dataclasses.replace(cfg, reps=reps)).replicates[-1]
            assert last.tobytes() == every[reps - 1].tobytes(), reps


def _decide(xt, theta, target):
    """The hull ends' test of l(theta) > target on the columns of ``xt``,
    with the log sum's own decisions beside it."""
    test = cauchy._EndTest(xt, target)
    with np.errstate(over="raise"):
        got = test(theta)
        want = cauchy._loglik_rows(xt, theta, np.empty_like(xt)) > target
    return got, want, test


def _ulps(got, exact):
    """Distance of the float ``got`` from the Decimal ``exact``, in ulps of ``exact``."""
    return abs(decimal.Decimal(float(got)) - exact) / decimal.Decimal(math.ulp(float(exact)))


class TestCertifiedEndDecisions:
    """The hull ends decide l(theta) > target mostly by the product
    prod (1 + t_i^2) against e^-target, but only outside a band that covers
    its rounding and the log sum's: every decision is the log sum's."""

    @staticmethod
    def _columns(n, targets_per_sample):
        """(xt, theta, l) for four seed-0 samples at two points each near
        their middle, where e^-l is finite up to n = 201, every column
        repeated ``targets_per_sample`` times."""
        x = _draw_batch(0, 0, 4, n, 0.0)
        theta = np.concatenate([x[:, n // 2] + 0.7, x[:, n // 2] - 0.4])
        xt = np.ascontiguousarray(np.repeat(np.concatenate([x, x]), targets_per_sample, axis=0).T)
        theta = np.repeat(theta, targets_per_sample)
        with np.errstate(over="raise"):
            l = cauchy._loglik_rows(xt, theta, np.empty_like(xt))
        return xt, theta, l

    @pytest.mark.parametrize("n", [1, 2, 15, 201])
    def test_decisions_at_a_few_ulps_from_the_log_sum(self, n):
        k = np.arange(-64, 65)
        xt, theta, l = self._columns(n, k.size)
        target = l + np.tile(k, 8) * np.abs(np.spacing(l))
        got, want, test = _decide(xt, theta, target)
        assert got.tobytes() == want.tobytes()
        assert test.log_decisions > 0  # the nearest columns fall in the band
        # the decisions change side within the columns swept
        assert 0 < want.sum() < want.size

    @pytest.mark.parametrize("n", [1, 2, 15, 201])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_decisions_across_each_band_edge(self, n, side):
        # the product decides below lo = e^-t (1 - delta), t below l - delta,
        # and above hi = e^-t (1 + delta), t above l + delta
        j = np.arange(-24, 25)
        xt, theta, l = self._columns(n, j.size)
        delta = (4 * n + 12 + (n + 4) * np.abs(l)) * 2.0**-52
        target = l + side * delta + np.tile(j, 8) * 2.0**-52 * (1.0 + np.abs(l))
        got, want, test = _decide(xt, theta, target)
        assert got.tobytes() == want.tobytes()
        # the sweep crosses the edge: the product took some of its columns
        assert 0 < test.log_decisions < l.size

    def test_overflowed_product_or_exp_takes_the_log_sum(self):
        # t ~ 3e10: the product of 15 factors 1 + t^2 overflows, though
        # e^-target does not at target -705; e^-target overflows at -710
        x = _draw_batch(0, 0, 32, 15, 0.0)
        xt = np.ascontiguousarray(np.concatenate([x, x]).T)
        theta = np.where(np.arange(64) < 4, 3e10, x[:, 7].repeat(2) + 0.5)
        with np.errstate(over="raise"):
            l = cauchy._loglik_rows(xt, theta, np.empty_like(xt))
        target = l + np.where(np.arange(64) % 2, 1.0, -1.0)
        target[:4] = -705.0
        target[4:8] = -710.0
        got, want, test = _decide(xt, theta, target)
        assert got.tobytes() == want.tobytes()
        assert test.log_decisions == 8
        assert (l[:4] < -709.8).all() and not want[:4].any()

    @pytest.mark.parametrize("n", [1, 15])
    def test_overflow_rows_give_the_log_sums_ends(self, n):
        # each row run alone is a batch of two columns, which the log sum
        # alone decides; in the batch, e^-target overflows for the rows at
        # target -715, and products overflow past the ends of those at -705
        x = _draw_batch(3, 0, 40, n, 0.0)
        _, target, outer, _ = cauchy_level_set_batch(x, 1.92)
        target[::20] = -715.0
        target[1::20] = -705.0
        counters = cauchy.MleCounters()
        lo, hi = cauchy_level_set_ends(x, outer, target, counters)
        assert 0 < counters.end_log_decisions < counters.end_decisions
        for r in range(len(x)):
            alone = cauchy.MleCounters()
            ends = cauchy_level_set_ends(x[r : r + 1], outer[:, r : r + 1], target[r : r + 1], alone)
            assert (ends[0][0], ends[1][0]) == (lo[r], hi[r]), r
            assert alone.end_log_decisions == alone.end_decisions > 0
        if n == 1:  # near these ends t^2 overflows, which the log sum mends
            assert (hi[::20] > 1e150).all() and np.isfinite(hi[::20]).all()

    def test_numpy_exp_and_log1p_within_the_ulps_the_band_assumes(self):
        # 4 ulps each, against 40-digit decimal values, over the arguments
        # the band meets: -target where e^-target is a finite normal float,
        # and t^2 over the floats
        rng = np.random.default_rng(0)
        context = decimal.Context(prec=40)
        a = np.concatenate([rng.uniform(-708.39, 709.78, 6000), rng.standard_cauchy(4000) * 1e-3])
        worst_exp = max(_ulps(g, context.exp(decimal.Decimal(float(v)))) for g, v in zip(np.exp(a), a))
        s = np.concatenate([10.0 ** rng.uniform(-300.0, 300.0, 6000), rng.uniform(0.0, 4.0, 4000)])
        exact = decimal.Context(prec=1100)  # 1 + s, exactly, for s down to 1e-300
        worst_log1p = max(_ulps(g, context.ln(exact.add(1, decimal.Decimal(float(v)))))
                          for g, v in zip(np.log1p(s), s))
        assert worst_exp <= 4 and worst_log1p <= 4, (worst_exp, worst_log1p)

    def test_the_manifest_reports_the_end_decisions(self, tmp_path):
        assert cli.main(["cauchy-sim", "--reps", "300", "--raw", "--out-prefix", str(tmp_path / "sim")]) == 0
        c = json.loads((tmp_path / "sim_manifest.json").read_text())["telemetry"]["counters"]
        assert 0 < c["end_log_decisions"] < c["end_decisions"]
        assert c["end_decisions"] >= 2 * 300 * 55  # every column at each step, 55 halvings and a doubling


class TestRunCoverage:
    def test_deterministic_across_workers(self):
        a = sl.run_coverage(sl.SimConfig(reps=5000, seed=7), workers=1)
        b = sl.run_coverage(sl.SimConfig(reps=5000, seed=7), workers=4)
        assert a.csv_bytes() == b.csv_bytes()
        # a short last batch, and the largest seed
        cfg = sl.SimConfig(reps=2 * sl.mc.BATCH + 3, seed=2**63 - 1)
        a = sl.run_coverage(cfg, workers=1)
        assert a.csv_bytes() == sl.run_coverage(cfg, workers=2).csv_bytes()

    def test_coverage_near_nominal(self, small_summary):
        # raw errors at n=15 sit in the 4-10% range around the 5% target
        for m in sl.mc.METHODS:
            assert 0.02 < small_summary.coverage_error[m] < 0.12

    def test_se_formula(self, small_summary):
        e = small_summary.coverage_error["lrt"]
        expected = math.sqrt(e * (1 - e) / CFG_SMALL.reps)
        assert small_summary.coverage_se["lrt"] == pytest.approx(expected, rel=1e-6)

    def test_wald_expected_width(self, small_summary):
        # fixed half-width 2 z / sqrt(n/2) for every replicate
        w = 2.0 * CFG_SMALL.z / math.sqrt(CFG_SMALL.n / 2.0)
        widths = small_summary.replicates["width_we"]
        assert np.allclose(widths, w)

    def test_kl_column_matches_width_column(self, small_summary):
        t = small_summary.replicates
        assert np.allclose(
            t["kl_lrt"], sl.cauchy_kl_length_from_width(t["width_lrt"])
        )

    def test_theta_true_equivariance(self):
        # the draw is theta + tan(pi(u - 1/2)), so everything location-
        # equivariant shifts exactly and hits/widths are identical
        a = sl.run_coverage(sl.SimConfig(reps=500, seed=3, theta_true=0.0))
        b = sl.run_coverage(sl.SimConfig(reps=500, seed=3, theta_true=3.0))
        assert np.allclose(b.replicates["theta_hat"], a.replicates["theta_hat"] + 3.0, atol=1e-7)
        assert np.array_equal(a.replicates["hit_lrt"], b.replicates["hit_lrt"])
        assert np.allclose(a.replicates["width_lrt"], b.replicates["width_lrt"], atol=1e-7)

    def test_adjustment_reduces_error(self):
        raw = sl.run_coverage(sl.SimConfig(reps=5000, seed=1))
        adj = sl.readjust(raw, sl.PAPER_ADJUSTMENTS)
        for m in ("wald_expected", "wald_observed"):
            assert adj.coverage_error[m] < raw.coverage_error[m]
        assert adj.coverage_error["lrt"] == raw.coverage_error["lrt"]

    @pytest.mark.parametrize("failed, raises", [(1, False), (2, True)])
    def test_failures_past_one_in_ten_thousand_abort(self, failed, raises, monkeypatch):
        run_batch = sl.mc._run_batch

        def failing(cfg, z, start, count):
            out, seconds, counters = run_batch(cfg, z, start, count)
            if start == 0:
                out["failed"][:failed] = True
            return out, seconds, counters

        monkeypatch.setattr(sl.mc, "_run_batch", failing)
        cfg = sl.SimConfig(reps=10_000, seed=0)
        if raises:
            with pytest.raises(sl.SimulationError, match="2 replicate failures out of 10000"):
                sl.run_coverage(cfg)
        else:
            assert sl.run_coverage(cfg).n_failures == 1

    def test_reps_one(self):
        s = sl.run_coverage(sl.SimConfig(reps=1, seed=0))
        assert s.replicates.shape == (1,)
        assert set(s.coverage_error) == set(sl.mc.METHODS)

    def test_stage_seconds_and_counters(self, small_summary):
        assert set(small_summary.stage_seconds) == set(sl.mc.STAGES)
        assert all(v >= 0.0 for v in small_summary.stage_seconds.values())
        c = small_summary.counters
        assert c["brackets"] >= CFG_SMALL.reps
        assert c["windows_skipped"] > 0
        # every sample lays the window of its best observation, and no more than its windows kept
        points = cauchy._WINDOW_POINTS
        assert points * CFG_SMALL.reps <= c["lattice_points"]
        assert c["lattice_points"] <= points * (CFG_SMALL.n * CFG_SMALL.reps - c["windows_skipped"])
        failed = c["failed_cap"] + c["failed_nonfinite"] + c["failed_info"]
        assert failed == small_summary.n_failures

    def test_csv_bytes_match_row_reference(self, small_summary):
        table = small_summary.replicates.copy()
        table["theta_hat"][:3] = [np.nan, np.inf, -0.0]
        table["i_obs"][3] = -1e-300
        table["hit_lrt"][4] = not table["hit_lrt"][4]
        edited = dataclasses.replace(small_summary, replicates=table)
        for summary in (small_summary, edited):
            assert summary.csv_bytes() == _csv_bytes_by_rows(summary)

    def test_csv_schema_line(self, small_summary):
        data = small_summary.csv_bytes().decode()
        lines = data.split("\r\n")
        assert lines[0] == "#schema=slope_lab.replicates.v1"
        assert lines[1].startswith("rep,theta_hat,i_obs,")
        assert len(lines) == CFG_SMALL.reps + 3  # schema + header + trailing ""


class TestBins:
    def test_one_bin_equals_totals(self, small_summary):
        bins = sl.bin_by_obs_info(small_summary, 1)
        for m in sl.mc.METHODS:  # a sum of 0/1 hits is exact, in any order
            assert bins.coverage_error[m][0] == small_summary.coverage_error[m]
            assert bins.coverage_se[m][0] == small_summary.coverage_se[m]
        assert bins.counts[0] == CFG_SMALL.reps

    def test_equal_count_partition(self, small_summary):
        bins = sl.bin_by_obs_info(small_summary, 8)
        assert bins.counts.sum() == CFG_SMALL.reps
        assert bins.counts.max() - bins.counts.min() <= 1
        assert np.all(bins.edges_lo[1:] >= bins.edges_hi[:-1] - 1e-12)

    def test_wald_expected_error_falls_with_info(self, small_summary):
        # low observed information is where the fixed-width interval
        # misses: the bottom bin has a much larger error than the top
        bins = sl.bin_by_obs_info(small_summary, 5)
        e = bins.coverage_error["wald_expected"]
        assert e[0] > e[-1]

    def test_bad_bins(self, small_summary):
        with pytest.raises(sl.DomainError):
            sl.bin_by_obs_info(small_summary, 0)
        with pytest.raises(sl.DomainError):
            sl.bin_by_obs_info(small_summary, CFG_SMALL.reps + 1)


class TestQq:
    def test_shapes_and_sorting(self, small_summary):
        for stat in sl.mc.QQ_STATISTICS:
            pairs = sl.qq_data(small_summary, stat)
            assert pairs.shape == (CFG_SMALL.reps, 2)
            assert np.all(np.diff(pairs[:, 0]) > 0)
            assert np.all(np.diff(pairs[:, 1]) >= 0)

    def test_unknown_statistic(self, small_summary):
        with pytest.raises(sl.DomainError):
            sl.qq_data(small_summary, "nope")

    @pytest.mark.parametrize("n", [1, 3, 4, 6, 16])  # an even n has no one middle observation
    def test_median_needs_n_at_least_5_before_simulating(self, n, small_summary):
        summary = dataclasses.replace(small_summary, config=dataclasses.replace(CFG_SMALL, n=n))
        with pytest.raises(sl.DomainError, match=f"n={n}"):
            sl.qq_data(summary, "median_standardized")

    def test_signed_root_lrt_close_to_normal(self, small_summary):
        pairs = sl.qq_data(small_summary, "signed_root_lrt")
        # interquartile band hugs the diagonal
        mask = np.abs(pairs[:, 0]) < 1.0
        assert np.max(np.abs(pairs[mask, 0] - pairs[mask, 1])) < 0.15


class TestMeanKlLengths:
    def test_uses_paper_adjustments(self, small_summary):
        lengths = sl.mean_kl_lengths(small_summary)
        assert set(lengths) == set(sl.mc.METHODS)
        direct = sl.readjust(small_summary, sl.PAPER_ADJUSTMENTS)
        for m in sl.mc.METHODS:
            assert lengths[m] == pytest.approx(direct.mean_kl_length[m], abs=1e-12)

    def test_never_simulates(self, small_summary, monkeypatch):
        monkeypatch.setattr(sl.mc, "run_coverage", lambda *a, **k: pytest.fail("simulated"))
        lengths = sl.mean_kl_lengths(small_summary)
        assert lengths == sl.readjust(small_summary, sl.PAPER_ADJUSTMENTS).mean_kl_length
        assert lengths["wald_expected"] > small_summary.mean_kl_length["wald_expected"]


class TestReadjust:
    @staticmethod
    def _scalar_reference(summary, adjustments, rows):
        """The Wald columns of the given rows through the scalar wald_interval."""
        cfg = summary.config
        t = summary.replicates[rows]
        ref = {}
        for method, sfx in (("wald_expected", "we"), ("wald_observed", "wo")):
            hits, widths, kls = [], [], []
            for theta_hat, i_obs in zip(t["theta_hat"].tolist(), t["i_obs"].tolist()):
                info = cfg.n / 2.0 if method == "wald_expected" else max(i_obs, 1e-300)
                iv = sl.wald_interval(theta_hat, info, cfg.z, adjustments[method], method=method)
                hits.append(iv.contains(cfg.theta_true))
                widths.append(iv.hi - iv.lo)
                kls.append(sl.kl_length(sl.CauchyLocation(cfg.n), iv))
            ref["hit_" + sfx] = np.array(hits)
            ref["width_" + sfx] = np.array(widths)
            ref["kl_" + sfx] = np.array(kls)
        return ref

    def test_matches_scalar_wald_intervals(self, small_summary):
        table = small_summary.replicates.copy()
        # failed rows: two where the MLE failed (theta_hat NaN), two with i_obs <= 0
        table["theta_hat"][:2] = np.nan
        table["i_obs"][2:4] = [-1.0, 0.0]
        table["failed"][:4] = True
        summary = dataclasses.replace(small_summary, replicates=table)
        adj = sl.readjust(summary, sl.PAPER_ADJUSTMENTS)
        assert adj.adjustments == sl.PAPER_ADJUSTMENTS
        finite = np.isfinite(table["theta_hat"])
        for name, col in self._scalar_reference(summary, sl.PAPER_ADJUSTMENTS, finite).items():
            assert adj.replicates[name][finite].tobytes() == col.tobytes(), name
        for sfx in ("we", "wo"):
            # no Wald interval exists about a non-finite theta_hat
            assert not adj.replicates["hit_" + sfx][:2].any()
            assert np.isnan(adj.replicates["width_" + sfx][:2]).all()
        for name in ("rep", "theta_hat", "i_obs", "hit_lrt", "kl_lrt", "width_lrt", "failed"):
            assert adj.replicates[name].tobytes() == table[name].tobytes(), name
        ok = ~table["failed"]
        for m, sfx in sl.mc._METHOD_SUFFIX.items():
            assert adj.coverage_error[m] == 1.0 - adj.replicates["hit_" + sfx][ok].mean()
            assert adj.mean_kl_length[m] == adj.replicates["kl_" + sfx][ok].mean()

    def test_raw_readjustment_restores_the_table(self, small_summary):
        adj = sl.readjust(small_summary, sl.PAPER_ADJUSTMENTS)
        assert adj.replicates.tobytes() != small_summary.replicates.tobytes()
        back = sl.readjust(adj, sl.RAW_ADJUSTMENTS)
        assert back.replicates.tobytes() == small_summary.replicates.tobytes()
        assert back.coverage_error == small_summary.coverage_error
        assert back.mean_kl_length == small_summary.mean_kl_length
        assert back.adjustments == small_summary.adjustments == sl.RAW_ADJUSTMENTS

    def test_leaves_its_input_alone(self, small_summary):
        before = small_summary.replicates.tobytes()
        adj = sl.readjust(small_summary, sl.PAPER_ADJUSTMENTS)
        adj.counters["brackets"] = -1
        assert small_summary.replicates.tobytes() == before
        assert small_summary.counters["brackets"] >= 0

    @pytest.mark.parametrize(
        "adjustments",
        [
            {"lrt": 1.1},
            {"wald_expected": 1.0, "score": 1.0},
            {"wald_expected": 0.0},
            {"wald_observed": -1.05},
            {"wald_expected": math.inf},
            {"wald_observed": math.nan},
        ],
    )
    def test_rejects_bad_multipliers(self, small_summary, adjustments):
        with pytest.raises(sl.DomainError):
            sl.readjust(small_summary, adjustments)
