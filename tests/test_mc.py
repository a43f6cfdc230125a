"""Monte Carlo coverage engine: determinism, projections, edge cases."""

import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from scipy import stats

import slope_lab as sl
from slope_lab import intervals
from slope_lab.mc import _draw_batch, _lrt_roots_batch, _mle_batch, _run_batch

CFG_SMALL = sl.SimConfig(n=15, reps=2000, seed=0)


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
        with pytest.raises(sl.DomainError):
            sl.SimConfig(methods=("wald", "lrt"))


class TestDraws:
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
        needs_halving = np.zeros(200, dtype=bool)
        for r in range(200):
            counters = intervals.MleCounters()
            _mle_batch(x[r : r + 1], counters)
            needs_halving[r] = counters.halved > 0
        assert needs_halving.any() and not needs_halving.all()
        monkeypatch.setattr(intervals, "_MAX_HALVINGS", 0)
        counters = intervals.MleCounters()
        capped = _mle_batch(x, counters)
        assert np.array_equal(np.isnan(capped), needs_halving)
        assert np.array_equal(capped[~needs_halving], full[~needs_halving])
        assert counters.capped == needs_halving.sum()
        with pytest.raises(sl.CertificateError):
            sl.cauchy_mle(x[np.argmax(needs_halving)])
        out, _, reasons = _run_batch(sl.SimConfig(reps=200, seed=0), 0, 200)
        assert reasons["failed_cap"] == out["failed"].sum() == needs_halving.sum()


class TestLrtRoots:
    def test_batch_roots_match_scalar_interval(self):
        # sampled parity between the batch LRT roots and the scalar
        # lrt_interval, which also scans for a disconnected level set
        x = _draw_batch(0, 0, 300, 15, 0.0)
        z = sl.SimConfig().z
        lo, hi = _lrt_roots_batch(x, _mle_batch(x), z)
        f = sl.CauchyLocation(15)
        disconnected, off = [], []
        for r in range(x.shape[0]):
            iv = sl.lrt_interval(sl.lrt_estimate(f, x[r]), z)
            if iv.disconnected:
                disconnected.append(r)
            if abs(iv.lo - lo[r]) > 1e-8 or abs(iv.hi - hi[r]) > 1e-8:
                off.append((r, iv.lo - lo[r], iv.hi - hi[r]))
        if disconnected:
            warnings.warn(f"disconnected LRT level sets at replicates {disconnected}")
        assert not off, f"endpoint mismatches {off}; disconnected sets at {disconnected}"


class TestRunCoverage:
    def test_deterministic_across_workers(self):
        a = sl.run_coverage(sl.SimConfig(reps=5000, seed=7), workers=1)
        b = sl.run_coverage(sl.SimConfig(reps=5000, seed=7), workers=4)
        assert a.csv_bytes() == b.csv_bytes()

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
        adj = sl.run_coverage(
            sl.SimConfig(reps=5000, seed=1, adjustments=dict(sl.PAPER_ADJUSTMENTS))
        )
        for m in ("wald_expected", "wald_observed"):
            assert adj.coverage_error[m] < raw.coverage_error[m]
        assert adj.coverage_error["lrt"] == raw.coverage_error["lrt"]

    def test_reps_one(self):
        s = sl.run_coverage(sl.SimConfig(reps=1, seed=0))
        assert s.replicates.shape == (1,)
        assert set(s.coverage_error) == set(sl.mc.METHODS)

    def test_stage_seconds_and_counters(self, small_summary):
        assert set(small_summary.stage_seconds) == set(sl.mc.STAGES)
        assert all(v >= 0.0 for v in small_summary.stage_seconds.values())
        c = small_summary.counters
        assert c["brackets"] >= CFG_SMALL.reps
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
        for m in sl.mc.METHODS:
            assert bins.coverage_error[m][0] == pytest.approx(
                small_summary.coverage_error[m], abs=1e-12
            )
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
        with pytest.raises(sl.DomainError):
            sl.coverage_by_obs_info(CFG_SMALL, 1, summary=small_summary)


class TestQq:
    def test_shapes_and_sorting(self, small_summary):
        for stat in sl.mc.QQ_STATISTICS:
            pairs = sl.qq_data(CFG_SMALL, stat, summary=small_summary)
            assert pairs.shape == (CFG_SMALL.reps, 2)
            assert np.all(np.diff(pairs[:, 0]) > 0)
            assert np.all(np.diff(pairs[:, 1]) >= 0)

    def test_unknown_statistic(self, small_summary):
        with pytest.raises(sl.DomainError):
            sl.qq_data(CFG_SMALL, "nope", summary=small_summary)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_median_needs_n_at_least_5_before_simulating(self, n, monkeypatch):
        monkeypatch.setattr(sl.mc, "run_coverage", lambda *a, **k: pytest.fail("simulated"))
        with pytest.raises(sl.DomainError, match=f"n={n}"):
            sl.qq_data(sl.SimConfig(n=n, reps=20, seed=0), "median_standardized")

    def test_signed_root_lrt_close_to_normal(self, small_summary):
        pairs = sl.qq_data(CFG_SMALL, "signed_root_lrt", summary=small_summary)
        # interquartile band hugs the diagonal
        mask = np.abs(pairs[:, 0]) < 1.0
        assert np.max(np.abs(pairs[mask, 0] - pairs[mask, 1])) < 0.15


class TestMeanKlLengths:
    def test_uses_paper_adjustments(self):
        cfg = sl.SimConfig(reps=2000, seed=0)
        lengths = sl.mean_kl_lengths(cfg)
        assert set(lengths) == set(sl.mc.METHODS)
        direct = sl.run_coverage(
            sl.SimConfig(reps=2000, seed=0, adjustments=dict(sl.PAPER_ADJUSTMENTS))
        )
        for m in sl.mc.METHODS:
            assert lengths[m] == pytest.approx(direct.mean_kl_length[m], abs=1e-12)
