"""Seeded Monte Carlo engine for the Cauchy coverage experiment.

Each replicate draws its own counter-based Philox stream keyed by
(seed, replicate index), and no output of ``cauchy`` depends on its
batch-mates, so a replicate gives the same bytes in every run with its
seed, at any ``reps`` and worker count.  Replicates are processed in
vectorized batches: the Philox draw, one certified pass of ``cauchy``
for the MLE and LRT level set, the observed information, and the LRT
hull's ends are all done on whole batches.  With one thread,
``cauchy-sim --raw --reps 100000`` takes 2.9-3.3 s end to end, import
included, about 33,000 replicates/s, on a 2-core Intel Xeon VM (Python
3.11, numpy 2.4).  Of a one-thread ``run_coverage`` on 100,000
replicates, 53-58% goes to the MLE pass and 35-40% to the LRT hull's ends.

The per-replicate table records everything the downstream projections
need (coverage flags, KL lengths, observed information, and the raw
statistics behind the Q-Q diagnostics), so binning, Q-Q extraction and
the width adjustments (``readjust``) never re-run the simulation.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.special import ndtri

from .cauchy import (
    MleCounters,
    cauchy_kl_length,
    cauchy_level_set_batch,
    cauchy_level_set_ends,
    cauchy_loglik,
    cauchy_obs_info,
    cauchy_offsets,
    cauchy_score,
    cauchy_sorted_draws,
)
from .errors import DivergentIntegralError, DomainError, SimulationError
from .families import SEED_END, CauchyLocation, check_int, median_variance

METHODS = ("wald_expected", "wald_observed", "lrt")
# The paper's interval-width multipliers for n = 15, which readjust applies.
# The two Wald multipliers bring each Wald coverage error to the LRT's raw
# error (about 5.6%), not to the nominal alpha; the LRT is left as it is.
# Interval lengths are compared only at this common coverage.
PAPER_ADJUSTMENTS = {"wald_expected": 1.08555, "wald_observed": 1.05518, "lrt": 1.0}
RAW_ADJUSTMENTS = {"wald_expected": 1.0, "wald_observed": 1.0, "lrt": 1.0}

BATCH = 4096  # replicates per batch; a batch's arrays are (BATCH, n)
_FAILURE_ABORT_FRACTION = 1e-4

QQ_STATISTICS = ("signed_root_lrt", "standardized_score_at_true", "median_standardized")
# Stages of a batch, timed in run_coverage: the Philox draw, the MLE and
# level-set pass, the observed information, the LRT hull's ends, and the rest (hits,
# widths, KL lengths and the at-true statistics behind the Q-Q plots).
STAGES = ("draw", "mle", "obs_info", "lrt_roots", "widths_kl")


@dataclass(frozen=True)
class SimConfig:
    n: int = 15
    reps: int = 100_000
    theta_true: float = 0.0
    seed: int = 0
    alpha: float = 0.05

    def __post_init__(self):
        check_int("n", self.n, 1)
        check_int("reps", self.reps, 1)
        check_int("seed", self.seed, 0, SEED_END)
        if not math.isfinite(self.theta_true):
            raise DomainError(f"theta_true must be finite, got {self.theta_true}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha={self.alpha} outside (0, 1)")

    @property
    def z(self) -> float:
        return float(ndtri(1.0 - self.alpha / 2.0))


@dataclass
class SimSummary:
    config: SimConfig
    coverage_error: Dict[str, float]
    coverage_se: Dict[str, float]
    mean_kl_length: Dict[str, float]
    mean_width: Dict[str, float]
    replicates: np.ndarray  # structured array, one row per replicate
    n_failures: int = 0
    # seconds per STAGES entry, summed over batches (and so over threads)
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    # MLE work (brackets bisected, cells halved, unit windows skipped), disconnected LRT level
    # sets, failed replicates by reason (certificate cap, non-finite theta_hat, i_obs <= 0)
    counters: Dict[str, int] = field(default_factory=dict)
    # the width multipliers the two Wald methods' columns carry (see readjust)
    adjustments: Dict[str, float] = field(default_factory=lambda: dict(RAW_ADJUSTMENTS))

    def csv_bytes(self) -> bytes:
        """Per-replicate table as RFC-4180 CSV."""
        names = ("rep", "theta_hat", "i_obs", "hit_we", "hit_wo", "hit_lrt", "kl_we", "kl_wo", "kl_lrt")
        return csv_table("slope_lab.replicates.v1", names, [self.replicates[c] for c in names])


def csv_table(schema: str, header, columns) -> bytes:
    """A ``#schema=`` line, the header and the rows of ``columns`` as
    RFC-4180 CSV with CRLF line ends, formatted column by column: floats
    to 17 significant digits, bools as 1 and 0, anything else by str."""
    cells = []
    for column in columns:
        column = np.asarray(column)
        values = column.tolist()
        if column.dtype.kind == "f":
            cells.append([format(v, ".17g") for v in values])
        elif column.dtype.kind == "b":
            cells.append(["1" if v else "0" for v in values])
        else:
            cells.append([str(v) for v in values])
    lines = [f"#schema={schema}", ",".join(header), *map(",".join, zip(*cells)), ""]
    return "\r\n".join(lines).encode()


_REPLICATE_DTYPE = np.dtype(
    [
        ("rep", np.int64),
        ("theta_hat", np.float64),
        ("i_obs", np.float64),
        ("hit_we", np.bool_),
        ("hit_wo", np.bool_),
        ("hit_lrt", np.bool_),
        ("kl_we", np.float64),
        ("kl_wo", np.float64),
        ("kl_lrt", np.float64),
        ("width_we", np.float64),
        ("width_wo", np.float64),
        ("width_lrt", np.float64),
        ("lrt_at_true", np.float64),
        ("score_at_true", np.float64),
        ("median", np.float64),
        ("failed", np.bool_),
    ]
)

_METHOD_SUFFIX = {"wald_expected": "we", "wald_observed": "wo", "lrt": "lrt"}


def _interval_columns(table: np.ndarray, cfg: SimConfig, adjustments: Dict[str, float], lrt=None) -> None:
    """Write the Wald methods' hit, width and KL-length columns, theta_hat +/-
    adjustment * z / sqrt(info) with the expected information n/2 or the
    table's i_obs, and the LRT's if its ends ``lrt`` are given."""
    theta_hat, i_obs = table["theta_hat"], np.maximum(table["i_obs"], 1e-300)
    ends = {} if lrt is None else {"lrt": lrt}
    expected = CauchyLocation(cfg.n).fisher_info(cfg.theta_true)
    for method, info in (("wald_expected", expected), ("wald_observed", i_obs)):
        half = adjustments[method] * cfg.z / np.sqrt(info)
        ends[method] = (theta_hat - half, theta_hat + half)
    for method, (lo, hi) in ends.items():
        sfx = _METHOD_SUFFIX[method]
        table["hit_" + sfx] = (lo < cfg.theta_true) & (cfg.theta_true < hi)
        table["width_" + sfx] = hi - lo
        table["kl_" + sfx] = cauchy_kl_length(hi - lo)


def _coverage(hits, count):
    """The coverage error 1 - hits / count of ``count`` intervals of which ``hits``
    cover, and its binomial standard error; elementwise over arrays of groups."""
    e = 1.0 - hits / count
    return e, np.sqrt(np.maximum(e * (1.0 - e), 0.0) / count)


def _aggregate(table: np.ndarray) -> Dict[str, Dict[str, float]]:
    """The four SimSummary dicts over the rows not failed: coverage error,
    its binomial standard error, mean KL length and mean width."""
    ok = ~table["failed"]
    mean = {c: {m: float(table[c + "_" + sfx][ok].mean()) for m, sfx in _METHOD_SUFFIX.items()}
            for c in ("kl", "width")}
    err, se = _coverage(np.array([table["hit_" + sfx][ok].sum() for sfx in _METHOD_SUFFIX.values()]), ok.sum())
    return {"coverage_error": dict(zip(METHODS, err.tolist())), "coverage_se": dict(zip(METHODS, se.tolist())),
            "mean_kl_length": mean["kl"], "mean_width": mean["width"]}


_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key increments


def _mulhilo(m: int, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of the 128-bit product m * a, from the
    four 32 x 32 -> 64 partial products."""
    a0, a1 = a & _LO32, a >> _SHIFT32
    m0, m1 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    p01, p10 = a0 * m1, a1 * m0
    carry = (((a0 * m0) >> _SHIFT32) + (p01 & _LO32) + (p10 & _LO32)) >> _SHIFT32
    return a * np.uint64(m), a1 * m1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + carry


def _philox4x64(c0: np.ndarray, key0: int, key1: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The ten-round Philox4x64 block function of Random123 on counters
    (c0, 0, 0, 0) and keys (key0, key1): key0 shared, c0 a row and key1
    a column, which broadcast to one block per (key1, c0) pair."""
    c1 = c2 = c3 = np.zeros_like(c0)
    for i in range(10):
        k0 = np.uint64((key0 + i * _PHILOX_W[0]) % 2**64)
        if i:
            key1 = key1 + np.uint64(_PHILOX_W[1])  # wraps mod 2**64
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ key1, lo0
    return c0, c1, c2, c3


def _draw_batch(seed: int, start: int, count: int, n: int, theta: float) -> np.ndarray:
    """Sorted Cauchy samples for replicates start..start+count-1.

    Replicate r reads the Philox4x64-10 stream with key (seed, r), the
    stream of ``np.random.Generator(np.random.Philox(key=[seed, r]))``:
    the counter (j, 0, 0, 0) runs from j = 1 and each block gives four
    64-bit words in order.  Word w becomes the double (w >> 11) * 2**-53,
    as in ``Generator.random``, and the observation
    theta + tan(pi * (u - 0.5)).  The whole batch is one array pass and
    bit-identical to drawing each replicate from its own Generator.
    """
    blocks = -(-n // 4)
    ctr = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    reps = np.arange(start, start + count, dtype=np.uint64)[:, None]
    words = np.stack(_philox4x64(ctr, int(seed), reps), axis=-1)  # (count, blocks, 4)
    u = (words.reshape(count, 4 * blocks)[:, :n] >> np.uint64(11)) * (1.0 / 2**53)
    return cauchy_sorted_draws(u, theta)


def _run_batch(cfg: SimConfig, start: int, count: int):
    """One batch of replicates, with its seconds per STAGES entry and its
    MLE and failure counters."""
    marks = [time.perf_counter()]
    x = _draw_batch(cfg.seed, start, count, cfg.n, cfg.theta_true)
    marks.append(time.perf_counter())
    out = np.zeros(count, dtype=_REPLICATE_DTYPE)
    out["rep"] = np.arange(start, start + count)
    mle = MleCounters()
    theta_hat, target, outer, disconnected = cauchy_level_set_batch(x, cfg.z * cfg.z / 2.0, mle)
    out["theta_hat"] = theta_hat
    marks.append(time.perf_counter())
    t_hat = cauchy_offsets(x, theta_hat)
    i_obs = cauchy_obs_info(t_hat)
    out["i_obs"] = i_obs
    finite = np.isfinite(theta_hat)
    out["failed"] = ~finite | (i_obs <= 0.0)
    counters = {
        "brackets": mle.brackets,
        "cells_halved": mle.halved,
        "windows_skipped": mle.windows_skipped,
        "lattice_points": mle.lattice_points,
        "failed_cap": mle.capped,
        "failed_nonfinite": int((~finite).sum()) - mle.capped,
        "failed_info": int((finite & (i_obs <= 0.0)).sum()),
        "lrt_disconnected": int(disconnected.sum()),
    }
    marks.append(time.perf_counter())
    lrt = cauchy_level_set_ends(x, outer, target)
    marks.append(time.perf_counter())
    _interval_columns(out, cfg, RAW_ADJUSTMENTS, lrt)
    at_true = cauchy_offsets(x, np.full(count, cfg.theta_true))
    out["lrt_at_true"] = 2.0 * (cauchy_loglik(at_true) - cauchy_loglik(t_hat))
    out["score_at_true"] = cauchy_score(at_true)
    out["median"] = x[:, cfg.n // 2]
    marks.append(time.perf_counter())
    return out, dict(zip(STAGES, np.diff(marks).tolist())), counters


def threads_from_env() -> int:
    """Worker threads named by SLOPE_LAB_THREADS (unset or empty: 1).

    Raises DomainError unless the value is a positive integer.
    """
    raw = os.environ.get("SLOPE_LAB_THREADS", "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = raw  # not a number: check_int rejects the text itself
    return check_int("SLOPE_LAB_THREADS", workers, 1)


def run_coverage(cfg: SimConfig, workers: Optional[int] = None) -> SimSummary:
    """Run the seeded coverage experiment described by ``cfg``.

    Batches are fixed-size and keyed only by replicate index, so the
    output is byte-identical for any worker count (workers defaults to
    the SLOPE_LAB_THREADS environment variable, else 1).  The summary
    also carries the seconds spent in each of STAGES and the MLE and
    failure counters, summed over batches.
    """
    workers = threads_from_env() if workers is None else check_int("workers", workers, 1)
    starts = list(range(0, cfg.reps, BATCH))
    table = np.zeros(cfg.reps, dtype=_REPLICATE_DTYPE)

    def work(start: int):
        count = min(BATCH, cfg.reps - start)
        table[start : start + count], seconds, counters = _run_batch(cfg, start, count)
        return seconds, counters

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(work, starts))
    stage_seconds = {k: sum(r[0][k] for r in results) for k in STAGES}
    counters = {k: sum(r[1][k] for r in results) for k in results[0][1]}

    n_fail = int(table["failed"].sum())
    if n_fail > _FAILURE_ABORT_FRACTION * cfg.reps:
        raise SimulationError(f"{n_fail} replicate failures out of {cfg.reps}")
    return SimSummary(cfg, replicates=table, n_failures=n_fail, stage_seconds=stage_seconds,
                      counters=counters, **_aggregate(table))


def readjust(summary: SimSummary, adjustments: Dict[str, float]) -> SimSummary:
    """A copy of ``summary`` whose Wald intervals carry the width
    multipliers ``adjustments`` (method -> multiplier, 1 where absent).

    Only the Wald columns, fixed functions of the stored theta_hat and
    i_obs, and the summary dicts are recomputed; nothing is simulated.
    The LRT multiplier must be 1: another level would need new roots.
    """
    adj = {m: float(adjustments.get(m, 1.0)) for m in METHODS}
    valid = set(adjustments) <= set(METHODS) and all(0.0 < a < math.inf for a in adj.values())
    if not valid or adj["lrt"] != 1.0:
        raise DomainError(f"adjustments {dict(adjustments)}: each of {METHODS} needs a positive, "
                          "finite multiplier, and the lrt one must be 1")
    table = summary.replicates.copy()
    _interval_columns(table, summary.config, adj)
    return replace(summary, replicates=table, stage_seconds=dict(summary.stage_seconds),
                   counters=dict(summary.counters), adjustments=adj, **_aggregate(table))


@dataclass
class ObsInfoBins:
    """Per-bin coverage error after sorting replicates by observed info."""

    edges_lo: np.ndarray
    edges_hi: np.ndarray
    counts: np.ndarray
    coverage_error: Dict[str, np.ndarray]
    coverage_se: Dict[str, np.ndarray]


def bin_by_obs_info(summary: SimSummary, bins: int) -> ObsInfoBins:
    bins = check_int("bins", bins, 1)
    table = summary.replicates[~summary.replicates["failed"]]
    if bins > table.shape[0]:
        raise DomainError(f"bins={bins} exceeds the {table.shape[0]} usable replicates")
    order = np.argsort(table["i_obs"], kind="stable")
    table = table[order]
    splits = np.array_split(np.arange(table.shape[0]), bins)
    edges_lo = np.array([table["i_obs"][s[0]] for s in splits])
    edges_hi = np.array([table["i_obs"][s[-1]] for s in splits])
    counts = np.array([s.size for s in splits])
    err, se = {}, {}
    for method, sfx in _METHOD_SUFFIX.items():
        hits = np.array([table["hit_" + sfx][s].sum() for s in splits])
        err[method], se[method] = _coverage(hits, counts)
    return ObsInfoBins(edges_lo, edges_hi, counts, err, se)


def median_sd(n: int) -> float:
    """SD of the median of an odd n of unit Cauchy draws; a DomainError for an
    even n, where no one draw is the median, and for n < 5, where it diverges."""
    if check_int("n", n, 1) % 2 == 0:
        raise DomainError(f"the median of n={n} Cauchy draws is no one draw; an odd n is needed")
    try:
        return math.sqrt(median_variance((n - 1) // 2))
    except DivergentIntegralError as exc:
        raise DomainError(f"the median of n={n} Cauchy draws has no variance; n >= 5 is needed") from exc


def qq_data(summary: SimSummary, statistic: str) -> np.ndarray:
    """Sorted (normal quantile, empirical quantile) pairs for a statistic
    of the replicates not failed in ``summary``.

    Statistics: the signed root of the LRT estimate at the true value,
    the standardized score at the true value, or the standardized
    sample median (odd n only, by ``median_sd``).  ``summary.config``'s
    ``n`` and ``theta_true`` standardize the columns; nothing is simulated.
    """
    if statistic not in QQ_STATISTICS:
        raise DomainError(f"unknown statistic {statistic!r}")
    cfg = summary.config
    table = summary.replicates[~summary.replicates["failed"]]
    if statistic == "signed_root_lrt":
        vals = np.sign(table["theta_hat"] - cfg.theta_true) * np.sqrt(
            np.maximum(-table["lrt_at_true"], 0.0)
        )
    elif statistic == "standardized_score_at_true":
        vals = table["score_at_true"] / math.sqrt(CauchyLocation(cfg.n).fisher_info(cfg.theta_true))
    else:
        vals = (table["median"] - cfg.theta_true) / median_sd(cfg.n)
    vals = np.sort(vals)
    m = vals.size
    q = ndtri((np.arange(1, m + 1) - 0.5) / m)
    return np.column_stack([q, vals])


def mean_kl_lengths(summary: SimSummary) -> Dict[str, float]:
    """Mean KL lengths of ``summary`` readjusted to ``PAPER_ADJUSTMENTS``, at equal
    coverage (about 5.6% error at n = 15, not the nominal alpha); never simulates."""
    return dict(readjust(summary, PAPER_ADJUSTMENTS).mean_kl_length)
