"""The Cauchy location model l(theta) = -sum log(1 + (x_i - theta)^2):
its formulas, its draws and its certified MLE/level-set kernel.

Layout.  The formulas take the offsets t = x_i - theta from
``cauchy_offsets``, with the n observations on axis 0, and add their
terms over that axis in sample order, whatever the shape (``_sum_obs``):
so a row's bits are its own, the same alone, in a block or in any batch,
and the scalar calls are a batch of one bit for bit.  The certified
kernel transposes its batch once, into one C-ordered (n, B) array, and
every stage reads columns of it: an evaluation's offsets are the columns
it needs less theta, the same array ``cauchy_offsets`` gives.
Evaluations at many points go in chunks of at most a fixed number of
elements, n times the points.  The window-skip test holds one (n, b)
array per step, b the windows it tests.

The likelihood can be multimodal.  Its local maxima all lie in the unit
windows [x_i - 1, x_i + 1] around the observations, because l'' < 0
needs some |x_i - theta| < 1.  ``cauchy_level_set_batch`` first drops
the outermost windows whose likelihood bound, from the distances to the
other observations, lies below the LRT level, then scans the rest on a
0.2 lattice, bisects the sign changes of the score, and certifies cell
by cell, from l'' in [-2n, n/4] and |l'''| <= (3/2 + sqrt 2) n, that no
cell holds a better maximum, or a stationary point above the LRT level
not bisected: a finite MLE is the global maximizer
(ties to the smaller theta), a sample it cannot certify is reported as
failed, and the LRT level set is reported as its hull, flagged when it
is a union of intervals, whose ends ``cauchy_level_set_ends`` finds; both
bisect with ``_bisect``.  The scalar ``cauchy_mle`` and the Cauchy
``lrt_interval`` are that kernel on a batch of one.

The ends' steps decide l(theta) > t mostly without logs, by the product
P = prod (1 + t_i^2) against E = e^-t, yet exactly as the log sum decides
them.  The product decides only where P lies outside E (1 +- delta),
delta = (4n + 12 + (n + 4) |t|) 2^-52.  That band covers the product's
2n - 1 roundings, exp and log1p each within 4 ulps (the tests hold numpy
to that), the thresholds' two roundings and the log sum's n - 1
additions; so outside it the log sum, rounded as it is, lies on the
product's side of t.  The log sum decides inside the band, where P or E
overflows, in every step after one that found more than a sixteenth of
its columns in the band, and in batches of fewer than 32 rows.  So every
end is the log sum's bit for bit, and a row's ends are its own in any
batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CertificateError, DomainError


def cauchy_offsets(x, theta) -> np.ndarray:
    """x_i - theta, with the observations along axis 0, C-ordered.

    ``x`` is one sample of shape (n,), with ``theta`` of any shape, or
    samples in the rows of an (m, n) array, with ``theta`` of shape (m,)
    (one point per row) or (m, k) (k points per row).
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    xt = x.T[(Ellipsis,) + (None,) * (theta.ndim - x.ndim + 1)]
    return np.subtract(xt, theta, order="C")


def _sum_obs(u: np.ndarray) -> np.ndarray:
    """Sum over axis 0, adding the observations in sample order whatever
    the shape, as ``np.add.accumulate(u, axis=0)[-1]`` does.  numpy adds a
    C-ordered array of two or more columns in that order, from an initial
    -0.0 that leaves the first term exact, but a lone sample or column
    pairwise, so those are accumulated."""
    if u.shape[0] and (u.size == u.shape[0] or not u.flags.c_contiguous):
        return np.add.accumulate(u, 0)[-1]
    return np.add.reduce(u, 0, initial=-0.0)


def cauchy_loglik(t: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Log-likelihood -sum log(1 + t^2), without the constant -n log(pi);
    with ``overwrite``, worked in ``t``'s own array, sparing a temporary."""
    u = np.multiply(t, t, out=t if overwrite else None)
    return -_sum_obs(np.log1p(u, out=u))


def cauchy_score(t: np.ndarray) -> np.ndarray:
    """Score l'(theta) = sum 2 t / (1 + t^2), in one temporary beside ``t``;
    the exact factor 2 taken last, a term is 0, not NaN, for |t| > 2^1023."""
    u = t * t
    u += 1.0
    return 2.0 * _sum_obs(np.divide(t, u, out=u))


def cauchy_obs_info(t: np.ndarray) -> np.ndarray:
    """Observed information -l''(theta) = sum 2 (1 - t^2) / (1 + t^2)^2.

    Each term lies in [-1/4, 2], so -l'' lies in [-n/4, 2n].
    """
    u = t * t
    return _sum_obs(2.0 * (1.0 - u) / (u + 1.0) ** 2)


def cauchy_kl_length(width) -> np.ndarray:
    """KL length of a Cauchy interval as a function of its width.

    The divergence depends only on the parameter gap, so the optimal
    center is the midpoint and the radius is D at half the width.
    """
    half = np.asarray(width, dtype=float) / 2.0
    return np.log(half * half + 4.0) - math.log(4.0)


def cauchy_sorted_draws(u: np.ndarray, theta: float) -> np.ndarray:
    """Samples theta + tan(pi (u - 1/2)) from uniforms ``u``, each row
    (the last axis) sorted ascending."""
    return np.sort(theta + np.tan(math.pi * (u - 0.5)), axis=-1)


# Lattice step of the scan: 11 lattice points per unit window.  Any step
# is certified, since a cell no test closes is halved.  Of 0.1, 0.2, 0.25
# and 0.5, 0.2 is the coarsest that still certifies the flat maximum of
# x = (-1, 1); coarser steps save lattice points but hit the halving caps.
_CELL = 0.2
# Lattice points laid per window, 2 / _CELL + 4, from below x_i - 1 - _CELL
# to past x_i + 1 + _CELL, so rounding in floor() cannot leave a window
# edge bare.
_WINDOW_POINTS = 14
_BISECTIONS = 64  # halvings of a score bracket, stopped early at adjacent floats
_MAX_HALVINGS = 40
# Open cells a sample may have at once: rounding hides the score's sign on
# a flat stretch, which multiplies them (elsewhere at most 49, at n = 2).
_MAX_OPEN = 1 << 10
_TIE_RTOL = 1e-12
# A window is skipped when its likelihood bound lies this far (relative)
# below the level, far above the bound's rounding and the tie tolerance.
_SKIP_MARGIN = 1e-9
# Half-width of the widened window the bound covers, x_i +- (1 + 2 _CELL):
# every lattice point laid for window i lies inside it.
_REACH = 1.0 + 2.0 * _CELL
_SKIPPED = np.iinfo(np.int64).max  # start of a skipped window, sorted last
_FLOAT_MAX = np.finfo(float).max
_FLOAT_TINY = np.finfo(float).tiny  # the smallest normal float
# Columns (twice the rows) from which the hull's ends decide by products
# (``_EndTest``); a narrower batch's set-up costs more than its logs.
_PRODUCT_COLUMNS = 64
_END_DOUBLINGS = 1030  # a hull end's step 0.5 * 2^k reaches _FLOAT_MAX at k = 1025
# Halvings of a hull end's bracket of width d: d 2^-55 is at most half an ulp
# of d/2, so an end at least d/2 from 0 reaches adjacent floats.
_END_BISECTIONS = 55
# Elements (n times the points) of an evaluation's offsets at once: 1 MiB
# per float temporary, 8,738 points at n = 15.
_CHUNK_ELEMENTS = 1 << 17
# Beyond this the lattice index of an observation could overflow int64
# and the lattice would no longer cover its window.
_X_MAX = 1e15
# sup over t of |d/dt 2(t^2 - 1)/(t^2 + 1)^2|, reached at t = tan(pi/8),
# so |l'''(theta)| <= _L3 * n.
_L3 = 1.5 + math.sqrt(2.0)


@dataclass
class MleCounters:
    """Work and outcomes of ``cauchy_level_set_batch`` and
    ``cauchy_level_set_ends``, summed over calls."""

    brackets: int = 0  # score sign changes bisected, to maxima and to minima
    halved: int = 0  # cells split because no test closed them
    capped: int = 0  # samples with a cell open after _MAX_HALVINGS rounds, or too many open
    windows_skipped: int = 0  # outermost unit windows whose likelihood bound cannot reach the level set
    lattice_points: int = 0  # lattice points scored before any halving
    end_decisions: int = 0  # l(theta) > target decided for a hull end, one per column and step
    end_log_decisions: int = 0  # of those, the ones the log sum took, not the product


def cauchy_level_set_batch(x, drop: float, counters: Optional[MleCounters] = None):
    """Global MLE and likelihood level set of every row of ``x`` (m by n).

    Returns (theta_hat, target, outer, disconnected): t = l(theta_hat) -
    drop, the smallest and largest local maxima with l > t (theta_hat if
    none lies further out), and whether the level set, {theta : l > t}
    with theta_hat, is not one interval.  At drop 0 that set is theta_hat
    and any maximum whose l rounds above it: a tie, as at n = 2 with the
    observations more than 2 apart, is two points, flagged.

    Guarantee: a finite theta_hat is a global maximizer of
    l(theta) = -sum log(1 + (x_i - theta)^2), up to rounding in l and a
    tie tolerance of 1e-12 (1 + |l|), ties going to the smallest theta,
    whatever the drop; every local maximum with l > t is found.  A row
    that cannot be certified comes back NaN, never unchecked.  The argument:

    * Every local maximum lies in the union of the unit windows
      [x_i - 1, x_i + 1], because l'' = sum 2(t_i^2 - 1)/(t_i^2 + 1)^2,
      t_i = x_i - theta, is negative only if some |t_i| < 1; so each gap
      between windows, where l is convex, holds at most one minimum.
    * Window skip.  Let L = l(x_m) <= l(theta_hat), O(n) per sample, at
      m = floor(n/2), the middle of a sorted sample (any x_m would do).
      On window i widened to [x_i - 1.4, x_i + 1.4], which holds every
      lattice point laid for it, l < U_i = -sum_j log(1 + d_ij^2), d_ij
      the distance from x_j to the widened window.  Windows are tested
      from each end of the sample inward, and each side stops at its
      first window with U_i >= L - drop - 1e-9 (1 + |L - drop|); the
      windows it passed lay no lattice points: they hold no global
      maximum and no point with l >= t.  Every window between is laid,
      among them window m, as U_m >= l(x_m); laying a window the test
      would skip is always sound, as its cells are certified like any
      other, so the outside-in order gives up only lattice points.  The
      margin covers the rounding: U_i and L are sums of n terms, each off
      by a few ulps, and near the test U_i and L - drop are about as
      large, so their errors stay below 8 n 2^-52 (1 + |L - drop|), far
      below the margin for any n < 5e5.  That holds whatever order a sum
      adds its terms in, as the terms log(1 + d^2) share one sign: any
      order rounds a sum S of n of them by at most (n - 1) 2^-53 S
      (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
      section 4.2).  At drop 0 it also exceeds the tie tolerance, so no
      maximum that could tie theta_hat is dropped.
    * The windows not skipped are covered by the cells of a lattice of
      step h = 0.2 (11 points per window, shared where windows overlap);
      a cell that skips lattice points spans a gap, which may hold
      skipped windows.  Every cell whose end scores go from + to - is
      bisected, all at once, by 64 halvings or until all are at adjacent
      floats, to a maximum; then so is every cell with scores from - to +,
      to a minimum, unless l at an end is not above the floor defined next.
    * A gap cell is then closed.  It meets no window laid on the lattice,
      which would put a lattice point in it every 0.2, so off skipped
      windows l is convex there: no maximum, and at most one minimum,
      bisected as above if it may lie above the floor.  A gap cell that
      spans a skipped window, where l < t, holds no stationary point above
      t: such a point would be a minimum m, and walking from m toward the
      skipped window l first rises, then falls below t, which needs a
      maximum above t in the cell.  Every other cell is closed by one of
      three tests, which use l'' in [-2n, n/4] and |l'''| <= (3/2 + sqrt 2) n:
      score slope -- a score below -nh/4 at the left end or above nh/4
      at the right end, or end scores of one sign beyond (3/2 + sqrt 2)
      n h^2/8, keep the score one sign, so no stationary point;
      upper bound -- l <= l(a) + max(0, s(a) h + n h^2/8) over [a, b]
      (or the mirror bound from b) lies below the floor, the best maximum
      so far less the drop, and so below t;
      curvature -- the cell lies within |l''(r)| / ((3/2 + sqrt 2) n) of
      a bisected root r, so r is its only stationary point.
      The slope and gap tests read only h and the end scores, so a cell
      of the lattice they close, its ends no bracket, is never built and
      carries no l: it would be closed before any halving, whatever the
      floor.
    * A cell no test closes is halved, bisected if its ends change sign,
      and tested again, at most 40 times; a row with a cell still open, or
      with more than 1024 open at once, is NaN and counted in
      ``counters.capped``.  A row with an observation not finite or beyond
      +-1e15 is NaN as well; a constant row returns its value.
    * So every stationary point with l > t is bisected.  Neighbouring
      maxima above t are joined by the set iff a minimum between them has
      l > t, and it is then their only stationary point between.
    """
    if not 0.0 <= drop < math.inf:
        raise DomainError(f"drop must be finite and >= 0, got {drop}")
    x = np.asarray(x, dtype=float)
    B, n = x.shape
    outside = ~(np.abs(x) <= _X_MAX).all(axis=1)
    if outside.any():
        x = np.where(outside[:, None], 0.0, x)
    xt = np.ascontiguousarray(x.T)
    skipped = _unreachable_windows(xt, drop).T
    row, j = _lattice(x, skipped)
    theta = j * _CELL
    (s,) = _at_points(xt, row, theta, cauchy_score)
    if counters is None:
        counters = MleCounters()
    counters.windows_skipped += int(skipped.sum())
    counters.lattice_points += row.size
    # consecutive lattice points of a sample join in a cell; one that skips
    # lattice points spans a gap between the windows laid.  A cell that
    # brackets no root and that the score closes, whatever the floor, is
    # never built, and l is taken only at the ends of the cells built.
    k = np.nonzero(row[1:] == row[:-1])[0]
    k = k[_can_stay_open(theta[k + 1] - theta[k], s[k], s[k + 1], n)]
    ends = np.zeros(row.size, dtype=bool)
    ends[k] = ends[k + 1] = True
    l = np.empty_like(theta)
    (l[ends],) = _at_points(xt, row[ends], theta[ends], _loglik)
    cells = {
        "row": row[k], "a": theta[k], "b": theta[k + 1], "la": l[k], "lb": l[k + 1],
        "sa": s[k], "sb": s[k + 1], "root": np.full(k.size, np.nan),
    }
    del row, j, theta, l, s, k, ends
    found = []  # (row, root, l(root), sign, radius) of each bisection round
    best = np.full(B, -np.inf)  # largest l over the maxima found
    capped = np.zeros(B, dtype=bool)
    for depth in range(_MAX_HALVINGS + 1):
        # maxima first; a minimum matters only if it may lie above the floor
        for sign in (1.0, -1.0):
            new = (sign * cells["sa"] > 0.0) & (sign * cells["sb"] <= 0.0) & np.isnan(cells["root"])
            if sign < 0.0:
                new &= np.minimum(cells["la"], cells["lb"]) > best[cells["row"]] - drop
            k = np.nonzero(new)[0]
            rows = cells["row"][k]
            xr = xt.take(rows, axis=1)
            work = np.empty_like(xr)
            side = np.greater if sign > 0.0 else np.less  # sign * s > 0 at a, not at b
            r = _bisect(lambda mid: side(cauchy_score(np.subtract(xr, mid, out=work)), 0.0),
                        cells["a"][k], cells["b"][k], _BISECTIONS)
            t = np.subtract(xr, r, out=xr)
            # within this radius of a root l'' keeps its sign
            radius = np.maximum(sign * cauchy_obs_info(t), 0.0) / (_L3 * n)
            lr = cauchy_loglik(t, overwrite=True)
            found.append((rows, r, lr, np.full(k.size, sign), radius))
            cells["root"][k] = r
            if sign > 0.0:
                np.maximum.at(best, rows, lr)
        still = ~_closed(cells, n, best - drop, found)
        count = np.bincount(cells["row"][still], minlength=B)
        capped |= (count > _MAX_OPEN) | ((count > 0) & (depth == _MAX_HALVINGS))
        still &= ~capped[cells["row"]]
        if not still.any():
            break
        counters.halved += int(still.sum())
        cells = _halve(xt, {key: v[still] for key, v in cells.items()})
    counters.capped += int(capped.sum())
    rows, r, lr, sign, _ = (np.concatenate(v) for v in zip(*found))
    counters.brackets += rows.size
    maxima = sign > 0.0
    tied = maxima & (lr >= best[rows] - _TIE_RTOL * (1.0 + np.abs(best[rows])))
    theta_hat = np.full(B, np.inf)
    np.minimum.at(theta_hat, rows[tied], r[tied])
    theta_hat[capped | outside | ~np.isfinite(theta_hat)] = np.nan
    # a constant sample's mode is its value; bisection could end an ulp off
    constant = (x == x[:, :1]).all(axis=1) & ~outside
    theta_hat[constant] = x[constant, 0]
    target = cauchy_loglik(xt - theta_hat, overwrite=True) - drop
    above = lr > target[rows]
    # theta_hat is in the set even where drop 0 leaves its l at t
    peaks = maxima & (above | (r == theta_hat[rows]))
    outer = np.array([theta_hat, theta_hat])
    np.minimum.at(outer[0], rows[peaks], r[peaks])
    np.maximum.at(outer[1], rows[peaks], r[peaks])
    bridges = ~maxima & above & (outer[0][rows] < r) & (r < outer[1][rows])
    disconnected = np.bincount(rows[bridges], minlength=B) < np.bincount(rows[peaks], minlength=B) - 1
    return theta_hat, target, outer, disconnected


def cauchy_level_set_ends(x, outer: np.ndarray, target: np.ndarray, counters: Optional[MleCounters] = None):
    """Ends (lo, hi) of the hull of {theta : l(theta) > target} per row:
    past its outermost maxima ``outer``, l > target on one interval, so
    a step of 0.5, doubled while inside, brackets each for ``_bisect``: 55
    halvings, or until all are at adjacent floats.  An end whose set
    reaches past the largest float is -inf or +inf; no end is a point
    inside the set.  Both ends go through one loop, on ``x`` stacked twice:
    lo from outer[0] downward in the first half, hi from outer[1] upward in
    the second.  Each row's steps are those of its own end alone.

    Every step decides l(theta) > target per column by ``_EndTest``, as
    the log sum l = -sum log(1 + t_i^2) of ``_loglik_rows`` decides it, bit
    for bit, though mostly from the product P = prod (1 + t_i^2) against
    E = exp(-target), which needs no log.  With delta = (4n + 12 +
    (n + 4) |target|) 2^-52 per column, the product decides inside where
    P < E (1 - delta) and outside where P > E (1 + delta).  In units of
    2^-52, one ulp at 1, the band covers, with room to spare:

    * the product's 2n - 1 roundings, of each 1 + t_i^2 and of n - 1
      products, in any order: n - 1/2 (Higham, 2002, Lemma 3.1);
    * exp within 4 ulps: 4, and the roundings of the two thresholds: 1;
    * the log sum: each log1p within 4 ulps and n - 1 additions in any
      order, off by at most ((n - 1)/2 + 4) |l| in all (Higham, 2002,
      section 4.2, as all its terms share one sign), with
      |l| <= |target| + |l - target|.

    The t_i and t_i^2 are the same floats in both, so a product outside
    the band puts l - target, and with it the log sum's rounded value, on
    the product's side of 0.  The log sum decides where the product falls
    inside the band; where P or E overflows (E must be a finite normal
    float, and delta below 2^-20); and for every column of each step after
    one that found more than a sixteenth of its columns in the band.  That
    share doubles with each halving near the end of a bisection, and a
    column's log sum taken alone costs about twice its share of a whole
    pass.  A batch of fewer than 64 columns (32 rows) takes the log sum
    alone, as the set-up would cost more than the logs it spares.  So
    every decision, and every end, is the log sum's, whatever the batch;
    the tests hold numpy's exp and log1p to the 4 ulps assumed.
    ``counters``, if given, adds the decisions taken and those the log
    sum took."""
    m = x.shape[0]
    xt = np.ascontiguousarray(np.concatenate([x, x]).T)
    start = np.concatenate(outer)
    target = np.concatenate([target, target])
    narrow = xt.shape[1] < _PRODUCT_COLUMNS
    if narrow:  # the log sum alone, with no set-up
        work = np.empty_like(xt)
        steps = 0

        def inside_at(mid):
            nonlocal steps
            steps += 1
            return _loglik_rows(xt, mid, work) > target
    else:
        inside_at = _EndTest(xt, target)
    sgn = np.repeat([-1.0, 1.0], m)
    d = np.full(2 * m, 0.5)
    far = start + sgn * d
    # past |theta| near 1e154 t^2 overflows, which ``_loglik_rows`` mends
    with np.errstate(over="raise"):
        for _ in range(_END_DOUBLINGS):
            inside = inside_at(far)
            if not inside.any():
                break
            d = np.where(inside, np.minimum(d, 0.5 * _FLOAT_MAX) * 2.0, d)
            far = start + sgn * d
        ends = _bisect(inside_at, start, far, _END_BISECTIONS)
    ends[inside] = sgn[inside] * np.inf  # rows still inside at +-_FLOAT_MAX
    if counters is not None:
        taken = (steps * xt.shape[1],) * 2 if narrow else (inside_at.decisions, inside_at.log_decisions)
        counters.end_decisions += taken[0]
        counters.end_log_decisions += taken[1]
    return ends[:m], ends[m:]


class _EndTest:
    """l(theta[k]) > target[k] for each column k of ``xt``, called under
    errstate(over="raise"): decided by the product where it certifies the
    log sum's decision, else by the log sum, as ``cauchy_level_set_ends``
    states.  ``decisions`` and ``log_decisions`` count the column
    decisions taken, and those the log sum took.  The product is not a
    sum: ``np.prod`` may multiply in any order, which cannot reach a
    decision, as the band covers its rounding in every order."""

    def __init__(self, xt: np.ndarray, target: np.ndarray):
        self.xt, self.target = xt, target
        self.work = np.empty_like(xt)
        self.decisions = self.log_decisions = 0
        n = xt.shape[0]
        with np.errstate(over="ignore"):
            e = np.exp(-target)
            delta = (4 * n + 12 + (n + 4) * np.abs(target)) * 2.0**-52
            certain = (e >= _FLOAT_TINY) & (e <= _FLOAT_MAX) & (delta < 2.0**-20)
            # the band's ends; None once the log sum decides every column
            self.lo = np.where(certain, e * (1.0 - delta), 0.0)
            self.hi = np.where(certain, e * (1.0 + delta), np.inf)

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        self.decisions += theta.size
        if self.lo is not None:
            with np.errstate(over="ignore"):
                u = np.subtract(self.xt, theta, out=self.work)
                np.multiply(u, u, out=u)
                u += 1.0
                p = np.prod(u, axis=0)
            inside = p < self.lo
            # the band, a NaN and an overflowed product go to the log sum
            k = np.flatnonzero(~(inside | ((p > self.hi) & (p <= _FLOAT_MAX))))
            if k.size:
                self.log_decisions += k.size
                xk = self.xt.take(k, axis=1)
                inside[k] = _loglik_rows(xk, theta[k], np.empty_like(xk)) > self.target[k]
            if 16 * k.size > theta.size:
                self.lo = self.hi = None  # the bisection is closing in: logs from here on
            return inside
        self.log_decisions += theta.size
        return _loglik_rows(self.xt, theta, self.work) > self.target


def _loglik_rows(xt: np.ndarray, theta: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``cauchy_loglik`` of column k of ``xt`` at ``theta[k]``, worked in
    ``work``, an array of ``xt``'s shape, under errstate(over="raise").
    Past |theta| near 1e154, (x_i - theta)^2 overflows: each log(1 + t^2)
    of an overflowed column is then logaddexp(0, 2 log|t|)."""
    try:
        return cauchy_loglik(np.subtract(xt, theta, out=work), overwrite=True)
    except FloatingPointError:
        # t^2 overflowed to inf, and a 0 offset beside a huge one takes log 0
        with np.errstate(over="ignore", divide="ignore"):
            l = cauchy_loglik(np.subtract(xt, theta, out=work), overwrite=True)
            over = l == -np.inf
            t = xt[:, over] - theta[over]
            l[over] = -_sum_obs(np.logaddexp(0.0, 2.0 * np.log(np.abs(t))))
        return l


def _unreachable_windows(xt: np.ndarray, drop: float) -> np.ndarray:
    """(n, B) mask of the unit windows, of the sorted samples in the
    columns of ``xt``, skipped as holding no global maximum and no point
    of the level set: on window i widened to x_i +- _REACH, l < U_i =
    -sum_j log(1 + d_ij^2), d_ij the distance from x_j to it, and U_i lies
    below L - drop, L = l(x_m) <= l(theta_hat) at the middle observation
    m = n // 2, by more than the margin 1e-9 (1 + |L - drop|).  Windows are
    tested from each end inward, and each side stops at its first window
    kept; window m, where U_m >= l(x_m), always is.  Each step holds an
    (n, b) array of the b windows it tests, one per side of a sample still
    testing; a window tested from the right sums its terms in reverse
    order, which the margin covers as it covers any order."""
    n, B = xt.shape
    level = cauchy_loglik(xt - xt[n // 2], overwrite=True) - drop
    level = np.tile(level - _SKIP_MARGIN * (1.0 + np.abs(level)), 2)
    # the samples, then the samples reversed: step i tests row i of each
    both = np.concatenate([xt, xt[::-1]], axis=1)
    skipped = np.zeros(both.shape, dtype=bool)
    testing = np.arange(2 * B)  # columns of ``both`` whose windows so far were all skipped
    for i in range(n // 2 + 1):
        if not testing.size:
            break
        d = both.take(testing, axis=1)
        d -= both[i, testing]
        np.abs(d, out=d)
        d -= _REACH
        np.maximum(d, 0.0, out=d)
        testing = testing[cauchy_loglik(d, overwrite=True) < level[testing]]
        skipped[i, testing] = True
        del d  # before the next step takes its columns
    skipped[::-1, B:] |= skipped[:, :B]
    return skipped[::-1, B:]


def _lattice(x: np.ndarray, skipped: np.ndarray):
    """Row and lattice index, row by row and ascending, of every lattice
    point laid for the rows of ``x``: _WINDOW_POINTS indices from below
    each window not ``skipped``, each index once.  The window starts are
    sorted, skipped ones last; as every window lays as many indices, the
    ends come sorted too, so a window lays only its indices past the end
    of the window before it."""
    first = np.subtract(x, 1.0)
    first /= _CELL
    first = np.floor(first, out=first).astype(np.int64)
    first -= 1
    first[skipped] = _SKIPPED
    first.sort(axis=1)
    end = first.copy()
    np.add(end, _WINDOW_POINTS, out=end, where=first != _SKIPPED)  # a skipped window ends where it starts
    # first becomes each window's start, then its count of lattice points
    np.maximum(first[:, 1:], end[:, :-1], out=first[:, 1:])
    count = np.subtract(end, first, out=first)
    row = np.repeat(np.arange(x.shape[0]), count.sum(axis=1))
    laid = np.flatnonzero(count)
    count = count.ravel()[laid]
    offset = end.ravel()[laid]
    del end
    offset -= np.cumsum(count)  # a window's start less the points laid before it
    j = np.repeat(offset, count)
    del offset, count
    j += np.arange(j.size)
    return row, j


def _chunks(size: int, n: int) -> list:
    """Slices of range(size), a chunk of points for (n, points) arrays of
    at most _CHUNK_ELEMENTS, and at least one point."""
    step = max(1, _CHUNK_ELEMENTS // n)
    return [slice(a, min(a + step, size)) for a in range(0, size, step)]


def _loglik(t: np.ndarray) -> np.ndarray:
    return cauchy_loglik(t, overwrite=True)


def _at_points(xt: np.ndarray, row: np.ndarray, theta: np.ndarray, *fns) -> list:
    """Each of ``fns`` at the offsets of sample ``xt[:, row[k]]`` from
    ``theta[k]``, chunk by chunk (``_chunks``); the last may work in the
    array of offsets."""
    out = [np.empty_like(theta) for _ in fns]
    for part in _chunks(theta.size, xt.shape[0]):
        t = xt.take(row[part], axis=1)
        t -= theta[part]
        for o, f in zip(out, fns):
            o[part] = f(t)
    return out


def _bisect(inside, a: np.ndarray, b: np.ndarray, steps: int) -> np.ndarray:
    """Midpoints of brackets, ``inside`` true at ``a`` and false at ``b`` (in
    either order), after ``steps`` halvings.  Kept halved, a midpoint is one
    sum, which cannot overflow; halving a normal float is exact, so it is
    0.5 (a + b) bit for bit.  At adjacent floats the midpoint is an end, which
    no step moves, so every fourth step stops once every midpoint is one."""
    a, b = 0.5 * a, 0.5 * b
    for i in range(steps):
        mid = a + b
        half = 0.5 * mid
        if i % 4 == 0 and not np.count_nonzero((half != a) & (half != b)):
            break
        keep = inside(mid)
        a = np.where(keep, half, a)
        b = np.where(keep, b, half)
    return a + b


def _closed_by_score(h: np.ndarray, sa: np.ndarray, sb: np.ndarray, n: int) -> np.ndarray:
    """Cells of width ``h`` and end scores ``sa``, ``sb`` that the score
    slope test or the gap test closes: no stationary point, or only the
    minimum of a gap, whatever the floor."""
    slope = (sa < -0.25 * n * h) | (sb > 0.25 * n * h)
    # |s''| = |l'''| <= _L3 n keeps s within _L3 n h^2 / 8 of its chord
    chord = 0.125 * _L3 * n * h * h
    slope |= (np.minimum(sa, sb) > chord) | (np.maximum(sa, sb) < -chord)
    # l is convex in a gap between windows, which holds only a minimum
    return slope | (h > 1.5 * _CELL)


def _can_stay_open(h: np.ndarray, sa: np.ndarray, sb: np.ndarray, n: int) -> np.ndarray:
    """Cells of a fresh lattice that ``_closed`` may leave open at depth 0,
    or that hold a bracket of either sign; every other cell it closes
    there whatever the floor."""
    bracket = ((sa > 0.0) & (sb <= 0.0)) | ((sa < 0.0) & (sb >= 0.0))
    return bracket | ~_closed_by_score(h, sa, sb, n)


def _closed(c: dict, n: int, floor: np.ndarray, found: list) -> np.ndarray:
    """Cells shown to hold no point with l above ``floor`` and no
    stationary point but one already bisected."""
    h = c["b"] - c["a"]
    q = 0.125 * n * h * h
    bound = np.minimum(
        c["la"] + np.maximum(0.0, c["sa"] * h + q), c["lb"] + np.maximum(0.0, q - c["sb"] * h)
    ) < floor[c["row"]]
    closed = _closed_by_score(h, c["sa"], c["sb"], n) | bound
    # the rest: within the radius of a root of the same sample?
    k = np.nonzero(~closed)[0]
    rows, r, _, _, radius = (np.concatenate(v) for v in zip(*found))
    order = np.argsort(rows, kind="stable")
    rows, r, radius = rows[order], r[order], radius[order]
    row, a, b = c["row"][k], c["a"][k], c["b"][k]
    start = np.searchsorted(rows, row)
    count = np.searchsorted(rows, row, side="right") - start
    for i in range(int(count.max(initial=0))):
        p = np.minimum(start + i, rows.size - 1)
        closed[k] |= (i < count) & (a > r[p] - radius[p]) & (b < r[p] + radius[p])
    return closed


def _halve(xt: np.ndarray, c: dict) -> dict:
    """Split each cell at its midpoint; a root found in a cell stays with
    the halves that contain it."""
    m = 0.5 * (c["a"] + c["b"])
    sm, lm = _at_points(xt, c["row"], m, cauchy_score, _loglik)
    left = c["root"] <= m
    right = c["root"] >= m
    return {
        "row": np.concatenate([c["row"], c["row"]]),
        "a": np.concatenate([c["a"], m]),
        "b": np.concatenate([m, c["b"]]),
        "la": np.concatenate([c["la"], lm]),
        "lb": np.concatenate([lm, c["lb"]]),
        "sa": np.concatenate([c["sa"], sm]),
        "sb": np.concatenate([sm, c["sb"]]),
        "root": np.concatenate([np.where(left, c["root"], np.nan), np.where(right, c["root"], np.nan)]),
    }


def certified_level_set(x: np.ndarray, drop: float):
    """``cauchy_level_set_batch`` of a batch of one (1, n), raising where its row is NaN."""
    level_set = cauchy_level_set_batch(x, drop)
    if np.isnan(level_set[0][0]):
        raise CertificateError("no certified level set: halving or open-cell cap reached, or |x_i| > 1e15")
    return level_set


def cauchy_mle(y) -> float:
    """Global maximizer of the Cauchy location log-likelihood.

    This is ``cauchy_level_set_batch`` on a batch of one, with its
    guarantee: a global maximizer up to rounding and a
    1e-12 relative tie tolerance, ties going to the smaller theta.  Raises
    CertificateError when the certificate cannot close within its halving
    cap, or an observation lies beyond +-1e15, rather than return an
    unchecked value.
    """
    x = np.sort(np.asarray(y, dtype=float).ravel())
    if x.size == 0:
        raise DomainError("empty sample")
    if not np.all(np.isfinite(x)):
        raise DomainError("non-finite observation")
    return float(certified_level_set(x[None, :], 0.0)[0][0])
