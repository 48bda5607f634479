"""The log-mass process S_n, iterated-logarithm ratios, and ensemble engines.

Along a sampled path x the level-n cylinder mass m(I_n(x)) decays roughly like
(scale)^(-n d); the object of interest is the centered process S_n - n d where
S_n = -log m(I_n(x)), and its second-order fluctuations under the normalizer
sqrt(2 t LL(t)). Everything here is unit-disciplined through a convention
object that fixes, at once, the base of S, the time variable t, the iterated
logarithm LL, and the matching variance constants. The conventions are the
unit systems of models.LogBase, and models.ln_base decides which of them a
model admits and the ln b each carries:

  'base-2'   S in bits, t = n symbols, LL = log2 log2.  Binary grids only.
  'base-ell' S in base-ell units, t = n, LL = log_ell log_ell.  Grid models.
  'natural'  S in nats, t = ln(1/diam), LL = ln ln.  Any model: t = n ln(ell)
             on grids, and the path's running sum of -ln r_i on self-similar
             measures, the only convention there.

The convention owns t: on grids it adds t_per_level = ln(ell) / ln(base) per
level, and every walk returns S and t in the convention's units, so the
consumers never re-derive t from the level.

With an all-one-base normalizer the limiting constant of the ratio
(S_n - d t)/sqrt(2 t LL t) is sqrt(sigma2) with sigma2 the natural curvature
tau''(1) in every convention: the base of LL absorbs the unit of S. The CLT
normalization (S - d t)/sqrt(sigma2_clt t) instead uses the per-unit-t
variance of S, which does depend on the convention. Both constants ride on
the convention object so they cannot be mixed up.

One rule computes the iterated logarithm: _iterated_log, log_b log_b t taken
elementwise with np.log. Every consumer reads it through the convention
(loglog, and ratio_den = sqrt(2 t LL t)): the checkpoint ratios, the
running window extremes of the per-level walks, and, with its own pair of
bases, the Theta correction of the gauges.

Ensemble paths each draw from their own stream path_rng(seed, i).
_draw_uniforms fills a level-major block with every path's uniforms, from
the point where the block starts in each stream. Where a path draws at most
_SHORT_STREAM doubles into the block, models.path_uniforms computes every
path's doubles at once by Philox in numpy, with no per-path cost; longer
streams, and the window and multinomial walks, build one generator and
re-key it (rekey_path_rng) to every other path's stream. A
product checkpoint walk jumps from checkpoint to checkpoint. With two active
symbols it draws a count per gap piece of at most 2^20 levels by inversion,
one uniform each: draw_symbols' rule on the piece's Binomial table, built
once per run, for every path of a block and every piece of one length at
once. Its pieces grow with depth, and its tables with the distinct piece
lengths, so both are capped (_COUNT_CAP). With more symbols it draws every
gap's counts in one multinomial call per path. It forms S and t from the
counts for a block of paths at once. The two per-level walks only draw and
sum. A product window walk draws one symbol per level and goes one block
of _WINDOW_BLOCK levels at a time over a group of paths, every path reusing
one set of block buffers. Every walk draws its symbols, states and counts
through models.draw_symbols, which counts a row of up to
models._COMPARE_ROW = 64 entries by one compare per entry and binary
searches a longer one; the models module gives the timings that set 64.
Markov paths go in blocks, every path of a block drawing its own uniforms;
a block holds at most _CHAIN_BLOCK_DRAWS uniforms, drawn in chunks of
levels when the paths are long. One state scan (models.chain_states)
walks every path of a chunk in about 2 sqrt(levels) numpy steps,
composing the per-level state maps, and a cumsum down the levels adds the
increments in level order. Both hand each block of walked levels to one
shared pass, _level_walk, which picks the checkpoints and keeps the
running window extremes by one rule, record bounds. It cuts each block's
window levels into sub-blocks of _SUB_BLOCK levels, also cut at
checkpoints, and bounds every sub-block's ratios from the max and min of
s - d t and ratio_den at its two ends. It forms the exact ratios only on
the sub-blocks whose bounds reach a path's running sup or inf, a few per
cent of them on a deep window, so the bytes are those of dividing every
level. Where t is the same on every path it walks the block's t once for
all its paths, and forms a sub-block's ratio denominators at most once:
grid t, and self-similar t when every ratio is equal, walked by the
cumsum and carry that each path's own t would take; unequal ratios keep
one t per path. On 2 vCPUs two cantor_biased window paths to level 2^20
took 35-44 ms with t shared against 47.5-52 ms with a t per path, and
window_long's op_s 0.121 against 0.136 s; the record bounds then took two
bernoulli_quarter paths from 38.1 to 32.2 ms. Only the per-level
product walk (window mode on product models) splits its paths across
threads, at most one per CPU and per path, and at least _THREAD_WORK
path-levels (paths times the deepest checkpoint) per thread, each thread
walking one contiguous range; the other walks run in one thread, where
threads did not pay. Either way the results are identical for every thread
count. One entry point, _walk_ensemble, checks the budgets and walks the
paths of run_ensemble and gauge_test. run_ensemble reduces the
walked (paths, checkpoints) matrices in whole-matrix passes: column_fsums
gives math.fsum of every column at once by error-free extraction, the
package's one exact-sum rule, which qb's sampled-word sweep also reads.

Exact small-n machinery (exact_distribution, running_max_tail) is the oracle
layer for the Monte Carlo engines. Both read one rational walk, _class_walk,
over classes keyed by (state, counts of each mass factor), with an optional
absorbing barrier for the running-max tail.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetError, ValidationError
from .models import (
    LogBase,
    MeasureModel,
    _env_budget,
    _log_weights,
    canonical_base,
    chain_states,
    draw_symbols,
    enumeration_budget,
    ln_base,
    log_symbol_weights,
    path_rng,
    path_uniforms,
    rekey_path_rng,
)
from .spectrum import dimension, sigma2_scale_free

# names how seeded outputs draw from the (seed, path) Philox streams, for
# manifest.json: v2 draws two-symbol checkpoint counts by inverse CDF, one
# uniform per gap piece, where v1 called numpy's binomial once per path
RNG_STREAM = "philox4x64-path-v2"
_DEFAULT_PATH_BUDGET = 2 ** 33
_MARKOV_STEP_BUDGET = 2 ** 26
_WALK_BITS = 63  # the walks hold levels and path indexes in 64-bit integers
_EXTRACT_PASSES = 8  # column_fsums' passes before a column falls back to fsum


def path_budget() -> int:
    """Ensemble path budget on N * n_max; override with MFLIL_PATH_BUDGET."""
    return _env_budget("MFLIL_PATH_BUDGET", _DEFAULT_PATH_BUDGET)


# ---------------------------------------------------------------------------
# conventions


def _iterated_log(t, lb: float, out=None):
    """log_b log_b t for ln b = lb, elementwise; nan where it is not positive.

    The package's one iterated-log rule. np.log rounds a scalar exactly as it
    rounds the same value inside an array, so scalar and vectorised callers
    agree bit for bit. It works in place, in out if given (the window walk's
    block buffers) or else in one new array.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t) if out is None else out
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(t, out=out)
        out /= lb
        np.log(out, out=out)
    out /= lb
    out[~(out > 0)] = np.nan
    return out


@dataclass(frozen=True)
class LilConvention:
    """One consistent unit system for (S, t, LL, sigma).

    base is the LogBase and ln_base its models.ln_base value for the model:
    S and both iterated logs are in base b. name is base's value.
    """

    base: LogBase
    ln_base: float
    t_min: float
    d: float  # drift of S per unit t (the scale-free dimension)
    sigma2: float  # variance constant of the normalized ratio, = tau''(1) natural
    sigma2_clt: float  # variance of S per unit t, in S units squared
    t_per_level: Optional[float]  # ln(ell)/ln(base) on grids; None: t = -sum ln r_i

    @property
    def name(self) -> str:
        return self.base.value

    @property
    def sigma(self) -> float:
        return math.sqrt(max(self.sigma2, 0.0))

    def loglog(self, t):
        """LL(t) in the convention's base, for a scalar or an array; nan where LL <= 0."""
        out = _iterated_log(t, self.ln_base)
        return float(out) if out.ndim == 0 else out

    def ratio_den(self, t, out=None):
        """sqrt(2 t LL t), for a scalar or an array (into out if given); nan
        below t_min or where LL <= 0."""
        t = np.asarray(t, dtype=float)
        den = _iterated_log(t, self.ln_base, out)
        den *= t  # (LL t) 2 rounds as LL (2 t): doubling is exact
        den *= 2.0
        np.sqrt(den, out=den)
        den[t < self.t_min] = np.nan
        return float(den) if den.ndim == 0 else den

    def check_time(self, t: float) -> None:
        if t < self.t_min:
            raise ValidationError(
                f"t={t!r} below t_min={self.t_min} for convention {self.name}"
            )
        if math.isnan(self.loglog(t)):
            raise ValidationError(
                f"iterated log non-positive at t={t!r} (convention {self.name})"
            )


def lil_convention(model: MeasureModel, name: str = "auto") -> LilConvention:
    """Build the unit system for a model; 'auto' picks base-ell for grids."""
    base = canonical_base(model) if name == "auto" else LogBase.parse(name)
    # refuses grid units on self-similar measures and base-2 off binary grids
    lb = ln_base(model, base)
    ell = model.core.ell
    s2_nat = sigma2_scale_free(model)
    return LilConvention(
        base, lb, 3.0 if base is LogBase.NATURAL else 16.0, dimension(model), s2_nat,
        s2_nat / lb, None if ell is None else math.log(ell) / lb,
    )


# ---------------------------------------------------------------------------
# per-symbol increments and path processes


def per_symbol_moments(model: MeasureModel, base: Optional[LogBase] = None) -> tuple[float, float]:
    """(mean, variance) of the one-symbol increment X = -log_b(weight).

    Defined for the independent-increment families; the Markov chain's
    increments are correlated and have no single per-symbol variance, and
    their support's log weights are refused.
    """
    lw = _log_weights(model, base or canonical_base(model), model.core.support)
    w = model.core.support.weights
    mean = float(w @ (-lw))
    var = float(w @ (lw + mean) ** 2)
    return mean, var


_COUNT_BLOCK = 1 << 16  # symbol counts a block of product checkpoint paths holds
_PIECE = 1 << 20  # the most levels one count draw covers: no table holds much over 41k counts
# a path's pieces grow with depth, one per _PIECE levels, and the count
# tables with the distinct piece lengths; together they stay below this cap
_COUNT_CAP = 1 << 22


def _count_tables(gaps, p0, p1):
    """(pieces, starts, draws): the count draws of a two-symbol checkpoint walk.

    Each gap (an int64 array) is cut into pieces of _PIECE levels and a
    shorter last one, pieces in all, gap j's first at piece starts[j]. draws
    holds one (rows, lo, cum) per piece length g: the pieces of that length,
    and the weights of Binomial(g, p1) for the counts lo, lo + 1, ... within
    mean +- (40 sd + 40) of g p1, cumulated. Bernstein's inequality leaves
    below e^-60 of the mass outside on each side, for every g and p1. A
    weight is relative to the mode's: the sum of the log ratios w(c+1)/w(c)
    = (g - c) p1 / ((c + 1) p0) between them, so no rounding grows with g in
    the bulk. Refuses with BudgetError, before either is built, a path's
    pieces and the tables' entries (at most 80 sd + 83 each) of more than
    _COUNT_CAP doubles together.
    """
    count = -(-gaps // _PIECE)
    pieces, starts, last = int(count.sum()), np.cumsum(count) - count, gaps - (count - 1) * _PIECE
    lengths = np.unique(np.append(last, _PIECE)) if pieces > len(gaps) else np.unique(last)
    if (size := pieces + int((80 * np.sqrt(lengths * p0 * p1) + 83).sum())) > _COUNT_CAP:
        raise BudgetError(f"a path's gap pieces and the count tables need {size} doubles, over {_COUNT_CAP}")
    length = np.full(pieces, _PIECE)
    length[starts + count - 1] = last
    draws = []
    for g in lengths.tolist():
        mean, spread = g * p1, 40 * math.sqrt(g * p0 * p1) + 40
        lo, hi = max(0, math.floor(mean - spread)), min(g, math.ceil(mean + spread))
        r = np.log(np.arange(g - lo, g - hi, -1.0) / np.arange(lo + 1.0, hi + 1)) + math.log(p1 / p0)
        a = np.searchsorted(-r, 0.0)  # r falls with c, so the mode is lo + a
        log_w = np.concatenate((-np.cumsum(r[:a][::-1])[::-1], [0.0], np.cumsum(r[a:])))
        draws.append((np.flatnonzero(length == g), lo, np.cumsum(np.exp(log_w))))
    return pieces, starts, draws


def _checkpoint_walk_product(tables, seed, lo, hi):
    """(S, T) of product paths lo..hi-1, one row per path, at the checkpoints.

    tables holds the per-run gaps between checkpoints, the renormalised
    weights of the active symbols, their increments -log_b w and, on
    self-similar measures, -ln r (else None, and T is None: grid t is
    _walk_ensemble's), and the pieces each path draws: with two active
    symbols _count_tables' pieces, starts and draws, else one per gap and
    None, None. There, path i's count of the second symbol in gap piece j is
    draw_symbols' rule on that piece's table with the j-th double of
    path_rng(seed, i), scaled by the table's total (inversion, one uniform
    per piece), and a gap's count
    is the sum of its pieces'. The pieces of one length draw in one step
    over the block, each count overwriting its uniform; their float sums are
    exact, as _COUNT_CAP keeps every gap below 2^43 levels. Other paths draw
    every gap's counts in one multinomial call on path_rng(seed, i). S and T
    sum the increments, per gap as counts @ increments does (vecdot), then
    over the gaps from 0.0 as a loop does, so they are never -0.0.
    """
    gaps, p, neg_lw, neg_lr, pieces, starts, draws = tables
    if draws is not None:
        U = np.empty((pieces, hi - lo))  # level-major: a piece's uniforms are one row
        _draw_uniforms(seed, lo, 0, U)
        for rows, c0, cum in draws:
            # scaled by the table's total: a run builds its tables anew, and their
            # thresholds (models.u_thresholds) cost more than these few products
            U[rows] = c0 + draw_symbols(cum, U[rows] * cum[-1])
        c1 = np.add.reduceat(U, starts, axis=0).T.astype(np.int64)
        counts = np.stack((gaps - c1, c1), axis=-1)
    else:
        rng = path_rng(seed, lo)  # the walk's one generator, re-keyed for each path
        counts = np.array([rekey_path_rng(rng, seed, i).multinomial(gaps, p) for i in range(lo, hi)])
    S = np.cumsum(np.vecdot(counts, neg_lw), axis=1) + 0.0
    return S, None if neg_lr is None else np.cumsum(np.vecdot(counts, neg_lr), axis=1) + 0.0


def _level_walk(produce, checkpoints, conv, window, n_paths, block, step=None):
    """(S, T, SUP, INF) of a per-level walk of n_paths paths, block levels at a time.

    For each block of levels base+1..base+b, produce(base, b) yields
    (rows, s, t): a slice of the paths and their walked S, one level per row
    and one column per path, and t alike (one column: only product walks of
    unequal ratios give each path its own t), else None. This pass owns what
    follows the draw and may overwrite s and t. It picks S and t at the
    block's checkpoints. Where t is the same on every path it walks it once
    per block: grid t, level * t_per_level, and, where step is given
    (self-similar measures whose ratios all have -ln r = step), the block's
    cumsum of step plus the carry, as each path's walk would sum it.

    With a window (w_lo, w_hi) it keeps each path's running ratio extremes
    by record bounds. The block's window levels are cut into sub-blocks
    after levels base + k _SUB_BLOCK and after each checkpoint. For each
    path it centres a = s - d t in place and takes every sub-block's max and
    min of a by reduceat. With den_lo and den_hi, ratio_den(t) at the
    sub-block's first and last levels widened by the relative margin
    _DEN_MARGIN, these bound the sub-block's ratios. Rounded division is
    monotone in each operand, so no ratio exceeds max(a_max / den_lo, a_max
    / den_hi), and the ratio at a_max's level is at least the min of the
    two; the min is bounded alike. A sub-block is skipped when its bounds
    reach neither the running sup nor the running inf it starts from, taken
    as the extremes carried into the block raised by what every earlier
    sub-block certainly reaches (one fmax.accumulate, the inf negated). Only
    the other sub-blocks get their exact ratios (s - d t) / ratio_den(t),
    and so does every one whose end denominators are nan (t below t_min, or
    LL t <= 0). Their fmax/fmin, accumulated from the carry, give the
    running extremes at each checkpoint. A sub-block's ratio_den is formed
    once, into t's buffer: once for the whole group where t is shared, once
    for the path where it is its own. A chain block is bounded column by
    column and evaluated for all its paths where any path needs it.

    A skipped sub-block cannot move fmax/fmin, so every byte is the one the
    exact ratios of every level give: max and min are exact and no ratio is
    -0.0, so ties cannot show, and fmax/fmin skip the nan ratios below t_min
    as a mask of valid levels would. The bounds hold because ratio_den(t)
    rounded stays within the margin 2^-30 of a value that grows with t. Its
    logs err by an ulp or two, so ln(log_b t) is within about 2^-52 of its
    value. Where ln(log_b t) >= 2^-22 that is at most 2^-30 of it, and
    the margin covers it. Where ln(log_b t) is smaller, t lies within a
    hair of b; one level then raises ln(log_b t) by about 1 / (t ln t),
    which dwarfs the 2^-52 for any b below 2^40, so the rounded ratio_den
    grows level by level there.

    Sub-blocks of 2^11 levels and the margin 2^-30 were set on 2 vCPUs,
    run_ensemble in-process, medians of 31 alternating runs. Two
    bernoulli_quarter paths to 2^20 took 32.2 ms against 38.1 ms when every
    level was divided, and two cantor_biased paths 35.3 against 40.9 ms.
    There the walk formed exact ratios on 2.0-3.4% of the path sub-blocks
    (1.4-4.0% on cantor_biased, six seeds each). Sub-blocks of 2^10 and 2^9
    levels took 0.3-1.1 ms longer on each of these runs, and 2^12 and 2^13
    within 0.4 ms of 2^11. Where records are dense the bounds cost more
    than they save: 16 bernoulli_quarter paths to 2^16 formed exact ratios
    on 23-33% of their sub-blocks and ratio_den on 53-97% of the levels,
    and took 16.6 against 15.6 ms.

    One row per path and one column per checkpoint; T is None on grids, and
    SUP/INF are None without a window and stay -inf/+inf until it opens.
    """
    cks = np.asarray(checkpoints)
    n, d = int(cks[-1]), conv.d
    S = np.empty((n_paths, cks.size))
    T = np.empty_like(S) if conv.t_per_level is None else None  # grid t is _walk_ensemble's
    # the running sup and -inf of every path at each checkpoint, and after the last block
    EXT, run = np.empty((2, n_paths, cks.size)), np.full((2, n_paths), -np.inf)
    w_lo, w_hi = (1, 0) if window is None else window  # no window: no level is in it
    bufs = np.empty((2, 0 if window is None else min(n, block)))  # a block's shared t, and its d t
    t_end = 0.0  # with step, t at the level before the block
    for base in range(0, n, block):
        b = min(block, n - base)
        p0, p1 = np.searchsorted(cks, (base + 1, base + b + 1))
        at = cks[p0:p1] - base - 1  # the block's checkpoints, as offsets
        w0, w1 = max(w_lo - base - 1, 0), min(w_hi - base, b)
        if step is not None:  # only window walks pass it, so the buffer holds the block
            tb = np.add(np.cumsum(np.full(b, step), out=bufs[0, :b]), t_end, out=bufs[0, :b])
            T[:, p0:p1], t_end = tb[at], tb[-1]
        edges = None  # the sub-blocks' widened end denominators, once per block where t is shared
        if w0 < w1:  # the window levels, in sub-blocks cut after levels base + k _SUB_BLOCK and checkpoints
            tw, dt = bufs[0, w0:w1], bufs[1, w0:w1]
            ends = np.clip(at + 1, w0, w1) - w0  # each checkpoint's count of window levels
            cuts = np.unique(np.r_[ends, np.clip(np.arange(0, b, _SUB_BLOCK), w0, w1) - w0, w1 - w0])[1:]
            # each checkpoint reads the extremes after sub-block seg - 1, or the carry at seg 0
            starts, seg = np.append(0, cuts[:-1]), np.searchsorted(np.append(0, cuts), ends)
            if T is None:  # grid t
                np.multiply(np.arange(base + w0 + 1.0, base + w1 + 1.0), conv.t_per_level, out=tw)
        for rows, s, t in produce(base, b):
            S[rows, p0:p1] = s[at].T
            if t is not None:
                T[rows, p0:p1] = t[at].T
            if w0 >= w1:  # no window, or it misses the block
                EXT[:, rows, p0:p1] = run[:, rows, None]
                continue
            if t is not None or edges is None:  # a path's own t, or the block's first path
                tw = tw if t is None else t[w0:w1, 0]
                edges = conv.ratio_den(tw[np.stack((starts, cuts - 1))])[..., None] * _WIDEN  # den_lo, den_hi
                formed = np.zeros(starts.size, bool)  # the sub-blocks whose ratio_den replaced t in tw
                np.multiply(tw, d, out=dt)
            a = np.subtract(s[w0:w1], dt[:, None], out=s[w0:w1])
            q = np.array((np.fmax.reduceat(a, starts), -np.fmin.reduceat(a, starts)))[:, None] / edges
            carry = run[:, rows][:, None]
            # no ratio of a sub-block passes q.max(1) (for its max, and for -its min),
            # and one reaches q.min(1), so the running extremes it starts from are at least least
            least = np.fmax.accumulate(np.concatenate((carry, q.min(1)), axis=1), axis=1)[:, :-1]
            hot = ~(q.max(1) <= least).all((0, 2))  # nan bounds: hot
            ext = np.full_like(least, np.nan)  # each sub-block's exact max and -min, where hot
            for j in np.flatnonzero(hot).tolist():
                lv = slice(starts[j], cuts[j])
                if not formed[j]:
                    tw[lv], formed[j] = conv.ratio_den(tw[lv]), True
                r = np.divide(a[lv], tw[lv, None], out=a[lv])
                ext[:, j] = np.fmax.reduce(r, axis=0), -np.fmin.reduce(r, axis=0)
            ext = np.fmax.accumulate(np.concatenate((carry, ext), axis=1), axis=1)  # after each sub-block
            EXT[:, rows, p0:p1], run[:, rows] = ext[:, seg].swapaxes(1, 2), ext[:, -1]
    return S, T, *((None, None) if window is None else (EXT[0], -EXT[1]))


_SUB_BLOCK = 1 << 11  # window levels one pair of ratio bounds covers
_DEN_MARGIN = 2.0 ** -30  # relative widening of a sub-block's end denominators
_WIDEN = np.array([[[1 - _DEN_MARGIN]], [[1 + _DEN_MARGIN]]])  # to den_lo and den_hi
_WINDOW_BLOCK = 1 << 16  # levels a window walk draws per path at once
_WINDOW_GROUP = 1 << 8  # paths whose window walk shares each block's grid tables
# the fewest path-levels (paths times the deepest checkpoint) a thread of a
# window walk takes: on 2 vCPUs two threads beat one in 22 of 23 timings from
# 2^22 path-levels up, and lost to it on 2 paths of 2^20 levels
_THREAD_WORK = 1 << 21


def _window_walk_product(tables, checkpoints, seed, lo, hi, conv, window):
    """Walk product paths lo..hi-1 level by level, one block of levels at a time.

    tables holds the weights' draw thresholds (models.u_thresholds), the
    increments -log_b w and, on self-similar measures, -ln r (else None).
    Every path of the group walks a block of at most _WINDOW_BLOCK levels
    before the next block starts, so _level_walk computes the block's t
    once for the group, and each sub-block's ratio_den(t) at most once,
    wherever t is the same on every path: grid t, and self-similar t when
    every -ln r is one step, whose cumsum plus carry would be the same on
    every path. Each path yields its S, and on unequal ratios its t, as one
    column. Path i draws block k from
    path_rng(seed, i) re-keyed past the k blocks before, by draw_symbols
    into the index buffer: one compare per threshold against u on rows of
    up to models._COMPARE_ROW = 64 symbols, a binary search on longer ones.
    On 2 vCPUs 4 paths of 2^16 levels took 8.2 ms by compares against 15.8
    by search at 64 symbols, and 20 ms by search at 256 symbols. Neither
    form picks a zero-weight symbol and its infinite increment. S, and on
    unequal ratios t, are the block's cumsum plus the carry, written into
    one set of buffers that every path and block reuses.
    """
    cum, neg_lw, neg_lr = tables
    size = min(checkpoints[-1], _WINDOW_BLOCK)
    u, idx = np.empty(size), np.empty(size, np.intp)
    step = None if neg_lr is None or neg_lr.min() < neg_lr.max() else neg_lr[0]  # equal ratios: one t
    t = None if neg_lr is None or step is not None else np.empty(size)
    # increments, buffer and carry per path of S, and of t on self-similar measures
    sums = [(neg_lw, u, np.zeros(hi - lo))] + ([] if t is None else [(neg_lr, t, np.zeros(hi - lo))])
    rng = path_rng(seed, lo)  # the walk's one generator, re-keyed for each path and block

    def produce(base, b):
        ub, ib = u[:b], idx[:b]
        for j in range(hi - lo):
            draw_symbols(cum, rekey_path_rng(rng, seed, lo + j, base).random(out=ub), out=ib)
            for inc, x, acc in sums:
                xb = x[:b]
                np.take(inc, ib, out=xb, mode="clip")
                np.cumsum(xb, out=xb)
                xb += acc[j]
                acc[j] = xb[-1]
            yield slice(j, j + 1), ub[:, None], None if t is None else t[:b, None]

    return _level_walk(produce, checkpoints, conv, window, hi - lo, _WINDOW_BLOCK, step)


_DRAW_GROUP = 1 << 16  # uniforms one path_uniforms pass computes: its temporaries stay a few MB
# the most doubles a path draws into a block by path_uniforms: on 2 vCPUs the
# array form beat re-keying at 32 doubles per path and lost at 64
_SHORT_STREAM = 32


def _draw_uniforms(seed, lo, base, X):
    """Fill X, level-major, with doubles base, base + 1, ... of the streams
    of paths lo, lo + 1, ..., one column per path.

    Short streams, at most _SHORT_STREAM doubles a path, come from
    path_uniforms, about _DRAW_GROUP uniforms a pass. Longer ones come from
    one generator, re-keyed to each path's stream past the base doubles
    drawn before, one column at a time. Both give the same bytes.
    """
    L, B = X.shape
    if L <= _SHORT_STREAM:
        step = max(1, _DRAW_GROUP // L)
        for g in range(0, B, step):
            path_uniforms(seed, lo + g, base, X[:, g:g + step])
        return
    rng = path_rng(seed, lo)
    for b in range(B):
        X[:, b] = rekey_path_rng(rng, seed, lo + b, base).random(L)


# uniforms one block of chain paths holds at once: memory stays bounded for
# any N and any depth while each numpy step of the scan covers many paths
_CHAIN_BLOCK_DRAWS = 1 << 20


def _chain_walk(tables, checkpoints, seed, lo, hi, conv, window):
    """Walk chain paths lo..hi-1 together, a chunk of levels at a time.

    tables holds the core's cum_P (row k, the start state's, is pi) and the
    increments -ln(p)/lb (+inf at p = 0) of its log_P, flattened so that
    (i, j) sits at i * k + j. Path i draws its uniforms from path_rng(seed,
    i) by _draw_uniforms, in chunks of at most _CHAIN_BLOCK_DRAWS // B levels that
    continue its stream, so the block holds at most _CHAIN_BLOCK_DRAWS
    uniforms at any depth. chain_states walks every path of the chunk from its
    carried state (k at first), by draw_symbols' rule in about 2 sqrt(levels)
    numpy steps. The increments then overwrite the spent uniforms, about
    sqrt(levels) levels at a time, and each such slab's cumsum down the
    levels, from the carried S added to its first level, makes S as adding
    them in level order does. S starts at -0.0, the additive identity: +0.0
    would turn a first increment of -0.0 (a pi entry of 1) into +0.0. All
    steps are elementwise, so no path depends on its block, and _level_walk
    takes the chunk from U, so no array spans all n levels.
    """
    cum_P, inc_P = tables
    n, B, k = checkpoints[-1], hi - lo, cum_P.shape[1]
    rows = max(1, _CHAIN_BLOCK_DRAWS // B)
    U = np.empty((min(n, rows), B))  # level-major: a level's uniforms are one row

    def produce(base, c):
        X = U[:c]
        _draw_uniforms(seed, lo, base, X)
        Z = chain_states(cum_P, X, state)
        step = math.isqrt(c) + 1
        code = np.empty((step, B), np.intp)
        for a in range(0, c, step):  # the move from Z[l] to Z[l + 1] adds X[l]
            x, z = X[a:a + step], Z[a:a + step + 1]
            cx = code[:len(x)]
            np.multiply(z[:-1], k, out=cx, dtype=np.intp)
            cx += z[1:]
            inc_P.take(cx, out=x, mode="clip")
            x[0] += s
            np.add.accumulate(x, axis=0, out=x)  # cumsum: np.cumsum keeps KBs of call caches
            s[:] = x[-1]
        state[:] = Z[-1]
        yield slice(None), X, None

    state, s = np.full(B, k), np.full(B, -0.0)
    return _level_walk(produce, checkpoints, conv, window, B, rows)


def _checked_levels(checkpoints: Sequence[int]) -> tuple[int, ...]:
    """The checkpoints as ints, refused unless positive, below 2^_WALK_BITS
    and strictly increasing."""
    cks = tuple(int(c) for c in checkpoints)
    if not cks or any(c <= 0 for c in cks):
        raise ValidationError("checkpoints must be positive levels")
    if max(cks).bit_length() > _WALK_BITS:
        raise ValidationError(f"checkpoint levels must lie below 2^{_WALK_BITS}")
    if list(cks) != sorted(set(cks)):
        raise ValidationError("checkpoints must be strictly increasing")
    return cks


def _validated_checkpoints(model, checkpoints, conv) -> tuple[int, ...]:
    cks = _checked_levels(checkpoints)
    # t grows by t_per_level per grid level and, on self-similar measures, by
    # at least the slowest contraction's -ln r
    step = conv.t_per_level
    if step is None:
        step = -float(np.max(model.core.log_ratios))
    conv.check_time(cks[0] * step)
    return cks


# ---------------------------------------------------------------------------
# ensembles


@dataclass(frozen=True)
class EnsembleSummary:
    """Exact reductions over N independent paths at common checkpoints.

    Ratio columns are the normalized (S - d t)/sqrt(2 t LL t) statistics;
    z-columns feed the CLT diagnostics. runsup_median tracks, per checkpoint,
    the ensemble median of each path's running sup of the ratio over the
    window seen so far (non-decreasing in the horizon by construction).
    """

    convention: str
    N: int
    seed: int
    checkpoints: tuple[int, ...]
    window: tuple[int, int]
    d: float
    sigma: float
    ratio_mean: tuple[float, ...]
    ratio_var: tuple[float, ...]
    ratio_min: tuple[float, ...]
    ratio_max: tuple[float, ...]
    ks_distance: tuple[float, ...]
    mean_gap: tuple[float, ...]  # |mean(S)/t - d| per checkpoint
    runsup_median: tuple[float, ...]
    path_window_sup: np.ndarray
    path_window_inf: np.ndarray

    def __eq__(self, other):
        """Field by field, NaN equal to NaN: a statistic is NaN where it is
        undefined (no CLT variance, a window not yet open), and two runs of
        one input must still compare equal."""
        if not isinstance(other, EnsembleSummary):
            return NotImplemented

        def same(a, b) -> bool:
            a, b = np.asarray(a), np.asarray(b)
            return np.array_equal(a, b, equal_nan=a.dtype.kind == b.dtype.kind == "f")

        return all(same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _walk_ensemble(model, conv, cks, seed, paths, threads=1, window=None):
    """(S, T, SUP, INF) for the paths (a range of indexes) of one run:
    run_ensemble's paths, gauge_test's, or one path (a range of one index)
    for the tests' single-path reference.

    One row per path and one column per checkpoint, S and T in conv's units;
    on grids T is one row, the t of every path, which broadcasts.
    With a window (w_lo, w_hi) every level is walked and SUP/INF hold the
    running ratio extremes over the window levels; otherwise both are None.
    Refuses the run before any path is keyed past the path budget or, for
    chains, the chain-step budget. Product checkpoint paths are the jump
    engine, in blocks of at most _COUNT_BLOCK symbol counts (or gap pieces):
    with two active symbols, the count tables are built here once for the
    run, or the run refused past _COUNT_CAP, and each piece takes one
    uniform; otherwise one multinomial call per path. The per-level walks
    go through _level_walk: product window paths in groups of at most
    _WINDOW_GROUP that walk each block of levels together, and chain paths
    in blocks of at most _CHAIN_BLOCK_DRAWS uniforms, each chunk of levels
    walked by one state scan. Only the
    per-level product walk uses the threads, at most one per CPU, per path
    and per _THREAD_WORK path-levels, each walking a contiguous range of
    paths that differ by at most one in length: the chain and checkpoint walks ran
    slower on more threads, so they run in one.
    """
    N, n_max, m = paths.stop - paths.start, cks[-1], len(cks)
    if N < 1:
        raise ValidationError(f"N must be >= 1, got {N}")
    if N.bit_length() > _WALK_BITS:  # and so N * n_max below 2^126 in the message below
        raise ValidationError(f"N must lie below 2^{_WALK_BITS}")
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    if N * n_max > path_budget():
        raise BudgetError(f"N*n_max = {N * n_max} exceeds the path budget {path_budget()}; "
                          "raise MFLIL_PATH_BUDGET to allow it")
    core = model.core
    block, workers = max(1, _CHAIN_BLOCK_DRAWS // n_max), 1  # the chain and checkpoint walks: one thread
    if core.kind == "chain":
        if N * n_max > _MARKOV_STEP_BUDGET:
            raise BudgetError(f"stepwise chain simulation capped at N*n_max <= {_MARKOV_STEP_BUDGET}")
        tables = core.cum_P, -core.log_P.ravel() / conv.ln_base

        def walk(lo, hi):
            return _chain_walk(tables, cks, seed, lo, hi, conv, window)
    else:
        grid = conv.t_per_level is not None
        if window is None:  # the checkpoint walk reads the support's tables
            sup = core.support
            p, gaps = sup.weights / sup.weights.sum(), np.diff(cks, prepend=0)
            pieces, starts, draws = _count_tables(gaps, *p) if p.size == 2 else (m, None, None)
            neg_lw, neg_lr = -_log_weights(model, conv.base, sup), None if grid else -sup.log_ratios
            tables = gaps, p, neg_lw, neg_lr, pieces, starts, draws
            block = max(1, _COUNT_BLOCK // (pieces * core.k))

            def walk(lo, hi):
                return *_checkpoint_walk_product(tables, seed, lo, hi), None, None
        else:
            tables = core.cum_weights, -log_symbol_weights(model, conv.base), None if grid else -core.log_ratios
            # never more threads than CPUs or paths, each range beyond them only
            # waiting its turn, nor than one per _THREAD_WORK path-levels
            block, workers = _WINDOW_GROUP, max(1, min(threads, os.cpu_count() or 1, N, N * n_max // _THREAD_WORK))

            def walk(lo, hi):
                return _window_walk_product(tables, cks, seed, lo, hi, conv, window)

    S = np.empty((N, m))  # and T, on grids one row of t for every path
    T = np.empty((N, m)) if conv.t_per_level is None else np.asarray(cks, dtype=float)[None] * conv.t_per_level
    SUP, INF = (None, None) if window is None else (np.empty_like(S), np.empty_like(S))

    def fill(lo: int, hi: int) -> None:
        for b_lo in range(lo, hi, block):
            b_hi = min(b_lo + block, hi)
            for out, part in zip((S, T, SUP, INF), walk(b_lo, b_hi)):
                if part is not None:
                    out[b_lo - paths.start:b_hi - paths.start] = part

    if workers == 1:
        fill(paths.start, paths.stop)
    else:
        cuts = [paths.start + N * i // workers for i in range(workers + 1)]  # ranges differ by <= 1 path
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: fill(*b), zip(cuts, cuts[1:])))
    return S, T, SUP, INF


def column_fsums(X) -> np.ndarray:
    """math.fsum of each column of the 2-d float array X, bit for bit.

    Error-free extraction (Rump, Ogita and Oishi, Accurate floating-point
    summation part I, SIAM J. Sci. Comput. 31(1), 2008): for N rows take M
    with 2^M >= N + 2 and, per column, sigma = 2^k > 2^M max|x|. Then q =
    (sigma + x) - sigma and x - q are exact, the q are multiples of 2^(k-53)
    whose column sum is exact in any order, and |x - q| <= 2^(k-53). So each
    whole-matrix pass strips at least 52 - M bits off the remainders: finite
    data of normal range takes 2-4 passes. One fsum over a column's few pass
    sums rounds its exact sum, which is fsum's result. A column that is not
    finite, all zero, within 2^M of overflow, or not cleared in
    _EXTRACT_PASSES passes is summed by fsum itself, which keeps fsum's
    results (its sign of zero) and exceptions.
    """
    M = (X.shape[0] + 1).bit_length()
    R = np.array(X.T, order="C")  # a copy, one contiguous row per column of X
    mu = np.abs(R).max(axis=1, initial=0.0)
    own = ~((mu > 0) & (mu < 2.0 ** (1022 - M)))  # nan, inf, all zero or near overflow
    R[own], parts = 0.0, []
    while (mu := np.abs(R).max(axis=1, initial=0.0)).any() and len(parts) < _EXTRACT_PASSES:
        sigma = np.ldexp(1.0, np.frexp(mu)[1] + M)[:, None]
        Q = (sigma + R) - sigma
        R -= Q
        parts.append(Q.sum(axis=1))
    own |= mu > 0  # not cleared in _EXTRACT_PASSES passes
    sums = np.array(parts).reshape(len(parts), X.shape[1]).T.tolist()
    return np.array([math.fsum(X[:, j].tolist() if own[j] else c) for j, c in enumerate(sums)])


def _ks_normal(z: np.ndarray) -> np.ndarray:
    """Each column's one-sample Kolmogorov-Smirnov distance to N(0, 1).

    The float operations and their order are those of scipy's kstest
    statistic, so every distance is bit-equal to kstest(z[:, j], "norm")'s;
    no p-value is formed. A column holding a NaN gives NaN. scipy's ndtr
    stays, imported here so that only a KS distance loads scipy: a numpy or
    math.erfc normal CDF differs from it in the last bits on about 30% of
    values, and the distances would move with it.
    """
    from scipy.special import ndtr

    N = z.shape[0]
    F = ndtr(np.sort(z, axis=0))
    d_plus = (np.arange(1.0, N + 1)[:, None] / N - F).max(axis=0)
    d_minus = (F - np.arange(0.0, N)[:, None] / N).max(axis=0)
    return np.where(d_plus > d_minus, d_plus, d_minus)


def run_ensemble(
    model: MeasureModel,
    N: int,
    checkpoints: Sequence[int],
    seed: int = 0,
    convention: str = "auto",
    window: Optional[tuple[int, int]] = None,
    threads: int = 1,
) -> EnsembleSummary:
    """Simulate N paths at the checkpoints and reduce, bit-stably.

    Each path i draws from its own counter-based stream keyed by (seed, i), so
    results are identical for every thread count. Chain paths are walked in
    blocks, every chunk of levels of a block by one state scan in about 2
    sqrt(levels) numpy steps; each product path draws counts between its
    checkpoints (one uniform per gap piece with two active symbols), or one
    symbol per level with a window. Threads only partition the paths of a
    windowed product run into contiguous ranges of at least 2^21 path-levels.
    Means and variances over the paths are exact column sums rounded once
    (column_fsums, math.fsum's result), so neither the path order nor the
    split into blocks can show in them; grid t, the same on every path, is
    one row for the ratios, their denominators, the z-scores and the mean t,
    whose sum over the N paths is then the row's t times N / 1, fl(N t), the
    value fsum gives (N < 2^53, so N / 1 is exact). The
    medians of the running sups are one np.median down the paths, NaN where
    a column is not finite. The Kolmogorov-Smirnov
    distances of z = centered / sqrt(sigma2_clt T) to N(0, 1) come from one
    column-wise pass over the (N, checkpoints) z matrix; they are NaN when
    sigma2_clt is 0.

    Passing an explicit window switches the walk to one draw per level so the
    running sup/inf of the ratio cover every level of [n_lo, n_hi]; without a
    window the walk jumps between checkpoints with exact block draws and the
    extremes are over the checkpoint grid. Both modes are deterministic in
    (seed, mode), but product walks consume the per-path stream differently,
    so S at a checkpoint differs between modes for the same seed. The chain
    draws one uniform per level in both modes, so its S does not.
    """
    conv = lil_convention(model, convention)
    cks = _validated_checkpoints(model, checkpoints, conv)
    w_lo, w_hi = (cks[0], cks[-1]) if window is None else (int(window[0]), int(window[1]))
    if w_lo > w_hi or w_lo < cks[0] or w_hi > cks[-1]:
        raise ValidationError(f"window {window!r} must sit inside the checkpoint range")
    # with an explicit window the walk visits every level inside it and keeps
    # running ratio extremes; otherwise extremes are over the checkpoint grid
    S, T, SUP, INF = _walk_ensemble(
        model, conv, cks, seed, range(N), threads, None if window is None else (w_lo, w_hi)
    )
    centered = S - conv.d * T
    ratio = centered / conv.ratio_den(T)
    ks_distance = (float("nan"),) * len(cks)  # no CLT variance, no z-scores
    if conv.sigma2_clt > 0:
        ks_distance = tuple(_ks_normal(centered / np.sqrt(conv.sigma2_clt * T)).tolist())
    if SUP is None:  # the window is the whole checkpoint grid
        SUP, INF = np.maximum.accumulate(ratio, axis=1), np.minimum.accumulate(ratio, axis=1)
    ratio_mean = column_fsums(ratio) / N
    with np.errstate(invalid="ignore"):  # inf and -inf in a column, masked to nan
        runsup_median = np.where(np.isfinite(SUP).all(axis=0), np.median(SUP, axis=0), np.nan)
    return EnsembleSummary(
        convention=conv.name,
        N=N,
        seed=seed,
        checkpoints=cks,
        window=(w_lo, w_hi),
        d=conv.d,
        sigma=conv.sigma,
        ratio_mean=tuple(ratio_mean.tolist()),
        ratio_var=tuple((column_fsums((ratio - ratio_mean) ** 2) / N).tolist()),
        ratio_min=tuple(ratio.min(axis=0).tolist()),
        ratio_max=tuple(ratio.max(axis=0).tolist()),
        ks_distance=ks_distance,
        mean_gap=tuple(np.abs(column_fsums(S) / N / (column_fsums(T) * (N / len(T)) / N) - conv.d).tolist()),
        runsup_median=tuple(runsup_median.tolist()),
        path_window_sup=SUP[:, -1],
        path_window_inf=INF[:, -1],
    )


# ---------------------------------------------------------------------------
# exact small-n oracles (rational arithmetic on (state, counts) classes)


def _exact_weights(p) -> list[Fraction]:
    """The float weights p as rationals, renormalised in Q: floats summing to
    1.0 need not sum to 1 as rationals, and the laws must have mass exactly 1."""
    fr = [Fraction(x) for x in p]
    total = sum(fr)
    return [x / total for x in fr]


def _class_tables(model, base: LogBase):
    """(moves, first_state, logs): the exact class walk's table in `base` units.

    moves[i] lists the moves out of state i, each a (next state, factor,
    exact probability) triple, and every word starts in first_state;
    logs[factor] is the log of the move's mass factor. Products have one
    state, 0, and their factors are the active symbols. Chain states are the
    k symbols and the start state k, whose moves are pi's; the factors are
    the distinct positive entries of pi and then of P.
    """
    core = model.core
    if core.kind == "product":
        moves = [(0, f, w) for f, w in enumerate(_exact_weights(core.support.weights.tolist()))]
        return [moves], 0, _log_weights(model, base, core.support)
    pi, P = core.pi.tolist(), core.P.tolist()
    factors = list(dict.fromkeys(x for row in [pi, *P] for x in row if x > 0))
    moves = [
        [(j, factors.index(x), w) for j, (x, w) in enumerate(zip(row, _exact_weights(row))) if x > 0]
        for row in [*P, pi]
    ]
    lb = ln_base(model, base)
    return moves, core.k, np.array([math.log(x) / lb for x in factors])


def _class_walk(model, base: LogBase, n: int, budget: int, barrier=None):
    """(law, hit, scale): the exact law of S_n, walked one level at a time.

    A class is a (state, counts) pair, counts[f] the uses of factor f, so its
    S value is float(-(counts @ logs)); the walk starts from one class, the
    first state with no counts. Each level extends every live class by
    every move of its state, multiplying integer numerators over the common
    denominator den (the lcm of the move probabilities' denominators); no
    division happens before the end. With a barrier (n0, test), every class
    of a level k >= n0 whose S value v passes test(k, v) is absorbed. law maps
    each S value of the live classes at level n to its numerator and hit is
    the absorbed numerator, both over scale = den^n.

    Products have one state, so their count at level n is C(n+g-1, g-1) for
    g active symbols, refused past budget before the table is built. Past
    that, the live class count is checked against budget after each level.
    """
    core = model.core
    if core.kind == "product":
        g = len(core.active)
        count = math.comb(n + g - 1, g - 1)
        if count > budget:
            raise BudgetError(f"{count} product classes at level {n}, {g} symbols, exceed the budget {budget}")
    moves, first, logs = _class_tables(model, base)
    den = math.lcm(*(w.denominator for row in moves for _, _, w in row))
    moves = [[(j, f, int(w * den)) for j, f, w in row] for row in moves]

    def value(counts) -> float:
        return float(-(np.asarray(counts, dtype=float) @ logs))

    classes, hit = {(first, (0,) * len(logs)): 1}, 0  # level 0: no symbol yet
    for level in range(1, n + 1):
        nxt: dict = {}
        for (state, counts), num in classes.items():
            for j, f, a in moves[state]:
                key = (j, counts[:f] + (counts[f] + 1,) + counts[f + 1:])
                nxt[key] = nxt.get(key, 0) + num * a
        classes = nxt
        if barrier is not None and level >= barrier[0]:
            out = [key for key in classes if barrier[1](level, value(key[1]))]
            hit += sum(classes.pop(key) for key in out) * den ** (n - level)
        if len(classes) > budget:
            raise BudgetError(f"{core.kind} class count {len(classes)} exceeded {budget} at level {level} of {n}")
    law: dict[float, int] = {}
    for (_, counts), num in classes.items():  # float-identical values merge
        v = value(counts)
        law[v] = law.get(v, 0) + num
    return law, hit, den ** n


_CLASS_BUDGET = 2 ** 20


def exact_distribution(
    model: MeasureModel, n: int, base: Optional[LogBase] = None
) -> list[tuple[float, Fraction]]:
    """The exact law of S_n as (value, probability) pairs, probabilities rational.

    One rational walk over (state, counts) classes serves every family (n+1
    classes for two product symbols); float-identical values are merged, so
    the values strictly increase. Weight vectors are renormalized inside Q
    (float entries summing to 1.0 rarely sum to 1 as exact rationals), so the
    probabilities sum to exactly 1. At most _CLASS_BUDGET live classes.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    law, _, scale = _class_walk(model, base or canonical_base(model), n, _CLASS_BUDGET)
    return [(v, Fraction(law[v], scale)) for v in sorted(law)]


def exact_moments(model: MeasureModel, n: int, base: Optional[LogBase] = None) -> tuple[float, float]:
    """(E[S_n], Var[S_n]) from the exact distribution."""
    dist = exact_distribution(model, n, base)
    mean = math.fsum(v * float(p) for v, p in dist)
    var = math.fsum((v - mean) ** 2 * float(p) for v, p in dist)
    return mean, var


_TAIL_LEVEL_BUDGET = 64


def running_max_tail(model: MeasureModel, n0: int, n1: int, a: float) -> Fraction:
    """Exact probability that sup over k in [n0, n1] of (S_k - k d) reaches a.

    The exact class walk with an absorbing barrier from level n0 on; S and d
    are in the model's own per-symbol units (base-ell on grids, nats for
    self-similar). Restricted to independent increments, so chains are
    refused. The live classes at level k number C(k+g-1, g-1) for g active
    symbols, so the run is refused up front when that count at n1 exceeds the
    enumeration budget (MFLIL_ENUM_BUDGET).
    """
    if not 1 <= n0 <= n1:
        raise ValidationError(f"need 1 <= n0 <= n1, got ({n0}, {n1})")
    if model.core.kind != "product":
        raise ValidationError("running_max_tail is restricted to independent increments; "
                              "a chain's increments are correlated")
    if n1 > _TAIL_LEVEL_BUDGET:
        raise BudgetError(f"n1={n1} above the exact-tail level budget {_TAIL_LEVEL_BUDGET}")
    base = canonical_base(model)
    drift, _ = per_symbol_moments(model, base)
    _, hit, scale = _class_walk(model, base, n1, enumeration_budget(),
                                (n0, lambda k, s: s - k * drift >= a))
    return Fraction(hit, scale)
