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
(loglog, and ratio_den = sqrt(2 t LL t)): lil_ratio, the checkpoint ratios,
the running window extremes of the per-level walks, and, with its own pair
of bases, the Theta correction of the gauges.

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
one set of block buffers. Markov paths go in blocks, every path of a block
drawing its own uniforms; a block holds at most _CHAIN_BLOCK_DRAWS
uniforms, drawn in chunks of levels when the paths are long. One state scan
(models.chain_states) walks every path of a chunk in about 2 sqrt(levels)
numpy steps, composing the per-level state maps, and a cumsum down the
levels adds the increments in level order. Both hand each block of walked
levels to one shared pass, _level_walk, which picks the checkpoints and
keeps the running window extremes by one rule: on grids it computes the
block's t and ratio denominators once for all its paths. Only the per-level
product walk (window mode on product models) splits its paths across
threads, at most one per CPU and per path, and at least _THREAD_WORK
path-levels (paths times the deepest checkpoint) per thread, each thread
walking one contiguous range; the other walks run in one thread, where
threads did not pay. Either way the results are identical for every thread
count. One entry point, _walk_ensemble, checks the budgets and walks the
paths of run_ensemble, gauge_test and path_stats.

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


def lil_ratio(S: float, t: float, d: float, convention: LilConvention) -> float:
    """(S - d t) / sqrt(2 t LL(t)), with LL in the convention's base."""
    convention.check_time(t)
    return (S - d * t) / convention.ratio_den(t)


# ---------------------------------------------------------------------------
# per-symbol increments and path processes


def per_symbol_moments(model: MeasureModel, base: Optional[LogBase] = None) -> tuple[float, float]:
    """(mean, variance) of the one-symbol increment X = -log_b(weight).

    Defined for the independent-increment families; the Markov chain's
    increments are correlated and have no single per-symbol variance, and
    log_symbol_weights refuses chains.
    """
    lw = log_symbol_weights(model, base or canonical_base(model))
    w = model.core.weights
    keep = w > 0
    w, lw = w[keep], lw[keep]
    mean = float(w @ (-lw))
    var = float(w @ (lw + mean) ** 2)
    return mean, var


@dataclass(frozen=True)
class PathStats:
    """Checkpoint values of one sampled path, in one convention's units."""

    seed: int
    path_index: int
    convention: str
    checkpoints: tuple[int, ...]
    S: tuple[float, ...]
    t: tuple[float, ...]  # convention units: n * t_per_level on grids, ln(1/R_n) self-similar

    def ratios(self, conv: LilConvention) -> tuple[float, ...]:
        return tuple(lil_ratio(s, t, conv.d, conv) for s, t in zip(self.S, self.t))


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
    path_rng(seed, i) (inversion, one uniform per piece), and a gap's count
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
            U[rows] = c0 + draw_symbols(cum, U[rows])
        c1 = np.add.reduceat(U, starts, axis=0).T.astype(np.int64)
        counts = np.stack((gaps - c1, c1), axis=-1)
    else:
        rng = path_rng(seed, lo)  # the walk's one generator, re-keyed for each path
        counts = np.array([rekey_path_rng(rng, seed, i).multinomial(gaps, p) for i in range(lo, hi)])
    S = np.cumsum(np.vecdot(counts, neg_lw), axis=1) + 0.0
    return S, None if neg_lr is None else np.cumsum(np.vecdot(counts, neg_lr), axis=1) + 0.0


def _level_walk(produce, checkpoints, conv, window, n_paths, block):
    """(S, T, SUP, INF) of a per-level walk of n_paths paths, block levels at a time.

    For each block of levels base+1..base+b, produce(base, b) yields
    (rows, s, t): a slice of the paths and their walked S, one level per row
    and one column per path, or one path's index and its S as a vector; t
    alike on self-similar measures, else None. This pass owns what follows
    the draw: it picks S and t at the block's checkpoints. With a window
    (w_lo, w_hi) it forms the ratios (s - d t) / ratio_den(t) in place in s
    over the block's window levels (grid t and ratio_den once per block) and
    reads the running extremes at each checkpoint from fmax/fmin.reduceat
    over those levels cut after each checkpoint, accumulated and combined
    with the carry. max and min are exact and no ratio is -0.0, so the order
    of reduction cannot show, and fmax/fmin skip the nan ratios below t_min
    as a mask of valid levels would.

    One row per path and one column per checkpoint; T is None on grids, and
    SUP/INF are None without a window and stay -inf/+inf until it opens.
    """
    cks = np.asarray(checkpoints)
    n, d = int(cks[-1]), conv.d
    S = np.empty((n_paths, cks.size))
    T = np.empty_like(S) if conv.t_per_level is None else None  # grid t is _walk_ensemble's
    SUP, INF = (None, None) if window is None else (np.empty_like(S), np.empty_like(S))
    sup, inf = np.full(n_paths, -np.inf), np.full(n_paths, np.inf)
    w_lo, w_hi = (1, 0) if window is None else window  # no window: no level is in it
    bufs = np.empty((2, 0 if window is None else min(n, block)))  # a block's ratio_den and d t
    for base in range(0, n, block):
        b = min(block, n - base)
        p0, p1 = np.searchsorted(cks, (base + 1, base + b + 1))
        at = cks[p0:p1] - base - 1  # the block's checkpoints, as offsets
        w0, w1 = max(w_lo - base - 1, 0), min(w_hi - base, b)
        if w0 < w1:  # the block's window levels, cut after each checkpoint
            den, dt = bufs[:, :w1 - w0]
            ends = np.clip(at + 1, w0, w1) - w0
            cuts = np.unique(np.append(ends[ends > 0], w1 - w0))
            starts, seg = np.append(0, cuts[:-1]), np.searchsorted(cuts, ends)
            opened = ends > 0  # whether the window has opened by each checkpoint
            if conv.t_per_level is not None:  # grid t, shared by every path of the block
                np.multiply(np.arange(base + w0 + 1.0, base + w1 + 1.0),
                            conv.t_per_level, out=dt)  # unnamed, so the levels are freed at once
                conv.ratio_den(dt, out=den)
                dt *= d
        for rows, s, t in produce(base, b):
            S[rows, p0:p1] = s[at].T
            if T is not None:
                T[rows, p0:p1] = t[at].T
            if window is None:
                continue
            if w0 >= w1:  # the window misses the block
                SUP[rows, p0:p1], INF[rows, p0:p1] = sup[rows, None], inf[rows, None]
                continue
            if T is not None:
                conv.ratio_den(t[w0:w1], out=den)
                np.multiply(t[w0:w1], d, out=dt)
            col = (slice(None), None)[:s.ndim]  # level-axis tables, lifted over a path axis
            r = s[w0:w1]
            r -= dt[col]
            r /= den[col]
            top = np.fmax.accumulate(np.fmax.reduceat(r, starts), axis=0)
            bottom = np.fmin.accumulate(np.fmin.reduceat(r, starts), axis=0)
            SUP[rows, p0:p1] = np.where(opened[col], np.fmax(top[seg], sup[rows]), sup[rows]).T
            INF[rows, p0:p1] = np.where(opened[col], np.fmin(bottom[seg], inf[rows]), inf[rows]).T
            sup[rows], inf[rows] = np.fmax(top[-1], sup[rows]), np.fmin(bottom[-1], inf[rows])
    return S, T, SUP, INF


_WINDOW_BLOCK = 1 << 16  # levels a window walk draws per path at once
_WINDOW_GROUP = 1 << 8  # paths whose window walk shares each block's grid tables
# the fewest path-levels (paths times the deepest checkpoint) a thread of a
# window walk takes: on 2 vCPUs two threads beat one in 22 of 23 timings from
# 2^22 path-levels up, and lost to it on 2 paths of 2^20 levels
_THREAD_WORK = 1 << 21


def _window_walk_product(tables, checkpoints, seed, lo, hi, conv, window):
    """Walk product paths lo..hi-1 level by level, one block of levels at a time.

    tables holds the cumulative weights, the increments -log_b w and, on
    self-similar measures, -ln r (else None). Every path of the group walks a
    block of at most _WINDOW_BLOCK levels before the next block starts, so
    _level_walk computes the block's grid t and ratio_den(t) once for the
    group. Path i draws block k from path_rng(seed, i) re-keyed past the k
    blocks before, by draw_symbols' rule as one compare per column of
    cum[:-1] against u * cum[-1], which never picks a zero-weight symbol and
    its infinite increment. S and t are the block's cumsum plus the carry,
    written into one set of buffers that every path and block reuses.
    """
    cum, neg_lw, neg_lr = tables
    size = min(checkpoints[-1], _WINDOW_BLOCK)
    u, idx, hit = np.empty(size), np.empty(size, np.intp), np.empty(size, bool)
    t = None if neg_lr is None else np.empty(size)
    # increments, buffer and carry per path of S, and of t on self-similar measures
    sums = [(neg_lw, u, np.zeros(hi - lo))] + ([] if t is None else [(neg_lr, t, np.zeros(hi - lo))])
    rng = path_rng(seed, lo)  # the walk's one generator, re-keyed for each path and block

    def produce(base, b):
        ub, ib, hb = u[:b], idx[:b], hit[:b]
        for j in range(hi - lo):
            rekey_path_rng(rng, seed, lo + j, base).random(out=ub)
            ub *= cum[-1]
            np.less_equal(cum[0], ub, out=ib)
            for c in cum[1:-1]:
                ib += np.less_equal(c, ub, out=hb)
            for inc, x, acc in sums:
                xb = x[:b]
                np.take(inc, ib, out=xb, mode="clip")
                np.cumsum(xb, out=xb)
                xb += acc[j]
                acc[j] = xb[-1]
            yield j, ub, None if t is None else t[:b]

    return _level_walk(produce, checkpoints, conv, window, hi - lo, _WINDOW_BLOCK)


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


def path_stats(
    model: MeasureModel,
    checkpoints: Sequence[int],
    convention: str = "auto",
    seed: int = 0,
    path_index: int = 0,
) -> PathStats:
    conv = lil_convention(model, convention)
    cks = _validated_checkpoints(model, checkpoints, conv)
    S, T, _, _ = _walk_ensemble(model, conv, cks, seed, range(path_index, path_index + 1))
    return PathStats(seed, path_index, conv.name, tuple(cks), tuple(map(float, S[0])), tuple(map(float, T[0])))


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
    """Fixed-order reductions over N independent paths at common checkpoints.

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
    """(S, T, SUP, INF) for the paths (a range of indexes) of one run.

    One row per path and one column per checkpoint, S and T in conv's units.
    With a window (w_lo, w_hi) every level is walked and SUP/INF hold the
    running ratio extremes over the window levels; otherwise both are None.
    Refuses the run before any path is keyed past the path budget or, for
    chains, the chain-step budget. Product checkpoint paths are the jump
    engine, in blocks of at most _COUNT_BLOCK symbol counts (or gap pieces):
    with two active symbols, the count tables are built here once for the
    run, or the run refused past _COUNT_CAP, and each piece takes one
    uniform; otherwise one multinomial call per path. The per-level walks go through _level_walk: product window paths
    in groups of at most _WINDOW_GROUP that walk each block of levels
    together, and chain paths in blocks of at most _CHAIN_BLOCK_DRAWS
    uniforms, each chunk of levels walked by one state scan. Only the
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
        neg_lw = -log_symbol_weights(model, conv.base)
        neg_lr = None if conv.t_per_level is not None else -core.log_ratios
        if window is None:
            active = list(core.active)
            p, gaps = core.weights[active] / core.weights[active].sum(), np.diff(cks, prepend=0)
            pieces, starts, draws = _count_tables(gaps, *p) if p.size == 2 else (m, None, None)
            tables = gaps, p, neg_lw[active], None if neg_lr is None else neg_lr[active], pieces, starts, draws
            block = max(1, _COUNT_BLOCK // (pieces * core.k))

            def walk(lo, hi):
                return *_checkpoint_walk_product(tables, seed, lo, hi), None, None
        else:
            tables = core.cum_weights, neg_lw, neg_lr
            # never more threads than CPUs or paths, each range beyond them only
            # waiting its turn, nor than one per _THREAD_WORK path-levels
            block, workers = _WINDOW_GROUP, max(1, min(threads, os.cpu_count() or 1, N, N * n_max // _THREAD_WORK))

            def walk(lo, hi):
                return _window_walk_product(tables, cks, seed, lo, hi, conv, window)

    S, T = np.empty((N, m)), np.empty((N, m))
    if conv.t_per_level is not None:  # grid t, the same on every path
        T[:] = np.asarray(cks, dtype=float) * conv.t_per_level
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
    Reductions run single-threaded in path order. The Kolmogorov-Smirnov
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
    if conv.sigma2_clt > 0:
        ks_distance = tuple(_ks_normal(centered / np.sqrt(conv.sigma2_clt * T)).tolist())
    else:
        ks_distance = (float("nan"),) * len(cks)
    if SUP is None:  # the window is the whole checkpoint grid
        SUP, INF = np.maximum.accumulate(ratio, axis=1), np.minimum.accumulate(ratio, axis=1)

    def column_means(X) -> tuple[float, ...]:
        """math.fsum down each column, over N: the sums are exact, so no path order shows."""
        return tuple(math.fsum(col) / N for col in X.T.tolist())

    ratio_mean = column_means(ratio)
    runsup_median = [float(np.median(c)) if np.isfinite(c).all() else float("nan") for c in SUP.T]
    return EnsembleSummary(
        convention=conv.name,
        N=N,
        seed=seed,
        checkpoints=cks,
        window=(w_lo, w_hi),
        d=conv.d,
        sigma=conv.sigma,
        ratio_mean=ratio_mean,
        ratio_var=column_means((ratio - ratio_mean) ** 2),
        ratio_min=tuple(ratio.min(axis=0).tolist()),
        ratio_max=tuple(ratio.max(axis=0).tolist()),
        ks_distance=ks_distance,
        mean_gap=tuple(abs(s / t - conv.d) for s, t in zip(column_means(S), column_means(T))),
        runsup_median=tuple(runsup_median),
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
        active = list(core.active)
        moves = [(0, f, w) for f, w in enumerate(_exact_weights(core.weights[active].tolist()))]
        return [moves], 0, log_symbol_weights(model, base)[active]
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
