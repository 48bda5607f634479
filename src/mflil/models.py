"""Measure families and their cylinder calculus.

Four families:
  * BernoulliProduct(p): binary product measure on [0,1); digit 1 carries
    weight p, digit 0 carries 1-p.
  * MultinomialMeasure(ell, dim, weights): product measure over the k = ell**dim
    adic subcubes, one weight per packed symbol. Zero weights are legal and
    carve the support down to the active symbols.
  * SelfSimilarMeasure(probs, ratios): attractor of an IFS of similarities with
    contraction ratios r_i and selection probabilities p_i, strong separation
    assumed. Cylinders are coded by symbol words; the level-n cylinder has
    diameter prod r_i (diam of the whole attractor normalized to 1).
  * MarkovMeasure(ell, dim, pi, P): shift-invariant Markov measure on symbol
    strings; pi must be stationary for P (checked) unless explicitly waived.

All mass computation is done in the log domain: the mass of a cylinder is
exp of the sum of per-symbol log factors, never the log of a float product.

Family core. Each model builds its per-symbol tables once, on first use of
`model.core`: one read-only FamilyCore of kind 'product' (Bernoulli,
multinomial and self-similar: weights, their natural logs, self-similar log
ratios) or 'chain' (Markov: pi, P, and the cumulative rows and logs, taken
entry by entry with math.log, of P with pi appended as row k). A chain word
starts in the start state k, so its first symbol is a transition out of
row k like any other. Masses, samplers, spectra, ensembles and the
quasi-Bernoulli checks read these tables instead of re-deriving them, and
the family checks read the core's ell, None for self-similar measures.
Every sampler draws through one inverse-CDF rule (draw_symbols), every chain
walk steps its states through one scan of that rule (chain_states), and
every word enumeration comes from one enumerator per kind (chain_log_masses
for chains, word_log_sums for products).

Model files. A model file is a JSON object whose "family" names one of
the four classes (each class's `family`); _MODEL_FILES gives each family's
fields, their readers and defaults, and model_from_dict and model_to_dict
both read it. Numbers must be JSON numbers, and unknown fields are refused.

Sampling uses a counter-based generator (Philox) keyed by
(run_seed, path_index): every path owns a substream, so ensembles are
reproducible bit for bit regardless of scheduling or thread count.
path_rng builds a path's generator and rekey_path_rng moves one generator
to another path's stream; path_uniforms computes the doubles of many
paths' streams at once, bit for bit, by Philox-4x64-10 written in numpy
(Salmon et al., SC 2011), which pays on short per-path streams.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, NamedTuple, Optional, Union

import numpy as np

from .errors import BudgetError, ValidationError
from .symbolic import Alphabet, Word

_WEIGHT_SUM_TOL = 1e-12
_STATIONARY_TOL = 1e-10


def _path_key(run_seed: int, path_index: int) -> tuple[int, int]:
    """The Philox key words (run_seed, path_index), refused unless each fits in 64 bits."""
    if not 0 <= int(run_seed) < 2 ** 64:
        raise ValidationError(f"seed must fit in 64 bits, got {run_seed!r}")
    if not 0 <= int(path_index) < 2 ** 64:
        raise ValidationError(f"path index must fit in 64 bits, got {path_index!r}")
    return int(run_seed), int(path_index)


def path_rng(run_seed: int, path_index: int = 0) -> np.random.Generator:
    """Per-path generator: Philox keyed by the exact words (run_seed, path_index).

    The key goes in as uint64: a plain list would pass through float64 from
    2^63 on, and distinct large seeds would share a stream."""
    key = np.array(_path_key(run_seed, path_index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekey_path_rng(
    rng: np.random.Generator, run_seed: int, path_index: int, drawn: int = 0
) -> np.random.Generator:
    """Re-key rng, a path_rng generator, to path_rng(run_seed, path_index)'s
    stream after `drawn` doubles, and return it.

    Setting the state costs a fraction of building a generator, whose
    Philox(key=...) also builds a SeedSequence that pulls OS entropy only to
    discard it. A double takes one 64-bit word and Philox makes four words
    per counter step, so the counter is set to drawn // 4 and the drawn % 4
    words left are drawn and dropped.
    """
    rng.bit_generator.state = {  # the setter copies each word, so tuples serve
        "bit_generator": "Philox",
        "state": {"counter": (drawn // 4, 0, 0, 0), "key": _path_key(run_seed, path_index)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    if drawn % 4:
        rng.random(drawn % 4)
    return rng


# Philox-4x64-10's round multipliers and key increments, as numpy's Philox uses them
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _mulhilo(m: int, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of m * a, for a uint64 array a; the
    high word is summed from the products of 32-bit limbs, none over 2^64."""
    mh, ml, ah, al = m >> 32, m & 0xFFFFFFFF, a >> 32, a & 0xFFFFFFFF
    lh, hl = al * mh, ah * ml
    mid = (al * ml >> 32) + (lh & 0xFFFFFFFF) + (hl & 0xFFFFFFFF)
    return ah * mh + (lh >> 32) + (hl >> 32) + (mid >> 32), a * m


def path_uniforms(run_seed: int, lo: int, drawn: int, out: np.ndarray) -> None:
    """Fill out (levels x paths) with doubles drawn, drawn + 1, ... of
    path_rng(run_seed, lo + j)'s stream in column j, bit for bit.

    Philox-4x64-10 is a pure function of (counter, key), so one pass of
    array operations computes every path's block of words: no generator is
    keyed, and the keys are refused as path_rng refuses them. As in numpy's
    Philox, word w of a stream is word w % 4 of the block at counter
    w // 4 + 1, and a double is (word >> 11) * 2^-53. It costs about six
    times numpy's C loop per double and nothing per path, so it pays on
    short streams only.
    """
    L, B = out.shape
    seed, first = _path_key(run_seed, lo)
    _path_key(seed, first + max(B - 1, 0))
    start, skip = divmod(drawn, 4)
    blocks = (skip + L + 3) // 4
    # words 1-3 of every counter are 0; arrays grow to (blocks, B) by broadcasting
    ctr = [np.arange(start + 1, start + 1 + blocks, dtype=np.uint64)[:, None]] + [np.zeros((1, 1), np.uint64)] * 3
    key = [np.full((1, 1), seed, np.uint64), np.arange(first, first + B, dtype=np.uint64)]
    for r in range(10):
        if r:  # the key is bumped before every round but the first
            key = [k + w for k, w in zip(key, _PHILOX_W)]
        (h0, l0), (h1, l1) = _mulhilo(_PHILOX_M[0], ctr[0]), _mulhilo(_PHILOX_M[1], ctr[2])
        ctr = [h1 ^ ctr[1] ^ key[0], l1, h0 ^ ctr[3] ^ key[1], l0]
    words = np.stack(np.broadcast_arrays(*ctr), axis=1).reshape(4 * blocks, B)
    np.multiply(words[skip:skip + L] >> 11, 2.0 ** -53, out=out)


def _check_probability_vector(name: str, v, allow_zero: bool) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a non-empty 1-d vector")
    if np.any(arr < 0) or np.any(~np.isfinite(arr)):
        raise ValidationError(f"{name} entries must be finite and >= 0")
    if not allow_zero and np.any(arr == 0):
        raise ValidationError(f"{name} entries must be strictly positive")
    if abs(arr.sum() - 1.0) > _WEIGHT_SUM_TOL:
        raise ValidationError(
            f"{name} must sum to 1 within {_WEIGHT_SUM_TOL}, got sum {arr.sum()!r}"
        )
    return arr


class LogBase(enum.Enum):
    NATURAL = "natural"
    BASE_ELL = "base-ell"
    BASE_2 = "base-2"

    @classmethod
    def parse(cls, text: str) -> "LogBase":
        for m in cls:
            if m.value == text:
                return m
        raise ValidationError(
            f"unknown base {text!r}; expected one of "
            + ", ".join(m.value for m in cls)
        )


def _read_only(a) -> np.ndarray:
    # the tables are shared by every caller of one model's core
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class FamilyCore:
    """The per-symbol tables of one model, built once and read-only.

    kind 'product' (independent symbols) carries weights, their cumulative
    sums and natural logs (np.log, -inf at weight 0), and for self-similar
    measures the natural log contraction ratios. kind 'chain' carries pi and
    P, and the (k+1) x k tables cum_P and log_P: the cumulative rows, and
    logs taken entry by entry with math.log (-inf at 0), of P's k rows and
    then of row k, the start state's, which is pi. ell is the grid base, None
    for self-similar measures. active lists the symbols that positive-mass
    words use: the positive weights, or the chain states reachable from the
    support of pi.
    """

    kind: str
    k: int
    ell: Optional[int]
    active: tuple[int, ...]
    weights: Optional[np.ndarray] = None
    cum_weights: Optional[np.ndarray] = None
    log_weights: Optional[np.ndarray] = None
    log_ratios: Optional[np.ndarray] = None
    pi: Optional[np.ndarray] = None
    P: Optional[np.ndarray] = None
    cum_P: Optional[np.ndarray] = None
    log_P: Optional[np.ndarray] = None

    @classmethod
    def product(cls, ell: Optional[int], weights, ratios=None) -> "FamilyCore":
        w = np.array(weights, dtype=float)
        pos = w > 0
        lw = np.full(w.shape, -np.inf)
        lw[pos] = np.log(w[pos])
        return cls(
            "product", w.size, ell, tuple(np.flatnonzero(pos).tolist()),
            weights=_read_only(w),
            cum_weights=_read_only(np.cumsum(w)),
            log_weights=_read_only(lw),
            log_ratios=None if ratios is None else _read_only(np.log(np.asarray(ratios, dtype=float))),
        )

    @classmethod
    def chain(cls, ell: int, pi, P) -> "FamilyCore":
        pi, P = np.array(pi, dtype=float), np.array(P, dtype=float)
        active = pi > 0
        while True:
            grown = active | (P[active] > 0).any(axis=0)
            if (grown == active).all():
                break
            active = grown

        rows = np.vstack((P, pi))  # row k, the start state, is pi
        logs = [math.log(x) if x > 0 else -math.inf for x in rows.ravel().tolist()]
        return cls(
            "chain", pi.size, ell, tuple(np.flatnonzero(active).tolist()),
            pi=_read_only(pi),
            P=_read_only(P),
            cum_P=_read_only(np.cumsum(rows, axis=1)),
            log_P=_read_only(np.reshape(logs, rows.shape)),
        )

    def log_factors(self, syms: np.ndarray) -> np.ndarray:
        """Natural log of each mass factor along a non-empty word: the symbol
        weights, or the transitions out of the start state k and then out of
        each symbol. A 2-d syms holds one word per row."""
        if self.kind == "product":
            return self.log_weights[syms]
        return self.log_P[np.insert(syms[..., :-1], 0, self.k, axis=-1), syms]


@dataclass(frozen=True)
class BernoulliProduct:
    """Binary product measure; digit 1 has weight p, digit 0 has weight 1-p."""

    family: ClassVar[str] = "bernoulli"
    p: float

    def __post_init__(self):
        if not (isinstance(self.p, (int, float)) and 0.0 < float(self.p) < 1.0):
            raise ValidationError(f"p must lie in (0, 1), got {self.p!r}")

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(2, 1)

    @property
    def weights(self) -> np.ndarray:
        return np.array([1.0 - self.p, self.p])

    @cached_property
    def core(self) -> FamilyCore:
        return FamilyCore.product(2, self.weights)


@dataclass(frozen=True)
class MultinomialMeasure:
    """Product measure over adic cubes with one weight per packed symbol."""

    family: ClassVar[str] = "multinomial"
    ell: int
    dim: int
    weights: tuple[float, ...]

    def __post_init__(self):
        alph = Alphabet(self.ell, self.dim)
        w = np.asarray(self.weights, dtype=float)
        if w.size != alph.k:
            raise ValidationError(
                f"need {alph.k} weights for ell={self.ell}, dim={self.dim}, got {w.size}"
            )
        _check_probability_vector("weights", w, allow_zero=True)  # its sum check leaves a weight positive

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.ell, self.dim)

    @cached_property
    def core(self) -> FamilyCore:
        return FamilyCore.product(self.ell, self.weights)


@dataclass(frozen=True)
class SelfSimilarMeasure:
    """Self-similar measure: probabilities over IFS branches with ratios r_i."""

    family: ClassVar[str] = "selfsimilar"
    probs: tuple[float, ...]
    ratios: tuple[float, ...]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        r = np.asarray(self.ratios, dtype=float)
        if p.shape != r.shape:
            raise ValidationError("probs and ratios must have equal length")
        _check_probability_vector("probs", p, allow_zero=False)
        if np.any(r <= 0) or np.any(r >= 1) or np.any(~np.isfinite(r)):
            raise ValidationError("ratios must lie strictly inside (0, 1)")

    @property
    def alphabet(self) -> Alphabet:
        # symbolic coding alphabet; branch count stands in for ell
        return Alphabet(max(2, len(self.probs)), 1)

    @cached_property
    def core(self) -> FamilyCore:
        return FamilyCore.product(None, self.probs, self.ratios)


@dataclass(frozen=True)
class MarkovMeasure:
    """Stationary Markov measure on symbol strings over the adic alphabet."""

    family: ClassVar[str] = "markov"
    ell: int
    dim: int
    pi: tuple[float, ...]
    P: tuple[tuple[float, ...], ...]
    stationary_required: bool = True

    def __post_init__(self):
        alph = Alphabet(self.ell, self.dim)
        k = alph.k
        pi = np.asarray(self.pi, dtype=float)
        P = np.asarray(self.P, dtype=float)
        if pi.shape != (k,):
            raise ValidationError(f"pi must have length {k}, got {pi.shape}")
        if P.shape != (k, k):
            raise ValidationError(f"P must be {k}x{k}, got {P.shape}")
        _check_probability_vector("pi", pi, allow_zero=True)
        if np.any(P < 0) or np.any(~np.isfinite(P)):
            raise ValidationError("P entries must be finite and >= 0")
        rows = P.sum(axis=1)
        bad = np.where(np.abs(rows - 1.0) > _WEIGHT_SUM_TOL)[0]
        if bad.size:
            raise ValidationError(
                f"P rows must sum to 1 within {_WEIGHT_SUM_TOL}; row(s) {bad.tolist()} sum to "
                f"{rows[bad].tolist()}"
            )
        if self.stationary_required:
            drift = np.max(np.abs(pi @ P - pi))
            if drift > _STATIONARY_TOL:
                raise ValidationError(
                    f"pi is not stationary for P (|pi P - pi| = {drift:.3e} > {_STATIONARY_TOL}); "
                    "pass stationary_required=False to waive"
                )

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.ell, self.dim)

    @cached_property
    def core(self) -> FamilyCore:
        return FamilyCore.chain(self.ell, self.pi, self.P)


MeasureModel = Union[BernoulliProduct, MultinomialMeasure, SelfSimilarMeasure, MarkovMeasure]


# ---------------------------------------------------------------------------
# per-symbol tables, read from the family core


def canonical_base(model: MeasureModel) -> LogBase:
    return LogBase.NATURAL if model.core.ell is None else LogBase.BASE_ELL


def ln_base(model: MeasureModel, base: LogBase) -> float:
    """ln b for base-b units: 1 natural, ln ell base-ell, ln 2 base-2.

    Self-similar measures carry natural units only; base-2 needs a binary grid.
    """
    if base is LogBase.NATURAL:
        return 1.0
    ell = model.core.ell
    if ell is None:
        raise ValidationError("self-similar masses carry natural units only")
    if base is LogBase.BASE_2 and ell != 2:
        raise ValidationError("base-2 units need a binary grid")
    return math.log(2.0 if base is LogBase.BASE_2 else ell)


def symbol_weights(model: MeasureModel) -> np.ndarray:
    """Per-symbol weights for product families (error for Markov)."""
    w = model.core.weights
    if w is None:
        raise ValidationError("Markov measures have no per-symbol weight vector")
    return w


def log_symbol_weights(model: MeasureModel, base: LogBase = LogBase.NATURAL) -> np.ndarray:
    """Per-symbol log weights in the requested base, -inf at zero weights.

    Natural logs are the core's; base-2 uses np.log2 so bits stay exact.
    """
    w = symbol_weights(model)
    lb = ln_base(model, base)
    if base is LogBase.BASE_2:
        out = np.full(w.shape, -np.inf)
        pos = w > 0
        out[pos] = np.log2(w[pos])
        return out
    lw = model.core.log_weights
    return lw if base is LogBase.NATURAL else lw / lb


def _validate_word(model: MeasureModel, w: Word) -> None:
    if model.core.ell is None:
        if any(s >= model.core.k for s in w.symbols):
            raise ValidationError(
                f"word uses symbols outside the {model.core.k} IFS branches"
            )
        return
    if w.alphabet != model.alphabet:
        raise ValidationError(
            f"word alphabet {w.alphabet} does not match model alphabet {model.alphabet}"
        )


def log_cylinder_mass(model: MeasureModel, w: Word) -> float:
    """Natural log of the cylinder mass; -inf when the mass is zero."""
    _validate_word(model, w)
    syms = np.asarray(w.symbols, dtype=np.intp)
    # logs at most 0: fsum is -inf as soon as one is, and 0.0 over no factors
    vals = model.core.log_factors(syms)
    return float(math.fsum(vals.tolist()))


def chain_log_masses(model: MeasureModel, n: int) -> np.ndarray:
    """Natural log masses of all k^n level-n words (n >= 1) of a chain, -inf
    for null words, in lexicographic order: word s_1..s_n sits at sum s_i k^(n-i).

    Log masses add left to right, from the start state's row (log pi) on.
    Refused past the enumeration budget.
    """
    core = model.core
    check_enumeration_budget(model, n)
    L = core.log_P[core.k]
    for _ in range(n - 1):
        # rows of the reshape are prefixes, columns their last state
        L = (L.reshape(-1, core.k)[:, :, None] + core.log_P[:core.k]).ravel()
    return L


def word_log_sums(model: MeasureModel, values: np.ndarray, n: int) -> np.ndarray:
    """Sums of per-symbol values over all g^n level-n words (n >= 1) of a
    product family's g symbols, in lexicographic order: word s_1..s_n sits at
    sum s_i g^(n-i) and holds values[s_1] + ... + values[s_n], added left to
    right from 0.0. Refused past the enumeration budget of the model's k^n
    words.
    """
    check_enumeration_budget(model, n)
    acc = np.zeros(1)
    for _ in range(n):
        acc = (acc[:, None] + values[None, :]).ravel()
    return acc


# ---------------------------------------------------------------------------
# support


@dataclass(frozen=True)
class SupportInfo:
    """Active symbols G, their count g, and delta = log_ell g."""

    active: tuple[int, ...]
    g: int
    delta: float
    full: bool


def support_info(model: MeasureModel) -> SupportInfo:
    core = model.core
    g = len(core.active)
    # no grid base for self-similar measures; their dimension is handled elsewhere
    delta = float("nan") if core.ell is None else math.log(g) / math.log(core.ell)
    return SupportInfo(active=core.active, g=g, delta=delta, full=(g == core.k))


def homogeneous_measure(model: MeasureModel) -> MultinomialMeasure:
    """Uniform weights 1/g on the active symbols of a grid family."""
    if model.core.ell is None:
        raise ValidationError("homogeneous measure is defined for grid families only")
    info = support_info(model)
    k = model.alphabet.k
    w = np.zeros(k)
    w[list(info.active)] = 1.0 / info.g
    return MultinomialMeasure(model.alphabet.ell, model.alphabet.dim, tuple(w.tolist()))


# ---------------------------------------------------------------------------
# sampling


def draw_symbols(cum: np.ndarray, u):
    """The inverse-CDF rule of every sampler: symbol i where
    cum[i-1] <= u * cum[-1] < cum[i], clamped to len(cum) - 1.

    cum is a cumulative weight row and u uniform on [0, 1). Scaling u by the
    row total, rather than setting the total to 1, keeps zero-weight symbols
    out of reach when the weights sum to slightly less than 1. As cum is
    non-decreasing, the clamped count is that of cum[:-1] entries at most
    u * cum[-1], the form chain_states takes.
    """
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), cum.size - 1)


# table entries a numpy step covers in about the time its call costs: a chain
# block with more entries per level walks its levels one step each
_STEP_ELEMENTS = 1 << 10
_TABLE_BYTES = 1 << 22  # the most a next-state table takes at once


def chain_states(cum_P: np.ndarray, U: np.ndarray, start) -> np.ndarray:
    """The states of B chain walks over L levels, as an (L + 1) x B array of
    the smallest unsigned integer type that holds k: row 0 is start (a state,
    or one per walk) and row l + 1 the state after level l.

    U holds one uniform on [0, 1) per level (row) and walk (column). From
    state e, level l goes to the count of cum_P[e, :-1] entries at most
    U[l] * cum_P[e, -1], draw_symbols' rule; row k of cum_P is the start
    state's. So each level's uniforms map the k + 1 states to states, and
    maps compose: _scan_levels walks the levels as a chunked prefix scan in
    about 2 sqrt(L) numpy steps, not L. It tabulates k + 1 next states per
    uniform, so the levels go to it in blocks whose table holds at most
    _TABLE_BYTES, each block entering where the one before left.
    """
    L, B = U.shape
    E = cum_P.shape[0]  # the k states and the start state
    dtype = np.min_scalar_type(E - 1)
    Z = np.empty((L + math.isqrt(L) + 2, B), dtype)  # room for a block's last chunk to run past it
    Z[0] = start
    levels = max(1, _TABLE_BYTES // (max(B, 1) * E * dtype.itemsize))
    for a in range(0, L, levels):
        _scan_levels(cum_P, U[a:a + levels], Z[a:])
    return Z[:L + 1]


def _scan_levels(cum_P, U, Z):
    """Write the states after each of U's levels into Z[1:], the walks
    entering in Z[0], by a chunked prefix scan (Hillis and Steele 1986;
    Blelloch 1990).

    F[l, b, e] tabulates level l of walk b from every state e, and the
    levels are cut into C chunks of c ~ sqrt(L); the last chunk runs past L
    on unset entries, and the rows of Z it writes there are left to the
    caller. Then c steps walk every chunk but the last from every state at
    once, C - 1 steps stitch the chunks' entry states from Z[0], and c steps
    walk every chunk again from its entry, writing each level's state. Each
    step is one flat take from F. Where a level's table holds
    _STEP_ELEMENTS entries or more, one chunk takes every level: a step then
    costs more in entries than in its call, and stepping every state would
    not pay.
    """
    L, B = U.shape
    E = cum_P.shape[0]
    c = L if E * B >= _STEP_ELEMENTS else math.isqrt(L) + 1
    C = -(-L // c)
    F = np.empty((C * c, B, E), Z.dtype)
    rows = max(1, L * E * Z.itemsize // 64)  # scaled uniforms take an eighth of F's bytes
    x = np.empty((min(rows, L), B))
    for a in range(0, L, rows):
        u = U[a:a + rows]
        xs = x[:len(u)]
        for e, row in enumerate(cum_P):
            np.multiply(u, row[-1], out=xs)
            to = F[a:a + len(u), :, e]
            np.less_equal(row[0], xs, out=to)
            for col in row[1:-1]:
                to += col <= xs
    flat, span = F.reshape(-1), B * E  # level l's table starts at flat[l * span]
    at = np.arange(C)[:, None] * (c * span) + np.arange(0, span, E)  # chunk j's level 0, walk b
    G = np.empty((C - 1, B, E), Z.dtype)  # every chunk but the last walked from every state
    G[:] = np.arange(E, dtype=Z.dtype)
    idx = np.empty(G.shape, np.intp)
    for i in range(c if C > 1 else 0):
        np.add(at[:-1, :, None], G, out=idx)
        flat[i * span:].take(idx, out=G, mode="clip")
    walks = Z[1:C * c + 1].reshape(C, c, B)  # walks[j, i]: the state after level j c + i
    entry = Z[0]
    for j in range(C - 1):  # chunk j + 1 enters where chunk j leaves
        G[j].take(at[0] + entry, out=walks[j, -1], mode="clip")  # at[0][b] = b E
        entry = walks[j, -1]
    state, idx = np.vstack((Z[:1], walks[:-1, -1])), np.empty((C, B), np.intp)
    for i in range(c):
        np.add(at, state, out=idx)
        state = walks[:, i]
        flat[i * span:].take(idx, out=state, mode="clip")


def sample_symbols(model: MeasureModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n symbols of one path as an integer array, consuming `rng`."""
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    core = model.core
    u = rng.random(n)
    if core.kind == "product":
        return draw_symbols(core.cum_weights, u)
    return chain_states(core.cum_P, u[:, None], core.k)[1:, 0].astype(np.intp)


# ---------------------------------------------------------------------------
# model files


def _number(x) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"needs JSON numbers, got {x!r}")
    return float(x)


def _integer(x) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not float(x).is_integer():
        raise TypeError(f"must be an integer, got {x!r}")
    return int(x)


def _list_of(read: Callable) -> Callable:
    def read_list(x) -> tuple:
        if not isinstance(x, list):
            raise TypeError(f"needs a list, got {x!r}")
        return tuple(map(read, x))
    return read_list


_vector = _list_of(_number)
_matrix = _list_of(_vector)


class _Field(NamedTuple):
    """One model-file field: the constructor argument it fills (None: fixed to
    its default and never written), its reader, and its default (None:
    required)."""

    arg: Optional[str]
    read: Callable
    default: object = None


# each family's file name -> its class and its file fields, read and written alike
_MODEL_FILES = {cls.family: (cls, fields) for cls, fields in (
    (BernoulliProduct, {"p": _Field("p", _number), "ell": _Field(None, _integer, 2),
                        "D": _Field(None, _integer, 1)}),
    (MultinomialMeasure, {"ell": _Field("ell", _integer), "D": _Field("dim", _integer, 1),
                          "weights": _Field("weights", _vector)}),
    (SelfSimilarMeasure, {"probs": _Field("probs", _vector), "ratios": _Field("ratios", _vector)}),
    (MarkovMeasure, {"ell": _Field("ell", _integer), "D": _Field("dim", _integer, 1),
                     "pi": _Field("pi", _vector), "P": _Field("P", _matrix)}),
)}


def model_from_dict(doc: dict) -> MeasureModel:
    """Build a model from a parsed model-file document. Strict: unknown
    fields, and strings or booleans where numbers go, are refused."""
    if not isinstance(doc, dict):
        raise ValidationError("model document must be a JSON object")
    fam = doc.get("family")
    if not isinstance(fam, str) or fam not in _MODEL_FILES:
        raise ValidationError(
            f"unknown family {fam!r}; expected one of {', '.join(_MODEL_FILES)}"
        )
    cls, fields = _MODEL_FILES[fam]
    allowed = {"family", *fields}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ValidationError(
            f"unknown field(s) {unknown} for family {fam!r}; allowed: {sorted(allowed)}"
        )
    args = {}
    for name, f in fields.items():
        if name not in doc and f.default is None:
            raise ValidationError(f"{fam} family requires field {name!r}")
        try:
            value = f.read(doc[name]) if name in doc else f.default
        except (TypeError, OverflowError) as exc:
            raise ValidationError(f"{fam} field {name!r} {exc}") from exc
        if f.arg:
            args[f.arg] = value
        elif value != f.default:
            raise ValidationError(f"{fam} family fixes {name!r} to {f.default}, got {value}")
    try:
        return cls(**args)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {fam} model: {exc}") from exc


def parse_model_file(path: str) -> MeasureModel:
    """Parse and validate a model file (JSON object, strict schema)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read model file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return model_from_dict(doc)


def model_to_dict(model: MeasureModel) -> dict:
    """The model-file document of a model, which model_from_dict reads back."""
    _, fields = _MODEL_FILES[model.family]
    return {"family": model.family, **{
        name: np.asarray(getattr(model, f.arg)).tolist() for name, f in fields.items() if f.arg
    }}


def _env_budget(name: str, default: int) -> int:
    """The integer budget in environment variable `name`, or `default` when unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        val = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{name} must be an integer, got {raw!r}") from exc
    if val < 1:
        raise ValidationError(f"{name} must be >= 1, got {val}")
    return val


def enumeration_budget() -> int:
    """Word-enumeration budget, 2^24 words; override with MFLIL_ENUM_BUDGET."""
    return _env_budget("MFLIL_ENUM_BUDGET", 2 ** 24)


def check_enumeration_budget(model: MeasureModel, n: int) -> None:
    """Refuse a level below 1, and the k^n words of level n past the budget."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    k = model.core.k
    budget = enumeration_budget()
    if k ** n > budget:
        raise BudgetError(
            f"enumeration of {k}^{n} words exceeds the budget {budget} "
            "(set MFLIL_ENUM_BUDGET to raise it)"
        )
