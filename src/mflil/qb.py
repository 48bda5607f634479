"""Quasi-Bernoulli constants and the dichotomy verdict.

A measure on words is quasi-Bernoulli with constant C when
m(I)m(J)/C <= m(IJ) <= C m(I)m(J) over positive-mass word pairs. Product
measures have C = 1 exactly; for a chain started in pi the concatenation
ratio is m(IJ)/(m(I)m(J)) = P(i, j)/pi(j) with i the last symbol of I and j
the first of J, so the sharp constant has a closed form scanned over the
transition matrix, the core's support (P and pi on the active states).
qb_constant reports that closed form as C_hat, after checking the
enumerated and sampled word-pair ratios against it.

The constant bounds the partition sums on both sides,

    C^-|q| ell^(n tau(q)) <= sum over positive level-n cylinders of m(I)^q
                          <= C^|q| ell^(n tau(q)),

uniformly in n. The tests check that bound, and that its defect
log_ell(sum) - n tau(q) is stationary across levels, against tau_scale_free
and log_partition_sum (tests/reference_paths.py); qb-check does not run it.

dichotomy_classify sorts a model into the two possible regimes (dimension
equal to the support dimension, with the measure comparable to the
homogeneous one; or strictly smaller dimension with curvature evidence, where
the measure is singular for the d-dimensional Hausdorff measure yet
absolutely continuous for the packing counterpart) and returns typed evidence
rather than a bare label. On grids the homogeneous measure is not built: it
gives each of the g active symbols the weight 1/g, and the comparison reads
ln(1/g) against the core's support tables, or a chain's level-6 masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, NumericalError, ValidationError
from .lil import column_fsums
from .models import (
    MarkovMeasure,
    MeasureModel,
    chain_log_masses,
    chain_states,
    path_rng,
)
from .spectrum import (
    chi,
    dimension,
    is_flat,
    not_flat_check,
    sigma2_scale_free,
    support_dimension,
)

_PAIR_BUDGET = 2 ** 20


@dataclass(frozen=True)
class QBReport:
    """The closed-form concatenation-ratio constant C_hat, with the enumerated
    and sampled word pairs that were checked against it."""

    C_hat: float
    max_level: int
    pairs_tested: int


def _markov_closed_C(model: MarkovMeasure) -> float:
    # a positive-mass word ends in an active state: P(i, j)/pi(j) over those i;
    # P(i, j) > 0 from an active i, like pi(j) > 0, only for an active j
    P = model.core.support.P
    pi = np.broadcast_to(model.core.support.pi, P.shape)
    pos = (P > 0) & (pi > 0)
    if not pos.any():
        raise ValidationError(
            "no positive-mass concatenation exists; the constant is undefined"
        )
    r = P[pos] / pi[pos]
    return float(max(1.0, r.max(), (1.0 / r).max()))


def _sampled_chain_words(core, pairs: int, max_len: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Symbols and lengths of 2 * pairs chain words u_1, v_1, u_2, ...

    Each pair draws the lengths |u|, |v| in [1, max_len] and then the
    uniforms of u and of v from rng, in that order. The words are walked
    together from the start state k by chain_states, with u = 0 past each
    word's length; row w of the symbol matrix holds word w, zeroed there.
    """
    lengths, draws = [], []
    for _ in range(pairs):
        lengths += [int(rng.integers(1, max_len + 1)) for _ in range(2)]
        draws += [rng.random(n) for n in lengths[-2:]]
    U = np.zeros((max_len, len(draws)))
    for w, u in enumerate(draws):
        U[: u.size, w] = u
    lengths = np.asarray(lengths, dtype=np.intp)
    syms = chain_states(core.cum_P, U, core.k)[1:].T.astype(np.intp)
    syms[np.arange(max_len) >= lengths[:, None]] = 0
    return syms, lengths


def qb_constant(
    model: MeasureModel,
    max_level: int = 8,
    seed: int = 0,
    random_pairs: int = 256,
    random_max_level: int = 16,
) -> QBReport:
    """The closed-form concatenation-ratio constant, checked against word pairs.

    Product families short-circuit to C = 1: masses factor symbol by symbol,
    so every ratio is exactly one. Chains get the closed-form scan, checked
    against the ratios m(uv)/(m(u)m(v)) of every positive-mass pair with
    |u| + |v| <= max_level, read off the enumerated word masses, and of a
    seeded random-pair sweep at longer words; their sup must not exceed the
    closed form, or NumericalError is raised.
    """
    if max_level < 2:
        raise ValidationError(f"max_level must be >= 2, got {max_level}")
    if model.core.kind == "product":
        return QBReport(1.0, max_level, 0)
    closed = _markov_closed_C(model)
    k = model.core.k
    if k ** max_level > _PAIR_BUDGET:
        raise BudgetError(
            f"k^max_level = {k ** max_level} exceeds the pair budget {_PAIR_BUDGET}"
        )
    L = {lvl: chain_log_masses(model, lvl) for lvl in range(1, max_level + 1)}
    # row u, column v: word uv sits at index u * k^b + v; -inf - -inf where a mass is 0
    with np.errstate(invalid="ignore"):
        gaps = [(L[a + b].reshape(k ** a, k ** b) - L[a][:, None] - L[b][None, :]).ravel()
                for a in range(1, max_level) for b in range(1, max_level - a + 1)]
    # seeded long-word sweep: sampled words have positive mass by construction;
    # F holds each word's log factors down a column, 0.0 past its end
    syms, lengths = _sampled_chain_words(model.core, random_pairs, random_max_level, path_rng(seed, 0))
    F = np.where(np.arange(random_max_level) < lengths[:, None], model.core.log_factors(syms), 0.0).T
    fu, fv = F[:, 0::2], F[:, 1::2]
    # uv has the factors of u, the transition from u's last to v's first
    # symbol, and v's transitions
    joins = model.core.log_P[syms[0::2][np.arange(random_pairs), lengths[0::2] - 1], syms[1::2, 0]]
    gaps.append(column_fsums(np.vstack([fu, joins, fv[1:]])) - column_fsums(fu) - column_fsums(fv))
    # finite exactly when m(u), m(v) and m(uv) are all positive; exp is
    # monotone, so the sup is exp of the largest gap
    gaps = np.abs(np.concatenate(gaps))
    gaps = gaps[np.isfinite(gaps)]
    sup = math.exp(float(gaps.max())) if gaps.size else 1.0
    if sup > closed * (1.0 + 1e-12):
        raise NumericalError(
            f"enumerated ratio {sup!r} exceeds the closed-form constant {closed!r}"
        )
    return QBReport(closed, max_level, gaps.size)


# ---------------------------------------------------------------------------
# the dichotomy


@dataclass(frozen=True)
class DichotomyResult:
    case: str  # 'equivalent_to_Hdelta' | 'singular_Hd_ac_Pd' | 'inconclusive'
    d: float
    delta: float
    tol_eq: float
    evidence: dict


def _homogeneous_ratio_bounds(model: MeasureModel) -> tuple[float, float]:
    """Range of m(I)/m0(I) over positive-mass cylinders of level 6.

    m0 is the homogeneous measure on the same support, weight 1/g on each of
    its g symbols. For product families the per-level range is the
    per-symbol range to the level-th power; chains are enumerated directly.
    """
    levels = 6
    if model.core.ell is None:
        # compare against diameter^delta: per-symbol factors p_i / r_i^delta
        delta = support_dimension(model)
        p = np.asarray(model.probs, dtype=float)
        r = np.asarray(model.ratios, dtype=float)
        f = p / r ** delta
        return float(f.min()) ** levels, float(f.max()) ** levels
    # m0's log weight ln(1/g) on each of the g active symbols, as np.log gives it
    g = len(model.core.active)
    lw0 = np.log(np.full(g, 1.0 / g))
    if model.core.kind == "chain":
        lm = chain_log_masses(model, levels)
        ratio = lm[np.isfinite(lm)] - levels * lw0[0]
        return math.exp(float(ratio.min())), math.exp(float(ratio.max()))
    diff = model.core.support.log_weights - lw0
    return math.exp(levels * float(diff.min())), math.exp(levels * float(diff.max()))


def dichotomy_classify(model: MeasureModel) -> DichotomyResult:
    """Sort the model into one of the two regimes, with recorded evidence.

    Case 'equivalent_to_Hdelta' when the dimension matches the support
    dimension within tol_eq; case 'singular_Hd_ac_Pd' when d is strictly
    below delta and the curvature evidence (positive chi on dyadic grids, on
    both sign branches) holds; 'inconclusive' otherwise, never a guess.
    The evidence holds what the verdict read beyond d, delta and tol_eq,
    which are fields of the result.
    """
    d = dimension(model)
    delta = support_dimension(model)
    tol_eq = 1e-5 if model.core.kind == "chain" else 1e-9
    evidence: dict = {}
    if abs(d - delta) <= tol_eq:
        lo, hi = _homogeneous_ratio_bounds(model)
        evidence["homogeneous_ratio_range"] = (lo, hi)
        evidence["flat"] = is_flat(model)
        return DichotomyResult("equivalent_to_Hdelta", d, delta, tol_eq, evidence)
    if d > delta + tol_eq:
        raise NumericalError(
            f"dimension {d!r} exceeds the support dimension {delta!r}; "
            "the spectrum evaluation is inconsistent"
        )
    plus = not_flat_check(model, side=1)
    minus = not_flat_check(model, side=-1)
    s2 = sigma2_scale_free(model)
    evidence["sigma2_natural"] = s2
    half_plus, half_minus = chi(model, np.array([0.5, -0.5])).tolist()
    evidence["chi_half_plus"] = half_plus
    evidence["chi_half_minus"] = half_minus
    evidence["not_flat_plus"] = {"holds": plus.holds, "C": plus.C, "alpha": plus.alpha_lower_bound}
    evidence["not_flat_minus"] = {"holds": minus.holds, "C": minus.C, "alpha": minus.alpha_lower_bound}
    if plus.holds and minus.holds:
        evidence["witness_gauges"] = {
            "hausdorff": {"family": "lil_hausdorff", "d": d, "sigma_natural": math.sqrt(max(s2, 0.0))},
            "packing": {"family": "lil_packing", "d": d, "sigma_natural": math.sqrt(max(s2, 0.0))},
        }
        return DichotomyResult("singular_Hd_ac_Pd", d, delta, tol_eq, evidence)
    evidence["why"] = "dimension gap present but the curvature evidence is flat"
    return DichotomyResult("inconclusive", d, delta, tol_eq, evidence)
