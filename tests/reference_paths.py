"""References for the tests, outside the package.

The log mass of a word, a seeded symbol path, its log-mass process S_1..S_n
taken prefix by prefix, one path's S and t at checkpoints and its ratios,
the partition-sum bound of a quasi-Bernoulli measure, and the stationary
law of a chain: the fixtures and references that the ensemble walks, the
models and the quasi-Bernoulli constants are checked against. They read
the package's tables and walks, and check none of their inputs.
"""

import math
from types import SimpleNamespace

import numpy as np

from mflil import lil, lil_convention, log_partition_sum, qb_constant, tau_scale_free
from mflil.models import LogBase, chain_states, draw_symbols, ln_base, log_symbol_weights


def stationary_distribution(P) -> np.ndarray:
    """Stationary row vector of a row-stochastic matrix, by power iteration
    until no entry moves by 1e-14, in at most 10^5 steps."""
    P = np.asarray(P, dtype=float)
    v = np.full(P.shape[0], 1.0 / P.shape[0])
    for _ in range(100000):
        w = v @ P
        w /= w.sum()
        if np.max(np.abs(w - v)) < 1e-14:
            return w
        v = w
    raise AssertionError("stationary distribution iteration did not converge")


def log_cylinder_mass(model, symbols) -> float:
    """Natural log of the mass of a word's cylinder, -inf where it is zero:
    the fsum of its log factors (at most 0), 0.0 for the empty word."""
    return math.fsum(model.core.log_factors(np.asarray(symbols, dtype=np.intp)).tolist())


def sample_symbols(model, n: int, rng) -> np.ndarray:
    """n symbols of one path, from the next n uniforms of rng by the family
    core's inverse-CDF rows."""
    core, u = model.core, rng.random(n)
    if core.kind == "product":
        return draw_symbols(core.cum_weights, u)
    return chain_states(core.cum_P, u[:, None], core.k)[1:, 0].astype(np.intp)


def s_process(model, syms, base: LogBase = LogBase.NATURAL) -> np.ndarray:
    """S_1..S_n along a non-empty word: S_j = -log_b of the mass of its j-prefix."""
    syms = np.asarray(syms, dtype=np.intp)
    if model.core.kind == "chain":
        return np.cumsum(-model.core.log_factors(syms) / ln_base(model, base))
    return np.cumsum(-log_symbol_weights(model, base)[syms])


def path_stats(model, checkpoints, convention="auto", seed=0, path_index=0) -> SimpleNamespace:
    """S and t of path (seed, path_index) at the checkpoints, as tuples of
    floats in the convention's units: the ensemble walk of that one path,
    after the checks and under the budgets that run_ensemble's walks meet."""
    conv = lil_convention(model, convention)
    cks = lil._validated_checkpoints(model, checkpoints, conv)
    S, T, _, _ = lil._walk_ensemble(model, conv, cks, seed, range(path_index, path_index + 1))
    return SimpleNamespace(S=tuple(map(float, S[0])), t=tuple(map(float, T[0])))


def lil_ratio(S: float, t: float, d: float, conv) -> float:
    """(S - d t) / sqrt(2 t LL(t)), refused where conv.check_time refuses t."""
    conv.check_time(t)
    return (S - d * t) / conv.ratio_den(t)


def partition_bound_check(model, q_list, n_list, drift_tol=0.02, tau_shift=0.0) -> SimpleNamespace:
    """The two-sided partition-sum bound of a grid model and the stationarity
    of its defect, log_ell of the level-n sum of m(I)^q less n tau(q).

    Each cell (one per level and q) holds when |defect| <= |q| log_ell C +
    1e-9, C being qb_constant's. A tau shifted by tau_shift tilts the defect
    by that much per level, so a drift (the last level's defect less the
    first's) past drift_tol is refused even inside the bound.
    """
    qs, ns, ln_ell = np.array(q_list, dtype=float), sorted(n_list), math.log(model.core.ell)
    C = qb_constant(model).C_hat
    taus = tau_scale_free(model, qs) + tau_shift
    defect = np.array([log_partition_sum(model, qs, n) / ln_ell - n * taus for n in ns])
    bound = np.abs(qs) * (math.log(C) / ln_ell) + 1e-9
    cells = [SimpleNamespace(n=n, defect=x, holds=abs(x) <= b)
             for n, row in zip(ns, defect.tolist()) for x, b in zip(row, bound.tolist())]
    drifts = list(zip(q_list, (defect[-1] - defect[0]).tolist()))
    bad = [f"q={q}: drift {dr:+.4f}" for q, dr in drifts if abs(dr) > drift_tol]
    reason = ("absolute bound violated" if not all(c.holds for c in cells)
              else "defect drift beyond tolerance (" + "; ".join(bad) + ")" if bad else None)
    return SimpleNamespace(C=C, cells=cells, worst_margin=float((bound - abs(defect)).min()),
                           drifts=drifts, drift_tol=drift_tol, rejected=reason is not None, reason=reason)
