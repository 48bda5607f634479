"""Reference paths for the tests, outside the package.

A seeded symbol path, its log-mass process S_1..S_n taken prefix by prefix,
and the stationary law of a chain: the fixtures and references that the
ensemble walks and chain models are checked against.
"""

import numpy as np

from mflil.models import LogBase, ln_base, log_symbol_weights, path_rng, sample_symbols
from mflil.symbolic import Word


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


def sample_path(model, n: int, seed: int, path_index: int = 0) -> Word:
    """One sampled path of length n as a Word, from the stream (seed, path_index)."""
    syms = sample_symbols(model, n, path_rng(seed, path_index))
    return Word(model.alphabet, tuple(int(s) for s in syms))


def s_process(model, w: Word, base: LogBase = LogBase.NATURAL) -> np.ndarray:
    """S_1..S_n along a non-empty word: S_j = -log_b of the mass of its j-prefix."""
    syms = np.asarray(w.symbols, dtype=np.intp)
    if model.core.kind == "chain":
        return np.cumsum(-model.core.log_factors(syms) / ln_base(model, base))
    return np.cumsum(-log_symbol_weights(model, base)[syms])
