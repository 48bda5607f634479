"""Pre-run calibration oracles and the cross-check harness.

Every numerical constant that a test asserts against has an independent
origin recorded here: a deliberately naive recomputation (extended-precision
formula, brute-force enumeration, closed-form eigenvalue, Gaussian tail
budget) that shares no code with the optimized paths in spectrum/lil/qb.
One table, _ORACLES, holds a row per record: its quantity, method,
tolerance and note, its naive oracle and its main-path check, which reads
the zoo models by name. build_oracles evaluates the oracle column and loads
no model; verify_records loads the zoo once, recomputes each record through
its row's main path and compares within the record's tolerance, so a
drifting implementation fails loudly with both values in hand. It refuses a
quantity that no row names. One record, the Gaussian KS budget, has no main
path and passes as informational.

The records also serve as a frozen-constant registry: the hidden `oracles`
CLI subcommand writes them to oracles.json through the writer of every other
JSON artifact, with the same formatting conventions (non-finite floats as
their repr strings).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import mpmath as mp

from .errors import ValidationError
from .gauges import theta_correction
from .lil import exact_moments, running_max_tail
from .qb import qb_constant
from .spectrum import LogBase, chi, dimension, sigma2, sigma2_scale_free, tau, tau_scale_free
from .zoo import zoo_models


@dataclass(frozen=True)
class OracleRecord:
    quantity: str
    method: str  # 'closed-form' | 'enumeration' | 'gaussian-approx' | 'high-precision'
    value: float
    tolerance: float
    note: str


@dataclass(frozen=True)
class OracleCheck:
    quantity: str
    oracle_value: float
    main_value: Optional[float]
    ok: bool
    tolerance: float


def _mpf(x: str):
    """Parse '0.25' or 'a/b' into an exact mpf at the ambient precision."""
    if "/" in x:
        num, den = x.split("/")
        return mp.mpf(num) / mp.mpf(den)
    return mp.mpf(x)


def _mp_bernoulli_dimension(p: str) -> float:
    with mp.workdps(50):
        pp = _mpf(p)
        qq = 1 - pp
        return float(-(pp * mp.log(pp, 2) + qq * mp.log(qq, 2)))


def _mp_bernoulli_sigma2_natural(p: str) -> float:
    with mp.workdps(50):
        pp = _mpf(p)
        qq = 1 - pp
        return float(pp * qq * mp.log(pp / qq) ** 2 / mp.log(2))


def _mp_selfsimilar_dimension(probs, ratios) -> float:
    with mp.workdps(50):
        p = [_mpf(x) for x in probs]
        r = [_mpf(x) for x in ratios]
        num = mp.fsum(pi * mp.log(pi) for pi in p)
        den = mp.fsum(pi * mp.log(ri) for pi, ri in zip(p, r))
        return float(num / den)


def _mp_selfsimilar_sigma2_natural(probs, ratios) -> float:
    with mp.workdps(50):
        p = [_mpf(x) for x in probs]
        r = [_mpf(x) for x in ratios]
        den = -mp.fsum(pi * mp.log(ri) for pi, ri in zip(p, r))
        d = -mp.fsum(pi * mp.log(pi) for pi in p) / den
        num = mp.fsum(pi * (mp.log(pi) - d * mp.log(ri)) ** 2 for pi, ri in zip(p, r))
        return float(num / den)


_MARKOV_P = (("0.9", "0.1"), ("0.5", "0.5"))


def _mp_markov_tau_star(q):
    """log2 of the Perron root of the entrywise q-th power, 2x2 closed form."""
    a = _mpf(_MARKOV_P[0][0]) ** q
    b = _mpf(_MARKOV_P[0][1]) ** q
    c = _mpf(_MARKOV_P[1][0]) ** q
    e = _mpf(_MARKOV_P[1][1]) ** q
    tr = a + e
    disc = mp.sqrt((a - e) ** 2 + 4 * b * c)
    return mp.log((tr + disc) / 2, 2)


def _mp_markov_dimension() -> float:
    with mp.workdps(50):
        pi = [mp.mpf(5) / 6, mp.mpf(1) / 6]
        P = [[_mpf(x) for x in row] for row in _MARKOV_P]
        h = -mp.fsum(
            pi[i] * P[i][j] * mp.log(P[i][j]) for i in range(2) for j in range(2)
        )
        return float(h / mp.log(2))


def _mp_markov_sigma2_natural() -> float:
    with mp.workdps(60):
        h = mp.mpf("1e-12")
        val = (_mp_markov_tau_star(1 + h) - 2 * _mp_markov_tau_star(mp.mpf(1)) + _mp_markov_tau_star(1 - h)) / h ** 2
        return float(val)


def _mp_markov_tau2() -> float:
    with mp.workdps(50):
        return float(_mp_markov_tau_star(mp.mpf(2)))


def _enumeration_moments(weights, log_values, n: int) -> tuple[float, float]:
    """Brute-force E and Var of S_n by walking all words; float probabilities."""
    words = []  # (probability, S value) of every word
    for word in itertools.product(range(len(weights)), repeat=n):
        prob = 1.0
        s = 0.0
        for sym in word:
            prob *= weights[sym]
            s += log_values[sym]
        words.append((prob, s))
    mean = math.fsum(p * s for p, s in words)
    var = math.fsum(p * (s - mean) ** 2 for p, s in words)
    return mean, var


def _naive_tail(p: float, n0: int, n1: int, a: float) -> float:
    """First-passage over the barrier for a two-weight product, dict DP.

    The state is the number of rare symbols so far. Its probability is held
    exactly, as an integer numerator over den^k at level k, where num / den
    is p as an exact ratio (p.as_integer_ratio()): the common symbol
    multiplies it by den - num and the rare one by num. A state absorbed at
    level k adds its numerator times den^(n1 - k) to the hit numerator over
    den^n1. Python's int division rounds correctly, as Fraction's float
    does, so the tail is the exact rational rounded once.
    """
    d = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    x1 = -math.log2(p)  # increment when the rare symbol is drawn
    x0 = -math.log2(1 - p)
    num, den = p.as_integer_ratio()
    alive = {0: 1}  # number of rare symbols so far -> numerator over den^k
    hit = 0
    for k in range(1, n1 + 1):
        nxt: dict[int, int] = {}
        for ones, w in alive.items():
            nxt[ones] = nxt.get(ones, 0) + w * (den - num)
            nxt[ones + 1] = nxt.get(ones + 1, 0) + w * num
        alive = nxt
        if k >= n0:
            still = {}
            for ones, w in alive.items():
                s = ones * x1 + (k - ones) * x0
                if s - k * d >= a:
                    hit += w * den ** (n1 - k)
                else:
                    still[ones] = w
            alive = still
    return hit / den ** n1


def _mp_theta_exponent_2pow16() -> float:
    with mp.workdps(50):
        v = mp.mpf(65536)
        return float(mp.sqrt(2 * v * mp.log(mp.log(v))))


def _mp_bernoulli_chi_half(p: str) -> float:
    """tau(1/2) minus half the dimension, both in bits, at 50 digits."""
    with mp.workdps(50):
        pp = _mpf(p)
        return float(mp.log(mp.sqrt(pp) + mp.sqrt(1 - pp), 2) - mp.mpf("0.5") * _mp_bernoulli_dimension(p))


def _ks_budget() -> float:
    """Gaussian budget for the ensemble normality distance at N=1e5, n=1e4:
    Kolmogorov 99.9% quantile over sqrt(N) plus half the largest lattice atom."""
    sig_b2 = math.sqrt(_mp_bernoulli_sigma2_natural("0.25") / math.log(2.0))
    lattice = math.log2(3.0) / (sig_b2 * math.sqrt(1e4))
    return 1.949 / math.sqrt(1e5) + 0.5 * lattice / math.sqrt(2.0 * math.pi)


class _Row(NamedTuple):
    """One oracle: its record's fields, its naive route and its main-path check."""

    quantity: str
    method: str  # 'closed-form' | 'enumeration' | 'gaussian-approx' | 'high-precision'
    tolerance: float
    note: str
    oracle: Callable[[], float]  # calls no main-path code
    main: Optional[Callable[[dict], float]]  # reads the zoo models by name; None: informational


_QUARTER_S8 = ((0.75, 0.25), (-math.log2(0.75), -math.log2(0.25)), 8)  # base-2 values
_BIASED_S8 = ((0.25, 0.75), (-math.log(0.25), -math.log(0.75)), 8)  # natural values

# the oracle table, in the order of oracle_checks.json
_ORACLES = {row.quantity: row for row in (
    _Row("bernoulli_half.dimension", "closed-form", 1e-14, "uniform binary weights",
         lambda: 1.0, lambda z: dimension(z["bernoulli_half"])),
    _Row("bernoulli_half.sigma2_natural", "closed-form", 1e-14, "equal weights, zero curvature",
         lambda: 0.0, lambda z: sigma2_scale_free(z["bernoulli_half"])),
    _Row("bernoulli_quarter.dimension", "high-precision", 1e-12, "two-point entropy over log 2 at 50 digits",
         lambda: _mp_bernoulli_dimension("0.25"), lambda z: dimension(z["bernoulli_quarter"])),
    _Row("bernoulli_quarter.sigma2_natural", "high-precision", 1e-12,
         "two-point log-weight variance over log 2",
         lambda: _mp_bernoulli_sigma2_natural("0.25"), lambda z: sigma2_scale_free(z["bernoulli_quarter"])),
    _Row("bernoulli_quarter.sigma2_base2", "high-precision", 1e-12, "natural curvature divided by log 2",
         lambda: _mp_bernoulli_sigma2_natural("0.25") / math.log(2.0),
         lambda z: sigma2(z["bernoulli_quarter"], LogBase.BASE_2)),
    _Row("bernoulli_quarter.tau_at_2", "closed-form", 1e-12, "log2 of the power sum",
         lambda: math.log2(0.25 ** 2 + 0.75 ** 2), lambda z: tau(z["bernoulli_quarter"], 2.0)),
    _Row("bernoulli_quarter.chi_at_half", "high-precision", 1e-12,
         "tau(1/2) minus half the dimension at 50 digits",
         lambda: _mp_bernoulli_chi_half("0.25"), lambda z: chi(z["bernoulli_quarter"], 0.5)),
    _Row("cantor_natural.dimension", "high-precision", 1e-12, "log 2 over log 3",
         lambda: float(mp.log(2) / mp.log(3)), lambda z: dimension(z["cantor_natural"])),
    _Row("cantor_natural.delta", "high-precision", 1e-12, "similarity dimension of the middle-third set",
         lambda: float(mp.log(2) / mp.log(3)), lambda z: tau_scale_free(z["cantor_natural"], 0.0)),
    _Row("cantor_natural.sigma2_natural", "closed-form", 1e-12,
         "weights equal the contraction powers, zero curvature",
         lambda: 0.0, lambda z: sigma2_scale_free(z["cantor_natural"])),
    _Row("cantor_biased.dimension", "high-precision", 1e-12, "entropy over mean log contraction at 50 digits",
         lambda: _mp_selfsimilar_dimension(("0.25", "0.75"), ("1/3", "1/3")),
         lambda z: dimension(z["cantor_biased"])),
    _Row("cantor_biased.sigma2_natural", "high-precision", 1e-12,
         "centered second moment over mean log contraction",
         lambda: _mp_selfsimilar_sigma2_natural(("0.25", "0.75"), ("1/3", "1/3")),
         lambda z: sigma2_scale_free(z["cantor_biased"])),
    _Row("cantor_biased.tau_at_2", "high-precision", 1e-12, "equal-ratio power sum: log(5/8)/log 3",
         lambda: float(mp.log(mp.mpf("0.625")) / mp.log(3)), lambda z: tau(z["cantor_biased"], 2.0)),
    _Row("markov_chain.dimension", "high-precision", 1e-12, "entropy rate over log 2 at 50 digits",
         _mp_markov_dimension, lambda z: dimension(z["markov_chain"])),
    _Row("markov_chain.sigma2_natural", "high-precision", 1e-12,
         "second difference of the closed 2x2 eigenvalue exponent, h=1e-12 at 60 digits",
         _mp_markov_sigma2_natural, lambda z: sigma2_scale_free(z["markov_chain"])),
    _Row("markov_chain.tau_at_2", "high-precision", 1e-12, "closed 2x2 eigenvalue of the squared entries",
         _mp_markov_tau2, lambda z: tau(z["markov_chain"], 2.0)),
    _Row("markov_chain.qb_constant", "closed-form", 1e-12,
         "max over transition/stationary ratios and reciprocals",
         lambda: 3.0, lambda z: qb_constant(z["markov_chain"]).C_hat),
    _Row("bernoulli_quarter.mean_s8", "enumeration", 1e-12, "all 2^8 words, base-2 values",
         lambda: _enumeration_moments(*_QUARTER_S8)[0],
         lambda z: exact_moments(z["bernoulli_quarter"], 8)[0]),
    _Row("bernoulli_quarter.var_s8", "enumeration", 1e-12, "all 2^8 words, base-2 values",
         lambda: _enumeration_moments(*_QUARTER_S8)[1],
         lambda z: exact_moments(z["bernoulli_quarter"], 8)[1]),
    _Row("cantor_biased.mean_s8", "enumeration", 1e-12, "all 2^8 words, natural values",
         lambda: _enumeration_moments(*_BIASED_S8)[0], lambda z: exact_moments(z["cantor_biased"], 8)[0]),
    _Row("cantor_biased.var_s8", "enumeration", 1e-12, "all 2^8 words, natural values",
         lambda: _enumeration_moments(*_BIASED_S8)[1], lambda z: exact_moments(z["cantor_biased"], 8)[1]),
    *(_Row(f"bernoulli_quarter.tail_16_32_a{a}", "enumeration", 1e-13,
           "first-passage dictionary dynamic program, rational weights",
           lambda a=a: _naive_tail(0.25, 16, 32, float(a)),
           lambda z, a=a: float(running_max_tail(z["bernoulli_quarter"], 16, 32, float(a))))
      for a in (2, 4, 6)),
    _Row("theta_base2.exponent_at_2pow16", "high-precision", 1e-9,
         "sqrt(2 v ln ln v) at v = 65536, 50 digits",
         _mp_theta_exponent_2pow16,
         lambda z: theta_correction("base-2").log_theta_from_u(65536.0 * math.log(2.0)) / math.log(2.0)),
    # the one informational record: no main path computes a budget
    _Row("gaussian.ks_budget_N1e5_n1e4", "gaussian-approx", 0.02,
         "distribution-free quantile plus lattice-atom allowance; the tolerance "
         "field carries the acceptance threshold it must stay under",
         _ks_budget, None),
)}


def build_oracles() -> list[OracleRecord]:
    """Every anchored constant by its naive route; loads no model."""
    return [OracleRecord(row.quantity, row.method, float(row.oracle()), row.tolerance, row.note)
            for row in _ORACLES.values()]


def verify_records(records: list[OracleRecord]) -> list[OracleCheck]:
    """Recompute each record through its row's main path.

    A quantity that no row names is refused. The record whose row has no
    main path passes as informational, with main_value None.
    """
    models = zoo_models()
    out = []
    for r in records:
        if r.quantity not in _ORACLES:
            raise ValidationError(f"no oracle row names {r.quantity!r}")
        main = _ORACLES[r.quantity].main
        if main is None:
            out.append(OracleCheck(r.quantity, r.value, None, True, r.tolerance))
            continue
        value = main(models)
        ok = abs(value - r.value) <= r.tolerance
        out.append(OracleCheck(r.quantity, r.value, float(value), ok, r.tolerance))
    return out
