"""Pre-run calibration oracles and the cross-check harness.

Every numerical constant that a test asserts against has an independent
origin recorded here: a deliberately naive recomputation (extended-precision
formula, brute-force enumeration, closed-form eigenvalue, Gaussian tail
budget) that shares no code with the optimized paths in spectrum/lil/qb.
build_oracles produces the records; verify_records recomputes each quantity
through the main code path and compares within the record's tolerance, so a
drifting implementation fails loudly with both values in hand.

The records also serve as a frozen-constant registry: the hidden `oracles`
CLI subcommand writes them to oracles.json through the writer of every other
JSON artifact, with the same formatting conventions (non-finite floats as
their repr strings).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import mpmath as mp

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


def build_oracles() -> list[OracleRecord]:
    """Recompute every anchored constant by its naive route."""
    rec = []

    def add(q, m, v, tol, note):
        rec.append(OracleRecord(q, m, float(v), tol, note))

    add("bernoulli_half.dimension", "closed-form", 1.0, 1e-14, "uniform binary weights")
    add("bernoulli_half.sigma2_natural", "closed-form", 0.0, 1e-14, "equal weights, zero curvature")
    add("bernoulli_quarter.dimension", "high-precision",
        _mp_bernoulli_dimension("0.25"), 1e-12, "two-point entropy over log 2 at 50 digits")
    add("bernoulli_quarter.sigma2_natural", "high-precision",
        _mp_bernoulli_sigma2_natural("0.25"), 1e-12, "two-point log-weight variance over log 2")
    add("bernoulli_quarter.sigma2_base2", "high-precision",
        _mp_bernoulli_sigma2_natural("0.25") / math.log(2.0), 1e-12, "natural curvature divided by log 2")
    add("bernoulli_quarter.tau_at_2", "closed-form",
        math.log2(0.25 ** 2 + 0.75 ** 2), 1e-12, "log2 of the power sum")
    with mp.workdps(50):
        chi_half = float(
            mp.log(mp.sqrt(mp.mpf("0.25")) + mp.sqrt(mp.mpf("0.75")), 2)
            - mp.mpf("0.5") * _mp_bernoulli_dimension("0.25")
        )
    add("bernoulli_quarter.chi_at_half", "high-precision", chi_half, 1e-12,
        "tau(1/2) minus half the dimension at 50 digits")
    add("cantor_natural.dimension", "high-precision",
        float(mp.log(2) / mp.log(3)), 1e-12, "log 2 over log 3")
    add("cantor_natural.delta", "high-precision",
        float(mp.log(2) / mp.log(3)), 1e-12, "similarity dimension of the middle-third set")
    add("cantor_natural.sigma2_natural", "closed-form", 0.0, 1e-12,
        "weights equal the contraction powers, zero curvature")
    add("cantor_biased.dimension", "high-precision",
        _mp_selfsimilar_dimension(("0.25", "0.75"), ("1/3", "1/3")), 1e-12,
        "entropy over mean log contraction at 50 digits")
    add("cantor_biased.sigma2_natural", "high-precision",
        _mp_selfsimilar_sigma2_natural(("0.25", "0.75"), ("1/3", "1/3")), 1e-12,
        "centered second moment over mean log contraction")
    add("cantor_biased.tau_at_2", "high-precision",
        float(mp.log(mp.mpf("0.625")) / mp.log(3)), 1e-12,
        "equal-ratio power sum: log(5/8)/log 3")
    add("markov_chain.dimension", "high-precision",
        _mp_markov_dimension(), 1e-12, "entropy rate over log 2 at 50 digits")
    add("markov_chain.sigma2_natural", "high-precision",
        _mp_markov_sigma2_natural(), 1e-12,
        "second difference of the closed 2x2 eigenvalue exponent, h=1e-12 at 60 digits")
    add("markov_chain.tau_at_2", "high-precision",
        _mp_markov_tau2(), 1e-12, "closed 2x2 eigenvalue of the squared entries")
    add("markov_chain.qb_constant", "closed-form", 3.0, 1e-12,
        "max over transition/stationary ratios and reciprocals")

    mean8, var8 = _enumeration_moments(
        (0.75, 0.25), (-math.log2(0.75), -math.log2(0.25)), 8
    )
    add("bernoulli_quarter.mean_s8", "enumeration", mean8, 1e-12, "all 2^8 words, base-2 values")
    add("bernoulli_quarter.var_s8", "enumeration", var8, 1e-12, "all 2^8 words, base-2 values")
    mean8c, var8c = _enumeration_moments(
        (0.25, 0.75), (-math.log(0.25), -math.log(0.75)), 8
    )
    add("cantor_biased.mean_s8", "enumeration", mean8c, 1e-12, "all 2^8 words, natural values")
    add("cantor_biased.var_s8", "enumeration", var8c, 1e-12, "all 2^8 words, natural values")

    for a in (2, 4, 6):
        add(f"bernoulli_quarter.tail_16_32_a{a}", "enumeration",
            _naive_tail(0.25, 16, 32, float(a)), 1e-13,
            "first-passage dictionary dynamic program, rational weights")

    add("theta_base2.exponent_at_2pow16", "high-precision",
        _mp_theta_exponent_2pow16(), 1e-9,
        "sqrt(2 v ln ln v) at v = 65536, 50 digits")

    # Gaussian budget for the ensemble normality distance at N=1e5, n=1e4:
    # Kolmogorov 99.9% quantile over sqrt(N) plus half the largest lattice atom.
    sig_b2 = math.sqrt(_mp_bernoulli_sigma2_natural("0.25") / math.log(2.0))
    lattice = math.log2(3.0) / (sig_b2 * math.sqrt(1e4))
    ks_budget = 1.949 / math.sqrt(1e5) + 0.5 * lattice / math.sqrt(2.0 * math.pi)
    add("gaussian.ks_budget_N1e5_n1e4", "gaussian-approx", ks_budget, 0.02,
        "distribution-free quantile plus lattice-atom allowance; the tolerance "
        "field carries the acceptance threshold it must stay under")

    return rec


# main-path recomputations keyed by quantity


def _main_value(quantity: str, models: dict) -> Optional[float]:
    name, _, what = quantity.partition(".")
    if name in models:
        model = models[name]
        if what == "dimension":
            return dimension(model)
        if what == "sigma2_natural":
            return sigma2_scale_free(model)
        if what == "sigma2_base2":
            return sigma2(model, LogBase.BASE_2)
        if what == "tau_at_2":
            return tau(model, 2.0)
        if what == "chi_at_half":
            return chi(model, 0.5)
        if what == "delta":
            return tau_scale_free(model, 0.0)
        if what == "qb_constant":
            return qb_constant(model).C_hat
        if what in ("mean_s8", "var_s8"):
            mean, var = exact_moments(model, 8)
            return mean if what == "mean_s8" else var
        if what.startswith("tail_"):
            bits = what.split("_")  # tail_<n0>_<n1>_a<a>
            n0, n1, a = int(bits[1]), int(bits[2]), float(bits[3][1:])
            return float(running_max_tail(model, n0, n1, a))
    if quantity == "theta_base2.exponent_at_2pow16":
        tc = theta_correction("base-2")
        return tc.log_theta_from_u(65536.0 * math.log(2.0)) / math.log(2.0)
    return None


def verify_records(records: list[OracleRecord]) -> list[OracleCheck]:
    """Recompute each oracle through the main paths; informational records pass."""
    models = zoo_models()
    out = []
    for r in records:
        main = _main_value(r.quantity, models)
        if main is None:
            out.append(OracleCheck(r.quantity, r.value, None, True, r.tolerance))
            continue
        ok = abs(main - r.value) <= r.tolerance
        out.append(OracleCheck(r.quantity, r.value, float(main), ok, r.tolerance))
    return out
