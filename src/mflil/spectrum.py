"""L^q spectra, dimensions, curvature, and the chi/theta inversion layer.

The canonical internal object is the scale-free spectrum tau(q): the exponent
such that the level-n partition sum of q-th mass powers behaves like
(scale)^(-tau(q)). For grid families this is the base-ell spectrum
tau_n(q) = log_ell(sum m(I)^q)/n; for self-similar measures it is the root of
sum_i p_i^q r_i^tau = 1. Everything else (dimension d = -tau'(1), curvature
sigma2 = tau''(1), chi(q) = tau(1-q) - q d) derives from it.

Base conventions. Reported values can be converted between natural, base-2 and
base-ell units:

    tau_base_b   = tau_natural / ln b,   tau_natural = tau_scale_free * ln ell
    sigma2_base_b = sigma2_natural / ln b, sigma2_natural = tau_scale_free''(1)

so for a binary grid sigma2 in base-2 units is the per-symbol variance of the
bit-valued mass increment, while sigma2_natural is the variance per unit of
natural log scale (which is also the self-similar closed form). Dimension is
scale-free and carries no base.

Self-similar measures have no grid base; only natural units are defined for
them and conversion requests to other bases raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import FlatSpectrumError, NumericalError, ValidationError
from .models import (
    BernoulliProduct,
    LogBase,
    MarkovMeasure,
    MeasureModel,
    MultinomialMeasure,
    SelfSimilarMeasure,
    canonical_base,
    chain_log_masses,
    check_enumeration_budget,
    log_symbol_weights,
    stationary_distribution,
    support_info,
    symbol_weights,
)

_IMPLICIT_TOL = 1e-13
_PERRON_TOL = 1e-13
_DERIV_H = 1e-4
_DIM_XCHECK_TOL = 1e-8
_SIGMA2_FLAG_TOL = 1e-4
_FLAT_TOL = 1e-12


def _grid_ell(model: MeasureModel) -> int:
    if isinstance(model, SelfSimilarMeasure):
        raise ValidationError(
            "self-similar spectra are natural-scale; base-ell/base-2 units are undefined"
        )
    return model.alphabet.ell


def tau_to_base(model: MeasureModel, tau_star: float, base: LogBase) -> float:
    """Convert a scale-free tau value to the requested units."""
    if isinstance(model, SelfSimilarMeasure):
        if base is not LogBase.NATURAL:
            _grid_ell(model)
        return tau_star
    ln_ell = math.log(model.alphabet.ell)
    if base is LogBase.BASE_ELL:
        return tau_star
    if base is LogBase.NATURAL:
        return tau_star * ln_ell
    return tau_star * ln_ell / math.log(2.0)


def sigma2_to_base(model: MeasureModel, sigma2_natural: float, base: LogBase) -> float:
    """Convert the natural curvature constant to the requested units."""
    if isinstance(model, SelfSimilarMeasure):
        if base is not LogBase.NATURAL:
            _grid_ell(model)
        return sigma2_natural
    if base is LogBase.NATURAL:
        return sigma2_natural
    if base is LogBase.BASE_ELL:
        return sigma2_natural / math.log(model.alphabet.ell)
    return sigma2_natural / math.log(2.0)


# ---------------------------------------------------------------------------
# closed-form and root-based tau evaluators (scale-free units)


def tau_closed_bernoulli(p: float, q: float) -> float:
    """log2(p^q + (1-p)^q)."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must lie in (0,1), got {p!r}")
    return float(logsumexp([q * math.log(p), q * math.log1p(-p)]) / math.log(2.0))


def _tau_closed_multinomial(model: MultinomialMeasure, q: float) -> float:
    lw = log_symbol_weights(model)
    lw = lw[np.isfinite(lw)]
    return float(logsumexp(q * lw) / math.log(model.alphabet.ell))


def tau_implicit_selfsimilar(
    probs: Sequence[float],
    ratios: Sequence[float],
    q: float,
    tol: float = _IMPLICIT_TOL,
) -> float:
    """Root tau of sum_i p_i^q r_i^tau = 1, by bracketing plus safeguarded Newton.

    The map tau -> sum p_i^q r_i^tau is strictly decreasing (all r_i < 1), so
    the root is unique. Work happens on G(tau) = log(sum ...); the returned
    root satisfies |sum p_i^q r_i^tau - 1| <= tol.
    """
    lp = np.log(np.asarray(probs, dtype=float))
    lr = np.log(np.asarray(ratios, dtype=float))

    def g_and_slope(t: float) -> tuple[float, float]:
        z = q * lp + t * lr
        m = z.max()
        w = np.exp(z - m)
        s = w.sum()
        g = m + math.log(s)
        slope = float((w @ lr) / s)  # dG/dtau, always negative
        return float(g), slope

    # bracket by geometric expansion around the equal-ratio initial guess
    t0 = float(logsumexp(q * lp) / (-lr.max()))
    g0, _ = g_and_slope(t0)
    step = 1.0
    if g0 > 0:  # root lies above t0 (G decreasing)
        lo, glo = t0, g0
        hi = t0 + step
        ghi, _ = g_and_slope(hi)
        while ghi > 0:
            lo, glo = hi, ghi
            step *= 2.0
            hi += step
            ghi, _ = g_and_slope(hi)
    else:
        hi, ghi = t0, g0
        lo = t0 - step
        glo, _ = g_and_slope(lo)
        while glo < 0:
            hi, ghi = lo, glo
            step *= 2.0
            lo -= step
            glo, _ = g_and_slope(lo)
    # safeguarded Newton: fall back to bisection when the step leaves [lo, hi]
    t = 0.5 * (lo + hi)
    for _ in range(200):
        g, slope = g_and_slope(t)
        if abs(math.expm1(g)) <= tol:
            return t
        if g > 0:
            lo = t
        else:
            hi = t
        t_newton = t - g / slope
        t = t_newton if lo < t_newton < hi else 0.5 * (lo + hi)
    raise NumericalError(
        f"implicit spectrum root did not reach |F| <= {tol} at q={q!r}"
    )


def _check_irreducible(P: np.ndarray, labels: Sequence[int]) -> None:
    adj = P > 0
    k = adj.shape[0]
    reach = adj | np.eye(k, dtype=bool)
    for _ in range(k):
        new = reach | (reach @ adj)
        if (new == reach).all():
            break
        reach = new
    if reach.all():
        return
    # name the absorbing classes to make the error actionable
    mutual = reach & reach.T
    seen: set[int] = set()
    absorbing = []
    for i in range(k):
        if i in seen:
            continue
        cls = [j for j in range(k) if mutual[i, j]]
        seen.update(cls)
        outside = [j for j in range(k) if j not in cls]
        if not any(adj[c, j] for c in cls for j in outside):
            absorbing.append([int(labels[c]) for c in cls])
    raise ValidationError(
        f"active-state graph is reducible; absorbing class(es): {absorbing}"
    )


def perron_root(M: np.ndarray, tol: float = _PERRON_TOL, max_iter: int = 200000) -> float:
    """Spectral radius of a nonnegative matrix by shifted power iteration.

    The shift M + sI (s = max row sum) makes the iteration converge for
    periodic sparsity patterns as well. Iterates until the estimate stalls at
    float resolution; tol is the acceptance ceiling, not the target.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("perron_root expects a square matrix")
    if np.any(M < 0):
        raise ValidationError("perron_root expects a nonnegative matrix")
    k = M.shape[0]
    if k == 1:
        return float(M[0, 0])
    s = float(M.sum(axis=1).max())
    if s == 0.0:
        return 0.0
    B = M + s * np.eye(k)
    v = np.full(k, 1.0 / math.sqrt(k))
    lam = 0.0
    stall = 0
    for _ in range(max_iter):
        w = B @ v
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return 0.0
        w /= nrm
        lam_new = float(w @ (B @ w))
        # stall means "moving by at most a couple ulp"; anything tighter than
        # machine eps can never trigger and the loop runs to max_iter
        if abs(lam_new - lam) <= 4.0 * np.finfo(float).eps * max(1.0, abs(lam_new)):
            stall += 1
            if stall >= 4:
                return lam_new - s
        else:
            stall = 0
        if abs(lam_new - lam) <= 1e-3 * tol * max(1.0, abs(lam_new)):
            # close enough that a few more sweeps only polish round-off
            lam = lam_new
            v = w
            continue
        lam = lam_new
        v = w
    if abs(lam) > 0 and stall == 0:
        # accept if the last movement was already below the ceiling
        w = B @ v
        nrm = float(np.linalg.norm(w))
        lam_new = float((w / nrm) @ (B @ (w / nrm)))
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new - s
        raise NumericalError("power iteration did not converge to the Perron root")
    return lam - s


def tau_perron_markov(model: MarkovMeasure, q: float) -> float:
    """Scale-free tau(q) = log_ell of the Perron root of the q-th entry power."""
    active = model.core.active
    P = model.core.P[np.ix_(active, active)]
    _check_irreducible(P, active)
    Mq = np.zeros_like(P)
    pos = P > 0
    Mq[pos] = P[pos] ** q  # 0^q := 0 by convention, also for q <= 0
    rho = perron_root(Mq)
    if rho <= 0:
        raise NumericalError(f"Perron root is not positive at q={q!r}")
    return math.log(rho) / math.log(model.alphabet.ell)


def tau_scale_free(model: MeasureModel, q: float, method: str = "auto") -> float:
    """Dispatch to the family's evaluator; result in scale-free units."""
    if method not in ("auto", "closed", "implicit", "perron"):
        raise ValidationError(f"unknown tau method {method!r}")
    if isinstance(model, BernoulliProduct):
        if method in ("auto", "closed"):
            return tau_closed_bernoulli(model.p, q)
        raise ValidationError(f"method {method!r} does not apply to the Bernoulli family")
    if isinstance(model, MultinomialMeasure):
        if method in ("auto", "closed"):
            return _tau_closed_multinomial(model, q)
        raise ValidationError(f"method {method!r} does not apply to the multinomial family")
    if isinstance(model, SelfSimilarMeasure):
        if method in ("auto", "implicit"):
            return tau_implicit_selfsimilar(model.probs, model.ratios, q)
        raise ValidationError(f"method {method!r} does not apply to the self-similar family")
    if method in ("auto", "perron"):
        return tau_perron_markov(model, q)
    raise ValidationError(f"method {method!r} does not apply to the Markov family")


def tau(model: MeasureModel, q: float, base: Optional[LogBase] = None, method: str = "auto") -> float:
    """tau(q) in the requested units (default: the family's canonical base)."""
    base = base or canonical_base(model)
    return tau_to_base(model, tau_scale_free(model, q, method), base)


# ---------------------------------------------------------------------------
# empirical partition sums


def log_partition_sum(model: MeasureModel, q: float, n: int, method: str = "auto") -> float:
    """Natural log of sum over nonzero level-n cylinders of m(I)^q.

    method 'factorized' uses the product structure (grid product families) or
    scaled transfer-matrix powers (Markov); 'enumerate' walks every word within
    the enumeration budget. 'auto' enumerates when affordable for Markov and
    factorizes otherwise.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if method not in ("auto", "factorized", "enumerate"):
        raise ValidationError(f"unknown partition method {method!r}")
    if isinstance(model, SelfSimilarMeasure):
        raise ValidationError(
            "self-similar cylinders have no common level diameter; "
            "use tau_empirical_selfsimilar"
        )
    if isinstance(model, (BernoulliProduct, MultinomialMeasure)):
        if method == "enumerate":
            check_enumeration_budget(model, n)
            lw = log_symbol_weights(model)
            lw = lw[np.isfinite(lw)]
            acc = np.zeros(1)
            for _ in range(n):
                acc = (acc[:, None] + lw[None, :]).ravel()
            return float(logsumexp(q * acc))
        lw = log_symbol_weights(model)
        lw = lw[np.isfinite(lw)]
        return float(n * logsumexp(q * lw))
    # Markov
    core = model.core
    if method == "enumerate" or (method == "auto" and core.k ** n <= 2 ** 14):
        logmass = chain_log_masses(model, n)
        return float(logsumexp(q * logmass[np.isfinite(logmass)]))
    # scaled matrix powers in the log domain, over the active states
    pi_a = core.pi[list(core.active)]
    P_a = core.P[np.ix_(core.active, core.active)]
    Mq = np.zeros_like(P_a)
    pos = P_a > 0
    Mq[pos] = P_a[pos] ** q
    v = np.zeros(pi_a.size)
    ppos = pi_a > 0
    v[ppos] = pi_a[ppos] ** q
    logscale = 0.0
    for _ in range(n - 1):
        v = v @ Mq
        s = float(v.max())
        if s <= 0:
            return float("-inf")
        v /= s
        logscale += math.log(s)
    return logscale + math.log(float(v.sum()))


def tau_empirical(
    model: MeasureModel,
    q: float,
    n: int,
    base: Optional[LogBase] = None,
    method: str = "auto",
) -> float:
    """Finite-level exponent tau_n(q) = log_ell(partition sum)/n, converted to `base`."""
    if isinstance(model, SelfSimilarMeasure):
        raise ValidationError("use tau_empirical_selfsimilar for the self-similar family")
    base = base or canonical_base(model)
    ls = log_partition_sum(model, q, n, method)
    tau_star = ls / (n * math.log(model.alphabet.ell))
    return tau_to_base(model, tau_star, base)


def tau_empirical_selfsimilar(model: SelfSimilarMeasure, q: float, n: int) -> float:
    """Root tau of the enumerated level-n identity sum m(w)^q diam(w)^tau = 1."""
    check_enumeration_budget(model, n)
    lp, lr = model.core.log_weights, model.core.log_ratios
    lm = np.zeros(1)
    ld = np.zeros(1)
    for _ in range(n):
        lm = (lm[:, None] + lp[None, :]).ravel()
        ld = (ld[:, None] + lr[None, :]).ravel()

    def g(t: float) -> float:
        return float(logsumexp(q * lm + t * ld))

    lo, hi = -1.0, 1.0
    while g(lo) < 0:
        lo *= 2.0
    while g(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = g(mid)
        if abs(math.expm1(val)) <= _IMPLICIT_TOL:
            return mid
        if val > 0:
            lo = mid
        else:
            hi = mid
    raise NumericalError("empirical self-similar exponent did not converge")


# ---------------------------------------------------------------------------
# derivatives at q = 1: dimension and curvature


def _richardson_first(f: Callable[[float], float], x0: float = 1.0, h: float = _DERIV_H):
    def central(hh: float) -> float:
        return (f(x0 + hh) - f(x0 - hh)) / (2.0 * hh)

    d1, d2 = central(h), central(h / 2.0)
    return (4.0 * d2 - d1) / 3.0, abs(d2 - d1) / 3.0


def _richardson_second(f: Callable[[float], float], x0: float = 1.0, h: float = _DERIV_H):
    f0 = f(x0)

    def central(hh: float) -> float:
        return (f(x0 + hh) - 2.0 * f0 + f(x0 - hh)) / (hh * hh)

    d1, d2 = central(h), central(h / 2.0)
    return (4.0 * d2 - d1) / 3.0, abs(d2 - d1) / 3.0


def _dimension_closed(model: MeasureModel) -> float:
    if isinstance(model, BernoulliProduct):
        p = model.p
        return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
    if isinstance(model, MultinomialMeasure):
        w = symbol_weights(model)
        w = w[w > 0]
        return float(-(w @ np.log(w)) / math.log(model.alphabet.ell))
    if isinstance(model, SelfSimilarMeasure):
        p, lp, lr = model.core.weights, model.core.log_weights, model.core.log_ratios
        return float((p @ lp) / (p @ lr))
    core = model.core
    pi_a = core.pi[list(core.active)]
    P_a = core.P[np.ix_(core.active, core.active)]
    if np.any(pi_a <= 0):
        # stationarity waived with mass off the active core: recompute
        pi_a = stationary_distribution(P_a)
    pi_a = pi_a / pi_a.sum()
    pos = P_a > 0
    lP = np.zeros_like(P_a)
    lP[pos] = np.log(P_a[pos])
    h_nat = float(-(pi_a[:, None] * P_a * lP).sum())
    return h_nat / math.log(model.alphabet.ell)


def dimension(model: MeasureModel) -> float:
    """Measure dimension d = -tau'(1), closed form cross-checked numerically.

    The closed form (entropy over log scale) must agree with a Richardson
    extrapolated central difference of tau at q = 1 within 1e-8; disagreement
    raises NumericalError carrying both values.
    """
    closed = _dimension_closed(model)
    num, _ = _richardson_first(lambda qq: tau_scale_free(model, qq))
    num = -num
    if abs(closed - num) > _DIM_XCHECK_TOL:
        raise NumericalError(
            f"dimension cross-check failed: closed={closed!r}, numeric={num!r}, "
            f"|diff|={abs(closed - num):.3e} > {_DIM_XCHECK_TOL}"
        )
    return closed


@dataclass(frozen=True)
class Sigma2Result:
    """Curvature tau''(1) in requested units, with an error bar when numerical."""

    value: float
    err: float
    method: str  # 'closed' or 'richardson'
    flagged: bool
    base: LogBase


def sigma2_scale_free(model: MeasureModel) -> Sigma2Result:
    """Natural-units curvature constant sigma2 = tau''(1) of the scale-free spectrum."""
    if isinstance(model, BernoulliProduct):
        p = model.p
        var_ln = p * (1.0 - p) * math.log(p / (1.0 - p)) ** 2
        return Sigma2Result(var_ln / math.log(2.0), 0.0, "closed", False, LogBase.NATURAL)
    if isinstance(model, MultinomialMeasure):
        w = symbol_weights(model)
        w = w[w > 0]
        lw = np.log(w)
        mean = float(w @ lw)
        var = float(w @ (lw - mean) ** 2)
        return Sigma2Result(var / math.log(model.alphabet.ell), 0.0, "closed", False, LogBase.NATURAL)
    if isinstance(model, SelfSimilarMeasure):
        p, lp, lr = model.core.weights, model.core.log_weights, model.core.log_ratios
        d = float((p @ lp) / (p @ lr))
        num = float(p @ (lp - d * lr) ** 2)
        return Sigma2Result(num / float(-(p @ lr)), 0.0, "closed", False, LogBase.NATURAL)
    # Markov: numerical second difference with a Richardson error estimate.
    val, err = _richardson_second(lambda qq: tau_scale_free(model, qq))
    flagged = err > _SIGMA2_FLAG_TOL * max(abs(val), 1e-30)
    return Sigma2Result(val, err, "richardson", flagged, LogBase.NATURAL)


def sigma2(model: MeasureModel, base: Optional[LogBase] = None) -> Sigma2Result:
    """Curvature constant in the requested units (see module docstring)."""
    base = base or canonical_base(model)
    res = sigma2_scale_free(model)
    scale = sigma2_to_base(model, 1.0, base)
    return Sigma2Result(res.value * scale, res.err * scale, res.method, res.flagged, base)


# ---------------------------------------------------------------------------
# chi, its inverse, theta, and the not-flat condition


def chi(model: MeasureModel, q: float, method: str = "auto") -> float:
    """chi(q) = tau(1-q) - q d in scale-free units; defined for q in [-1, 1]."""
    d = _dimension_closed(model)
    return tau_scale_free(model, 1.0 - q, method) - q * d


def is_flat(model: MeasureModel, tol: float = _FLAT_TOL) -> bool:
    """Flat spectrum: chi vanishes identically (equivalently d = delta)."""
    return abs(chi(model, 1.0)) <= tol and abs(chi(model, 0.5)) <= tol


@dataclass(frozen=True)
class ChiProfile:
    """chi restricted to one sign branch, with inversion and theta on top.

    side +1 works with chi(q) on (0, q_max]; side -1 with chi(-q), which is
    again positive and increasing under the not-flat condition.
    """

    model: MeasureModel
    side: int = 1
    q_max: float = 1.0
    flat: bool = field(default=False)

    def __post_init__(self):
        if self.side not in (1, -1):
            raise ValidationError("side must be +1 or -1")
        if not 0.0 < self.q_max <= 1.0:
            raise ValidationError("q_max must lie in (0, 1]")
        object.__setattr__(self, "flat", is_flat(self.model))

    def chi(self, q: float) -> float:
        if not 0.0 < q <= self.q_max:
            raise ValidationError(f"q={q!r} outside (0, {self.q_max}]")
        return chi(self.model, self.side * q)

    def chi_at_qmax(self) -> float:
        return self.chi(self.q_max)

    def inverse(self, y: float, tol: float = 1e-12) -> float:
        """q in (0, q_max] with chi(side*q) = y, by bisection."""
        if self.flat:
            raise FlatSpectrumError(
                "chi is identically zero (d = delta); no inverse exists"
            )
        top = self.chi_at_qmax()
        if not 0.0 < y <= top:
            raise ValidationError(
                f"y={y!r} outside the invertible range (0, {top!r}]"
            )
        lo, hi = 0.0, self.q_max
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            val = self.chi(mid) if mid > 0 else 0.0
            if abs(val - y) <= tol * max(1.0, abs(y)):
                return mid
            if val < y:
                lo = mid
            else:
                hi = mid
        raise NumericalError(f"chi inversion did not converge at y={y!r}")

    def theta(self, t: float) -> float:
        """theta(t) = 1/chi^{-1}(1/t); needs t >= 1/chi(q_max)."""
        if self.flat:
            raise FlatSpectrumError(
                "chi is identically zero (d = delta); theta is undefined"
            )
        if t <= 0:
            raise ValidationError(f"t must be positive, got {t!r}")
        top = self.chi_at_qmax()
        if 1.0 / t > top:
            raise ValidationError(
                f"t={t!r} below the domain floor 1/chi(q_max) = {1.0 / top!r}"
            )
        return 1.0 / self.inverse(1.0 / t)


def chi_inverse(model: MeasureModel, y: float, side: int = 1, q_max: float = 1.0) -> float:
    return ChiProfile(model, side, q_max).inverse(y)


def theta_gauge(model: MeasureModel, t: float, side: int = 1, q_max: float = 1.0) -> float:
    return ChiProfile(model, side, q_max).theta(t)


@dataclass(frozen=True)
class NotFlatResult:
    holds: bool
    flat: bool
    C: float
    alpha_lower_bound: float
    qs: tuple[float, ...]
    chis: tuple[float, ...]
    ratios: tuple[float, ...]
    side: int


def not_flat_check(
    model: MeasureModel,
    q_max: float = 1.0,
    levels: int = 12,
    side: int = 1,
) -> NotFlatResult:
    """Doubling condition 0 < chi(q) <= C chi(q/2) on a dyadic grid.

    Scans q_j = q_max 2^-j for j = 0..levels. Returns the sup of consecutive
    ratios as C and alpha = log2 C; for spectra with positive curvature the
    ratio tends to 4 (alpha to 2) as the scan window is refined toward 0.
    """
    if side not in (1, -1):
        raise ValidationError("side must be +1 or -1")
    if levels < 1:
        raise ValidationError("levels must be >= 1")
    qs = tuple(q_max * 2.0 ** (-j) for j in range(levels + 1))
    chis = tuple(chi(model, side * qq) for qq in qs)
    scale = max(abs(c) for c in chis)
    if scale <= _FLAT_TOL:
        return NotFlatResult(False, True, float("nan"), float("nan"), qs, chis, (), side)
    if any(c <= 0 for c in chis):
        return NotFlatResult(False, False, float("inf"), float("inf"), qs, chis, (), side)
    ratios = tuple(chis[j] / chis[j + 1] for j in range(levels))
    C = max(ratios)
    return NotFlatResult(True, False, C, math.log2(C), qs, chis, ratios, side)


# ---------------------------------------------------------------------------
# tabulation


@dataclass(frozen=True)
class SpectrumTable:
    """tau on a q grid plus the derived constants, all in one base."""

    q: tuple[float, ...]
    tau: tuple[float, ...]
    base: LogBase
    method: str
    d: float
    sigma2: float
    sigma2_err: float
    sigma2_flagged: bool
    delta: float
    flat: bool


def spectrum_table(
    model: MeasureModel,
    q_min: float = -2.0,
    q_max: float = 3.0,
    q_step: float = 0.05,
    base: Optional[LogBase] = None,
    method: str = "auto",
    empirical_n: Optional[int] = None,
) -> SpectrumTable:
    if q_step <= 0:
        raise ValidationError("q_step must be positive")
    if q_max < q_min:
        raise ValidationError("q_max must be >= q_min")
    base = base or canonical_base(model)
    count = int(round((q_max - q_min) / q_step)) + 1
    if q_step >= 1e-9:
        # snap accumulated float error so decimal grids hit 0 and 1 exactly
        qs = tuple(float(round(q_min + i * q_step, 12)) for i in range(count))
    else:
        qs = tuple(q_min + i * q_step for i in range(count))
    if empirical_n is not None:
        if isinstance(model, SelfSimilarMeasure):
            taus = tuple(tau_empirical_selfsimilar(model, qq, empirical_n) for qq in qs)
        else:
            taus = tuple(tau_empirical(model, qq, empirical_n, base) for qq in qs)
        used = f"empirical(n={empirical_n})"
    else:
        taus = tuple(tau(model, qq, base, method) for qq in qs)
        used = method
    d = dimension(model)
    s2 = sigma2(model, base)
    if isinstance(model, SelfSimilarMeasure):
        # tau(0) is the similarity dimension of the support (sum r_i^delta = 1)
        delta = tau_scale_free(model, 0.0)
    else:
        delta = support_info(model).delta
    return SpectrumTable(
        q=qs,
        tau=taus,
        base=base,
        method=used,
        d=d,
        sigma2=s2.value,
        sigma2_err=s2.err,
        sigma2_flagged=s2.flagged,
        delta=delta,
        flat=is_flat(model),
    )
