"""L^q spectra, dimensions, curvature, and the chi/theta inversion layer.

The canonical internal object is the scale-free spectrum tau(q): the exponent
such that the level-n partition sum of q-th mass powers behaves like
(scale)^(-tau(q)). For grid families this is the base-ell spectrum
tau_n(q) = log_ell(sum m(I)^q)/n; for self-similar measures it is the root of
sum_i p_i^q r_i^tau = 1.

One tau rule per family kind. tau_scale_free(model, q), and with it tau and
chi, takes a float or a 1-D array of q and evaluates an array in one pass.
spectral_kernel(model, q) takes one float and returns tau(q), tau'(q) and
tau''(q) in scale-free units, its tau from the same rule. Both read the
support of the model's FamilyCore, its tables on the active symbols:

  * kind 'product' (Bernoulli, multinomial, self-similar): tau is the root of
    sum_i p_i^q r_i^tau = 1 over the active symbols, with r_i = 1/ell on
    grids. Equal ratios (every grid) give the closed form
    tau = ln(sum p_i^q) / ln(1/r), one logsumexp over the (q, symbol)
    matrix; otherwise tau_implicit_selfsimilar finds the root, one q at a
    time. Implicit differentiation under the tilted weights
    w_i = p_i^q r_i^tau gives tau' = -E_w ln p / E_w ln r and
    tau'' = Var_w(ln p + tau' ln r) / (-E_w ln r).
  * kind 'chain' (Markov): tau = log_ell rho(q), with rho the Perron root of
    the entrywise power M_q = (P_ij^q) of the support's P, which must be
    irreducible (checked on every call: the exact laws and enumerations
    accept reducible chains). An array of q is
    one eigen-solve over the stack of its M_q (perron_root). With the right
    and left Perron vectors u, v,
    rho' = v M' u / v u and rho'' = (v M'' u + 2 v M' (rho I - M_q)^# M' u) / v u,
    where ^# is the group inverse (Deutsch & Neumann, J. Math. Anal. Appl.
    102, 1984). At q = 1 this is the Markov-CLT variance of the fundamental
    matrix (Kemeny & Snell, Finite Markov Chains, 1960).

Everything else reads the kernel: dimension d = -tau'(1), curvature
sigma2 = tau''(1), chi(q) = tau(1-q) - q d and its Newton inverse. Both
kernels give tau''(1) in closed form, so sigma2 is a plain float with no
error estimate, and a SpectrumTable records only its value. The kernel at
q = 1, and d once cross-checked, are solved once per core and kept, weakly
keyed, for as long as the model lives.

One finite-level rule for every kind. tau_empirical(model, q, n) takes q as
tau_scale_free does and enumerates the level-n words once per call, whatever
the number of q: chain_log_masses on chains, models.word_log_sums on
self-similar measures (the masses and the diameters). On grids
tau_n(q) = log_ell(sum_w m(w)^q) / n (log_partition_sum): products
factorise, n times the level-1 sum, and chains take one logsumexp over the
(q, word) matrix in passes of at most _Q_BLOCK / 4 entries, or scaled
powers of M_q past 2^14 words, one q at a time; their q rows times n - 1
matrix steps are refused past the enumeration budget before the first
step. On self-similar measures
tau_n(q) is the root of sum_w m(w)^q diam(w)^tau = 1 over the enumerated
words, one root per q.

Base conventions. Reported values can be converted between natural, base-2 and
base-ell units:

    tau_base_b   = tau_natural / ln b,   tau_natural = tau_scale_free * ln ell
    sigma2_base_b = sigma2_natural / ln b, sigma2_natural = tau_scale_free''(1)

so for a binary grid sigma2 in base-2 units is the per-symbol variance of the
bit-valued mass increment, while sigma2_natural is the variance per unit of
natural log scale (which is also the self-similar closed form). Dimension is
scale-free and carries no base.

models.ln_base is the one rule for which units a model admits, here as in
the LIL conventions: self-similar measures have no grid base (core.ell is
None) and carry natural units only, base-2 units need a binary grid, and
tau_to_base and sigma2_to_base refuse any other request.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import FlatSpectrumError, NumericalError, ValidationError
from .models import (
    LogBase,
    MeasureModel,
    canonical_base,
    chain_log_masses,
    check_budget,
    ln_base,
    word_log_sums,
)

_IMPLICIT_TOL = 1e-13
_DIM_XCHECK_TOL = 1e-8
_FLAT_TOL = 1e-12


def tau_to_base(model: MeasureModel, tau_star: float, base: LogBase) -> float:
    """Convert a scale-free tau value to the requested units, which
    models.ln_base admits or refuses for the model."""
    lb = ln_base(model, base)
    if model.core.ell is None or base is LogBase.BASE_ELL:
        return tau_star
    return tau_star * math.log(model.core.ell) / lb


def sigma2_to_base(model: MeasureModel, sigma2_natural: float, base: LogBase) -> float:
    """Convert the natural curvature constant to the requested units, which
    models.ln_base admits or refuses for the model."""
    return sigma2_natural / ln_base(model, base)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, bit for bit scipy 1.17.1's
    logsumexp on real input (tests/test_spectrum.py holds them to it).

    The maxima are taken out of the sum: with m of them,
    log1p(sum exp(a - max) / m) + log(m) + max. Where that is not finite,
    log(sum(exp(a))) gives the edge cases (-inf, +inf, nan).
    """
    with np.errstate(all="ignore"):
        a_max = a.max(axis=-1, keepdims=True)
        mask = a == a_max
        m = mask.sum(axis=-1, keepdims=True, dtype=a.dtype)
        s = np.exp(np.where(mask, -np.inf, a) - a_max).sum(axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max)[..., 0]
        bad = ~np.isfinite(out)
        out[bad] = np.log(np.exp(a[bad]).sum(axis=-1))
    return out


# ---------------------------------------------------------------------------
# the product kernel


def _safeguarded_newton(f, x: float, lo: float, hi: float, done, failure: str) -> float:
    """A root of the increasing f in the bracket [lo, hi], starting from x.

    f(x) gives (value, slope). Each step moves lo or hi to x by the sign of
    the value and takes the Newton step, or the bracket's midpoint when that
    step leaves the bracket or the slope is not positive. Returns x once
    done(value) holds; NumericalError(failure) after 200 steps.
    """
    for _ in range(200):
        val, slope = f(x)
        if done(val):
            return x
        if val < 0:
            lo = x
        else:
            hi = x
        step = x - val / slope if slope > 0 else math.nan
        x = step if lo < step < hi else 0.5 * (lo + hi)
    raise NumericalError(failure)


def tau_implicit_selfsimilar(lp: np.ndarray, lr: np.ndarray, q: float) -> float:
    """Root tau of sum_i p_i^q r_i^tau = 1, by bracketing plus safeguarded Newton.

    lp and lr are the natural logs of the probabilities and of the ratios.
    The map tau -> sum p_i^q r_i^tau is strictly decreasing (all r_i < 1), so
    the root is unique. Work happens on -G(tau) = -log(sum ...), which
    increases; the returned root satisfies |sum p_i^q r_i^tau - 1| <=
    _IMPLICIT_TOL.
    """

    def neg_g_and_slope(t: float) -> tuple[float, float]:
        z = q * lp + t * lr
        m = z.max()
        w = np.exp(z - m)
        s = w.sum()
        g = m + math.log(s)
        return -float(g), -float((w @ lr) / s)  # -dG/dtau, always positive

    # bracket by geometric expansion around the equal-ratio root
    lo = hi = float(_logsumexp(q * lp) / (-lr.max()))
    step = 1.0
    if neg_g_and_slope(lo)[0] < 0:  # -G increases: the root lies above
        while neg_g_and_slope(hi)[0] < 0:
            lo, hi, step = hi, hi + step, 2.0 * step
    else:
        while neg_g_and_slope(lo)[0] > 0:
            lo, hi, step = lo - step, lo, 2.0 * step
    return _safeguarded_newton(
        neg_g_and_slope, 0.5 * (lo + hi), lo, hi, lambda v: abs(math.expm1(-v)) <= _IMPLICIT_TOL,
        f"implicit spectrum root did not reach |F| <= {_IMPLICIT_TOL} at q={q!r}",
    )


def _product_tau(core, qs: np.ndarray) -> np.ndarray:
    """tau over a 1-D array of q: the closed form in one pass on equal
    ratios, else the implicit root one q at a time."""
    lp, lr = core.support.log_weights, core.support.log_ratios
    if np.all(lr == lr[0]):
        return _logsumexp(qs[:, None] * lp) / -lr[0]
    return np.array([tau_implicit_selfsimilar(lp, lr, q) for q in qs.tolist()])


def _product_kernel(core, q: float) -> tuple[float, float, float]:
    t = float(_product_tau(core, np.array([q]))[0])
    lp, lr = core.support.log_weights, core.support.log_ratios
    z = q * lp + t * lr
    w = np.exp(z - z.max())
    w /= w.sum()
    mean_lr = float(w @ lr)
    t1 = -float(w @ lp) / mean_lr
    a = lp + t1 * lr  # centred under w: E_w a = 0 defines t1
    return t, t1, float(w @ (a * a)) / -mean_lr


# ---------------------------------------------------------------------------
# the chain kernel


def _check_irreducible(P: np.ndarray, labels: Sequence[int]) -> None:
    adj = P > 0
    reach = adj | np.eye(len(P), dtype=bool)
    for _ in range(len(P).bit_length()):  # path lengths double each round
        reach = reach @ reach
    if reach.all():
        return
    # name the absorbing classes to make the error actionable: a class is
    # absorbing when everything reachable from it lies inside it
    mutual = reach & reach.T
    absorbing = sorted({
        tuple(int(labels[j]) for j in np.flatnonzero(mutual[i]))
        for i in range(len(P)) if not (reach[i] & ~mutual[i]).any()
    })
    raise ValidationError(
        f"active-state graph is reducible; absorbing class(es): {[list(c) for c in absorbing]}"
    )


def perron_root(M: np.ndarray):
    """Perron root rho of a nonnegative matrix with its right and left
    eigenvectors (u, v), from one eigen-solve; for a (Q, k, k) stack, the
    array of the Q roots alone, from one batched eigen-solve.

    rho is the eigenvalue of largest real part: every other eigenvalue mu has
    |mu| <= rho, and on a periodic pattern the others of modulus rho are rho
    times nontrivial roots of unity, with smaller real part. On an
    irreducible M, u and v are positive up to a common sign. Both forms take
    LAPACK geev's eigenvalues, so a stack's roots equal the single matrices'
    roots bit for bit (tests/test_spectrum.py holds them to it).

    The single matrix keeps scipy.linalg.eig, imported here so that only
    chain kernels load scipy: the left vector of np.linalg.eig(M.T) differs
    from it in the last bits, and the chain outputs would move with it.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ValidationError("perron_root expects a square matrix or a stack of them")
    if np.any(M < 0):
        raise ValidationError("perron_root expects a nonnegative matrix")
    if M.ndim == 3:
        lam = np.linalg.eigvals(M).real
        return lam[np.arange(len(lam)), np.argmax(lam, axis=1)]
    import scipy.linalg

    lam, vl, vr = scipy.linalg.eig(M, left=True, right=True)
    i = int(np.argmax(lam.real))
    return float(lam[i].real), vr[:, i].real, vl[:, i].real


def _active_chain(core) -> tuple[np.ndarray, np.ndarray]:
    """The support's P and ln P (0 where P is 0), refused unless P is
    irreducible on the active states."""
    _check_irreducible(core.support.P, core.active)
    return core.support.P, core.support.log_P


def _chain_powers(P: np.ndarray, qs: Sequence[float]) -> np.ndarray:
    """The stack of entrywise powers M_q = (P_ij^q) of a matrix (or vector)
    P, with 0^q := 0 also for q <= 0. Each takes the scalar `P ** q`: numpy
    computes it exactly rounded at q = 2, 0.5 and -1 (square, sqrt,
    reciprocal), which a broadcast power over the whole stack does not."""
    pos = P > 0
    M = np.zeros((len(qs),) + P.shape)
    for Mq, q in zip(M, qs):
        Mq[pos] = P[pos] ** q
    return M


def _chain_tau_of_root(core, rho: float, q: float) -> float:
    """tau = log_ell rho, with math.log: np.log can move a root's log by an
    ulp."""
    if rho <= 0:
        raise NumericalError(f"Perron root is not positive at q={q!r}")
    return math.log(rho) / math.log(core.ell)


def _chain_tau(core, qs: np.ndarray) -> np.ndarray:
    """tau over a 1-D array of q, from one eigen-solve over the M_q stack."""
    qs = qs.tolist()
    rhos = perron_root(_chain_powers(_active_chain(core)[0], qs)).tolist()
    return np.array([_chain_tau_of_root(core, rho, q) for rho, q in zip(rhos, qs)])


def _chain_kernel(core, q: float) -> tuple[float, float, float]:
    P, lP = _active_chain(core)
    M = _chain_powers(P, [q])[0]
    rho, u, v = perron_root(M)
    t = _chain_tau_of_root(core, rho, q)
    vu = float(v @ u)
    M1 = M * lP  # dM/dq; M1 * lP is d2M/dq2
    E = np.outer(u, v) / vu  # spectral projector of rho
    G = np.linalg.inv(rho * np.eye(len(u)) - M + E) - E  # group inverse of rho I - M
    r1 = float(v @ M1 @ u) / vu / rho
    r2 = float(v @ (M1 * lP) @ u + 2.0 * (v @ M1 @ G @ M1 @ u)) / vu / rho
    ln_ell = math.log(core.ell)
    return t, r1 / ln_ell, (r2 - r1 * r1) / ln_ell


_TAUS = {"product": _product_tau, "chain": _chain_tau}
_KERNELS = {"product": _product_kernel, "chain": _chain_kernel}

# The q = 1 kernel and the cross-checked d of each core, which d, sigma2, chi
# and ChiProfile read several times per command. A core is built once per
# model and read-only; keyed weakly, no entry outlives its model.
_KERNEL_AT_ONE = weakref.WeakKeyDictionary()
_DIMENSION = weakref.WeakKeyDictionary()


def spectral_kernel(model: MeasureModel, q: float) -> tuple[float, float, float]:
    """(tau(q), tau'(q), tau''(q)) in scale-free units at one q, from the
    kind's kernel; its tau is the kind's tau rule.

    q = 1 is solved once per core and its tuple kept while the model lives;
    every other q is solved on each call.
    """
    core = model.core
    if q != 1.0:
        return _KERNELS[core.kind](core, q)
    if core not in _KERNEL_AT_ONE:
        _KERNEL_AT_ONE[core] = _KERNELS[core.kind](core, 1.0)
    return _KERNEL_AT_ONE[core]


# q per pass of a kind's tau rule. On a 10^6-row grid, one pass raised the
# peak memory by about 100 MB over one q at a time; 2^16-row passes by 7 MB.
# An empirical pass takes _Q_BLOCK / 4 (q, word) entries: from 2^15 on,
# logsumexp's temporaries outgrew a 2 MB L2 cache, and a 101-q pass over a
# 16,384-word chain table took twice as long as one q at a time.
_Q_BLOCK = 1 << 16


def _over_q(q, rule):
    """rule over q as a 1-D float array; a float q gives a float. A q of more
    than one dimension is refused."""
    qs = np.asarray(q, dtype=float)
    if qs.ndim > 1:
        raise ValidationError("q must be a float or a 1-D array")
    t = rule(qs.reshape(-1))
    return float(t[0]) if qs.ndim == 0 else t


def _in_passes(qs: np.ndarray, rows: int, rule) -> np.ndarray:
    """rule over qs in passes of at most `rows` q."""
    t = np.empty(qs.size)
    for i in range(0, qs.size, rows):
        t[i:i + rows] = rule(qs[i:i + rows])
    return t


def tau_scale_free(model: MeasureModel, q):
    """tau(q) in scale-free units, from the kind's tau rule.

    q is a float, which gives a float, or a 1-D array, which gives an array
    of the same length, each value bit-equal to its float call. An array is
    evaluated in one pass per 2^16 values (one eigen-solve per pass on chains).
    """
    core = model.core
    rule = _TAUS[core.kind]
    return _over_q(q, lambda qs: _in_passes(qs, _Q_BLOCK, lambda b: rule(core, b)))


def tau(model: MeasureModel, q, base: Optional[LogBase] = None):
    """tau(q) in the requested units (default: the family's canonical base);
    q is a float or a 1-D array, as in tau_scale_free."""
    base = base or canonical_base(model)
    return tau_to_base(model, tau_scale_free(model, q), base)


# ---------------------------------------------------------------------------
# empirical partition sums


def _log_sums(qs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """_logsumexp(q * table) for each q, in passes of at most _Q_BLOCK / 4
    (q, word) entries, or of one q."""
    rows = max(1, (_Q_BLOCK >> 2) // table.size)
    return _in_passes(qs, rows, lambda b: _logsumexp(b[:, None] * table))


def _chain_power_sum(core, q: float, n: int) -> float:
    """Natural log of the level-n partition sum from scaled powers of M_q in
    the log domain, over the support's pi and P."""
    v = _chain_powers(core.support.pi, [q])[0]
    Mq = _chain_powers(core.support.P, [q])[0]
    logscale = 0.0
    for _ in range(n - 1):
        v = v @ Mq
        s = float(v.max())
        if s <= 0:
            return float("-inf")
        v /= s
        logscale += math.log(s)
    return logscale + math.log(float(v.sum()))


def log_partition_sum(model: MeasureModel, q, n: int):
    """Natural log of sum over nonzero level-n cylinders of m(I)^q; q is a
    float or a 1-D array, as in tau_scale_free.

    Products factorise: n times the level-1 sum. Chains enumerate their
    level-n words within 2^14 words, once per call whatever the number of
    q, and take scaled transfer-matrix powers past that, one q at a time,
    refused with BudgetError past the enumeration budget of q rows times
    n - 1 matrix steps.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    core = model.core
    if core.ell is None:
        raise ValidationError(
            "self-similar cylinders have no common level diameter; use tau_empirical"
        )

    def rule(qs):
        if core.kind == "product":
            return n * _log_sums(qs, core.support.log_weights)
        if core.k ** n <= 2 ** 14:
            logmass = chain_log_masses(model, n)
            return _log_sums(qs, logmass[np.isfinite(logmass)])
        check_budget(qs.size * (n - 1), f"a run of {qs.size} x {n - 1} chain matrix steps")
        return np.array([_chain_power_sum(core, x, n) for x in qs.tolist()])

    return _over_q(q, rule)


def tau_empirical(model: MeasureModel, q, n: int, base: Optional[LogBase] = None):
    """Finite-level exponent tau_n(q) in `base` units, from one enumeration
    of the level-n words (or the chain's matrix powers past 2^14 words).

    On grids tau_n(q) = log_ell(partition sum)/n. On self-similar measures it
    is the root tau of the level-n identity sum m(w)^q diam(w)^tau = 1, the
    implicit equation of the product kernel over the level-n words, one root
    per q. q is a float or a 1-D array, as in tau_scale_free.
    """
    base = base or canonical_base(model)
    core = model.core

    def rule(qs):
        if core.ell is not None:
            return log_partition_sum(model, qs, n) / (n * math.log(core.ell))
        lm = word_log_sums(model, core.support.log_weights, n)
        ld = word_log_sums(model, core.support.log_ratios, n)
        return np.array([tau_implicit_selfsimilar(lm, ld, x) for x in qs.tolist()])

    return tau_to_base(model, _over_q(q, rule), base)


# ---------------------------------------------------------------------------
# derivatives at q = 1: dimension and curvature


def _entropy_dimension(model: MeasureModel) -> float:
    """Entropy over mean log contraction: -sum p ln p / -sum p ln r over the
    support for products, and for chains the entropy rate under the
    stationary law of the support's P (its left Perron vector) over ln ell."""
    core = model.core
    if core.kind == "product":
        p, lp, lr = core.support.weights, core.support.log_weights, core.support.log_ratios
        return float((p @ lp) / (p @ lr))
    P, lP = _active_chain(core)
    pi = perron_root(P)[2]
    pi = pi / pi.sum()
    return float(-(pi[:, None] * P * lP).sum()) / math.log(core.ell)


def dimension(model: MeasureModel) -> float:
    """Measure dimension d = -tau'(1) from the kind's kernel, cross-checked.

    The entropy form must agree with the kernel's -tau'(1) within 1e-8;
    disagreement raises NumericalError carrying both values. The check runs
    once per core: a d that passed is kept while the model lives, and a
    failing one is checked, and refused, again on every call.
    """
    core = model.core
    if core not in _DIMENSION:
        d = -spectral_kernel(model, 1.0)[1]
        entropy = _entropy_dimension(model)
        if abs(entropy - d) > _DIM_XCHECK_TOL:
            raise NumericalError(
                f"dimension cross-check failed: entropy form={entropy!r}, -tau'(1)={d!r}, "
                f"|diff|={abs(entropy - d):.3e} > {_DIM_XCHECK_TOL}"
            )
        _DIMENSION[core] = d
    return _DIMENSION[core]


def sigma2_scale_free(model: MeasureModel) -> float:
    """Natural-units curvature constant sigma2 = tau''(1) of the scale-free
    spectrum, from the kind's kernel."""
    return spectral_kernel(model, 1.0)[2]


def sigma2(model: MeasureModel, base: Optional[LogBase] = None) -> float:
    """Curvature constant in the requested units (see module docstring)."""
    base = base or canonical_base(model)
    return sigma2_scale_free(model) * sigma2_to_base(model, 1.0, base)


# ---------------------------------------------------------------------------
# chi, its inverse, theta, and the not-flat condition


def chi(model: MeasureModel, q):
    """chi(q) = tau(1-q) - q d in scale-free units; defined for q in [-1, 1].

    q is a float or a 1-D array, as in tau_scale_free; d is read once per call.
    """
    d = -spectral_kernel(model, 1.0)[1]
    if np.ndim(q):
        q = np.asarray(q, dtype=float)
    return tau_scale_free(model, 1.0 - q) - q * d


def support_dimension(model: MeasureModel) -> float:
    """delta = log_ell of the active symbol count on grids; on self-similar
    sets tau(0), the similarity dimension of the support (sum r_i^delta = 1)."""
    core = model.core
    if core.ell is None:
        return tau_scale_free(model, 0.0)
    return math.log(len(core.active)) / math.log(core.ell)


def is_flat(model: MeasureModel) -> bool:
    """Flat spectrum: chi vanishes identically (equivalently d = delta)."""
    return bool(np.all(np.abs(chi(model, np.array([1.0, 0.5]))) <= _FLAT_TOL))


@dataclass(frozen=True)
class ChiProfile:
    """chi on (0, q_max], with inversion and theta on top.

    The profile reads d = -tau'(1) and sigma2 = tau''(1) once, when it is
    built.
    """

    model: MeasureModel
    q_max: float = 1.0
    flat: bool = field(default=False, init=False)
    d: float = field(default=math.nan, init=False)
    sigma2: float = field(default=math.nan, init=False)

    def __post_init__(self):
        if not 0.0 < self.q_max <= 1.0:
            raise ValidationError("q_max must lie in (0, 1]")
        _, t1, t2 = spectral_kernel(self.model, 1.0)
        object.__setattr__(self, "d", -t1)
        object.__setattr__(self, "sigma2", t2)
        object.__setattr__(self, "flat", is_flat(self.model))

    def _chi_and_slope(self, q: float) -> tuple[float, float]:
        # chi(q) and its derivative in q: -tau'(1 - q) - d
        t, t1, _ = spectral_kernel(self.model, 1.0 - q)
        return t - q * self.d, -t1 - self.d

    def chi(self, q: float) -> float:
        if not 0.0 < q <= self.q_max:
            raise ValidationError(f"q={q!r} outside (0, {self.q_max}]")
        return self._chi_and_slope(q)[0]

    def chi_at_qmax(self) -> float:
        return self.chi(self.q_max)

    def inverse(self, y: float) -> float:
        """q in (0, q_max] with chi(q) = y, by safeguarded Newton.

        chi is increasing and convex on (0, q_max]. Newton starts from the
        quadratic germ chi(q) ~ sigma2 q^2 / 2 and falls back to bisection
        whenever a step leaves the bracket [lo, hi] around the root. It stops
        once |chi(q) - y| <= 1e-12 max(1, |y|).
        """
        if self.flat:
            raise FlatSpectrumError(
                "chi is identically zero (d = delta); no inverse exists"
            )
        top = self.chi_at_qmax()
        if not 0.0 < y <= top:
            raise ValidationError(
                f"y={y!r} outside the invertible range (0, {top!r}]"
            )
        q = min(self.q_max, math.sqrt(2.0 * y / self.sigma2)) if self.sigma2 > 0 else 0.5 * self.q_max

        def gap_and_slope(x: float) -> tuple[float, float]:
            val, slope = self._chi_and_slope(x)
            return val - y, slope

        return _safeguarded_newton(
            gap_and_slope, q, 0.0, self.q_max, lambda v: abs(v) <= 1e-12 * max(1.0, abs(y)),
            f"chi inversion did not converge at y={y!r}",
        )

    def theta(self, t: float) -> float:
        """theta(t) = 1/chi^{-1}(1/t); needs t >= 1/chi(q_max). inverse
        refuses a flat spectrum, and a t below that floor (1/t outside its
        range)."""
        if t <= 0:
            raise ValidationError(f"t must be positive, got {t!r}")
        return 1.0 / self.inverse(1.0 / t)


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

    Scans q_j = q_max 2^-j for j = 0..levels. The arguments are scalars; the
    scan is one chi call over the array of side q_j. Returns the sup of consecutive
    ratios as C and alpha = log2 C; for spectra with positive curvature the
    ratio tends to 4 (alpha to 2) as the scan window is refined toward 0.
    """
    if side not in (1, -1):
        raise ValidationError("side must be +1 or -1")
    if levels < 1:
        raise ValidationError("levels must be >= 1")
    qs = tuple(q_max * 2.0 ** (-j) for j in range(levels + 1))
    chis = tuple(chi(model, side * np.array(qs)).tolist())
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
    delta: float
    flat: bool


def spectrum_table(
    model: MeasureModel,
    q_min: float = -2.0,
    q_max: float = 3.0,
    q_step: float = 0.05,
    base: Optional[LogBase] = None,
    empirical_n: Optional[int] = None,
) -> SpectrumTable:
    """tau on the grid q_min, q_min + q_step, ... of the points at or below
    q_max, from one tau call over the whole grid, or with empirical_n one
    tau_empirical call at that level. q_max is a row when (q_max - q_min) /
    q_step is an integer up to float error. The row count must not exceed
    enumeration_budget()."""
    if not all(math.isfinite(x) for x in (q_min, q_max, q_step)):
        raise ValidationError("q_min, q_max and q_step must be finite")
    if q_step <= 0:
        raise ValidationError("q_step must be positive")
    if q_max < q_min:
        raise ValidationError("q_max must be >= q_min")
    base = base or canonical_base(model)
    steps = (q_max - q_min) / q_step  # infinite when q_max - q_min overflows
    last = round(steps) if math.isfinite(steps) else math.inf
    if last - steps > 1e-9 * steps:  # rounded up past q_max by more than float error
        last -= 1
    count = last + 1
    check_budget(count, f"a q grid of {count:.6g} rows")
    if q_step >= 1e-9:
        # snap accumulated float error so decimal grids hit 0 and 1 exactly
        qs = tuple(float(round(q_min + i * q_step, 12)) for i in range(count))
    else:
        qs = tuple(q_min + i * q_step for i in range(count))
    if empirical_n is None:
        taus, used = tau(model, np.array(qs), base), "auto"
    else:
        taus = tau_empirical(model, np.array(qs), empirical_n, base)
        used = f"empirical(n={empirical_n})"
    return SpectrumTable(
        q=qs,
        tau=tuple(taus.tolist()),
        base=base,
        method=used,
        d=dimension(model),
        sigma2=sigma2(model, base),
        delta=support_dimension(model),
        flat=is_flat(model),
    )
