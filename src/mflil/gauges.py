"""Corrected gauge functions and finite-scale mass-vs-gauge statistics.

A gauge here is t^d times a sub-power correction. The correction of interest
is the iterated-logarithm factor Theta, kept in three unit conventions because
the finite-t values genuinely differ even though all three agree to first
order as t -> 0:

  'base-2'   Theta(t) = 2^sqrt(2 v ln ln v),            v = log2(1/t)
  'natural'  theta(t) = e^sqrt(2 u ln ln u),            u = ln(1/t)
  'base-ell' Theta(t) = ell^sqrt(2 w L L w), L = log_ell, w = log_ell(1/t)

All three are one formula, Theta(t) = b^sqrt(2 w LL_c(w)) with w = log_b(1/t)
and LL_c = log_c log_c, at the base pairs (b, c) = (2, e), (e, e) and
(ell, ell), keyed by the unit systems of models.LogBase: the base-2 variant
mixes a natural inner log with base-2 outer units, the other two are all one
base. base-ell reads the model's grid base ell, so self-similar measures,
which have none, are refused it; the other two never read ell and hold on
every model. LL_c is the iterated-log rule of the lil module. Everything is
evaluated in the log domain through u = ln(1/t), since interesting t like
2^(-2^16) underflow float64 long before the mathematics gets hard.

The matching sigma for a Theta-corrected gauge depends on the convention:
sqrt(sigma2_natural / (ln b / ln c)) from the same pair, so sqrt(sigma2_natural
/ ln 2) for 'base-2' and sqrt(sigma2_natural) for the two all-one-base
conventions, where sigma2_natural = tau''(1); see lil_sigma.

Gauge families:

  power          t^d                         (zero correction)
  lil_hausdorff  t^d Theta(t)^(+(sigma +/- eps))
  lil_packing    t^d Theta(t)^(-(sigma -/+ eps))
  sqrt           t^d ell^(a sqrt(log_ell(1/t))),  a != 0, either sign
  theta          t^d ell^(-a theta(log_ell(1/t))),  0 < a < 1, theta from a
                 chi-profile inversion
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .lil import _checked_levels, _iterated_log, _walk_ensemble, lil_convention
from .models import LogBase, MeasureModel
from .spectrum import ChiProfile, sigma2_scale_free

_GAUGE_N_MIN = 16
# (b, c) of Theta = b^sqrt(2 w LL_c(w)); base-ell reads the grid base, (ell, ell)
_THETA_BASES = {LogBase.BASE_2: (2.0, math.e), LogBase.NATURAL: (math.e, math.e)}


def _theta_bases(convention: str, ell: Optional[int]) -> tuple[float, float]:
    """The base pair (b, c) of Theta in a convention, for grid base ell (None
    on self-similar measures, which have no base-ell Theta)."""
    base = LogBase.parse(convention)
    if ell is not None and ell < 2:
        raise ValidationError(f"ell must be >= 2, got {ell}")
    if base is LogBase.BASE_ELL and ell is None:
        raise ValidationError("base-ell Theta needs a grid base ell; self-similar measures have none")
    return _THETA_BASES.get(base, (ell, ell))


def _once_per_value(f, a: np.ndarray) -> np.ndarray:
    """f(x) for every entry x of the array a, calling f once per distinct value."""
    values, inverse = np.unique(a, return_inverse=True)
    return np.array([f(float(v)) for v in values])[inverse].reshape(a.shape)


def lil_sigma(model: MeasureModel, convention: str) -> float:
    """The sigma that pairs with a Theta correction in the given convention."""
    b, c = _theta_bases(convention, model.core.ell)
    return math.sqrt(max(sigma2_scale_free(model), 0.0) / (math.log(b) / math.log(c)))


@dataclass(frozen=True)
class ThetaCorrection:
    """One convention's Theta, with its domain boundary precomputed.

    u_min = c ln b is the infimum of admissible u = ln(1/t) (w = u / ln b
    above c, so the iterated log is positive); t_max = exp(-u_min) is the
    matching supremum of admissible t. The factor is strictly increasing in u
    on the whole domain: there w > c, so LL_c(w) > 0 and w LL_c(w) increases.
    """

    convention: str
    bases: tuple[float, float]  # (b, c)
    u_min: float
    t_max: float

    def log_theta_from_u(self, u):
        """Natural log of Theta at t = exp(-u); accepts scalars or arrays."""
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr <= self.u_min):
            raise ValidationError(
                f"u = ln(1/t) must exceed {self.u_min!r} for convention "
                f"{self.convention!r} (t below {self.t_max!r})"
            )
        b, c = self.bases
        lb = math.log(b)
        w = u_arr / lb
        out = lb * np.sqrt(2.0 * w * _iterated_log(w, math.log(c)))
        return float(out) if np.ndim(u) == 0 else out


def theta_correction(convention: str, ell: Optional[int] = 2) -> ThetaCorrection:
    """Theta in a convention; base-ell needs the grid base ell, the other two
    never read it."""
    b, c = _theta_bases(convention, ell)
    u_min = c * math.log(b)
    return ThetaCorrection(convention, (b, c), u_min, math.exp(-u_min))


_FAMILIES = ("power", "lil_hausdorff", "lil_packing", "sqrt", "theta")


@dataclass(frozen=True)
class GaugeSpec:
    """A gauge t^d * correction, with every unit pinned down.

    epsilon_sign picks between sigma+epsilon and sigma-epsilon inside the
    exponent; the hausdorff family applies the exponent positively, the
    packing family negatively.
    """

    family: str
    d: float
    sigma: float = 0.0
    epsilon: float = 0.0
    epsilon_sign: int = 1
    a: float = 0.0
    theta: Optional[ThetaCorrection] = None
    ell: int = 2
    chi_profile: Optional[ChiProfile] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValidationError(f"unknown gauge family {self.family!r}")
        if self.d < 0:
            raise ValidationError(f"d must be >= 0, got {self.d!r}")
        if self.family in ("lil_hausdorff", "lil_packing"):
            if self.epsilon <= 0:
                raise ValidationError("epsilon must be positive for the lil families")
            if self.epsilon_sign not in (1, -1):
                raise ValidationError("epsilon_sign must be +1 or -1")
            if self.theta is None:
                raise ValidationError("lil gauge families need a ThetaCorrection")
            if self.sigma < 0:
                raise ValidationError("sigma must be >= 0")
        elif self.family == "sqrt":
            if self.a == 0.0:
                raise ValidationError("the sqrt family needs a != 0")
            if self.ell < 2:
                raise ValidationError(f"ell must be >= 2, got {self.ell}")
        elif self.family == "theta":
            if not 0.0 < self.a < 1.0:
                raise ValidationError("the theta family needs 0 < a < 1")
            if self.chi_profile is None:
                raise ValidationError("the theta family needs a chi profile")
            if self.ell < 2:
                raise ValidationError(f"ell must be >= 2, got {self.ell}")

    def exponent(self) -> float:
        """Signed Theta exponent for the lil families."""
        if self.family not in ("lil_hausdorff", "lil_packing"):
            raise ValidationError(f"family {self.family!r} has no Theta exponent")
        mag = self.sigma + self.epsilon_sign * self.epsilon
        return mag if self.family == "lil_hausdorff" else -mag

    def describe(self) -> dict:
        doc = {"family": self.family, "d": self.d}
        if self.family in ("lil_hausdorff", "lil_packing"):
            doc.update(
                sigma=self.sigma,
                epsilon=self.epsilon,
                epsilon_sign=self.epsilon_sign,
                exponent=self.exponent(),
                theta_convention=self.theta.convention,
            )
        elif self.family in ("sqrt", "theta"):
            doc.update(a=self.a, ell=self.ell)
        return doc


def log_gauge_from_u(spec: GaugeSpec, u):
    """Natural log of the gauge at t = exp(-u); scalar or array u."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0):
        raise ValidationError("u = ln(1/t) must be positive")
    base = -spec.d * u_arr
    if spec.family == "power":
        out = base
    elif spec.family in ("lil_hausdorff", "lil_packing"):
        out = base + spec.exponent() * spec.theta.log_theta_from_u(u_arr)
    elif spec.family == "sqrt":
        out = base + spec.a * np.sqrt(u_arr * math.log(spec.ell))
    else:
        lb = math.log(spec.ell)
        targs = u_arr / lb
        th = _once_per_value(spec.chi_profile.theta, targs)  # one chi inversion per distinct u
        out = base - spec.a * lb * th
    return float(out) if np.ndim(u) == 0 else out


# ---------------------------------------------------------------------------
# mass-vs-gauge fractions over sampled paths


@dataclass(frozen=True)
class GaugeTestResult:
    """Per-checkpoint fraction of paths with mass(cylinder) <= gauge(diameter).

    hit_by[j] is the fraction of paths satisfying the inequality at some
    checkpoint up to and including checkpoint j (a cumulative, monotone
    stand-in for the infinitely-often statistic); hit_ever is its last entry.
    """

    checkpoints: tuple[int, ...]
    fractions: tuple[float, ...]
    hit_by: tuple[float, ...]
    hit_ever: float
    N: int
    seed: int
    family: str


def gauge_test(
    model: MeasureModel,
    spec: GaugeSpec,
    checkpoints: Sequence[int],
    N: int,
    seed: int = 0,
) -> GaugeTestResult:
    """Monte Carlo fractions of m(I_n(x)) <= gauge(|I_n(x)|) at each checkpoint.

    Comparison happens in the natural log domain, where the walk's T is
    u = ln(1/diameter). The paths come from the ensemble walk of
    run_ensemble, under the same path and chain-step budgets; each path uses
    its own counter-based stream keyed by (seed, index). The walk is a
    checkpoint walk, which runs in one thread.
    """
    cks = _checked_levels(checkpoints)
    if cks[0] < _GAUGE_N_MIN:
        raise ValidationError(
            f"checkpoint {cks[0]} below n_min={_GAUGE_N_MIN} for gauge tests"
        )
    conv = lil_convention(model, "natural")
    S, T, _, _ = _walk_ensemble(model, conv, cks, seed, range(N))
    m = len(cks)

    # m(I) <= gauge(diam)  <=>  -S_natural <= log gauge  <=>  S_natural >= -log gauge
    hits = S >= -log_gauge_from_u(spec, T)
    fractions = tuple(float(np.count_nonzero(hits[:, j])) / N for j in range(m))
    ever = np.zeros(N, dtype=bool)
    hit_by = []
    for j in range(m):
        ever |= hits[:, j]
        hit_by.append(float(np.count_nonzero(ever)) / N)
    return GaugeTestResult(
        checkpoints=cks,
        fractions=fractions,
        hit_by=tuple(hit_by),
        hit_ever=hit_by[-1],
        N=N,
        seed=seed,
        family=spec.family,
    )
