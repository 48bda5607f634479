import math

import numpy as np
import pytest
from scipy.special import bdtr, bdtrc

from mflil import (
    BernoulliProduct,
    ChiProfile,
    GaugeSpec,
    LogBase,
    ValidationError,
    dimension,
    exact_distribution,
    gauge_spec,
    gauge_test,
    lil_sigma,
    theta_correction,
)
from mflil.cli import build_parser
from mflil.gauges import _FAMILIES, log_gauge_from_u
from mflil.zoo import load_zoo_model

QUARTER = BernoulliProduct(0.25)
LN2 = math.log(2.0)


def test_lil_sigma_conventions():
    assert lil_sigma(QUARTER, "base-2") == pytest.approx(math.sqrt(0.471019899129799), abs=1e-12)
    assert lil_sigma(QUARTER, "natural") == pytest.approx(math.sqrt(0.32648611506945), abs=1e-12)
    cb = load_zoo_model("cantor_biased")
    assert lil_sigma(cb, "natural") == pytest.approx(math.sqrt(0.20598980412527054), abs=1e-11)


def test_theta_domains():
    nat = theta_correction("natural")
    assert nat.u_min == pytest.approx(math.e)
    b2 = theta_correction("base-2")
    assert b2.u_min == pytest.approx(math.e * LN2)
    b3 = theta_correction("base-ell", ell=3)
    assert b3.u_min == pytest.approx(3 * math.log(3.0))
    with pytest.raises(ValidationError):
        theta_correction("nonsense")


@pytest.mark.parametrize("base", list(LogBase), ids=lambda b: b.value)
def test_theta_refuses_ell_below_2_in_every_convention(base):
    with pytest.raises(ValidationError, match="ell must be >= 2"):
        theta_correction(base.value, ell=1)


def test_theta_monotone_and_domain_guard():
    th = theta_correction("base-2")
    us = np.linspace(th.u_min * 1.01, th.u_min * 400, 300)
    vals = th.log_theta_from_u(us)
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(ValidationError):
        th.log_theta_from_u(np.array([th.u_min * 0.5]))


@pytest.mark.parametrize("convention, ell", [
    ("natural", 2), ("base-ell", 2), ("base-ell", 3), ("base-2", 2),
])
def test_theta_strictly_increasing_across_fifteen_decades(convention, ell):
    th = theta_correction(convention, ell)
    us = th.u_min * np.exp(np.linspace(1e-6, math.log(1e15), 400))
    assert np.all(np.diff(th.log_theta_from_u(us)) > 0)


def test_theta_anchor_at_deep_scale():
    # at t = 2^(-2^16) the base-2 exponent is 561.5773922398699
    th = theta_correction("base-2")
    u = (2.0 ** 16) * LN2
    assert th.log_theta_from_u(u) / LN2 == pytest.approx(561.5773922398699, abs=1e-9)


def test_theta_cross_base_consistency():
    b2 = theta_correction("base-2")
    nat = theta_correction("natural")
    u = (2.0 ** 20) * LN2  # t = 2^(-2^20)
    ratio = (b2.log_theta_from_u(u) / LN2) * math.sqrt(LN2) / nat.log_theta_from_u(u)
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_theta_value_underflow_guard():
    lv = theta_correction("base-2").log_theta_from_u(64 * LN2)  # t = 2^-64
    assert math.isfinite(lv) and lv > 0.0


def test_gauge_spec_validation():
    d = dimension(QUARTER)
    th = theta_correction("base-2")
    with pytest.raises(ValidationError):
        GaugeSpec(family="bogus", d=d)
    with pytest.raises(ValidationError):
        GaugeSpec(family="lil_hausdorff", d=d, sigma=0.5, epsilon=0.0, theta=th)
    with pytest.raises(ValidationError):
        GaugeSpec(family="lil_hausdorff", d=d, sigma=0.5, epsilon=0.3)  # no theta
    with pytest.raises(ValidationError):
        GaugeSpec(family="sqrt", d=d, a=0.0)
    with pytest.raises(ValidationError):
        GaugeSpec(family="theta", d=d, a=1.5, chi_profile=ChiProfile(QUARTER))
    spec = GaugeSpec(family="lil_packing", d=d, sigma=0.5, epsilon=0.3, epsilon_sign=1, theta=th)
    assert spec.exponent() == pytest.approx(-0.8)  # packing applies it negatively
    spec_minus = GaugeSpec(family="lil_hausdorff", d=d, sigma=0.5, epsilon=0.3,
                           epsilon_sign=-1, theta=th)
    assert spec_minus.exponent() == pytest.approx(0.2)


def test_power_gauge_value():
    spec = GaugeSpec(family="power", d=0.5)
    assert math.exp(log_gauge_from_u(spec, math.log(4.0))) == pytest.approx(0.5, abs=1e-15)


def test_gauge_underflow_reporting():
    spec = GaugeSpec(family="power", d=1.0)
    # -log(t) stays finite down to the smallest subnormal t
    deep = log_gauge_from_u(spec, -math.log(1e-320))
    assert math.isfinite(deep)
    assert deep == pytest.approx(math.log(1e-320), rel=1e-12)
    with pytest.raises(ValidationError):
        log_gauge_from_u(spec, 0.0)  # t = 1


def test_hausdorff_packing_ordering():
    d = dimension(QUARTER)
    sig = lil_sigma(QUARTER, "base-2")
    th = theta_correction("base-2")
    haus = GaugeSpec(family="lil_hausdorff", d=d, sigma=sig, epsilon=0.3, theta=th)
    pack = GaugeSpec(family="lil_packing", d=d, sigma=sig, epsilon=0.3, theta=th)
    u = 2.0 ** 12 * LN2
    lg_h = log_gauge_from_u(haus, u)
    lg_p = log_gauge_from_u(pack, u)
    # hausdorff multiplies by Theta^(sigma+eps), packing divides by it
    assert lg_h > lg_p
    assert lg_h - lg_p == pytest.approx(
        2 * (sig + 0.3) * th.log_theta_from_u(u), rel=1e-12
    )


def test_sqrt_and_theta_families_evaluate():
    d = dimension(QUARTER)
    s = GaugeSpec(family="sqrt", d=d, a=0.5, ell=2)
    u = 40.0
    val = log_gauge_from_u(s, u)
    assert math.isfinite(val)
    prof = ChiProfile(QUARTER, q_max=1.0)
    t_spec = GaugeSpec(family="theta", d=d, a=0.5, ell=2, chi_profile=prof)
    u_big = math.log(1.0 / (1.0 / prof.chi_at_qmax() / 4))  # within theta domain
    u_ok = max(u_big, math.log(4.0 / prof.chi_at_qmax()))
    assert math.isfinite(log_gauge_from_u(t_spec, u_ok + 5.0))


def test_gauge_test_uniform_boundary():
    # p = 1/2: S_n = n bits exactly and the power gauge with d = 1 sits exactly
    # on the mass, so every path hits at every checkpoint
    half = BernoulliProduct(0.5)
    spec = GaugeSpec(family="power", d=1.0)
    res = gauge_test(half, spec, [16, 64], N=25, seed=4)
    assert res.fractions == (1.0, 1.0)
    assert res.hit_ever == 1.0


def test_gauge_test_checkpoint_floor():
    spec = GaugeSpec(family="power", d=1.0)
    with pytest.raises(ValidationError):
        gauge_test(BernoulliProduct(0.5), spec, [4, 64], N=10)


def test_gauge_test_deterministic_and_cumulative():
    d = dimension(QUARTER)
    sig = lil_sigma(QUARTER, "base-2")
    th = theta_correction("base-2")
    spec = GaugeSpec(family="lil_hausdorff", d=d, sigma=sig, epsilon=0.3, theta=th)
    a = gauge_test(QUARTER, spec, [64, 256, 1024], N=300, seed=11)
    b = gauge_test(QUARTER, spec, [64, 256, 1024], N=300, seed=11)
    assert a == b
    hb = np.asarray(a.hit_by)
    assert np.all(np.diff(hb) >= 0)
    assert a.hit_ever == hb[-1]
    assert a.family == "lil_hausdorff"


def test_markov_gauge_test_thread_invariance():
    mk = load_zoo_model("markov_chain")
    spec = GaugeSpec(family="sqrt", d=dimension(mk), a=0.5, ell=2)
    a = gauge_test(mk, spec, [16, 50, 128], N=31, seed=9)
    b = gauge_test(mk, spec, [16, 50, 128], N=31, seed=9)
    assert a == b


def test_a_mass_equal_to_its_gauge_is_a_hit():
    # every level-32 cylinder of the fair coin has mass 2^-32, its diameter to the power 1
    spec = GaugeSpec(family="power", d=1.0)
    assert gauge_test(BernoulliProduct(0.5), spec, [32], N=10, seed=0).fractions == (1.0,)


def test_selfsimilar_gauge_test():
    cb = load_zoo_model("cantor_biased")
    d = dimension(cb)
    sig = lil_sigma(cb, "natural")
    th = theta_correction("natural")
    spec = GaugeSpec(family="lil_hausdorff", d=d, sigma=sig, epsilon=0.3, theta=th)
    res = gauge_test(cb, spec, [64, 256], N=200, seed=3)
    assert 0.0 <= res.fractions[0] <= 1.0
    assert res.hit_by[-1] >= res.fractions[-1] - 1e-12


def test_theta_gauge_inverts_chi_once_per_checkpoint(monkeypatch):
    # the walk returns one u per path and checkpoint; on a grid the N x 3
    # values hold 3 distinct ones, and each costs one chi inversion
    calls = []
    theta = ChiProfile.theta

    def counting(self, x):
        calls.append(x)
        return theta(self, x)

    monkeypatch.setattr(ChiProfile, "theta", counting)
    spec = GaugeSpec(family="theta", d=dimension(QUARTER), a=0.5, ell=2,
                     chi_profile=ChiProfile(QUARTER, q_max=1.0))
    res = gauge_test(QUARTER, spec, [16, 50, 203], N=60, seed=1)
    assert len(calls) == 3
    assert sorted(calls) == [n * math.log(2.0) / math.log(2) for n in (16, 50, 203)]
    assert res.N == 60


def _theta_branch_formulas(convention, ell, u):
    """The three per-convention Theta formulas the one-rule form replaced, verbatim."""
    if convention == "base-2":
        lb = math.log(2.0)
        v = u / lb
        return lb * np.sqrt(2.0 * v * np.log(np.log(v)))
    if convention == "natural":
        return np.sqrt(2.0 * u * np.log(np.log(u)))
    lb = math.log(ell)
    w = u / lb
    ll = np.log(np.log(w) / lb) / lb
    return lb * np.sqrt(2.0 * w * ll)


@pytest.mark.parametrize("convention, ell", [("base-2", 2), ("natural", 2), ("base-ell", 2), ("base-ell", 3)])
def test_log_theta_is_the_branch_formula_bit_for_bit(convention, ell):
    tc = theta_correction(convention, ell)
    u = tc.u_min * np.exp(np.linspace(1e-6, math.log(1e12), 5000))
    ref = _theta_branch_formulas(convention, ell, u)
    assert np.array_equal(tc.log_theta_from_u(u), ref)
    assert [tc.log_theta_from_u(float(x)) for x in u[::250]] == ref[::250].tolist()


# two-sided level of the exact binomial band on a hit count, fixed before any run
GAUGE_BAND_ALPHA = 1e-6


def _quarter_hit_probabilities(family: str, sigma: float, epsilon: float, n: int):
    """(low, high) bounds on P(m(I_n) <= gauge(2^-n)) for bernoulli_quarter.

    With K of the n symbols of weight 1/4, S_n = K c1 + (n - K) c0 in nats, and
    the gauge t^d Theta(t)^e at t = 2^-n is hit iff S_n >= n H - e ln2
    sqrt(2 n ln ln n), i.e. iff K >= x. K ~ Binomial(n, 1/4), so the hit
    probability is a binomial tail. The walk's float S_n, its threshold and
    thr here each carry a few ulps of n c1; when x lies that close to an
    integer, S_n may fall on either side of that atom, and the bounds span
    both neighbouring atoms.
    """
    p = 0.25
    e = (sigma + epsilon) * (1 if family == "lil_hausdorff" else -1)
    c1, c0 = -math.log(p), -math.log(1 - p)
    entropy = p * c1 + (1 - p) * c0
    thr = n * entropy - e * LN2 * math.sqrt(2 * n * math.log(math.log(n)))
    x = (thr - n * c0) / (c1 - c0)
    tol = 16 * math.ulp(n * c1) / (c1 - c0)
    k_lo, k_hi = math.ceil(x - tol), math.ceil(x + tol)
    # P(K >= k) = P(K > k - 1)
    return float(bdtrc(k_hi - 1, n, p)), float(bdtrc(k_lo - 1, n, p))


def _count_band(p_lo: float, p_hi: float, N: int) -> tuple[int, int]:
    """[lo, hi] with P(count < lo) <= alpha/2 at p_lo and P(count > hi) <= alpha/2 at p_hi."""
    k = np.arange(N + 1)
    lo = int(np.argmax(bdtr(k, N, p_lo) > GAUGE_BAND_ALPHA / 2))
    hi = int(np.argmax(bdtrc(k, N, p_hi) <= GAUGE_BAND_ALPHA / 2))
    return lo, hi


@pytest.mark.parametrize("family", ["lil_hausdorff", "lil_packing"])
def test_gauge_fractions_in_exact_binomial_band(family):
    d = dimension(QUARTER)
    sig = lil_sigma(QUARTER, "base-2")
    spec = GaugeSpec(family=family, d=d, sigma=sig, epsilon=0.3, epsilon_sign=1,
                     theta=theta_correction("base-2"))
    cks, N = [1024, 16384], 2000
    res = gauge_test(QUARTER, spec, cks, N=N, seed=12)
    for n, fraction in zip(cks, res.fractions):
        p_lo, p_hi = _quarter_hit_probabilities(family, sig, 0.3, n)
        lo, hi = _count_band(p_lo, p_hi, N)
        count = round(fraction * N)
        assert count == fraction * N
        assert lo <= count <= hi, (n, count, lo, hi, p_lo, p_hi)


def test_chain_gauge_counts_in_exact_binomial_band():
    # the chain walk's hit counts against the exact chain law of S_n
    chain = load_zoo_model("markov_chain")
    d, sig = dimension(chain), lil_sigma(chain, "base-2")
    specs = [GaugeSpec(family="power", d=d)] + [
        GaugeSpec(family=family, d=d, sigma=sig, epsilon=0.3, epsilon_sign=-1,
                  theta=theta_correction("base-2"))
        for family in ("lil_hausdorff", "lil_packing")
    ]
    cks, N = [16, 32, 64], 4000
    laws = {n: exact_distribution(chain, n, LogBase.NATURAL) for n in cks}
    for spec in specs:
        res = gauge_test(chain, spec, cks, N=N, seed=12)
        for n, fraction in zip(cks, res.fractions):
            # a path hits iff S_n >= thr; the walk's S_n and the law's atoms
            # each carry the rounding of n additions, so an atom that close
            # to thr counts toward both bounds
            thr = -log_gauge_from_u(spec, n * LN2)
            tol = 2 * n * math.ulp(thr)
            p_lo = float(sum(p for v, p in laws[n] if v >= thr + tol))
            p_hi = float(sum(p for v, p in laws[n] if v >= thr - tol))
            lo, hi = _count_band(p_lo, p_hi, N)
            count = round(fraction * N)
            assert count == fraction * N
            assert lo <= count <= hi, (spec.family, n, count, lo, hi, p_lo, p_hi)


@pytest.mark.parametrize("name", ["bernoulli_quarter", "cantor_biased", "markov_chain"])
def test_gauge_fractions_match_a_gauge_per_path(name):
    """On grids gauge_test evaluates the gauge on one row of t for every
    path; the fractions are those of the gauge taken on every path's t."""
    from mflil import lil

    model = load_zoo_model(name)
    d, cks, N, seed = dimension(model), (16, 64, 256, 1024), 400, 6
    specs = [
        GaugeSpec(family="power", d=d),
        GaugeSpec(family="lil_hausdorff", d=d, sigma=lil_sigma(model, "natural"), epsilon=0.3,
                  epsilon_sign=-1, theta=theta_correction("natural")),
        GaugeSpec(family="lil_packing", d=d, sigma=lil_sigma(model, "natural"), epsilon=0.3,
                  epsilon_sign=-1, theta=theta_correction("natural")),
        GaugeSpec(family="sqrt", d=d, a=0.5, ell=2),
    ]
    if model.core.ell is not None:
        specs.append(GaugeSpec(family="theta", d=d, a=0.5, ell=model.core.ell,
                               chi_profile=ChiProfile(model, q_max=1.0)))
    S, T, _, _ = lil._walk_ensemble(model, lil.lil_convention(model, "natural"), cks, seed, range(N))
    for spec in specs:
        hits = S >= -log_gauge_from_u(spec, T)
        res = gauge_test(model, spec, cks, N=N, seed=seed)
        assert res.fractions == tuple((np.count_nonzero(hits, axis=0) / N).tolist()), spec.family
        hit_by = np.count_nonzero(np.logical_or.accumulate(hits, axis=1), axis=0) / N
        assert res.hit_by == tuple(hit_by.tolist()), spec.family


def reference_gauge_spec(model, args) -> GaugeSpec:
    """The CLI's gauge builder before the family table, verbatim: the
    reference gauge_spec is held to."""
    d = dimension(model)
    if args.family == "power":
        return GaugeSpec(family="power", d=d)
    ell = model.core.ell  # None on self-similar measures
    conv = args.theta_convention
    if conv == "auto":
        conv = (LogBase.NATURAL if ell is None else LogBase.BASE_2 if ell == 2 else LogBase.BASE_ELL).value
    if args.family in ("lil_hausdorff", "lil_packing"):
        return GaugeSpec(
            family=args.family,
            d=d,
            sigma=lil_sigma(model, conv),
            epsilon=args.epsilon,
            epsilon_sign=args.epsilon_sign,
            theta=theta_correction(conv, ell),
        )
    if ell is None:
        raise ValidationError(
            f"the {args.family} gauge family needs a grid scale; "
            "self-similar models support the lil families and power only"
        )
    if args.family == "sqrt":
        return GaugeSpec(family="sqrt", d=d, a=args.a, ell=ell)
    return GaugeSpec(
        family="theta",
        d=d,
        a=args.a,
        ell=ell,
        chi_profile=ChiProfile(model, q_max=args.q_max),
    )


def reference_exponent(spec: GaugeSpec) -> float:
    """GaugeSpec.exponent before the family table, verbatim."""
    if spec.family not in ("lil_hausdorff", "lil_packing"):
        raise ValidationError(f"family {spec.family!r} has no Theta exponent")
    mag = spec.sigma + spec.epsilon_sign * spec.epsilon
    return mag if spec.family == "lil_hausdorff" else -mag


def reference_describe(spec: GaugeSpec) -> dict:
    """GaugeSpec.describe before the family table, verbatim but for the
    exponent, which is reference_exponent's."""
    doc = {"family": spec.family, "d": spec.d}
    if spec.family in ("lil_hausdorff", "lil_packing"):
        doc.update(
            sigma=spec.sigma,
            epsilon=spec.epsilon,
            epsilon_sign=spec.epsilon_sign,
            exponent=reference_exponent(spec),
            theta_convention=spec.theta.convention,
        )
    elif spec.family in ("sqrt", "theta"):
        doc.update(a=spec.a, ell=spec.ell)
    return doc


def reference_log_gauge(spec: GaugeSpec, u):
    """log_gauge_from_u before the family table, verbatim but for the
    exponent, which is reference_exponent's, and the chi inversions, which
    were a helper's."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0):
        raise ValidationError("u = ln(1/t) must be positive")
    base = -spec.d * u_arr
    if spec.family == "power":
        out = base
    elif spec.family in ("lil_hausdorff", "lil_packing"):
        out = base + reference_exponent(spec) * spec.theta.log_theta_from_u(u_arr)
    elif spec.family == "sqrt":
        out = base + spec.a * np.sqrt(u_arr * math.log(spec.ell))
    else:
        lb = math.log(spec.ell)
        values, inverse = np.unique(u_arr / lb, return_inverse=True)
        th = np.array([spec.chi_profile.theta(float(v)) for v in values])[inverse].reshape(u_arr.shape)
        out = base - spec.a * lb * th
    return float(out) if np.ndim(u) == 0 else out


def outcome(f, *args):
    """('ok', f(*args)), or ('refused', type, message) for a ValidationError."""
    try:
        return ("ok", f(*args))
    except ValidationError as exc:
        return ("refused", type(exc), str(exc))


def hexed(x):
    """x with every float spelled by float.hex, through dicts, sequences and arrays."""
    if isinstance(x, dict):
        return {k: hexed(v) for k, v in x.items()}
    if isinstance(x, (tuple, list, np.ndarray)):
        return [hexed(v) for v in (x.tolist() if isinstance(x, np.ndarray) else x)]
    return x.hex() if isinstance(x, float) else x


# the gauge-test defaults, two sets off them (a negative a refused by the theta
# family), and one that the lil, sqrt and theta families all refuse
GAUGE_OPTION_SETS = {
    "defaults": [],
    "moved": ["--epsilon", "0.1", "--epsilon-sign", "-1", "--a", "0.7", "--q-max", "0.6"],
    "negative_a": ["--epsilon", "2.5", "--a", "-0.7", "--q-max", "0.25"],
    "refused": ["--epsilon", "0", "--a", "0"],
}
# u = ln(1/t) at levels 16 to 2^16 of a binary grid, and two off-grid values
GAUGE_U = np.concatenate([np.array([16, 50, 203, 1024, 2 ** 16]) * LN2, [37.25, 1234.5]])


@pytest.mark.parametrize("options", list(GAUGE_OPTION_SETS))
@pytest.mark.parametrize("name", ["bernoulli_half", "bernoulli_quarter", "cantor_natural",
                                  "cantor_biased", "markov_chain"])
def test_gauge_spec_is_the_cli_builder_it_replaced(name, options):
    """gauge_spec gives the old CLI builder's GaugeSpec, or its refusal, for
    every family and Theta convention; describe() and log_gauge_from_u on a
    fixed u grid (an array and a scalar) give the old ones' floats bit for bit."""
    model = load_zoo_model(name)
    for family in _FAMILIES:
        for convention in ["auto", *(b.value for b in LogBase)]:
            args = build_parser().parse_args([
                "gauge-test", "--out", "unused", "--checkpoints", "16", "--N", "1",
                "--family", family, "--theta-convention", convention, *GAUGE_OPTION_SETS[options],
            ])
            case = (family, convention)
            ref = outcome(reference_gauge_spec, model, args)
            got = outcome(lambda: gauge_spec(
                model, args.family, epsilon=args.epsilon, epsilon_sign=args.epsilon_sign,
                a=args.a, q_max=args.q_max, theta_convention=args.theta_convention))
            assert got == ref, case
            if ref[0] == "refused":
                continue
            spec = got[1]
            assert hexed(spec.describe()) == hexed(reference_describe(ref[1])), case
            for u in (GAUGE_U, float(GAUGE_U[2])):
                assert (hexed(outcome(log_gauge_from_u, spec, u))
                        == hexed(outcome(reference_log_gauge, ref[1], u))), case
