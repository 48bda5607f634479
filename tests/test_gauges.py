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
    gauge_test,
    lil_sigma,
    theta_correction,
)
from mflil.gauges import log_gauge_from_u
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
    prof = ChiProfile(QUARTER, side=1, q_max=1.0)
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
                     chi_profile=ChiProfile(QUARTER, side=1, q_max=1.0))
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
                               chi_profile=ChiProfile(model, side=1, q_max=1.0)))
    S, T, _, _ = lil._walk_ensemble(model, lil.lil_convention(model, "natural"), cks, seed, range(N))
    for spec in specs:
        hits = S >= -log_gauge_from_u(spec, T)
        res = gauge_test(model, spec, cks, N=N, seed=seed)
        assert res.fractions == tuple((np.count_nonzero(hits, axis=0) / N).tolist()), spec.family
        hit_by = np.count_nonzero(np.logical_or.accumulate(hits, axis=1), axis=0) / N
        assert res.hit_by == tuple(hit_by.tolist()), spec.family
