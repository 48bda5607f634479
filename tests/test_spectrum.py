import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mflil import (
    BernoulliProduct,
    BudgetError,
    ChiProfile,
    FlatSpectrumError,
    LogBase,
    MarkovMeasure,
    MultinomialMeasure,
    NumericalError,
    SelfSimilarMeasure,
    ValidationError,
    chi,
    dimension,
    is_flat,
    log_partition_sum,
    not_flat_check,
    sigma2,
    sigma2_scale_free,
    sigma2_to_base,
    spectrum_table,
    tau,
    tau_empirical,
    tau_scale_free,
    tau_to_base,
)
from mflil.models import chain_log_masses, word_log_sums
from mflil.spectrum import _chain_power_sum, _logsumexp
from mflil.zoo import load_zoo_model, zoo_models

QUARTER = BernoulliProduct(0.25)
LN2 = math.log(2.0)


def test_tau_fixed_points():
    assert abs(tau_scale_free(QUARTER, 1.0)) <= 1e-14
    assert tau_scale_free(QUARTER, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert tau_scale_free(QUARTER, 2.0) == pytest.approx(-0.6780719051126377, abs=1e-12)


def test_tau_implicit_cantor():
    cn = load_zoo_model("cantor_natural")
    delta = math.log(2) / math.log(3)
    for q in (-1.0, 0.0, 0.5, 2.0):
        assert tau_scale_free(cn, q) == pytest.approx((1 - q) * delta, abs=1e-12)
    cb = load_zoo_model("cantor_biased")
    assert tau_scale_free(cb, 2.0) == pytest.approx(math.log(0.625) / math.log(3), abs=1e-11)


def test_tau_perron_markov():
    mk = load_zoo_model("markov_chain")
    # 2x2 closed form: log_2 of the larger eigenvalue of the q-matrix
    tr = 0.9 ** 2 + 0.5 ** 2
    det = (0.9 * 0.5) ** 2 - (0.1 * 0.5) ** 2
    lam = (tr + math.sqrt(tr * tr - 4 * det)) / 2
    assert tau_scale_free(mk, 2.0) == pytest.approx(math.log2(lam), abs=1e-11)
    assert abs(tau_scale_free(mk, 1.0)) <= 1e-11


def test_methods_agree_on_products():
    m = MultinomialMeasure(3, 1, (0.2, 0.3, 0.5))
    for q in (-1.5, 0.3, 2.5):
        closed = tau_scale_free(m, q)
        # the same weights as a chain with identical rows
        mk = MarkovMeasure(3, 1, (0.2, 0.3, 0.5), ((0.2, 0.3, 0.5),) * 3)
        perron = tau_scale_free(mk, q)
        assert closed == pytest.approx(perron, abs=1e-10)


def test_markov_irreducibility_guard():
    # two closed classes inside the support: no single Perron root
    reducible = MarkovMeasure(2, 1, (0.5, 0.5), ((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValidationError):
        tau_scale_free(reducible, 2.0)
    # absorbing structure OUTSIDE the support is fine: restrict and proceed
    restricted = MarkovMeasure(2, 1, (0.0, 1.0), ((0.5, 0.5), (0.0, 1.0)))
    assert abs(tau_scale_free(restricted, 1.0)) <= 1e-12


@given(st.floats(0.05, 0.95), st.floats(-2, 3), st.floats(-2, 3), st.floats(-2, 3))
@settings(max_examples=60)
def test_tau_convex_decreasing(p, q1, q2, q3):
    qs = sorted((q1, q2, q3))
    m = BernoulliProduct(p)
    t = [tau_scale_free(m, q) for q in qs]
    assert t[0] >= t[1] - 1e-10 >= t[2] - 2e-10
    if qs[2] - qs[0] > 1e-3 and qs[1] - qs[0] > 1e-4 and qs[2] - qs[1] > 1e-4:
        lam = (qs[1] - qs[0]) / (qs[2] - qs[0])
        assert t[1] <= (1 - lam) * t[0] + lam * t[2] + 1e-9


@given(st.floats(0.05, 0.95))
@settings(max_examples=40)
def test_bernoulli_symmetry(p):
    a, b = BernoulliProduct(p), BernoulliProduct(1 - p)
    assert tau_scale_free(a, 1.7) == pytest.approx(tau_scale_free(b, 1.7), abs=1e-12)
    assert dimension(a) == pytest.approx(dimension(b), abs=1e-12)


def test_relabeling_invariance():
    m1 = MultinomialMeasure(3, 1, (0.2, 0.3, 0.5))
    m2 = MultinomialMeasure(3, 1, (0.5, 0.2, 0.3))
    for q in (-1.0, 0.5, 2.0):
        assert tau_scale_free(m1, q) == pytest.approx(tau_scale_free(m2, q), abs=1e-13)
    assert sigma2_scale_free(m1) == pytest.approx(sigma2_scale_free(m2), abs=1e-12)


def test_bernoulli_equals_selfsimilar_twin():
    # p-Bernoulli on the dyadic grid == self-similar with ratios 1/2 in natural units
    b = BernoulliProduct(0.3)
    s = SelfSimilarMeasure((0.7, 0.3), (0.5, 0.5))
    for q in (-1.0, 0.5, 2.0):
        nat_b = tau(b, q, LogBase.NATURAL)
        nat_s = tau_scale_free(s, q) * LN2  # implicit exponent is per ln(1/r)
        assert nat_b == pytest.approx(nat_s, abs=1e-11)
    assert dimension(b) == pytest.approx(dimension(s), abs=1e-11)


def test_base_conversions():
    t_nat = tau(QUARTER, 2.0, LogBase.NATURAL)
    t_b2 = tau(QUARTER, 2.0, LogBase.BASE_2)
    assert t_nat == pytest.approx(t_b2 * LN2, abs=1e-13)
    s_nat = sigma2(QUARTER, LogBase.NATURAL)
    s_b2 = sigma2(QUARTER, LogBase.BASE_2)
    assert s_nat == pytest.approx(s_b2 * LN2, abs=1e-13)
    assert tau_to_base(QUARTER, 1.0, LogBase.NATURAL) == pytest.approx(LN2)
    assert sigma2_to_base(QUARTER, 1.0, LogBase.BASE_2) == pytest.approx(1.0 / LN2)


def test_selfsimilar_units_are_natural_only():
    cb = load_zoo_model("cantor_biased")
    with pytest.raises(ValidationError):
        tau(cb, 2.0, LogBase.BASE_2)
    assert tau(cb, 2.0, LogBase.NATURAL) == pytest.approx(
        tau_scale_free(cb, 2.0), abs=1e-14
    )


def test_anchor_values():
    assert dimension(QUARTER) == pytest.approx(0.8112781244591328, abs=1e-12)
    assert sigma2(QUARTER, LogBase.BASE_2) == pytest.approx(0.471019899129799, abs=1e-12)
    assert sigma2_scale_free(QUARTER) == pytest.approx(0.32648611506945, abs=1e-12)
    cb = load_zoo_model("cantor_biased")
    assert dimension(cb) == pytest.approx(0.5118595071429147, abs=1e-12)
    assert sigma2_scale_free(cb) == pytest.approx(0.20598980412527054, abs=1e-11)
    mk = load_zoo_model("markov_chain")
    assert dimension(mk) == pytest.approx(0.5574963279910676, abs=1e-10)


def test_markov_sigma2_is_a_float():
    mk = load_zoo_model("markov_chain")
    res = sigma2_scale_free(mk)
    assert type(res) is float
    assert res == pytest.approx(0.8774000084681973, abs=1e-5)


def test_flatness():
    assert is_flat(BernoulliProduct(0.5))
    assert is_flat(load_zoo_model("cantor_natural"))
    assert not is_flat(QUARTER)
    assert sigma2_scale_free(BernoulliProduct(0.5)) == 0.0


def test_chi_values():
    assert chi(QUARTER, 0.5) == pytest.approx(0.044345251246929396, abs=1e-12)
    assert chi(QUARTER, 0.25) > 0
    # chi vanishes quadratically at q = 0
    assert chi(QUARTER, 1e-5) == pytest.approx(0.0, abs=1e-8)


def test_chi_profile_inverse_round_trip():
    prof = ChiProfile(QUARTER, q_max=1.0)
    for q in (0.03, 0.2, 0.7, 1.0):
        y = prof.chi(q)
        assert prof.inverse(y) == pytest.approx(q, abs=1e-9)
    y = prof.chi_at_qmax()
    assert ChiProfile(QUARTER).inverse(y) == pytest.approx(1.0, abs=1e-9)


def test_chi_profile_flat_raises():
    prof = ChiProfile(BernoulliProduct(0.5))
    assert prof.flat
    with pytest.raises(FlatSpectrumError):
        prof.inverse(0.01)


def test_chi_profile_flat_is_read_from_the_model():
    assert not ChiProfile(QUARTER).flat
    with pytest.raises(TypeError):
        ChiProfile(QUARTER, flat=True)


def test_theta_domain():
    prof = ChiProfile(QUARTER, q_max=1.0)
    t_lo = 1.0 / prof.chi_at_qmax()
    assert prof.theta(t_lo * 2) > 0
    with pytest.raises(ValidationError):
        prof.theta(t_lo * 0.5)
    # theta is non-increasing in chi: larger t -> smaller 1/t -> smaller q
    assert prof.theta(t_lo * 10) < prof.theta(t_lo * 2) * 10


def test_not_flat_check():
    res = not_flat_check(QUARTER, q_max=1.0, levels=10)
    assert res.holds and not res.flat
    assert res.C >= 1.0
    assert res.alpha_lower_bound > 0
    flat = not_flat_check(BernoulliProduct(0.5))
    assert flat.flat and not flat.holds


@given(st.floats(0.06, 0.94), st.floats(0.05, 1.0))
@settings(max_examples=40)
def test_chi_doubling_property(p, q):
    m = BernoulliProduct(p)
    if is_flat(m):
        return
    c1, c2 = chi(m, q), chi(m, q / 2)
    assert c1 > 0 and c2 > 0
    assert c1 >= c2 - 1e-15  # chi increases along the branch
    # doubling with a uniform constant on this parameter box; the measured
    # sup of chi(q)/chi(q/2) over it is 5.77 (at p = 0.06, q = 1)
    assert c1 <= 6.5 * c2


def _enumerated_log_sum(model, q, n):
    """The level-n partition sum of every word, enumerated: the product
    route that log_partition_sum factorises, and its chain route within
    2^14 words."""
    if model.core.kind == "product":
        logmass = word_log_sums(model, model.core.log_weights, n)
    else:
        logmass = chain_log_masses(model, n)
    return float(_logsumexp(q * logmass[np.isfinite(logmass)]))


def test_log_partition_sum_routes_agree():
    for model in (QUARTER, MultinomialMeasure(3, 1, (0.2, 0.3, 0.5))):
        for q in (-1.0, 0.5, 2.0):
            fac = log_partition_sum(model, q, 6)
            assert fac == pytest.approx(_enumerated_log_sum(model, q, 6), abs=1e-11)
    mk = load_zoo_model("markov_chain")
    enu = log_partition_sum(mk, 2.0, 6)  # 2^6 words: enumerated
    assert enu == pytest.approx(_chain_power_sum(mk.core, 2.0, 6), abs=1e-11)


def test_chain_scaled_matrix_powers_match_enumeration():
    # the power route is what log_partition_sum takes past 2^14 chain words
    mk = load_zoo_model("markov_chain")
    for n in range(1, 13):
        for q in (-1.5, 0.5, 1.0, 2.5):
            fac = _chain_power_sum(mk.core, q, n)
            enu = _enumerated_log_sum(mk, q, n)
            # relative error of the partition sum itself: at q = 1 its log is 0
            assert abs(math.expm1(fac - enu)) <= 1e-12, (n, q)
            assert log_partition_sum(mk, q, n) == pytest.approx(enu, abs=1e-12)
    assert log_partition_sum(mk, 0.5, 15) == _chain_power_sum(mk.core, 0.5, 15)


@pytest.mark.parametrize("model", [
    load_zoo_model("cantor_biased"), SelfSimilarMeasure((0.2, 0.5, 0.3), (0.2, 0.3, 0.25)),
], ids=["cantor_biased", "unequal_ratios"])
def test_selfsimilar_empirical_tau_is_tau_at_every_level(model):
    # sum over level-n words of p_w^q r_w^tau is (sum_i p_i^q r_i^tau)^n, so
    # the level-n root is the level-1 root
    for n in range(1, 7):
        for q in (-1.5, 0.5, 1.0, 2.5):
            emp = tau_empirical(model, q, n)
            assert abs(emp - tau_scale_free(model, q)) <= 1e-12, (n, q)


def test_tau_empirical():
    # product families: the finite-level exponent equals tau at every level
    assert tau_empirical(QUARTER, 2.0, 8) == pytest.approx(
        tau(QUARTER, 2.0), abs=1e-12
    )
    mk = load_zoo_model("markov_chain")
    t_inf = tau_scale_free(mk, 2.0)
    gap10 = abs(tau_empirical(mk, 2.0, 10) - t_inf)
    gap14 = abs(tau_empirical(mk, 2.0, 14) - t_inf)
    assert gap14 < gap10  # converging in n


def test_spectrum_table():
    table = spectrum_table(QUARTER, q_min=-1.0, q_max=2.0, q_step=0.25)
    assert 1.0 in table.q and 0.0 in table.q
    i1 = table.q.index(1.0)
    assert abs(table.tau[i1]) <= 1e-10
    i0 = table.q.index(0.0)
    assert table.tau[i0] == pytest.approx(table.delta, abs=1e-12)
    assert table.d == pytest.approx(0.8112781244591328, abs=1e-10)
    assert not table.flat
    with pytest.raises(ValidationError):
        spectrum_table(QUARTER, q_step=-0.1)


def test_spectrum_table_rows_stop_at_q_max(monkeypatch):
    assert spectrum_table(QUARTER, q_min=0.0, q_max=1.0, q_step=0.6).q == (0.0, 0.6)
    # q_max stays a row when the quotient is an integer up to float error
    assert spectrum_table(QUARTER, q_min=0.0, q_max=0.3, q_step=0.1).q == (0.0, 0.1, 0.2, 0.3)
    assert len(spectrum_table(QUARTER).q) == 101
    assert len(spectrum_table(QUARTER, q_min=-2.0, q_max=3.0, q_step=0.01).q) == 501
    # the budget counts rows by the same rule
    monkeypatch.setenv("MFLIL_ENUM_BUDGET", "2")
    assert len(spectrum_table(QUARTER, q_min=0.0, q_max=1.0, q_step=0.6).q) == 2
    with pytest.raises(BudgetError):
        spectrum_table(QUARTER, q_min=0.0, q_max=1.2, q_step=0.6)
    with pytest.raises(BudgetError):  # a finite span next to the float range
        spectrum_table(QUARTER, q_min=0.0, q_max=1.7976931348623157e308, q_step=1.0)


def test_dimension_all_zoo_cross_checks():
    for name, model in zoo_models().items():
        d = dimension(model)  # raises NumericalError if routes disagree
        assert 0.0 < d <= 1.0 + 1e-12, name


def test_markov_sigma2_is_exact():
    # the mpmath oracle of report._mp_markov_sigma2_natural
    mk = load_zoo_model("markov_chain")
    assert abs(sigma2_scale_free(mk) - 0.8774000084681971) <= 1e-12


@pytest.mark.parametrize("q", [-1.5, 0.5, 2.5])
def test_chain_kernel_derivatives_match_mpmath(q):
    import mpmath as mp

    from mflil.report import _mp_markov_tau_star
    from mflil.spectrum import spectral_kernel

    with mp.workdps(50):
        ref = [float(mp.diff(_mp_markov_tau_star, mp.mpf(q), n)) for n in (0, 1, 2)]
    got = spectral_kernel(load_zoo_model("markov_chain"), q)
    for n in range(3):
        assert got[n] == pytest.approx(ref[n], abs=1e-12), n


def test_product_kernel_with_unequal_ratios_matches_mpmath():
    import mpmath as mp

    from mflil.spectrum import spectral_kernel

    probs, ratios = (0.2, 0.5, 0.3), (0.25, 0.4, 0.1)
    model = SelfSimilarMeasure(probs, ratios)

    def root(q):
        return mp.findroot(
            lambda t: mp.fsum(mp.mpf(p) ** q * mp.mpf(r) ** t for p, r in zip(probs, ratios)) - 1,
            mp.mpf(1) - q,
        )

    with mp.workdps(40):
        for q in (-1.0, 0.5, 1.0, 2.0):
            ref = [float(mp.diff(root, mp.mpf(q), n)) for n in (0, 1, 2)]
            got = spectral_kernel(model, q)
            for n in range(3):
                assert got[n] == pytest.approx(ref[n], abs=1e-11), (q, n)
    assert dimension(model) == pytest.approx(-float(mp.diff(root, 1)), abs=1e-12)


@pytest.mark.parametrize("k", [2, 3])
def test_periodic_chains_take_the_real_perron_root(k):
    # a k-cycle: every eigenvalue of M_q has modulus 1, the Perron root is 1
    P = tuple(tuple(1.0 if j == (i + 1) % k else 0.0 for j in range(k)) for i in range(k))
    cycle = MarkovMeasure(k, 1, (1.0 / k,) * k, P)
    for q in np.arange(-2.0, 3.01, 0.25):
        assert tau_scale_free(cycle, float(q)) == pytest.approx(0.0, abs=1e-14)
    assert dimension(cycle) == pytest.approx(0.0, abs=1e-14)
    assert sigma2_scale_free(cycle) == pytest.approx(0.0, abs=1e-14)


def test_chi_profile_theta_makes_few_tau_evaluations(monkeypatch):
    from mflil import spectrum as spectrum_module

    mk = load_zoo_model("markov_chain")
    prof = ChiProfile(mk, q_max=1.0)
    calls = []
    perron = spectrum_module.perron_root

    def counting(*args, **kwargs):
        calls.append(1)
        return perron(*args, **kwargs)

    monkeypatch.setattr(spectrum_module, "perron_root", counting)
    t_lo = 1.0 / prof.chi_at_qmax()
    for t in (t_lo * 1.5, t_lo * 40.0, 2.0 ** 16):
        calls.clear()
        q = 1.0 / prof.theta(t)
        assert len(calls) <= 10, (t, len(calls))
        assert prof.chi(q) == pytest.approx(1.0 / t, abs=1e-12)


def _array_kernel_models():
    models = dict(zoo_models())
    models["multinomial_gap"] = MultinomialMeasure(3, 1, (0.2, 0.0, 0.8))
    models["selfsimilar_unequal"] = SelfSimilarMeasure((0.2, 0.5, 0.3), (0.2, 0.3, 0.25))
    for k in (2, 3):
        P = tuple(tuple(1.0 if j == (i + 1) % k else 0.0 for j in range(k)) for i in range(k))
        models[f"cycle{k}"] = MarkovMeasure(k, 1, (1.0 / k,) * k, P)
    models["chain3"] = MarkovMeasure(
        3, 1, (1 / 3,) * 3, ((0.5, 0.5, 0.0), (0.0, 0.3, 0.7), (0.6, 0.0, 0.4)),
        stationary_required=False,
    )
    return models


# the q where numpy's scalar power is exact (2, 0.5, -1), the fixed points
# 0 and 1, negative q, and 0.58 and 1.04, where np.log and math.log of the
# zoo chain's Perron root differ by an ulp
ARRAY_QS = np.array([-2.0, -1.0, -0.55, -0.5, 0.0, 0.25, 0.5, 0.58, 1.0, 1.04, 1.5, 2.0, 2.37, 3.0])


@pytest.mark.parametrize("name", sorted(_array_kernel_models()))
def test_array_tau_is_the_scalar_tau_bit_for_bit(name, monkeypatch):
    from mflil import spectrum as spectrum_module
    from mflil.spectrum import spectral_kernel

    model = _array_kernel_models()[name]
    got = tau_scale_free(model, ARRAY_QS)
    assert got.shape == ARRAY_QS.shape
    hexes = [float(t).hex() for t in got]
    assert hexes == [tau_scale_free(model, q).hex() for q in ARRAY_QS.tolist()]
    assert hexes == [spectral_kernel(model, q)[0].hex() for q in ARRAY_QS.tolist()]
    monkeypatch.setattr(spectrum_module, "_Q_BLOCK", 5)  # passes of 5, 5 and 4 q
    assert [float(t).hex() for t in tau_scale_free(model, ARRAY_QS)] == hexes
    chis = chi(model, -ARRAY_QS[1:9])
    assert [float(c).hex() for c in chis] == [chi(model, -q).hex() for q in ARRAY_QS[1:9].tolist()]
    assert tau_scale_free(model, ARRAY_QS[:0]).shape == (0,)


def test_stacked_perron_root_is_each_matrix_root():
    from mflil.spectrum import perron_root

    rng = np.random.default_rng(5)
    for k in (2, 3, 4):
        stack = rng.random((40, k, k)) * (rng.random((40, k, k)) < 0.8)
        roots = perron_root(stack)
        assert roots.shape == (40,)
        assert [float(r).hex() for r in roots] == [perron_root(M)[0].hex() for M in stack]
    with pytest.raises(ValidationError):
        perron_root(-stack)
    with pytest.raises(ValidationError):
        perron_root(np.zeros((2, 2, 3)))


def test_tau_refuses_a_q_matrix():
    with pytest.raises(ValidationError):
        tau_scale_free(QUARTER, np.zeros((2, 2)))


def test_spectrum_table_makes_one_eigen_solve_for_the_grid(monkeypatch):
    from mflil import spectrum as spectrum_module

    calls = []
    perron = spectrum_module.perron_root

    def counting(M):
        calls.append(np.ndim(M))
        return perron(M)

    monkeypatch.setattr(spectrum_module, "perron_root", counting)
    counts = []
    for q_step in (0.5, 0.01):
        calls.clear()
        # a fresh model per grid: the q = 1 solves are kept per model
        mk = load_zoo_model("markov_chain")
        table = spectrum_table(mk, q_min=-2.0, q_max=3.0, q_step=q_step)
        counts.append(len(calls))
        assert calls.count(3) >= 1  # the grid went through one stacked solve
    assert len(table.q) == 501
    assert counts[0] == counts[1] <= 8, counts



def _memo_models():
    models = dict(zoo_models())
    models["chain3"] = MarkovMeasure(
        # doubly stochastic, so the uniform start law is stationary
        3, 1, (1 / 3,) * 3, ((0.1, 0.6, 0.3), (0.5, 0.25, 0.25), (0.4, 0.15, 0.45))
    )
    return models


@pytest.mark.parametrize("name", sorted(_memo_models()))
def test_kernel_at_one_is_the_kernel_bit_for_bit(name):
    from mflil import spectrum as spectrum_module

    model = _memo_models()[name]
    core = model.core
    want = [x.hex() for x in spectrum_module._KERNELS[core.kind](core, 1.0)]
    for _ in range(2):  # a solve, then the kept tuple
        got = spectrum_module.spectral_kernel(model, 1.0)
        assert isinstance(got, tuple)
        assert [x.hex() for x in got] == want
    assert dimension(model) == -float.fromhex(want[1])
    assert sigma2_scale_free(model) == float.fromhex(want[2])


def test_each_model_reads_its_own_q_one_constants():
    import gc

    from mflil import spectrum as spectrum_module

    pairs = [
        (BernoulliProduct(0.25), BernoulliProduct(0.3)),
        (MarkovMeasure(2, 1, (5 / 6, 1 / 6), ((0.9, 0.1), (0.5, 0.5))),
         MarkovMeasure(2, 1, (2 / 3, 1 / 3), ((0.8, 0.2), (0.4, 0.6)))),
    ]
    for a, b in pairs:
        da, db = dimension(a), dimension(b)
        assert da != db
        for model, d in ((a, da), (b, db), (a, da)):
            core = model.core
            kernel = spectrum_module._KERNELS[core.kind](core, 1.0)
            assert dimension(model) == d == -kernel[1]
            assert sigma2_scale_free(model) == kernel[2]
    # no entry outlives its model
    gc.collect()
    before = len(spectrum_module._KERNEL_AT_ONE), len(spectrum_module._DIMENSION)
    model = BernoulliProduct(0.2)
    dimension(model)
    assert (len(spectrum_module._KERNEL_AT_ONE), len(spectrum_module._DIMENSION)) == (
        before[0] + 1, before[1] + 1)
    del model
    gc.collect()
    assert (len(spectrum_module._KERNEL_AT_ONE), len(spectrum_module._DIMENSION)) == before


@pytest.mark.parametrize("name", ["bernoulli_quarter", "markov_chain"])
def test_dimension_refuses_a_disagreeing_entropy_form_on_every_call(name, monkeypatch):
    from mflil import spectrum as spectrum_module

    entropy = spectrum_module._entropy_dimension
    monkeypatch.setattr(spectrum_module, "_entropy_dimension", lambda m: entropy(m) + 1e-6)
    model = load_zoo_model(name)
    spectrum_module.spectral_kernel(model, 1.0)  # the kernel alone is kept
    for _ in range(2):  # a refused d is not kept
        with pytest.raises(NumericalError, match="dimension cross-check failed"):
            dimension(model)


@pytest.mark.parametrize("name", sorted(_array_kernel_models()))
def test_array_empirical_tau_is_the_float_call_bit_for_bit(name, monkeypatch):
    from mflil import spectrum as spectrum_module

    model = _array_kernel_models()[name]
    # the unequal self-similar roots took 1.8 s over 3^12 words on a 2-vCPU
    # host, and grow with the word count; the two Cantor models carry the
    # self-similar rule to n = 14 and 15
    ns = (1, 6) if name == "selfsimilar_unequal" else (1, 6, 14, 15)
    for n in ns:
        rules = {"tau_empirical": lambda q: tau_empirical(model, q, n)}
        if model.core.ell is not None:
            rules["log_partition_sum"] = lambda q: log_partition_sum(model, q, n)
        for label, rule in rules.items():
            want = [rule(q).hex() for q in ARRAY_QS.tolist()]
            assert [float(t).hex() for t in rule(ARRAY_QS)] == want, (label, n)
            with monkeypatch.context() as patch:
                patch.setattr(spectrum_module, "_Q_BLOCK", 100)  # passes of a few q
                assert [float(t).hex() for t in rule(ARRAY_QS)] == want, (label, n)
            assert rule(ARRAY_QS[:0]).shape == (0,)


def test_empirical_table_enumerates_the_words_once(monkeypatch):
    from mflil import spectrum as spectrum_module

    calls = []
    enumerate_chain = spectrum_module.chain_log_masses

    def counting(model, n):
        calls.append(n)
        return enumerate_chain(model, n)

    monkeypatch.setattr(spectrum_module, "chain_log_masses", counting)
    table = spectrum_table(load_zoo_model("markov_chain"), empirical_n=14)
    assert len(table.q) == 101
    assert calls == [14]


def test_empirical_tau_refuses_levels_below_one_and_grid_units_on_self_similar():
    cb = load_zoo_model("cantor_biased")
    for n in (0, -1):
        with pytest.raises(ValidationError):
            tau_empirical(cb, 1.0, n)
        with pytest.raises(ValidationError):
            tau_empirical(QUARTER, 1.0, n)
    with pytest.raises(ValidationError):
        tau_empirical(cb, 1.0, 4, LogBase.BASE_2)


def _logsumexp_rows(rng):
    """Rows of 1-3,000 entries at scales 1e-3 to 700, with each edge case in
    turn: plain, ties at the maximum, -inf entries, all -inf, +inf, NaN."""
    for i in range(600):
        a = rng.normal(size=int(rng.integers(1, 3001))) * 10.0 ** rng.uniform(-3.0, math.log10(700.0))
        pick = rng.integers(0, a.size, size=int(rng.integers(1, a.size + 1)))
        kind = i % 6
        if kind == 1:
            a[pick] = a.max()
        elif kind == 2:
            a[pick] = -np.inf
        elif kind == 3:
            a[:] = -np.inf
        elif kind == 4:
            a[pick[0]] = np.inf
        elif kind == 5:
            a[pick[0]] = np.nan
        yield a


def test_logsumexp_is_scipys_bit_for_bit():
    from scipy.special import logsumexp

    rng = np.random.default_rng(20211)
    for a in _logsumexp_rows(rng):
        # the call sites' shapes: q * row, and a (q, word) matrix, here with an all -inf row
        qa = rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 9)))[:, None] * a
        if len(qa) > 1:
            qa[rng.integers(0, len(qa))] = -np.inf
        for got, want in ((_logsumexp(a), logsumexp(a)), (_logsumexp(qa), logsumexp(qa, axis=1))):
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want, equal_nan=True), (a, got, want)
