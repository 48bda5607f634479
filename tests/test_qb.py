import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mflil import (
    BernoulliProduct,
    MarkovMeasure,
    MultinomialMeasure,
    NumericalError,
    dichotomy_classify,
    qb_constant,
)
from mflil import qb as qb_module
from mflil.models import chain_log_masses
from mflil.zoo import load_zoo_model
from reference_paths import log_cylinder_mass, partition_bound_check, sample_symbols


def test_qb_constant_products_are_exact_one():
    rep = qb_constant(BernoulliProduct(0.25))
    assert rep.C_hat == 1.0
    rep2 = qb_constant(load_zoo_model("cantor_biased"))
    assert rep2.C_hat == 1.0


def test_qb_constant_markov_closed_form():
    mk = load_zoo_model("markov_chain")
    rep = qb_constant(mk, max_level=6, random_pairs=128)
    assert rep.C_hat == pytest.approx(3.0, abs=1e-12)
    assert rep.pairs_tested > 0


@given(st.lists(st.integers(0, 1), min_size=1, max_size=6),
       st.lists(st.integers(0, 1), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_qb_ratio_bounds_markov(a, b):
    mk = load_zoo_model("markov_chain")
    C = qb_constant(mk).C_hat
    lm_uv = log_cylinder_mass(mk, a + b)
    lm_u = log_cylinder_mass(mk, a)
    lm_v = log_cylinder_mass(mk, b)
    ratio = math.exp(lm_uv - lm_u - lm_v)
    assert 1.0 / C - 1e-9 <= ratio <= C + 1e-9


def test_partition_bound_holds_for_true_exponent():
    mk = load_zoo_model("markov_chain")
    rep = partition_bound_check(mk, q_list=[-1.0, 0.5, 2.0], n_list=[6, 10, 14])
    assert not rep.rejected
    assert rep.worst_margin > 0
    assert rep.C == pytest.approx(3.0, abs=1e-12)
    assert all(cell.holds for cell in rep.cells)
    assert max(abs(dr) for _, dr in rep.drifts) <= rep.drift_tol


def test_partition_bound_rejects_shifted_exponent():
    mk = load_zoo_model("markov_chain")
    rep = partition_bound_check(
        mk, q_list=[-1.0, 0.5, 2.0], n_list=[6, 10, 14], tau_shift=0.01
    )
    assert rep.rejected
    assert "drift" in rep.reason
    rep2 = partition_bound_check(mk, q_list=[2.0], n_list=[6, 14], tau_shift=0.5)
    assert rep2.rejected
    assert "bound" in rep2.reason


def test_partition_bound_products_tight():
    rep = partition_bound_check(BernoulliProduct(0.25), [0.5, 2.0], [4, 8])
    assert not rep.rejected
    # products are exactly multiplicative: defect stays at float-noise scale
    assert max(abs(c.defect) for c in rep.cells) < 1e-10


def test_dichotomy_cases():
    assert dichotomy_classify(load_zoo_model("cantor_natural")).case == "equivalent_to_Hdelta"
    assert dichotomy_classify(BernoulliProduct(0.5)).case == "equivalent_to_Hdelta"
    for name in ("bernoulli_quarter", "cantor_biased", "markov_chain"):
        res = dichotomy_classify(load_zoo_model(name))
        assert res.case == "singular_Hd_ac_Pd", name
        assert res.d < res.delta - res.tol_eq
        assert res.evidence["not_flat_plus"]["holds"]
        assert res.evidence["not_flat_minus"]["holds"]
        assert res.evidence["sigma2_natural"] > 0
        assert "witness_gauges" in res.evidence


def test_dichotomy_equivalent_evidence():
    res = dichotomy_classify(load_zoo_model("cantor_natural"))
    lo, hi = res.evidence["homogeneous_ratio_range"]
    assert lo <= 1.0 + 1e-9 <= hi + 2e-9
    assert res.evidence["flat"]


def test_dichotomy_uniform_chain_is_equivalent_to_hdelta():
    chain = MarkovMeasure(2, 1, (0.5, 0.5), ((0.5, 0.5), (0.5, 0.5)))
    res = dichotomy_classify(chain)
    assert res.case == "equivalent_to_Hdelta"
    assert res.evidence["homogeneous_ratio_range"] == (1.0, 1.0)


def test_dichotomy_multinomial_with_gaps():
    m = MultinomialMeasure(3, 1, (0.5, 0.0, 0.5))
    res = dichotomy_classify(m)
    # uniform on its support set: d = delta = log_3 2
    assert res.case == "equivalent_to_Hdelta"
    assert res.d == pytest.approx(math.log(2) / math.log(3), abs=1e-10)
    # uniform on the two active symbols: m equals the homogeneous measure there
    assert res.evidence["homogeneous_ratio_range"] == (1.0, 1.0)


def test_markov_enumeration_matches_closed_form_at_every_level():
    # the pairwise ratio depends only on the boundary symbols, so the
    # enumerated sup should saturate the closed form already at small levels
    mk = load_zoo_model("markov_chain")
    k = mk.core.k
    for lvl in (2, 4):
        L = {n: chain_log_masses(mk, n) for n in range(1, lvl + 1)}
        sup = 1.0
        for a in range(1, lvl):
            for b in range(1, lvl - a + 1):
                for u in range(k ** a):
                    for v in range(k ** b):
                        logs = (L[a + b][u * k ** b + v], L[a][u], L[b][v])
                        if all(math.isfinite(x) for x in logs):
                            sup = max(sup, math.exp(abs(logs[0] - logs[1] - logs[2])))
        rep = qb_constant(mk, max_level=lvl, random_pairs=16)
        assert rep.C_hat == pytest.approx(sup, abs=1e-12)


def test_qb_constant_returns_python_floats():
    for model in (load_zoo_model("markov_chain"), BernoulliProduct(0.25)):
        rep = qb_constant(model)
        assert type(rep.C_hat) is float


def test_qb_pairs_tested_on_the_zoo_chain():
    # 3,076 word pairs with |u| + |v| <= 8 plus 256 random pairs
    assert qb_constant(load_zoo_model("markov_chain")).pairs_tested == 3332


def test_qb_pairs_tested_matches_brute_force_with_a_zero_transition():
    # null transition 1 -> 1; state 2 lies outside the support
    model = MarkovMeasure(
        3, 1, (0.6, 0.4, 0.0),
        ((0.5, 0.5, 0.0), (1.0, 0.0, 0.0), (0.2, 0.3, 0.5)),
        stationary_required=False,
    )
    max_level = 5

    def lm(symbols):
        return log_cylinder_mass(model, symbols)

    expected = 0
    for a in range(1, max_level):
        for b in range(1, max_level - a + 1):
            for u in itertools.product(range(3), repeat=a):
                for v in itertools.product(range(3), repeat=b):
                    if all(math.isfinite(x) for x in (lm(u), lm(v), lm(u + v))):
                        expected += 1
    rep = qb_constant(model, max_level=max_level, random_pairs=0)
    assert rep.pairs_tested == expected


def test_qb_constant_rejects_a_closed_form_below_the_enumerated_sup(monkeypatch):
    monkeypatch.setattr(qb_module, "_markov_closed_C", lambda model: 2.0)
    with pytest.raises(NumericalError):
        qb_constant(load_zoo_model("markov_chain"), random_pairs=0)


_GAPPY = MarkovMeasure(
    3, 1, (0.6, 0.4, 0.0),
    ((0.5, 0.5, 0.0), (1.0, 0.0, 0.0), (0.2, 0.3, 0.5)),
    stationary_required=False,
)


def _reference_random_sweep(model, pairs, max_len, seed):
    """The per-pair sweep stepped one symbol at a time: the words and the
    number of pairs whose u, v and uv all have positive mass."""
    rng = qb_module.path_rng(seed, 0)
    words, count = [], 0
    for _ in range(pairs):
        la = int(rng.integers(1, max_len + 1))
        lb = int(rng.integers(1, max_len + 1))
        u = sample_symbols(model, la, rng).tolist()
        v = sample_symbols(model, lb, rng).tolist()
        words += [u, v]
        lm = [log_cylinder_mass(model, w) for w in (u, v, u + v)]
        count += all(math.isfinite(x) for x in lm)
    return words, count


@pytest.mark.parametrize("model", [load_zoo_model("markov_chain"), _GAPPY])
@pytest.mark.parametrize("seed", [0, 7])
def test_random_sweep_matches_the_per_symbol_reference(model, seed):
    words, count = _reference_random_sweep(model, 200, 11, seed)
    syms, lengths = qb_module._sampled_chain_words(
        model.core, 200, 11, qb_module.path_rng(seed, 0)
    )
    assert [syms[w, :n].tolist() for w, n in enumerate(lengths)] == words
    base = qb_constant(model, max_level=2, random_pairs=0).pairs_tested
    rep = qb_constant(model, max_level=2, seed=seed, random_pairs=200, random_max_level=11)
    assert rep.pairs_tested - base == count
