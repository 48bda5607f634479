import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mflil import (
    BernoulliProduct,
    BudgetError,
    MarkovMeasure,
    MultinomialMeasure,
    SelfSimilarMeasure,
    ValidationError,
    homogeneous_measure,
    log_cylinder_mass,
    model_from_dict,
    model_to_dict,
    parse_model_file,
    path_rng,
    sample_symbols,
    support_info,
    symbol_weights,
)
from mflil.models import chain_log_masses, check_enumeration_budget, path_uniforms, rekey_path_rng
from mflil.symbolic import word
from mflil.zoo import load_zoo_model, zoo_models
from reference_paths import stationary_distribution


def test_bernoulli_validation():
    with pytest.raises(ValidationError):
        BernoulliProduct(0.0)
    with pytest.raises(ValidationError):
        BernoulliProduct(1.0)
    b = BernoulliProduct(0.25)
    assert np.allclose(b.weights, [0.75, 0.25])


def test_multinomial_validation():
    with pytest.raises(ValidationError):
        MultinomialMeasure(2, 1, (0.5, 0.6))
    with pytest.raises(ValidationError):
        MultinomialMeasure(2, 1, (0.5, 0.25, 0.25))  # wrong arity
    with pytest.raises(ValidationError):
        MultinomialMeasure(2, 1, (0.0, 0.0))
    m = MultinomialMeasure(2, 1, (0.0, 1.0))  # zero weights allowed
    assert m.alphabet.k == 2


def test_selfsimilar_validation():
    with pytest.raises(ValidationError):
        SelfSimilarMeasure((0.5, 0.5), (0.5, 1.0))
    with pytest.raises(ValidationError):
        SelfSimilarMeasure((0.5, 0.5), (0.5,))
    with pytest.raises(ValidationError):
        SelfSimilarMeasure((1.0, 0.0), (0.5, 0.5))  # zero prob not allowed here


def test_markov_validation():
    with pytest.raises(ValidationError):
        MarkovMeasure(2, 1, (0.5, 0.5), ((0.9, 0.2), (0.5, 0.5)))  # bad row sum
    with pytest.raises(ValidationError):
        MarkovMeasure(2, 1, (0.5, 0.5), ((0.9, 0.1), (0.5, 0.5)))  # pi not stationary
    # same pi waived explicitly
    m = MarkovMeasure(2, 1, (0.5, 0.5), ((0.9, 0.1), (0.5, 0.5)), stationary_required=False)
    assert m.alphabet.ell == 2


def test_stationary_distribution():
    P = np.array([[0.9, 0.1], [0.5, 0.5]])
    pi = stationary_distribution(P)
    assert np.allclose(pi @ P, pi, atol=1e-13)
    assert pi[0] == pytest.approx(5.0 / 6.0, abs=1e-12)


@given(st.lists(st.integers(0, 1), min_size=0, max_size=10),
       st.lists(st.integers(0, 1), min_size=0, max_size=10))
def test_product_mass_multiplicative(a, b):
    m = BernoulliProduct(0.3)
    u, v = word(a), word(b)
    uv = word(list(a) + list(b))
    lm = log_cylinder_mass(m, uv)
    assert lm == pytest.approx(log_cylinder_mass(m, u) + log_cylinder_mass(m, v), abs=1e-12)


@pytest.mark.parametrize("name", ["bernoulli_quarter", "cantor_biased", "markov_chain"])
def test_mass_additivity(name):
    model = load_zoo_model(name)
    k = model.core.k
    parent = word([0, 1, 0], ell=model.alphabet.ell)
    total = sum(
        math.exp(log_cylinder_mass(model, word([0, 1, 0, s], ell=model.alphabet.ell)))
        for s in range(k)
    )
    assert total == pytest.approx(math.exp(log_cylinder_mass(model, parent)), abs=1e-14)


def test_mass_additivity_at_root():
    for model in zoo_models().values():
        k = model.core.k
        total = sum(
            math.exp(log_cylinder_mass(model, word([s], ell=model.alphabet.ell))) for s in range(k)
        )
        assert total == pytest.approx(1.0, abs=1e-14)


def test_support_info():
    full = support_info(BernoulliProduct(0.25))
    assert full.full and full.delta == pytest.approx(1.0)
    gappy = support_info(MultinomialMeasure(3, 1, (0.5, 0.0, 0.5)))
    assert not gappy.full
    assert gappy.delta == pytest.approx(math.log(2) / math.log(3), abs=1e-14)
    assert tuple(gappy.active) == (0, 2)


def test_homogeneous_measure():
    h = homogeneous_measure(MultinomialMeasure(3, 1, (0.5, 0.0, 0.5)))
    assert np.allclose(symbol_weights(h), [0.5, 0.0, 0.5])
    h2 = homogeneous_measure(BernoulliProduct(0.25))
    assert np.allclose(symbol_weights(h2), [0.5, 0.5])


CHAIN_4 = ((0.5, 0.25, 0.25, 0.0), (0.1, 0.6, 0.1, 0.2), (0.0, 0.3, 0.3, 0.4), (0.25, 0.25, 0.25, 0.25))


def test_model_round_trip():
    models = [
        *zoo_models().values(),
        MultinomialMeasure(3, 2, (0.1, 0.2, 0.0, 0.05, 0.15, 0.1, 0.2, 0.1, 0.1)),
        MarkovMeasure(2, 2, tuple(stationary_distribution(CHAIN_4).tolist()), CHAIN_4),
    ]
    for model in models:
        again = model_from_dict(model_to_dict(model))
        assert type(again) is type(model)
        assert model_to_dict(again) == model_to_dict(model)


def test_model_schema_rejects_junk(tmp_path):
    with pytest.raises(ValidationError):
        model_from_dict({"family": "bernoulli", "p": 0.25, "extra": 1})
    with pytest.raises(ValidationError):
        model_from_dict({"family": "bernoulli"})
    with pytest.raises(ValidationError):
        model_from_dict({"family": "nonsense", "p": 0.5})
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ValidationError):
        parse_model_file(str(bad))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"family": "bernoulli", "p": 0.25}))
    assert isinstance(parse_model_file(str(good)), BernoulliProduct)


_P2 = [[0.5, 0.5], [0.5, 0.5]]
JUNK_DOCS = {
    "family-not-a-name": {"family": ["bernoulli"], "p": 0.5},
    "no-family": {"p": 0.5},
    "bernoulli-no-p": {"family": "bernoulli"},
    "multinomial-no-ell": {"family": "multinomial", "weights": [0.5, 0.5]},
    "multinomial-no-weights": {"family": "multinomial", "ell": 2},
    "selfsimilar-no-probs": {"family": "selfsimilar", "ratios": [0.5, 0.5]},
    "selfsimilar-no-ratios": {"family": "selfsimilar", "probs": [0.5, 0.5]},
    "markov-no-ell": {"family": "markov", "pi": [0.5, 0.5], "P": _P2},
    "markov-no-pi": {"family": "markov", "ell": 2, "P": _P2},
    "markov-no-P": {"family": "markov", "ell": 2, "pi": [0.5, 0.5]},
    "bernoulli-ell-3": {"family": "bernoulli", "p": 0.25, "ell": 3},
    "bernoulli-D-2": {"family": "bernoulli", "p": 0.25, "D": 2},
    "ell-2.5": {"family": "multinomial", "ell": 2.5, "weights": [0.5, 0.5]},
    "ell-true": {"family": "multinomial", "ell": True, "weights": [0.5, 0.5]},
    "bernoulli-ell-2.5": {"family": "bernoulli", "p": 0.25, "ell": 2.5},
    "bernoulli-ell-true": {"family": "bernoulli", "p": 0.25, "ell": True},
    "a-list": [{"family": "bernoulli", "p": 0.25}],
    "a-string": "bernoulli",
    "null": None,
    "ragged-P": {"family": "markov", "ell": 2, "pi": [0.5, 0.5], "P": [[1, 0], [1]]},
    "scalar-row-in-P": {"family": "markov", "ell": 2, "pi": [0.5, 0.5], "P": [[0.5, 0.5], 1]},
    "nested-weights": {"family": "multinomial", "ell": 2, "weights": [[0.5], [0.5]]},
}


@pytest.mark.parametrize("doc", JUNK_DOCS.values(), ids=JUNK_DOCS)
def test_model_schema_refuses(doc):
    with pytest.raises(ValidationError):
        model_from_dict(doc)


# strings and booleans where numbers go, and a string where a list goes
NOT_NUMBERS = {
    "p-string": ({"family": "bernoulli", "p": "0.25"}, "bernoulli", "p"),
    "weights-booleans": ({"family": "multinomial", "ell": 2, "weights": [True, False]},
                         "multinomial", "weights"),
    "pi-string": ({"family": "markov", "ell": 2, "pi": "10", "P": [[1, 0], [1, 0]]}, "markov", "pi"),
    "P-string-rows": ({"family": "markov", "ell": 2, "pi": [1, 0], "P": ["10", "10"]}, "markov", "P"),
    "probs-string": ({"family": "selfsimilar", "probs": "1", "ratios": [0.5]}, "selfsimilar", "probs"),
    "ratios-string-entry": ({"family": "selfsimilar", "probs": [1], "ratios": ["0.5"]},
                            "selfsimilar", "ratios"),
    "p-past-float": ({"family": "bernoulli", "p": 10 ** 400}, "bernoulli", "p"),
    "ell-past-float": ({"family": "multinomial", "ell": 10 ** 400, "weights": [1]}, "multinomial", "ell"),
}


@pytest.mark.parametrize("doc, family, field", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_model_numbers_must_be_json_numbers(doc, family, field):
    with pytest.raises(ValidationError, match=f"^{family} field '{field}' "):
        model_from_dict(doc)


def test_model_readers_take_json_numbers_of_either_kind():
    doc = {"family": "markov", "ell": 2.0, "D": 1, "pi": [1, 0], "P": [[1, 0], [1.0, 0]]}
    model = model_from_dict(doc)
    assert (model.ell, model.dim, model.pi, model.P) == (2, 1, (1.0, 0.0), ((1.0, 0.0), (1.0, 0.0)))
    assert model_to_dict(model) == {"family": "markov", "ell": 2, "D": 1, "pi": [1.0, 0.0],
                                    "P": [[1.0, 0.0], [1.0, 0.0]]}
    assert model_to_dict(model_from_dict({"family": "bernoulli", "p": 0.25, "ell": 2, "D": 1.0})) == {
        "family": "bernoulli", "p": 0.25}


def test_sampling_determinism():
    m = load_zoo_model("markov_chain")
    a = sample_symbols(m, 64, path_rng(9, 3))
    b = sample_symbols(m, 64, path_rng(9, 3))
    c = sample_symbols(m, 64, path_rng(9, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_frequencies_roughly_match():
    m = BernoulliProduct(0.25)
    syms = sample_symbols(m, 20000, path_rng(1, 0))
    assert abs(syms.mean() - 0.25) < 0.02


def test_path_rng_validation():
    with pytest.raises(ValidationError):
        path_rng(-1, 0)
    with pytest.raises(ValidationError):
        path_rng(0, 2 ** 64)


def test_path_rng_keys_seeds_past_2_63_exactly(recwarn):
    # float64 would round both seeds to 2^63, and warn on 2^64 - 1
    a, b = path_rng(2 ** 63, 3), path_rng(2 ** 63 + 5, 3)
    assert b.bit_generator.state["state"]["key"].tolist() == [2 ** 63 + 5, 3]
    assert a.random(4).tobytes() != b.random(4).tobytes()
    top = path_rng(2 ** 64 - 1, 2 ** 64 - 1)
    assert top.bit_generator.state["state"]["key"].tolist() == [2 ** 64 - 1] * 2
    rekey_path_rng(top, 2 ** 64 - 1, 2 ** 64 - 2)
    assert top.bit_generator.state["state"]["key"].tolist() == [2 ** 64 - 1, 2 ** 64 - 2]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _leave_words_pending(rng):
    # buffered Philox words, and half a word held for the next uint32 draw
    rng.random(3)
    rng.integers(0, 7, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1


@pytest.mark.parametrize("draw", [
    lambda g: g.random(9),
    lambda g: g.binomial(np.array([1, 37, 10 ** 4]), 0.25),
    lambda g: g.multinomial(np.array([5, 300, 10 ** 4]), [0.35, 0.0, 0.65]),
], ids=["uniform", "binomial", "multinomial"])
def test_rekeyed_generator_repeats_path_rng(draw):
    rng = path_rng(11, 0)
    for seed, i in ((11, 0), (11, 1), (11, 7), (0, 2 ** 63 - 1), (2 ** 63 + 5, 3)):
        for drawn in (0, 1, 3, 4, 6, 1 << 16):
            _leave_words_pending(rng)
            got = draw(rekey_path_rng(rng, seed, i, drawn))
            want_rng = path_rng(seed, i)
            want_rng.random(drawn)
            assert got.tobytes() == draw(want_rng).tobytes()
    # after a draw, the re-keyed state is the fresh generator's, word for word
    _leave_words_pending(rng)
    got, want = rekey_path_rng(rng, 3, 9).bit_generator.state, path_rng(3, 9).bit_generator.state
    assert got["state"]["counter"].tolist() == want["state"]["counter"].tolist()
    assert got["state"]["key"].tolist() == want["state"]["key"].tolist()
    assert got["buffer"].tolist() == want["buffer"].tolist()
    assert [got[k] for k in ("buffer_pos", "has_uint32", "uinteger")] == [
        want[k] for k in ("buffer_pos", "has_uint32", "uinteger")
    ]


def test_rekeying_refuses_what_path_rng_refuses():
    rng = path_rng(0, 0)
    with pytest.raises(ValidationError):
        rekey_path_rng(rng, -1, 0)
    with pytest.raises(ValidationError):
        rekey_path_rng(rng, 0, 2 ** 64)


@pytest.mark.filterwarnings("error")  # no uint64 scalar may overflow on the way
@pytest.mark.parametrize("seed", [0, 7, 2 ** 63, 2 ** 64 - 1])
def test_path_uniforms_repeat_each_path_rng_stream(seed):
    # doubles drawn, drawn + 1, ... of path_rng(seed, lo + j) in column j, bit
    # for bit: past every drawn % 4, and up to the last 64-bit key
    for B in (1, 5):
        for lo in (0, 2 ** 63 + 7, 2 ** 64 - B):
            for drawn in (0, 1, 2, 3, 4, 5, 6, 7, 1001):
                for L in (1, 3, 32):
                    out = np.empty((L, B))
                    path_uniforms(seed, lo, drawn, out)
                    want = [path_rng(seed, lo + j).random(drawn + L)[drawn:] for j in range(B)]
                    assert out.tobytes() == np.array(want).T.tobytes(), (B, lo, drawn, L)


def test_path_uniforms_refuse_what_path_rng_refuses():
    out = np.empty((3, 5))
    for seed, lo in ((-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64 - 4)):  # the last, key lo + 4 = 2^64
        with pytest.raises(ValidationError):
            path_uniforms(seed, lo, 0, out)
    path_uniforms(0, 2 ** 64 - 5, 0, out)


def test_enumeration_budget():
    with pytest.raises(BudgetError):
        check_enumeration_budget(BernoulliProduct(0.25), 64)
    check_enumeration_budget(BernoulliProduct(0.25), 16)


class _TopUniforms:
    """Generator stand-in whose every uniform is the largest double below 1."""

    def random(self, n):
        return np.full(n, 1.0 - 2.0 ** -53)


def test_sampling_never_draws_a_null_symbol_at_the_top_uniform():
    # weights summing to 1 - 1e-13 pass validation; the last one is zero
    w = (0.5, 0.5 - 1e-13, 0.0)
    product = MultinomialMeasure(3, 1, w)
    syms = sample_symbols(product, 4, _TopUniforms())
    assert np.all(symbol_weights(product)[syms] > 0)
    chain = MarkovMeasure(3, 1, w, (w, w, w))
    syms = sample_symbols(chain, 4, _TopUniforms())
    assert log_cylinder_mass(chain, word(syms.tolist(), ell=3)) > -math.inf


# a chain with a null transition (1 -> 1) and a state (2) outside the support
GAPPY_CHAIN = MarkovMeasure(
    3, 1, (0.6, 0.4, 0.0),
    ((0.5, 0.5, 0.0), (1.0, 0.0, 0.0), (0.2, 0.3, 0.5)),
    stationary_required=False,
)


@pytest.mark.parametrize("model", [load_zoo_model("markov_chain"), GAPPY_CHAIN])
def test_chain_enumerator_matches_log_cylinder_mass(model):
    k = model.alphabet.k
    for n in range(1, 7):
        table = chain_log_masses(model, n)
        assert table.shape == (k ** n,)
        ref = np.array([
            log_cylinder_mass(model, word(w, ell=model.alphabet.ell))
            for w in itertools.product(range(k), repeat=n)
        ])
        assert np.array_equal(np.isneginf(table), np.isneginf(ref))
        assert np.all(np.isfinite(table) | np.isneginf(table))
        live = np.isfinite(ref)
        assert np.allclose(table[live], ref[live], rtol=0, atol=1e-12)
