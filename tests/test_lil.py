import dataclasses
import functools
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from mflil import (
    BernoulliProduct,
    BudgetError,
    GaugeSpec,
    LogBase,
    MarkovMeasure,
    MultinomialMeasure,
    SelfSimilarMeasure,
    ValidationError,
    dimension,
    exact_distribution,
    exact_moments,
    gauge_test,
    lil_convention,
    lil_ratio,
    log_cylinder_mass,
    path_stats,
    per_symbol_moments,
    run_ensemble,
    running_max_tail,
    sigma2,
    sigma2_scale_free,
    word,
)
from mflil import lil as lil_module
from mflil.models import (
    canonical_base,
    chain_states,
    draw_symbols,
    log_symbol_weights,
    path_rng,
    sample_symbols,
)
from mflil.zoo import ZOO_NAMES, load_zoo_model
from reference_paths import s_process, sample_path, stationary_distribution

QUARTER = BernoulliProduct(0.25)
MARKOV = load_zoo_model("markov_chain")


def _stationary_chain(ell, dim, P):
    return MarkovMeasure(ell, dim, tuple(stationary_distribution(P).tolist()), P)


# rows with two and three compares; state 0 never moves to state 1
CHAIN3 = _stationary_chain(3, 1, ((0.5, 0.0, 0.5), (0.2, 0.3, 0.5), (0.1, 0.8, 0.1)))
CHAIN4 = _stationary_chain(2, 2, ((0.1, 0.2, 0.3, 0.4), (0.25, 0.25, 0.25, 0.25),
                                  (0.7, 0.1, 0.1, 0.1), (0.05, 0.05, 0.6, 0.3)))


def reference_chain_walk(model, checkpoints, seed, path_index, conv, window=None):
    """One chain path stepped level by level: S at the checkpoints, and the
    running sup/inf of the ratio over the window levels up to the last one."""
    lb = conv.ln_base
    pi = np.asarray(model.pi, dtype=float)
    P = np.asarray(model.P, dtype=float)
    cum_pi = np.cumsum(pi)
    cum_P = np.cumsum(P, axis=1)
    n = checkpoints[-1]
    u = path_rng(seed, path_index).random(n)
    state = min(int(np.searchsorted(cum_pi, u[0] * cum_pi[-1], side="right")), pi.size - 1)
    s_acc = -math.log(pi[state]) / lb
    sup, inf = -math.inf, math.inf
    S = []
    for level in range(1, n + 1):
        if level > 1:
            row = cum_P[state]
            nxt = min(int(np.searchsorted(row, u[level - 1] * row[-1], side="right")), pi.size - 1)
            s_acc += -math.log(P[state, nxt]) / lb
            state = nxt
        if window is not None and window[0] <= level <= window[1] and level >= conv.t_min:
            try:
                r = lil_ratio(s_acc, float(level), conv.d, conv)
            except ValidationError:
                r = math.nan  # LL(level) <= 0: no ratio, and nan never wins below
            sup = r if r > sup else sup
            inf = r if r < inf else inf
        if level in checkpoints:
            S.append(s_acc)
    return np.array(S), sup, inf


def test_convention_selection():
    assert lil_convention(QUARTER).name == "base-ell"
    assert lil_convention(QUARTER, "base-2").name == "base-2"
    cb = load_zoo_model("cantor_biased")
    assert lil_convention(cb).name == "natural"
    with pytest.raises(ValidationError):
        lil_convention(cb, "base-ell")
    trinomial = load_zoo_model("cantor_natural")
    with pytest.raises(ValidationError):
        lil_convention(trinomial, "base-2")


def test_convention_constants():
    conv = lil_convention(QUARTER, "base-2")
    assert conv.d == pytest.approx(0.8112781244591328, abs=1e-12)
    # the ratio's limsup constant is the natural-curvature sigma in every base
    assert conv.sigma2 == pytest.approx(0.32648611506945, abs=1e-12)
    # while the CLT variance of S per unit t carries the base factor
    assert conv.sigma2_clt == pytest.approx(0.471019899129799, abs=1e-12)
    nat = lil_convention(load_zoo_model("cantor_biased"), "natural")
    assert nat.sigma2 == nat.sigma2_clt


def test_lil_ratio_normalization():
    conv = lil_convention(QUARTER, "base-2")
    # at n = 256 the iterated log in base 2 is exactly 3
    assert conv.loglog(256.0) == pytest.approx(3.0, abs=1e-14)
    denom = math.sqrt(2 * 256 * 3.0)
    S = conv.d * 256 + denom
    assert lil_ratio(S, 256.0, conv.d, conv) == pytest.approx(1.0, abs=1e-12)


def test_t_min_guard():
    conv = lil_convention(QUARTER, "base-2")
    with pytest.raises(ValidationError):
        lil_ratio(1.0, 8.0, conv.d, conv)
    with pytest.raises(ValidationError):
        run_ensemble(QUARTER, N=4, checkpoints=[8, 32], seed=0)
    nat = lil_convention(load_zoo_model("cantor_biased"), "natural")
    assert nat.t_min == 3.0


def test_per_symbol_moments():
    drift, var = per_symbol_moments(QUARTER, LogBase.BASE_2)
    assert drift == pytest.approx(dimension(QUARTER), abs=1e-12)
    assert var == pytest.approx(0.471019899129799, abs=1e-12)
    with pytest.raises(ValidationError):
        per_symbol_moments(load_zoo_model("markov_chain"))


def test_s_process_matches_cylinder_mass():
    w = sample_path(QUARTER, 12, seed=3)
    S = s_process(QUARTER, w, LogBase.NATURAL)
    for n in (1, 5, 12):
        assert S[n - 1] == pytest.approx(-log_cylinder_mass(QUARTER, word(w.symbols[:n])), abs=1e-12)


def test_s_process_on_a_chain_matches_prefix_masses():
    w = sample_path(MARKOV, 40, seed=6)
    S = s_process(MARKOV, w)
    for n in range(1, 41):
        assert S[n - 1] == pytest.approx(-log_cylinder_mass(MARKOV, word(w.symbols[:n])), rel=1e-12, abs=1e-12)


def test_s_process_exact_for_uniform():
    half = BernoulliProduct(0.5)
    w = sample_path(half, 20, seed=1)
    S = s_process(half, w, LogBase.BASE_2)
    assert np.array_equal(S, np.arange(1.0, 21.0))


def test_path_stats_deterministic():
    a = path_stats(QUARTER, [16, 64, 256], seed=5, path_index=2)
    b = path_stats(QUARTER, [16, 64, 256], seed=5, path_index=2)
    c = path_stats(QUARTER, [16, 64, 256], seed=5, path_index=3)
    assert a == b
    assert a != c
    lw_max = -math.log2(0.25)
    for s, n in zip(a.S, a.checkpoints):
        assert 0.0 <= s <= n * lw_max + 1e-12
    ratios = a.ratios(lil_convention(QUARTER))
    assert all(math.isfinite(r) for r in ratios)


def test_path_stats_selfsimilar_time():
    cb = load_zoo_model("cantor_biased")
    ps = path_stats(cb, [8, 32], seed=2)
    # every contraction is 1/3, so t = n ln 3 deterministically
    assert ps.t[0] == pytest.approx(8 * math.log(3.0), abs=1e-12)
    assert ps.t[1] == pytest.approx(32 * math.log(3.0), abs=1e-12)


def test_exact_distribution_bernoulli():
    dist = exact_distribution(QUARTER, 8)
    probs = [p for _, p in dist]
    assert sum(probs) == Fraction(1)
    assert len(dist) == 9  # digit-count classes
    mean, var = exact_moments(QUARTER, 8)
    d = dimension(QUARTER)
    s2 = sigma2(QUARTER, LogBase.BASE_2)
    assert mean == pytest.approx(8 * d, abs=1e-12)
    assert var == pytest.approx(8 * s2, abs=1e-12)


def test_exact_distribution_markov():
    mk = load_zoo_model("markov_chain")
    dist = exact_distribution(mk, 6)
    assert sum(p for _, p in dist) == Fraction(1)
    assert all(v >= 0 for v, _ in dist)


def test_exact_distribution_chain_refusal_names_the_level_reached(monkeypatch):
    monkeypatch.setattr(lil_module, "_CLASS_BUDGET", 10)
    with pytest.raises(BudgetError) as info:
        exact_distribution(MARKOV, 20)
    found = re.fullmatch(r"chain class count (\d+) exceeded 10 at level (\d+) of 20", str(info.value))
    assert found, str(info.value)
    count, level = int(found[1]), int(found[2])
    assert count > 10 and level < 20
    # the level named is the first one whose classes pass the budget
    exact_distribution(MARKOV, level - 1)
    with pytest.raises(BudgetError, match=f"chain class count {count} exceeded 10 at level {level} of {level}"):
        exact_distribution(MARKOV, level)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_exact_distribution_values_strictly_increase(name):
    # float-identical atoms are merged on every family, chains included
    model = load_zoo_model(name)
    for n in range(1, 9):
        values = [v for v, _ in exact_distribution(model, n)]
        assert all(x < y for x, y in zip(values, values[1:])), (name, n)


# Dvoretzky-Kiefer-Wolfowitz with Massart's constant: P(sup |F_N - F| > eps)
# <= 2 exp(-2 N eps^2). The level, the path counts and the seeds were fixed
# before the first run.
DKW_ALPHA = 1e-9
DKW_PATHS = {"checkpoint": (20_000, 41), "window": (2_000, 42)}  # mode: (N, seed)
DKW_MODELS = {
    "bernoulli_quarter": (lambda: QUARTER, 256),
    "cantor_biased": (lambda: load_zoo_model("cantor_biased"), 256),
    "multinomial": (lambda: MultinomialMeasure(3, 1, (0.2, 0.5, 0.3)), 48),
    "markov_chain": (lambda: load_zoo_model("markov_chain"), 32),
}


def dkw_distance(S: np.ndarray, law) -> float:
    """sup |F_N - F| between the sample S and the exact law, read at each
    cluster of atoms within 1e-9 relative of each other.

    Different factor counts can give one S up to rounding, so neither the
    exact law nor a walk tells such atoms apart. F is read at a cluster's
    last atom and F_N midway to the next cluster, where F takes the same value.
    """
    values = [v for v, _ in law]
    ends = [i for i in range(len(values) - 1)
            if values[i + 1] - values[i] > 1e-9 * max(abs(values[i]), abs(values[i + 1]))]
    cdf = list(itertools.accumulate(p for _, p in law))
    cuts = np.array([0.5 * (values[i] + values[i + 1]) for i in ends])
    emp = np.searchsorted(np.sort(S), cuts, side="right") / S.size
    return float(np.max(np.abs(emp - np.array([float(cdf[i]) for i in ends]))))


@pytest.mark.parametrize("mode", sorted(DKW_PATHS))
@pytest.mark.parametrize("name", sorted(DKW_MODELS))
def test_ensemble_S_n_sits_in_the_dkw_band_of_the_exact_law(name, mode):
    make, n = DKW_MODELS[name]
    model = make()
    N, seed = DKW_PATHS[mode]
    conv = lil_convention(model)  # the exact law's units: base-ell on grids, nats otherwise
    window = None if mode == "checkpoint" else (16, n)
    S = lil_module._walk_ensemble(model, conv, (16, n), seed, range(N), window=window)[0][:, -1]
    eps = math.sqrt(math.log(2.0 / DKW_ALPHA) / (2 * N))
    assert dkw_distance(S, exact_distribution(model, n)) <= eps


THREE_ZERO = MultinomialMeasure(3, 1, (0.2, 0.0, 0.8))
THREE = MultinomialMeasure(3, 1, (0.2, 0.3, 0.5))
TWO_D = MultinomialMeasure(2, 2, (0.1, 0.2, 0.3, 0.4))


def word_tables(model):
    """Exact word probability and float S value, both by symbol counts.

    Weights are renormalised in Q; a word's S value is -(counts @ log weights)
    over the active symbols, in the model's own units."""
    core = model.core
    fw = [Fraction(x) for x in core.weights.tolist()]
    fw = [x / sum(fw) for x in fw]
    active = list(core.active)
    lw = log_symbol_weights(model, canonical_base(model))[active]

    @functools.cache
    def prob(counts):
        return math.prod((w ** c for w, c in zip(fw, counts)), start=Fraction(1))

    @functools.cache
    def value(counts):
        return float(-(np.asarray([counts[s] for s in active], dtype=float) @ lw))

    return prob, value


@pytest.mark.parametrize("model", [THREE_ZERO, TWO_D], ids=["three-with-zero", "two-d"])
def test_exact_distribution_matches_every_word(model):
    prob, value = word_tables(model)
    for n in range(1, 7):
        law = {}
        for w in itertools.product(range(model.core.k), repeat=n):
            counts = tuple(np.bincount(w, minlength=model.core.k).tolist())
            if prob(counts):
                law[value(counts)] = law.get(value(counts), 0) + prob(counts)
        assert exact_distribution(model, n) == sorted(law.items()), n


@pytest.mark.parametrize("n1", range(1, 9))
def test_running_max_tail_matches_every_word(n1):
    prob, value = word_tables(THREE)
    drift, _ = per_symbol_moments(THREE, canonical_base(THREE))
    cases = [(n0, a) for n0 in sorted({1, (n1 + 1) // 2}) for a in (-0.25, 0.5, 1.0)]
    hits = dict.fromkeys(cases, Fraction(0))
    for w in itertools.product(range(3), repeat=n1):
        counts, centered = [0, 0, 0], []
        for k, s in enumerate(w, 1):
            counts[s] += 1
            centered.append(value(tuple(counts)) - k * drift)
        for n0, a in cases:
            if any(x >= a for x in centered[n0 - 1:]):
                hits[n0, a] += prob(tuple(counts))
    for (n0, a), hit in hits.items():
        assert running_max_tail(THREE, n0, n1, a) == hit, (n0, a)
    assert 0 < hits[1, 0.5] < 1


def test_running_max_tail_refuses_chains():
    with pytest.raises(ValidationError, match="independent increments"):
        running_max_tail(MARKOV, 1, 8, 1.0)


def test_exact_moments_selfsimilar_natural_units():
    cb = load_zoo_model("cantor_biased")
    mean, var = exact_moments(cb, 8)
    drift, pvar = per_symbol_moments(cb, LogBase.NATURAL)
    assert mean == pytest.approx(8 * drift, abs=1e-12)
    assert var == pytest.approx(8 * pvar, abs=1e-12)


@given(st.integers(1, 12))
@settings(max_examples=12, deadline=None)
def test_exact_moment_scaling(n):
    mean, var = exact_moments(QUARTER, n)
    d, s2 = per_symbol_moments(QUARTER, LogBase.BASE_2)
    assert mean == pytest.approx(n * d, abs=1e-12)
    assert var == pytest.approx(n * s2, abs=1e-12)


def test_running_max_tail_basics():
    t2 = running_max_tail(QUARTER, 16, 32, 2.0)
    t4 = running_max_tail(QUARTER, 16, 32, 4.0)
    t6 = running_max_tail(QUARTER, 16, 32, 6.0)
    assert 0 < t6 < t4 < t2 < 1
    assert float(t2) == pytest.approx(0.43465265589271845, abs=1e-15)
    assert float(t4) == pytest.approx(0.2361422072450482, abs=1e-15)
    assert float(t6) == pytest.approx(0.10895145944540946, abs=1e-15)
    with pytest.raises(ValidationError):
        running_max_tail(QUARTER, 32, 16, 2.0)


def test_run_ensemble_thread_invariance():
    kw = dict(N=64, checkpoints=[16, 64, 256], seed=13)
    a = run_ensemble(QUARTER, threads=1, **kw)
    b = run_ensemble(QUARTER, threads=3, **kw)
    assert a == b
    c = run_ensemble(QUARTER, threads=1, window=(16, 256), **kw)
    d = run_ensemble(QUARTER, threads=4, window=(16, 256), **kw)
    assert c == d
    # per-level extremes come from the running scan: sup at the last
    # checkpoint never drops below sup at earlier ones
    sups = np.column_stack([c.path_window_sup, c.path_window_inf])
    assert np.all(sups[:, 0] >= sups[:, 1])


def test_run_ensemble_markov_window_mode():
    mk = load_zoo_model("markov_chain")
    a = run_ensemble(mk, N=16, checkpoints=[16, 64], seed=3, window=(16, 64), threads=2)
    b = run_ensemble(mk, N=16, checkpoints=[16, 64], seed=3, window=(16, 64), threads=1)
    assert a == b
    assert np.all(np.asarray(a.path_window_sup) >= np.asarray(a.path_window_inf))


@pytest.mark.parametrize("convention", ["auto", "natural"])
def test_chain_path_stats_match_reference_walk(convention):
    cks = [17, 50, 203]
    conv = lil_convention(MARKOV, convention)
    for seed, index in ((0, 0), (3, 5), (11, 2 ** 40), (2 ** 63, 7)):
        ps = path_stats(MARKOV, cks, convention=convention, seed=seed, path_index=index)
        ref, _, _ = reference_chain_walk(MARKOV, cks, seed, index, conv)
        assert np.array_equal(np.asarray(ps.S), ref)
        if convention == "auto":
            assert ps.t == (17.0, 50.0, 203.0)
        else:
            assert ps.t == tuple(n * math.log(2.0) for n in cks)


@pytest.mark.parametrize(
    "threads, block_draws", [(1, 1 << 20), (3, 1 << 20), (1, 3 * 203), (2, 2 * 203), (2, 64)]
)
def test_chain_window_ensemble_matches_reference_walk(monkeypatch, threads, block_draws):
    # N = 7 is no multiple of the thread count; small block budgets split
    # the paths into blocks of 3 or 2 inside each thread's range, and a
    # budget below the depth draws each path's levels in chunks of 64
    monkeypatch.setattr(lil_module, "_CHAIN_BLOCK_DRAWS", block_draws)
    cks, window, N, seed = [17, 50, 203], (40, 150), 7, 4
    conv = lil_convention(MARKOV)
    s = run_ensemble(MARKOV, N=N, checkpoints=cks, seed=seed, window=window, threads=threads)
    refs = [reference_chain_walk(MARKOV, cks, seed, i, conv, window) for i in range(N)]
    assert np.array_equal(s.path_window_sup, np.array([r[1] for r in refs]))
    assert np.array_equal(s.path_window_inf, np.array([r[2] for r in refs]))
    # the window opens after the first checkpoint, so that ratio is no extreme
    assert np.all(s.path_window_sup >= s.path_window_inf)
    # checkpoint mode draws the same uniforms, so its S follows the same walk
    ckpt = run_ensemble(MARKOV, N=N, checkpoints=cks, seed=seed, threads=threads)
    S_last = np.array([r[0][-1] for r in refs])
    ratio = (S_last - conv.d * 203) / math.sqrt(2.0 * 203 * conv.loglog(203.0))
    assert ckpt.ratio_mean[-1] == math.fsum(ratio.tolist()) / N


def test_chain_block_bounded_in_levels(monkeypatch):
    # one path deeper than the block budget draws its levels in chunks that
    # continue its generator, so the block never holds all n_max uniforms
    draws, cks = 1 << 10, [16, 50, 1 << 13]
    want = path_stats(MARKOV, cks, seed=3, path_index=1)
    monkeypatch.setattr(lil_module, "_CHAIN_BLOCK_DRAWS", draws)
    tracemalloc.start()
    try:
        got = path_stats(MARKOV, cks, seed=3, path_index=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    # the block's uniforms, one column temporary and small per-level arrays
    assert peak < 4 * 8 * draws


def test_chain_window_holds_no_array_over_all_levels(monkeypatch):
    # the ratio denominators come per chunk of levels, like the uniforms
    n = 1 << 13
    conv = lil_convention(MARKOV)
    monkeypatch.setattr(lil_module, "_CHAIN_BLOCK_DRAWS", 1 << 8)
    tracemalloc.start()
    try:
        lil_module._walk_ensemble(MARKOV, conv, (16, n), 3, range(1), window=(16, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n // 2  # one float per level would take 8 n bytes


def _states_by_draw_symbols(cum_P, U, start):
    """Chain states stepped level by level: each state's walks draw through
    draw_symbols' searchsorted form on that state's cumulative row."""
    states = [np.broadcast_to(start, U.shape[1]).astype(np.intp)]
    for u in U:
        nxt = np.empty_like(states[-1])
        for e in np.unique(states[-1]):
            on = states[-1] == e
            nxt[on] = draw_symbols(cum_P[e], u[on])
        states.append(nxt)
    return np.array(states)


@pytest.mark.parametrize("model", [MARKOV, CHAIN3, CHAIN4], ids=["k2", "k3", "k4"])
@pytest.mark.parametrize("levels", [1, 2, 3, 7, 511, 513, 4099])
def test_chain_states_match_a_per_level_walk(model, levels):
    # level counts that are no square and primes leave a short last chunk;
    # 1 and 7 walks take the chunked scan, and 400 walks, whose levels hold
    # more than _STEP_ELEMENTS table entries, one chunk of every level
    core = model.core
    rng = np.random.default_rng(levels)
    for walks in (1, 7, 400) if levels <= 513 else (1, 7):
        U = rng.random((levels, walks))
        U[::5], U[1::7] = 0.5, 0.0  # u * row total ties a cumulative weight on some rows
        for start in (core.k, rng.integers(0, core.k + 1, walks)):
            got = chain_states(core.cum_P, U, start)
            assert got.dtype == np.uint8
            assert np.array_equal(got, _states_by_draw_symbols(core.cum_P, U, start))


def test_chain_states_of_a_chain_past_255_states():
    # the start state of 256 states is 256: the table needs 16-bit entries
    rng = np.random.default_rng(3)
    P = rng.random((256, 256)) * (rng.random((256, 256)) < 0.3)
    P[:, 0] += 1e-3
    pi = rng.random(256)
    chain = MarkovMeasure(2, 8, tuple((pi / pi.sum()).tolist()),
                          tuple(map(tuple, (P / P.sum(axis=1, keepdims=True)).tolist())),
                          stationary_required=False)
    for walks in (3, 5):  # 3 x 257 table entries per level take the chunked scan, 5 x 257 one chunk
        U = rng.random((67, walks))
        for start in (256, rng.integers(0, 257, walks)):
            got = chain_states(chain.core.cum_P, U, start)
            assert got.dtype == np.uint16
            assert np.array_equal(got, _states_by_draw_symbols(chain.core.cum_P, U, start))


@pytest.mark.parametrize("model", [MARKOV, CHAIN3, CHAIN4], ids=["k2", "k3", "k4"])
@pytest.mark.parametrize("block_draws", [1 << 6, 1 << 8])
@pytest.mark.parametrize("window", [None, (40, 4099)])
def test_chain_walk_matches_the_reference_across_chunk_carries(monkeypatch, model, block_draws, window):
    # one path walks 4099 levels in chunks of block_draws levels, ending in a
    # chunk of 3; three paths in chunks of block_draws // 3
    monkeypatch.setattr(lil_module, "_CHAIN_BLOCK_DRAWS", block_draws)
    cks, seed = (17, 511, 513, 4099), 12
    conv = lil_convention(model)
    for paths in (range(5, 6), range(3)):
        S, _, SUP, INF = lil_module._walk_ensemble(model, conv, cks, seed, paths, window=window)
        for row, i in enumerate(paths):
            ref_S, sup, inf = reference_chain_walk(model, cks, seed, i, conv, window)
            assert np.array_equal(S[row], ref_S)
            if window is not None:
                assert (SUP[row, -1], INF[row, -1]) == (sup, inf)


@pytest.mark.parametrize("model", [MARKOV, CHAIN3, CHAIN4], ids=["k2", "k3", "k4"])
def test_chain_sample_symbols_match_a_scalar_draw_loop(model):
    core = model.core
    for n, seed, index in ((0, 1, 0), (1, 2, 3), (7, 5, 1), (513, 9, 2 ** 40)):
        u, state, want = path_rng(seed, index).random(n), core.k, []
        for x in u:
            state = int(draw_symbols(core.cum_P[state], x))
            want.append(state)
        got = sample_symbols(model, n, path_rng(seed, index))
        assert got.dtype == np.intp and got.tolist() == want


def test_chain_thread_invariance():
    kw = dict(N=31, checkpoints=[16, 50, 128], seed=8)
    assert run_ensemble(MARKOV, threads=1, **kw) == run_ensemble(MARKOV, threads=3, **kw)


@pytest.mark.parametrize("name, window", [("markov_chain", (40, 150)), ("bernoulli_half", None)])
def test_equal_runs_compare_equal_through_nan_fields(name, window):
    # runsup_median is NaN before the chain's window opens, and bernoulli_half
    # has no CLT variance, so every KS distance is NaN
    model = load_zoo_model(name)
    kw = dict(N=7, checkpoints=[17, 50, 203], seed=4, window=window)
    a, b = run_ensemble(model, **kw), run_ensemble(model, **kw)
    assert np.isnan(a.runsup_median[0] if window else a.ks_distance).all()
    assert a == b
    gap = b.mean_gap[:-1] + (math.nextafter(b.mean_gap[-1], math.inf),)
    assert a != dataclasses.replace(b, mean_gap=gap)
    assert a != dataclasses.replace(b, convention="other")


def test_chain_walk_keeps_the_sign_of_a_zero_sum():
    # a chain that never leaves state 0 adds -ln 1 = -0.0 at every level; the
    # walk starts S at -0.0, the additive identity, so S stays -0.0 as in
    # the reference s_process's cumsum
    frozen = MarkovMeasure(2, 1, (1.0, 0.0), ((1.0, 0.0), (0.0, 1.0)))
    ps = path_stats(frozen, [16, 64], convention="natural", seed=2)
    ref = s_process(frozen, sample_path(frozen, 64, seed=2))[[15, 63]]
    assert np.signbit(ref).all()
    assert np.array_equal(np.signbit(ps.S), np.signbit(ref))


def test_chain_ensemble_moments_match_exact_law():
    # mean and variance of S_n at n = 16 and 32 within 4 exact standard errors;
    # the band was fixed before the first run
    N, seed, band = 10000, 16, 4.0
    s = run_ensemble(MARKOV, N=N, checkpoints=[16, 32], seed=seed)
    conv = lil_convention(MARKOV)
    for j, n in enumerate((16, 32)):
        dist = exact_distribution(MARKOV, n)
        mean = math.fsum(v * float(p) for v, p in dist)
        var = math.fsum((v - mean) ** 2 * float(p) for v, p in dist)
        mu4 = math.fsum((v - mean) ** 4 * float(p) for v, p in dist)
        # on grids t = n, so ratio = (S - d n) / sqrt(2 n LL(n))
        scale = math.sqrt(2.0 * n * conv.loglog(float(n)))
        mean_hat = s.ratio_mean[j] * scale + conv.d * n
        var_hat = s.ratio_var[j] * scale ** 2
        assert abs(mean_hat - mean) <= band * math.sqrt(var / N)
        assert abs(var_hat - var) <= band * math.sqrt((mu4 - var ** 2) / N)


def test_chain_step_budget_refuses_before_walking(monkeypatch):
    def no_walk(*args):
        raise AssertionError("a path was keyed before the budget check")

    monkeypatch.setattr(lil_module, "path_rng", no_walk)
    monkeypatch.setattr(lil_module, "path_uniforms", no_walk)
    with pytest.raises(BudgetError):
        run_ensemble(MARKOV, N=20000, checkpoints=[16, 4096], seed=0)
    spec = GaugeSpec(family="power", d=dimension(MARKOV))
    with pytest.raises(BudgetError):
        gauge_test(MARKOV, spec, [16, 4096], N=20000, seed=0)


@pytest.mark.parametrize("name, window", [("bernoulli_quarter", None), ("markov_chain", (64, 1024))])
def test_natural_convention_on_grids_is_centred(name, window):
    # natural t on a grid is n ln(ell): the same centring as base-ell, so the
    # mean gap and the z-scores, hence the KS distance, agree with base-ell
    model = load_zoo_model(name)
    kw = dict(N=2000, checkpoints=[64, 256, 1024], seed=1, window=window)
    nat = run_ensemble(model, convention="natural", **kw)
    ell = run_ensemble(model, convention="base-ell", **kw)
    assert all(g < 0.01 for g in nat.mean_gap)
    assert nat.mean_gap == pytest.approx(ell.mean_gap, abs=1e-12)
    assert nat.ks_distance == pytest.approx(ell.ks_distance, abs=1e-9)
    assert all(abs(r) < 0.05 for r in nat.ratio_mean)


@pytest.mark.parametrize("name", ["bernoulli_half", "bernoulli_quarter"])
def test_path_stats_natural_time_on_grids(name):
    # the chain's natural t is checked against the reference walk above
    cks = [16, 50, 203]
    ps = path_stats(load_zoo_model(name), cks, convention="natural", seed=2, path_index=4)
    assert ps.t == tuple(n * math.log(2.0) for n in cks)


@pytest.mark.parametrize("model", [QUARTER, MARKOV], ids=["product", "chain"])
def test_path_stats_budget(monkeypatch, model):
    monkeypatch.setenv("MFLIL_PATH_BUDGET", "1000")
    with pytest.raises(BudgetError):
        path_stats(model, [16, 2048])
    assert len(path_stats(model, [16, 512]).S) == 2


def test_run_ensemble_validation():
    with pytest.raises(ValidationError):
        run_ensemble(QUARTER, N=0, checkpoints=[16])
    with pytest.raises(ValidationError):
        run_ensemble(QUARTER, N=4, checkpoints=[64, 16])
    with pytest.raises(ValidationError):
        run_ensemble(QUARTER, N=4, checkpoints=[16, 64], window=(8, 64))
    with pytest.raises(ValidationError):
        run_ensemble(QUARTER, N=4, checkpoints=[16, 64], window=(16, 128))


@pytest.mark.parametrize("bits", [63, 20000])
def test_checkpoint_levels_from_2_pow_63_are_refused(bits):
    # the path-budget message would format N * 2^20000, past the int-to-str limit
    with pytest.raises(ValidationError, match=r"below 2\^63"):
        run_ensemble(QUARTER, 2, [16, 2 ** bits])
    with pytest.raises(ValidationError, match=r"below 2\^63"):
        gauge_test(QUARTER, GaugeSpec(family="power", d=dimension(QUARTER)), [16, 2 ** bits], N=2)


def test_path_counts_from_2_pow_63_are_refused():
    # past the path budget too, whose message formats N * n_max
    with pytest.raises(ValidationError, match=r"below 2\^63"):
        run_ensemble(QUARTER, 2 ** 63, [16, 2 ** 62])
    with pytest.raises(ValidationError, match=r"below 2\^63"):
        gauge_test(QUARTER, GaugeSpec(family="power", d=dimension(QUARTER)), [16], N=10 ** 5000)


def test_run_ensemble_budget(monkeypatch):
    monkeypatch.setenv("MFLIL_PATH_BUDGET", "1000")
    with pytest.raises(BudgetError):
        run_ensemble(QUARTER, N=100, checkpoints=[16, 1024], seed=0)


def test_uniform_ratios_exact_zero():
    half = BernoulliProduct(0.5)
    s = run_ensemble(half, N=20, checkpoints=[16, 256], seed=2, window=(16, 256))
    assert all(v == 0.0 for v in s.ratio_min + s.ratio_max)
    assert np.all(np.asarray(s.path_window_sup) == 0.0)
    assert np.all(np.asarray(s.path_window_inf) == 0.0)
    # no CLT variance, so no z-scores to test
    assert len(s.ks_distance) == 2 and all(math.isnan(v) for v in s.ks_distance)


def test_ensemble_statistics_sane():
    s = run_ensemble(QUARTER, N=4000, checkpoints=[4096], seed=21, threads=4)
    # mean ratio near zero, KS under loose bound at this N
    assert abs(s.ratio_mean[0]) < 0.05
    assert s.ks_distance[0] < 0.05
    assert s.mean_gap[0] < 0.01
    conv = lil_convention(QUARTER)
    # Var(ratio at fixed n) = sigma2_clt / (2 LL(n)); the natural-sigma
    # constant only appears in the limsup, not in fixed-n variances
    z_var = s.ratio_var[0] * 2.0 * conv.loglog(4096.0)
    assert z_var == pytest.approx(conv.sigma2_clt, rel=0.15)


def _ks_cases():
    rng = np.random.default_rng(20)
    for N in (1, 2, 3, 3000):
        z = rng.normal(0.2, 1.1, size=(N, 3))
        yield f"N={N}", z
        yield f"N={N} ties", np.round(z, 1)
    z = rng.normal(size=(40, 2))
    z[[3, 17], 0] = np.inf
    z[[5, 9], 1] = -np.inf
    z[11, 1] = np.inf
    yield "infinities", z


_KS_CASES = dict(_ks_cases())


@pytest.mark.parametrize("label", list(_KS_CASES))
def test_ks_normal_is_kstest_statistic_bit_for_bit(label):
    z = _KS_CASES[label]
    got = lil_module._ks_normal(z)
    assert got.shape == (z.shape[1],)
    for j in range(z.shape[1]):
        want = stats.kstest(z[:, j], "norm").statistic
        assert np.float64(got[j]).tobytes() == np.float64(want).tobytes(), (label, j)


def test_ks_normal_nan_column_leaves_its_neighbours():
    z = np.random.default_rng(21).normal(size=(50, 3))
    z[7, 1] = np.nan
    got = lil_module._ks_normal(z)
    assert math.isnan(got[1]) and math.isnan(stats.kstest(z[:, 1], "norm").statistic)
    for j in (0, 2):
        assert got[j] == stats.kstest(z[:, j], "norm").statistic


def test_selfsimilar_ensemble_natural_time():
    cb = load_zoo_model("cantor_biased")
    s = run_ensemble(cb, N=50, checkpoints=[32, 128], seed=9)
    assert s.convention == "natural"
    assert math.isfinite(s.ks_distance[-1])


def test_running_max_tail_refuses_past_the_class_budget_before_any_class(monkeypatch):
    from mflil import MultinomialMeasure

    three = MultinomialMeasure(3, 1, (0.2, 0.3, 0.5))
    built = []
    tables = lil_module._class_tables

    def spy(*args):
        built.append(1)
        return tables(*args)

    monkeypatch.setattr(lil_module, "_class_tables", spy)
    monkeypatch.setenv("MFLIL_ENUM_BUDGET", "100")
    assert 0 < running_max_tail(three, 1, 12, 1.0) < 1  # C(14, 2) = 91 classes
    assert built == [1]
    built.clear()
    with pytest.raises(BudgetError, match="105"):  # C(15, 2) = 105 > 100
        running_max_tail(three, 1, 13, 1.0)
    assert built == []
    monkeypatch.delenv("MFLIL_ENUM_BUDGET")
    nine = MultinomialMeasure(3, 2, (1.0 / 9,) * 9)
    with pytest.raises(BudgetError):  # C(72, 8), about 1.1e10 classes, over 2^24
        running_max_tail(nine, 1, 64, 1.0)
    assert built == []


def _convention_cases():
    cb = load_zoo_model("cantor_biased")
    return [(QUARTER, name) for name in ("base-2", "base-ell", "natural")] + [(cb, "natural")]


@pytest.mark.parametrize("model, name", _convention_cases(),
                         ids=["quarter-base-2", "quarter-base-ell", "quarter-natural", "cantor-natural"])
def test_loglog_array_equals_scalar_calls(model, name):
    conv = lil_convention(model, name)
    # self-similar t has no per-level step: take the slowest contraction's
    step = conv.t_per_level or -float(np.max(model.core.log_ratios))
    t = np.arange(16, 2 ** 16 + 16) * step
    ll = conv.loglog(t)
    assert np.array_equal(ll, np.array([conv.loglog(float(x)) for x in t]))
    den = conv.ratio_den(t[::16])
    assert np.array_equal(den, np.array([conv.ratio_den(float(x)) for x in t[::16]]))


def test_ratio_den_is_nan_off_the_domain():
    conv = lil_convention(QUARTER, "base-2")
    den = conv.ratio_den(np.array([2.0, 15.0, 16.0, 256.0]))
    assert np.isnan(den[:2]).all()
    assert den[2] == math.sqrt(2.0 * 16.0 * 2.0) and den[3] == math.sqrt(2.0 * 256.0 * 3.0)
    assert math.isnan(conv.loglog(2.0))  # log2 log2 2 = 0 is not positive
    with pytest.raises(ValidationError):
        conv.check_time(15.0)
    wide = lil_convention(load_zoo_model("markov_chain"), "natural")
    with pytest.raises(ValidationError, match="non-positive"):
        dataclasses.replace(wide, t_min=1.0).check_time(2.0)  # ln ln 2 < 0


def reference_product_window(model, conv, checkpoints, seed, path_index, window):
    """One product path level by level: the running sup/inf of lil_ratio over
    the window levels, read at each checkpoint. S and t add each block's
    increments in level order and then the carry of the blocks before, as the
    walk's cumsum does, so the reference matches it bit for bit."""
    core = model.core
    lw = log_symbol_weights(model, LogBase(conv.name))
    n, block = checkpoints[-1], lil_module._WINDOW_BLOCK
    syms = draw_symbols(core.cum_weights, path_rng(seed, path_index).random(n))
    s_carry = t_carry = s_blk = t_blk = 0.0
    sup, inf = -math.inf, math.inf
    SUP, INF = [], []
    for level in range(1, n + 1):
        x = syms[level - 1]
        s_blk += -lw[x]
        s = s_carry + s_blk
        if conv.t_per_level is None:
            t_blk += -core.log_ratios[x]
            t = t_carry + t_blk
        else:
            t = level * conv.t_per_level
        if window[0] <= level <= window[1]:
            r = lil_ratio(s, t, conv.d, conv)
            sup, inf = max(sup, r), min(inf, r)
        if level in checkpoints:
            SUP.append(sup)
            INF.append(inf)
        if level % block == 0:
            s_carry, t_carry, s_blk, t_blk = s, t, 0.0, 0.0
    return SUP, INF


@pytest.mark.parametrize("name", ["bernoulli_quarter", "cantor_biased"])
def test_product_window_extremes_match_per_level_reference(name):
    model = load_zoo_model(name)
    conv = lil_convention(model)
    block = lil_module._WINDOW_BLOCK
    cks = [16, block - 3000, block, block + 1, block + 2500]
    window = (block - 3000, block + 2000)  # crosses the first block boundary
    sup, inf = lil_module._walk_ensemble(model, conv, tuple(cks), 11, range(2), window=window)[2:]
    for i in range(2):
        SUP, INF = reference_product_window(model, conv, cks, 11, i, window)
        assert sup[i].tolist() == SUP and inf[i].tolist() == INF
    s = run_ensemble(model, N=2, checkpoints=cks, seed=11, window=window)
    assert s.path_window_sup.tolist() == sup[:, -1].tolist()
    assert s.path_window_inf.tolist() == inf[:, -1].tolist()


@pytest.mark.parametrize("name", ["bernoulli_quarter", "cantor_biased", "markov_chain"])
def test_checkpoint_extremes_are_the_checkpoint_ratio_extremes(name):
    model = load_zoo_model(name)
    conv = lil_convention(model)
    cks = [16, 40, 300, 1000]
    s = run_ensemble(model, N=12, checkpoints=cks, seed=4)
    for i in range(12):
        r = path_stats(model, cks, seed=4, path_index=i).ratios(conv)
        assert s.path_window_sup[i] == max(r)
        assert s.path_window_inf[i] == min(r)


@pytest.mark.parametrize("name, window", [
    ("bernoulli_quarter", None), ("markov_chain", None), ("markov_chain", (16, 512)),
    ("bernoulli_quarter", (16, 512)), ("cantor_biased", (16, 512)),
])
def test_threads_split_only_the_product_window_walk(monkeypatch, name, window):
    model = load_zoo_model(name)
    pools = []

    class Spy(lil_module.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(lil_module, "ThreadPoolExecutor", Spy)
    monkeypatch.setattr(lil_module.os, "cpu_count", lambda: 8)  # more CPUs than threads
    monkeypatch.setattr(lil_module, "_THREAD_WORK", 1)  # no floor: the thread count binds
    one = run_ensemble(model, N=6, checkpoints=[16, 64, 512], seed=3, window=window)
    three = run_ensemble(model, N=6, checkpoints=[16, 64, 512], seed=3, window=window, threads=3)
    assert one == three
    product_window = window is not None and model.core.kind == "product"
    assert pools == ([3] if product_window else [])


@pytest.mark.parametrize("cpus", [None, 1, 4])
def test_window_threads_are_capped_at_the_cpu_count(monkeypatch, cpus):
    """A huge --threads asks for no more workers than CPUs. The recorder runs
    every task inline, so no thread is ever started."""
    if cpus is not None:
        monkeypatch.setattr(lil_module.os, "cpu_count", lambda: cpus)
    cap = lil_module.os.cpu_count() or 1
    pools = []

    class Inline:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(lil_module, "ThreadPoolExecutor", Inline)
    monkeypatch.setattr(lil_module, "_THREAD_WORK", 1)  # no floor: the CPU count binds
    kw = dict(N=12, checkpoints=[16, 64, 256], seed=5, window=(16, 256))
    one = run_ensemble(QUARTER, **kw)
    huge = run_ensemble(QUARTER, threads=10 ** 6, **kw)
    assert huge == one
    assert all(w <= cap for w in pools)
    assert pools == ([cap] if cap > 1 else [])


@pytest.mark.parametrize("N, depth, workers", [
    (2, 20, 1), (16, 16, 1), (4, 20, 2), (6, 20, 3), (1, 22, 1),
])
def test_window_threads_take_at_least_2_pow_21_path_levels_each(monkeypatch, N, depth, workers):
    """A product window walk gives each thread at least _THREAD_WORK path-
    levels (paths times the deepest checkpoint), and one path at least: with
    fewer, two threads ran slower than one. Four CPUs and four threads leave
    the floor to bind, or the path count (one path at 2^22 levels). The
    recorder runs every range inline, so no thread is ever started."""
    monkeypatch.setattr(lil_module.os, "cpu_count", lambda: 4)
    pools, ranges = [], []

    class Inline:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            ranges.extend(items)
            return map(fn, items)

    monkeypatch.setattr(lil_module, "ThreadPoolExecutor", Inline)
    n = 2 ** depth
    kw = dict(N=N, checkpoints=[16, n], seed=5, window=(16, n))
    assert run_ensemble(QUARTER, threads=4, **kw) == run_ensemble(QUARTER, **kw)
    assert lil_module._THREAD_WORK == 2 ** 21
    assert pools == ([workers] if workers > 1 else [])
    assert len(ranges) == (workers if workers > 1 else 0)
    assert all((hi - lo) * n >= 2 ** 21 for lo, hi in ranges)
    if ranges:  # contiguous ranges that cover the paths
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]] and ranges[-1][1] == N


def reference_checkpoint_walk(weights, checkpoints, rng, lw_conv, neg_lr, conv):
    """The checkpoint walk as a loop over checkpoints, one count draw per gap:
    with two active symbols, one uniform per gap piece through its count
    table, else one multinomial call."""
    active = np.flatnonzero(weights > 0)
    wa = weights[active]
    wa = wa / wa.sum()
    S = np.empty(len(checkpoints))
    t = np.empty(len(checkpoints))
    s_acc = 0.0
    t_acc = 0.0
    prev = 0
    two_sided = active.size == 2
    for j, ck in enumerate(checkpoints):
        gap = ck - prev
        if gap:
            if two_sided:
                pieces, _, draws = lil_module._count_tables(np.array([gap]), *wa)
                table = {int(r): (lo, cum) for rows, lo, cum in draws for r in rows}
                c1 = sum(int(table[j][0] + draw_symbols(table[j][1], rng.random())) for j in range(pieces))
                counts = np.array([gap - c1, c1])
            else:
                counts = rng.multinomial(gap, wa)
            s_acc += float(counts @ (-lw_conv[active]))
            if neg_lr is not None:
                t_acc += float(counts @ neg_lr[active])
        S[j] = s_acc
        t[j] = t_acc if neg_lr is not None else ck * conv.t_per_level
        prev = ck
    return S, t


def _checkpoint_models():
    from mflil import MultinomialMeasure
    return {
        "bernoulli_quarter": (QUARTER, ("auto", "base-2", "natural")),
        "cantor_biased": (load_zoo_model("cantor_biased"), ("auto",)),
        "three_with_a_zero": (MultinomialMeasure(3, 1, (0.35, 0.0, 0.65)), ("auto", "natural")),
        "four_in_2d": (MultinomialMeasure(2, 2, (0.1, 0.2, 0.3, 0.4)), ("auto", "natural")),
        "one_active": (MultinomialMeasure(2, 1, (0.0, 1.0)), ("auto", "natural")),
        "unequal_ratios": (SelfSimilarMeasure((0.2, 0.3, 0.5), (0.2, 0.3, 0.25)), ("auto",)),
    }


@pytest.mark.parametrize("checkpoints", [
    tuple(2 ** k for k in range(4, 13)), (16, 267, 3693, 8723, 20000),
])
@pytest.mark.parametrize("name", sorted(_checkpoint_models()))
def test_checkpoint_walk_matches_the_per_gap_loop(monkeypatch, name, checkpoints):
    model, conventions = _checkpoint_models()[name]
    core = model.core
    for convention in conventions:
        conv = lil_convention(model, convention)
        lw = log_symbol_weights(model, LogBase(conv.name))
        neg_lr = None if conv.t_per_level is not None else -core.log_ratios
        for seed in (1, 7):
            S, T, _, _ = lil_module._walk_ensemble(model, conv, checkpoints, seed, range(9))
            for i in (0, 1, 4, 8):
                S_ref, t_ref = reference_checkpoint_walk(
                    core.weights, checkpoints, path_rng(seed, i), lw, neg_lr, conv
                )
                ps = path_stats(model, checkpoints, convention, seed, i)
                # bytes, not ==, so that -0.0 and +0.0 differ
                assert np.array(ps.S).tobytes() == S_ref.tobytes()
                assert np.array(ps.t).tobytes() == t_ref.tobytes()
                assert S[i].tobytes() == S_ref.tobytes() and T[i].tobytes() == t_ref.tobytes()
            with monkeypatch.context() as mp:  # blocks of two paths
                mp.setattr(lil_module, "_COUNT_BLOCK", 2 * len(checkpoints) * core.k)
                S2, T2, _, _ = lil_module._walk_ensemble(model, conv, checkpoints, seed, range(9))
            assert S2.tobytes() == S.tobytes() and T2.tobytes() == T.tobytes()


@pytest.mark.parametrize("p1", [0.25, 0.75, 0.5, 0.3, 1e-6, 1 - 1e-6])
def test_count_tables_hold_the_exact_binomial_law(p1):
    """For every gap g <= 64, a count table's CDF, normalised by its total as
    draw_symbols normalises it, is the exact Binomial(g, p1) CDF (math.comb
    over Fractions) to 2e-15, and to 1e-12 relative wherever the exact CDF
    of the table's span is a normal double; the mass it leaves out is below
    e^-60 on each side. At p1 = 1e-6 and 1 - 1e-6 the span reaches past 40
    sd alone, which would leave out real mass (1.2e-10 at g = 16)."""
    p0 = 1 - p1
    P1 = Fraction(p1) / (Fraction(p0) + Fraction(p1))  # the law the floats define
    for g in range(1, 65):
        pieces, starts, [(rows, lo, cum)] = lil_module._count_tables(np.array([g]), p0, p1)
        hi = lo + len(cum) - 1
        assert pieces == 1 and starts.tolist() == [0] and rows.tolist() == [0] and 0 <= lo <= hi <= g
        cdf = list(itertools.accumulate(math.comb(g, c) * P1 ** c * (1 - P1) ** (g - c) for c in range(g + 1)))
        below = cdf[lo - 1] if lo else Fraction(0)
        assert below < math.exp(-60) and 1 - cdf[hi] < math.exp(-60)
        F = cum / cum[-1]
        for c in range(lo, hi + 1):
            assert abs(F[c - lo] - cdf[c]) <= 2e-15
            inside = float((cdf[c] - below) / (cdf[hi] - below))
            if inside >= 2.3e-308:
                assert F[c - lo] == pytest.approx(inside, rel=1e-12, abs=0)
        if g == 16 and min(p0, p1) == 1e-6:
            assert hi - g * p1 > 40 * math.sqrt(g * p0 * p1) + 1 or g * p1 - lo > 40 * math.sqrt(g * p0 * p1) + 1


@pytest.mark.parametrize("p1", [0.25, 0.3])
def test_count_table_of_2_pow_20_levels_holds_the_bulk(p1):
    """The 2^20-level table, the largest, holds the Binomial(2^20, p1) CDF to
    1e-12 relative over mean +- 3 sd. The reference sums the pmf in 40-digit
    mpmath from 12 sd below the mean, which leaves out less than 1e-30. A
    math.lgamma pmf is no reference at this size: lgamma(2^20 + 1) is about
    1.5e7, whose double spacing is 1.9e-9, and such a pmf is off by about 2e-9
    relative."""
    import mpmath

    g, p0 = 2 ** 20, 1 - p1
    _, _, [(_, lo, cum)] = lil_module._count_tables(np.array([g]), p0, p1)
    assert len(cum) <= 41_100  # mean +- (40 sd + 40) with sd <= 512
    F = cum / cum[-1]
    mean, sd = g * p1, math.sqrt(g * p0 * p1)
    with mpmath.workdps(40):
        P1 = mpmath.mpf(p1) / (mpmath.mpf(p1) + mpmath.mpf(p0))
        P0, c = 1 - P1, math.floor(mean - 12 * sd)
        pmf = mpmath.exp(mpmath.loggamma(g + 1) - mpmath.loggamma(c + 1) - mpmath.loggamma(g - c + 1)
                         + c * mpmath.log(P1) + (g - c) * mpmath.log(P0))
        acc, checked = mpmath.mpf(0), 0
        while c <= mean + 3 * sd:
            acc += pmf
            if c >= mean - 3 * sd:
                assert F[c - lo] == pytest.approx(float(acc), rel=1e-12, abs=0)
                checked += 1
            pmf *= (g - c) * P1 / ((c + 1) * P0)
            c += 1
    assert checked > 6 * sd - 2


def test_long_gaps_are_cut_into_pieces_of_2_pow_20():
    """A gap over 2^20 levels draws its count as the sum of its pieces', each
    piece from its own uniform of the path's stream, in order, and pieces of
    one length share one table; the per-gap mean of 2,000 paths sits within
    6 exact sd of g p1 on every gap."""
    g = 3 * 2 ** 20 + 5
    gaps = np.array([16, g, 2 ** 20, 2 ** 20 + 1])
    p0, p1 = 0.25, 0.75
    pieces, starts, draws = lil_module._count_tables(gaps, p0, p1)
    assert pieces == 8 and starts.tolist() == [0, 1, 5, 6]
    assert {lo + len(cum) > 100: rows.tolist() for rows, lo, cum in draws}[True] == [1, 2, 3, 5, 6]
    assert sorted(r for rows, _, _ in draws for r in rows.tolist()) == list(range(8))
    assert len(draws) == 4  # lengths 1, 5, 16 and 2^20
    table = {r: (lo, cum) for rows, lo, cum in draws for r in rows.tolist()}
    N, seed = 2000, 4
    ones = np.array([0.0, 1.0])  # increments that make S the running count of the second symbol
    walk = (gaps, np.array([p0, p1]), ones, None, pieces, starts, draws)
    S, _ = lil_module._checkpoint_walk_product(walk, seed, 0, N)
    counts = np.diff(S, axis=1, prepend=0.0)
    for j, gap in enumerate(gaps.tolist()):
        sd = math.sqrt(gap * p0 * p1 / N)
        assert abs(counts[:, j].mean() - gap * p1) <= 6 * sd
    for i in (0, 1, 1999):
        u = path_rng(seed, i).random(pieces)
        each = [table[j][0] + int(draw_symbols(table[j][1], x)) for j, x in enumerate(u)]
        assert counts[i].tolist() == np.add.reduceat(each, starts).tolist()


def test_count_draws_past_the_cap_are_refused(monkeypatch):
    """A path's gap pieces grow with depth, and the count tables with the
    distinct piece lengths: past _COUNT_CAP doubles together the run is
    refused with BudgetError before either is listed or built. Under the
    default path budget, a path to 2^33 holds 8,193 pieces; 2^60 levels
    would list 2^40 of them."""
    def no_walk(*args):
        raise AssertionError("a path was keyed before the count cap")

    assert lil_module._COUNT_CAP == 2 ** 22
    monkeypatch.setattr(lil_module, "path_rng", no_walk)
    monkeypatch.setattr(lil_module, "path_uniforms", no_walk)
    monkeypatch.setenv("MFLIL_PATH_BUDGET", str(2 ** 62))
    with pytest.raises(BudgetError, match="count tables"):
        path_stats(QUARTER, [16, 2 ** 60], seed=1)
    with pytest.raises(BudgetError, match="count tables"):
        run_ensemble(QUARTER, N=2, checkpoints=[16, 2 ** 44], seed=1)
    # a table over 2^20 levels at p = 1/4 holds up to 80 sd + 83 = 35,556
    # entries: 110 distinct lengths fit under the cap, 120 do not
    p0, p1 = 0.75, 0.25
    fit = np.array([2 ** 20 - j for j in range(110)])
    assert len(lil_module._count_tables(fit, p0, p1)[2]) == 110
    with pytest.raises(BudgetError, match="count tables"):
        lil_module._count_tables(np.array([2 ** 20 - j for j in range(120)]), p0, p1)
    levels = np.cumsum([2 ** 20 - j for j in range(120)]).tolist()  # within the default path budget
    monkeypatch.delenv("MFLIL_PATH_BUDGET")
    with pytest.raises(BudgetError, match="count tables"):
        path_stats(QUARTER, levels, seed=1)
    # a path to 2^33, the default budget's deepest, draws well inside the cap
    assert lil_module._count_tables(np.array([2 ** 33]), p0, p1)[0] == 2 ** 13


@pytest.mark.parametrize("group", [1 << 16, 64])
def test_short_and_long_streams_draw_the_same_bytes(monkeypatch, group):
    """_draw_uniforms computes streams of at most _SHORT_STREAM doubles a path
    by path_uniforms, about _DRAW_GROUP uniforms a pass, and longer ones by
    re-keying one generator: both give path_rng's bytes, here into a column
    slice of a larger block, with paths past 2^63 and a stream entered mid-block."""
    assert lil_module._SHORT_STREAM == 32
    monkeypatch.setattr(lil_module, "_DRAW_GROUP", group)  # 64: two paths a pass
    lo, drawn, blocks = 2 ** 63 + 1, 6, []
    for L in (32, 33):
        X = np.full((L, 12), np.nan)
        lil_module._draw_uniforms(5, lo, drawn, X[:, 3:10])
        want = np.array([path_rng(5, lo + j).random(drawn + L)[drawn:] for j in range(7)]).T
        assert X[:, 3:10].tobytes() == want.tobytes()
        assert np.isnan(X[:, :3]).all() and np.isnan(X[:, 10:]).all()
        blocks.append(X)
    assert blocks[0].tobytes() == blocks[1][:32].tobytes()


def reference_window_levels(model, conv, checkpoints, seed, path_index):
    """S and t of one product path at the checkpoints, from its per-level
    symbols: each block's increments summed in level order, then the carry of
    the blocks before. On grids t is level * t_per_level."""
    core = model.core
    neg_lw = -log_symbol_weights(model, LogBase(conv.name))
    n, block = checkpoints[-1], lil_module._WINDOW_BLOCK
    syms = draw_symbols(core.cum_weights, path_rng(seed, path_index).random(n))
    S, t = np.empty(n), np.empty(n)
    for base in range(0, n, block):
        part = syms[base:base + block]
        S[base:base + block] = (S[base - 1] if base else 0.0) + np.cumsum(neg_lw[part])
        if conv.t_per_level is None:
            t[base:base + block] = (t[base - 1] if base else 0.0) + np.cumsum(-core.log_ratios[part])
    if conv.t_per_level is not None:
        t = np.arange(1.0, n + 1.0) * conv.t_per_level
    at = np.asarray(checkpoints) - 1
    return S[at], t[at]


def _block_walk_cases():
    from mflil import MultinomialMeasure
    B = lil_module._WINDOW_BLOCK
    models = {
        "bernoulli_half": load_zoo_model("bernoulli_half"),  # every ratio is exactly 0.0
        "three_with_a_zero": MultinomialMeasure(3, 1, (0.35, 0.0, 0.65)),
        "cantor_biased": load_zoo_model("cantor_biased"),
    }
    cks = (16, 600, B - 1, B, B + 1, B + 700)
    windows = {  # levels 1..B make the first block
        "crosses": (B - 300, B + 300),
        "ends_at_the_boundary": (B - 500, B),  # and misses the second block
        "starts_after_the_boundary": (B + 1, B + 500),  # and misses the first block
        "starts_on_the_last_level": (B, B + 400),
    }
    return models, cks, windows


@pytest.mark.parametrize("name", ["bernoulli_half", "three_with_a_zero", "cantor_biased"])
def test_block_window_walk_bytes_match_the_level_references(monkeypatch, name):
    models, cks, windows = _block_walk_cases()
    model = models[name]
    conv = lil_convention(model)
    paths, seed = range(3, 6), 5
    refs = {i: reference_window_levels(model, conv, cks, seed, i) for i in paths}
    for label, window in windows.items():
        extremes = {i: reference_product_window(model, conv, cks, seed, i, window) for i in paths}
        for group in (1, 2, lil_module._WINDOW_GROUP):
            for threads in (1, 2, 3):
                with monkeypatch.context() as mp:
                    mp.setattr(lil_module, "_WINDOW_GROUP", group)
                    S, T, SUP, INF = lil_module._walk_ensemble(
                        model, conv, cks, seed, paths, threads, window
                    )
                for row, i in enumerate(paths):
                    case = (label, group, threads, i)
                    # bytes, not ==, so that -0.0 and +0.0 differ
                    assert S[row].tobytes() == refs[i][0].tobytes(), case
                    assert T[row].tobytes() == refs[i][1].tobytes(), case
                    assert SUP[row].tobytes() == np.array(extremes[i][0]).tobytes(), case
                    assert INF[row].tobytes() == np.array(extremes[i][1]).tobytes(), case
    if name == "bernoulli_half":
        seen = SUP[np.isfinite(SUP)]
        assert seen.size and (seen == 0.0).all() and not np.signbit(seen).any()


def _window_walk_peak(n):
    conv = lil_convention(QUARTER)
    cks = tuple(2 ** k for k in range(4, n.bit_length()))
    tracemalloc.start()
    try:
        lil_module._walk_ensemble(QUARTER, conv, cks, 3, range(2), window=(16, n))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_window_walk_memory_is_a_few_blocks():
    # one set of block buffers per group of paths, reused on every block:
    # no array over all levels and no fresh temporaries per path and block
    block_bytes = 8 * lil_module._WINDOW_BLOCK
    peak = _window_walk_peak(1 << 18)
    assert peak < 8 * block_bytes
    assert _window_walk_peak(1 << 17) >= peak - block_bytes // 64
