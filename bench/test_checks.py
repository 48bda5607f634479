"""Each output check passes on a real mflil output and fails on a perturbed copy.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckLog, TwoSymbolLaw  # noqa: E402
from mflil import cli  # noqa: E402


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["zoo", "--out", str(out)]) == 0
    return str(out)


def run(tmp_path, name, *argv):
    out = str(tmp_path / name)
    rc = cli.main([*argv, "--out", out])
    assert rc == 0
    return out


def model(models, name):
    return os.path.join(models, f"{name}.json")


def failures(check, *args):
    log = CheckLog()
    check(log, *args)
    assert log.attempted > 0
    return log.failures


def edit_json(outdir, fname, fn):
    path = os.path.join(outdir, fname)
    with open(path) as fh:
        doc = json.load(fh)
    fn(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def copy(outdir, tmp_path, name):
    dst = str(tmp_path / name)
    shutil.copytree(outdir, dst)
    return dst


def test_model_files(models, tmp_path):
    assert failures(checks.check_model_files, models) == []
    bad = copy(models, tmp_path, "bad")
    edit_json(bad, "bernoulli_quarter.json", lambda d: d.update(p=0.26))
    assert failures(checks.check_model_files, bad)


@pytest.mark.parametrize("name", checks.MODEL_NAMES)
def test_spectrum_rows(models, tmp_path, name):
    out = run(tmp_path, "spec", "spectrum", "--model", model(models, name),
              "--q-min", "-2", "--q-max", "3", "--q-step", "0.01")
    grid = workloads.SPECTRUM_GRID
    assert failures(checks.check_spectrum, "spec", out, name, grid) == []
    csv = os.path.join(out, "spectrum.csv")
    lines = open(csv).read().splitlines()
    q, tau = lines[120].split(",")
    lines[120] = f"{q},{float(tau) + 0.01:.16e}"
    open(csv, "w").write("\n".join(lines) + "\n")
    assert any("closed form" in f for f in failures(checks.check_spectrum, "spec", out, name, grid))


@pytest.mark.parametrize("key,delta", [("d", 1e-6), ("sigma2", 1e-4), ("delta", 1e-6)])
def test_spectrum_constants(models, tmp_path, key, delta):
    out = run(tmp_path, "spec", "spectrum", "--model", model(models, "markov_chain"),
              "--q-min", "-2", "--q-max", "3", "--q-step", "0.01")
    edit_json(out, "summary.json", lambda d: d.update({key: d[key] + delta}))
    assert any(key in f for f in failures(checks.check_spectrum, "spec", out, "markov_chain",
                                          workloads.SPECTRUM_GRID))


@pytest.mark.parametrize("name", ["markov_chain", "bernoulli_half", "cantor_biased"])
def test_qb(models, tmp_path, name):
    out = run(tmp_path, "qb", "qb-check", "--model", model(models, name))
    assert failures(checks.check_qb, "qb", out, name) == []
    c_bad = copy(out, tmp_path, "c")
    edit_json(c_bad, "qb.json", lambda d: d.update(C_hat=d["C_hat"] * 1.01))
    assert failures(checks.check_qb, "qb", c_bad, name)
    case_bad = copy(out, tmp_path, "case")
    flip = {"singular_Hd_ac_Pd": "equivalent_to_Hdelta", "equivalent_to_Hdelta": "singular_Hd_ac_Pd"}
    edit_json(case_bad, "qb.json", lambda d: d.update(case=flip[d["case"]]))
    assert failures(checks.check_qb, "qb", case_bad, name)


def test_oracles(tmp_path):
    out = run(tmp_path, "or", "oracles")
    assert failures(checks.check_oracles, "or", out, 0) == []
    assert failures(checks.check_oracles, "or", out, 3)
    edit_json(out, "oracle_checks.json", lambda rows: rows[0].update(ok=False))
    assert failures(checks.check_oracles, "or", out, 0)


@pytest.fixture(scope="module")
def lil_out(models, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("lil") / "lil")
    assert cli.main(["lil-sim", "--model", model(models, "bernoulli_quarter"), "--N", "600",
                     "--checkpoints", "pow2:4:12", "--seed", "5", "--out", out]) == 0
    return out


LAW = TwoSymbolLaw.for_model("bernoulli_quarter")


def test_lil_ckpt_passes(lil_out):
    assert failures(checks.check_lil_sim, "lil", lil_out, LAW, 600) == []


def test_lil_mean_moved_six_standard_errors(lil_out, tmp_path):
    out = copy(lil_out, tmp_path, "m")

    def move(doc):
        j = 3
        se = math.sqrt(LAW.variance(doc["checkpoints"][j]) / 600)
        doc["ratio_mean"][j] += math.copysign(6 * se, doc["ratio_mean"][j])
    edit_json(out, "summary.json", move)
    fails = failures(checks.check_lil_sim, "lil", out, LAW, 600)
    assert any("ratio_mean" in f for f in fails)


def test_lil_variance_and_ks(lil_out, tmp_path):
    out = copy(lil_out, tmp_path, "v")
    edit_json(out, "summary.json", lambda d: d["ratio_var"].__setitem__(2, d["ratio_var"][2] * 1.5))
    assert any("ratio_var" in f for f in failures(checks.check_lil_sim, "lil", out, LAW, 600))
    out = copy(lil_out, tmp_path, "k")
    n = 64
    edit_json(out, "summary.json",
              lambda d: d["ks_distance"].__setitem__(2, LAW.ks_band(n, 600) + 0.01))
    assert any("ks_distance" in f for f in failures(checks.check_lil_sim, "lil", out, LAW, 600))


def test_lil_wrong_law_is_caught(lil_out):
    # the same output judged against the p = 1/2 law: every band moves
    wrong = TwoSymbolLaw.for_model("bernoulli_half")
    assert failures(checks.check_lil_sim, "lil", lil_out, wrong, 600)


def test_one_byte_changed(lil_out, tmp_path):
    out = copy(lil_out, tmp_path, "b")
    before = checks.output_digests(out)
    assert failures(checks.check_manifest, "lil", out) == []
    path = os.path.join(out, "lilsim.csv")
    data = bytearray(open(path, "rb").read())
    data[-3] = ord("1") if data[-3] != ord("1") else ord("2")
    open(path, "wb").write(bytes(data))
    assert checks.output_digests(out) != before
    assert failures(checks.check_manifest, "lil", out)


def test_csv_must_mirror_summary(lil_out, tmp_path):
    out = copy(lil_out, tmp_path, "c")
    edit_json(out, "summary.json", lambda d: d["ratio_min"].__setitem__(0, d["ratio_min"][0] - 1e-9))
    assert any("csv column min" in f for f in failures(checks.check_lil_sim, "lil", out, LAW, 600))


@pytest.mark.parametrize("family", ["lil_hausdorff", "lil_packing"])
def test_gauge_fraction_moved_six_standard_errors(models, tmp_path, family):
    N = 2000
    out = run(tmp_path, "g", "gauge-test", "--model", model(models, "bernoulli_quarter"),
              "--family", family, "--epsilon", "0.3", "--epsilon-sign", "-1",
              "--checkpoints", "1024,16384", "--N", str(N), "--seed", "4")
    args = ("g", out, "bernoulli_quarter", family, -0.3, N)
    assert failures(checks.check_gauge_bernoulli, *args) == []

    def move(doc):
        p = checks.gauge_hit_probability("bernoulli_quarter", family, -0.3, 1024)[0]
        se = math.sqrt(p * (1 - p) / N)
        dev = doc["fractions"][0] - p
        doc["fractions"][0] = round((p + dev + math.copysign(6 * se, dev)) * N) / N
    edit_json(out, "summary.json", move)
    assert any("gauge fraction" in f for f in failures(checks.check_gauge_bernoulli, *args))


def test_hit_by_order(models, tmp_path):
    out = run(tmp_path, "t", "gauge-test", "--model", model(models, "markov_chain"),
              "--family", "theta", "--checkpoints", "16,64,256", "--N", "100", "--seed", "3")
    doc = checks.read_json(os.path.join(out, "summary.json"))
    assert failures(checks.check_hit_by, "t", doc, 100) == []
    down = dict(doc, hit_by=[doc["hit_by"][0], doc["hit_by"][0] - 0.01, doc["hit_by"][2]])
    assert failures(checks.check_hit_by, "t", down, 100)
    below = dict(doc, hit_by=[f - 0.01 for f in doc["fractions"]])
    assert failures(checks.check_hit_by, "t", below, 100)


def test_window(models, tmp_path):
    out = run(tmp_path, "w", "lil-sim", "--model", model(models, "bernoulli_quarter"), "--N", "16",
              "--checkpoints", "pow2:4:14", "--window", "64:16384", "--seed", "2")
    assert failures(checks.check_lil_sim, "w", out, LAW, 16) == []
    assert failures(checks.check_window, "w", out) == []
    sup = copy(out, tmp_path, "s")
    edit_json(sup, "summary.json", lambda d: d.update(window_sup_max=max(d["ratio_max"][2:]) - 1e-6))
    assert failures(checks.check_window, "w", sup)
    inf = copy(out, tmp_path, "i")
    edit_json(inf, "summary.json", lambda d: d.update(window_inf_min=min(d["ratio_min"][2:]) + 1e-6))
    assert failures(checks.check_window, "w", inf)
    dec = copy(out, tmp_path, "d")
    edit_json(dec, "summary.json", lambda d: d["runsup_median"].__setitem__(-1, d["runsup_median"][-2] - 0.01))
    assert failures(checks.check_window, "w", dec)


@pytest.mark.parametrize("window", [None, "16:1024"])
def test_markov_mean(models, tmp_path, window):
    N = 60
    argv = ["lil-sim", "--model", model(models, "markov_chain"), "--N", str(N),
            "--checkpoints", "pow2:4:10", "--seed", "8"] + (["--window", window] if window else [])
    out = run(tmp_path, "m", *argv)
    assert failures(checks.check_markov_mean, "m", out, N) == []

    def move(doc):
        n = doc["checkpoints"][-1]
        se = math.sqrt(checks.markov_moments(n)[1] / N) / math.sqrt(2 * n * math.log2(math.log2(n)))
        doc["ratio_mean"][-1] += 7 * se * (1 if doc["ratio_mean"][-1] >= 0 else -1)
    edit_json(out, "summary.json", move)
    assert any("mean S_n" in f for f in failures(checks.check_markov_mean, "m", out, N))


def test_markov_recursion_against_enumeration():
    # brute force over all 2^6 words of the stationary chain, bits
    import itertools
    pi, P = checks.MARKOV_PI, checks.MARKOV_P
    n = 6
    mean = second = 0.0
    for w in itertools.product((0, 1), repeat=n):
        prob = pi[w[0]] * math.prod(P[a][b] for a, b in zip(w, w[1:]))
        s = -math.log2(prob)
        mean += prob * s
        second += prob * s * s
    m, v = checks.markov_moments(n)
    assert m == pytest.approx(mean, abs=1e-12)
    assert v == pytest.approx(second - mean * mean, abs=1e-10)
    assert checks.markov_mean_formula(n) == pytest.approx(mean, abs=1e-12)


def test_markov_tau2_against_finite_difference():
    h = 1e-4
    f = lambda q: checks.tau_closed("markov_chain", q)  # noqa: E731
    fd = (f(1 + h) - 2 * f(1) + f(1 - h)) / h ** 2
    assert checks.tau2_closed("markov_chain") == pytest.approx(fd, rel=1e-6)


def test_tracer_wraps_and_restores(models, tmp_path):
    from mflil import lil, models as mmodels
    orig = mmodels.path_rng
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        assert lil.path_rng is not orig and mmodels.path_rng is not orig
        run(tmp_path, "l", "lil-sim", "--model", model(models, "bernoulli_quarter"), "--N", "50",
            "--checkpoints", "pow2:4:8", "--seed", "1", "--threads", "2")
    finally:
        tracer.uninstall()
    assert lil.path_rng is orig and mmodels.path_rng is orig
    m = tracer.op_metrics()[0]
    assert m["models.path_rng.calls"] == 50
    assert m["lil.paths"] == 50 and m["lil.levels"] == 50 * 256
    assert m["lil.kstest.calls"] == 5
    assert 0 < m["lil.run_ensemble.self_s"] < m["lil.run_ensemble.s"]


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (("lil.gone", "mflil.lil", "no_such_function"),))
    tracer = tracing.Tracer()
    tracer.install(0)
    tracer.uninstall()
    assert tracer.is_absent("lil.gone.calls")
    assert not tracer.is_absent("lil.run_ensemble.s")
