import hashlib
import json
import math
import os

import numpy as np
import pytest
import scipy

from mflil import lil as lil_module
from mflil.cli import build_parser, main
from mflil.models import parse_model_file


def run(args):
    return main(args)


@pytest.fixture(scope="module")
def zoo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("zoo")
    assert run(["zoo", "--out", str(out)]) == 0
    return out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_zoo_export(zoo_dir):
    names = sorted(p for p in os.listdir(zoo_dir) if p.endswith(".json"))
    assert "bernoulli_quarter.json" in names
    assert "manifest.json" in names
    assert len(names) == 6  # five models + manifest


def test_spectrum_outputs(zoo_dir, tmp_path):
    out = tmp_path / "spec"
    code = run(["spectrum", "--model", str(zoo_dir / "bernoulli_quarter.json"),
                "--out", str(out)])
    assert code == 0
    rows = (out / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "q,tau"
    # the q = 1 row prints exactly 1 and a tau at float-noise scale
    one = [r for r in rows if r.startswith("1.0000000000000000e+00,")]
    assert len(one) == 1
    assert abs(float(one[0].split(",")[1])) < 1e-10
    summary = read_json(out / "summary.json")
    assert summary["d"] == pytest.approx(0.8112781244591328, abs=1e-12)
    assert summary["sigma2"] == pytest.approx(0.471019899129799, abs=1e-12)
    assert summary["base"] == "base-ell"
    manifest = read_json(out / "manifest.json")
    assert manifest["tool"] == "mflil"
    assert manifest["command"] == "spectrum"
    for fname, digest in manifest["outputs"].items():
        assert sha256(out / fname) == digest


def test_lil_sim_outputs(zoo_dir, tmp_path):
    out = tmp_path / "lil"
    code = run(["lil-sim", "--model", str(zoo_dir / "bernoulli_quarter.json"),
                "--out", str(out), "--N", "100", "--checkpoints", "pow2:4:8",
                "--seed", "3"])
    assert code == 0
    rows = (out / "lilsim.csv").read_text().strip().splitlines()
    assert rows[0] == "n,mean_ratio,min_ratio,max_ratio,ks_distance,runsup_median"
    assert len(rows) == 6  # header + checkpoints 16..256
    summary = read_json(out / "summary.json")
    assert summary["N"] == 100
    assert summary["checkpoints"] == [16, 32, 64, 128, 256]
    assert len(summary["ks_distance"]) == 5


def test_reproducible_across_threads_and_reruns(zoo_dir, tmp_path):
    args_base = ["lil-sim", "--model", str(zoo_dir / "cantor_biased.json"),
                 "--N", "150", "--checkpoints", "pow2:4:10", "--seed", "17"]
    digests = []
    for run_dir, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / run_dir
        assert run(args_base + ["--out", str(out), "--threads", threads]) == 0
        digests.append((sha256(out / "lilsim.csv"), sha256(out / "summary.json")))
    assert digests[0] == digests[1] == digests[2]


def test_seeds_past_2_63_give_distinct_streams(zoo_dir, tmp_path):
    # both seeds round to 2^63 in float64
    digests = []
    for seed in ("9223372036854775808", "9223372036854775813"):
        out = tmp_path / seed
        assert run(["lil-sim", "--model", str(zoo_dir / "bernoulli_quarter.json"), "--N", "20",
                    "--checkpoints", "pow2:4:8", "--seed", seed, "--out", str(out)]) == 0
        digests.append(sha256(out / "lilsim.csv"))
    assert digests[0] != digests[1]


def test_spectrum_empirical_level_on_a_selfsimilar_model(zoo_dir, tmp_path):
    out = tmp_path / "emp"
    assert run(["spectrum", "--model", str(zoo_dir / "cantor_biased.json"), "--out", str(out),
                "--empirical-n", "4"]) == 0
    assert read_json(out / "summary.json")["method"] == "empirical(n=4)"


def test_gauge_test_outputs(zoo_dir, tmp_path):
    out = tmp_path / "gauge"
    code = run(["gauge-test", "--model", str(zoo_dir / "bernoulli_quarter.json"),
                "--out", str(out), "--family", "lil_hausdorff",
                "--epsilon", "0.3", "--checkpoints", "64,256",
                "--N", "200", "--seed", "5"])
    assert code == 0
    rows = (out / "gauge.csv").read_text().strip().splitlines()
    assert rows[0] == "n,fraction,hit_ever_fraction"
    summary = read_json(out / "summary.json")
    assert summary["spec"]["family"] == "lil_hausdorff"
    assert summary["spec"]["exponent"] > 0


def test_gauge_checkpoint_floor_exit_code(zoo_dir, tmp_path, capsys):
    code = run(["gauge-test", "--model", str(zoo_dir / "bernoulli_quarter.json"),
                "--out", str(tmp_path / "g2"), "--family", "power",
                "--checkpoints", "4,64", "--N", "10"])
    assert code == 2
    assert "n_min" in capsys.readouterr().err


def test_chain_step_budget_exit_code(zoo_dir, tmp_path, capsys, monkeypatch):
    def no_walk(*args):
        raise AssertionError("a path was keyed before the budget check")

    monkeypatch.setattr(lil_module, "path_rng", no_walk)
    monkeypatch.setattr(lil_module, "path_uniforms", no_walk)
    for cmd in (["lil-sim"], ["gauge-test", "--family", "power"]):
        code = run(cmd + ["--model", str(zoo_dir / "markov_chain.json"),
                          "--out", str(tmp_path / cmd[0]),
                          "--N", "20000", "--checkpoints", "16,4096"])
        assert code == 4
        assert "chain simulation capped" in capsys.readouterr().err


def test_qb_check_outputs(zoo_dir, tmp_path):
    out = tmp_path / "qb"
    code = run(["qb-check", "--model", str(zoo_dir / "markov_chain.json"),
                "--out", str(out)])
    assert code == 0
    doc = read_json(out / "qb.json")
    assert doc["C_hat"] == pytest.approx(3.0, abs=1e-12)
    assert "exact" not in doc and "closed_form" not in doc
    assert doc["case"] == "singular_Hd_ac_Pd"
    assert doc["d"] == pytest.approx(0.5574963279910676, abs=1e-10)
    assert doc["delta"] == 1.0
    assert "evidence" in doc


def test_exit_codes(zoo_dir, tmp_path, monkeypatch, capsys):
    assert run(["spectrum", "--model", str(tmp_path / "missing.json"),
                "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()
    monkeypatch.setenv("MFLIL_PATH_BUDGET", "100")
    code = run(["lil-sim", "--model", str(zoo_dir / "bernoulli_quarter.json"),
                "--out", str(tmp_path / "y"), "--N", "100",
                "--checkpoints", "pow2:4:8"])
    assert code == 4
    assert "budget" in capsys.readouterr().err.lower()
    monkeypatch.delenv("MFLIL_PATH_BUDGET")
    code = run(["lil-sim", "--model", str(zoo_dir / "bernoulli_quarter.json"),
                "--out", str(tmp_path / "z"), "--N", "10",
                "--checkpoints", "bogus"])
    assert code == 2


@pytest.mark.parametrize("checkpoints", ["pow2:4:20000", "pow2:4:1000000", "pow2:4:64", "16,9223372036854775808"])
@pytest.mark.parametrize("command", [["lil-sim"], ["gauge-test", "--family", "power"]])
def test_checkpoint_levels_from_2_pow_63_exit_2(zoo_dir, tmp_path, capsys, command, checkpoints):
    # pow2:4:1000000 would build every 2^k up to 2^1000000 before any check
    out = tmp_path / "o"
    assert run([*command, "--model", str(zoo_dir / "bernoulli_quarter.json"), "--out", str(out),
                "--N", "10", "--checkpoints", checkpoints]) == 2
    assert "below 2^63" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["lil-sim"], ["gauge-test", "--family", "power"]])
def test_path_counts_from_2_pow_63_exit_2(zoo_dir, tmp_path, capsys, command):
    # N * n_max would have more than 4,300 digits, past the int-to-str limit
    out = tmp_path / "o"
    assert run([*command, "--model", str(zoo_dir / "bernoulli_quarter.json"), "--out", str(out),
                "--N", "1" + "0" * 4290, "--checkpoints", f"16,{2 ** 62}"]) == 2
    assert "below 2^63" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"family": "multinomial", "ell": 2, "D": 100000, "weights": [1]},
    {"family": "multinomial", "ell": 2, "D": 10 ** 8, "weights": [1]},
    {"family": "markov", "ell": 2, "D": 20000, "pi": [1], "P": [[1]]},
])
def test_model_alphabets_of_2_pow_63_symbols_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run(["spectrum", "--model", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"ell=2, dim={doc['D']}" in err and "2^63" in err
    assert not (tmp_path / "o").exists()


def test_bad_window_and_convention(zoo_dir, tmp_path, capsys):
    code = run(["lil-sim", "--model", str(zoo_dir / "cantor_biased.json"),
                "--out", str(tmp_path / "w"), "--N", "10",
                "--checkpoints", "16,64", "--convention", "base-2"])
    assert code == 2
    capsys.readouterr()
    code = run(["lil-sim", "--model", str(zoo_dir / "bernoulli_quarter.json"),
                "--out", str(tmp_path / "w2"), "--N", "10",
                "--checkpoints", "16,64", "--window", "16-64"])
    assert code == 2


@pytest.mark.parametrize("family", ["lil_hausdorff", "lil_packing"])
def test_base_ell_theta_on_a_selfsimilar_model_exits_2(zoo_dir, tmp_path, capsys, family):
    out = tmp_path / "g"
    code = run(["gauge-test", "--model", str(zoo_dir / "cantor_biased.json"), "--out", str(out),
                "--family", family, "--theta-convention", "base-ell",
                "--checkpoints", "16,64", "--N", "10"])
    assert code == 2
    assert "base-ell" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_timestamp_only_in_manifest(zoo_dir, tmp_path):
    # two runs differ only in manifest timestamps, never in data files
    outs = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        assert run(["spectrum", "--model", str(zoo_dir / "bernoulli_half.json"),
                    "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "spectrum.csv").read_bytes() == (outs[1] / "spectrum.csv").read_bytes()
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
    m1 = read_json(outs[0] / "manifest.json")
    m2 = read_json(outs[1] / "manifest.json")
    assert m1["outputs"] == m2["outputs"]
    assert m1["model_digest"] == m2["model_digest"]


def test_manifest_names_the_rng_stream(zoo_dir, tmp_path):
    """Seeded outputs drawn before and after a change of stream differ in the
    manifest's rng_stream, which every command records."""
    out = tmp_path / "l"
    assert run(["lil-sim", "--model", str(zoo_dir / "bernoulli_quarter.json"), "--out", str(out),
                "--N", "20", "--checkpoints", "16,64", "--seed", "2"]) == 0
    assert read_json(out / "manifest.json")["rng_stream"] == lil_module.RNG_STREAM == "philox4x64-path-v2"
    assert run(["spectrum", "--model", str(zoo_dir / "bernoulli_half.json"), "--out", str(tmp_path / "s")]) == 0
    assert read_json(tmp_path / "s" / "manifest.json")["rng_stream"] == lil_module.RNG_STREAM


def test_version_is_the_package_version(capsys):
    # one source, __init__.py's __version__, read by pyproject.toml too; no
    # installed metadata is looked up, so a source checkout says it as well
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "mflil 0.1.0\n"


def test_oracles_subcommand(tmp_path):
    out = tmp_path / "oracles"
    assert run(["oracles", "--out", str(out)]) == 0
    cache = read_json(out / "oracles.json")
    assert cache["version"] == 1
    checks = read_json(out / "oracle_checks.json")
    assert all(c["ok"] for c in checks)


@pytest.mark.parametrize("command, flag", [
    ("spectrum", "--seed"), ("spectrum", "--threads"), ("qb-check", "--threads"),
    ("oracles", "--model"), ("oracles", "--seed"), ("oracles", "--threads"),
])
def test_parser_refuses_flags_a_subcommand_does_not_read(command, flag, capsys):
    parser = build_parser()
    argv = [command, "--out", "d"] + (["--model", "m.json"] if command != "oracles" else [])
    parser.parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv + [flag, "1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_parser_keeps_the_flags_subcommands_read():
    parser = build_parser()
    args = parser.parse_args(["lil-sim", "--model", "m", "--out", "d", "--N", "3",
                              "--checkpoints", "16", "--seed", "4", "--threads", "2"])
    assert (args.seed, args.threads) == (4, 2)
    gauge = ["gauge-test", "--model", "m", "--out", "d", "--N", "3",
             "--checkpoints", "16", "--family", "power", "--seed", "4"]
    assert parser.parse_args(gauge).seed == 4
    with pytest.raises(SystemExit) as exc:  # gauge walks run in one thread
        parser.parse_args(gauge + ["--threads", "2"])
    assert exc.value.code == 2
    assert parser.parse_args(["qb-check", "--model", "m", "--out", "d", "--seed", "5"]).seed == 5


def test_main_calls_in_a_row_leak_no_options(zoo_dir, tmp_path):
    # main reuses one parser; each call still parses from the defaults
    base = ["lil-sim", "--model", str(zoo_dir / "markov_chain.json"), "--N", "3", "--checkpoints", "16,32"]
    assert run(base + ["--out", str(tmp_path / "a"), "--threads", "2", "--seed", "9", "--window", "16:32"]) == 0
    assert run(base + ["--out", str(tmp_path / "b")]) == 0
    first = read_json(tmp_path / "a" / "manifest.json")["options"]
    second = read_json(tmp_path / "b" / "manifest.json")["options"]
    assert (first["threads"], first["seed"], first["window"]) == (2, 9, "16:32")
    assert (second["threads"], second["seed"], second["window"]) == (1, 0, None)


def test_spectrum_refuses_the_method_flag(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["spectrum", "--model", "m.json", "--out", "d", "--method", "perron"])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err


def test_spectrum_summary_records_the_method(zoo_dir, tmp_path):
    model = str(zoo_dir / "markov_chain.json")
    assert run(["spectrum", "--model", model, "--out", str(tmp_path / "a")]) == 0
    assert read_json(tmp_path / "a" / "summary.json")["method"] == "auto"
    assert run(["spectrum", "--model", model, "--out", str(tmp_path / "b"), "--empirical-n", "6"]) == 0
    assert read_json(tmp_path / "b" / "summary.json")["method"] == "empirical(n=6)"
    # base-ell units: the natural oracle over ln 2
    s2 = read_json(tmp_path / "a" / "summary.json")["sigma2"]
    assert abs(s2 - 0.8774000084681971 / math.log(2.0)) <= 1e-12


def test_power_gauge_runs_on_selfsimilar_models(zoo_dir, tmp_path, capsys):
    from mflil import GaugeSpec, dimension, gauge_test
    from mflil.zoo import load_zoo_model

    model = str(zoo_dir / "cantor_biased.json")
    out = tmp_path / "power"
    code = run(["gauge-test", "--model", model, "--family", "power", "--out", str(out),
                "--checkpoints", "16,64,256", "--N", "300", "--seed", "5"])
    assert code == 0
    cb = load_zoo_model("cantor_biased")
    ref = gauge_test(cb, GaugeSpec("power", dimension(cb)), [16, 64, 256], N=300, seed=5)
    rows = (out / "gauge.csv").read_text().strip().splitlines()[1:]
    assert tuple(float(r.split(",")[1]) for r in rows) == ref.fractions
    for family in ("sqrt", "theta"):
        code = run(["gauge-test", "--model", model, "--family", family, "--out",
                    str(tmp_path / family), "--checkpoints", "16,64", "--N", "10"])
        assert code == 2
        assert "grid scale" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
@pytest.mark.parametrize("var", ["MFLIL_PATH_BUDGET", "MFLIL_ENUM_BUDGET"])
def test_malformed_budgets_refused(zoo_dir, tmp_path, monkeypatch, capsys, var, raw):
    from mflil import ValidationError
    from mflil.models import enumeration_budget

    read = lil_module.path_budget if var == "MFLIL_PATH_BUDGET" else enumeration_budget
    monkeypatch.setenv(var, raw)
    with pytest.raises(ValidationError, match=f"{var}.*{raw}"):
        read()
    if var == "MFLIL_PATH_BUDGET":
        argv = ["lil-sim", "--model", str(zoo_dir / "bernoulli_quarter.json"), "--N", "4",
                "--checkpoints", "16,64"]
    else:
        argv = ["spectrum", "--model", str(zoo_dir / "markov_chain.json"), "--empirical-n", "4"]
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    assert var in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"family": "multinomial", "ell": 2.7, "weights": [0.5, 0.5]},
    {"family": "multinomial", "ell": 2, "D": 1.5, "weights": [0.25] * 4},
    {"family": "multinomial", "ell": True, "weights": [0.5, 0.5]},
    {"family": "multinomial", "ell": "2", "weights": [0.5, 0.5]},
    {"family": "markov", "ell": 2.9, "D": 1.5, "pi": [0.5, 0.5], "P": [[0.5, 0.5], [0.5, 0.5]]},
    {"family": "markov", "ell": 2, "D": True, "pi": [0.5, 0.5], "P": [[0.5, 0.5], [0.5, 0.5]]},
    {"family": "bernoulli", "p": 0.25, "D": True},
    {"family": "bernoulli", "p": 0.25, "ell": 2.5},
])
def test_non_integral_ell_or_d_refused(tmp_path, capsys, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run(["spectrum", "--model", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'ell'" in err or "'D'" in err


@pytest.mark.parametrize("doc", [
    {"family": "bernoulli", "p": "0.25"},
    {"family": "multinomial", "ell": 2, "weights": [True, False]},
    {"family": "markov", "ell": 2, "pi": "10", "P": [[1, 0], [1, 0]]},
    {"family": "markov", "ell": 2, "pi": [1, 0], "P": ["10", "10"]},
    {"family": "selfsimilar", "probs": "1", "ratios": [0.5]},
])
def test_model_numbers_that_are_not_json_numbers_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run(["spectrum", "--model", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert doc["family"] in err and "field" in err
    assert not (tmp_path / "o").exists()


def test_integral_ell_and_d_still_load(tmp_path):
    docs = {
        "m3": {"family": "multinomial", "ell": 3.0, "weights": [0.2, 0.3, 0.5]},
        "m2d": {"family": "multinomial", "ell": 2, "D": 2.0, "weights": [0.1, 0.2, 0.3, 0.4]},
        "chain": {"family": "markov", "ell": 3, "D": 1, "pi": [0.2, 0.3, 0.5],
                  "P": [[0.2, 0.3, 0.5]] * 3},
        "bern": {"family": "bernoulli", "p": 0.25, "ell": 2.0, "D": 1},
    }
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        model = parse_model_file(str(path))
        assert (model.alphabet.ell, model.alphabet.dim) == (
            doc.get("ell", 2), doc.get("D", 1)
        )
        assert run(["spectrum", "--model", str(path), "--out", str(tmp_path / name)]) == 0


def test_master_seed_is_null_without_a_seed_option(zoo_dir, tmp_path):
    for cmd in (["zoo"], ["oracles"],
                ["spectrum", "--model", str(zoo_dir / "bernoulli_half.json")]):
        out = tmp_path / cmd[0]
        assert run(cmd + ["--out", str(out)]) == 0
        assert read_json(out / "manifest.json")["master_seed"] is None
    out = tmp_path / "qb"
    assert run(["qb-check", "--model", str(zoo_dir / "bernoulli_half.json"),
                "--out", str(out), "--seed", "5"]) == 0
    assert read_json(out / "manifest.json")["master_seed"] == 5


def test_manifest_options_are_the_parsed_options(zoo_dir, tmp_path):
    out = tmp_path / "qb"
    assert run(["qb-check", "--model", str(zoo_dir / "bernoulli_half.json"),
                "--out", str(out), "--seed", "5"]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "qb-check"
    # the subcommand has its own key, and its handler is no option
    assert "command" not in manifest["options"] and "func" not in manifest["options"]
    assert manifest["options"]["seed"] == 5
    assert manifest["options"]["out"] == str(out)


def test_refused_runs_leave_no_out_directory(zoo_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MFLIL_PATH_BUDGET", "100")
    out = tmp_path / "lil"
    assert run(["lil-sim", "--model", str(zoo_dir / "bernoulli_quarter.json"),
                "--out", str(out), "--N", "100", "--checkpoints", "pow2:4:8"]) == 4
    assert not out.exists()
    monkeypatch.delenv("MFLIL_PATH_BUDGET")
    out = tmp_path / "theta"
    assert run(["gauge-test", "--model", str(zoo_dir / "cantor_biased.json"),
                "--out", str(out), "--family", "theta", "--N", "10",
                "--checkpoints", "64,1024"]) == 2
    assert "grid scale" in capsys.readouterr().err
    assert not out.exists()


# sha256 of the data files (manifests excluded) of ten small commands: the
# first six as written before the subcommands shared one output writer, the
# empirical tables as written while each row enumerated its own words.
_PINNED_COMMANDS = {
    "spectrum": ("spectrum", "markov_chain", []),
    "lil_ckpt": ("lil-sim", "bernoulli_quarter",
                 ["--N", "200", "--checkpoints", "pow2:4:12", "--seed", "11"]),
    "lil_window": ("lil-sim", "cantor_biased",
                   ["--N", "8", "--checkpoints", "pow2:4:14", "--window", "16:16384",
                    "--seed", "6"]),
    "gauge_packing": ("gauge-test", "cantor_biased",
                      ["--family", "lil_packing", "--N", "200", "--checkpoints", "64,1024",
                       "--seed", "3"]),
    "gauge_theta": ("gauge-test", "bernoulli_quarter",
                    ["--family", "theta", "--N", "200", "--checkpoints", "64,1024",
                     "--seed", "3"]),
    "qb": ("qb-check", "markov_chain", []),
    # finite-level tables; the chain at n = 16 takes the matrix-power route
    "empirical_quarter": ("spectrum", "bernoulli_quarter", ["--empirical-n", "6"]),
    "empirical_cantor": ("spectrum", "cantor_biased", ["--empirical-n", "6"]),
    "empirical_chain6": ("spectrum", "markov_chain", ["--empirical-n", "6"]),
    "empirical_chain16": ("spectrum", "markov_chain", ["--empirical-n", "16"]),
}
_PINNED_SHA256 = {
    ("spectrum", "spectrum.csv"): "044786d933ebb653c3053b61a2a74f79a36f195202e357bdb1c6c792f8c3213c",
    ("spectrum", "summary.json"): "28df0a6c657ed4d3f33d169a4390c465466868a1e0eae6df0b27c7a7aadc8216",
    ("lil_ckpt", "lilsim.csv"): "ebaeba89f0eefb35908f1b1fe4995b77cf7d430776d123d184878180f51cbad9",
    ("lil_ckpt", "summary.json"): "ebcd75fb3a29bc3c607a96449a43fc007197c2b08c2ff06d4e486ee18ff697f4",
    ("lil_window", "lilsim.csv"): "f44c178098c30b9378c7df5050791f86b891f9725cba00cab5dbc35b3be1f18e",
    ("lil_window", "summary.json"): "dc5c79f7c1bb5a3a3abaab8f09db695fd920a6ab6e6b8be0a818acd6dc6da4c6",
    ("gauge_packing", "gauge.csv"): "c0515d009eb6ca146c834383be647b8d0812b735d9a12a51503af97afdae4245",
    ("gauge_packing", "summary.json"): "19a45fcd0506f0b30471bf74fdc22ecf7d8e60e186a32ba7d7fe901d818b7e23",
    ("gauge_theta", "gauge.csv"): "f5548999d5b3d93ada56bcc938b72158e9b09b44e36a375aa4037450421e4952",
    ("gauge_theta", "summary.json"): "76f4a29e986cb8b492706448d54200ced4a63d488bf025a71726264670c6bd8e",
    ("qb", "qb.json"): "810c597ff6d09a5e66fc3b2437cc1c01dd1546598b421ae82de32fa626b7a7b2",
    ("empirical_quarter", "spectrum.csv"): "31a97258f3a3a0dfefa6a68f7dadee7875b08a8911558e639bd1e84cddaa081d",
    ("empirical_quarter", "summary.json"): "59cc8e145b290329c1e4cdb41c29dcd66ae44a9888b4f34af2c601f563ebd433",
    ("empirical_cantor", "spectrum.csv"): "fc95729242e45508963a2ba797445251b0f7fe1860496d59a77fcf9912ae50e6",
    ("empirical_cantor", "summary.json"): "8d9d4061028fa3c2ae6098e2e8ddd1835d1cb5ab6f61b201a0cb69aaf915a928",
    ("empirical_chain6", "spectrum.csv"): "12d6c1a44554e9f41e29e7c9adcb623ef0d6482fb656dd369e3e889fc3c57cf3",
    ("empirical_chain6", "summary.json"): "f89d2051702345d0f02b7fcf18450458303eabbfcaec126aa494369daa4c983a",
    ("empirical_chain16", "spectrum.csv"): "8062fe31f3b0d87837b6f1367738586297777b975e158b81b3d0edd594a17dfe",
    ("empirical_chain16", "summary.json"): "1d3536041c9a681acb4c5d09a7dfdb39be8ab1e157d20bc13b09a7307471755e",
}


@pytest.mark.skipif(
    (np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"),
    reason="the pinned hashes were recorded with numpy 2.4.6 and scipy 1.17.1",
)
def test_data_files_match_pinned_hashes(zoo_dir, tmp_path):
    found = {}
    for tag, (command, model, extra) in _PINNED_COMMANDS.items():
        out = tmp_path / tag
        assert run([command, "--model", str(zoo_dir / f"{model}.json"),
                    "--out", str(out), *extra]) == 0
        for name in os.listdir(out):
            if name != "manifest.json":
                found[(tag, name)] = sha256(out / name)
    assert found == _PINNED_SHA256


@pytest.mark.parametrize("flag,value", [
    ("--q-step", "nan"), ("--q-min", "nan"), ("--q-max", "inf"), ("--q-step", "inf"),
])
def test_spectrum_refuses_a_non_finite_grid(zoo_dir, tmp_path, capsys, flag, value):
    out = tmp_path / "s"
    code = run(["spectrum", "--model", str(zoo_dir / "bernoulli_quarter.json"),
                "--out", str(out), flag, value])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_grid_rows_sit_under_the_enumeration_budget(zoo_dir, tmp_path, monkeypatch, capsys):
    model = str(zoo_dir / "markov_chain.json")
    monkeypatch.setenv("MFLIL_ENUM_BUDGET", "10")
    grid = ["--q-min", "-2", "--q-max", "3"]
    assert run(["spectrum", "--model", model, "--out", str(tmp_path / "a"), *grid,
                "--q-step", "0.5"]) == 4  # 11 rows
    assert "MFLIL_ENUM_BUDGET" in capsys.readouterr().err
    assert run(["spectrum", "--model", model, "--out", str(tmp_path / "b"), *grid,
                "--q-step", "1"]) == 0  # 6 rows
    assert len((tmp_path / "b" / "spectrum.csv").read_text().splitlines()) == 7
    # a span that overflows to infinity is refused the same way
    assert run(["spectrum", "--model", model, "--out", str(tmp_path / "c"),
                "--q-min=-1e308", "--q-max", "1e308", "--q-step", "1"]) == 4
    assert "MFLIL_ENUM_BUDGET" in capsys.readouterr().err
