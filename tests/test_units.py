"""LogBase is the one list of unit systems.

Every reader of a unit name (the LIL conventions, the Theta corrections and
the CLI's --base, --convention and --theta-convention) accepts each LogBase
value where the model admits it, and refuses any other name.
"""

import json

import pytest

from mflil import (
    LogBase,
    MultinomialMeasure,
    ValidationError,
    lil_convention,
    lil_sigma,
    model_to_dict,
    sigma2,
    spectrum_table,
    tau,
    tau_empirical,
    theta_correction,
)
from mflil.cli import main
from mflil.zoo import load_zoo_model

# one unit name outside LogBase
UNKNOWN = "base-10"


@pytest.fixture(scope="module")
def zoo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("zoo")
    assert main(["zoo", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("base", list(LogBase), ids=lambda b: b.value)
def test_the_library_accepts_each_log_base_where_the_model_admits_it(base):
    models = [load_zoo_model(name) for name in ("bernoulli_quarter", "markov_chain", "cantor_biased")]
    models.append(MultinomialMeasure(3, 1, (0.2, 0.5, 0.3)))
    for model in models:
        ell = model.core.ell
        # S and t in bits need a binary grid, and grid units any grid
        if base is LogBase.NATURAL or ell == 2 or (ell is not None and base is LogBase.BASE_ELL):
            assert lil_convention(model, base.value).base is base
        else:
            with pytest.raises(ValidationError):
                lil_convention(model, base.value)
        # a base-ell Theta needs a grid base; the other two never read one
        if ell is not None or base is not LogBase.BASE_ELL:
            assert lil_sigma(model, base.value) > 0
            theta = theta_correction(base.value, ell)
            assert theta.convention == base.value
            if base is not LogBase.BASE_ELL:  # never reads ell
                assert theta == theta_correction(base.value, None)
        else:
            with pytest.raises(ValidationError, match="base-ell"):
                lil_sigma(model, base.value)
            with pytest.raises(ValidationError, match="base-ell"):
                theta_correction(base.value, ell)


def test_a_base_ell_theta_without_ell_is_refused():
    # no silent binary default: base-ell Theta reads the model's grid base
    with pytest.raises(ValidationError, match="base-ell"):
        theta_correction(LogBase.BASE_ELL.value)
    assert theta_correction(LogBase.BASE_ELL.value, 3).bases == (3, 3)
    for base in (LogBase.NATURAL, LogBase.BASE_2):
        assert theta_correction(base.value) == theta_correction(base.value, 5)


def test_spectra_refuse_base_2_off_a_binary_grid(tmp_path, capsys):
    # models.ln_base is the spectra's unit rule, as it is the conventions'
    ternary = MultinomialMeasure(3, 1, (0.2, 0.3, 0.5))
    for call in (lambda: tau(ternary, 2.0, LogBase.BASE_2), lambda: sigma2(ternary, LogBase.BASE_2),
                 lambda: tau_empirical(ternary, 2.0, 4, LogBase.BASE_2),
                 lambda: spectrum_table(ternary, base=LogBase.BASE_2)):
        with pytest.raises(ValidationError, match="binary grid"):
            call()
    path, out = tmp_path / "ternary.json", tmp_path / "o"
    path.write_text(json.dumps(model_to_dict(ternary)))
    assert main(["spectrum", "--model", str(path), "--out", str(out), "--base", "base-2"]) == 2
    assert "binary grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, extra", [
    ("spectrum", "--base", []),
    ("lil-sim", "--convention", ["--N", "10", "--checkpoints", "16,64"]),
    ("gauge-test", "--theta-convention",
     ["--family", "lil_hausdorff", "--N", "10", "--checkpoints", "16,64"]),
])
@pytest.mark.parametrize("base", list(LogBase), ids=lambda b: b.value)
def test_the_cli_accepts_each_log_base(zoo_dir, tmp_path, command, flag, extra, base):
    out = tmp_path / "o"
    assert main([command, "--model", str(zoo_dir / "bernoulli_quarter.json"), "--out", str(out),
                 flag, base.value, *extra]) == 0
    assert (out / "manifest.json").exists()


def test_the_library_refuses_a_name_outside_log_base():
    quarter = load_zoo_model("bernoulli_quarter")
    with pytest.raises(ValidationError):
        LogBase.parse(UNKNOWN)
    with pytest.raises(ValidationError):
        lil_convention(quarter, UNKNOWN)
    with pytest.raises(ValidationError):
        lil_sigma(quarter, UNKNOWN)
    with pytest.raises(ValidationError):
        theta_correction(UNKNOWN, 2)


@pytest.mark.parametrize("command, flag, extra", [
    ("spectrum", "--base", []),
    ("lil-sim", "--convention", ["--N", "10", "--checkpoints", "16,64"]),
    ("gauge-test", "--theta-convention",
     ["--family", "lil_hausdorff", "--N", "10", "--checkpoints", "16,64"]),
])
def test_the_cli_refuses_a_name_outside_log_base(zoo_dir, tmp_path, capsys, command, flag, extra):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", str(zoo_dir / "bernoulli_quarter.json"), "--out", str(out),
              flag, UNKNOWN, *extra])
    assert exc.value.code == 2
    assert UNKNOWN in capsys.readouterr().err
    assert not out.exists()
