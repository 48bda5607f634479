import json

import pytest

from mflil.report import (
    OracleRecord,
    build_oracles,
    verify_records,
    write_oracle_cache,
)

# built once; the mpmath routes take a few seconds
RECORDS = build_oracles()


def test_every_record_checks_out():
    checks = verify_records(RECORDS)
    bad = [c for c in checks if not c.ok]
    detail = "; ".join(
        f"{c.quantity}: oracle={c.oracle_value!r} main={c.main_value!r}" for c in bad
    )
    assert not bad, detail


def test_record_inventory():
    names = {r.quantity for r in RECORDS}
    must_have = {
        "bernoulli_quarter.dimension",
        "bernoulli_quarter.sigma2_base2",
        "bernoulli_quarter.tau_at_2",
        "bernoulli_quarter.chi_at_half",
        "cantor_natural.delta",
        "cantor_biased.dimension",
        "cantor_biased.tau_at_2",
        "markov_chain.dimension",
        "markov_chain.qb_constant",
        "bernoulli_quarter.tail_16_32_a4",
        "theta_base2.exponent_at_2pow16",
    }
    assert must_have <= names


def test_known_anchor_values():
    by_name = {r.quantity: r for r in RECORDS}
    assert by_name["bernoulli_quarter.dimension"].value == pytest.approx(
        0.8112781244591328, abs=1e-13
    )
    assert by_name["bernoulli_quarter.sigma2_base2"].value == pytest.approx(
        0.4710198991297990, abs=1e-12
    )
    assert by_name["cantor_biased.tau_at_2"].value == pytest.approx(
        -0.4278157399964451, abs=1e-12
    )
    assert by_name["markov_chain.qb_constant"].value == 3.0
    assert by_name["theta_base2.exponent_at_2pow16"].value == pytest.approx(
        561.5773922398699, abs=1e-9
    )


def test_cache_round_trip(tmp_path):
    path = tmp_path / "oracles.json"
    write_oracle_cache(RECORDS, str(path))
    doc = json.loads(path.read_text())
    assert doc["version"] == 1
    again = [OracleRecord(**entry) for entry in doc["records"]]
    assert again == sorted(RECORDS, key=lambda r: r.quantity)


def test_methods_are_recorded():
    for r in RECORDS:
        assert r.method
        assert r.tolerance > 0
