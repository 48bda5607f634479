import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import mpmath
import pytest

from mflil import ValidationError
from mflil.cli import main
from mflil.report import OracleRecord, _naive_tail, build_oracles, verify_records

# built once; build_oracles takes about 2 ms
RECORDS = build_oracles()

# oracles.json's bytes: its values come from mpmath, math and the tail DP,
# with no numpy kernel, so they hold on every CPU for one mpmath version
ORACLES_SHA256 = "251703bb8950c5e6966adddcf37e116814cbb7e44319c755ebbb9e5fa7857dca"


def fraction_tail(p: float, n0: int, n1: int, a: float) -> float:
    """The first-passage dict DP with Fraction probabilities: the reference
    that report._naive_tail's integer numerators must match bit for bit."""
    d = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    x1 = -math.log2(p)
    x0 = -math.log2(1 - p)
    fp = Fraction(p)
    alive = {0: Fraction(1)}
    hit = Fraction(0)
    for k in range(1, n1 + 1):
        nxt: dict[int, Fraction] = {}
        for ones, prob in alive.items():
            nxt[ones] = nxt.get(ones, Fraction(0)) + prob * (1 - fp)
            nxt[ones + 1] = nxt.get(ones + 1, Fraction(0)) + prob * fp
        alive = nxt
        if k >= n0:
            still = {}
            for ones, prob in alive.items():
                s = ones * x1 + (k - ones) * x0
                if s - k * d >= a:
                    hit += prob
                else:
                    still[ones] = prob
            alive = still
    return float(hit)


def test_naive_tail_is_the_fraction_dp_bit_for_bit():
    tails = []
    for p in (0.25, 0.1, 0.3, 1 / 3, 0.5, 0.01, 0.9):
        for n0, n1 in ((1, 1), (1, 8), (16, 32), (5, 40)):
            for a in (-1.0, 0.0, 0.5, 2.0, 4.0, 6.0, 50.0):
                want = fraction_tail(p, n0, n1, a)
                assert _naive_tail(p, n0, n1, a).hex() == want.hex(), (p, n0, n1, a)
                tails.append(want)
    # barriers never reached (0.0), every path absorbed at n0 (1.0, a = -1 at
    # n0 = n1 = 1) and tails in between
    assert {0.0, 1.0} <= set(tails)
    assert any(0.0 < t < 1.0 for t in tails)


def test_every_record_checks_out():
    checks = verify_records(RECORDS)
    bad = [c for c in checks if not c.ok]
    detail = "; ".join(
        f"{c.quantity}: oracle={c.oracle_value!r} main={c.main_value!r}" for c in bad
    )
    assert not bad, detail


def test_verify_records_refuses_a_quantity_no_row_names():
    real = next(r for r in RECORDS if r.quantity == "bernoulli_quarter.dimension")
    misspelt = dataclasses.replace(real, quantity="bernoulli_quarter.dimenson")
    with pytest.raises(ValidationError, match="dimenson"):
        verify_records([misspelt])
    informational = [c.quantity for c in verify_records(RECORDS) if c.main_value is None]
    assert informational == ["gaussian.ks_budget_N1e5_n1e4"]


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
    assert main(["oracles", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "oracles.json").read_text())
    assert doc["version"] == 1
    again = [OracleRecord(**entry) for entry in doc["records"]]
    assert again == sorted(RECORDS, key=lambda r: r.quantity)


@pytest.mark.skipif(
    mpmath.__version__ != "1.3.0",
    reason="oracles.json's hash was recorded with mpmath 1.3.0",
)
def test_oracles_file_matches_its_pinned_hash(tmp_path):
    assert main(["oracles", "--out", str(tmp_path)]) == 0
    data = (tmp_path / "oracles.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == ORACLES_SHA256


def test_methods_are_recorded():
    for r in RECORDS:
        assert r.method
        assert r.tolerance > 0
