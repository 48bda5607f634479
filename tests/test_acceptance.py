"""Acceptance checks, one per shipping criterion.

Each test prints a single `criterion N [...]: PASS/FAIL` line on the real
terminal (bypassing capture) so a full run reads as a ten-line scoreboard.
Monte Carlo criteria use pinned seeds whose outputs were verified against the
exact oracles in mflil.report before being frozen here.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from mflil import (
    BernoulliProduct,
    dichotomy_classify,
    dimension,
    exact_moments,
    lil_convention,
    run_ensemble,
    running_max_tail,
    sigma2,
    sigma2_scale_free,
    tau_scale_free,
    GaugeSpec,
    gauge_test,
    lil_sigma,
    theta_correction,
)
from mflil.cli import main as cli_main
from mflil.spectrum import LogBase
from mflil.zoo import load_zoo_model, zoo_models
from reference_paths import partition_bound_check

QUARTER = load_zoo_model("bernoulli_quarter")
LN2 = math.log(2.0)
LN3 = math.log(3.0)


def _announce(capsys, num, label, ok, detail=""):
    with capsys.disabled():
        tail = f" {detail}" if detail else ""
        print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}{tail}")


def _run(capsys, num, label, budget_s, body):
    t0 = time.perf_counter()
    try:
        detail = body() or ""
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s over the {budget_s}s budget"
    except BaseException:
        _announce(capsys, num, label, False, f"({time.perf_counter() - t0:.2f}s)")
        raise
    _announce(capsys, num, label, True, f"({elapsed:.2f}s{detail})")


def test_criterion_01_spectrum_exactness(capsys):
    def body():
        delta_cantor = math.log(2.0) / math.log(3.0)
        expected_delta = {
            "bernoulli_half": 1.0,
            "bernoulli_quarter": 1.0,
            "cantor_natural": delta_cantor,
            "cantor_biased": delta_cantor,
            "markov_chain": 1.0,
        }
        for name, model in zoo_models().items():
            t1 = tau_scale_free(model, 1.0)
            assert abs(t1) <= 1e-10, f"{name}: tau(1) = {t1!r}"
            t0_ = tau_scale_free(model, 0.0)
            assert abs(t0_ - expected_delta[name]) <= 1e-9, (
                f"{name}: tau(0) = {t0_!r}, delta = {expected_delta[name]!r}"
            )

    _run(capsys, 1, "spectrum exactness", 1.0, body)


def test_criterion_02_closed_vs_numeric(capsys):
    def body():
        for name, model in zoo_models().items():
            dimension(model)  # raises NumericalError if the two routes split past 1e-8
        d = dimension(QUARTER)
        s2 = sigma2(QUARTER, LogBase.BASE_2)
        assert abs(d - 0.8112781) <= 1e-6, f"d = {d!r}"
        assert abs(s2 - 0.4710196) <= 1e-6, f"sigma2_base2 = {s2!r}"

    _run(capsys, 2, "closed-form vs numeric dimension", 1.0, body)


def test_criterion_03_exact_moments(capsys):
    def body():
        d_q = dimension(QUARTER)
        s2_q = sigma2(QUARTER, LogBase.BASE_2)
        cb = load_zoo_model("cantor_biased")
        d_cb = dimension(cb) * LN3  # natural units per symbol, every ratio is 1/3
        s2_cb = sigma2_scale_free(cb) * LN3
        for n in range(1, 17):
            m, v = exact_moments(QUARTER, n)
            assert abs(m - n * d_q) <= 1e-12, f"bits mean at n={n}: {m!r}"
            assert abs(v - n * s2_q) <= 1e-12, f"bits var at n={n}: {v!r}"
            m2, v2 = exact_moments(cb, n)
            assert abs(m2 - n * d_cb) <= 1e-12, f"nats mean at n={n}: {m2!r}"
            assert abs(v2 - n * s2_cb) <= 1e-12, f"nats var at n={n}: {v2!r}"

    _run(capsys, 3, "exact enumeration moments", 5.0, body)


def test_criterion_04_partition_bounds(capsys):
    def body():
        mk = load_zoo_model("markov_chain")
        qs, ns = [-1.0, 0.5, 2.0], [6, 10, 14]
        rep = partition_bound_check(mk, qs, ns)
        assert rep.C == pytest.approx(3.0, abs=1e-12)
        assert not rep.rejected, rep.reason
        assert all(cell.holds for cell in rep.cells)
        shifted = partition_bound_check(mk, qs, ns, tau_shift=0.01)
        assert shifted.rejected, "tau + 0.01 was not rejected"
        assert "drift" in shifted.reason
        assert max(cell.n for cell in shifted.cells) == 14
        return f", margin {rep.worst_margin:.3f}"

    _run(capsys, 4, "two-sided partition bound, C = 3", 30.0, body)


def test_criterion_05_clt_ks(capsys):
    def body():
        s = run_ensemble(QUARTER, N=100000, checkpoints=[10000], seed=5, threads=4)
        ks = s.ks_distance[-1]
        assert ks < 0.02, f"KS = {ks!r}"
        return f", KS {ks:.4f}"

    _run(capsys, 5, "normalized log-mass CLT", 60.0, body)


def test_criterion_06_lil_window_trend(capsys):
    def body():
        cks = [2 ** k for k in range(4, 21)]
        s = run_ensemble(
            QUARTER, N=200, checkpoints=cks, seed=6, window=(2 ** 4, 2 ** 20), threads=4
        )
        sup_max = float(np.max(s.path_window_sup))
        sigma_nat = lil_convention(QUARTER).sigma
        assert math.isfinite(sup_max)
        assert sup_max < sigma_nat + 1.5, f"window sup max {sup_max!r}"
        idx = {n: i for i, n in enumerate(s.checkpoints)}
        meds = [s.runsup_median[idx[2 ** 12]], s.runsup_median[idx[2 ** 16]],
                s.runsup_median[idx[2 ** 20]]]
        assert meds[0] <= meds[1] <= meds[2], f"medians {meds!r}"
        half = load_zoo_model("bernoulli_half")
        sh = run_ensemble(half, N=50, checkpoints=[2 ** 4, 2 ** 10, 2 ** 16],
                          seed=6, window=(2 ** 4, 2 ** 16), threads=2)
        assert all(v == 0.0 for v in sh.ratio_min + sh.ratio_max)
        assert np.all(np.asarray(sh.path_window_sup) == 0.0)
        assert np.all(np.asarray(sh.path_window_inf) == 0.0)
        return f", sup {sup_max:.3f} < {sigma_nat + 1.5:.3f}"

    _run(capsys, 6, "iterated-logarithm window trend", 120.0, body)


def test_criterion_07_gauge_dichotomy(capsys):
    def body():
        d = dimension(QUARTER)
        sig = lil_sigma(QUARTER, "base-2")
        th = theta_correction("base-2")
        cks = [2 ** 10, 2 ** 14, 2 ** 18]
        haus = GaugeSpec(family="lil_hausdorff", d=d, sigma=sig, epsilon=0.3,
                         epsilon_sign=1, theta=th)
        rh = gauge_test(QUARTER, haus, cks, N=10000, seed=7)
        fr = rh.fractions
        assert fr[0] <= fr[1] <= fr[2], f"hausdorff fractions {fr!r}"
        assert fr[2] >= 0.95, f"hausdorff final fraction {fr[2]!r}"
        pack = GaugeSpec(family="lil_packing", d=d, sigma=sig, epsilon=0.3,
                         epsilon_sign=1, theta=th)
        rp = gauge_test(QUARTER, pack, cks, N=10000, seed=7)
        assert rp.fractions[2] <= 0.05, f"packing final fraction {rp.fractions[2]!r}"
        return f", haus {fr[2]:.4f}, pack {rp.fractions[2]:.4f}"

    _run(capsys, 7, "corrected-gauge mass comparison", 120.0, body)


def test_criterion_08_running_max_tail(capsys):
    def body():
        tails = [float(running_max_tail(QUARTER, 16, 32, a)) for a in (2.0, 4.0, 6.0)]
        lp = [math.log(t) for t in tails]
        x = [4.0, 16.0, 36.0]
        slope1 = (lp[1] - lp[0]) / (x[1] - x[0])
        slope2 = (lp[2] - lp[1]) / (x[2] - x[1])
        assert slope2 >= slope1, f"not log-convex in a^2: {tails!r}"
        sigma_nat = math.sqrt(sigma2_scale_free(QUARTER))
        denom = 2.0 * 32 * (sigma_nat + 0.1) ** 2
        C = tails[0] * 2.0 ** (4.0 / denom)
        for a, t in zip((2.0, 4.0, 6.0), tails):
            bound = C * 2.0 ** (-a * a / denom)
            assert t <= bound + 1e-12, f"a={a}: tail {t!r} above bound {bound!r}"
        return f", tails {tails[0]:.4f}/{tails[1]:.4f}/{tails[2]:.4f}"

    _run(capsys, 8, "exact first-passage tails", 10.0, body)


def test_criterion_09_dichotomy_verdicts(capsys):
    def body():
        expect = {
            "cantor_natural": "equivalent_to_Hdelta",
            "bernoulli_half": "equivalent_to_Hdelta",
            "bernoulli_quarter": "singular_Hd_ac_Pd",
            "cantor_biased": "singular_Hd_ac_Pd",
            "markov_chain": "singular_Hd_ac_Pd",
        }
        for name, want in expect.items():
            res = dichotomy_classify(load_zoo_model(name))
            assert res.case == want, f"{name}: got {res.case!r}, want {want!r}"
            assert res.evidence, f"{name}: no evidence recorded"
            if want == "singular_Hd_ac_Pd":
                assert "witness_gauges" in res.evidence

    _run(capsys, 9, "absolute-continuity dichotomy", 10.0, body)


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_criterion_10_cli_reproducibility(capsys, tmp_path):
    def body():
        zoo = tmp_path / "zoo"
        assert cli_main(["zoo", "--out", str(zoo)]) == 0
        model = str(zoo / "bernoulli_quarter.json")

        runs = {}
        for tag, threads in (("r1", "1"), ("r2", "4"), ("r3", "1")):
            out = tmp_path / f"lil_{tag}"
            code = cli_main(["lil-sim", "--model", model, "--out", str(out),
                             "--N", "2000", "--checkpoints", "pow2:4:12",
                             "--seed", "11", "--threads", threads])
            assert code == 0
            runs[tag] = (_sha(out / "lilsim.csv"), _sha(out / "summary.json"))
        assert runs["r1"] == runs["r2"] == runs["r3"], f"lil-sim drifted: {runs!r}"

        gauges = {}
        for tag in ("g1", "g2"):
            out = tmp_path / f"gauge_{tag}"
            code = cli_main(["gauge-test", "--model", model, "--out", str(out),
                             "--family", "lil_hausdorff", "--epsilon", "0.3",
                             "--checkpoints", "64,1024", "--N", "500",
                             "--seed", "3"])
            assert code == 0
            gauges[tag] = (_sha(out / "gauge.csv"), _sha(out / "summary.json"))
        assert gauges["g1"] == gauges["g2"], f"gauge-test drifted: {gauges!r}"

        spectra = set()
        for tag in ("s1", "s2"):
            out = tmp_path / f"spec_{tag}"
            assert cli_main(["spectrum", "--model", model, "--out", str(out)]) == 0
            spectra.add((_sha(out / "spectrum.csv"), _sha(out / "summary.json")))
        assert len(spectra) == 1, "spectrum rerun drifted"

        qbs = set()
        for tag in ("q1", "q2"):
            out = tmp_path / f"qb_{tag}"
            assert cli_main(["qb-check", "--model", str(zoo / "markov_chain.json"),
                             "--out", str(out)]) == 0
            qbs.add(_sha(out / "qb.json"))
        assert len(qbs) == 1, "qb-check rerun drifted"

    _run(capsys, 10, "bit-identical CLI replays", 60.0, body)
