"""The four study sessions: one op is a fixed list of mflil CLI commands.

The benchmark seed picks every command's --seed; nothing else in an op
depends on it, so all ops of a run are the same commands and every run does
the same work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import checks
from checks import CheckLog, TwoSymbolLaw

SPECTRUM_Q = ("-2", "3", "0.01")  # q-min, q-max, q-step of every spectrum command
SPECTRUM_GRID = tuple(round(-2 + i * 0.01, 12) for i in range(501))
# --epsilon 0.3 --epsilon-sign -1: gauge exponents sigma - 0.3, where the hit
# probabilities (about 0.86 and 0.14) sit far from 0 and 1, so that the
# binomial bands on the fractions have power
GAUGE_EPSILON = 0.3


@dataclass(frozen=True)
class Command:
    tag: str
    argv: tuple[str, ...]  # mflil arguments; --out is appended per command
    work: int  # this command's share of the workload's work unit
    check: Callable[[CheckLog, str, int], None]  # (log, outdir, exit code)


@dataclass
class Workload:
    name: str
    work_unit: str
    commands: list[Command]
    # index of the --threads 2 command, re-run once per run at --threads 1
    thread_twin: Optional[int] = None
    work_per_op: int = field(init=False)

    def __post_init__(self):
        self.work_per_op = sum(c.work for c in self.commands)


def _model(model_dir: str, name: str) -> str:
    return os.path.join(model_dir, f"{name}.json")


def _pow2_max(spec: str) -> int:
    """Deepest level of a pow2:LO:HI checkpoint list."""
    return 2 ** int(spec.split(":")[2])


def _lil(tag, model_dir, model, N, cks, seed, threads=1, window=None, work=None, check=None):
    argv = ["lil-sim", "--model", _model(model_dir, model), "--N", str(N),
            "--checkpoints", cks, "--seed", str(seed), "--threads", str(threads)]
    if window:
        argv += ["--window", window]
    return Command(tag, tuple(argv), N if work is None else work, check)


def _expect_ok(check):
    def run(log: CheckLog, outdir: str, rc: int) -> None:
        if log.check(f"{os.path.basename(outdir)} exits 0", rc == 0, f"exit {rc}"):
            check(log, outdir)
            checks.check_manifest(log, os.path.basename(outdir), outdir)
    return run


def _ckpt_check(model, N):
    law = TwoSymbolLaw.for_model(model)
    return _expect_ok(lambda log, d: checks.check_lil_sim(log, os.path.basename(d), d, law, N))


def _window_check(model, N):
    law = TwoSymbolLaw.for_model(model)

    def check(log, d):
        checks.check_lil_sim(log, os.path.basename(d), d, law, N)
        checks.check_window(log, os.path.basename(d), d)
    return _expect_ok(check)


def _gauge_check(model, family, N):
    return _expect_ok(lambda log, d: checks.check_gauge_bernoulli(
        log, os.path.basename(d), d, model, family, -GAUGE_EPSILON, N))


def ckpt_many(seed: int, model_dir: str) -> Workload:
    s = 100 * seed
    cmds = [
        _lil("bq_threads2", model_dir, "bernoulli_quarter", 2000, "pow2:4:12", s + 1, threads=2,
             check=_ckpt_check("bernoulli_quarter", 2000)),
        _lil("bq_deep", model_dir, "bernoulli_quarter", 2000, "pow2:4:16", s + 2,
             check=_ckpt_check("bernoulli_quarter", 2000)),
    ]
    for k, family in enumerate(("lil_hausdorff", "lil_packing")):
        argv = ("gauge-test", "--model", _model(model_dir, "bernoulli_quarter"), "--family", family,
                "--epsilon", str(GAUGE_EPSILON), "--epsilon-sign", "-1",
                "--checkpoints", "1024,16384,262144",
                "--N", "2000", "--seed", str(s + 3 + k))
        cmds.append(Command(f"gauge_{family}", argv, 2000, _gauge_check("bernoulli_quarter", family, 2000)))
    cmds.append(_lil("cb", model_dir, "cantor_biased", 1500, "pow2:4:12", s + 5,
                     check=_ckpt_check("cantor_biased", 1500)))
    return Workload("ckpt_many", "paths", cmds, thread_twin=0)


def window_long(seed: int, model_dir: str) -> Workload:
    s = 100 * seed
    cmds = []
    for k, (model, N, cks, window) in enumerate((
        ("bernoulli_quarter", 2, "pow2:4:20", "16:1048576"),
        ("cantor_biased", 2, "pow2:4:20", "16:1048576"),
        ("bernoulli_quarter", 16, "pow2:4:16", "64:65536"),
    )):
        cmds.append(_lil(f"{model}_w{k}", model_dir, model, N, cks, s + 1 + k, window=window,
                         work=N * _pow2_max(cks), check=_window_check(model, N)))
    return Workload("window_long", "path-levels", cmds)


def _markov_check(N, window=False):
    def check(log, d):
        checks.check_markov_mean(log, os.path.basename(d), d, N)
        if window:
            checks.check_window(log, os.path.basename(d), d)
    return _expect_ok(check)


def _markov_gauge_check(N):
    def check(log, d):
        tag = os.path.basename(d)
        doc = checks.read_json(os.path.join(d, "summary.json"))
        _, rows = checks.read_csv(os.path.join(d, "gauge.csv"))
        checks.check_csv_matches(log, tag, rows, [("n", doc["checkpoints"]), ("fraction", doc["fractions"]),
                                                  ("hit_ever", doc["hit_by"])])
        checks.check_hit_by(log, tag, doc, N)
    return _expect_ok(check)


def markov_chain(seed: int, model_dir: str) -> Workload:
    s = 100 * seed
    model = _model(model_dir, "markov_chain")
    cmds = [
        _lil(f"mc_ckpt{k}", model_dir, "markov_chain", 75, "pow2:4:9", s + 1 + k, work=75 * 512,
             check=_markov_check(75))
        for k in range(2)
    ]
    cmds += [
        _lil("mc_window", model_dir, "markov_chain", 16, "pow2:4:10", s + 3, window="16:1024",
             work=16 * 1024, check=_markov_check(16, window=True)),
        Command("mc_gauge_theta", ("gauge-test", "--model", model, "--family", "theta",
                                   "--checkpoints", "16,64,256", "--N", "60", "--seed", str(s + 4)),
                60 * 256, _markov_gauge_check(60)),
    ]
    return Workload("markov_chain", "chain steps", cmds)


def spectra_cli(seed: int, model_dir: str) -> Workload:
    s = 100 * seed
    q_min, q_max, q_step = SPECTRUM_Q
    cmds = []
    for name in checks.MODEL_NAMES:
        cmds.append(Command(
            f"spectrum_{name}",
            ("spectrum", "--model", _model(model_dir, name), "--q-min", q_min, "--q-max", q_max,
             "--q-step", q_step),
            len(SPECTRUM_GRID),
            _expect_ok(lambda log, d, name=name: checks.check_spectrum(
                log, os.path.basename(d), d, name, SPECTRUM_GRID))))
    for k, name in enumerate(checks.MODEL_NAMES):
        cmds.append(Command(
            f"qb_{name}", ("qb-check", "--model", _model(model_dir, name), "--seed", str(s + k)), 0,
            _expect_ok(lambda log, d, name=name: checks.check_qb(log, os.path.basename(d), d, name))))

    def oracles(log, d, rc):
        checks.check_oracles(log, os.path.basename(d), d, rc)
        if rc == 0:
            checks.check_manifest(log, os.path.basename(d), d)
    cmds.append(Command("oracles", ("oracles",), 0, oracles))
    return Workload("spectra_cli", "spectrum rows", cmds)


WORKLOADS = {
    "ckpt_many": ckpt_many,
    "window_long": window_long,
    "markov_chain": markov_chain,
    "spectra_cli": spectra_cli,
}
