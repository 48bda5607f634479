"""Benchmark mflil's CLI study sessions.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an mflil checkout. One op is the workload's fixed list
of CLI commands, run in this process through mflil.cli.main. The first op's
outputs are checked against computations made apart from the program
(checks.py); every later op must reproduce them byte for byte. Ops then
repeat for S seconds, with the reference loop (reference.py) run before,
between and after the commands. op_s is the sum over the op's commands of
the median ratio of command time to the mean of the loop times on either
side, in units of REF_S: the host's speed drifts in phases of seconds, and
the ratio moves far less from run to run than any raw time (README.md has
the measurements).

With --trace 1, every other op runs with layer spans installed (tracing.py)
and the per-layer metrics are printed instead, with the tracing overhead
measured against the untraced ops of the same run.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 7  # fresh interpreters timed per run; setup_s is their median
SETUP_REF_PASSES = 3  # reference passes on each side of a set-up, which lasts over a second
MIN_OPS = 4  # timed ops per run, even when --seconds has run out

import checks  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("models.path_rng.calls", "count"), ("models.path_rng.s", "s"),
    ("lil.paths", "count"), ("lil.levels", "count"),
    ("lil.run_ensemble.s", "s"), ("lil.run_ensemble.self_s", "s"),
    ("lil.kstest.calls", "count"), ("lil.kstest.s", "s"),
    ("lil.lil_convention.calls", "count"),
    ("gauges.gauge_test.s", "s"), ("gauges.gauge_test.self_s", "s"),
    ("gauges.log_gauge_from_u.s", "s"),
    ("spectrum.tau_scale_free.calls", "count"), ("spectrum.dimension.calls", "count"),
    ("spectrum.sigma2_scale_free.calls", "count"),
    ("spectrum.perron_root.calls", "count"), ("spectrum.perron_root.s", "s"),
    ("spectrum.tau_implicit_selfsimilar.calls", "count"),
    ("spectrum.tau_implicit_selfsimilar.s", "s"),
    ("qb.qb_constant.s", "s"), ("qb.dichotomy_classify.s", "s"),
    ("report.build_oracles.s", "s"), ("report.verify_records.s", "s"),
    ("trace.op_s", "s"), ("trace.overhead_pct", "%"),
)

SETUP_CHILD = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
import mflil.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = mflil.cli.main(["zoo", "--out", {out!r}])
print("ready" if rc == 0 else "failed", flush=True)
"""


def measure_setup(model_dir: str) -> tuple[float, list[float], list[float]]:
    """Median time from starting a fresh interpreter to mflil.cli imported and models written.

    Each start is timed against the reference loop run just before and just
    after it, like the commands of an op.
    """
    code = SETUP_CHILD.format(src=SRC, out=model_dir)
    times, refs = [], [reference.loop_seconds(SETUP_REF_PASSES)]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait(timeout=120)
        if line != "ready" or rc != 0:
            raise RuntimeError(f"set-up child failed (exit {rc}, said {line!r})")
        times.append(elapsed)
        refs.append(reference.loop_seconds(SETUP_REF_PASSES))
    ratios = [t / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:])]
    return reference.REF_S * statistics.median(ratios), times, refs


def op_seconds(ops: list[dict]) -> float:
    """Sum over the op's commands of the median, over ops, of command time over loop time, in REF_S."""
    per_cmd = zip(*([t / ((a + b) / 2) for t, a, b in zip(op["cmd"], op["ref"], op["ref"][1:])]
                    for op in ops))
    return reference.REF_S * sum(statistics.median(col) for col in per_cmd)


class Session:
    def __init__(self, cli, workload, out_root: str):
        self.cli = cli
        self.workload = workload
        self.outdirs = [os.path.join(out_root, c.tag) for c in workload.commands]

    def run_op(self) -> tuple[dict, list[int]]:
        """Run every command once, with the reference loop before, between and after them."""
        times, refs, codes = [], [reference.loop_seconds()], []
        for cmd, outdir in zip(self.workload.commands, self.outdirs):
            argv = [*cmd.argv, "--out", outdir]
            t0 = time.perf_counter()
            rc = self.cli.main(argv)  # looked up per call, so a traced op runs the wrapper
            times.append(time.perf_counter() - t0)
            refs.append(reference.loop_seconds())
            codes.append(rc)
        return {"cmd": times, "ref": refs}, codes

    def digests(self) -> list[dict[str, str]]:
        return [checks.output_digests(d) for d in self.outdirs]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mflil", "cli.py")):
        print(f"bench: no mflil source at {SRC}; run from the root of an mflil checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: --seed must be >= 0", file=sys.stderr)
        return 2

    out_root = os.path.join(OUT, args.workload)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    model_dir = os.path.join(out_root, "models")
    sys.path.insert(0, SRC)
    import mflil.cli as cli  # first, so the timed interpreters find the bytecode cache filled

    setup_s, setup_times, setup_refs = measure_setup(model_dir)

    workload = WORKLOADS[args.workload](args.seed, model_dir)
    session = Session(cli, workload, out_root)
    log = checks.CheckLog()
    checks.check_model_files(log, model_dir)

    # the checked op: every output against its independent reference
    _, codes = session.run_op()
    for cmd, outdir, rc in zip(workload.commands, session.outdirs, codes):
        try:
            cmd.check(log, outdir, rc)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            log.check(f"{cmd.tag} outputs readable", False, repr(exc))
    expected = session.digests()
    if workload.thread_twin is not None:
        cmd = workload.commands[workload.thread_twin]
        argv = list(cmd.argv)
        argv[argv.index("--threads") + 1] = "1"
        twin_dir = os.path.join(out_root, cmd.tag + "_threads1")
        rc = cli.main([*argv, "--out", twin_dir])
        log.check(f"{cmd.tag} at --threads 1 matches --threads 2 byte for byte",
                  rc == 0 and checks.output_digests(twin_dir) == expected[workload.thread_twin])
    attempted, failed_ops = 1, int(any(codes) or log.failed > 0)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(plain) + len(traced) < MIN_OPS:
        use_trace = tracer is not None and (len(plain) + len(traced)) % 2 == 1
        gc.collect()
        if use_trace:
            tracer.install(len(traced))
        try:
            times, codes = session.run_op()
        finally:
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else plain).append(times)
        attempted += 1
        same = session.digests() == expected
        log.check(f"op {attempted} reproduces the checked outputs byte for byte", same)
        failed_ops += int(any(codes) or not same)

    with open(os.path.join(out_root, "times.json"), "w", encoding="utf-8") as fh:
        json.dump({"commands": [c.tag for c in workload.commands], "plain": plain,
                   "traced": traced, "setup": {"cmd": setup_times, "ref": setup_refs}}, fh)

    op_s = op_seconds(plain)
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "op_s": op_s,
            "work_per_s": workload.work_per_op / op_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        tracer.write(os.path.join(out_root, "spans.csv.gz"))
        values = tracer.medians()
        values["trace.op_s"] = op_seconds(traced)
        values["trace.overhead_pct"] = 100.0 * (op_seconds(traced) - op_s) / op_s
        units = dict(PER_LAYER)

    metrics = {}
    for name, unit in units.items():
        if tracer is not None and tracer.is_absent(name):
            metrics[name] = {"value": None, "unit": unit, "absent": True}
        else:
            metrics[name] = {"value": float(values[name]), "unit": unit}

    print(f"workload {workload.name}: {attempted} ops ({len(plain)} untraced, {len(traced)} traced), "
          f"work per op {workload.work_per_op} {workload.work_unit}")
    walls = sorted(sum(op["cmd"]) for op in plain)
    print(f"raw wall time per untraced op: fastest {walls[0]:.4f} s, median {statistics.median(walls):.4f} s; "
          f"raw set-up: median {statistics.median(setup_times):.4f} s")
    print(f"checks: attempted {log.attempted}, failed {log.failed}; "
          f"ops: attempted {attempted}, failed {failed_ops}")
    for f in log.failures[:20]:
        print(f"  FAILED {f}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']!s:>24} {m['unit']}")
    correct = log.failed == 0 and failed_ops == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed_ops,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
