"""Command-line entry point.

Every subcommand reads a model file, runs one module, and hands its outputs
to one writer, `_emit`. The writer creates --out and writes plain-text
artifacts into it: CSV tables with 17-significant-digit scientific floats,
a JSON summary holding the result dataclass's fields (one level deep) plus
the aggregates the command adds, and a manifest recording the tool version,
the full option set, the model-file digest, the master seed (null for a
command that takes no --seed), the RNG stream identifier and the SHA-256 of
every output. A run refused before its outputs exist writes nothing, not
even --out. Re-running the same command over the same model reproduces the
output files byte for byte, for any lil-sim --threads value; only the
manifest's timestamp differs.

gauge-test hands all of its gauge options to gauges.gauge_spec; the gauge
module's table of families decides which of them a family reads, and
--family takes its choices from that table.

Exit codes: 0 success; 2 validation (bad flags, malformed or unreadable
model files, domain violations, an --out that cannot be written); 3
numerical failure (a cross-check disagreed); 4 budget exceeded. Budgets can be widened via MFLIL_ENUM_BUDGET and MFLIL_PATH_BUDGET.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .errors import BudgetError, NumericalError, ValidationError
from .gauges import _FAMILIES as _GAUGE_FAMILIES, gauge_spec, gauge_test
from .lil import _WALK_BITS, RNG_STREAM, run_ensemble
from .models import LogBase, MeasureModel, parse_model_file
from .qb import dichotomy_classify, qb_constant
from .spectrum import spectrum_table
from .zoo import ZOO_NAMES, zoo_text


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, np.integer)):
        return obj.item()
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, (int, np.integer)) and not isinstance(cell, bool):
                    cells.append(str(int(cell)))
                else:
                    cells.append(_fmt(cell))
            fh.write(",".join(cells) + "\n")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:  # outputs and model files are small: one read
        return hashlib.sha256(fh.read()).hexdigest()


def _fields(result, *drop) -> dict:
    """A result dataclass's fields less those named in drop, read one level
    deep (asdict would deep-copy every table)."""
    return {f.name: getattr(result, f.name) for f in fields(result) if f.name not in drop}


def _emit(args, command: str, outputs: dict) -> list[str]:
    """Create --out, write each named output into it, then the manifest.

    A (header, rows) tuple is written as CSV, a str verbatim, and anything
    else as JSON. The manifest reads the options (less the subcommand and
    its handler, which no user sets), the model file and the seed from args.
    Returns the output paths in order.
    """
    os.makedirs(args.out, exist_ok=True)
    paths = [os.path.join(args.out, name) for name in outputs]
    for path, content in zip(paths, outputs.values()):
        if isinstance(content, tuple):
            _write_csv(path, *content)
        elif isinstance(content, str):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
        else:
            _write_json(path, content)
    model = getattr(args, "model", None)
    _write_json(os.path.join(args.out, "manifest.json"), {
        "tool": "mflil",
        "version": __version__,
        "command": command,
        "options": {k: v for k, v in vars(args).items() if k not in ("command", "func")},
        "model_digest": _digest(model) if model else None,
        "master_seed": getattr(args, "seed", None),
        "rng_stream": RNG_STREAM,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": {name: _digest(path) for name, path in zip(outputs, paths)},
    })
    return paths


def _parse_checkpoints(text: str) -> list[int]:
    if text.startswith("pow2:"):
        try:
            _, lo, hi = text.split(":")
            lo_i, hi_i = int(lo), int(hi)
        except ValueError as exc:
            raise ValidationError(
                f"bad checkpoint range {text!r}; expected pow2:LO:HI"
            ) from exc
        if not 0 <= lo_i <= hi_i:
            raise ValidationError(f"bad checkpoint range {text!r}")
        if hi_i >= _WALK_BITS:
            raise ValidationError(
                f"bad checkpoint range {text!r}: checkpoint levels must lie below 2^{_WALK_BITS}"
            )
        return [2 ** k for k in range(lo_i, hi_i + 1)]
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ValidationError(
            f"bad checkpoint list {text!r}; expected comma-separated levels or pow2:LO:HI"
        ) from exc


def _model(args) -> MeasureModel:
    if not args.model:
        raise ValidationError("--model FILE is required")
    return parse_model_file(args.model)


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args) -> None:
    model = _model(args)
    base = None if args.base == "auto" else LogBase.parse(args.base)
    table = spectrum_table(
        model,
        q_min=args.q_min,
        q_max=args.q_max,
        q_step=args.q_step,
        base=base,
        empirical_n=args.empirical_n,
    )
    summary = _fields(table, "q", "tau") | {
        "base": table.base.value,
        "q_min": args.q_min,
        "q_max": args.q_max,
        "q_step": args.q_step,
        "rows": len(table.q),
    }
    _emit(args, "spectrum", {
        "spectrum.csv": (["q", "tau"], zip(table.q, table.tau)),
        "summary.json": summary,
    })


def cmd_lil_sim(args) -> None:
    model = _model(args)
    checkpoints = _parse_checkpoints(args.checkpoints)
    window = None
    if args.window:
        try:
            lo, hi = args.window.split(":")
            window = (int(lo), int(hi))
        except ValueError as exc:
            raise ValidationError(f"bad window {args.window!r}; expected LO:HI") from exc
    summary = run_ensemble(
        model,
        N=args.N,
        checkpoints=checkpoints,
        seed=args.seed,
        convention=args.convention,
        window=window,
        threads=args.threads,
    )
    doc = _fields(summary, "path_window_sup", "path_window_inf") | {
        "ks_final": summary.ks_distance[-1],
        "window_sup_max": float(np.max(summary.path_window_sup)),
        "window_inf_min": float(np.min(summary.path_window_inf)),
    }
    rows = zip(summary.checkpoints, summary.ratio_mean, summary.ratio_min,
               summary.ratio_max, summary.ks_distance, summary.runsup_median)
    _emit(args, "lil-sim", {
        "lilsim.csv": (
            ["n", "mean_ratio", "min_ratio", "max_ratio", "ks_distance", "runsup_median"],
            rows,
        ),
        "summary.json": doc,
    })


def cmd_gauge_test(args) -> None:
    model = _model(args)
    spec = gauge_spec(model, args.family, epsilon=args.epsilon, epsilon_sign=args.epsilon_sign,
                      a=args.a, q_max=args.q_max, theta_convention=args.theta_convention)
    checkpoints = _parse_checkpoints(args.checkpoints)
    result = gauge_test(model, spec, checkpoints, N=args.N, seed=args.seed)
    _emit(args, "gauge-test", {
        "gauge.csv": (
            ["n", "fraction", "hit_ever_fraction"],
            zip(result.checkpoints, result.fractions, result.hit_by),
        ),
        "summary.json": _fields(result, "family") | {"spec": spec.describe()},
    })


def cmd_qb_check(args) -> None:
    model = _model(args)
    report = qb_constant(model, max_level=args.max_level, seed=args.seed)
    verdict = dichotomy_classify(model)
    _emit(args, "qb-check", {"qb.json": _fields(report) | _fields(verdict)})


def cmd_oracles(args) -> None:
    # the one subcommand that needs mpmath, so the others start without it
    from .report import build_oracles, verify_records

    records = build_oracles()
    checks = verify_records(records)
    _emit(args, "oracles", {
        "oracles.json": {
            "version": 1,
            "records": [_fields(r) for r in sorted(records, key=lambda r: r.quantity)],
        },
        "oracle_checks.json": [_fields(c) for c in checks],
    })
    bad = [c.quantity for c in checks if not c.ok]
    if bad:
        raise NumericalError("oracle cross-checks failed: " + ", ".join(bad))


def cmd_zoo(args) -> None:
    names = [args.name] if args.name else list(ZOO_NAMES)
    for path in _emit(args, "zoo", {f"{name}.json": zoo_text(name) for name in names}):
        print(path)


# ---------------------------------------------------------------------------
# parser


def _add_common(sp, seed=False):
    """--model and --out, plus --seed where the subcommand reads it."""
    sp.add_argument("--model", default=None, metavar="FILE", help="model file (JSON)")
    sp.add_argument("--out", required=True, metavar="DIR", help="output directory")
    if seed:
        sp.add_argument("--seed", type=int, default=0, help="master seed (default 0)")


_UNITS = ["auto", *(b.value for b in LogBase)]  # the --base and convention choices


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mflil",
        description="Multifractal measure laboratory: spectra, log-mass "
                    "fluctuation ensembles, corrected gauges, and "
                    "quasi-Bernoulli diagnostics.",
        epilog="Budgets: MFLIL_ENUM_BUDGET caps cylinder enumerations, spectrum "
               "q-grid rows, the chain matrix-power steps of --empirical-n past "
               "2^14 words, and the running-max tail's classes (default 2^24); the "
               "exact laws of S_n have a fixed cap of 2^20 classes; MFLIL_PATH_BUDGET "
               "caps N*n_max in ensembles (default 2^33).",
    )
    ap.add_argument("--version", action="version", version=f"mflil {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="tabulate tau(q) and the derived constants")
    _add_common(sp)
    sp.add_argument("--q-min", type=float, default=-2.0)
    sp.add_argument("--q-max", type=float, default=3.0)
    sp.add_argument("--q-step", type=float, default=0.05)
    sp.add_argument("--base", default="auto", choices=_UNITS)
    sp.add_argument("--empirical-n", type=int, default=None,
                    help="tabulate the finite-level exponent at this level instead")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("lil-sim", help="Monte Carlo ensemble of normalized log-mass ratios")
    _add_common(sp, seed=True)
    sp.add_argument("--threads", type=int, default=1,
                    help="worker threads for the --window walk of product models, "
                         "split over contiguous ranges of paths and capped at the "
                         "CPU count; other walks run in one thread, and results "
                         "are identical for every value (default 1)")
    sp.add_argument("--N", type=int, required=True, help="number of paths")
    sp.add_argument("--checkpoints", required=True,
                    help="comma-separated levels, or pow2:LO:HI")
    sp.add_argument("--convention", default="auto", choices=_UNITS)
    sp.add_argument("--window", default=None, help="ratio window LO:HI (levels)")
    sp.set_defaults(func=cmd_lil_sim)

    sp = sub.add_parser("gauge-test", help="mass-vs-gauge fractions over sampled paths")
    _add_common(sp, seed=True)
    sp.add_argument("--family", required=True, choices=list(_GAUGE_FAMILIES))
    sp.add_argument("--epsilon", type=float, default=0.3)
    sp.add_argument("--epsilon-sign", type=int, default=1, choices=[1, -1])
    sp.add_argument("--a", type=float, default=0.5)
    sp.add_argument("--q-max", type=float, default=1.0,
                    help="chi-profile range for the theta family")
    sp.add_argument("--theta-convention", default="auto", choices=_UNITS,
                    help="units of the lil families' Theta; base-ell needs a grid model (auto: "
                         "natural on self-similar models, base-2 on binary grids, else base-ell)")
    sp.add_argument("--checkpoints", required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.set_defaults(func=cmd_gauge_test)

    sp = sub.add_parser("qb-check", help="concatenation constant and dichotomy verdict")
    _add_common(sp, seed=True)
    sp.add_argument("--max-level", type=int, default=8)
    sp.set_defaults(func=cmd_qb_check)

    sp = sub.add_parser("oracles", help=argparse.SUPPRESS)
    sp.add_argument("--out", required=True, metavar="DIR", help="output directory")
    sp.set_defaults(func=cmd_oracles)

    sp = sub.add_parser("zoo", help="export the bundled model files")
    sp.add_argument("--out", required=True, metavar="DIR")
    sp.add_argument("--name", default=None, choices=list(ZOO_NAMES),
                    help="export one model instead of all five")
    sp.set_defaults(func=cmd_zoo)

    return ap


# one parser per process: building it costs about as much as a small command
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except (ValidationError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
