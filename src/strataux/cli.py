"""Command-line interface.

Subcommands: moments, mse, pre, simulate, reproduce-kk2009. Every command
is a pure function of its inputs and flags: rerunning with the same inputs
produces byte-identical output (no timestamps, fixed float rendering).
Text mode renders numbers to 6 significant digits; csv and json carry full
precision. Exit codes: 0 success, 1 stdout closed early, 2 input error,
3 numerical error, 4 validation failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, astuple, fields
from typing import Optional, Sequence

from .data_model import (
    _POLICIES,
    InputError,
    Microdata,
    NumericalError,
    SampleDesign,
    ValidationError,
    decode_json,
    parse_microdata,
    parse_summary,
    reconcile_covariances,
    summarize,
)
from .efficiency import PreRow, pre_table, reproduce_kk2009
from .moments import MomentSet, moment_set
from .mse_theory import ESTIMATOR_ORDER, FAMILY, mse_row, optimal_m, tp_diagnostics

_FORMATS = ("text", "csv", "json")
_FORMULAS = "implemented (as-printed variants appear only under diagnostics)"


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _field_table(row_type, rows) -> tuple[list[str], list[tuple]]:
    """A table of dataclass rows: row_type's fields in order, as in asdict."""
    return [f.name for f in fields(row_type)], [astuple(r) for r in rows]


def _json_safe(obj):
    """obj with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _emit(args, body: dict, header: list[str], rows: list[list], footer: dict,
          before: Sequence[str] = (), after: Sequence[str] = (),
          csv_footer: Optional[dict] = None) -> int:
    """Print one command's result and return its exit code.

    json prints {"command", **body, "provenance": footer}, non-finite
    floats as null; csv prints the rows with full precision and then the
    footer (csv_footer when given) as comment lines, None as "-"; text
    prints the before lines, the rows as a table of 6 significant digits,
    the after lines and the footer.
    """
    if args.format == "json":
        doc = {"command": args.command, **body, "provenance": footer}
        print(json.dumps(_json_safe(doc), indent=2, allow_nan=False))
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(["" if c is None else c for c in row])
        for k, v in (csv_footer or footer).items():
            buf.write(f"# {k}: {'-' if v is None else v}\n")
        print(buf.getvalue(), end="")
    else:
        table = _table(header, [[c if isinstance(c, str) else _fmt(c) for c in r] for r in rows])
        print("\n".join([*before, table, *after, *(f"# {k}: {v}" for k, v in footer.items())]))
    return 0


def _read_input(path: str) -> tuple[str, bool]:
    """The text of an --input file, and whether it is a JSON document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from None
    return text, text.lstrip().startswith("{")


def _parse_design(text: str) -> SampleDesign:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError(
            f"bad --design {text!r}: expected comma-separated integers"
        ) from None
    return SampleDesign(n=values)


def _theory_input(args) -> tuple[MomentSet, dict]:
    """The --design MomentSet of --input (microdata csv or summary json)
    reconciled under --policy, and the footer naming both."""
    text, is_json = _read_input(args.input)
    summary = parse_summary(text) if is_json else summarize(parse_microdata(text))
    pop, report = reconcile_covariances(summary, args.policy)
    footer = {"policy": args.policy, "formulas": _FORMULAS,
              "repaired_pairs": len(report.repaired)}
    return moment_set(pop, _parse_design(args.design)), footer


def _cmd_moments(args) -> int:
    m, footer = _theory_input(args)
    names = ("v200", "v020", "v002", "v110", "v101", "v011",
             "ybar", "xbar", "zbar", "b1", "b2")
    rows = [[n, getattr(m, n)] for n in names] + [["census", m.census]]
    return _emit(args, {"moments": asdict(m)}, ["quantity", "value"], rows, footer,
                 after=[f"warning: {w}" for w in m.warnings])


def _cmd_mse(args) -> int:
    if (args.m1 is None) != (args.m2 is None):
        raise InputError("--m1 and --m2 must be given together")
    m, footer = _theory_input(args)
    # a census has no optimum (optimal_m raises), but every MSE there is exactly 0
    tunings = [] if m.census and args.m1 is not None else [optimal_m(m)]
    m1s, m2s = tunings[0] if tunings else (None, None)
    tunings += [(args.m1, args.m2)] if args.m1 is not None else []
    breakdowns = [mse_row(m, e) for e in FAMILY]
    breakdowns += [mse_row(m, "exp_regression", *t) for t in tunings]
    diag = tp_diagnostics(m, breakdowns[-1].m1, breakdowns[-1].m2)
    body = {
        "rows": [asdict(b) for b in breakdowns],
        "optimal": {"m1": m1s, "m2": m2s},
        "diagnostics": asdict(diag),
    }
    header = ["estimator", "mse", "m1", "m2", "bias", "warning"]
    rows = [[b.estimator, b.mse, b.m1, b.m2, b.bias, b.warning or ""] for b in breakdowns]
    after = [
        f"optimal tuning: m1* = {_fmt(m1s)}, m2* = {_fmt(m2s)}",
        "diagnostics (implemented vs as-printed):",
        f"  at m1 = {_fmt(diag.m1)}, m2 = {_fmt(diag.m2)}",
        f"  mse implemented {_fmt(diag.implemented_mse)}  as-printed {_fmt(diag.printed_mse)}",
        f"  p1 implemented {_fmt(diag.p1)}  as-printed {_fmt(diag.printed_p1)}",
        f"  p2 implemented {_fmt(diag.p2)}  as-printed {_fmt(diag.printed_p2)}",
        f"  p3 implemented {_fmt(diag.p3)}  as-printed {_fmt(diag.printed_p3)}",
        f"  optimum solved ({_fmt(diag.solved_m1)}, {_fmt(diag.solved_m2)})"
        f"  as-printed closed form ({_fmt(diag.printed_m1)}, {_fmt(diag.printed_m2)})",
    ]
    return _emit(args, body, header, rows, footer, after=after,
                 csv_footer=dict(footer, m1_opt=m1s, m2_opt=m2s))


def _cmd_pre(args) -> int:
    m, footer = _theory_input(args)
    report = pre_table(m)
    footer.update(m1_opt=_fmt(report.m1_opt), m2_opt=_fmt(report.m2_opt))
    return _emit(args, asdict(report), *_field_table(PreRow, report.rows), footer)


def _load_simulation_population(path: str) -> tuple[Microdata, tuple[str, ...]]:
    from .monte_carlo import generate_population, generator_config
    text, is_json = _read_input(path)
    if not is_json:
        return parse_microdata(text), ()
    doc = decode_json(text, "generator config")
    strata = doc.get("strata")
    if not (isinstance(strata, list) and strata and isinstance(strata[0], dict)
            and "mean_y" in strata[0]):
        raise InputError(
            "simulate needs microdata (csv) or a generator config (json with "
            "mean/sd/rho targets); a summary document cannot be sampled from"
        )
    cfg = generator_config(doc)
    micro, _ = generate_population(cfg)
    return micro, (f"population generated from config, seed {cfg.seed}",)


def _cmd_simulate(args) -> int:
    import numpy as np  # imported here, so the theory commands start without numpy
    from .monte_carlo import SimRow, run_simulation
    micro, notes = _load_simulation_population(args.input)
    design = _parse_design(args.design)
    estimators = None
    if args.estimators:
        estimators = tuple(e.strip() for e in args.estimators.split(","))
    report = run_simulation(
        micro, design, R=args.R, master_seed=args.seed,
        estimators=estimators, m1=args.m1, m2=args.m2, workers=args.workers,
    )
    footer = {
        "numpy": np.__version__, "formulas": _FORMULAS, "seed": report.seed,
        "R": report.R, "generator": report.generator, "fingerprint": report.fingerprint,
    }
    after = [f"true mean: {_fmt(report.ybar)}  design: {','.join(map(str, report.design))}"]
    after += [f"note: {note}" for note in report.notes]
    return _emit(args, {"report": asdict(report), "pre_notes": list(notes)},
                 *_field_table(SimRow, report.rows), footer,
                 before=[f"note: {note}" for note in notes], after=after)


def _cmd_reproduce(args) -> int:
    report = reproduce_kk2009()
    footer = {
        "policy": "prefer-correlation (headline) and prefer-covariance (side column)",
        "formulas": _FORMULAS,
    }
    body = {
        "rows": [asdict(r) for r in report.rows],
        "repairs_correlation": [asdict(e) for e in report.repairs_correlation.repaired],
        "repairs_covariance": [asdict(e) for e in report.repairs_covariance.repaired],
        "published_ranking": list(report.published_ranking),
        "computed_ranking": list(report.computed_ranking),
        "m1_opt": report.m1_opt, "m2_opt": report.m2_opt,
        "notes": list(report.notes),
    }
    header = ["estimator", "published", "computed", "delta", "pub_rank",
              "rank", "flag", "pre_covariance", "note"]
    rows = [
        [r.estimator, r.published_pre, r.pre, r.delta, r.published_rank,
         r.rank, "RANK-MISMATCH" if r.rank_mismatch else "",
         r.pre_covariance, r.covariance_note]
        for r in report.rows
    ]
    after = [
        f"tuned optimum: m1* = {_fmt(report.m1_opt)}, m2* = {_fmt(report.m2_opt)}",
        "published ranking: " + " > ".join(report.published_ranking),
        "computed ranking:  " + " > ".join(report.computed_ranking),
    ]
    for title, rep in (
        ("prefer-correlation", report.repairs_correlation),
        ("prefer-covariance", report.repairs_covariance),
    ):
        entries = rep.repaired + tuple(e for e in rep.flagged if not e.repaired)
        after.append(f"repair log ({title}): {len(entries)} entr{'y' if len(entries) == 1 else 'ies'}")
        for e in entries:
            what = (
                f"cov {_fmt(e.cov_before)} -> {_fmt(e.cov_after)}"
                if e.cov_before != e.cov_after
                else f"rho {_fmt(e.rho_before)} -> {_fmt(e.rho_after)}"
            )
            tail = f" ({e.note})" if e.note else ""
            after.append(f"  stratum {e.h} {e.pair}: {what}, discrepancy {_fmt(e.discrepancy)}{tail}")
    after += [f"note: {note}" for note in report.notes]
    return _emit(args, body, header, rows, footer,
                 before=["PRE reproduction, embedded six-stratum dataset"], after=after)


def _add_command(sub, name: str, help: str, func, inputs: bool = True,
                 policy: bool = True) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    if inputs:
        p.add_argument("--input", required=True, help="microdata csv or summary json")
        p.add_argument("--design", required=True,
                       help="per-stratum sample sizes, e.g. 31,21,29,38,22,39")
    if policy:
        p.add_argument("--policy", choices=_POLICIES, default="prefer-correlation")
    p.add_argument("--format", choices=_FORMATS, default="text")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strataux",
        description="Stratified-sampling mean estimation with two auxiliary variables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "moments", "aggregated relative moments and slopes", _cmd_moments)

    p = _add_command(sub, "mse", "first-order MSE table, optimum and diagnostics", _cmd_mse)
    p.add_argument("--m1", type=float, default=None)
    p.add_argument("--m2", type=float, default=None)

    _add_command(sub, "pre", "percent relative efficiency table", _cmd_pre)

    # simulate never reconciles, so it has no policy to choose
    p = _add_command(sub, "simulate", "SRSWOR Monte Carlo validation", _cmd_simulate,
                     policy=False)
    p.add_argument("--R", type=int, default=1000, help="replication count")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--m1", type=float, default=1.0, help="fixed tuning for exp_regression")
    p.add_argument("--m2", type=float, default=1.0)
    p.add_argument("--workers", type=int, default=1,
                   help="threads that run the replicate blocks, at most one per "
                        "usable CPU (default 1); results do not depend on it")
    p.add_argument("--estimators", default="",
                   help="comma list, default all: " + ",".join(ESTIMATOR_ORDER))

    _add_command(sub, "reproduce-kk2009", "reproduce the embedded dataset's efficiency table",
                 _cmd_reproduce, inputs=False, policy=False)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # reader gone (`| head`): Python's recipe, stdout to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except ValidationError as e:
        print(f"validation failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
