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
from dataclasses import asdict
from typing import Optional, Sequence

import numpy as np

from .data_model import (
    InputError,
    Microdata,
    NumericalError,
    PopulationSummary,
    SampleDesign,
    ValidationError,
    decode_json,
    parse_microdata,
    parse_summary,
    reconcile_covariances,
    summarize,
)
from .efficiency import pre_table, reproduce_kk2009
from .estimators import ESTIMATOR_ORDER
from .moments import moment_set
from .monte_carlo import (
    generate_population,
    generator_config,
    run_simulation,
)
from .mse_theory import classic_breakdown, mse_tp, optimal_m, tp_diagnostics

_FORMATS = ("text", "csv", "json")
_POLICIES = ("prefer-correlation", "prefer-covariance", "strict")
_FORMULAS = "implemented (as-printed variants appear only under diagnostics)"


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return str(v)
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


def _json_safe(obj):
    """obj with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _emit(fmt: str, doc: dict, header: list[str], rows: list[list], footer: dict,
          before: Sequence[str] = (), after: Sequence[str] = (),
          csv_footer: Optional[dict] = None) -> int:
    """Print one command's result and return its exit code.

    json prints doc, non-finite floats as null; csv prints the rows with
    full precision and then the footer (csv_footer when given) as comment
    lines; text prints the before lines, the rows as a table of 6
    significant digits, the after lines and the footer.
    """
    if fmt == "json":
        print(json.dumps(_json_safe(doc), indent=2, allow_nan=False))
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(["" if c is None else c for c in row])
        for k, v in (csv_footer or footer).items():
            buf.write(f"# {k}: {v}\n")
        print(buf.getvalue(), end="")
    else:
        table = _table(header, [[c if isinstance(c, str) else _fmt(c) for c in r] for r in rows])
        print("\n".join([*before, table, *after, *(f"# {k}: {v}" for k, v in footer.items())]))
    return 0


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from None


def _parse_design(text: str) -> SampleDesign:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError(
            f"bad --design {text!r}: expected comma-separated integers"
        ) from None
    return SampleDesign(n=values)


def _load_summary(path: str, policy: str) -> tuple[PopulationSummary, int]:
    """Read microdata csv or summary json, reconcile, return repair count."""
    text = _read_file(path)
    if text.lstrip().startswith("{"):
        summary = parse_summary(text)
    else:
        summary = summarize(parse_microdata(text))
    reconciled, report = reconcile_covariances(summary, policy)
    return reconciled, len(report.repaired)


def _provenance(lead: dict, extra: dict) -> dict:
    """A footer: lead's entries, the formulas line, then extra's."""
    return {**lead, "formulas": _FORMULAS, **extra}


def _cmd_moments(args) -> int:
    pop, repaired = _load_summary(args.input, args.policy)
    m = moment_set(pop, _parse_design(args.design))
    footer = _provenance({"policy": args.policy}, {"repaired_pairs": repaired})
    names = ("v200", "v020", "v002", "v110", "v101", "v011",
             "ybar", "xbar", "zbar", "b1", "b2")
    rows = [[n, getattr(m, n)] for n in names] + [["census", m.census]]
    doc = {"command": "moments", "moments": asdict(m), "provenance": footer}
    return _emit(args.format, doc, ["quantity", "value"], rows, footer,
                 after=[f"warning: {w}" for w in m.warnings])


def _cmd_mse(args) -> int:
    pop, repaired = _load_summary(args.input, args.policy)
    m = moment_set(pop, _parse_design(args.design))
    m1s, m2s = optimal_m(m)
    breakdowns = [
        mse_tp(m, m1s, m2s) if e == "exp_regression" else classic_breakdown(e, m)
        for e in ESTIMATOR_ORDER
    ]
    if args.m1 is not None or args.m2 is not None:
        if args.m1 is None or args.m2 is None:
            raise InputError("--m1 and --m2 must be given together")
        breakdowns.append(mse_tp(m, args.m1, args.m2))
    diag = tp_diagnostics(
        m,
        args.m1 if args.m1 is not None else m1s,
        args.m2 if args.m2 is not None else m2s,
    )
    footer = _provenance({"policy": args.policy}, {"repaired_pairs": repaired})
    doc = {
        "command": "mse",
        "rows": [asdict(b) for b in breakdowns],
        "optimal": {"m1": m1s, "m2": m2s},
        "diagnostics": asdict(diag),
        "provenance": footer,
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
    return _emit(args.format, doc, header, rows, footer, after=after,
                 csv_footer=dict(footer, m1_opt=m1s, m2_opt=m2s))


def _cmd_pre(args) -> int:
    pop, repaired = _load_summary(args.input, args.policy)
    m = moment_set(pop, _parse_design(args.design))
    report = pre_table(m)
    footer = _provenance({"policy": args.policy}, {
        "repaired_pairs": repaired,
        "m1_opt": _fmt(report.m1_opt),
        "m2_opt": _fmt(report.m2_opt),
    })
    doc = {"command": "pre", **asdict(report), "provenance": footer}
    header = ["estimator", "mse", "pre", "rank", "delta_vs_tuned", "warning"]
    rows = [
        [r.estimator, r.mse, r.pre, r.rank, r.delta_vs_tuned, r.warning]
        for r in report.rows
    ]
    return _emit(args.format, doc, header, rows, footer)


def _load_simulation_population(path: str) -> tuple[Microdata, tuple[str, ...]]:
    text = _read_file(path)
    if not text.lstrip().startswith("{"):
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
    micro, notes = _load_simulation_population(args.input)
    design = _parse_design(args.design)
    estimators = None
    if args.estimators:
        estimators = tuple(e.strip() for e in args.estimators.split(","))
    report = run_simulation(
        micro, design, R=args.R, master_seed=args.seed,
        estimators=estimators, m1=args.m1 if args.m1 is not None else 1.0,
        m2=args.m2 if args.m2 is not None else 1.0, workers=args.workers,
    )
    footer = _provenance({"numpy": np.__version__}, {
        "seed": report.seed, "R": report.R, "generator": report.generator,
        "fingerprint": report.fingerprint,
    })
    doc = {
        "command": "simulate",
        "report": asdict(report),
        "pre_notes": list(notes),
        "provenance": footer,
    }
    header = ["estimator", "m1", "m2", "emp_mean", "emp_bias", "emp_mse",
              "theory_mse", "rel_gap", "nonfinite"]
    rows = [
        [r.estimator, r.m1, r.m2, r.emp_mean, r.emp_bias, r.emp_mse,
         r.theory_mse, r.rel_gap, r.nonfinite]
        for r in report.rows
    ]
    after = [f"true mean: {_fmt(report.ybar)}  design: {','.join(map(str, report.design))}"]
    after += [f"note: {note}" for note in report.notes]
    return _emit(args.format, doc, header, rows, footer,
                 before=[f"note: {note}" for note in notes], after=after)


def _cmd_reproduce(args) -> int:
    report = reproduce_kk2009()
    footer = {
        "policy": "prefer-correlation (headline) and prefer-covariance (side column)",
        "formulas": _FORMULAS,
    }
    doc = {
        "command": "reproduce-kk2009",
        "rows": [asdict(r) for r in report.rows],
        "repairs_correlation": [asdict(e) for e in report.repairs_correlation.repaired],
        "repairs_covariance": [asdict(e) for e in report.repairs_covariance.repaired],
        "published_ranking": list(report.published_ranking),
        "computed_ranking": list(report.computed_ranking),
        "m1_opt": report.m1_opt, "m2_opt": report.m2_opt,
        "notes": list(report.notes),
        "provenance": footer,
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
    return _emit(args.format, doc, header, rows, footer,
                 before=["PRE reproduction, embedded six-stratum dataset"], after=after)


def _add_common(p: argparse.ArgumentParser, policy: bool = False) -> None:
    p.add_argument("--input", required=True, help="microdata csv or summary json")
    p.add_argument("--design", required=True,
                   help="per-stratum sample sizes, e.g. 31,21,29,38,22,39")
    if policy:  # simulate never reconciles, so it has no policy to choose
        p.add_argument("--policy", choices=_POLICIES, default="prefer-correlation")
    p.add_argument("--format", choices=_FORMATS, default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strataux",
        description="Stratified-sampling mean estimation with two auxiliary variables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="aggregated relative moments and slopes")
    _add_common(p, policy=True)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("mse", help="first-order MSE table, optimum and diagnostics")
    _add_common(p, policy=True)
    p.add_argument("--m1", type=float, default=None)
    p.add_argument("--m2", type=float, default=None)
    p.set_defaults(func=_cmd_mse)

    p = sub.add_parser("pre", help="percent relative efficiency table")
    _add_common(p, policy=True)
    p.set_defaults(func=_cmd_pre)

    p = sub.add_parser("simulate", help="SRSWOR Monte Carlo validation")
    _add_common(p)
    p.add_argument("--R", type=int, default=1000, help="replication count")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--m1", type=float, default=None, help="fixed tuning for exp_regression")
    p.add_argument("--m2", type=float, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility, no effect: replicates run "
                        "serially in fixed blocks")
    p.add_argument("--estimators", default="",
                   help="comma list, default all: " + ",".join(ESTIMATOR_ORDER))
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reproduce-kk2009",
                       help="reproduce the embedded dataset's efficiency table")
    p.add_argument("--format", choices=_FORMATS, default="text")
    p.set_defaults(func=_cmd_reproduce)

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
