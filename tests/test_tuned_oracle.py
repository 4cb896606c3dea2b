"""Bit-for-bit oracle for the tuned theory of one design.

The oracle keeps the earlier forms of the theory's steps: g_h = W_h^2 f_h
formed from (W_h, f_h) pairs; each row's first-order MSE from its own copy
of mse_classic and of mse_tp, each writing the row's point of the
quadratic itself; the PRE report reading its tuned MSE from a separate
_tuned_optimum; and tp_diagnostics reading mse_tp and solving the optimum
itself. Every MomentSet, MseBreakdown of each of the nine rows, PreReport
and TpDiagnostics of the current code must have the oracle's repr, and
every error the oracle's type and message, on seeded random summaries
(with fully sampled strata, censuses, near-singular and indefinite
moments) and on every pooled design of the bench's theory reference.
"""
import dataclasses
import json
import math
import random
from operator import mul
from pathlib import Path

from strataux import (
    InputError,
    MomentSet,
    MseBreakdown,
    NumericalError,
    PopulationSummary,
    SampleDesign,
    StratumSummary,
    bias_tp,
    moment_set,
    optimal_m,
    parse_summary,
    pre_table,
    reconcile_covariances,
    tp_diagnostics,
)
from strataux.data_model import MAX_MAGNITUDE, check_number
from strataux.efficiency import _CENSUS_WARNING, DominanceRow, PreReport, PreRow, _pre_rows
from strataux.moments import ZERO_MEAN_GUARD
from strataux.mse_theory import (
    _NEGATIVE_MSE_WARNING, ESTIMATOR_ORDER, FAMILY, TpDiagnostics, mse_row,
)

BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def _oracle_moment_set(pop, design):
    design.check_against([s.N for s in pop.strata])
    wf = tuple((w, 1.0 / n_h - 1.0 / s.N) for w, s, n_h in zip(pop.weights, pop.strata, design.n))
    c = pop._columns
    ybar, xbar, zbar = pop.ybar, pop.xbar, pop.zbar
    for name, mean in (("y", ybar), ("x", xbar), ("z", zbar)):
        if mean == 0.0 or abs(mean) <= ZERO_MEAN_GUARD * max(c[f"s_{name}"]):
            raise NumericalError(
                f"population mean of {name} is zero or negligible ({mean!r}); "
                "relative moments are undefined"
            )
    g = [w * w * f for (w, f) in wf]
    syy, sxx, szz, syx, syz, sxz = (
        math.fsum(map(mul, g, c[k])) for k in ("s_y2", "s_x2", "s_z2", "s_yx", "s_yz", "s_xz"))
    cyx = math.fsum(map(mul, map(mul, map(mul, g, c["rho_yx"]), c["s_y"]), c["s_x"]))
    cyz = math.fsum(map(mul, map(mul, map(mul, g, c["rho_yz"]), c["s_y"]), c["s_z"]))
    resid = math.fsum(map(mul, map(mul, g, c["s_y2"]), c["residual"]))
    v200, v020, v002 = syy / ybar**2, sxx / xbar**2, szz / zbar**2
    v110, v101, v011 = syx / (ybar * xbar), syz / (ybar * zbar), sxz / (xbar * zbar)
    census = all(f == 0.0 for (_, f) in wf)
    if census:
        b1 = b2 = None
    elif sxx == 0.0:
        raise NumericalError("combined slope b1 undefined: zero x variation")
    elif szz == 0.0:
        raise NumericalError("combined slope b2 undefined: zero z variation")
    else:
        b1, b2 = cyx / sxx, cyz / szz
    for name, v in (("v200", v200), ("v020", v020), ("v002", v002), ("v110", v110),
                    ("v101", v101), ("v011", v011), ("b1", b1), ("b2", b2)):
        if v is not None and not abs(v) <= MAX_MAGNITUDE:
            raise NumericalError(
                f"{name} = {v:.6g} is beyond +-{MAX_MAGNITUDE:g}: the covariances are "
                "too large for means this close to zero"
            )
    warnings = []
    for name, cross, da, db in (("v110", v110, v200, v020), ("v101", v101, v200, v002),
                                ("v011", v011, v020, v002)):
        bound = math.sqrt(da * db)
        if abs(cross) > bound * (1.0 + 1e-12) + 1e-300:
            warnings.append(
                f"|{name}|={abs(cross):.6g} exceeds Cauchy-Schwarz bound {bound:.6g}; "
                "input covariances are not realizable by any actual population"
            )
    return MomentSet(
        v200=v200, v020=v020, v002=v002, v110=v110, v101=v101, v011=v011,
        ybar=ybar, xbar=xbar, zbar=zbar, b1=b1, b2=b2, census=census,
        regression_residual=resid, warnings=tuple(warnings),
    )


def _slopes(m):
    b1 = 0.0 if m.b1 is None else m.b1
    b2 = 0.0 if m.b2 is None else m.b2
    return b1, b2


def _d_terms(m):
    b1, b2 = _slopes(m)
    return b1 * m.xbar / m.ybar, b2 * m.zbar / m.ybar


def _quadratic(m, a1, a2):
    return m.ybar ** 2 * math.fsum(
        (
            m.v200,
            a1 * a1 * m.v020,
            a2 * a2 * m.v002,
            2.0 * a1 * a2 * m.v011,
            -2.0 * a1 * m.v110,
            -2.0 * a2 * m.v101,
        )
    )


def _oracle_mse_classic(estimator, m):
    if estimator not in FAMILY:
        raise InputError(f"no closed-form MSE for estimator {estimator!r}")
    if estimator == "regression" and m.regression_residual is not None:
        return m.regression_residual
    m1, m2, slopes = FAMILY[estimator]
    d1, d2 = _d_terms(m) if slopes else (0.0, 0.0)
    return _quadratic(m, 0.5 * (m1 or 0.0) + d1, 0.5 * (m2 or 0.0) + d2)


def _oracle_tp_terms(m, m1, m2):
    check_number("m1", m1)
    check_number("m2", m2)
    d1, d2 = _d_terms(m)
    mse = _quadratic(m, 0.5 * m1 + d1, 0.5 * m2 + d2)

    b1, b2 = _slopes(m)
    bx = b1 * m.xbar
    bz = b2 * m.zbar
    p1 = math.fsum(
        (0.25 * m1 * m1 * m.v020, 0.25 * m2 * m2 * m.v002,
         0.5 * m1 * m2 * m.v011, -m1 * m.v110, -m2 * m.v101)
    )
    p2 = math.fsum((bx * bx * m.v020, bz * bz * m.v002, 2.0 * bx * bz * m.v011))
    p3 = math.fsum(
        (2.0 * bx * m.v110, 2.0 * bz * m.v101,
         -m1 * bx * m.v020, -m2 * bz * m.v002,
         -m1 * bz * m.v011, -m2 * bx * m.v011)
    )
    return mse, p1, p2, p3


def _oracle_mse_tp(m, m1, m2):
    mse, p1, p2, p3 = _oracle_tp_terms(m, m1, m2)
    return MseBreakdown(
        estimator="exp_regression", mse=mse, m1=m1, m2=m2,
        p1=p1, p2=p2, p3=p3, bias=bias_tp(m, m1, m2),
        warning=_NEGATIVE_MSE_WARNING if mse < 0.0 else None,
    )


def _oracle_mse_row(m, estimator, m1=None, m2=None):
    if estimator == "exp_regression":
        return _oracle_mse_tp(m, m1, m2)
    mse = _oracle_mse_classic(estimator, m)
    return MseBreakdown(estimator, mse, warning=_NEGATIVE_MSE_WARNING if mse < 0.0 else None)


def _oracle_tuned_optimum(m):
    m1, m2 = optimal_m(m)
    return m1, m2, _oracle_tp_terms(m, m1, m2)[0]


def _oracle_pre_report(m):
    # _pre_rows reads mse_classic, which mse_row's comparison covers row by row
    if m.census:
        return PreReport(rows=tuple(
            PreRow(estimator=e, mse=0.0, pre=None, rank=None,
                   delta_vs_tuned=None, warning=_CENSUS_WARNING)
            for e in ESTIMATOR_ORDER))
    m1, m2, tuned = _oracle_tuned_optimum(m)
    rows = _pre_rows(m, tuned)
    notes = {"ratio": "ratio form is not nested in the tuned estimator; first-order gap negative"}
    if m.regression_residual is not None:
        notes["regression"] = ("regression MSE uses the correlation-based residual form, "
                               "which is not a point of the tuned quadratic")
    dominance = tuple(
        DominanceRow(r.estimator, r.delta_vs_tuned, r.delta_vs_tuned >= 0.0,
                     notes.get(r.estimator, "") if r.delta_vs_tuned < 0.0 else "")
        for r in rows if r.estimator != "exp_regression"
    )
    return PreReport(rows=rows, dominance=dominance, m1_opt=m1, m2_opt=m2)


def _oracle_tp_diagnostics(m, m1, m2):
    bd = _oracle_mse_tp(m, m1, m2)
    b1, b2 = _slopes(m)
    printed_p1 = bd.p1
    printed_p2 = math.fsum((b1 * b1 * m.v020, b2 * b2 * m.v002, 2.0 * b1 * b2 * m.v011))
    printed_p3 = math.fsum(
        (-2.0 * b1 * m.v110, -2.0 * b2 * m.v101,
         m1 * b1 * m.v020, m1 * b2 * m.v011,
         m2 * b1 * m.v011, m2 * b2 * m.v002)
    )
    printed_mse = m.ybar ** 2 * (m.v200 + printed_p1) + printed_p2 - m.ybar * printed_p3
    det = m.v020 * m.v002 - m.v011 * m.v011
    if det != 0.0:
        printed_m1 = 4.0 * math.fsum(
            (b1 * m.v011 * m.v002, b2 * m.v011 ** 2,
             -b1 * m.v020 * m.v002, -b2 * m.v011 * m.v002)) / (m.ybar * det)
        printed_m2 = 4.0 * math.fsum(
            (b1 * m.v011 * m.v020, b2 * m.v011 ** 2,
             -b1 * m.v011 * m.v020, -b2 * m.v002 * m.v020)) / (m.ybar * det)
    else:
        printed_m1 = printed_m2 = None
    try:
        solved_m1, solved_m2 = optimal_m(m)
    except NumericalError:
        solved_m1 = solved_m2 = math.nan
    return TpDiagnostics(
        m1=m1, m2=m2, implemented_mse=bd.mse, p1=bd.p1, p2=bd.p2, p3=bd.p3,
        printed_p1=printed_p1, printed_p2=printed_p2, printed_p3=printed_p3,
        printed_mse=printed_mse, solved_m1=solved_m1, solved_m2=solved_m2,
        printed_m1=printed_m1, printed_m2=printed_m2,
    )


def _outcome(fn, *args):
    """repr of fn(*args), or the type and message of the error it raises."""
    try:
        return repr(fn(*args))
    except (ValueError, ArithmeticError) as e:
        return f"{type(e).__name__}: {e}"


def _random_summary(rnd, L, collinear=False, xz_excess=None):
    """Random strata; collinear makes z an exact multiple of x in each
    stratum, xz_excess sets s_xz to that multiple of s_x*s_z."""
    strata = []
    for h in range(1, L + 1):
        s_y, s_x, s_z = (rnd.lognormvariate(0.0, 2.0) for _ in range(3))
        r_yx, r_yz, r_xz = (rnd.uniform(-0.95, 0.95) for _ in range(3))
        if collinear:
            s_z, r_xz, r_yz = 0.5 * s_x, 1.0, r_yx
        jitter = [rnd.uniform(0.9, 1.1) for _ in range(2)]
        strata.append(StratumSummary(
            h=h, N=rnd.randint(2, 300),
            ybar=rnd.uniform(-50.0, 200.0) or 1.0, xbar=rnd.lognormvariate(3.0, 2.0),
            zbar=rnd.uniform(5.0, 80.0), s_y=s_y, s_x=s_x, s_z=s_z,
            s_yx=r_yx * s_y * s_x * jitter[0], s_yz=r_yz * s_y * s_z * jitter[1],
            s_xz=r_xz * s_x * s_z if xz_excess is None else xz_excess * s_x * s_z,
            rho_yx=r_yx, rho_yz=r_yz, rho_xz=r_xz,
        ))
    return PopulationSummary(strata=tuple(strata))


def _random_design(rnd, pop):
    # about a fifth of the strata fully sampled (f_h = 0)
    return SampleDesign(n=tuple(
        s.N if rnd.random() < 0.2 else rnd.randint(1, s.N) for s in pop.strata))


def _cases():
    rnd = random.Random(20261020)
    for L in (1, 6, 64):
        for _ in range(25):
            pop = _random_summary(rnd, L)
            yield pop, _random_design(rnd, pop)
        yield pop, SampleDesign(n=tuple(s.N for s in pop.strata))
        for _ in range(3):
            pop = _random_summary(rnd, L, collinear=True)
            yield pop, _random_design(rnd, pop)
    for _ in range(4):
        # one stratum past the Cauchy-Schwarz bound on s_xz: indefinite
        pop = _random_summary(rnd, 1, xz_excess=rnd.choice((-1.05, 1.05)))
        yield pop, _random_design(rnd, pop)
    ref = json.loads((BENCH_DATA / "theory_reference.json").read_text(encoding="utf-8"))
    pooled = {tuple(d["n"]) for entry in ref["summaries"] for d in entry["designs"]}
    for entry in ref["summaries"]:
        pop = parse_summary((BENCH_DATA / entry["file"]).read_text(encoding="utf-8"))
        if entry["policy"]:
            pop = reconcile_covariances(pop, entry["policy"])[0]
        for n in sorted(pooled):
            if len(n) == pop.L:
                yield pop, SampleDesign(n=n)


# signed zeros, and inputs each of check_number's messages refuses, m1 first
FIXED_TUNINGS = ((0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0),
                 (math.nan, 1.0), (1.0, math.inf), (math.inf, math.nan), (10 ** 400, 2e100))


def test_tuned_theory_keeps_the_oracle_bits():
    rnd = random.Random(7)
    seen = {"census": 0, "near-singular": 0, "indefinite": 0, "solved": 0}
    cases = list(_cases())
    assert len(cases) >= 75 + 192
    for pop, design in cases:
        got, want = _outcome(moment_set, pop, design), _outcome(_oracle_moment_set, pop, design)
        assert got == want, (pop.L, design.n)
        try:
            m = moment_set(pop, design)
        except NumericalError:
            continue
        # the current path runs first, so its memos serve its own later calls;
        # the oracle reads a fresh instance that has none
        fresh = dataclasses.replace(m)
        assert _outcome(pre_table, m) == _outcome(_oracle_pre_report, fresh), design.n
        for e in (*FAMILY, "bogus"):
            assert _outcome(mse_row, m, e) == _outcome(_oracle_mse_row, m, e), (e, design.n)
        try:
            tunings = [optimal_m(m)]
            seen["solved"] += 1
        except NumericalError as e:
            tunings = [(1.0, 1.0)]
            for kind in seen:
                seen[kind] += kind in str(e)
        tunings.append((rnd.uniform(-4.0, 4.0), rnd.uniform(-4.0, 4.0)))
        for m1, m2 in tunings:
            assert (_outcome(tp_diagnostics, m, m1, m2)
                    == _outcome(_oracle_tp_diagnostics, dataclasses.replace(m), m1, m2)), design.n
        for m1, m2 in (*tunings, *FIXED_TUNINGS):
            assert (_outcome(mse_row, m, "exp_regression", m1, m2)
                    == _outcome(_oracle_mse_row, m, "exp_regression", m1, m2)), (m1, m2, design.n)
    assert seen["census"] >= 3 and seen["near-singular"] >= 1 and seen["indefinite"] >= 1, seen
    # every pooled design and most random ones have an optimum
    assert seen["solved"] >= 192 + 60, seen
