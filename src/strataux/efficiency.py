"""Percent relative efficiency tables and dominance comparisons.

PRE_i = 100 * V(ybar_st) / MSE_i, so values above 100 mean the estimator
beats the plain stratified mean at first order. The reproduction entry
point runs the full pipeline on the embedded six-stratum dataset under
both covariance policies and lines the results up against the efficiency
values published for that dataset.
"""
from __future__ import annotations

__all__ = [
    "PreReport", "PreRow", "ReproduceReport", "dominance_report", "pre_table", "reproduce_kk2009",
]

from dataclasses import dataclass
from typing import Optional

from .data_model import (
    NumericalError,
    ReconciliationReport,
    embedded_kk2009,
    reconcile_covariances,
)
from .moments import MomentSet, moment_set
from .mse_theory import (
    _NEGATIVE_MSE_WARNING, ESTIMATOR_ORDER, MseBreakdown, min_mse_tp, mse_classic,
    variance_mean,
)

# Reference PRE values published for the embedded six-stratum dataset, in
# estimator enumeration order. Exact reproduction is impossible (the
# published stratum table carries transcription-corrupt covariances), so
# these serve as comparison targets, not assertions.
PUBLISHED_PRE = {
    "mean": 100.0,
    "ratio": 1029.46,
    "exp_ratio_x": 370.17,
    "exp_ratio_xz": 2045.43,
    "exp_product_xz": 27.94,
    "exp_ratio_x_product_z": 126.41,
    "exp_product_x_ratio_z": 77.21,
    "regression": 2360.54,
    "exp_regression": 4656.35,
}

_CENSUS_WARNING = "census design: zero variance, PRE undefined"


@dataclass(frozen=True)
class PreRow:
    estimator: str
    mse: Optional[float]
    pre: Optional[float]
    rank: Optional[int]
    delta_vs_tuned: Optional[float]
    warning: str = ""


@dataclass(frozen=True)
class DominanceRow:
    estimator: str
    delta: float          # MSE(estimator) - min MSE(tuned)
    satisfied: bool
    note: str = ""


@dataclass(frozen=True)
class PreReport:
    """Per-estimator MSE, PRE, rank and gap against the tuned optimum, the
    dominance rows of the eight others, and the optimum (None without one)."""

    rows: tuple[PreRow, ...]
    dominance: tuple[DominanceRow, ...] = ()
    m1_opt: Optional[float] = None
    m2_opt: Optional[float] = None

    def row(self, estimator: str) -> PreRow:
        for r in self.rows:
            if r.estimator == estimator:
                return r
        raise KeyError(estimator)


def _pre_rows(m: MomentSet, tuned: Optional[MseBreakdown], why: str = "") -> tuple[PreRow, ...]:
    """One PreRow per estimator. Without the tuned optimum (tuned None) its
    row is empty, warned with why, and no row has a rank or gap."""
    mses = {e: mse_classic(e, m) for e in ESTIMATOR_ORDER if e != "exp_regression"}
    rank = {}
    if tuned is not None:
        mses["exp_regression"] = tuned.mse
        # the sort is stable, so tied MSEs keep estimator order
        ranked = sorted((e for e in ESTIMATOR_ORDER if mses[e] > 0.0), key=mses.__getitem__)
        rank = {e: i for i, e in enumerate(ranked, start=1)}
    variance = variance_mean(m)
    rows = []
    for e in ESTIMATOR_ORDER:
        mse = mses.get(e)
        if mse is None:
            rows.append(PreRow(e, mse=None, pre=None, rank=None, delta_vs_tuned=None, warning=why))
            continue
        warning = ""
        if mse < 0.0:
            warning = _NEGATIVE_MSE_WARNING
        elif mse == 0.0 and tuned is not None:
            warning = "PRE undefined: zero MSE"
        # divide first so PRE(mean) is exactly 100 (x/x == 1.0)
        pre = None if mse == 0.0 else 100.0 * (variance / mse)
        delta = None if tuned is None else mse - tuned.mse
        rows.append(PreRow(e, mse, pre, rank.get(e), delta, warning))
    return tuple(rows)


def pre_table(m: MomentSet) -> PreReport:
    """PRE table over all nine estimators, tuned one at its optimum, and
    the dominance gaps of the other eight against it.

    Requires the tuned optimum to exist (positive definite auxiliary
    moments); a census MomentSet short-circuits to all-undefined rows and
    no gaps. The gaps come from the MSE operations rather than any
    closed-form inequality, so they stay correct wherever the MSE formulas
    do. Every estimator but the plain ratio is a special case of the tuned
    form, so its gap is nonnegative by optimality; a negative ratio gap is
    possible and flagged, not an error. Built once per MomentSet instance,
    kept in its __dict__ (which ==, hash, repr and asdict never read); an
    error is not kept.
    """
    memo = vars(m)
    if "_pre_report" not in memo:
        memo["_pre_report"] = _pre_report(m)
    return memo["_pre_report"]


def _pre_report(m: MomentSet) -> PreReport:
    if m.census:
        rows = tuple(
            PreRow(estimator=e, mse=0.0, pre=None, rank=None,
                   delta_vs_tuned=None, warning=_CENSUS_WARNING)
            for e in ESTIMATOR_ORDER
        )
        return PreReport(rows=rows)

    tuned = min_mse_tp(m)
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
    return PreReport(rows=rows, dominance=dominance, m1_opt=tuned.m1, m2_opt=tuned.m2)


def dominance_report(m: MomentSet) -> tuple[DominanceRow, ...]:
    """pre_table(m).dominance: every non-tuned estimator's MSE gap to the
    tuned optimum, () for a census design."""
    return pre_table(m).dominance


@dataclass(frozen=True)
class ReproduceRow:
    estimator: str
    published_pre: float
    published_rank: int
    mse: Optional[float]
    pre: Optional[float]
    rank: Optional[int]
    delta: Optional[float]        # computed - published, headline policy
    rank_mismatch: bool
    pre_covariance: Optional[float]
    covariance_note: str = ""


@dataclass(frozen=True)
class ReproduceReport:
    """Both-policy reproduction of the embedded dataset's PRE table."""

    rows: tuple[ReproduceRow, ...]
    repairs_correlation: ReconciliationReport
    repairs_covariance: ReconciliationReport
    published_ranking: tuple[str, ...]
    computed_ranking: tuple[str, ...]
    m1_opt: Optional[float]
    m2_opt: Optional[float]
    notes: tuple[str, ...]


def reproduce_kk2009() -> ReproduceReport:
    """Run the full pipeline on the embedded dataset under both policies; a
    policy without a tuned optimum reports the other estimators unranked."""
    pop, design = embedded_kk2009()
    columns = []
    for policy in ("prefer-correlation", "prefer-covariance"):
        fixed, repairs = reconcile_covariances(pop, policy)
        m = moment_set(fixed, design)
        try:
            report, why = pre_table(m), ""
        except NumericalError as e:
            why = f"tuned optimum unavailable: {e}"
            report = PreReport(rows=_pre_rows(m, None, why))
        columns.append((policy, repairs, m, report, why))
    (_, repairs_rho, m_rho, headline, _), (_, repairs_cov, m_cov, cov, _) = columns

    published_ranking = tuple(sorted(PUBLISHED_PRE, key=lambda e: -PUBLISHED_PRE[e]))
    published_rank = {e: r for r, e in enumerate(published_ranking, start=1)}
    rows = []
    for r, c in zip(headline.rows, cov.rows):
        rows.append(
            ReproduceRow(
                estimator=r.estimator,
                published_pre=PUBLISHED_PRE[r.estimator],
                published_rank=published_rank[r.estimator],
                mse=r.mse, pre=r.pre, rank=r.rank,
                delta=None if r.pre is None else r.pre - PUBLISHED_PRE[r.estimator],
                rank_mismatch=r.rank != published_rank[r.estimator],
                pre_covariance=c.pre,
                covariance_note=c.warning,
            )
        )

    ranked = sorted((r for r in rows if r.rank is not None), key=lambda r: r.rank)
    notes = [
        "headline column uses the prefer-correlation policy; the published "
        "stratum table carries covariance transcription errors, so exact "
        "numeric agreement is not expected",
        "embedded dataset quirk: zbar in stratum 4 duplicates stratum 1 "
        "(498.28); stored verbatim",
    ]
    mismatches = [r.estimator for r in rows if r.rank_mismatch]
    if mismatches:
        notes.append(
            "computed ranking disagrees with the published ranking at: "
            + ", ".join(mismatches)
        )
    notes += [f"{policy} column: {why}" for policy, *_, why in columns if why]
    neg = [
        f"{c.estimator} ({c.mse:.6g})"
        for c in cov.rows if c.mse is not None and c.mse < 0.0
    ]
    if neg:
        notes.append(
            "prefer-covariance column has negative first-order MSEs, reported "
            "as-is: " + ", ".join(neg)
        )
    notes += [f"moment warning: {w}" for w in m_rho.warnings + m_cov.warnings]
    return ReproduceReport(
        rows=tuple(rows),
        repairs_correlation=repairs_rho,
        repairs_covariance=repairs_cov,
        published_ranking=published_ranking,
        computed_ranking=tuple(r.estimator for r in ranked),
        m1_opt=headline.m1_opt,
        m2_opt=headline.m2_opt,
        notes=tuple(notes),
    )
