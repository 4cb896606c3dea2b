"""The estimator table, first-order MSE and bias formulas, optimal tuning,
and diagnostics; everything here but the table is a function of a MomentSet,
and nothing here needs numpy. mse_row is the theory of one (estimator, m1,
m2) row of the simulator's kernel, and row_point maps that row to its point
of the quadratic below. The tuned estimator's MSE is an exact quadratic in
its two exponent parameters once written in the shifted coordinates
a1 = m1/2 + D1, a2 = m2/2 + D2, with D1 = b1*Xbar/Ybar and D2 = b2*Zbar/Ybar:

    MSE = Ybar^2 * [v200 + a1^2 v020 + a2^2 v002 + 2 a1 a2 v011
                    - 2 a1 v110 - 2 a2 v101]

At a = (1/2, 1/2), (-1/2, -1/2), (1/2, -1/2), (-1/2, 1/2) with zero slopes
this reproduces the four exponential estimators' MSEs term by term, and at
a = (D1, D2) the regression estimator's slope-based form, so those
identities hold to the last bit. The widely printed decomposition of this
MSE into pieces P1, P2, P3 drops the Xbar, Zbar scale factors that the
squared-error form itself carries, and the matching printed closed form
for the optimal (m1, m2) contains self-cancelling terms; both are
reproduced verbatim in tp_diagnostics for comparison, never used for
results. The optimum is obtained by solving the exact stationarity system
of the quadratic. Its minimum, Ybar^2 (v200 - q'V^-1 q) with q = (v110, v101)
and V = [[v020, v011], [v011, v002]], does not depend on b1 or b2.
"""
from __future__ import annotations

__all__ = [
    "ESTIMATOR_ORDER", "MseBreakdown", "TpDiagnostics", "bias_tp", "min_mse_tp", "mse_classic",
    "mse_tp", "optimal_m", "tp_diagnostics", "variance_mean",
]

import math
from dataclasses import dataclass
from typing import Optional

from .data_model import InputError, NumericalError, check_number
from .moments import MomentSet, _memo

# Each estimator as a point of the tuned family
#   ybar_st * exp(m1*u) * exp(m2*v) [+ b1*(Xbar - xbar_st) + b2*(Zbar - zbar_st)]
# with u = (Xbar - xbar_st)/(Xbar + xbar_st) and v likewise in z, given as
# (m1, m2, slopes); None marks an absent factor. The point estimates and the
# first-order MSEs both read this table. ratio is evaluated exactly as
# ybar_st*Xbar/xbar_st, which agrees with m1 = 2 to first order;
# exp_regression, last in report order, takes its exponents from the caller.
FAMILY = {
    "mean": (None, None, False),
    "ratio": (2.0, None, False),
    "exp_ratio_x": (1.0, None, False),
    "exp_ratio_xz": (1.0, 1.0, False),
    "exp_product_xz": (-1.0, -1.0, False),
    "exp_ratio_x_product_z": (1.0, -1.0, False),
    "exp_product_x_ratio_z": (-1.0, 1.0, False),
    "regression": (None, None, True),
}
ESTIMATOR_ORDER = (*FAMILY, "exp_regression")

# relative floor on v020*v002 - v011^2 below which the quadratic is
# treated as degenerate
SINGULARITY_TOL = 1e-12

_NEGATIVE_MSE_WARNING = (
    "first-order MSE is negative; the approximation is not meaningful "
    "for these moments"
)


@dataclass(frozen=True)
class MseBreakdown:
    """One estimator's first-order MSE, with tuning detail for the tuned form.

    For exp_regression, (m1, m2) are the parameters used, bias is the
    first-order design bias at those parameters, and (p1, p2, p3) split the
    MSE as Ybar^2*(v200 + p1) + p2 - Ybar*p3 into the pure-exponent part,
    the pure-slope part and the cross part, each carrying its proper mean
    scale factors. Other estimators fill only mse.
    """

    estimator: str
    mse: float
    m1: Optional[float] = None
    m2: Optional[float] = None
    p1: Optional[float] = None
    p2: Optional[float] = None
    p3: Optional[float] = None
    bias: Optional[float] = None
    warning: Optional[str] = None


def _slopes(m: MomentSet) -> tuple[float, float]:
    b1 = 0.0 if m.b1 is None else m.b1
    b2 = 0.0 if m.b2 is None else m.b2
    return b1, b2


def _d_terms(m: MomentSet) -> tuple[float, float]:
    b1, b2 = _slopes(m)
    return b1 * m.xbar / m.ybar, b2 * m.zbar / m.ybar


def variance_mean(m: MomentSet) -> float:
    """Exact design variance of the stratified sample mean."""
    return m.ybar ** 2 * m.v200


def _quadratic(m: MomentSet, a1: float, a2: float) -> float:
    # shared canonical term order, so nested special cases agree bit for bit
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


def row_point(m: MomentSet, estimator: str, m1: Optional[float] = None,
              m2: Optional[float] = None) -> tuple[float, float]:
    """The row's point (a1, a2) of the tuned quadratic, the one map from an
    estimate_rows row to it: a_i = m_i/2 from FAMILY (the caller's m1, m2
    for exp_regression), plus D_i on the slope-bearing rows."""
    if estimator == "exp_regression":
        check_number("m1", m1)
        check_number("m2", m2)
        slopes = True
    else:
        f1, f2, slopes = FAMILY[estimator]
        m1, m2 = f1 or 0.0, f2 or 0.0
    d1, d2 = _d_terms(m) if slopes else (0.0, 0.0)
    return 0.5 * m1 + d1, 0.5 * m2 + d2


def mse_classic(estimator: str, m: MomentSet) -> float:
    """First-order MSE of one of the non-tuned estimators.

    Each is the tuned quadratic at the estimator's point (row_point). The
    coefficients are powers of two, so these are the same bits as the
    estimators' own expansions. The regression estimator uses the
    correlation-based aggregate residual when the MomentSet carries one (it
    does whenever it came from moment_set); for raw MomentSets the
    slope-based quadratic at a = (D1, D2) is the fallback.
    """
    if estimator not in FAMILY:
        raise InputError(f"no closed-form MSE for estimator {estimator!r}")
    if estimator == "regression" and m.regression_residual is not None:
        return m.regression_residual
    return _quadratic(m, *row_point(m, estimator))


def _tp_terms(m: MomentSet, m1: float, m2: float) -> tuple[float, float, float, float]:
    """(mse, p1, p2, p3) of the tuned estimator at (m1, m2), as in mse_tp."""
    mse = _quadratic(m, *row_point(m, "exp_regression", m1, m2))

    b1, b2 = _slopes(m)
    p1 = math.fsum(
        (0.25 * m1 * m1 * m.v020, 0.25 * m2 * m2 * m.v002,
         0.5 * m1 * m2 * m.v011, -m1 * m.v110, -m2 * m.v101)
    )
    return mse, p1, *_slope_parts(m, m1, m2, b1 * m.xbar, b2 * m.zbar)


def _slope_parts(m: MomentSet, m1: float, m2: float, c1: float, c2: float) -> tuple[float, float]:
    """(p2, p3) at slope scales (c1, c2): (b1*Xbar, b2*Zbar) implemented, (b1, b2) printed."""
    p2 = math.fsum((c1 * c1 * m.v020, c2 * c2 * m.v002, 2.0 * c1 * c2 * m.v011))
    p3 = math.fsum(
        (2.0 * c1 * m.v110, 2.0 * c2 * m.v101,
         -m1 * c1 * m.v020, -m2 * c2 * m.v002,
         -m1 * c2 * m.v011, -m2 * c1 * m.v011)
    )
    return p2, p3


def mse_tp(m: MomentSet, m1: float, m2: float) -> MseBreakdown:
    """First-order MSE of the tuned exponential-regression estimator."""
    return mse_row(m, "exp_regression", m1, m2)


def mse_row(m: MomentSet, estimator: str, m1: Optional[float] = None,
            m2: Optional[float] = None) -> MseBreakdown:
    """First-order theory of the estimate_rows row (estimator, m1, m2)."""
    if estimator == "exp_regression":
        mse, p1, p2, p3 = _tp_terms(m, m1, m2)
        tuning = dict(m1=m1, m2=m2, p1=p1, p2=p2, p3=p3, bias=bias_tp(m, m1, m2))
    else:
        mse, tuning = mse_classic(estimator, m), {}
    return MseBreakdown(estimator, mse, **tuning,
                        warning=_NEGATIVE_MSE_WARNING if mse < 0.0 else None)


def bias_tp(m: MomentSet, m1: float, m2: float) -> float:
    """First-order design bias of the tuned estimator.

    Coefficients follow the second-order expansion as printed, including
    its -m1*m2/4 cross coefficient. That sign does not match the +m1*m2/2
    cross structure of the squared-error quadratic. Nothing checks this
    bias against simulation: SimRow carries emp_bias but no theory bias, so
    the mismatch is left as printed rather than silently edited here.
    """
    return m.ybar * math.fsum(
        (0.25 * m1 * m1 * m.v020, 0.25 * m2 * m2 * m.v002,
         -0.25 * m1 * m2 * m.v011, -0.5 * m1 * m.v110, -0.5 * m2 * m.v101)
    )


def optimal_m(m: MomentSet) -> tuple[float, float]:
    """Exact minimizer (m1*, m2*) of mse_tp via the stationarity system.

    In the shifted coordinates the stationary point solves
    a1*v020 + a2*v011 = v110 and a1*v011 + a2*v002 = v101; mapping back
    gives m_i* = 2*(a_i* - D_i). The slopes b1, b2 move the optimum but not
    the tuned minimum, Ybar^2*(v200 - a1*v110 - a2*v101). Requires the
    auxiliary moment matrix to be positive definite: determinant at or below
    SINGULARITY_TOL times its natural scale (collinear or degenerate
    auxiliaries), or negative (an indefinite quadratic with no interior
    minimum), is an error. Solved once per MomentSet instance (_memo).
    """
    return _memo(m, "_optimum", _solve_optimum)


def _solve_optimum(m: MomentSet) -> tuple[float, float]:
    if m.census:
        raise NumericalError("moment system degenerate: census design (every f_h = 0), "
                             "the tuning optimum is undefined")
    det = m.v020 * m.v002 - m.v011 * m.v011
    scale = max(m.v020 * m.v002, m.v011 * m.v011)
    if scale == 0.0:
        raise NumericalError(
            "moment system degenerate: no auxiliary variation (v020 = v002 = v011 = 0)"
        )
    if det < 0.0:
        raise NumericalError(
            f"moment quadratic is indefinite (v020*v002 - v011^2 = {det:.6g} < 0); "
            "no interior minimum exists; input covariances are not realizable"
        )
    if det <= SINGULARITY_TOL * scale:
        raise NumericalError(
            f"moment system near-singular: v020*v002 - v011^2 = {det:.6g} "
            f"is below {SINGULARITY_TOL:g} of its scale {scale:.6g} "
            "(auxiliaries effectively collinear)"
        )
    a1 = (m.v110 * m.v002 - m.v101 * m.v011) / det
    a2 = (m.v101 * m.v020 - m.v110 * m.v011) / det
    d1, d2 = _d_terms(m)
    return 2.0 * (a1 - d1), 2.0 * (a2 - d2)


def min_mse_tp(m: MomentSet) -> MseBreakdown:
    """mse_tp at the solved optimum."""
    m1, m2 = optimal_m(m)
    return mse_tp(m, m1, m2)


@dataclass(frozen=True)
class TpDiagnostics:
    """Implemented vs as-printed values for the tuned estimator's theory.

    The as-printed decomposition drops the Xbar, Zbar scale factors from
    its slope terms, and the as-printed closed-form optimum's m2 numerator
    algebraically collapses to -4*b2*(v020*v002 - v011^2), making
    m2_printed = -4*b2/ybar regardless of the cross moments. Both are
    evaluated verbatim here so reports can show the disagreement next to
    the implemented values.
    """

    m1: float
    m2: float
    implemented_mse: float
    p1: float
    p2: float
    p3: float
    printed_p1: float
    printed_p2: float
    printed_p3: float
    printed_mse: float
    solved_m1: float
    solved_m2: float
    printed_m1: Optional[float]
    printed_m2: Optional[float]


def tp_diagnostics(m: MomentSet, m1: float, m2: float) -> TpDiagnostics:
    """Side-by-side comparison of implemented and as-printed tp formulas;
    solved_m1, solved_m2 are optimal_m(m), shared with its caller, or nan."""
    mse, p1, p2, p3 = _tp_terms(m, m1, m2)
    b1, b2 = _slopes(m)
    printed_p1 = p1  # the pure-exponent part carries no scale factors
    printed_p2, neg_p3 = _slope_parts(m, m1, m2, b1, b2)
    printed_p3 = 0.0 - neg_p3  # exact; -neg_p3 would turn fsum's +0.0 into -0.0
    printed_mse = m.ybar ** 2 * (m.v200 + printed_p1) + printed_p2 - m.ybar * printed_p3

    det = m.v020 * m.v002 - m.v011 * m.v011
    if det != 0.0:
        printed_m1 = (
            4.0
            * math.fsum(
                (b1 * m.v011 * m.v002, b2 * m.v011 ** 2,
                 -b1 * m.v020 * m.v002, -b2 * m.v011 * m.v002)
            )
            / (m.ybar * det)
        )
        printed_m2 = (
            4.0
            * math.fsum(
                (b1 * m.v011 * m.v020, b2 * m.v011 ** 2,
                 -b1 * m.v011 * m.v020, -b2 * m.v002 * m.v020)
            )
            / (m.ybar * det)
        )
    else:
        printed_m1 = printed_m2 = None
    try:
        solved_m1, solved_m2 = optimal_m(m)
    except NumericalError:
        solved_m1 = solved_m2 = math.nan
    return TpDiagnostics(
        m1=m1, m2=m2, implemented_mse=mse, p1=p1, p2=p2, p3=p3,
        printed_p1=printed_p1, printed_p2=printed_p2, printed_p3=printed_p3,
        printed_mse=printed_mse,
        solved_m1=solved_m1, solved_m2=solved_m2,
        printed_m1=printed_m1, printed_m2=printed_m2,
    )
