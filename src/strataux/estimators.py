"""Point estimators of the population mean from a stratified sample.

Nine estimators are implemented, named by construction:

  mean                    plain stratified sample mean ybar_st
  ratio                   ybar_st * Xbar / xbar_st
  exp_ratio_x             ybar_st * exp((Xbar - xbar_st)/(Xbar + xbar_st))
  exp_ratio_xz            exponential ratio adjustment in both x and z
  exp_product_xz          exponential product adjustment in both x and z
  exp_ratio_x_product_z   ratio in x, product in z
  exp_product_x_ratio_z   product in x, ratio in z
  regression              ybar_st + b1*(Xbar - xbar_st) + b2*(Zbar - zbar_st)
  exp_regression          tuned exponential factors exp(m1*u), exp(m2*v)
                          on ybar_st plus the regression correction

The tuned estimator nests the others: m1 = m2 = 1 with zero slopes gives
exp_ratio_xz, m1 = m2 = -1 gives exp_product_xz, the mixed signs give the
mixed forms, and m1 = m2 = 0 gives the regression estimator.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .data_model import (
    InputError,
    NumericalError,
    PopulationSummary,
    StratifiedSample,
)

ESTIMATOR_ORDER = (
    "mean",
    "ratio",
    "exp_ratio_x",
    "exp_ratio_xz",
    "exp_product_xz",
    "exp_ratio_x_product_z",
    "exp_product_x_ratio_z",
    "regression",
    "exp_regression",
)

_NEEDS_SLOPES = ("regression", "exp_regression")


def stratified_means(
    sample: StratifiedSample, pop: PopulationSummary
) -> tuple[float, float, float]:
    """Population-weighted sample means (ybar_st, xbar_st, zbar_st)."""
    sample.design.check_against(pop)
    w = pop.weights
    out = []
    for k in range(3):
        out.append(
            math.fsum(
                w[i] * (math.fsum(obs[k] for obs in group) / len(group))
                for i, group in enumerate(sample.observations)
            )
        )
    return out[0], out[1], out[2]


def sample_regression_coeffs(
    sample: StratifiedSample, pop: PopulationSummary
) -> tuple[float, float]:
    """Combined sample slopes (b1, b2), the plug-in analogues of B1, B2.

    b1 = sum_h W_h^2 f_h s_yxh / sum_h W_h^2 f_h s_xh^2 and b2 likewise
    with z, with sample variances/covariances on the n_h - 1 divisor.
    Strata sampled with a single unit carry no within-sample dispersion
    and are skipped. Under a full census every f_h is zero and the slopes
    are taken as 0 by convention (any value would do: the corrections they
    multiply are exactly zero there).
    """
    sample.design.check_against(pop)
    if all(n_h == s.N for s, n_h in zip(pop.strata, sample.design.n)):
        return 0.0, 0.0
    N = pop.N
    num1, den1, num2, den2 = [], [], [], []
    for s, n_h, group in zip(pop.strata, sample.design.n, sample.observations):
        f_h = 1.0 / n_h - 1.0 / s.N
        if n_h < 2:
            continue
        g = (s.N / N) ** 2 * f_h
        ys = [o[0] for o in group]
        xs = [o[1] for o in group]
        zs = [o[2] for o in group]
        my = math.fsum(ys) / n_h
        mx = math.fsum(xs) / n_h
        mz = math.fsum(zs) / n_h
        num1.append(g * math.fsum((y - my) * (x - mx) for y, x in zip(ys, xs)) / (n_h - 1))
        den1.append(g * math.fsum((x - mx) ** 2 for x in xs) / (n_h - 1))
        num2.append(g * math.fsum((y - my) * (z - mz) for y, z in zip(ys, zs)) / (n_h - 1))
        den2.append(g * math.fsum((z - mz) ** 2 for z in zs) / (n_h - 1))
    d1, d2 = math.fsum(den1), math.fsum(den2)
    if d1 == 0.0:
        raise NumericalError("sample slope b1 undefined: no x variation in the sample")
    if d2 == 0.0:
        raise NumericalError("sample slope b2 undefined: no z variation in the sample")
    return math.fsum(num1) / d1, math.fsum(num2) / d2


# Each estimator as a point of the tuned family
#   ybar_st * exp(m1*u) * exp(m2*v) [+ b1*(Xbar - xbar_st) + b2*(Zbar - zbar_st)]
# with u = (Xbar - xbar_st)/(Xbar + xbar_st) and v likewise in z, given as
# (m1, m2, slopes); None marks an absent factor. The point estimates and the
# first-order MSEs both read this table. ratio is evaluated exactly as
# ybar_st*Xbar/xbar_st, which agrees with m1 = 2 to first order;
# exp_regression takes its exponents from the caller.
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


def estimate_rows(
    rows: Sequence[tuple[str, Optional[float], Optional[float]]],
    ybar_st: np.ndarray,
    xbar_st: np.ndarray,
    zbar_st: np.ndarray,
    xbar: float,
    zbar: float,
    b1: np.ndarray,
    b2: np.ndarray,
) -> np.ndarray:
    """Evaluate (estimator, m1, m2) rows over a batch of replicate means.

    The means and slopes are arrays of shape (B,); the result has shape
    (len(rows), B). Nothing raises: a zero denominator or an overflowing
    exponent gives inf or nan, and an exponential factor whose
    Xbar + xbar_st (or Zbar + zbar_st) is zero is nan.
    """
    out = np.empty((len(rows), len(ybar_st)))
    with np.errstate(all="ignore"):
        dx, dz = xbar - xbar_st, zbar - zbar_st
        u = np.where(xbar + xbar_st != 0.0, dx / (xbar + xbar_st), np.nan)
        v = np.where(zbar + zbar_st != 0.0, dz / (zbar + zbar_st), np.nan)
        for j, (estimator, m1, m2) in enumerate(rows):
            if estimator == "ratio":
                out[j] = ybar_st * xbar / xbar_st
                continue
            e1, e2, slopes = FAMILY.get(estimator, (m1, m2, True))
            value = ybar_st
            if e1 is not None:
                value = value * np.exp(e1 * u)
            if e2 is not None:
                value = value * np.exp(e2 * v)
            if slopes:
                value = value + b1 * dx + b2 * dz
            out[j] = value
    return out


def point_estimate(
    estimator: str,
    sample: StratifiedSample,
    pop: PopulationSummary,
    *,
    m1: Optional[float] = None,
    m2: Optional[float] = None,
    b1: Optional[float] = None,
    b2: Optional[float] = None,
) -> float:
    """Evaluate one estimator on a drawn sample.

    m1, m2 apply to exp_regression only (required there, finite). b1, b2
    override the sample slopes for the two slope-bearing estimators; by
    default the slopes come from sample_regression_coeffs.
    """
    if estimator not in ESTIMATOR_ORDER:
        raise InputError(f"unknown estimator {estimator!r}")
    if estimator == "exp_regression":
        if m1 is None or m2 is None or not (math.isfinite(m1) and math.isfinite(m2)):
            raise InputError("exp_regression requires finite m1 and m2")
    elif m1 is not None or m2 is not None:
        raise InputError(f"m1/m2 are not parameters of {estimator!r}")
    if estimator not in _NEEDS_SLOPES and (b1 is not None or b2 is not None):
        raise InputError(f"b1/b2 are not parameters of {estimator!r}")

    ybar_st, xbar_st, zbar_st = stratified_means(sample, pop)
    if estimator == "ratio" and xbar_st == 0.0:
        raise NumericalError("ratio estimator undefined: sample x mean is zero")
    if estimator in _NEEDS_SLOPES and (b1 is None or b2 is None):
        sb1, sb2 = sample_regression_coeffs(sample, pop)
        b1 = sb1 if b1 is None else b1
        b2 = sb2 if b2 is None else b2

    value = float(estimate_rows(
        ((estimator, m1, m2),), np.array([ybar_st]), np.array([xbar_st]),
        np.array([zbar_st]), pop.xbar, pop.zbar,
        np.array([b1 if b1 is not None else 0.0]),
        np.array([b2 if b2 is not None else 0.0]),
    )[0, 0])
    if not math.isfinite(value):
        raise NumericalError(f"estimator {estimator!r} produced a non-finite value")
    return value
