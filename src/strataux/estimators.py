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
    SampleDesign,
    StratifiedSample,
    check_number,
)
from .moments import design_factors

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


def sample_statistics(
    pop: PopulationSummary, design: SampleDesign, samples: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stratified sample means and combined sample slopes of B samples.

    samples holds each stratum's (3, B, n_h) array of (y, x, z) values,
    C-ordered so that each mean sums its n_h values pairwise, the same
    bits for one sample as for any batch; deviations are formed in place.
    Returns the (3, B) means (ybar_st, xbar_st, zbar_st) and the slopes
    b1, b2 of shape (B,), the plug-in analogues of B1, B2:
    b1 = sum_h W_h^2 f_h s_yxh / sum_h W_h^2 f_h s_xh^2 and b2 likewise
    with z, on the n_h - 1 divisor. Strata of one unit carry no
    within-sample dispersion and are skipped; a zero denominator gives
    nan. A census (every f_h zero) is the population: its means are
    pop's exactly and its slopes 0, which the corrections they multiply
    ignore.
    """
    factors = design_factors(pop, design)
    B = samples[0].shape[1]
    if all(f == 0.0 for _, f in factors):
        return np.repeat([[pop.ybar], [pop.xbar], [pop.zbar]], B, axis=1), np.zeros(B), np.zeros(B)
    means = np.zeros((3, B))
    sums = np.zeros((4, B))  # sum_h W_h^2 f_h (s_yx, s_xx, s_yz, s_zz)
    for sample, n_h, (w, f) in zip(samples, design.n, factors):
        m = sample.mean(axis=-1)
        means += w * m
        if n_h >= 2:
            scale = w ** 2 * f / (n_h - 1)
            sample -= m[..., None]
            dy, dx, dz = sample
            for k, (a, b) in enumerate(((dy, dx), (dx, dx), (dy, dz), (dz, dz))):
                sums[k] += scale * np.einsum("bn,bn->b", a, b)
    den = sums[1::2]
    b1, b2 = np.divide(sums[::2], den, out=np.full_like(den, np.nan), where=den != 0.0)
    return means, b1, b2


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

    The sample is the simulator's batch of one: each stratum's (n_h, 3)
    observations go to sample_statistics as a C-ordered (3, 1, n_h) copy,
    the shape of a simulator block, so a replicate's estimate here equals
    run_simulation's bit for bit. m1, m2 apply to exp_regression only
    (required there, finite and within MAX_MAGNITUDE). b1, b2 override the
    sample slopes for the two slope-bearing estimators.
    """
    if estimator not in ESTIMATOR_ORDER:
        raise InputError(f"unknown estimator {estimator!r}")
    if estimator == "exp_regression":
        if m1 is None or m2 is None:
            raise InputError("exp_regression requires finite m1 and m2")
        check_number("m1", m1)
        check_number("m2", m2)
    elif m1 is not None or m2 is not None:
        raise InputError(f"m1/m2 are not parameters of {estimator!r}")
    if estimator not in _NEEDS_SLOPES and (b1 is not None or b2 is not None):
        raise InputError(f"b1/b2 are not parameters of {estimator!r}")

    means, *slopes = sample_statistics(
        pop, sample.design, [obs.T.copy()[:, None] for obs in sample.observations])
    if estimator == "ratio" and means[1, 0] == 0.0:
        raise NumericalError("ratio estimator undefined: sample x mean is zero")
    for i, (given, var) in enumerate(((b1, "x"), (b2, "z"))):
        if given is not None:
            slopes[i] = np.array([given])
        elif estimator in _NEEDS_SLOPES and math.isnan(slopes[i][0]):
            raise NumericalError(
                f"sample slope b{i + 1} undefined: no {var} variation in the sample")

    value = float(estimate_rows(
        ((estimator, m1, m2),), *means, pop.xbar, pop.zbar, *slopes)[0, 0])
    if not math.isfinite(value):
        raise NumericalError(f"estimator {estimator!r} produced a non-finite value")
    return value
