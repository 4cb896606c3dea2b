"""First-order MSE formulas, tuning optimum and printed-form diagnostics."""
import dataclasses
import math
import random
from pathlib import Path

import pytest

from strataux import (
    InputError,
    MomentSet,
    NumericalError,
    SampleDesign,
    bias_tp,
    embedded_kk2009,
    min_mse_tp,
    moment_set,
    mse_classic,
    mse_tp,
    optimal_m,
    parse_microdata,
    parse_summary,
    reconcile_covariances,
    summarize,
    tp_diagnostics,
    variance_mean,
)
from strataux.mse_theory import classic_breakdown

# Frozen from an independent plain-Python recomputation on the embedded
# dataset under prefer-correlation (1e-12 relative; summation order may
# differ). The regression value uses the correlation-residual form.
EXPECTED_MSE = {
    "mean": 2228.5201298310753,
    "ratio": 212.38949255255287,
    "exp_ratio_x": 593.6905871190232,
    "exp_ratio_xz": 121.65502561293617,
    "exp_product_xz": 7698.139704437475,
    "exp_ratio_x_product_z": 1614.3057989834992,
    "exp_product_x_ratio_z": 3084.1961872983325,
    "regression": 2051.602952249385,
}
EXPECTED_REGRESSION_SLOPE_FORM = 1982.0011816359013
EXPECTED_OPT = (-1.1771177911944053, -0.8919633278800005)
EXPECTED_MIN_MSE = 76.03100115825606
EXPECTED_PRINTED_OPT = (0.03372615454240018, -0.015140942243695207)


@pytest.fixture(scope="module")
def m_rho():
    pop, design = embedded_kk2009()
    fixed, _ = reconcile_covariances(pop, "prefer-correlation")
    return moment_set(fixed, design)


@pytest.fixture(scope="module")
def m_cov():
    pop, design = embedded_kk2009()
    fixed, _ = reconcile_covariances(pop, "prefer-covariance")
    return moment_set(fixed, design)


def _random_moment_set(rnd, with_slopes=True):
    """A valid MomentSet built from a positive definite correlation core."""
    core = [[rnd.gauss(0, 1) for _ in range(3)] for _ in range(3)]
    m = [[sum(core[i][k] * core[j][k] for k in range(3)) + (0.5 if i == j else 0.0)
          for j in range(3)] for i in range(3)]
    d = [math.sqrt(m[i][i]) for i in range(3)]
    corr = [[m[i][j] / (d[i] * d[j]) for j in range(3)] for i in range(3)]
    cv = [rnd.uniform(0.1, 0.4) for _ in range(3)]
    f = rnd.uniform(0.002, 0.08)
    v = [[corr[i][j] * cv[i] * cv[j] * f for j in range(3)] for i in range(3)]
    ybar = rnd.uniform(50, 5000)
    xbar = rnd.uniform(50, 5000)
    zbar = rnd.uniform(50, 5000)
    d1 = rnd.uniform(-2, 2) if with_slopes else 0.0
    d2 = rnd.uniform(-2, 2) if with_slopes else 0.0
    return MomentSet(
        v200=v[0][0], v020=v[1][1], v002=v[2][2],
        v110=v[0][1], v101=v[0][2], v011=v[1][2],
        ybar=ybar, xbar=xbar, zbar=zbar,
        b1=d1 * ybar / xbar, b2=d2 * ybar / zbar,
    )


def test_variance_of_mean(m_rho):
    assert variance_mean(m_rho) == pytest.approx(2228.5201298310753, rel=1e-12)
    assert mse_classic("mean", m_rho) == variance_mean(m_rho)


def test_classic_mses_match_frozen_values(m_rho):
    for est, want in EXPECTED_MSE.items():
        assert mse_classic(est, m_rho) == pytest.approx(want, rel=1e-12), est


def test_classic_mses_match_direct_formulas(m_rho):
    # recompute from the moment fields with independent arithmetic
    m = m_rho
    y2 = m.ybar ** 2
    assert mse_classic("ratio", m) == pytest.approx(
        y2 * (m.v200 + m.v020 - 2 * m.v110), rel=1e-12)
    assert mse_classic("exp_ratio_x", m) == pytest.approx(
        y2 * (m.v200 + m.v020 / 4 - m.v110), rel=1e-12)
    assert mse_classic("exp_ratio_xz", m) == pytest.approx(
        y2 * (m.v200 + m.v020 / 4 + m.v002 / 4 + m.v011 / 2 - m.v110 - m.v101),
        rel=1e-12)
    assert mse_classic("exp_product_xz", m) == pytest.approx(
        y2 * (m.v200 + m.v020 / 4 + m.v002 / 4 + m.v011 / 2 + m.v110 + m.v101),
        rel=1e-12)
    assert mse_classic("exp_ratio_x_product_z", m) == pytest.approx(
        y2 * (m.v200 + m.v020 / 4 + m.v002 / 4 - m.v011 / 2 - m.v110 + m.v101),
        rel=1e-12)
    assert mse_classic("exp_product_x_ratio_z", m) == pytest.approx(
        y2 * (m.v200 + m.v020 / 4 + m.v002 / 4 - m.v011 / 2 + m.v110 - m.v101),
        rel=1e-12)


def test_regression_mse_uses_residual_form_when_available(m_rho):
    assert m_rho.regression_residual is not None
    assert mse_classic("regression", m_rho) == m_rho.regression_residual

    stripped = dataclasses.replace(m_rho, regression_residual=None)
    slope_form = mse_classic("regression", stripped)
    assert slope_form == pytest.approx(EXPECTED_REGRESSION_SLOPE_FORM, rel=1e-12)
    # the slope form is the tuned quadratic at neutral exponents
    assert slope_form == mse_tp(stripped, 0.0, 0.0).mse


def test_nesting_identities_are_bitwise(m_rho):
    rnd = random.Random(202608)
    cases = [_random_moment_set(rnd) for _ in range(50)]
    cases.append(m_rho)
    pairs = [
        ("exp_ratio_xz", 1.0, 1.0),
        ("exp_product_xz", -1.0, -1.0),
        ("exp_ratio_x_product_z", 1.0, -1.0),
        ("exp_product_x_ratio_z", -1.0, 1.0),
        ("exp_ratio_x", 1.0, 0.0),
        ("ratio", 2.0, 0.0),
        ("mean", 0.0, 0.0),
    ]
    for ms in cases:
        neutral = dataclasses.replace(ms, b1=0.0, b2=0.0, regression_residual=None)
        for est, m1, m2 in pairs:
            assert mse_classic(est, neutral) == mse_tp(neutral, m1, m2).mse, est
        slope_only = dataclasses.replace(ms, regression_residual=None)
        assert mse_classic("regression", slope_only) == mse_tp(slope_only, 0.0, 0.0).mse


def test_optimal_m_matches_frozen_values(m_rho):
    m1s, m2s = optimal_m(m_rho)
    assert m1s == pytest.approx(EXPECTED_OPT[0], rel=1e-10)
    assert m2s == pytest.approx(EXPECTED_OPT[1], rel=1e-10)
    best = min_mse_tp(m_rho)
    assert best.mse == pytest.approx(EXPECTED_MIN_MSE, rel=1e-10)
    assert best.mse == mse_tp(m_rho, m1s, m2s).mse
    assert (best.m1, best.m2) == (m1s, m2s)


def test_optimum_is_a_minimum(m_rho):
    m1s, m2s = optimal_m(m_rho)
    best = mse_tp(m_rho, m1s, m2s).mse
    for dm1, dm2 in ((1e-3, 0.0), (-1e-3, 0.0), (0.0, 1e-3), (0.0, -1e-3),
                     (7e-4, -7e-4)):
        assert mse_tp(m_rho, m1s + dm1, m2s + dm2).mse > best


def test_optimum_stationarity_on_random_moments():
    rnd = random.Random(77)
    for _ in range(100):
        ms = _random_moment_set(rnd)
        m1s, m2s = optimal_m(ms)
        best = mse_tp(ms, m1s, m2s).mse
        scale = max(abs(best), ms.ybar ** 2 * ms.v200)
        h = 1e-4
        for dm1, dm2 in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
            assert mse_tp(ms, m1s + dm1, m2s + dm2).mse >= best - 1e-12 * scale


def test_optimal_m_failure_modes(m_rho, m_cov):
    flat = dataclasses.replace(m_rho, v020=0.0, v002=0.0, v011=0.0)
    with pytest.raises(NumericalError, match="degenerate"):
        optimal_m(flat)
    with pytest.raises(NumericalError, match="indefinite"):
        optimal_m(m_cov)  # corrupt covariances make v011^2 > v020*v002
    collinear = dataclasses.replace(m_rho, v020=0.04, v002=0.01, v011=0.02)
    with pytest.raises(NumericalError, match="near-singular"):
        optimal_m(collinear)


def test_mse_tp_breakdown_reassembles(m_rho):
    for m1, m2 in ((1.0, 1.0), (0.0, 0.0), (-1.2, 0.7), EXPECTED_OPT):
        bd = mse_tp(m_rho, m1, m2)
        rebuilt = (m_rho.ybar ** 2 * (m_rho.v200 + bd.p1)
                   + bd.p2 - m_rho.ybar * bd.p3)
        assert rebuilt == pytest.approx(bd.mse, rel=1e-10)
        assert bd.bias == bias_tp(m_rho, m1, m2)
        assert bd.warning is None


def test_bias_formula_verbatim(m_rho):
    m1, m2 = 0.8, -0.5
    want = m_rho.ybar * (
        m1 * m1 * m_rho.v020 / 4 + m2 * m2 * m_rho.v002 / 4
        - m1 * m2 * m_rho.v011 / 4
        - m1 * m_rho.v110 / 2 - m2 * m_rho.v101 / 2
    )
    assert bias_tp(m_rho, m1, m2) == pytest.approx(want, rel=1e-13)
    assert bias_tp(m_rho, 0.0, 0.0) == 0.0


def test_non_finite_parameters_rejected(m_rho):
    with pytest.raises(InputError, match="must be finite"):
        mse_tp(m_rho, math.nan, 0.0)
    with pytest.raises(InputError, match="must be finite"):
        mse_tp(m_rho, 0.0, math.inf)
    with pytest.raises(InputError, match=r"m1 is beyond \+-1e\+100"):
        mse_tp(m_rho, 10 ** 400, 1.0)  # an int beyond float range
    with pytest.raises(InputError, match="no closed-form MSE"):
        mse_classic("exp_regression", m_rho)
    with pytest.raises(InputError, match="no closed-form MSE"):
        mse_classic("median", m_rho)


def test_negative_first_order_mse_warns():
    # cross moments violating Cauchy-Schwarz push the quadratic negative
    ms = MomentSet(
        v200=0.01, v020=0.01, v002=0.02, v110=0.09, v101=0.0, v011=0.0,
        ybar=100.0, xbar=80.0, zbar=60.0, b1=0.0, b2=0.0,
    )
    bd = mse_tp(ms, 18.0, 0.0)  # a1 = 9 lands deep in the negative region
    assert bd.mse < 0.0
    assert bd.warning is not None and "negative" in bd.warning


def test_prefer_covariance_column_goes_negative(m_cov):
    t5 = classic_breakdown("exp_ratio_x_product_z", m_cov)
    t6 = classic_breakdown("exp_product_x_ratio_z", m_cov)
    assert t5.mse == pytest.approx(-113295.4285, abs=0.01)
    assert t6.mse == pytest.approx(-112007.4833, abs=0.01)
    assert t5.warning is not None and t6.warning is not None


def test_census_moments_give_zero_mse():
    text = "stratum,y,x,z\nA,3,11,6\nA,5,14,9\nB,20,30,40\nB,26,34,46\n"
    pop = summarize(parse_microdata(text))
    m = moment_set(pop, SampleDesign(n=(2, 2)))
    assert variance_mean(m) == 0.0
    for est in EXPECTED_MSE:
        assert mse_classic(est, m) == 0.0, est
    assert mse_tp(m, 1.0, 1.0).mse == 0.0
    assert bias_tp(m, 1.0, 1.0) == 0.0
    with pytest.raises(NumericalError, match="degenerate"):
        optimal_m(m)


def test_diagnostics_expose_printed_variants(m_rho):
    m1s, m2s = optimal_m(m_rho)
    diag = tp_diagnostics(m_rho, m1s, m2s)
    assert diag.implemented_mse == mse_tp(m_rho, m1s, m2s).mse
    assert diag.printed_p1 == diag.p1  # the exponent part agrees
    assert (diag.printed_p2, diag.printed_p3) != (diag.p2, diag.p3)
    assert (diag.solved_m1, diag.solved_m2) == (m1s, m2s)
    assert diag.printed_m1 == pytest.approx(EXPECTED_PRINTED_OPT[0], rel=1e-10)
    assert diag.printed_m2 == pytest.approx(EXPECTED_PRINTED_OPT[1], rel=1e-10)
    # the printed m2 numerator cancels down to -4*b2*det, so m2 = -4*b2/ybar
    assert diag.printed_m2 == pytest.approx(-4.0 * m_rho.b2 / m_rho.ybar, rel=1e-12)
    # printed P2/P3 drop the mean scale factors entirely
    b1, b2 = m_rho.b1, m_rho.b2
    want_p2 = (b1 ** 2 * m_rho.v020 + b2 ** 2 * m_rho.v002
               + 2 * b1 * b2 * m_rho.v011)
    assert diag.printed_p2 == pytest.approx(want_p2, rel=1e-12)


def test_diagnostics_survive_singular_optimum(m_rho):
    collinear = dataclasses.replace(m_rho, v020=0.04, v002=0.01, v011=0.02)
    diag = tp_diagnostics(collinear, 1.0, 1.0)
    assert diag.printed_m1 is None and diag.printed_m2 is None
    assert math.isnan(diag.solved_m1) and math.isnan(diag.solved_m2)
    assert math.isfinite(diag.implemented_mse)


def test_scale_equivariance_of_mse():
    rnd = random.Random(15)
    for _ in range(25):
        ms = _random_moment_set(rnd)
        c = 3.25
        scaled = dataclasses.replace(
            ms, ybar=ms.ybar * c,
            b1=None if ms.b1 is None else ms.b1 * c,
            b2=None if ms.b2 is None else ms.b2 * c,
        )
        for est in ("mean", "ratio", "exp_ratio_xz", "regression"):
            assert mse_classic(est, scaled) == pytest.approx(
                c * c * mse_classic(est, ms), rel=1e-12), est
        assert mse_tp(scaled, 0.7, -0.3).mse == pytest.approx(
            c * c * mse_tp(ms, 0.7, -0.3).mse, rel=1e-12)
        a = optimal_m(ms)
        b = optimal_m(scaled)
        assert b[0] == pytest.approx(a[0], rel=1e-9)
        assert b[1] == pytest.approx(a[1], rel=1e-9)


def _slope_free_minimum(m):
    # Ybar^2 (v200 - q'V^-1 q), q = (v110, v101), V the auxiliary moment matrix
    det = m.v020 * m.v002 - m.v011 * m.v011
    quad = (m.v110 * m.v110 * m.v002 - 2.0 * m.v110 * m.v101 * m.v011
            + m.v101 * m.v101 * m.v020) / det
    return m.ybar ** 2 * (m.v200 - quad)


def test_tuned_minimum_does_not_depend_on_the_slopes():
    # The slopes only shift the quadratic's centre; its minimum stays put.
    # The closed form itself cancels (v200 against q'V^-1 q), so agreement
    # is a relative 1e-12, not a few ulp.
    data = Path(__file__).resolve().parents[1] / "bench" / "data"
    pops = [embedded_kk2009()[0]] + [
        parse_summary((data / name).read_text())
        for name in ("kk2009_summary.json", "strata64_summary.json")]
    rnd = random.Random(16)
    checked = 0
    for pop in pops:
        fixed, _ = reconcile_covariances(pop, "prefer-correlation")
        designs = [SampleDesign(n=tuple(rnd.randint(2, max(2, s.N // 3)) for s in fixed.strata))
                   for _ in range(6)]
        if pop is pops[0]:
            designs.append(embedded_kk2009()[1])
        for design in designs:
            m = moment_set(fixed, design)
            want = _slope_free_minimum(m)
            for b1, b2 in ((m.b1, m.b2), (0.0, 0.0), (-3.5 * m.b1 - 1.0, 7.25 * m.b2 + 2.0)):
                moved = dataclasses.replace(m, b1=b1, b2=b2)
                assert min_mse_tp(moved).mse == pytest.approx(want, rel=1e-12), (design, b1, b2)
                checked += 1
    assert checked == 3 * 19
