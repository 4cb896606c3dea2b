"""Aggregated relative moments: frozen reference values and guard rails."""
import math
import random

import pytest

from strataux import (
    InputError,
    NumericalError,
    PopulationSummary,
    SampleDesign,
    StratumSummary,
    design_factors,
    embedded_kk2009,
    moment_set,
    parse_microdata,
    reconcile_covariances,
    summarize,
)

# Reference moments for the embedded dataset under prefer-correlation,
# frozen from an independent plain-Python recomputation of the
# W_h^2 * (1/n_h - 1/N_h) aggregation. Frozen at 1e-12 relative: the
# implementation is allowed to order its summations differently.
EXPECTED = {
    "v200": 0.011699878537905353,
    "v020": 0.013162215041983047,
    "v002": 0.005760159122319666,
    "v110": 0.011873517326259126,
    "v101": 0.008015006295303872,
    "v011": 0.00819349699706457,
    "b1": 0.03441304200622267,
    "b2": 1.6520017976819394,
    "ybar": 436.433022751896,
    "xbar": 11440.498483206935,
    "zbar": 367.60082340195015,
}


@pytest.fixture(scope="module")
def embedded_moments():
    pop, design = embedded_kk2009()
    fixed, _ = reconcile_covariances(pop, "prefer-correlation")
    return moment_set(fixed, design)


def test_design_factors_embedded():
    pop, design = embedded_kk2009()
    wf = design_factors(pop, design)
    assert len(wf) == 6
    w1, f1 = wf[0]
    assert w1 == 127 / 923
    assert f1 == pytest.approx(1 / 31 - 1 / 127, rel=1e-15)
    assert f1 == pytest.approx(96 / 3937, rel=1e-15)
    assert math.fsum(w for w, _ in wf) == pytest.approx(1.0, rel=1e-15)


def test_embedded_moments_match_frozen_values(embedded_moments):
    m = embedded_moments
    for name, want in EXPECTED.items():
        assert getattr(m, name) == pytest.approx(want, rel=1e-12), name
    assert not m.census
    assert m.warnings == ()


def test_regression_residual_matches_direct_sum(embedded_moments):
    pop, design = embedded_kk2009()
    fixed, _ = reconcile_covariances(pop, "prefer-correlation")
    wf = design_factors(fixed, design)
    want = math.fsum(
        (w * w * f) * s.s_y ** 2
        * (1 - s.rho_yx ** 2 - s.rho_yz ** 2 + 2 * s.rho_yx * s.rho_yz * s.rho_xz)
        for (w, f), s in zip(wf, fixed.strata)
    )
    assert embedded_moments.regression_residual == pytest.approx(want, rel=1e-12)


def test_moments_match_direct_sum_on_small_population():
    text = "stratum,y,x,z\nA,3,11,6\nA,5,14,9\nA,4,17,7\nB,20,30,40\nB,26,34,46\nB,23,38,43\nB,29,42,49\n"
    pop = summarize(parse_microdata(text))
    design = SampleDesign(n=(2, 2))
    m = moment_set(pop, design)
    wf = design_factors(pop, design)
    g = [w * w * f for w, f in wf]
    ybar, xbar = pop.ybar, pop.xbar
    v200 = sum(g[i] * s.s_y ** 2 for i, s in enumerate(pop.strata)) / ybar ** 2
    v110 = sum(g[i] * s.s_yx for i, s in enumerate(pop.strata)) / (ybar * xbar)
    assert m.v200 == pytest.approx(v200, rel=1e-14)
    assert m.v110 == pytest.approx(v110, rel=1e-14)
    b1 = sum(g[i] * s.rho_yx * s.s_y * s.s_x for i, s in enumerate(pop.strata)) / sum(
        g[i] * s.s_x ** 2 for i, s in enumerate(pop.strata)
    )
    assert m.b1 == pytest.approx(b1, rel=1e-14)


def test_census_design_zeroes_everything():
    text = "stratum,y,x,z\nA,3,11,6\nA,5,14,9\nB,20,30,40\nB,26,34,46\nB,23,38,43\n"
    pop = summarize(parse_microdata(text))
    m = moment_set(pop, SampleDesign(n=(2, 3)))
    assert m.census
    for name in ("v200", "v020", "v002", "v110", "v101", "v011"):
        assert getattr(m, name) == 0.0
    assert m.b1 is None and m.b2 is None
    assert m.regression_residual == 0.0


def test_zero_mean_guard():
    text = "stratum,y,x,z\nA,-1,2,3\nA,1,4,5\nA,0,6,7\n"
    pop = summarize(parse_microdata(text))
    with pytest.raises(NumericalError, match="population mean of y"):
        moment_set(pop, SampleDesign(n=(2,)))
    # negligible relative to the SD counts as zero too
    tiny = StratumSummary(
        h=1, N=50, ybar=5.0, xbar=1e-15, zbar=6.0,
        s_y=1.0, s_x=2.0, s_z=1.5, s_yx=0.5, s_yz=0.3, s_xz=0.6,
        rho_yx=0.25, rho_yz=0.2, rho_xz=0.2,
    )
    with pytest.raises(NumericalError, match="population mean of x"):
        moment_set(PopulationSummary(strata=(tiny,)), SampleDesign(n=(5,)))


def test_out_of_range_moments_are_a_numerical_error():
    # means far from zero relative to their SDs, but a raw covariance that
    # dwarfs their product: v011 = g * s_xz / (xbar * zbar) is about 1e118
    tiny_means = StratumSummary(
        h=1, N=50, ybar=5.0, xbar=1e-60, zbar=1e-60,
        s_y=1.0, s_x=1e-65, s_z=1e-65, s_yx=0.0, s_yz=0.0, s_xz=1.0,
        rho_yx=0.0, rho_yz=0.0, rho_xz=0.5,
    )
    with pytest.raises(NumericalError, match=r"v011 = .* is beyond \+-1e\+100"):
        moment_set(PopulationSummary(strata=(tiny_means,)), SampleDesign(n=(5,)))


def test_zero_auxiliary_variation_has_no_slope():
    flat = StratumSummary(
        h=1, N=50, ybar=5.0, xbar=8.0, zbar=6.0,
        s_y=1.0, s_x=0.0, s_z=1.5, s_yx=0.0, s_yz=0.3, s_xz=0.0,
        rho_yx=0.0, rho_yz=0.2, rho_xz=0.0,
    )
    with pytest.raises(NumericalError, match="combined slope b1 undefined"):
        moment_set(PopulationSummary(strata=(flat,)), SampleDesign(n=(5,)))
    flat_z = StratumSummary(
        h=1, N=50, ybar=5.0, xbar=8.0, zbar=6.0,
        s_y=1.0, s_x=2.0, s_z=0.0, s_yx=0.5, s_yz=0.0, s_xz=0.0,
        rho_yx=0.25, rho_yz=0.0, rho_xz=0.0,
    )
    with pytest.raises(NumericalError, match="combined slope b2 undefined"):
        moment_set(PopulationSummary(strata=(flat_z,)), SampleDesign(n=(5,)))


def test_cauchy_schwarz_violation_warns_without_failing():
    # covariance far beyond s_y*s_x: impossible for a real population,
    # representable in a summary document
    bad = StratumSummary(
        h=1, N=50, ybar=5.0, xbar=8.0, zbar=6.0,
        s_y=1.0, s_x=2.0, s_z=1.5, s_yx=10.0, s_yz=0.3, s_xz=0.6,
        rho_yx=0.5, rho_yz=0.2, rho_xz=0.2,
    )
    m = moment_set(PopulationSummary(strata=(bad,)), SampleDesign(n=(5,)))
    assert len(m.warnings) == 1
    assert "v110" in m.warnings[0] and "Cauchy-Schwarz" in m.warnings[0]
    assert m.v110 > math.sqrt(m.v200 * m.v020)


def test_consistent_population_respects_cauchy_schwarz():
    pop, design = embedded_kk2009()
    fixed, _ = reconcile_covariances(pop, "prefer-correlation")
    m = moment_set(fixed, design)
    tol = 1 + 1e-12
    assert abs(m.v110) <= math.sqrt(m.v200 * m.v020) * tol
    assert abs(m.v101) <= math.sqrt(m.v200 * m.v002) * tol
    assert abs(m.v011) <= math.sqrt(m.v020 * m.v002) * tol


def test_prefer_covariance_column_violates_bounds_and_warns():
    pop, design = embedded_kk2009()
    fixed, _ = reconcile_covariances(pop, "prefer-covariance")
    m = moment_set(fixed, design)
    # the corrupt stratum-3 x-z covariance survives this policy
    assert m.v011 == pytest.approx(1.215716179632853, rel=1e-12)
    assert any("v011" in w for w in m.warnings)


def test_moment_scale_invariance():
    pop, design = embedded_kk2009()
    fixed, _ = reconcile_covariances(pop, "prefer-correlation")
    base = moment_set(fixed, design)

    def scaled(pop, cy, cx, cz):
        out = []
        for s in pop.strata:
            out.append(StratumSummary(
                h=s.h, N=s.N,
                ybar=s.ybar * cy, xbar=s.xbar * cx, zbar=s.zbar * cz,
                s_y=s.s_y * cy, s_x=s.s_x * cx, s_z=s.s_z * cz,
                s_yx=s.s_yx * (cy * cx), s_yz=s.s_yz * (cy * cz),
                s_xz=s.s_xz * (cx * cz),
                rho_yx=s.rho_yx, rho_yz=s.rho_yz, rho_xz=s.rho_xz,
            ))
        return PopulationSummary(strata=tuple(out))

    # power-of-two rescaling is exactly representable: bit equality
    m2 = moment_set(scaled(fixed, 4.0, 0.5, 8.0), design)
    for name in ("v200", "v020", "v002", "v110", "v101", "v011"):
        assert getattr(m2, name) == getattr(base, name)
    # arbitrary rescaling holds to roundoff
    m3 = moment_set(scaled(fixed, 3.7, 0.41, 12.9), design)
    for name in ("v200", "v020", "v002", "v110", "v101", "v011"):
        assert getattr(m3, name) == pytest.approx(getattr(base, name), rel=1e-12)
    # slopes carry units: b1 ~ y/x
    assert m3.b1 == pytest.approx(base.b1 * 3.7 / 0.41, rel=1e-12)
    assert m3.b2 == pytest.approx(base.b2 * 3.7 / 12.9, rel=1e-12)


def _oracle_moments(pop, design):
    """Every MomentSet field but warnings, from the per-stratum 9-tuples and
    zip(*terms) that moment_set summed before its design-free columns were
    cached: the bit-for-bit reference for the column-by-column sums."""
    wf = [(w, 1.0 / n_h - 1.0 / s.N) for w, s, n_h in zip(pop.weights, pop.strata, design.n)]
    terms = [
        (g * s.s_y ** 2, g * s.s_x ** 2, g * s.s_z ** 2, g * s.s_yx, g * s.s_yz, g * s.s_xz,
         g * s.rho_yx * s.s_y * s.s_x, g * s.rho_yz * s.s_y * s.s_z,
         g * s.s_y ** 2
         * (1.0 - s.rho_yx ** 2 - s.rho_yz ** 2 + 2.0 * s.rho_yx * s.rho_yz * s.rho_xz))
        for g, s in zip((w * w * f for (w, f) in wf), pop.strata)
    ]
    syy, sxx, szz, syx, syz, sxz, cyx, cyz, resid = map(math.fsum, zip(*terms))
    ybar, xbar, zbar = pop.ybar, pop.xbar, pop.zbar
    census = all(f == 0.0 for (_, f) in wf)
    return {
        "v200": syy / ybar**2, "v020": sxx / xbar**2, "v002": szz / zbar**2,
        "v110": syx / (ybar * xbar), "v101": syz / (ybar * zbar), "v011": sxz / (xbar * zbar),
        "ybar": ybar, "xbar": xbar, "zbar": zbar,
        "b1": None if census else cyx / sxx, "b2": None if census else cyz / szz,
        "census": census, "regression_residual": resid,
    }


def _random_summary(rnd, L):
    strata = []
    for h in range(1, L + 1):
        s_y, s_x, s_z = (rnd.lognormvariate(0.0, 2.0) for _ in range(3))
        r_yx, r_yz, r_xz = (rnd.uniform(-0.95, 0.95) for _ in range(3))
        # covariances a little off rho*s*s, as in an unreconciled summary
        jitter = [rnd.uniform(0.9, 1.1) for _ in range(3)]
        strata.append(StratumSummary(
            h=h, N=rnd.randint(2, 300),
            ybar=rnd.uniform(-50.0, 200.0) or 1.0, xbar=rnd.lognormvariate(3.0, 2.0),
            zbar=rnd.uniform(5.0, 80.0), s_y=s_y, s_x=s_x, s_z=s_z,
            s_yx=r_yx * s_y * s_x * jitter[0], s_yz=r_yz * s_y * s_z * jitter[1],
            s_xz=r_xz * s_x * s_z * jitter[2], rho_yx=r_yx, rho_yz=r_yz, rho_xz=r_xz,
        ))
    return PopulationSummary(strata=tuple(strata))


def _bit_cases():
    rnd = random.Random(20261019)
    for L in (1, 6, 64):
        for _ in range(25):
            pop = _random_summary(rnd, L)
            # some strata fully sampled (f_h = 0), one design a census
            yield pop, SampleDesign(n=tuple(
                s.N if rnd.random() < 0.2 else rnd.randint(1, s.N) for s in pop.strata))
        yield pop, SampleDesign(n=tuple(s.N for s in pop.strata))
    pop, design = embedded_kk2009()
    yield pop, design
    for policy in ("prefer-correlation", "prefer-covariance"):
        yield reconcile_covariances(pop, policy)[0], design


def test_moment_set_keeps_the_bits_of_per_stratum_sums():
    cases = list(_bit_cases())
    assert sum(moment_set(p, d).census for p, d in cases) >= 3
    for pop, design in cases:
        got = moment_set(pop, design)
        for name, want in _oracle_moments(pop, design).items():
            assert repr(getattr(got, name)) == repr(want), (pop.L, design.n, name)
