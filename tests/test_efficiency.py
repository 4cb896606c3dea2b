"""PRE tables, dominance gaps and the embedded-dataset reproduction."""
import dataclasses
import math

import pytest

import strataux.mse_theory
from strataux import (
    ESTIMATOR_ORDER,
    MomentSet,
    NumericalError,
    PopulationSummary,
    SampleDesign,
    StratumSummary,
    dominance_report,
    embedded_kk2009,
    min_mse_tp,
    moment_set,
    mse_classic,
    optimal_m,
    parse_microdata,
    pre_table,
    reconcile_covariances,
    reproduce_kk2009,
    summarize,
    tp_diagnostics,
)
from strataux.efficiency import PUBLISHED_PRE

# Frozen PRE values for the embedded dataset under prefer-correlation,
# from an independent recomputation (1e-10 relative).
EXPECTED_PRE = {
    "mean": 100.0,
    "ratio": 1049.261007711885,
    "exp_ratio_x": 375.36726675174674,
    "exp_ratio_xz": 1831.8356505233482,
    "exp_product_xz": 28.948813809477617,
    "exp_ratio_x_product_z": 138.04820197228656,
    "exp_product_x_ratio_z": 72.25610805852125,
    "regression": 108.62336337485368,
    "exp_regression": 2931.067716959932,
}

COMPUTED_RANKING = (
    "exp_regression", "exp_ratio_xz", "ratio", "exp_ratio_x",
    "exp_ratio_x_product_z", "regression", "mean",
    "exp_product_x_ratio_z", "exp_product_xz",
)
PUBLISHED_RANKING = (
    "exp_regression", "regression", "exp_ratio_xz", "ratio", "exp_ratio_x",
    "exp_ratio_x_product_z", "mean", "exp_product_x_ratio_z", "exp_product_xz",
)


@pytest.fixture(scope="module")
def m_rho():
    pop, design = embedded_kk2009()
    fixed, _ = reconcile_covariances(pop, "prefer-correlation")
    return moment_set(fixed, design)


def test_published_values_stored_verbatim():
    assert PUBLISHED_PRE["exp_regression"] == 4656.35
    assert PUBLISHED_PRE["exp_product_xz"] == 27.94
    assert PUBLISHED_PRE["mean"] == 100.0
    assert set(PUBLISHED_PRE) == set(ESTIMATOR_ORDER)


def test_pre_table_matches_frozen_values(m_rho):
    report = pre_table(m_rho)
    assert [r.estimator for r in report.rows] == list(ESTIMATOR_ORDER)
    for row in report.rows:
        assert row.pre == pytest.approx(EXPECTED_PRE[row.estimator], rel=1e-10)
        assert row.warning == ""
    assert report.row("mean").pre == 100.0  # identity, not approximation
    assert report.m1_opt == pytest.approx(-1.1771177911944053, rel=1e-10)
    assert report.m2_opt == pytest.approx(-0.8919633278800005, rel=1e-10)


def test_pre_table_ranks_and_deltas(m_rho):
    report = pre_table(m_rho)
    by_rank = sorted(report.rows, key=lambda r: r.rank)
    assert tuple(r.estimator for r in by_rank) == COMPUTED_RANKING
    tuned = report.row("exp_regression")
    assert tuned.rank == 1
    assert tuned.delta_vs_tuned == 0.0
    assert report.row("exp_product_xz").rank == 9
    with pytest.raises(KeyError):
        report.row("exp_regression_opt")
    best = min_mse_tp(m_rho).mse
    for row in report.rows:
        assert row.delta_vs_tuned == row.mse - best


def test_pre_is_scale_free(m_rho):
    import dataclasses

    scaled = dataclasses.replace(
        m_rho, ybar=m_rho.ybar * 7.5, b1=m_rho.b1 * 7.5, b2=m_rho.b2 * 7.5,
        regression_residual=m_rho.regression_residual * 7.5 ** 2)
    a = pre_table(m_rho)
    b = pre_table(scaled)
    for ra, rb in zip(a.rows, b.rows):
        assert rb.pre == pytest.approx(ra.pre, rel=1e-10)
        assert rb.rank == ra.rank


def test_census_pre_table_is_undefined():
    pop = summarize(parse_microdata(
        "stratum,y,x,z\nA,3,11,6\nA,5,14,9\nB,20,30,40\nB,26,34,46\n"))
    m = moment_set(pop, SampleDesign(n=(2, 2)))
    report = pre_table(m)
    for row in report.rows:
        assert row.mse == 0.0 and row.pre is None and row.rank is None
        assert "census" in row.warning
    assert report.m1_opt is None and report.m2_opt is None


def test_zero_mse_row_has_no_pre_and_no_rank():
    # y exactly linear in x within each stratum, with different slopes, and
    # z unrelated: the correlation-based regression residual is exactly 0,
    # while the tuned quadratic, on the pooled slope, stays above it
    strata = tuple(
        StratumSummary(h=h, N=N, ybar=ybar, xbar=xbar, zbar=30.0, s_y=s_y, s_x=s_x, s_z=3.0,
                       s_yx=s_y * s_x, s_yz=0.0, s_xz=0.0, rho_yx=1.0, rho_yz=0.0, rho_xz=0.0)
        for h, N, ybar, xbar, s_y, s_x in ((1, 20, 10.0, 8.0, 2.0, 4.0), (2, 30, 12.0, 9.0, 5.0, 2.0))
    )
    m = moment_set(PopulationSummary(strata=strata), SampleDesign(n=(5, 6)))
    report = pre_table(m)
    reg = report.row("regression")
    assert reg.mse == 0.0 and reg.pre is None and reg.rank is None
    assert reg.warning == "PRE undefined: zero MSE"
    dom = {d.estimator: d for d in report.dominance}["regression"]
    assert dom.delta < 0.0 and not dom.satisfied and "residual" in dom.note
    assert (report.m1_opt, report.m2_opt) == (0.0, 0.0)


def test_dominance_on_embedded_dataset(m_rho):
    rows = dominance_report(m_rho)
    assert [r.estimator for r in rows] == [
        e for e in ESTIMATOR_ORDER if e != "exp_regression"]
    for r in rows:
        assert r.satisfied and r.delta > 0.0, r.estimator
        assert r.note == ""


def test_dominance_flags_residual_beating_the_quadratic():
    # an unrealizable correlation triple (rho_yx^2 + rho_yz^2 > 1 with
    # rho_xz = 0) drives the regression residual below the tuned optimum
    s = StratumSummary(
        h=1, N=60, ybar=100.0, xbar=80.0, zbar=50.0,
        s_y=10.0, s_x=8.0, s_z=5.0,
        s_yx=0.8 * 10 * 8, s_yz=0.8 * 10 * 5, s_xz=0.0,
        rho_yx=0.8, rho_yz=0.8, rho_xz=0.0,
    )
    m = moment_set(PopulationSummary(strata=(s,)), SampleDesign(n=(10,)))
    assert m.regression_residual < 0.0
    rows = {r.estimator: r for r in dominance_report(m)}
    reg = rows["regression"]
    assert not reg.satisfied and reg.delta < 0.0
    assert "residual" in reg.note


def test_dominance_is_the_pre_table_view(m_rho):
    report = pre_table(m_rho)
    assert dominance_report(m_rho) == report.dominance
    assert [d.estimator for d in report.dominance] == [
        e for e in ESTIMATOR_ORDER if e != "exp_regression"]
    for d in report.dominance:
        assert d.delta == report.row(d.estimator).delta_vs_tuned
        assert d.satisfied == (d.delta >= 0.0)


def test_census_dominance_is_empty():
    pop = summarize(parse_microdata(
        "stratum,y,x,z\nA,3,11,6\nA,5,14,9\nB,20,30,40\nB,26,34,46\n"))
    m = moment_set(pop, SampleDesign(n=(2, 2)))
    assert dominance_report(m) == ()
    assert pre_table(m).dominance == ()


def test_regression_note_needs_the_residual_form():
    s = StratumSummary(
        h=1, N=60, ybar=100.0, xbar=80.0, zbar=50.0,
        s_y=10.0, s_x=8.0, s_z=5.0,
        s_yx=0.8 * 10 * 8, s_yz=0.8 * 10 * 5, s_xz=0.0,
        rho_yx=0.8, rho_yz=0.8, rho_xz=0.0,
    )
    m = moment_set(PopulationSummary(strata=(s,)), SampleDesign(n=(10,)))
    assert "residual" in {r.estimator: r for r in dominance_report(m)}["regression"].note
    raw = dataclasses.replace(m, regression_residual=None)
    assert {r.estimator: r for r in dominance_report(raw)}["regression"].note == ""
    # slopes at the stationary point: the regression MSE is the tuned
    # quadratic at its minimum, and rounding leaves the gap just below zero
    at_opt = MomentSet(
        v200=1.0, v020=0.7075595715734825, v002=0.681394037324178,
        v110=-0.27940025197732343, v101=0.4755945178178834, v011=0.031039106640800843,
        ybar=100.0, xbar=80.0, zbar=50.0, b1=-0.5329366142830482, b2=1.4347880731692841,
    )
    reg = {r.estimator: r for r in dominance_report(at_opt)}["regression"]
    assert reg.delta < 0.0 and not reg.satisfied
    assert reg.note == ""
    with_residual = dataclasses.replace(
        at_opt, regression_residual=mse_classic("regression", at_opt))
    reg = {r.estimator: r for r in dominance_report(with_residual)}["regression"]
    assert reg.delta < 0.0 and "residual" in reg.note


def _fresh_moments():
    pop, design = embedded_kk2009()
    return moment_set(reconcile_covariances(pop, "prefer-correlation")[0], design)


@pytest.fixture
def solves(monkeypatch):
    calls = []
    solve = strataux.mse_theory._solve_optimum
    monkeypatch.setattr(strataux.mse_theory, "_solve_optimum",
                        lambda m: calls.append(m) or solve(m))
    return calls


def test_pre_report_is_built_once_per_moment_set(solves):
    m = _fresh_moments()
    report = pre_table(m)
    assert pre_table(m) is report
    assert dominance_report(m) is report.dominance
    assert len(solves) == 1
    doubled = dataclasses.replace(m, v200=2 * m.v200)
    other = pre_table(doubled)
    assert other is not report and other != report
    assert other.row("mean").mse == 2 * report.row("mean").mse
    assert len(solves) == 2


def test_pre_report_memo_is_invisible_to_the_value():
    m = _fresh_moments()
    before = (dataclasses.asdict(m), repr(m), hash(m))
    pre_table(m)
    assert (dataclasses.asdict(m), repr(m), hash(m)) == before
    assert m == dataclasses.replace(m)


def test_pre_report_errors_are_not_kept(solves):
    collinear = dataclasses.replace(_fresh_moments(), v020=0.04, v002=0.01, v011=0.02)
    messages = []
    for _ in range(2):
        with pytest.raises(NumericalError, match="near-singular") as err:
            pre_table(collinear)
        messages.append(str(err.value))
    assert messages[0] == messages[1] and len(solves) == 2


def test_equal_moment_sets_with_signed_zeros_get_their_own_reports():
    m = dataclasses.replace(_fresh_moments(), v110=0.0)
    negative = dataclasses.replace(m, v110=-0.0)
    assert m == negative and hash(m) == hash(negative)
    assert pre_table(m) is not pre_table(negative)
    assert pre_table(negative) is pre_table(negative)


def test_optimum_is_solved_once_per_moment_set(solves):
    m = _fresh_moments()
    opt = optimal_m(m)
    report = pre_table(m)
    dominance_report(m)
    diag = tp_diagnostics(m, *opt)
    assert optimal_m(m) is opt and len(solves) == 1
    assert (report.m1_opt, report.m2_opt) == opt == (diag.solved_m1, diag.solved_m2)
    assert report.row("exp_regression").mse == min_mse_tp(m).mse == diag.implemented_mse
    assert len(solves) == 1


def test_replaced_moment_set_solves_its_own_optimum(solves):
    m = _fresh_moments()
    opt = optimal_m(m)
    moved = dataclasses.replace(m, v110=2 * m.v110)
    assert optimal_m(moved) != opt and len(solves) == 2
    assert optimal_m(dataclasses.replace(m)) == opt and len(solves) == 3
    assert optimal_m(m) is opt and len(solves) == 3


def test_optimum_memo_is_invisible_to_the_value():
    m = _fresh_moments()
    before = (dataclasses.asdict(m), repr(m), hash(m))
    optimal_m(m)
    tp_diagnostics(m, 1.0, 1.0)
    assert (dataclasses.asdict(m), repr(m), hash(m)) == before
    assert m == dataclasses.replace(m)


def test_optimum_errors_are_not_kept(solves):
    pop, _ = embedded_kk2009()
    census = moment_set(pop, SampleDesign(n=tuple(s.N for s in pop.strata)))
    collinear = dataclasses.replace(_fresh_moments(), v020=0.04, v002=0.01, v011=0.02)
    for m, match in ((census, "census design"), (collinear, "near-singular")):
        solves.clear()
        messages = []
        for _ in range(2):
            with pytest.raises(NumericalError, match=match) as err:
                optimal_m(m)
            messages.append(str(err.value))
        diag = tp_diagnostics(m, 1.0, 1.0)
        assert math.isnan(diag.solved_m1) and math.isnan(diag.solved_m2)
        assert messages[0] == messages[1] and len(solves) == 3


def test_reproduction_report_structure():
    rep = reproduce_kk2009()
    assert [r.estimator for r in rep.rows] == list(ESTIMATOR_ORDER)
    assert rep.published_ranking == PUBLISHED_RANKING
    assert rep.computed_ranking == COMPUTED_RANKING
    for row in rep.rows:
        assert row.published_pre == PUBLISHED_PRE[row.estimator]
        assert row.delta is not None  # every row carries its delta
        assert row.delta == row.pre - row.published_pre
    mean_row = rep.rows[0]
    assert mean_row.estimator == "mean"
    assert mean_row.pre == 100.0
    assert mean_row.delta == 0.0


def test_reproduction_flags_rank_mismatches():
    rep = reproduce_kk2009()
    mismatched = {r.estimator for r in rep.rows if r.rank_mismatch}
    assert mismatched == {
        "ratio", "exp_ratio_x", "exp_ratio_xz", "exp_ratio_x_product_z",
        "regression",
    }
    for row in rep.rows:
        assert row.rank_mismatch == (row.rank != row.published_rank)
    assert any("disagrees with the published ranking" in n for n in rep.notes)


def test_reproduction_repair_logs():
    rep = reproduce_kk2009()
    repaired = {(e.h, e.pair) for e in rep.repairs_correlation.repaired}
    assert repaired == {(3, "xz"), (4, "yx"), (4, "yz"), (5, "yx"), (5, "xz")}
    assert {(e.h, e.pair) for e in rep.repairs_covariance.repaired} == {
        (4, "yx"), (4, "yz"), (5, "yx"), (5, "xz")}
    assert rep.m1_opt == pytest.approx(-1.1771177911944053, rel=1e-10)
    assert rep.m2_opt == pytest.approx(-0.8919633278800005, rel=1e-10)


def test_reproduction_covariance_column_degrades_but_reports():
    rep = reproduce_kk2009()
    tuned = rep.rows[-1]
    assert tuned.estimator == "exp_regression"
    assert tuned.pre_covariance is None
    assert "tuned optimum unavailable" in tuned.covariance_note
    t5 = next(r for r in rep.rows if r.estimator == "exp_ratio_x_product_z")
    assert t5.pre_covariance is not None and t5.pre_covariance < 0.0
    assert any("negative first-order MSE" in n for n in rep.notes)
    assert any("zbar in stratum 4" in n for n in rep.notes)
