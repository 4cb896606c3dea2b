"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

# the tracer imports strataux.cli to wrap main; import it before any snapshot
import strataux.cli  # noqa: E402

import run  # noqa: E402
import workloads as wls  # noqa: E402
from tracing import LAYER_FUNCTIONS, Tracer  # noqa: E402


def tiny(name: str, seed: int):
    return {
        "mc-small-strata": lambda: wls.McSmallStrata(seed, R=200),
        "mc-large-strata": lambda: wls.McLargeStrata(seed, L=3, N_h=300, n_h=10, R=100),
        "theory-sweep": lambda: wls.TheorySweep(seed),
        "cli-reference": lambda: wls.CliReference(seed, R=100),
    }[name]()


@pytest.fixture
def workload(request):
    wl = tiny(*request.param)
    wl.setup()
    yield wl
    if hasattr(wl, "close"):
        wl.close()


ALL = [(name, seed) for seed in (1, 2) for name in wls.WORKLOADS]


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wls.WORKLOADS)


@pytest.mark.parametrize("workload", ALL, indirect=True, ids=[f"{n}-seed{s}" for n, s in ALL])
def test_every_operation_of_a_cycle_passes_its_checks(workload):
    for i in range(workload.cycle):
        assert workload.check(i, workload.run(i)) == []


def _simulation(wl):
    return dataclasses.asdict(wl.run(0))


@pytest.mark.parametrize("workload", [("mc-large-strata", 1)], indirect=True)
def test_simulation_check_fires_on_corrupt_reports(workload):
    good = _simulation(workload)
    expected = dict(fingerprint=workload.fingerprints["population"],
                    variance=workload.variance, R=workload.R, n_rows=len(good["rows"]))
    assert wls.check_simulation(good, **expected) == []

    def corrupt(edit):
        bad = json.loads(json.dumps(good))
        edit(bad, {r["estimator"]: r for r in bad["rows"]})
        return wls.check_simulation(bad, **expected)

    assert corrupt(lambda rep, rows: rep.update(fingerprint="0" * 64))
    assert corrupt(lambda rep, rows: rep.update(R=rep["R"] + 1))
    assert corrupt(lambda rep, rows: rep["rows"].pop())
    assert corrupt(lambda rep, rows: rows["ratio"].update(nonfinite=1))
    assert corrupt(lambda rep, rows: rows["regression"].update(rel_gap=float("nan")))
    assert corrupt(lambda rep, rows: rows["mean"].update(theory_mse=rows["mean"]["theory_mse"] * 1.01))
    # an empirical MSE twice the exact variance is far beyond 5 MCSE at R = 100
    assert corrupt(lambda rep, rows: rows["mean"].update(emp_mse=rows["mean"]["emp_mse"] * 2.0))
    assert corrupt(lambda rep, rows: rows.pop("mean") and rep.update(
        rows=[r for r in rep["rows"] if r["estimator"] != "mean"]))


@pytest.mark.parametrize("workload", [("theory-sweep", 1)], indirect=True)
def test_theory_check_fires_on_values_off_by_more_than_1e_12(workload):
    out = workload.run(0)
    assert workload.check(0, out) == []
    j, m1, m2, tuned, pre, dom, diag = out[0]
    nudged = m1 * (1.0 + 1e-10)
    assert workload.check(0, [(j, nudged, m2, tuned, pre, dom, diag), out[1]])
    rows = list(pre.rows)
    rows[3] = dataclasses.replace(rows[3], pre=rows[3].pre * (1.0 + 1e-10))
    bad_pre = dataclasses.replace(pre, rows=tuple(rows))
    assert workload.check(0, [out[0][:4] + (bad_pre,) + out[0][5:], out[1]])


@pytest.mark.parametrize("workload", [("cli-reference", 1)], indirect=True)
def test_cli_check_fires_on_wrong_output(workload):
    outs = [workload.run(i) for i in range(workload.cycle)]
    by_name = {o[0]: o for o in outs}
    assert all(workload.check(i, o) == [] for i, o in enumerate(outs))

    def problems(name, edit, code=0):
        fresh = tiny("cli-reference", 1)
        fresh.setup()
        try:
            return " ".join(fresh.check(0, (name, code, edit(by_name[name][2]), b"boom")))
        finally:
            fresh.close()

    def json_edit(edit):
        def apply(stdout):
            doc = json.loads(stdout)
            edit(doc)
            return json.dumps(doc).encode()
        return apply

    assert "sha256" in problems("reproduce-kk2009", lambda out: out + b" ")
    assert "sha256" in problems("pre-csv", lambda out: out.replace(b"ratio", b"ratjo"))
    assert "exit 2" in problems("mse-text", lambda out: out, code=2)
    assert "strict JSON" in problems(
        "mse-json", json_edit(lambda doc: doc["rows"][0].update(mse=float("nan"))))
    assert "fingerprint" in problems(
        "simulate-json", json_edit(lambda doc: doc["report"].update(fingerprint="0" * 64)))
    name, code, stdout, stderr = by_name["mse-text"]
    changed = workload.check(1, (name, code, stdout.replace(b"ratio", b"ratjo"), stderr))
    assert "differs from its first run" in " ".join(changed)


def _attributes():
    return {
        (name, attr): value
        for name, m in sys.modules.items()
        if name == "strataux" or name.startswith("strataux.")
        for attr, value in vars(m).items()
    }


IN_PROCESS = [(n, 3) for n in ("mc-small-strata", "mc-large-strata", "theory-sweep")]


@pytest.mark.parametrize("workload", IN_PROCESS, indirect=True, ids=[n for n, _ in IN_PROCESS])
def test_traced_output_equals_untraced_and_wrappers_are_restored(workload):
    before = _attributes()
    untraced = workload.run(0)
    tracer = Tracer()
    with tracer.installed():
        assert strataux.monte_carlo.summarize is not before[("strataux.monte_carlo", "summarize")]
        tracer.op = 0
        with tracer.span("op"):
            traced = workload.run(0, tracer)
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == untraced
    names = {s[1] for s in tracer.spans}
    assert "op" in names and names & {f"{m}.{f}" for m, f in LAYER_FUNCTIONS}


@pytest.mark.parametrize("workload", [("cli-reference", 1)], indirect=True)
def test_traced_cli_output_equals_untraced(workload):
    tracer = Tracer()
    tracer.op = 0
    for i in range(workload.cycle):
        with tracer.span("op"):
            traced = workload.run(i, tracer)
        assert traced[:3] == workload.run(i)[:3]
    assert any(s[1] == "cli.main" for s in tracer.spans)
    main_spans = [s for s in tracer.spans if s[1] == "cli.main"]
    assert all(s[4] is not None for s in main_spans)  # merged under the op span


@pytest.mark.parametrize("workload", [("mc-large-strata", 1)], indirect=True)
def test_layer_metrics_from_a_traced_operation(workload):
    tracer = Tracer()
    with tracer.installed():
        tracer.op = 0
        with tracer.span("op"):
            workload.run(0, tracer)
    m = run.layer_metrics(tracer.spans, [0])
    assert m["data_model.parse_microdata.s"] > 0
    assert m["data_model.summarize.calls"] == 1
    assert m["data_model.rows_per_s"] > 0
    assert m["mse_theory.optimal_m.calls_per_design"] == 1
    span = sum(s[3] - s[2] for s in tracer.spans if s[1] == "monte_carlo.run_simulation")
    assert 0 < m["monte_carlo.run_simulation.self_s"] < span
    assert m["efficiency.pre_table.s"] == 0


def test_cycle_median_is_per_operation_of_the_cycle():
    assert run.cycle_median([1.0, 5.0, 2.0], 1) == 2.0
    # two cycles of (fast, slow): the medians 1.5 and 10.5 are averaged
    assert run.cycle_median([1.0, 10.0, 2.0, 11.0], 2) == 6.0


def test_op_time_statistics():
    times = [float(i) for i in range(1, 201)]
    assert run.op_time(wls.McLargeStrata(1), times) == 100.5
    assert run.op_time(wls.TheorySweep(1), times[::-1]) == 1.0


def test_tracing_overhead_pairs_adjacent_cycles():
    # cycles of two ops: untraced, traced, untraced, traced
    samples = [(0, 1.0, False), (1, 1.0, False), (2, 1.5, True), (3, 1.5, True),
               (4, 3.0, False), (5, 3.0, False), (6, 3.2, True), (7, 3.4, True)]
    assert run.tracing_overhead(samples, 2) == pytest.approx((0.5 + 0.3) / 2)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    pct, value = run.tail([float(i) for i in range(20)])
    assert pct == 50.0 and value == 9.0


def test_command_line_result_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "theory-sweep", "--seed", "4",
         "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_fails_without_sources():
    bare = wls.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "theory-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
