"""Command-line behavior: formats, determinism, exit codes and what loads numpy."""
import ast
import dataclasses
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import strataux
import strataux.mse_theory
from strataux import PreRow, embedded_kk2009, monte_carlo, summary_to_json
from strataux.cli import main
from strataux.monte_carlo import SimRow

DESIGN = "31,21,29,38,22,39"

GEN_CONFIG = {
    "seed": 13,
    "strata": [
        {"N": 40, "mean_y": 50, "mean_x": 80, "mean_z": 60,
         "sd_y": 10, "sd_x": 16, "sd_z": 12,
         "rho_yx": 0.9, "rho_yz": 0.8, "rho_xz": 0.7},
        {"N": 60, "mean_y": 55, "mean_x": 90, "mean_z": 66,
         "sd_y": 11, "sd_x": 18, "sd_z": 13.2,
         "rho_yx": 0.9, "rho_yz": 0.8, "rho_xz": 0.7},
    ],
}

MICRO_TEXT = """stratum,y,x,z
A,3,11,6
A,5,14,9
A,4,17,7
A,6,12,8
B,20,30,40
B,26,34,46
B,23,38,43
B,29,42,49
B,24,31,41
"""


@pytest.fixture()
def summary_file(tmp_path):
    pop, _ = embedded_kk2009()
    path = tmp_path / "summary.json"
    path.write_text(summary_to_json(pop))
    return str(path)


@pytest.fixture()
def micro_file(tmp_path):
    path = tmp_path / "micro.csv"
    path.write_text(MICRO_TEXT)
    return str(path)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(GEN_CONFIG))
    return str(path)


def test_moments_text_output(summary_file, capsys):
    assert main(["moments", "--input", summary_file, "--design", DESIGN]) == 0
    out = capsys.readouterr().out
    assert "v200" in out and "b2" in out
    assert "# policy: prefer-correlation" in out
    assert "# repaired_pairs: 5" in out


def test_moments_json_carries_full_precision(summary_file, capsys):
    assert main(["moments", "--input", summary_file, "--design", DESIGN,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "moments"
    assert doc["moments"]["v200"] == pytest.approx(0.011699878537905353, rel=1e-12)
    assert doc["moments"]["census"] is False
    assert doc["provenance"]["policy"] == "prefer-correlation"


def test_moments_csv_output(summary_file, capsys):
    assert main(["moments", "--input", summary_file, "--design", DESIGN,
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "quantity,value"
    v200 = float(next(l for l in lines if l.startswith("v200,")).split(",")[1])
    assert v200 == pytest.approx(0.011699878537905353, rel=1e-12)
    assert any(l.startswith("# policy:") for l in lines)


def test_moments_accepts_microdata(micro_file, capsys):
    assert main(["moments", "--input", micro_file, "--design", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "# repaired_pairs: 0" in out


def test_mse_command_with_optimum_and_diagnostics(summary_file, capsys):
    assert main(["mse", "--input", summary_file, "--design", DESIGN]) == 0
    out = capsys.readouterr().out
    assert "optimal tuning: m1* = -1.17712, m2* = -0.891963" in out
    assert "diagnostics (implemented vs as-printed)" in out
    assert "as-printed closed form (0.0337262, -0.0151409)" in out


def test_mse_command_json_rows(summary_file, capsys):
    assert main(["mse", "--input", summary_file, "--design", DESIGN,
                 "--format", "json", "--m1", "1", "--m2", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {r["estimator"]: r for r in doc["rows"]}
    assert rows["mean"]["mse"] == pytest.approx(2228.5201298310753, rel=1e-12)
    assert doc["optimal"]["m1"] == pytest.approx(-1.1771177911944053, rel=1e-10)
    # the last row is the explicitly requested (m1, m2) evaluation
    assert doc["rows"][-1]["m1"] == 1.0


def test_mse_tuning_flags_must_pair(summary_file, capsys):
    assert main(["mse", "--input", summary_file, "--design", DESIGN,
                 "--m1", "1"]) == 2
    assert "must be given together" in capsys.readouterr().err
    # checked before the design's moments, so a census cannot exit 3 first
    census = ",".join(str(s.N) for s in embedded_kk2009()[0].strata)
    assert main(["mse", "--input", summary_file, "--design", census, "--m1", "1"]) == 2
    assert "must be given together" in capsys.readouterr().err


def test_pre_command_table(summary_file, capsys):
    assert main(["pre", "--input", summary_file, "--design", DESIGN]) == 0
    out = capsys.readouterr().out
    assert "exp_regression" in out
    assert "# m1_opt: -1.17712" in out


def test_pre_command_json_includes_dominance(summary_file, capsys):
    assert main(["pre", "--input", summary_file, "--design", DESIGN,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {r["estimator"]: r for r in doc["rows"]}
    assert rows["mean"]["pre"] == 100.0
    assert rows["exp_regression"]["rank"] == 1
    dom = {d["estimator"]: d for d in doc["dominance"]}
    assert all(d["satisfied"] for d in dom.values())


def test_pre_command_solves_the_optimum_once(summary_file, capsys, monkeypatch):
    calls = []
    solve = strataux.mse_theory._solve_optimum
    monkeypatch.setattr(strataux.mse_theory, "_solve_optimum",
                        lambda m: calls.append(m) or solve(m))
    assert main(["pre", "--input", summary_file, "--design", DESIGN,
                 "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["dominance"]) == 8
    assert len(calls) == 1


def test_mse_command_solves_the_optimum_once(summary_file, capsys, monkeypatch):
    calls = []
    solve = strataux.mse_theory._solve_optimum
    monkeypatch.setattr(strataux.mse_theory, "_solve_optimum",
                        lambda m: calls.append(m) or solve(m))
    assert main(["mse", "--input", summary_file, "--design", DESIGN,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"]["solved_m1"] == doc["optimal"]["m1"]
    assert len(calls) == 1


def test_census_pre_command_has_no_dominance(summary_file, capsys):
    census = ",".join(str(s.N) for s in embedded_kk2009()[0].strata)
    assert main(["pre", "--input", summary_file, "--design", census,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dominance"] == [] and doc["m1_opt"] is None


def test_simulate_runs_and_is_byte_deterministic(config_file, capsys):
    argv = ["simulate", "--input", config_file, "--design", "6,9",
            "--R", "200", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "# generator: philox4x64" in first
    assert "# fingerprint: " in first
    assert "exp_regression_opt" in first
    # thread count changes scheduling, never results
    assert main(argv + ["--workers", "3"]) == 0
    third = capsys.readouterr().out
    assert third == first


def test_design_errors_name_a_csv_stratum_alike_in_theory_and_simulation(micro_file, capsys):
    argv = ["--input", micro_file, "--design", "5,2"]
    assert main(["mse", *argv]) == 2
    theory = capsys.readouterr().err
    assert main(["simulate", *argv]) == 2
    assert capsys.readouterr().err == theory == (
        "error: stratum 1: sample size 5 exceeds population size 4\n")


def test_simulate_accepts_estimator_subset(config_file, capsys):
    assert main(["simulate", "--input", config_file, "--design", "6,9",
                 "--R", "50", "--seed", "5",
                 "--estimators", "mean,ratio"]) == 0
    out = capsys.readouterr().out
    assert "ratio" in out and "exp_ratio_x" not in out


def test_simulate_rejects_a_repeated_estimator(config_file, capsys):
    assert main(["simulate", "--input", config_file, "--design", "6,9", "--R", "5",
                 "--estimators", "exp_regression,exp_regression,mean"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: repeated estimator 'exp_regression'\n"


def test_simulate_rejects_a_worker_count_below_one(config_file, capsys):
    for workers in ("0", "-5"):
        assert main(["simulate", "--input", config_file, "--design", "6,9", "--R", "5",
                     "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: worker count must be an integer >= 1, got {workers}\n"


def test_simulate_rejects_invalid_tuning_that_no_row_reads(config_file, capsys):
    for flags, message in ((["--m1", "nan", "--m2", "1"], "m1 must be finite, got nan"),
                           (["--m1", "1", "--m2", "inf"], "m2 must be finite, got inf")):
        assert main(["simulate", "--input", config_file, "--design", "6,9", "--R", "5",
                     "--estimators", "mean,regression", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_simulate_rejects_summary_documents(summary_file, capsys):
    assert main(["simulate", "--input", summary_file, "--design", DESIGN]) == 2
    assert "cannot be sampled from" in capsys.readouterr().err


def test_simulate_malformed_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    for text in ('{"seed": 1, "strata": [', '{"strata": ' + "[" * 100000):
        path.write_text(text)
        assert main(["simulate", "--input", str(path), "--design", "6,9"]) == 2
        assert "error: invalid generator config" in capsys.readouterr().err


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_census_simulation_with_default_estimators(config_file, capsys):
    argv = ["simulate", "--input", config_file, "--design", "40,60",
            "--R", "20", "--seed", "5", "--format", "json"]
    assert main(argv) == 0
    doc = _strict_json(capsys.readouterr().out)
    rows = {r["estimator"]: r for r in doc["report"]["rows"]}
    assert "exp_regression_opt" not in rows and "exp_regression" in rows
    assert all(r["rel_gap"] is None and r["theory_mse"] == 0.0 for r in rows.values())
    assert any("exp_regression_opt" in n for n in doc["report"]["notes"])


def test_simulate_csv_has_no_timestamps(config_file, capsys):
    argv = ["simulate", "--input", config_file, "--design", "6,9",
            "--R", "50", "--seed", "5", "--format", "csv"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("estimator,m1,m2,emp_mean")
    assert main(argv) == 0
    assert capsys.readouterr().out == out


def _text_header(out):
    """The column names of a text table: the line above its rule of dashes."""
    lines = out.splitlines()
    rule = next(i for i, line in enumerate(lines) if line and set(line) <= {"-", " "})
    return lines[rule - 1].split()


@pytest.mark.parametrize("command, row_type", [("pre", PreRow), ("simulate", SimRow)])
def test_table_columns_are_the_row_fields(summary_file, config_file, capsys,
                                          command, row_type):
    argv = [command, "--input", summary_file, "--design", DESIGN]
    if command == "simulate":
        argv = [command, "--input", config_file, "--design", "6,9", "--R", "20"]
    names = [f.name for f in dataclasses.fields(row_type)]
    assert main(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0].split(",") == names
    assert main(argv + ["--format", "text"]) == 0
    assert _text_header(capsys.readouterr().out) == names


def test_reproduce_command_text(capsys):
    assert main(["reproduce-kk2009"]) == 0
    out = capsys.readouterr().out
    assert "RANK-MISMATCH" in out
    assert "published ranking: exp_regression > regression" in out
    assert "computed ranking:  exp_regression > exp_ratio_xz" in out
    assert "repair log (prefer-correlation): 5 entries" in out
    assert "repair log (prefer-covariance): 5 entries" in out
    assert "tuned optimum: m1* = -1.17712, m2* = -0.891963" in out
    mean_line = next(l for l in out.splitlines() if l.startswith("mean "))
    assert " 100 " in mean_line


def test_reproduce_rejects_the_policy_flag(capsys):
    # the command always runs both repairing policies, so there is nothing
    # for --policy to choose
    with pytest.raises(SystemExit) as exc:
        main(["reproduce-kk2009", "--policy", "strict"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --policy" in capsys.readouterr().err


def test_simulate_rejects_the_policy_flag(config_file, capsys):
    # a simulated population is never reconciled, so there is nothing for
    # --policy to choose; the footer names the numpy version instead
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--input", config_file, "--design", "6,9", "--policy", "strict"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --policy" in capsys.readouterr().err
    assert main(["simulate", "--input", config_file, "--design", "6,9", "--R", "5"]) == 0
    footer = [l for l in capsys.readouterr().out.splitlines() if l.startswith("# ")]
    assert footer[:2] == [f"# numpy: {np.__version__}", "# formulas: implemented "
                          "(as-printed variants appear only under diagnostics)"]
    assert "# generator: philox4x64-lemire-floyd" in footer


def test_reproduce_command_json(capsys):
    assert main(["reproduce-kk2009", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["published_ranking"][0] == "exp_regression"
    assert doc["computed_ranking"][-1] == "exp_product_xz"
    assert len(doc["rows"]) == 9
    assert all(r["delta"] is not None for r in doc["rows"])
    assert len(doc["repairs_correlation"]) == 5


# sha256 of stdout of the reference commands, the KK2009 table and mse, pre
# and moments on the KK2009 summary; the output must stay byte-identical
GOLDEN_STDOUT = {
    ("reproduce-kk2009", "text"):
        "03394e0233d8a57360cb96edb58da5b8c4d372196798b92cc7f978df4c3ea7db",
    ("reproduce-kk2009", "csv"):
        "71183f8aefec71df574e2c21126265aff19e029239151db43e1d609e203a22d0",
    ("reproduce-kk2009", "json"):
        "2ee9a9c920e30f633e676a9476eeec7b1188dc50d6b1e24c8db1b5d89545ad2c",
    ("mse", "text"):
        "92b12ba39fc2db99b920aa5c33db32bd3150972356e2b6a5e2b0cca54a73dda6",
    ("mse", "csv"):
        "b3e7830281bebe91bbab17d1adcebc86c4569a209771718225feaf9b3d672b3e",
    ("mse", "json"):
        "350512d39d182cebcb4d7161e8dd3ed22ef6dcfaa010f9aaa5590383f8417ad6",
    ("pre", "text"):
        "431d829f2951274d00ad74367139b06663df27cfd96014d95827bacb9bba267e",
    ("pre", "csv"):
        "af856f86b86caf775c8682e323fd5b19019aab1efa8f56954c91d8da6d30cdee",
    ("pre", "json"):
        "d55167b9965b97d9bec4bf8624e420505a16924aaa7de692efd5131c4341337a",
    ("moments", "text"):
        "4e831d65190b451ec5938815cf07ecefff07df0bebe50a560ea2ea08b637f1a0",
    ("moments", "csv"):
        "e80d11a71f933782ff487f776cfddefbae896ec64bceea94e37a9b51f934ff18",
    ("moments", "json"):
        "e96b9bd984a1bccee38e4bf4adebef5793df35690259a1dc41c95674cc23409c",
}


@pytest.mark.parametrize("command, fmt", list(GOLDEN_STDOUT))
def test_reference_stdout_is_byte_identical(summary_file, capsys, command, fmt):
    argv = [command] if command == "reproduce-kk2009" else [
        command, "--input", summary_file, "--design", DESIGN]
    assert main(argv + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command, fmt]


def test_golden_digests_agree_with_the_bench_reference():
    # bench/data/cli_reference.json pins two of the same outputs for the
    # benchmark; both sets must be re-recorded together
    path = Path(__file__).resolve().parents[1] / "bench" / "data" / "cli_reference.json"
    digests = json.loads(path.read_text())["stdout_sha256"]
    assert digests == {"reproduce-kk2009": GOLDEN_STDOUT["reproduce-kk2009", "text"],
                       "pre-csv": GOLDEN_STDOUT["pre", "csv"]}


def test_bench_traced_functions_resolve():
    # bench/tracing.py wraps each LAYER_FUNCTIONS pair in a traced run, so
    # a pair that no longer resolves breaks the benchmark's traced mode
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    pairs = next(ast.literal_eval(node.value) for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["LAYER_FUNCTIONS"])
    assert pairs
    for module, function in pairs:
        target = getattr(importlib.import_module(f"strataux.{module}"), function, None)
        assert callable(target), f"strataux.{module}.{function}"


def test_exit_code_2_on_input_errors(tmp_path, capsys):
    assert main(["moments", "--input", str(tmp_path / "nope.csv"),
                 "--design", "3"]) == 2
    assert "error: cannot read" in capsys.readouterr().err
    bad = tmp_path / "bad.csv"
    bad.write_text("stratum,y,x\nA,1,2\n")
    assert main(["moments", "--input", str(bad), "--design", "3"]) == 2
    capsys.readouterr()
    good = tmp_path / "micro.csv"
    good.write_text(MICRO_TEXT)
    assert main(["moments", "--input", str(good), "--design", "2;3"]) == 2
    assert "bad --design" in capsys.readouterr().err


def test_oversized_csv_field_exits_2(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("stratum,y,x,z\nA,1,2,3\nA," + "9" * 200_000 + ",3,4\n")
    assert main(["simulate", "--input", str(path), "--design", "2"]) == 2
    err = capsys.readouterr().err
    assert "line 3: malformed CSV record: field larger than field limit" in err
    assert "Traceback" not in err


def test_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"stratum,y,x,z\nA,1,2,3\xff\nA,2,3,4\n")
    assert main(["moments", "--input", str(path), "--design", "2"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_non_finite_summary_values_exit_2(tmp_path, capsys):
    pop, _ = embedded_kk2009()
    doc = json.loads(summary_to_json(pop))
    doc["strata"][2]["s_y"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # writes the literal NaN
    for argv in (["moments", "--format", "json"], ["pre"]):
        assert main(argv + ["--input", str(path), "--design", DESIGN]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: stratum 3: s_y must be finite, got nan" in captured.err


def test_huge_summary_values_exit_2(tmp_path, capsys):
    # squaring a mean of 1e300 used to end in an OverflowError traceback
    pop, _ = embedded_kk2009()
    doc = json.loads(summary_to_json(pop))
    doc["strata"][0]["ybar"] = 1e300
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["moments", "--input", str(path), "--design", DESIGN]) == 2
    assert "error: stratum 1: ybar = 1e+300 is beyond" in capsys.readouterr().err
    # an N beyond float range used to end in an OverflowError traceback at 1.0 / N
    doc["strata"][0]["ybar"] = 703.74
    doc["strata"][1]["N"] = 10 ** 400
    path.write_text(json.dumps(doc))
    for command in ("moments", "mse", "pre"):
        assert main([command, "--input", str(path), "--design", DESIGN]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: stratum 2: N is beyond +-1e+100" in captured.err


def test_over_long_integer_literals_exit_2(tmp_path, capsys):
    # json.loads refuses an integer literal over 4300 digits with a plain ValueError
    digits = "9" * 5000
    path = tmp_path / "long.json"
    pop, _ = embedded_kk2009()
    path.write_text(summary_to_json(pop).replace('"N": 127', f'"N": {digits}'))
    assert main(["pre", "--input", str(path), "--design", DESIGN]) == 2
    assert "error: invalid summary document: Exceeds the limit" in capsys.readouterr().err
    path.write_text(json.dumps(GEN_CONFIG).replace('"seed": 13', f'"seed": {digits}'))
    assert main(["simulate", "--input", str(path), "--design", "6,9", "--R", "5"]) == 2
    assert "error: invalid generator config: Exceeds the limit" in capsys.readouterr().err


def test_non_finite_generator_target_exits_2(tmp_path, capsys):
    config = json.loads(json.dumps(GEN_CONFIG))
    config["strata"][1]["mean_x"] = float("nan")
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--input", str(path), "--design", "6,9",
                 "--R", "20", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: generator target mean_x must be finite" in captured.err


def test_tuning_exponents_beyond_the_input_bound_exit_2(summary_file, config_file, capsys):
    # 1e308 is finite, but the MSE terms it enters overflow to -inf + inf
    for argv in (["mse", "--input", summary_file, "--design", DESIGN],
                 ["simulate", "--input", config_file, "--design", "6,9", "--R", "20"]):
        assert main(argv + ["--m1", "1e308", "--m2", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: m1 = 1e+308 is beyond +-1e+100" in captured.err


def test_oversized_replication_count_exits_2(config_file, capsys):
    # past 2^53, so its exit 2 comes from the replication count's cap
    R = 10 ** 17
    assert main(["simulate", "--input", config_file, "--design", "6,9",
                 "--R", str(R), "--estimators", "mean"]) == 2
    assert f"error: replication count R = {R} is too large" in capsys.readouterr().err


def test_replication_count_past_2_to_the_53_exits_2_before_any_block_or_thread(
        config_file, capsys, monkeypatch):
    started = []
    monkeypatch.setattr(monte_carlo, "_draw_indices", lambda *a: started.append("block"))
    monkeypatch.setattr(monte_carlo.threading, "Thread", lambda **k: started.append("thread"))
    R = 2 ** 53 + 1
    assert main(["simulate", "--input", config_file, "--design", "6,9",
                 "--R", str(R), "--estimators", "mean", "--workers", "2"]) == 2
    assert f"error: replication count R = {R} is too large" in capsys.readouterr().err
    assert started == []


@pytest.mark.parametrize("N", [10 ** 17, 10 ** 20])
def test_oversized_generator_stratum_exits_2(tmp_path, capsys, N):
    # 24 bytes per unit: beyond any address space (10**17) and beyond
    # numpy's largest dimension (10**20)
    config = json.loads(json.dumps(GEN_CONFIG))
    config["strata"][1]["N"] = N
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--input", str(path), "--design", "6,9", "--R", "5"]) == 2
    assert f"error: stratum 2: N = {N} is too large to generate" in capsys.readouterr().err


def test_exit_code_3_on_degenerate_moments(tmp_path, capsys):
    doc = {"strata": [{
        "h": 1, "N": 30, "ybar": 10.0, "xbar": 8.0, "zbar": 6.0,
        "s_y": 2.0, "s_x": 0.0, "s_z": 1.5,
        "s_yx": 0.0, "s_yz": 1.0, "s_xz": 0.0,
        "rho_yx": 0.0, "rho_yz": 0.4, "rho_xz": 0.0,
    }]}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    assert main(["mse", "--input", str(path), "--design", "5"]) == 3
    assert "numerical error: combined slope b1" in capsys.readouterr().err


def test_census_mse_names_the_census_design(summary_file, capsys):
    census = ",".join(str(s.N) for s in embedded_kk2009()[0].strata)
    assert main(["mse", "--input", summary_file, "--design", census]) == 3
    err = capsys.readouterr().err
    assert "census design" in err and "no auxiliary variation" not in err


def test_census_mse_with_fixed_tuning_leaves_the_optimum_out(summary_file, capsys):
    census = ",".join(str(s.N) for s in embedded_kk2009()[0].strata)
    argv = ["mse", "--input", summary_file, "--design", census, "--m1", "1", "--m2", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "optimal tuning: m1* = -, m2* = -" in out
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["optimal"] == {"m1": None, "m2": None}
    assert [r["estimator"] for r in doc["rows"]] == list(strataux.ESTIMATOR_ORDER)
    assert all(r["mse"] == 0.0 for r in doc["rows"])
    assert (doc["rows"][-1]["m1"], doc["rows"][-1]["m2"]) == (1.0, 1.0)
    assert main(argv + ["--format", "csv"]) == 0
    assert "# m1_opt: -\n# m2_opt: -\n" in capsys.readouterr().out


def test_exit_code_4_on_strict_policy(summary_file, capsys):
    assert main(["moments", "--input", summary_file, "--design", DESIGN,
                 "--policy", "strict"]) == 4
    err = capsys.readouterr().err
    assert "validation failure:" in err and "stratum 3 pair xz" in err


def test_exit_code_4_on_nonfinite_simulation(config_file, capsys):
    assert main(["simulate", "--input", config_file, "--design", "6,9",
                 "--R", "300", "--seed", "5", "--m1", "1e7", "--m2", "1e7",
                 "--estimators", "exp_regression"]) == 4
    assert "non-finite estimate share" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "required: command" in capsys.readouterr().err


def test_closed_stdout_pipe_exits_1_without_a_traceback():
    # the reader closed its end before any output, as `| head` does early
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "strataux", "reproduce-kk2009"],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_module_entry_point_is_reproducible():
    cmd = [sys.executable, "-m", "strataux", "reproduce-kk2009"]
    a = subprocess.run(cmd, capture_output=True, timeout=60)
    b = subprocess.run(cmd, capture_output=True, timeout=60)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert b"RANK-MISMATCH" in a.stdout


# Runs `python -m strataux ARGS` (or, with no ARGS, `import strataux` alone)
# and reports on stderr's last line whether numpy was loaded at exit.
_NUMPY_PROBE = """
import runpy, sys
try:
    if len(sys.argv) > 1:
        runpy.run_module("strataux", run_name="__main__", alter_sys=True)
    else:
        import strataux
finally:
    print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
"""


def _probe_numpy(*argv):
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stderr.splitlines()[-1]


@pytest.mark.parametrize("command, fmt", [("reproduce-kk2009", "text")] + [
    (command, fmt) for command in ("moments", "mse", "pre") for fmt in ("text", "csv", "json")])
def test_theory_commands_never_load_numpy(summary_file, command, fmt):
    argv = [command] if command == "reproduce-kk2009" else [
        command, "--input", summary_file, "--design", DESIGN]
    assert _probe_numpy(*argv, "--format", fmt) == (0, "numpy loaded: False")


def test_import_and_input_errors_never_load_numpy(summary_file):
    assert _probe_numpy() == (0, "numpy loaded: False")
    assert _probe_numpy("mse", "--input", summary_file, "--design", "31;21") == (
        2, "numpy loaded: False")


def test_microdata_and_simulation_load_numpy_on_use(micro_file, config_file):
    assert _probe_numpy("mse", "--input", micro_file, "--design", "2,3") == (
        0, "numpy loaded: True")
    assert _probe_numpy("simulate", "--input", config_file, "--design", "6,9",
                        "--R", "20") == (0, "numpy loaded: True")


LAZY_NAMES = {
    "GeneratorStratum", "PopulationConfig", "SimulationReport", "draw_sample",
    "generate_population", "parse_generator_config", "population_fingerprint",
    "run_simulation", "point_estimate",
}


def test_package_namespace_resolves_lazy_names_on_every_access(monkeypatch):
    from strataux import point_estimate, run_simulation

    assert run_simulation is monte_carlo.run_simulation
    assert point_estimate is strataux.estimators.point_estimate
    assert all(getattr(strataux, name) is not None for name in strataux.__all__)
    assert LAZY_NAMES <= set(dir(strataux)) and LAZY_NAMES <= set(strataux.__all__)
    # never cached in the package, so a rebinding in the submodule shows through
    assert not LAZY_NAMES & set(vars(strataux))
    sentinel = object()
    monkeypatch.setattr(monte_carlo, "run_simulation", sentinel)
    assert strataux.run_simulation is sentinel
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        strataux.not_a_name


def test_package_names_have_one_owner():
    # a name in two submodules' __all__, or also in _LAZY, would be bound by import order
    owned = [*strataux.data_model.__all__, *strataux.efficiency.__all__,
             *strataux.moments.__all__, *strataux.mse_theory.__all__, *strataux._LAZY]
    assert sorted(strataux.__all__) == sorted(set(owned)) == sorted(owned)
