"""The four benchmark workloads: inputs, one operation, and its check.

Each workload builds its inputs from the workload seed in setup(), runs one
operation per run(i) through strataux's public functions or its CLI, and
checks that operation's output in check(i, out), which returns a list of
problems (empty when correct). Library calls look functions up on the
``strataux`` package at call time, so a Tracer can wrap them.

Workloads take their sizes as constructor arguments; the defaults are the
benchmark's, and the self-tests pass tiny ones.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

import strataux as sx

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DATA = BENCH_DIR / "data"
OUT = BENCH_DIR / "out"

# Monte Carlo checks allow this many standard errors before failing.
MCSE_Z = 5.0
THEORY_RTOL = 1e-12
# Threads of mc-small-strata's run_simulation (nproc = 2).
WORKERS = 2
# Wall time spent timing draw_sample in the traced run's probe.
DRAW_PROBE_S = 0.3
# Serial/threaded pairs behind monte_carlo.parallel_efficiency.
EFFICIENCY_PAIRS = 3

# Acceptance gate 3's population: N = 200/300/500, generator seed 7.
GATE3_STRATA = (
    dict(N=200, mean_y=50.0, mean_x=80.0, mean_z=60.0, sd_y=12.5, sd_x=20.0,
         sd_z=15.0, rho_yx=0.9, rho_yz=0.8, rho_xz=0.7),
    dict(N=300, mean_y=55.0, mean_x=90.0, mean_z=66.0, sd_y=13.75, sd_x=22.5,
         sd_z=16.5, rho_yx=0.9, rho_yz=0.8, rho_xz=0.7),
    dict(N=500, mean_y=60.0, mean_x=100.0, mean_z=72.0, sd_y=15.0, sd_x=25.0,
         sd_z=18.0, rho_yx=0.9, rho_yz=0.8, rho_xz=0.7),
)
GATE3_DESIGN = (20, 30, 50)
GATE3_ESTIMATORS = ("mean", "ratio", "exp_ratio_x", "exp_ratio_xz",
                    "regression", "exp_regression")


def op_seed(seed: int, i: int) -> int:
    """Master seed of operation i: distinct per operation and workload seed."""
    return (seed << 24) + i


def subprocess_env() -> dict:
    """Environment for strataux subprocesses: the checkout's src first."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fingerprint(labels, arrays) -> str:
    """SHA-256 of each label then its float64 values interleaved by record.

    Computed here, independently of strataux, from the generated values.
    """
    digest = hashlib.sha256()
    for label, arr in zip(labels, arrays):
        digest.update(label.encode())
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()


def exact_variance(arrays, design) -> float:
    """Exact SRSWOR variance of the stratified mean of y."""
    N = sum(len(a) for a in arrays)
    return math.fsum(
        (len(a) / N) ** 2 * (1.0 / n - 1.0 / len(a)) * float(np.var(a[:, 0], ddof=1))
        for a, n in zip(arrays, design)
    )


def check_simulation(report: dict, *, fingerprint: str, variance: float, R: int,
                     n_rows: int) -> list[str]:
    """Checks on a simulation report given as a dict (dataclass or json).

    Every row must be finite with no non-finite replicates. The mean row's
    theory must equal the exact variance, and its empirical MSE must lie
    within MCSE_Z Monte Carlo standard errors of it. For a near-normal
    stratified mean, the squared error has variance 2*V^2, so the MCSE of
    emp_mse/V - 1 is sqrt(2/R) (Morris, White & Crowther, Stat Med 2019).
    """
    problems = []
    if report["fingerprint"] != fingerprint:
        problems.append(f"fingerprint {report['fingerprint'][:12]} != population {fingerprint[:12]}")
    if report["R"] != R:
        problems.append(f"report R={report['R']}, expected {R}")
    rows = {r["estimator"]: r for r in report["rows"]}
    if len(report["rows"]) != n_rows:
        problems.append(f"{len(report['rows'])} rows, expected {n_rows}")
    for name, r in rows.items():
        if r["nonfinite"] != 0:
            problems.append(f"{name}: {r['nonfinite']} non-finite replicates")
        for key in ("emp_mean", "emp_bias", "emp_mse", "theory_mse", "rel_gap"):
            if not isinstance(r[key], float) or not math.isfinite(r[key]):
                problems.append(f"{name}: {key}={r[key]!r} is not a finite float")
    mean = rows.get("mean")
    if mean is None:
        return problems + ["no mean row"]
    if not abs(mean["theory_mse"] - variance) <= 1e-9 * variance:
        problems.append(f"mean theory_mse {mean['theory_mse']!r} != exact variance {variance!r}")
    gap = mean["emp_mse"] / variance - 1.0
    bound = MCSE_Z * math.sqrt(2.0 / R)
    if not abs(gap) <= bound:
        problems.append(f"mean emp_mse gap {gap:.4f} outside +-{bound:.4f} ({MCSE_Z:g} MCSE)")
    return problems


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= THEORY_RTOL * abs(b)


def time_draw_sample(micro, design, seed: int) -> float:
    """Median microseconds per public draw_sample call on one population."""
    times = []
    t_end = time.perf_counter() + DRAW_PROBE_S
    stream = 0
    while len(times) < 5 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        sx.draw_sample(micro, design, seed, stream)
        times.append(time.perf_counter() - t0)
        stream += 1
    return 1e6 * statistics.median(times)


class McSmallStrata:
    """Acceptance gate 3's problem: tiny strata, many replicates, threads."""

    name = "mc-small-strata"
    unit = "replicates"
    op_statistic = "p50"
    setup_reps = 101
    warmup_ops = 0
    cycle = 1

    def __init__(self, seed: int, R: int = 10_000):
        self.seed, self.R = seed, R

    @property
    def units_per_op(self) -> int:
        return self.R

    def setup(self) -> None:
        cfg = sx.PopulationConfig(
            strata=tuple(sx.GeneratorStratum(**s) for s in GATE3_STRATA), seed=7
        )
        self.micro, _ = sx.generate_population(cfg)
        self.design = sx.SampleDesign(n=GATE3_DESIGN)
        arrays = [np.asarray(g, dtype=np.float64) for g in self.micro.groups]
        self.fingerprints = {"population": fingerprint(self.micro.labels, arrays)}
        self.variance = exact_variance(arrays, GATE3_DESIGN)

    def simulate(self, i: int, workers: int):
        return sx.run_simulation(
            self.micro, self.design, R=self.R, master_seed=op_seed(self.seed, i),
            estimators=GATE3_ESTIMATORS, workers=workers,
        )

    def run(self, i: int, tracer=None):
        return self.simulate(i, WORKERS)

    def check(self, i: int, out) -> list[str]:
        return check_simulation(
            asdict(out), fingerprint=self.fingerprints["population"],
            variance=self.variance, R=self.R, n_rows=len(GATE3_ESTIMATORS) + 1,
        )

    def probes(self) -> dict:
        """Serial and threaded runs alternate, so each ratio compares two
        runs made at nearly the same machine speed."""
        ratios = []
        for k in range(EFFICIENCY_PAIRS):
            t0 = time.perf_counter()
            self.simulate(k, 1)
            t1 = time.perf_counter()
            self.simulate(k, WORKERS)
            t2 = time.perf_counter()
            ratios.append((t1 - t0) / (WORKERS * (t2 - t1)))
        return {
            "monte_carlo.draw_sample.us": time_draw_sample(self.micro, self.design, self.seed),
            "monte_carlo.parallel_efficiency": statistics.median(ratios),
        }


class McLargeStrata:
    """CSV microdata of large strata: ingest and the O(N_h) draw dominate."""

    name = "mc-large-strata"
    unit = "replicates"
    op_statistic = "p50"
    setup_reps = 5
    warmup_ops = 0
    cycle = 1

    def __init__(self, seed: int, L: int = 10, N_h: int = 20_000, n_h: int = 50,
                 R: int = 200):
        self.seed, self.L, self.N_h, self.n_h, self.R = seed, L, N_h, n_h, R

    @property
    def units_per_op(self) -> int:
        return self.R

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        corr = np.array([[1.0, 0.9, 0.8], [0.9, 1.0, 0.7], [0.8, 0.7, 1.0]])
        chol = np.linalg.cholesky(corr)
        labels, arrays = [], []
        lines = ["stratum,y,x,z"]
        for h in range(1, self.L + 1):
            scale = 1.0 + 0.1 * h
            mean = np.array([50.0, 80.0, 60.0]) * scale
            sd = np.array([12.5, 20.0, 15.0]) * scale
            vals = (rng.standard_normal((self.N_h, 3)) @ chol.T) * sd + mean
            label = f"h{h:02d}"
            lines.extend(f"{label},{y!r},{x!r},{z!r}" for y, x, z in vals.tolist())
            labels.append(label)
            arrays.append(vals)
        self.csv_text = "\n".join(lines) + "\n"
        self.design = sx.SampleDesign(n=(self.n_h,) * self.L)
        self.fingerprints = {"population": fingerprint(labels, arrays)}
        self.variance = exact_variance(arrays, self.design.n)

    def run(self, i: int, tracer=None):
        micro = sx.parse_microdata(self.csv_text)
        return sx.run_simulation(
            micro, self.design, R=self.R, master_seed=op_seed(self.seed, i), workers=1
        )

    def check(self, i: int, out) -> list[str]:
        return check_simulation(
            asdict(out), fingerprint=self.fingerprints["population"],
            variance=self.variance, R=self.R, n_rows=len(sx.ESTIMATOR_ORDER) + 1,
        )

    def probes(self) -> dict:
        micro = sx.parse_microdata(self.csv_text)
        return {"monte_carlo.draw_sample.us": time_draw_sample(micro, self.design, self.seed)}


class TheorySweep:
    """Random designs through the theory layer, on L = 6 and L = 64 summaries.

    Designs come from pools recorded in data/theory_reference.json with
    their expected (m1, m2), MSE and PRE values; the workload seed picks
    which pooled designs run, in which order. One operation is one design
    on each summary, so every operation does the same work, and op_s is
    the fastest of the run's tens of thousands of operations.
    """

    name = "theory-sweep"
    unit = "designs"
    op_statistic = "min"
    setup_reps = 31
    warmup_ops = 50
    cycle = 1
    units_per_op = 2

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        ref = json.loads((DATA / "theory_reference.json").read_text(encoding="utf-8"))
        self.cases = []
        self.fingerprints = {}
        for entry in ref["summaries"]:
            text = (DATA / entry["file"]).read_text(encoding="utf-8")
            pop = sx.parse_summary(text)
            if entry["policy"]:
                pop, _ = sx.reconcile_covariances(pop, entry["policy"])
            designs = [sx.SampleDesign(n=tuple(d["n"])) for d in entry["designs"]]
            self.cases.append((pop, designs, entry["designs"]))
            self.fingerprints[entry["file"]] = hashlib.sha256(text.encode()).hexdigest()
        rng = np.random.default_rng(self.seed)
        self.picks = [rng.integers(len(d), size=1 << 16).tolist() for _, d, _ in self.cases]

    def run(self, i: int, tracer=None):
        out = []
        for (pop, designs, _), picks in zip(self.cases, self.picks):
            j = picks[i % len(picks)]
            m = sx.moment_set(pop, designs[j])
            m1, m2 = sx.optimal_m(m)
            tuned = sx.mse_tp(m, m1, m2)
            pre = sx.pre_table(m)
            dom = sx.dominance_report(m)
            diag = sx.tp_diagnostics(m, m1, m2)
            out.append((j, m1, m2, tuned, pre, dom, diag))
        return out

    def check(self, i: int, out) -> list[str]:
        problems = []
        for (_, _, expected), (j, m1, m2, tuned, pre, dom, diag) in zip(self.cases, out):
            want = expected[j]
            got = {
                "m1": [m1], "m2": [m2],
                "mse": [r.mse for r in pre.rows], "pre": [r.pre for r in pre.rows],
            }
            for key, values in got.items():
                ref = want[key] if isinstance(want[key], list) else [want[key]]
                if len(values) != len(ref) or not all(map(_close, values, ref)):
                    problems.append(f"design {want['n']}: {key} {values} != recorded {ref}")
            if not _close(tuned.mse, want["mse"][sx.ESTIMATOR_ORDER.index("exp_regression")]):
                problems.append(f"design {want['n']}: mse_tp at optimum {tuned.mse!r} != tuned row")
            if len(dom) != len(sx.ESTIMATOR_ORDER) - 1 or not math.isfinite(diag.printed_mse):
                problems.append(f"design {want['n']}: dominance or diagnostics malformed")
        return problems

    def probes(self) -> dict:
        return {}


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


class CliReference:
    """A fixed cycle of ``python -m strataux`` commands, one at a time."""

    name = "cli-reference"
    unit = "commands"
    op_statistic = "p50"
    setup_reps = 101
    units_per_op = 1
    # strataux runs only in the child processes, so peak_rss_mb is theirs
    in_children = True
    KK_DESIGN = "31,21,29,38,22,39"
    SIM_STRATA = (
        dict(N=60, mean_y=40.0, mean_x=70.0, mean_z=50.0, sd_y=10.0, sd_x=16.0,
             sd_z=12.0, rho_yx=0.85, rho_yz=0.75, rho_xz=0.6),
        dict(N=80, mean_y=45.0, mean_x=75.0, mean_z=55.0, sd_y=11.0, sd_x=17.0,
             sd_z=13.0, rho_yx=0.85, rho_yz=0.75, rho_xz=0.6),
        dict(N=100, mean_y=50.0, mean_x=80.0, mean_z=60.0, sd_y=12.0, sd_x=18.0,
             sd_z=14.0, rho_yx=0.85, rho_yz=0.75, rho_xz=0.6),
    )
    SIM_DESIGN = (10, 12, 15)

    def __init__(self, seed: int, R: int = 500):
        self.seed, self.R = seed, R
        self.config_path = OUT / f"sim-config-{os.getpid()}.json"
        kk = str((DATA / "kk2009_summary.json").relative_to(ROOT))
        sim = str(self.config_path.relative_to(ROOT))
        design = ["--design", self.KK_DESIGN]
        self.commands = (
            ("reproduce-kk2009", ["reproduce-kk2009"]),
            ("mse-text", ["mse", "--input", kk, *design]),
            ("mse-json", ["mse", "--input", kk, *design, "--format", "json"]),
            ("pre-csv", ["pre", "--input", kk, *design, "--format", "csv"]),
            ("simulate-json", [
                "simulate", "--input", sim,
                "--design", ",".join(map(str, self.SIM_DESIGN)),
                "--R", str(R), "--seed", str(op_seed(seed, 0)), "--format", "json",
            ]),
        )
        self.warmup_ops = self.cycle = len(self.commands)

    def setup(self) -> None:
        reference = json.loads((DATA / "cli_reference.json").read_text(encoding="utf-8"))
        self.digests = reference["stdout_sha256"]
        config = {"seed": self.seed, "strata": list(self.SIM_STRATA)}
        OUT.mkdir(exist_ok=True)
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        cfg = sx.parse_generator_config(json.dumps(config))
        self.micro, _ = sx.generate_population(cfg)
        arrays = [np.asarray(g, dtype=np.float64) for g in self.micro.groups]
        self.fingerprints = {"simulate": fingerprint(self.micro.labels, arrays)}
        self.variance = exact_variance(arrays, self.SIM_DESIGN)
        self.first_stdout: dict[str, bytes] = {}

    def close(self) -> None:
        self.config_path.unlink(missing_ok=True)

    def run(self, i: int, tracer=None):
        name, argv = self.commands[i % len(self.commands)]
        env = subprocess_env()
        if tracer is None:
            cmd = [sys.executable, "-m", "strataux", *argv]
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
            return name, proc.returncode, proc.stdout, proc.stderr
        spans_path = OUT / f"spans-{os.getpid()}-{i}.json"
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans_path), *argv]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
            if spans_path.exists():
                tracer.merge(json.loads(spans_path.read_text(encoding="utf-8")), tracer.current())
        finally:
            spans_path.unlink(missing_ok=True)
        return name, proc.returncode, proc.stdout, proc.stderr

    def check(self, i: int, out) -> list[str]:
        name, code, stdout, stderr = out
        if code != 0:
            return [f"{name}: exit {code}: {stderr.decode(errors='replace')[-200:]}"]
        problems = []
        first = self.first_stdout.setdefault(name, stdout)
        if stdout != first:
            problems.append(f"{name}: stdout differs from its first run")
        if name in self.digests:
            got = hashlib.sha256(stdout).hexdigest()
            if got != self.digests[name]:
                problems.append(f"{name}: stdout sha256 {got[:12]} != recorded {self.digests[name][:12]}")
        if name.endswith("-json"):
            try:
                doc = _strict_json(stdout.decode())
            except ValueError as e:
                return problems + [f"{name}: output is not strict JSON: {e}"]
            if name == "simulate-json":
                problems += check_simulation(
                    doc["report"], fingerprint=self.fingerprints["simulate"],
                    variance=self.variance, R=self.R, n_rows=len(sx.ESTIMATOR_ORDER) + 1,
                )
        return problems

    def probes(self) -> dict:
        env = subprocess_env()

        def median_run(cmd):
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=60)
                times.append(time.perf_counter() - t0)
            return statistics.median(times)

        return {
            "cli.interp_s": median_run([sys.executable, "-c", "pass"]),
            "cli.import_s": median_run([sys.executable, "-c", "import strataux.cli"]),
        }


WORKLOADS = {w.name: w for w in (McSmallStrata, McLargeStrata, TheorySweep, CliReference)}
