"""Record the reference inputs and answers the benchmark checks against.

Run from the repository root, only when a change of results is deliberate:

    python3 bench/make_reference.py

Writes, under bench/data/:
- kk2009_summary.json: the embedded KK2009 summary, as the CLI reads it;
- strata64_summary.json: a generated 64-stratum summary (fixed seed);
- theory_reference.json: for each summary a pool of random designs
  (2 <= n_h < N_h) with optimal_m's (m1, m2) and pre_table's MSE and PRE
  per estimator;
- cli_reference.json: the sha256 of the stdout of the reference CLI
  commands that must stay byte-identical.
"""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DATA = BENCH_DIR / "data"
sys.path.insert(0, str(ROOT / "src"))

import strataux as sx  # noqa: E402

from workloads import CliReference, subprocess_env  # noqa: E402

POOL = {"kk2009_summary.json": 128, "strata64_summary.json": 64}


def strata64() -> sx.PopulationSummary:
    rng = np.random.default_rng(64)
    strata = []
    for _ in range(64):
        scale = rng.uniform(0.5, 2.0)
        strata.append(sx.GeneratorStratum(
            N=int(rng.integers(40, 400)),
            mean_y=50.0 * scale, mean_x=80.0 * scale, mean_z=60.0 * scale,
            sd_y=12.0 * scale, sd_x=20.0 * scale, sd_z=15.0 * scale,
            rho_yx=float(rng.uniform(0.8, 0.9)), rho_yz=float(rng.uniform(0.7, 0.8)),
            rho_xz=float(rng.uniform(0.6, 0.7)),
        ))
    _, summary = sx.generate_population(sx.PopulationConfig(strata=tuple(strata), seed=64))
    return summary


def design_pool(pop: sx.PopulationSummary, size: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    pool = []
    while len(pool) < size:
        n = [int(rng.integers(2, s.N)) for s in pop.strata]
        m = sx.moment_set(pop, sx.SampleDesign(n=tuple(n)))
        m1, m2 = sx.optimal_m(m)
        pre = sx.pre_table(m)
        pool.append({"n": n, "m1": m1, "m2": m2,
                     "mse": [r.mse for r in pre.rows], "pre": [r.pre for r in pre.rows]})
    return pool


def cli_digests() -> dict:
    digests = {}
    for name, argv in CliReference(0).commands:
        if name in ("reproduce-kk2009", "pre-csv"):
            out = subprocess.run([sys.executable, "-m", "strataux", *argv], cwd=ROOT,
                                 env=subprocess_env(), capture_output=True, check=True).stdout
            digests[name] = hashlib.sha256(out).hexdigest()
    return digests


def main() -> None:
    DATA.mkdir(exist_ok=True)
    kk, _ = sx.embedded_kk2009()
    (DATA / "kk2009_summary.json").write_text(sx.summary_to_json(kk) + "\n", encoding="utf-8")
    (DATA / "strata64_summary.json").write_text(sx.summary_to_json(strata64()) + "\n",
                                                encoding="utf-8")
    summaries = []
    for seed, (file, policy) in enumerate(
        (("kk2009_summary.json", "prefer-correlation"), ("strata64_summary.json", None))
    ):
        pop = sx.parse_summary((DATA / file).read_text(encoding="utf-8"))
        if policy:
            pop, _ = sx.reconcile_covariances(pop, policy)
        summaries.append({"file": file, "policy": policy,
                          "designs": design_pool(pop, POOL[file], seed)})
    (DATA / "theory_reference.json").write_text(
        json.dumps({"summaries": summaries}) + "\n", encoding="utf-8")
    (DATA / "cli_reference.json").write_text(
        json.dumps({"stdout_sha256": cli_digests()}, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
