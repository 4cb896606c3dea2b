"""strataux benchmark: four workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json; ``all`` runs each of them
in a fresh process, one after another. The benchmark imports strataux from
the checkout's ``src`` directory and fails without printing a result when
that is missing.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
alternates untraced and traced cycles of operations, and reports the
per-layer metrics plus the tracing overhead (traced minus untraced time
per operation, paired cycle by cycle).
Every operation's output is checked; a failed check counts the operation
as failed. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Details, spans and provenance go
to bench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, totals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Below this many timed operations a run keeps going past --seconds.
MIN_OPS = 3


def run_ops(wl, seconds: float, tracer=None) -> dict:
    """Run and check operations for ``seconds`` after the workload's warm-up.

    A run ends on a whole number of the workload's cycles of distinct
    operations, so mixed workloads time the same mix on every run. With a
    tracer, timed cycles alternate untraced and traced (the tracer is
    installed for the traced ones only), so the two kinds of cycle see
    nearly the same machine speed; the run then ends on a whole pair.

    Returns the timed (op index, seconds, traced) samples and the attempted
    and failed counts, warm-up operations included: they are checked too.
    """
    samples: list[tuple[int, float, bool]] = []
    attempted = failed = 0
    problems: list[str] = []
    period = wl.cycle * (1 if tracer is None else 2)
    i = 0
    t_stop = None
    while True:
        timed = i >= wl.warmup_ops
        if timed and t_stop is None:
            t_stop = time.perf_counter() + seconds
        traced = tracer is not None and timed and (i - wl.warmup_ops) % period >= wl.cycle
        dt = None
        try:
            if traced:
                tracer.op = i
                with tracer.installed(), tracer.span("op"):
                    t0 = time.perf_counter()
                    out = wl.run(i, tracer)
                    dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                out = wl.run(i)
                dt = time.perf_counter() - t0
            errors = wl.check(i, out)
        except Exception as e:  # a raising operation is a failed operation
            errors = [f"raised {type(e).__name__}: {e}"]
        attempted += 1
        if errors:
            failed += 1
            problems.extend(f"op {i}: {p}" for p in errors[:3])
        if timed and dt is not None:
            samples.append((i, dt, traced))
        i += 1
        n_timed = i - wl.warmup_ops
        if (n_timed >= MIN_OPS and n_timed % period == 0
                and time.perf_counter() >= t_stop):
            break
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "problems": problems}


def cycle_median(times: list[float], cycle: int) -> float:
    """op_s.p50: the median time of each distinct operation of the cycle,
    averaged over the cycle; with a cycle of one, the median time.

    ``times`` starts at the first operation of a cycle.
    """
    return statistics.fmean(statistics.median(times[k::cycle]) for k in range(cycle))


def op_time(wl, times: list[float]) -> float:
    """The op_s metric: the workload's time per operation.

    op_s.p50, except for a workload whose tens of thousands of operations
    per run all do the same work: there the fastest operation, the time an
    operation takes while the machine runs at its faster speed level.
    """
    if wl.op_statistic == "min":
        return min(times)
    return cycle_median(times, wl.cycle)


def tracing_overhead(samples: list, cycle: int) -> float:
    """Median over adjacent (untraced, traced) cycle pairs of the traced
    cycle's mean operation time minus the untraced one's."""
    diffs = []
    for k in range(0, len(samples) - 2 * cycle + 1, 2 * cycle):
        plain = samples[k:k + cycle]
        traced = samples[k + cycle:k + 2 * cycle]
        diffs.append((sum(s[1] for s in traced) - sum(s[1] for s in plain)) / cycle)
    return statistics.median(diffs)


def tail(times: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def peak_rss_mb(wl) -> float:
    """Largest resident set of the process that ran strataux: this one, or
    for a workload whose operations are subprocesses the largest child."""
    who = resource.RUSAGE_CHILDREN if getattr(wl, "in_children", False) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(spans: list, op_ids: list[int]) -> dict:
    """Per-layer metrics from spans, per operation over the traced ones."""
    t = totals(spans, op_ids)
    n = len(op_ids)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    parse, summ = t["data_model.parse_microdata"], t["data_model.summarize"]
    designs = t["moments.moment_set"]["calls"]
    return {
        "data_model.parse_microdata.s": parse["s"] / n,
        "data_model.summarize.s": summ["s"] / n,
        "data_model.summarize.calls": summ["calls"] / n,
        # records enter the data layer once, through parse or summarize
        "data_model.rows_per_s": ratio(max(parse["count"], summ["count"]), parse["s"] + summ["s"]),
        "monte_carlo.population_fingerprint.s": t["monte_carlo.population_fingerprint"]["s"] / n,
        "monte_carlo.run_simulation.self_s": t["monte_carlo.run_simulation"]["self_s"] / n,
        "moments.moment_set.s": t["moments.moment_set"]["s"] / n,
        # one moment_set call per design evaluated
        "mse_theory.optimal_m.calls_per_design": ratio(t["mse_theory.optimal_m"]["calls"], designs),
        "mse_theory.mse_tp.calls_per_design": ratio(t["mse_theory.mse_tp"]["calls"], designs),
        "efficiency.pre_table.s": t["efficiency.pre_table"]["s"] / n,
        "efficiency.dominance_report.s": t["efficiency.dominance_report"]["s"] / n,
        "cli.main.self_s": t["cli.main"]["self_s"] / n,
    }


def provenance(wl, seed: int) -> dict:
    import numpy

    source = hashlib.sha256()
    for path in sorted((SRC / "strataux").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": wl.name, "seed": seed,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "commit": commit,
        "source_sha256": source.hexdigest(), "fingerprints": wl.fingerprints,
    }


def measure(wl, seconds: float, trace: bool):
    """Set up, run and check one workload.

    Returns the result dict and, for a traced run, the Tracer holding
    the spans.
    """
    setup_times = []
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    tracer = Tracer() if trace else None
    ran = run_ops(wl, seconds, tracer)
    times = [dt for _, dt, traced in ran["samples"] if not traced]
    if not times:
        raise RuntimeError("no operation completed: " + "; ".join(ran["problems"][:3]))
    op_s = op_time(wl, times)
    result = {
        "attempted": ran["attempted"], "failed": ran["failed"], "problems": ran["problems"],
        "end_to_end": {
            "op_s": op_s,
            "work_per_s": wl.units_per_op / op_s,
            "setup_s": statistics.median(setup_times),
        },
        "report": {"ops": len(times), "op_s.tail": tail(times),
                   "op_s.p50": cycle_median(times, wl.cycle), "op_s": times},
    }
    if trace:
        traced = [(i, dt) for i, dt, t in ran["samples"] if t]
        layers = layer_metrics(tracer.spans, [i for i, _ in traced])
        layers.update(wl.probes())
        layers["trace.overhead_s"] = tracing_overhead(ran["samples"], wl.cycle)
        result["per_layer"] = layers
        result["report"].update({
            "traced_op_s.p50": cycle_median([dt for _, dt in traced], wl.cycle),
            "traced_ops": len(traced),
        })
    result["end_to_end"]["peak_rss_mb"] = peak_rss_mb(wl)
    return result, tracer


def print_report(wl, result: dict, metrics: dict) -> None:
    """Human-readable lines: every metric by name and unit."""
    e2e, rep = result["end_to_end"], result["report"]
    for p in result["problems"][:20]:
        print(f"FAILED {p}")
    print(f"{wl.name}: {rep['ops']} timed operations, {result['attempted']} attempted, "
          f"{result['failed']} failed")
    print(f"  failed_ops_ratio  {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    print(f"  op_s  {e2e['op_s']:.6g} s ({wl.op_statistic})")
    print(f"  op_s.p50  {rep['op_s.p50']:.6g} s")
    if rep["op_s.tail"]:
        pct, value = rep["op_s.tail"]
        print(f"  op_s.tail  p{pct:.1f} = {value:.6g} s (n={rep['ops']}, 10 beyond)")
    else:
        print(f"  op_s.tail  not reported: {rep['ops']} operations, needs 11")
    print(f"  {wl.unit}_per_s (work_per_s)  {e2e['work_per_s']:.6g} 1/s")
    print(f"  setup_s  {e2e['setup_s']:.6g} s (median of {wl.setup_reps})")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.6g} MB")
    if "per_layer" in result:
        print(f"  traced op_s.p50  {rep['traced_op_s.p50']:.6g} s over {rep['traced_ops']} operations")
        for key, m in metrics.items():
            print(f"  {key}  {m['value']:.6g} {m['unit']}")


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    try:
        result, tracer = measure(wl, seconds, trace)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["per_layer"] if trace else result["end_to_end"]
    # a layer the workload's operations never enter reads 0
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    prov = provenance(wl, seed)
    correct = result["failed"] == 0

    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    print_report(wl, result, metrics)
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.dump(OUT / f"spans-{stem}.json")
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"provenance": prov, "correct": correct, **result}, indent=2
    ), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(spec: dict, seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so RSS and setup are its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            last = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            print(f"{w['name']}: no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        total["correct"] &= last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            total["metrics"][f"{w['name']}.{k}"] = v
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=nonnegative_int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "strataux" / "__init__.py").is_file():
        print(f"error: no strataux sources under {SRC}", file=sys.stderr)
        return 2
    # no hidden BLAS threads: only the mc-small-strata pool runs threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(spec, args.seed, args.seconds, bool(args.trace))
    sys.path.insert(0, str(SRC))
    import strataux

    if Path(strataux.__file__).resolve().parent != SRC / "strataux":
        print(f"error: imported strataux from {strataux.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
