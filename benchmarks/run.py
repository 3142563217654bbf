#!/usr/bin/env python3
"""Run one guessmix benchmark workload in this process.

    python3 benchmarks/run.py --workload play --seed 1 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones, each by name and unit, and then as the last
line the JSON result {"correct", "attempted", "failed", "metrics"}. The
full record (environment, output digests, sample counts, failures) goes to
.bench_out/results/; a traced run writes its spans to .bench_out/work/.
See benchmarks/README.md for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_TRACE_ROUNDS = 2


@dataclass
class Rounds:
    done: list = field(default_factory=list)       # (run id, Round) of every finished round
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    reference: object = None                       # the first finished round


def run_round(round_fn, check_fn, inputs, out: Rounds, run_id: int, tracer=None) -> None:
    """Run one round into `out` and check it against `out.reference`.

    With a tracer, the round runs with the tracer installed, under a
    `bench.round` root span. A round that raises, or whose output check
    finds a problem, counts as failed; its exception does not end the run.
    """
    out.attempted += 1
    if tracer is not None:
        tracer.install()
        tracer.run = run_id
        root = tracer.begin("bench.round")
    try:
        r = round_fn(inputs)
    except Exception as exc:  # a failed operation is counted, not fatal
        out.failed += 1
        out.failures.append(f"round {run_id} raised {type(exc).__name__}: {exc}")
        return
    finally:
        if tracer is not None:
            tracer.end(root)
            tracer.uninstall()
    try:
        problems = check_fn(r, out.reference)
    except Exception as exc:  # a check that cannot run is a failed check
        problems = [f"output check raised {type(exc).__name__}: {exc}"]
    if out.reference is None:
        out.reference = r
    out.failed += bool(problems)
    out.failures.extend(f"round {run_id}: {p}" for p in problems)
    out.done.append((run_id, r))


def run_rounds(round_fn, check_fn, inputs, seconds: float, min_rounds: int,
               tracer=None, sides: list[Rounds] | None = None) -> list[Rounds]:
    """Run rounds for about `seconds`, at least `min_rounds` of them.

    No round starts when a median-length round would end past the budget.
    With a tracer, each step is an untraced round then a traced one, so a
    slow spell of a shared host does not land on one side of the tracing
    overhead; the traced rounds go to the second `Rounds` returned. Rounds
    are added to `sides` when it is given, so that several calls share one
    reference round and one count.
    """
    if sides is None:
        sides = [Rounds()] if tracer is None else [Rounds(), Rounds()]
    lengths: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for out, side_tracer in zip(sides, (None, tracer)):
            out.reference = sides[0].reference
            run_id = sum(o.attempted for o in sides) + 1
            run_round(round_fn, check_fn, inputs, out, run_id, side_tracer)
        lengths.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(lengths) >= min_rounds and elapsed + statistics.median(lengths) > seconds:
            return sides


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": commit,
        "loadavg_at_start": os.getloadavg(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, scale, out_dir: Path):
    """Set up and run one workload; returns (metrics, record)."""
    import workloads

    setup, round_fn, check_fn = workloads.WORKLOADS[workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    if not trace:
        # Each set-up is followed by its share of the rounds, so the round
        # times sample the whole run, not only its last stretch: the speed
        # of a shared host drifts over tens of seconds.
        runs, setup_s = Rounds(), []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = setup(seed, scale, out_dir)
            setup_s.append(time.perf_counter() - t0)
            run_rounds(round_fn, check_fn, inputs, seconds / SETUP_REPEATS, 1, sides=[runs])
        done = [r for _, r in runs.done]
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(r.seconds for r in done),
            "items_per_s": statistics.median(r.items / r.seconds for r in done),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return metrics, _finish({"setup_s_samples": setup_s}, [runs])

    import probes
    import tracing

    inputs = setup(seed, scale, out_dir)
    tracer = tracing.Tracer()
    plain, traced = run_rounds(round_fn, check_fn, inputs, seconds, MIN_TRACE_ROUNDS, tracer)
    by_run = {spans[0][tracing.RUN]: spans for spans in tracing.split_runs(tracer.spans)}
    profiles = [tracing.round_profile(by_run[run_id]) for run_id, _ in traced.done]
    metrics = {k: statistics.median(p[k] for p in profiles) for k in profiles[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(r.seconds for _, r in traced.done)
        / statistics.median(r.seconds for _, r in plain.done) - 1.0)
    metrics.update(probes.run_probes(seed, scale, out_dir))
    spans_path = out_dir / f"{workload}-seed{seed}.spans.jsonl"
    tracer.dump(spans_path)
    return metrics, _finish({"spans": spans_path.name}, [plain, traced])


def _finish(record: dict, parts: list[Rounds]) -> dict:
    """Add the failure counts, round times and output digest to `record`."""
    attempted = sum(p.attempted for p in parts)
    failed = sum(p.failed for p in parts)
    record.update(
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        failures=[f for p in parts for f in p.failures][:20],
        round_s=[[r.seconds for _, r in p.done] for p in parts],
        outputs_sha256=parts[0].reference.digest if parts[0].reference else None,
    )
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if not (SRC / "guessmix" / "__init__.py").is_file():
        print(f"error: no guessmix package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads OpenBLAS
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    env = environment()
    metrics, record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                              workloads.FULL, OUT / "work")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        print(f"error: measured metrics {sorted(set(metrics) ^ names)} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 2

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, metrics=metrics)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for m in declared:
        print(f"{m['name']:40s} {metrics[m['name']]:>16.6g} {m['unit']}")
    for key in ("failed_frac", "outputs_sha256"):
        print(f"{key:40s} {record[key]}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
