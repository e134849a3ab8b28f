"""sawnet benchmark: detect-stream, featurize-infer and esc50-transfer.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

For each workload (all three when --workload is left out) this writes the
seeded inputs under .bench_work/, times several fresh-process set-ups, runs
the workload process for S seconds of whole rounds, checks its outputs
against perfbench/reference.py, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones listed in BENCHMARK.json; with --trace 1 they are
the per-layer ones, from alternating untraced and traced rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6       # fresh set-ups before the workload process, which adds one more
PROCESS_TIMEOUT_S = 150


def _spawn(args: list[str], timeout: float) -> float:
    """Run the worker to its end; return the seconds until it printed READY."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        ready = None
        for line in proc.stdout:
            if line.strip() == "perfbench-ready":
                ready = time.perf_counter() - start
                break
        proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        proc.kill()
        proc.wait()
    if ready is None or proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode} (ready: {ready is not None})")
    return ready


def fast_decile(values: list[float], better: str) -> float:
    """The 10th percentile of times, or the 90th of rates.

    This VM runs in fast and slow phases lasting seconds; a run's median
    moves with the share of slow phases it happened to catch, while the
    fast decile stays put.
    """
    if len(values) < 2:
        return values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[-1] if better == "higher" else deciles[0]


def _layer_metric_names() -> set[str]:
    import reference
    import tracing
    names = set(tracing.metric_names())
    names |= {f"models.aug.{layer[0]}_ms" for layer in reference.aug_layers(2)}
    names |= {f"models.fcn.{layer[0]}_ms"
              for layer in reference.fold_layers(reference.fcn_layers(2))}
    return names


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    import workloads
    workload = workloads.WORKLOADS[name]
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        meta = workload.generate(work, seed)
        (work / "meta.json").write_text(json.dumps(meta))
        setups = [] if trace else [_spawn([name, str(work), "setup"], PROCESS_TIMEOUT_S)
                                   for _ in range(SETUP_PROBES)]
        setups.append(_spawn([name, str(work), "run", str(seconds), str(int(trace))],
                             PROCESS_TIMEOUT_S))
        result = json.loads((work / "result.json").read_text())
        problems = workload.check(work, meta, result["outputs"])
        if len(set(result["digests"])) != 1:
            problems.append(f"outputs differ between rounds: {len(set(result['digests']))} kinds")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"{name}: check failed: {problem}", file=sys.stderr)

    samples = result["samples"]
    if trace:
        rounds = result["layer_rounds"]
        values = {key: statistics.fmean(r.get(key, 0.0) for r in rounds)
                  for key in set().union(*rounds)}
        loads = result["loads"]
        values["bundle.load_s"] = statistics.fmean(s for s, _ in loads) if loads else 0.0
        values["bundle.load_peak_mb"] = max((p for _, p in loads), default=0.0)
        values["trace.overhead_pct"] = 100.0 * (statistics.median(result["traced_round_s"])
                                                / statistics.median(samples["round_s"]) - 1.0)
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {"setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"],
                  "audio_x_rt": fast_decile(samples["audio_x_rt"], "higher"),
                  "round_s": fast_decile(samples["round_s"], "lower")}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": not problems, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sawnet" / "__init__.py").is_file():
        print(f"perfbench: no sawnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Never more BLAS threads than usable cores.
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if not os.environ.get(var, "").isdigit() or int(os.environ[var]) > cores:
            os.environ[var] = str(cores)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; expected one of "
                     f"{sorted(workloads.WORKLOADS)}")
    missing = {m["name"] for m in spec["per_layer"]} - _layer_metric_names()
    if missing:
        raise SystemExit(f"perfbench: BENCHMARK.json lists unknown per-layer metrics {missing}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    for name in names:
        line = run_workload(name, args.seed, seconds, bool(args.trace), spec)
        if args.workload is None:
            line = {"workload": name, **line}
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
