"""The workload process: set-up, then whole rounds until the time is up.

    python3 perfbench/worker.py WORKLOAD WORKDIR setup
    python3 perfbench/worker.py WORKLOAD WORKDIR run SECONDS TRACE

Prints READY once the first result is ready, which is where the benchmark
stops its set-up clock. In `setup` mode it exits there. In `run` mode it
then runs rounds and writes WORKDIR/result.json. With TRACE 1 the rounds
alternate untraced and traced, and the traced ones also yield spans.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
READY = "perfbench-ready"


def main(argv: list[str]) -> None:
    name, work, mode = argv[0], Path(argv[1]), argv[2]
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import sawnet.cli  # noqa: F401  (import is part of set-up)
    import workloads
    workload = workloads.WORKLOADS[name]
    meta = json.loads((work / "meta.json").read_text())
    trace = mode == "run" and argv[4] == "1"
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    state = workload.setup(work, meta)
    if tracer:
        tracer.uninstall()
    print(READY, flush=True)
    if mode == "setup":
        return
    loads = tracer.load_stats() if tracer else []
    seconds = float(argv[3])
    samples: dict[str, list[float]] = {}
    traced_round_s: list[float] = []
    layer_rounds: list[dict] = []
    attempted = failed = 0
    first_outputs, digests = None, []
    deadline = workloads.clock() + seconds
    i = 0
    while True:
        traced = trace and i % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        result = workload.round(state)
        if traced:
            tracer.uninstall()
            layer_rounds.append(tracer.reduce())
            loads += tracer.load_stats()
            traced_round_s += result["samples"]["round_s"]
        else:
            for metric, values in result["samples"].items():
                samples.setdefault(metric, []).extend(values)
        attempted += result["attempted"]
        failed += result["failed"]
        if first_outputs is None:
            first_outputs = result["outputs"]
        digests.append(workloads.digest(result["outputs"]))
        i += 1
        if workloads.clock() >= deadline and (not trace or i >= 2):
            break
    # VmHWM belongs to this process image; ru_maxrss would also count the
    # parent's memory at fork time, since Linux carries it across exec.
    status = Path("/proc/self/status").read_text()
    peak_rss_mb = int(status.split("VmHWM:")[1].split()[0]) / 1024.0
    (work / "result.json").write_text(json.dumps({
        "attempted": attempted, "failed": failed, "samples": samples,
        "traced_round_s": traced_round_s, "layer_rounds": layer_rounds, "loads": loads,
        "peak_rss_mb": peak_rss_mb, "outputs": first_outputs, "digests": digests,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
