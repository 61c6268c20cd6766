"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from its
``src/`` directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Scratch files go to ``.bench_work/`` under the checkout; a traced run also
writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# at least this many set-ups per run, and more until this much CPU time has
# gone into them; setup_s is their median
MIN_SETUPS = 3
SETUP_CPU_S = 5.0
BLAS_THREADS = 1
RSS_INTERVAL_S = 0.005


class PeakRss:
    """Highest resident set size seen while entered, sampled every few ms."""

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _sample(self) -> None:
        with open("/proc/self/statm", "rb") as fh:
            self.peak = max(self.peak, int(fh.read().split()[1]) * self._page)

    def _loop(self) -> None:
        while not self._stop.wait(RSS_INTERVAL_S):
            self._sample()

    def __enter__(self):
        self._stop.clear()
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def run(workload, seconds: float, tracer) -> dict:
    """Set up several times, then run whole rounds for ``seconds`` of wall time."""
    from eegmatch.errors import EegMatchError
    from spans import cpu_time

    setup_s = []
    while len(setup_s) < MIN_SETUPS or sum(setup_s) < SETUP_CPU_S:
        with tracer.span("bench.setup"):
            t0 = cpu_time()
            workload.setup()
            setup_s.append(cpu_time() - t0)
    timings: dict[str, list[float]] = defaultdict(list)
    errors: list[str] = []
    round_wall_s: list[float] = []
    rounds = failed = 0
    rss = PeakRss()
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            with rss, tracer.span("bench.round"):
                result = workload.round(rounds)
        except EegMatchError as exc:
            print(f"round {rounds} failed: {exc!r}", file=sys.stderr)
            failed += workload.ops_per_round
        else:
            round_wall_s.append(time.perf_counter() - t0)
            for key, values in result.items():
                timings[key] += values
            with tracer.pause():
                errors += [f"round {rounds}: {e}" for e in workload.check(rounds)]
                print(f"round {rounds}: {workload.describe(rounds)}", file=sys.stderr)
        rounds += 1
    wall = time.perf_counter() - start
    if failed == rounds * workload.ops_per_round:
        raise RuntimeError("every round failed")
    trained = [s for s in tracer.spans if s.name == "training.train"]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "cold_s": statistics.median(timings["cold_s"]),
        "rerun_s": statistics.median(timings["rerun_s"]),
        "train_samples_per_s": sum(s.work for s in trained) / sum(s.end - s.start for s in trained),
        "peak_rss_mb": rss.peak / 1e6,
    }
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    return {"correct": not errors, "attempted": rounds * workload.ops_per_round,
            "failed": failed, "metrics": metrics, "setups": len(setup_s),
            "round_wall_s": round_wall_s, "wall_s": wall}


def report(result: dict, tracer, traced: bool, trace_path: Path) -> dict:
    """The result line: end-to-end metrics, or per-layer ones when traced.

    Names and units are those ``BENCHMARK.json`` lists.
    """
    import layers

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = result["metrics"]
    if traced:
        values = layers.per_layer_metrics(tracer)
        tracer.dump(trace_path, {"end_to_end": e2e, "per_layer": values,
                                 "round_wall_s": result["round_wall_s"]})
    else:
        values = e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if traced else "end_to_end"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eegmatch" / "__init__.py").is_file():
        print(f"no eegmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    (layers.install_layers if args.trace else layers.install_meter)(tracer)
    try:
        result = run(WORKLOADS[args.workload](work, args.seed, tracer), args.seconds, tracer)
    finally:
        tracer.uninstall()
    print(f"{args.workload} seed {args.seed}: {result['setups']} set-ups, "
          f"{len(result['round_wall_s'])} rounds in {result['wall_s']:.1f} s of wall time "
          f"(rounds: {', '.join(f'{w:.2f}' for w in result['round_wall_s'])} s), "
          + ", ".join(f"{k}={v:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
    print(json.dumps(report(result, tracer, bool(args.trace), work / "trace.json")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
