#!/usr/bin/env python3
"""dfscore benchmark: one workload per process, checked against references.

Usage, from the repository root:

    python3 perfbench/run.py --workload lag-sweep --seed 1 --seconds 28 --trace 0

The benchmark imports dfscore from ``./src``, makes the workload's inputs
from ``--seed``, and runs whole rounds of the workload until ``--seconds``
have passed, timing a few fresh set-ups before each round; then it checks
every output.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from a traced run) with ``--trace 1``.
Scratch files (configs, CSVs, the span dump) go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SETUPS_PER_ROUND = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


END_TO_END = ("setup_s", "wall_s", "samples_per_s", "estimate_s.first", "estimate_s.last",
              "peak_rss_mb")
TRACE_METRICS = ("trace.overhead_s", "trace.overhead_pct", "trace.spans_per_round",
                 "trace.span_cost_us")


def per_layer_names():
    from tracer import LAYER_METRICS
    import microbench

    return [name for name, _, _ in LAYER_METRICS] + list(TRACE_METRICS) + microbench.names()


def unit(name):
    """Unit of a metric, from its name."""
    if name == "samples_per_s":
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(".bytes"):
        return "B_computed"
    if name.endswith(("_s", ".s", "_s_sum")) or name.startswith("estimate_s."):
        return "s"
    return "count"


def _purge_dfscore():
    for name in [n for n in sys.modules if n == "dfscore" or n.startswith("dfscore.")]:
        del sys.modules[name]


def _set_up(workload, times):
    """Set up afresh, from the import of dfscore on, and time it."""
    for _ in range(SETUPS_PER_ROUND):
        _purge_dfscore()
        t0 = perf_counter()
        workload.setup()
        times.append(perf_counter() - t0)


def _rounds(workload, seconds, setup_times):
    """Whole rounds, each after timed set-ups, until ``seconds`` have passed.

    Spreading the set-ups over the run makes the set-up figure sample the
    machine across the whole run, not only at its start.
    """
    results = []
    elapsed = 0.0
    while not results or elapsed < seconds:
        _set_up(workload, setup_times)
        results.append(workload.run_round(len(results)))
        elapsed += results[-1]["wall"]
    return results


def _estimate_medians(workload, results):
    pooled = {name: [] for name in workload.estimate_names}
    for result in results:
        for name, values in result["estimates"].items():
            pooled[name] += values
    return {name: statistics.median(v) for name, v in pooled.items() if v}


def _end_to_end(workload, results, setup_times):
    wall = statistics.median(r["wall"] for r in results)
    estimates = _estimate_medians(workload, results)
    first, last = workload.estimate_names[0], workload.estimate_names[-1]
    if first not in estimates or last not in estimates:
        return None
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "samples_per_s": workload.samples_per_round / wall,
        "estimate_s.first": estimates[first],
        "estimate_s.last": estimates[last],
    }


def _traced(workload, seconds, setup_times, workdir):
    """One untraced round, then traced rounds until ``seconds`` have passed.

    Returns the round results and the per-layer metrics: the traced set-up
    plus the median traced round, the tracing overhead and the kernel
    micro-benchmark.
    """
    from tracer import Tracer, span_cost_us, summarize
    import microbench

    _set_up(workload, setup_times)
    plain = workload.run_round(0)
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
        setup_spans = tracer.take()
        traced, round_spans = [], []
        elapsed = plain["wall"]
        while not traced or elapsed < seconds:
            traced.append(workload.run_round(1 + len(traced)))
            round_spans.append(tracer.take())
            elapsed += traced[-1]["wall"]
    finally:
        tracer.uninstall()
    setup_layers = summarize(setup_spans)
    per_round = [summarize(spans) for spans in round_spans]
    metrics = {
        name: value + statistics.median(r[name] for r in per_round)
        for name, value in setup_layers.items()
    }
    extra = statistics.median(r["wall"] for r in traced) - plain["wall"]
    metrics["trace.overhead_s"] = extra
    metrics["trace.overhead_pct"] = 100.0 * extra / plain["wall"]
    metrics["trace.spans_per_round"] = statistics.median(len(s) for s in round_spans)
    metrics["trace.span_cost_us"] = span_cost_us()
    metrics.update(microbench.run(sys.modules["dfscore.kernels"], sys.modules["dfscore"]))
    Tracer.write(setup_spans + [s for spans in round_spans for s in spans],
                 workdir / "spans.tsv.gz")
    return [plain] + traced, metrics


def main(argv=None):
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "dfscore" / "__init__.py").is_file():
        print("perfbench: ./src/dfscore not found; run from the repository root",
              file=sys.stderr)
        return 2
    # At most two busy threads: the harness pool, never a BLAS pool on top.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_times = []
    if args.trace:
        results, metrics = _traced(workload, args.seconds, setup_times, workdir)
    else:
        results = _rounds(workload, args.seconds, setup_times)
        metrics = _end_to_end(workload, results, setup_times)
        if metrics is None:
            print("perfbench: every replicate of an estimator failed; nothing to time",
                  file=sys.stderr)
            return 1
    extras = workload.finish()
    workload.reference()
    failures = workload.check()
    with open(workdir / "rounds.json", "w") as fh:
        json.dump({"setup_s": setup_times, "rounds": results, "extras": extras}, fh)
    if not args.trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail = {f"estimate_s.{k}": v for k, v in _estimate_medians(workload, results).items()}
        detail.update(extras)
        detail["rounds"] = len(results)
        print(f"{args.workload} seed {args.seed}: "
              + " ".join(f"{k}={v:.6g}" for k, v in detail.items()))
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": metrics[name], "unit": unit(name)}
            for name in (per_layer_names() if args.trace else END_TO_END)
        },
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
