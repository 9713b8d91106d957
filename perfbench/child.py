"""One benchmark run: a fresh interpreter runs one registry experiment.

Usage (from ``run.py``, with ``PYTHONPATH`` naming the checkout's ``src``)::

    python3 perfbench/child.py --workload fig03 --seed 0 [--profile quick]
        [--setup-only] [--trace TRACE.json]

Prints one JSON object as its last stdout line: the monotonic instant the
experiment builder was resolved (the parent subtracts its spawn instant to
get ``setup_s``), the host wall time of the ``run_experiment`` call, peak
RSS, the SHA-256 of the canonical result JSON, the kernel and epoch
counters, and the simulated headline numbers beside the paper's.  With
``--trace`` the layer entry points are wrapped first (see ``tracer.py``)
and the spans plus per-layer table are written to ``TRACE.json``; without
it nothing is wrapped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from typing import Any, List


def fidelity(workload: str, result: Any) -> List[str]:
    """The simulated headline numbers next to the paper's reference."""
    from repro.experiments import paper_data
    if workload == "fig03":
        lines = []
        for index, size in enumerate(result.x_values):
            idle = result.series["2vms"][index]
            busy = result.series["4vms"][index]
            lines.append(f"fig03 {size}: TCP_RR rate drop "
                         f"{(idle - busy) / idle * 100:.1f}% with 2 busy VMs "
                         f"(paper ~{paper_data.FIG3_RATE_DROP_PCT:.0f}%)")
        return lines
    if workload == "fig11":
        return [f"fig11 co-located read gain @{freq}: "
                f"{result.improvement_pct('colocated', 'read', freq, 2):.1f}%"
                f" (paper ~{paper:.0f}%)"
                for freq, paper in (
                    ("3.2GHz",
                     paper_data.FIG11_COLOCATED_READ_IMPROVEMENT_3_2GHZ_PCT),
                    ("1.6GHz",
                     paper_data.FIG11_COLOCATED_READ_IMPROVEMENT_1_6GHZ_PCT))]
    return [f"{workload}: extension experiment, no paper reference; "
            f"its numbers are unvalidated"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", default="default")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="TRACE.json")
    args = parser.parse_args(argv)

    import repro
    from repro.experiments import registry, runner
    registry.get(args.workload).resolve()
    out = {"resolved_at": time.monotonic(), "repro_file": repro.__file__,
           "seed": args.seed}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.calibrate()
        tracing.install(tracer)
        root = tracer.name_id("other:run_experiment")
        tracer.push(root, "other", "run_experiment", 0.0)
    start = time.perf_counter()
    try:
        result = runner.run_experiment(args.workload, profile=args.profile,
                                       jobs=1, seed=args.seed)
        error = None
    except Exception as exc:  # a failed run is counted, not fatal
        traceback.print_exc()
        result, error = None, f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.pop()
    out["wall_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["error"] = error

    from repro.hostmodel.cpu import epoch_stats
    from repro.sim.kernel import kernel_stats
    out["kernel"] = kernel_stats()
    out["epochs"] = epoch_stats()
    if error is None:
        out["digest"] = hashlib.sha256(
            runner.canonical_json(result).encode()).hexdigest()
        out["fidelity"] = fidelity(args.workload, result)
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, out["kernel"], out["epochs"])
        out["layer_metrics"] = metrics
        write_trace(args, tracer, metrics, out["wall_s"])
    print(json.dumps(out))
    return 0


def write_trace(args, tracer, metrics, wall_s: float) -> None:
    """Spans (up to the log limit) plus the per-layer table, as JSON."""
    from tracer import LAYERS
    total = sum(tracer.self_s.values())
    table = {layer: {"self_s": tracer.self_s[layer],
                     "share_pct": tracer.self_s[layer] / total * 100.0}
             for layer in LAYERS}
    document = {
        "workload": args.workload, "seed": args.seed,
        "profile": args.profile, "traced_wall_s": wall_s,
        "tracer_overhead_est_s": tracer.overhead_s,
        "span_cost_s": {"call": tracer.call_cost,
                        "resumption": tracer.resume_cost},
        "layers": table,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "span_count": tracer.span_count,
        "span_fields": ["name", "start_s", "end_s", "parent", "request"],
        "names": tracer.names,
        "requests": tracer.requests,
        "spans": tracer.spans,
    }
    with open(args.trace, "w") as handle:
        json.dump(document, handle)


if __name__ == "__main__":
    sys.exit(main())
