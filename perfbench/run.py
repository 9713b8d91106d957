"""The simulator's benchmark: four registry experiments, timed end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig03 --seed 0 --seconds 20 --trace 0

Every experiment run is a fresh child interpreter (``child.py``) calling
``run_experiment(name, profile, jobs=1, seed)``: one run at a time, a closed
loop with one client.  ``--trace 0`` times untraced runs for ``--seconds``
(at least :data:`MIN_RUNS`) and prints the end-to-end metrics; ``--trace 1``
makes one untraced and one traced run and prints the per-layer metrics.
Every run's result digest is checked against ``pins.json``; human-readable
lines come first, and the last stdout line is one JSON object.  See
``README.md`` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("fig03", "fig11", "scale-racks", "load-sweep")
#: Workloads whose inputs depend on the seed (see :func:`seed_panel`).
SEEDED = ("load-sweep",)
PANEL_SIZE = 4
PANEL_STRIDE = 1000
#: Timed runs per invocation, even when one run outlasts ``--seconds``.
MIN_RUNS = 3
#: Set-up-only children per invocation, after one discarded warm-up (the
#: first import of a fresh checkout compiles bytecode).
SETUP_PROBES = 7
#: The whole invocation ends within this many seconds.
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, foreign import)."""


def child_env() -> Dict[str, str]:
    # REPRO_* toggles select reference paths or the sanitizer; the benchmark
    # always measures the default configuration.
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: List[str], timeout: float) -> Optional[dict]:
    """Run ``child.py`` with ``args``; its JSON record, or None on failure.

    The record gains ``setup_s`` (spawn until the builder was resolved) and
    ``run_s`` (spawn until exit).
    """
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            stdout=subprocess.PIPE, env=child_env(), cwd=str(ROOT),
            timeout=max(1.0, timeout), text=True)
    except subprocess.TimeoutExpired:
        print(f"child {args} timed out after {timeout:.0f}s", file=sys.stderr)
        return None
    ended = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"child {args} exited {proc.returncode}", file=sys.stderr)
        return None
    record = json.loads(lines[-1])
    src = str(ROOT / "src") + os.sep
    if not record["repro_file"].startswith(src):
        raise BenchError(f"repro imported from {record['repro_file']}, "
                         f"not from {src}")
    record["setup_s"] = record["resolved_at"] - spawned
    record["run_s"] = ended - spawned
    return record


class Pins:
    """Expected digests (and exact simulated statistics) of one workload.

    ``pins.json`` maps workload -> profile -> experiment seed -> pin, where
    the seed ``"*"`` marks a workload whose inputs the seed does not touch.
    A seed without a pin must give the same digest on every run.
    """

    def __init__(self, path: Path, workload: str, profile: str):
        with open(path) as handle:
            self._pins = json.load(handle).get(workload, {}).get(profile, {})
        self._reference: Dict[int, str] = {}

    def pin(self, seed: int) -> Optional[dict]:
        return self._pins.get("*", self._pins.get(str(seed)))

    def describe(self, seeds: List[int]) -> str:
        parts = []
        for seed in seeds:
            pin = self.pin(seed)
            parts.append(f"seed {seed}: " + (
                f"pinned {pin['digest'][:16]}..." if pin
                else "unpinned, runs must agree"))
        return "; ".join(parts)

    def check(self, seed: int, record: Optional[dict]) -> Optional[str]:
        """Why ``record`` (a run at ``seed``) fails, or None if correct."""
        if record is None:
            return "child failed"
        if record["error"] is not None:
            return record["error"]
        digest = record["digest"]
        pin = self.pin(seed)
        expected = pin["digest"] if pin else self._reference.get(seed)
        if expected is None:
            self._reference[seed] = digest
        elif digest != expected:
            return f"digest {digest[:16]}... != {expected[:16]}..."
        if pin and "stats" in pin and "layer_metrics" in record:
            for name, value in pin["stats"].items():
                got = record["layer_metrics"][name][0]
                if got != value:
                    return f"{name} = {got!r}, pinned {value!r}"
        return None


def seed_panel(workload: str, seed: int) -> List[int]:
    """Experiment seeds one invocation runs, derived from ``--seed``.

    A seeded workload's cost depends on its seed (load-sweep's event count
    moves by ~20% and its peak RSS by ~15% between seeds; a single seed
    would carry that into the spread between invocations and force a
    loose ``peak_rss_mb`` bound), so an invocation cycles through a
    fixed panel of seeds, each at least twice, and reports the median over
    all runs.  The first panel seed is ``--seed`` itself.
    """
    if workload in SEEDED:
        return [seed + k * PANEL_STRIDE for k in range(PANEL_SIZE)]
    return [seed]


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def timed(args, pins: Pins, started: float) -> dict:
    """Set-up probes, then untraced runs for ``--seconds``."""
    seeds = seed_panel(args.workload, args.seed)

    def child_args(seed: int) -> List[str]:
        return ["--workload", args.workload, "--seed", str(seed),
                "--profile", args.profile]

    def budget() -> float:
        return HARD_LIMIT_S - (time.monotonic() - started)

    setups: List[float] = []
    for probe in range(SETUP_PROBES + 1):
        record = spawn(child_args(args.seed) + ["--setup-only"], budget())
        if record is None:
            raise BenchError("set-up probe failed")
        if probe:
            setups.append(record["setup_s"])

    # Runs cycle through the seed panel; each seed must run twice, because
    # an unpinned seed's runs must agree with each other.
    min_runs = MIN_RUNS if len(seeds) == 1 else 2 * len(seeds)
    runs, failures = [], []
    loop_start = time.monotonic()
    while True:
        seed = seeds[len(runs) % len(seeds)]
        record = spawn(child_args(seed), budget())
        runs.append(record)
        failures.append(pins.check(seed, record))
        if record is None:
            break
        setups.append(record["setup_s"])
        elapsed = time.monotonic() - loop_start
        typical = statistics.median(r["run_s"] for r in runs)
        if len(runs) >= min_runs and elapsed + typical > args.seconds:
            break
        if budget() < 2 * typical:
            break
    good = [r for r, why in zip(runs, failures) if why is None]
    return {"seeds": seeds, "runs": runs, "failures": failures,
            "good": good, "setups": setups}


def traced(args, pins: Pins, started: float) -> dict:
    """One untraced reference run, then one traced run."""
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--profile", args.profile]
    runs, failures = [], []
    for extra in ([], ["--trace", str(trace_path)]):
        budget = HARD_LIMIT_S - (time.monotonic() - started)
        record = spawn(child_args + extra, budget)
        runs.append(record)
        failures.append(pins.check(args.seed, record))
        if record is None:
            break
    return {"seeds": [args.seed], "runs": runs, "failures": failures,
            "trace_path": trace_path}


def report_timed(args, pins: Pins, result: dict) -> dict:
    runs, good = result["runs"], result["good"]
    attempted, failed = len(runs), sum(1 for why in result["failures"] if why)
    print(f"workload {args.workload} seed {args.seed} profile {args.profile}:"
          f" {attempted} runs; {pins.describe(result['seeds'])}")
    for index, why in enumerate(result["failures"]):
        if why:
            print(f"  run {index} FAILED: {why}")
    metrics = {}
    samples = {"wall_s": ([r["wall_s"] for r in good], "s"),
               "peak_rss_mb": ([r["peak_rss_mb"] for r in good], "MB"),
               "setup_s": (result["setups"], "s")}
    for name, (values, unit) in samples.items():
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        metrics[name] = {"value": median, "unit": unit}
        print(f"  {name:<12} median {median:.4f} {unit}  q1 {q1:.4f}  "
              f"q3 {q3:.4f}  n={len(values)}")
    print(f"  {'failed_frac':<12} {failed / attempted:.4f} ratio "
          f"({failed}/{attempted} runs)")
    if good:
        for line in good[0]["fidelity"]:
            print(f"  {line}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"timed-{args.workload}-seed{args.seed}.json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seeds": result["seeds"], "profile": args.profile,
                   "metrics": metrics,
                   "failed_frac": failed / attempted,
                   "failures": result["failures"], "runs": runs,
                   "setup_samples": result["setups"]}, f, indent=1)
    return {"correct": failed == 0 and bool(good), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def report_traced(args, pins: Pins, result: dict) -> dict:
    runs, failures = result["runs"], result["failures"]
    attempted, failed = len(runs), sum(1 for why in failures if why)
    print(f"workload {args.workload} seed {args.seed} profile {args.profile}:"
          f" traced pass; {pins.describe(result['seeds'])}")
    for index, why in enumerate(failures):
        if why:
            print(f"  run {index} FAILED: {why}")
    metrics = {}
    if failed == 0 and len(runs) == 2:
        plain, traced_run = runs
        overhead = (traced_run["wall_s"] / plain["wall_s"] - 1.0) * 100.0
        for name, (value, unit) in traced_run["layer_metrics"].items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace_overhead_pct"] = {"value": overhead, "unit": "%"}
        layer_total = sum(metric["value"] for name, metric in metrics.items()
                          if name.endswith(".self_s"))
        print(f"  untraced wall {plain['wall_s']:.4f} s, traced wall "
              f"{traced_run['wall_s']:.4f} s, trace_overhead_pct "
              f"{overhead:.1f} %; layer self times sum to {layer_total:.4f} s")
        for name, metric in metrics.items():
            share = ""
            if name.endswith(".self_s"):
                share = (f"  ({metric['value'] / layer_total * 100:.1f}% "
                         f"of the layer total)")
            print(f"  {name:<30} {metric['value']:.6g} {metric['unit']}"
                  f"{share}")
        with open(result["trace_path"]) as handle:
            document = json.load(handle)
        document["untraced_wall_s"] = plain["wall_s"]
        document["trace_overhead_pct"] = overhead
        with open(result["trace_path"], "w") as handle:
            json.dump(document, handle)
        print(f"  spans and per-layer table: "
              f"{result['trace_path'].relative_to(ROOT)}")
    print(f"  failed_frac {failed / attempted:.4f} ratio "
          f"({failed}/{attempted} runs)")
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--profile", default="default",
                        help="registry size profile (the self-test uses "
                             "'quick')")
    parser.add_argument("--pins", type=Path, default=HERE / "pins.json",
                        help="pin file (the self-test passes a tampered one)")
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for this process and, inherited, every child, so that runs
    # do not migrate between cores.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"running unpinned: {exc}", file=sys.stderr)
    # Users run from byte-compiled modules; compile them once here, since
    # the environment may forbid the children to write bytecode.
    for package in (ROOT / "src" / "repro", HERE):
        compileall.compile_dir(str(package), quiet=1)
    pins = Pins(args.pins, args.workload, args.profile)
    try:
        if args.trace:
            summary = report_traced(args, pins, traced(args, pins, started))
        else:
            summary = report_timed(args, pins, timed(args, pins, started))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
