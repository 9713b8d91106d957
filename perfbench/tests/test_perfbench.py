"""Self-test of the benchmark, on the registry's ``quick`` (tiny) profile.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, workload: str = "fig03"):
    """``run.py`` on the quick profile: (stdout, final JSON object)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--profile", "quick", *args],
        stdout=subprocess.PIPE, text=True, cwd=str(ROOT), timeout=170,
        check=True)
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def run_child(workload: str, seed: int, *args: str) -> dict:
    """One ``child.py`` run on the quick profile: its JSON record."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"),
         "--workload", workload, "--seed", str(seed), "--profile", "quick",
         *args],
        stdout=subprocess.PIPE, text=True, cwd=str(ROOT), env=env,
        timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_printed(out: str, result: dict, metrics) -> None:
    lines = out.splitlines()
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit, name
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.split()[:1] == [name] and f" {unit}" in line
                   for line in lines), f"{name} not printed with {unit}"


def test_every_metric_is_printed_with_its_unit():
    out, result = run_bench("--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert_printed(out, result, BENCH["end_to_end"])
    assert any(line.split()[:3] == ["failed_frac", "0.0000", "ratio"]
               for line in out.splitlines())

    out, result = run_bench("--trace", "1")
    assert result["correct"] and result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert_printed(out, result, BENCH["per_layer"])


def test_tampered_digest_pin_fails_every_run(tmp_path):
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps(
        {"fig03": {"quick": {"*": {"digest": "0" * 64}}}}))
    out, result = run_bench("--trace", "0", "--pins", str(pins))
    assert not result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert any(line.split()[:2] == ["failed_frac", "1.0000"]
               for line in out.splitlines())


def test_seed_changes_load_sweep_digest_but_not_fig03():
    assert run_child("fig03", 0)["digest"] == run_child("fig03", 1)["digest"]
    assert (run_child("load-sweep", 0)["digest"]
            != run_child("load-sweep", 1)["digest"])


def test_span_self_times_sum_to_traced_wall(tmp_path):
    trace = tmp_path / "trace.json"
    plain = run_child("fig03", 0)
    traced = run_child("fig03", 0, "--trace", str(trace))
    assert traced["digest"] == plain["digest"]
    document = json.loads(trace.read_text())
    total = sum(layer["self_s"] for layer in document["layers"].values())
    wall = document["traced_wall_s"]
    overhead = wall - plain["wall_s"]
    assert overhead > 0
    # Self times cover the traced wall time but for the tracer's estimated
    # cost, which stays within the overhead measured against the plain run.
    assert abs(total + document["tracer_overhead_est_s"] - wall) < 1e-3 * wall
    assert abs(total - wall) < overhead
    assert document["spans"] and document["span_count"] >= len(
        document["spans"])
