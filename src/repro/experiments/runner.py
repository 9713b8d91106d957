"""The parallel experiment runner: deterministic sweep fan-out.

Sweep-shaped experiments (those whose :class:`~repro.experiments.registry.
ExperimentSpec` carries a ``fanout``) decompose into independent points,
each simulating its own cluster.  This module shards those points across
worker processes with :mod:`multiprocessing` and reassembles the results
in the serial point order, so ``jobs=1`` and ``jobs=N`` produce
byte-identical output.

Determinism contract:

* every point's seed is :func:`derive_seed`\\ ``(root_seed, point)`` — a
  SHA-256 of the root seed and the point key, independent of scheduling;
* workers receive only ``(experiment name, point, seed, kwargs)`` and
  resolve the spec from the registry in their own interpreter, so results
  depend only on those arguments;
* results are reassembled in ``Fanout.points`` order (``Pool.map``
  preserves order), never in completion order.

Experiments without a fanout simply run serially via their builder.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import multiprocessing
from typing import Any, Dict, Optional

from repro.experiments import registry


def derive_seed(root_seed: int, point: Any) -> int:
    """Deterministic per-point seed from ``(root_seed, point)``.

    Stable across processes and Python invocations (no ``hash()``
    randomization), so parallel and serial runs agree byte-for-byte.
    """
    digest = hashlib.sha256(f"{root_seed}:{point!r}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _worker(task) -> Any:
    """Measure one sweep point (runs inside a worker process).

    A finished point's cluster is a graph of reference cycles (every
    component holds its simulator, every parked process is held by its
    event), which only the cyclic collector frees.  Collecting here frees
    it before the next point allocates; no simulation state can observe
    a collection.
    """
    name, point, seed, kwargs = task
    spec = registry.get(name)
    result = spec.fanout.run_point(point, seed, dict(kwargs))
    gc.collect()
    return result


def _run_serial(tasks) -> list:
    """Run the points in this process, in order.

    The heap the sweep starts from (modules, registry, caller state) is
    frozen for the duration, so each point's collection walks only what
    the sweep allocated.
    """
    gc.freeze()
    try:
        return [_worker(task) for task in tasks]
    finally:
        gc.unfreeze()


def run_experiment(name: str, profile: str = "default", jobs: int = 1,
                   seed: int = 0,
                   params: Optional[Dict[str, Any]] = None) -> Any:
    """Run one registered experiment; fan sweep points out over ``jobs``.

    ``params`` overrides the profile's parameter grid entirely when given.
    Experiments without a registered fan-out ignore ``jobs`` and ``seed``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    spec = registry.get(name)
    kwargs = dict(spec.params(profile)) if params is None else dict(params)
    build = spec.resolve()
    if spec.fanout is None:
        return build(**kwargs)
    points = spec.fanout.points(kwargs)
    tasks = [(name, point, derive_seed(seed, point), kwargs)
             for point in points]
    if jobs == 1 or len(tasks) <= 1:
        outputs = _run_serial(tasks)
    else:
        with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
            outputs = pool.map(_worker, tasks)
    return spec.fanout.assemble(list(zip(points, outputs)), kwargs, build)


# ----------------------------------------------------------------- JSON export
def jsonable(obj: Any) -> Any:
    """Convert an experiment result into JSON-serializable data.

    Dataclasses become dicts, tuples become lists, non-string dict keys
    become their ``str()`` (e.g. a ``('colocated', 'read')`` panel key
    serializes as ``"('colocated', 'read')"``).  Combined with
    :func:`canonical_json` this gives a stable byte representation for
    determinism checks.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {field.name: jsonable(getattr(obj, field.name))
                for field in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {(key if isinstance(key, str) else str(key)): jsonable(value)
                for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(item) for item in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        return obj
    return repr(obj)


def canonical_json(result: Any) -> str:
    """Canonical JSON text of a result (sorted keys, fixed separators)."""
    return json.dumps(jsonable(result), sort_keys=True,
                      separators=(",", ":"))


def write_json(result: Any, path: str) -> None:
    """Write a result as indented JSON to ``path``."""
    with open(path, "w") as handle:
        json.dump(jsonable(result), handle, sort_keys=True, indent=2)
        handle.write("\n")
