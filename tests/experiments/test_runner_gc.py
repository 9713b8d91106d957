"""The serial sweep collects after every point and restores the GC state."""

import gc

import pytest

from repro.experiments import registry, runner

_NAME = "ablation-storage-tiers"
_PARAMS = {"file_bytes": 1 << 20}


def _points():
    return registry.get(_NAME).fanout.points(dict(_PARAMS))


@pytest.mark.parametrize("enabled", [True, False])
def test_run_experiment_leaves_gc_state_as_found(enabled):
    was_enabled = gc.isenabled()
    try:
        if not enabled:
            gc.disable()
        runner.run_experiment(_NAME, jobs=1, params=_PARAMS)
        assert gc.isenabled() == enabled
        assert gc.get_freeze_count() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_each_point_is_collected_with_the_start_heap_frozen(monkeypatch):
    frozen_at_collect = []
    collect = gc.collect

    def counting_collect(*args):
        frozen_at_collect.append(gc.get_freeze_count())
        return collect(*args)

    monkeypatch.setattr(gc, "collect", counting_collect)
    runner.run_experiment(_NAME, jobs=1, params=_PARAMS)
    assert len(frozen_at_collect) == len(_points()) > 1
    assert all(count > 0 for count in frozen_at_collect)
