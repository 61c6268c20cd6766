"""Tests of the benchmark's own harness.

    python3 -m pytest bench/test_bench.py

The tiny runs take about 25 s on two cores.
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_span_nesting_and_self_time():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        leaf_t(2.0)
        leaf_t(3.0)
        clock.now += 0.5

    leaf_t = tracer.wrapper("leaf", leaf)
    middle_t = tracer.wrapper("middle", middle, feature_of=lambda a, k: "mel")
    with tracer.span("root"):
        clock.now += 0.25
        middle_t()

    names = [s.name for s in tracer.spans]
    assert names == ["root", "middle", "leaf", "leaf"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1]
    assert [s.feature for s in tracer.spans] == ["", "mel", "mel", "mel"]
    assert tracer.self_times() == [0.25, 1.5, 2.0, 3.0]
    assert tracer.spans[0].end - tracer.spans[0].start == 6.75


def test_paused_tracer_records_nothing():
    tracer = Tracer(FakeClock())
    f = tracer.wrapper("f", lambda x: x + 1)
    with tracer.pause():
        assert f(1) == 2
        with tracer.span("root"):
            pass
    assert tracer.spans == []


def test_span_closes_when_the_call_raises():
    tracer = Tracer(FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrapper("boom", boom)()
    with tracer.span("after"):
        pass
    assert [s.parent for s in tracer.spans] == [-1, -1]


def test_install_wraps_every_namespace_that_imported_the_function(monkeypatch):
    def target():
        return 7

    home = types.ModuleType("toypkg.home")
    home.target = target
    user = types.ModuleType("toypkg.user")
    user.target = target  # as ``from .home import target`` binds it
    other = types.ModuleType("otherpkg")
    other.target = target
    for mod in (home, user, other):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    tracer = Tracer(FakeClock())
    tracer.install(home, "target", "toy", package="toypkg")
    assert home.target is not target and user.target is home.target
    assert other.target is target
    assert user.target() == 7 and len(tracer.spans) == 1
    tracer.uninstall()
    assert home.target is target and user.target is target


def test_names_and_units_are_well_formed():
    spec = benchmark_json()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in metrics:
        assert UNIT.match(m["unit"]), m


@pytest.mark.parametrize("traced", [False, True])
def test_tiny_runs_emit_every_metric(tmp_path, monkeypatch, traced):
    from workloads import GridSize, ListenerScoring, ListenerSize, PaperGrid

    spec = benchmark_json()
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    tiny = {
        "paper-grid": lambda work, tracer: PaperGrid(
            work, 3, tracer,
            GridSize(duration_s=60.0, split=(0.4, 0.2, 0.4), epochs=1, warm_reruns=1)),
        "listener-scoring": lambda work, tracer: ListenerScoring(
            work, 3, tracer, ListenerSize(train_snr_db=(5.0, 0.0), train_duration_s=45.0,
                                          listener_snr_db=(5.0,), story_s=30.0, eeg_fs=128.0,
                                          epochs=1, split=(0.5, 0.25, 0.25))),
    }
    assert sorted(tiny) == sorted(w["name"] for w in spec["workloads"])
    monkeypatch.setattr(run, "MIN_SETUPS", 1)
    monkeypatch.setattr(run, "SETUP_CPU_S", 0.0)
    for name, make in tiny.items():
        tracer = Tracer()
        (layers.install_layers if traced else layers.install_meter)(tracer)
        try:
            result = run.run(make(tmp_path / name, tracer), 0.0, tracer)
        finally:
            tracer.uninstall()
        computed = layers.per_layer_metrics(tracer) if traced else result["metrics"]
        assert set(computed) == set(wanted)
        line = run.report(result, tracer, traced, tmp_path / name / "trace.json")
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted
        assert all(isinstance(v["value"], float) for v in line["metrics"].values())
        if traced:
            assert json.loads((tmp_path / name / "trace.json").read_text())["spans"]
