"""Tests of the span recorder and of the evolver instrumentation.

Run with: python3 -m pytest -q perfbench
"""

import hashlib
import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import evolver  # noqa: E402
from evolver import cli  # noqa: E402
from layers import Instrument, layer_metrics  # noqa: E402
from spans import Patcher, Recorder  # noqa: E402


def _ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_nested_spans_parents_and_self_time():
    rec = Recorder(clock=_ticking_clock())
    inner = rec.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    rec.wrap("outer", body)()
    a = rec.arrays()
    assert [a["names"][i] for i in a["name"]] == ["outer", "inner", "inner"]
    assert list(a["parent"]) == [-1, 0, 0]
    # clock reads: outer opens at 0, inner spans 1-2 and 3-4, outer closes at 5
    assert list(a["dur"]) == [5.0, 1.0, 1.0]
    assert list(a["self"]) == [3.0, 1.0, 1.0]
    assert rec.stack == []


def test_span_closes_when_the_call_raises():
    rec = Recorder(clock=_ticking_clock())

    def boom():
        raise ValueError("x")

    traced = rec.wrap("boom", boom)
    try:
        traced()
    except ValueError:
        pass
    a = rec.arrays()
    assert rec.stack == [] and list(a["dur"]) == [1.0]


def test_patcher_rebinds_every_alias_and_restores():
    def f():
        return 1

    home = types.ModuleType("home")
    user = types.ModuleType("user")
    home.f = f
    user.f = f
    user.g = f
    p = Patcher()
    assert p.replace_everywhere([home, user], f, lambda: 2) == 3
    assert home.f() == user.f() == user.g() == 2
    p.restore()
    assert home.f is f and user.f is f and user.g is f


def _evolver_bindings():
    mods = [m for n, m in sys.modules.items()
            if n == "evolver" or n.startswith("evolver.")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()
           if callable(v)}
    cls = evolver.evolsys.EvolutionSystem
    out.update({("EvolutionSystem", k): v for k, v in vars(cls).items()})
    return out


def _run(tmp_path, name, experiment, cfg):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / name
    assert cli.main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 0
    return [hashlib.sha256((out / f"{experiment}{ext}").read_bytes()).hexdigest()
            for ext in (".csv", ".summary.json")]


def test_instrument_restores_evolver_and_keeps_outputs(tmp_path, capsys):
    before = _evolver_bindings()
    cases = [
        ("degree", {}),
        ("averaging", {"numeric": {"lambdas": [0.5, 0.05]}}),
        ("chernoff", {"numeric": {"samples": 20, "seed": 3}}),
    ]
    plain = [_run(tmp_path, f"plain-{e}", e, c) for e, c in cases]
    rec = Recorder()
    with Instrument(rec) as inst:
        traced = [_run(tmp_path, f"traced-{e}", e, c) for e, c in cases]
    assert _evolver_bindings() == before
    assert inst.missing == []
    assert traced == plain

    m = layer_metrics(rec, pass_wall=1.0)
    assert m["cli.main.calls"] == len(cases)
    assert m["degree.brouwer_degree.calls"] > 0
    assert m["degree.field_points"] > 0 and m["degree.zeros_found"] > 0
    assert m["mild.mild_solve.calls"] > 0
    assert m["mild.field.calls"] >= m["mild.picard_sweeps"] > 0
    assert m["semigroup.chernoff_defect.calls"] == 20
    assert m["averaging.simpson_nodes"] > 0
