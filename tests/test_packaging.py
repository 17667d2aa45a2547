import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import evolver
import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    code = (
        "import json, sys\n"
        "import evolver, evolver.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []


# exports that library and demo code never use, kept as references for tests
# and tools, with the reason each stays public
TEST_REFERENCE_EXPORTS = {
    "eval_expr": "the one-shot evaluator of a parsed expression, which "
                 "perfbench traces as the expression layer",
}


def _used_names(paths):
    """Names that code loads or reads as attributes (not definitions or
    imports); a top-level function's calls to itself do not count."""
    used = set()
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(stmt, ast.FunctionDef):
                names.discard(stmt.name)
            used |= names
    return used


def test_every_export_is_used_outside_the_tests():
    root = SRC.parent
    paths = [p for p in sorted((SRC / "evolver").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "demos").glob("*.py"))
    used = _used_names(paths)
    unused = sorted(set(evolver.__all__) - used)
    assert unused == sorted(TEST_REFERENCE_EXPORTS)


def _perfbench_modules():
    import evolver.cli  # noqa: F401  (Instrument patches the loaded modules)

    bench = str(SRC.parent / "perfbench")
    sys.path.insert(0, bench)
    try:
        import layers
        import spans
    finally:
        sys.path.remove(bench)
    return layers, spans


def test_perfbench_instrument_finds_every_traced_function():
    # perfbench/layers.py wraps evolver functions by name; a renamed or
    # deleted one would silently drop out of the benchmark's layer metrics
    layers, spans = _perfbench_modules()
    with layers.Instrument(spans.Recorder()) as inst:
        pass
    assert inst.missing == []


def test_perfbench_trace_keeps_outputs_and_counts_stacked_chernoff(tmp_path):
    # a traced chernoff run makes one chernoff_defect call per drawn
    # dimension, wave-periodic's kernel check samples Simpson nodes, and the
    # traced outputs equal the plain ones
    from evolver.cli import main

    layers, spans = _perfbench_modules()
    cases = [("averaging", {"numeric": {"lambdas": [0.5, 0.05]}}),
             ("chernoff", {"numeric": {"samples": 20, "seed": 3}}),
             ("wave-periodic", {})]

    def run(tag):
        outs = []
        for experiment, cfg in cases:
            path = tmp_path / f"{tag}-{experiment}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            out = tmp_path / f"{tag}-{experiment}"
            assert main([experiment, "--config", str(path), "--out", str(out)]) == 0
            outs.append([(out / f"{experiment}{ext}").read_bytes()
                         for ext in (".csv", ".summary.json")])
        return outs

    plain = run("plain")
    rec = spans.Recorder()
    with layers.Instrument(rec) as inst:
        traced = run("traced")
    assert inst.missing == [] and traced == plain
    m = layers.layer_metrics(rec, pass_wall=1.0)
    rows = [line.split(",") for line in plain[1][0].decode().splitlines()]
    dims = {r[2] for r in rows if r[0] == "defect"}
    assert len([r for r in rows if r[0] == "defect"]) == 20
    assert m["semigroup.chernoff_defect.calls"] == len(dims) <= 6
    assert m["averaging.simpson_nodes"] > 0


def test_wave_periodic_solves_each_newton_point_with_its_tangent_rows(tmp_path, monkeypatch):
    # a default wave-periodic run (wave-k3, d = 6) makes one solve per Newton
    # evaluation, each of 1 + d rows, and no further solve at the fixed point
    # to report its residual; 2d + 1 = 13 rows would mean central differences
    import evolver.mild as mild
    from evolver.cli import main

    solve, rows = mild.mild_solve, []

    def counted(R, F, x0, *args, **kwargs):
        x = np.asarray(x0)
        rows.append(x.size // x.shape[-1])
        return solve(R, F, x0, *args, **kwargs)

    monkeypatch.setattr(mild, "mild_solve", counted)
    assert main(["wave-periodic", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "wave-periodic.summary.json").read_text(encoding="utf-8"))
    assert summary["metrics"]["newton_iterations"] == 4
    assert rows == [7, 7, 7, 7]
