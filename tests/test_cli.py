import json

import pytest

from evolver.cli import EXPERIMENT_NAMES, main


def _write_cfg(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_experiment_names():
    assert EXPERIMENT_NAMES == (
        "chernoff", "evolsys", "branching", "degree",
        "averaging", "continuation", "wave-periodic", "wave-energy",
    )


def test_chernoff_run_writes_outputs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "c.json", {
        "experiment": "chernoff",
        "numeric": {"samples": 50, "ns": [16, 64, 256, 1024, 4096], "seed": 7},
    })
    out = tmp_path / "out"
    rc = main(["chernoff", "--config", cfg, "--out", str(out)])
    assert rc == 0
    csv_path = out / "chernoff.csv"
    summary_path = out / "chernoff.summary.json"
    assert csv_path.exists() and summary_path.exists()
    header = csv_path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "section,sample,dim,n,lhs_or_error,rhs,ok"
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    assert summary["schema"] == 1
    assert summary["experiment"] == "chernoff"
    assert summary["seed"] == 7
    assert summary["verdict"] == "pass"
    assert summary["failing"] is None
    assert summary["wall_time"] is None
    assert summary["metrics"]["defect_violations"] == 0
    captured = capsys.readouterr()
    assert "chernoff: pass" in captured.out


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", {
        "numeric": {"samples": 10, "ns": [16, 64, 256, 1024], "seed": 3},
    })
    out = tmp_path / "out"
    rc = main(["chernoff", "--config", cfg, "--out", str(out), "--seed", "9"])
    assert rc == 0
    summary = json.loads((out / "chernoff.summary.json").read_text(encoding="utf-8"))
    assert summary["seed"] == 9


@pytest.mark.parametrize("cfg_obj", [
    {"expriment": "chernoff"},
    {"numeric": {"bogus": 1}},
    {"experiment": "degree"},
    {"output": {"format": "json"}},
    {"numeric": {"n": -1}},
    {"numeric": {"ns": [0]}},
    {"numeric": {"samples": 2.5}},
    {"output": {"path": "x"}},
    {"numeric": {"n": 0}},
    {"numeric": {"grid": 0}},
    {"numeric": {"eta": 0.5}},   # read by no experiment
    {"numeric": {"dim": 2}},     # read by no experiment
    {"numeric": {"ns": [16.7, 64.2, 256.9, 1024.5]}},   # not truncated to ints
    {"numeric": {"lambdas": [True]}},                 # a boolean is not 1
    {"numeric": {"f_inf": True}},                     # nor is it a slope
    {"numeric": {"n_continuity": 0}},                 # it counts cells
])
def test_config_rejection_exits_2(tmp_path, cfg_obj, capsys):
    cfg = _write_cfg(tmp_path, "bad.json", cfg_obj)
    rc = main(["chernoff", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{'not': json}", encoding="utf-8")
    assert main(["chernoff", "--config", str(path)]) == 2
    path.write_text("[1, 2]", encoding="utf-8")
    assert main(["chernoff", "--config", str(path)]) == 2
    assert main(["chernoff", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_runner_config_error_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "e.json", {"numeric": {"n": 8}})
    rc = main(["evolsys", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_deeply_nested_expression_exits_2(tmp_path, capsys):
    entry = "(" * 3000 + "-1" + ")" * 3000
    cfg = _write_cfg(tmp_path, "deep.json", {"model": {"A": [[entry]], "T": 1.0}})
    rc = main(["evolsys", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "nested deeper" in err


@pytest.mark.parametrize("component, code, stream", [
    ("1/0", 1, "numeric failure"),
    ("1/(t-t)", 1, "numeric failure"),
    ("1+", 2, "config error"),
])
def test_inline_field_failures_keep_their_exit_codes(tmp_path, capsys, component,
                                                    code, stream):
    # a parse error is a config error; a field that divides by zero when it
    # is evaluated is a numeric failure
    model = {"A": [[-1.0]], "T": 1.0, "F": [component],
             "region": {"kind": "ball", "center": [0.0], "radius": 1.0}}
    cfg = _write_cfg(tmp_path, "f.json", {"model": model})
    rc = main(["branching", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == code
    assert stream in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    {"region": {"kind": "ball", "radius": 1}},
    {"T": "abc"},
    {"region": [1, 2]},
    {"A": 5},
    {"lambdas": "x"},
    {"lipshitz": 1.0},                                # a typo is not ignored
    {"growth": 1.0},                                  # read by nothing
    {"region": {"kind": "ball", "center": [0.0], "radius": 1.0, "raduis": 2.0}},
    {"region": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}},
    {"A": [[True]]},
    {"lipschitz": -3},                                # no field has that bound
])
def test_malformed_inline_model_exits_2(tmp_path, capsys, override):
    model = {"A": [[-1.0]], "T": 1.0, "F": ["1-s"],
             "region": {"kind": "ball", "center": [0.0], "radius": 1.0}}
    cfg = _write_cfg(tmp_path, "m.json", {"model": {**model, **override}})
    rc = main(["branching", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and "Traceback" not in err


def test_energy_audit_on_a_two_node_path_exits_1(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "w.json", {"numeric": {"grid": 1}})
    rc = main(["wave-energy", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "numeric failure: invalid-input" in capsys.readouterr().err


def test_degree_boundary_zero_exits_1(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "d.json", {"numeric": {"boundary_zero": True}})
    out = tmp_path / "out"
    rc = main(["degree", "--config", cfg, "--out", str(out)])
    assert rc == 1
    # numeric failure: summary is written, the CSV is not
    assert not (out / "degree.csv").exists()
    summary = json.loads((out / "degree.summary.json").read_text(encoding="utf-8"))
    assert summary["verdict"] == "fail"
    assert summary["error"] == "inadmissible-region"
    assert "boundary" in summary["message"]
    assert "inadmissible-region" in capsys.readouterr().err


def test_same_seed_runs_are_byte_identical(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "c.json", {
        "numeric": {"samples": 25, "ns": [16, 64, 256, 1024], "seed": 11},
    })
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["chernoff", "--config", cfg, "--out", str(out)]) == 0
        outs.append((
            (out / "chernoff.csv").read_bytes(),
            (out / "chernoff.summary.json").read_bytes(),
        ))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]
    capsys.readouterr()
