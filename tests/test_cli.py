import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

import evolver.cli as cli
import evolver.semigroup as semigroup
from evolver import ConfigError, EvolverError, GeneratorFamily, chernoff_defect, find_periodic_wave
from evolver.catalog import _INLINE_KEYS, MODELS
from evolver.cli import EXPERIMENT_NAMES, EXPERIMENTS, _resolve_model, _validate_config, main
from evolver.semigroup import metric_norm


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
    assert summary["verdict"] == "pass"
    assert summary["failing"] is None
    assert summary["wall_time"] is None
    assert summary["metrics"]["defect_violations"] == 0
    captured = capsys.readouterr()
    assert "chernoff: pass" in captured.out


def _loop_defect_rows(seed, samples):
    # reference: one draw, one normalisation and one single-matrix call per sample
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(samples):
        d = int(rng.integers(1, 7))
        G = rng.standard_normal((d, d))
        T = G * (rng.uniform(0.3, 0.999) / np.linalg.norm(G, 2))
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        n = int(rng.integers(1, 65))
        rows.append((i, d, n) + chernoff_defect(T, x, n))
    return rows


@pytest.mark.parametrize("seed, ns", [(0, None), (3, None), (101, None),
                                      (0, [16, 64, 10000000])])
def test_chernoff_stacks_its_defect_samples_per_dimension(monkeypatch, seed, ns):
    calls = {"chernoff_defect": 0, "mat_exp": 0, "mat_power": 0}
    powers = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recorded_power(M, n):
        powers.append(int(np.max(n)))
        return linop_mat_power(M, n)

    linop_mat_power = semigroup.mat_power
    monkeypatch.setattr(cli, "chernoff_defect",
                        counted("chernoff_defect", semigroup.chernoff_defect))
    monkeypatch.setattr(semigroup, "mat_exp", counted("mat_exp", semigroup.mat_exp))
    monkeypatch.setattr(semigroup, "mat_power", counted("mat_power", recorded_power))
    numeric = {"seed": seed} if ns is None else {"seed": seed, "ns": ns}
    num, _ = _validate_config({"numeric": numeric}, "chernoff")
    result = cli.run_chernoff(None, num)
    # against 200 defect calls and 202 exponentials with a call per sample
    assert calls["chernoff_defect"] <= 6
    assert calls["mat_exp"] <= 12
    # every power, 10^7 steps included, is one binary-powering call: one
    # per defect stack and one per limit table, no k-fold product loop
    assert calls["mat_power"] == calls["chernoff_defect"] + 2
    assert max(powers[-2:]) == max(num["ns"])
    rows = [r for r in result.rows if r[0] == "defect"]
    ref = _loop_defect_rows(seed, num["samples"])
    assert [tuple(r[1:4]) for r in rows] == [r[:3] for r in ref]   # sample order
    got = np.array([r[4:6] for r in rows])
    want = np.array([r[3:] for r in ref])
    assert np.all(np.abs(got - want) <= 4e-15 * want)


# a valid inline model with a field and a region, one dimension above
# degree.MAX_DEGREE_DIM
_MODEL_5D = {"A": [[-1.0 if i == j else 0.0 for j in range(5)] for i in range(5)],
             "F": ["0.1*sin(2*pi*t/T)"] + ["0"] * 4,
             "lipschitz": 0, "region": {"center": [0.0] * 5, "radius": 1.0}}


# (experiment, config); each value case goes to an experiment that reads
# its key, so it checks the value and not just the unread-key rule
@pytest.mark.parametrize("cfg_obj", [
    ("chernoff", {"expriment": "chernoff"}),
    ("chernoff", {"numeric": {"bogus": 1}}),
    ("chernoff", {"experiment": "degree"}),
    ("chernoff", {"output": {"format": "json"}}),
    ("evolsys", {"numeric": {"n": -1}}),
    ("chernoff", {"numeric": {"ns": [0]}}),
    ("chernoff", {"numeric": {"samples": 2.5}}),
    ("chernoff", {"output": {"path": "x"}}),
    ("wave-energy", {"numeric": {"grid": 0}}),
    ("branching", {"numeric": {"grid": 0}}),
    ("branching", {"numeric": {"lambdas": [0.1, 0.5]}}),   # the ladder descends
    ("branching", {"numeric": {"lambdas": [0.5, 0.5]}}),   # strictly
    ("chernoff", {"numeric": {"eta": 0.5}}),   # read by no experiment
    ("chernoff", {"numeric": {"dim": 2}}),     # read by no experiment
    ("chernoff", {"numeric": {"ns": [16.7, 64.2, 256.9, 1024.5]}}),  # not truncated
    ("averaging", {"numeric": {"lambdas": [True]}}),   # a boolean is not 1
    ("wave-periodic", {"numeric": {"f_inf": True}}),   # nor is it a slope
    ("evolsys", {"numeric": {"n_continuity": 0}}),     # it counts cells
    ("chernoff", {"model": "scalar-linear"}),          # takes no model
    ("degree", {"model": "wave-k3"}),                  # takes no model
    ("degree", {"numeric": {"boundary_zero": "no"}}),
    ("degree", {"numeric": {"boundary_zero": 1}}),
    ("branching", {"model": "wave-k1"}),               # a wave model has no region
    ("wave-energy", {"model": "scalar-linear"}),       # no wave section
    ("averaging", {"model": {"A": [[-1.0]], "F": ["1-s"], "lambdas": [0.5],
                             "region": {"center": [0.0], "radius": 1.0}}}),
    ("averaging", {"model": _MODEL_5D}),       # degrees stop at d = 4
    ("continuation", {"model": _MODEL_5D}),
    ("chernoff", {"numeric": {"samples": 0}}),        # no defect is checked
    ("chernoff", {"numeric": {"ns": [10000000]}}),    # one error is no trend
    ("chernoff", {"numeric": {"ns": [16, 64]}}),      # an order fit takes three
    ("chernoff", {"numeric": {"ns": [16, 256, 64]}}),  # increasing
    ("chernoff", {"numeric": {"ns": [16, 64, 64]}}),   # strictly
])
def test_config_rejection_exits_2(tmp_path, cfg_obj, capsys):
    experiment, obj = cfg_obj
    cfg = _write_cfg(tmp_path, "bad.json", obj)
    rc = main([experiment, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_the_degree_cap_is_the_only_fault_of_the_5d_model(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "m.json", {"model": _MODEL_5D})
    assert main(["averaging", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
    assert "capped at dimension 4" in capsys.readouterr().err
    assert main(["branching", "--config", cfg, "--out", str(tmp_path / "b")]) == 0


# a valid value for every numeric key that some experiment reads
_NUMERIC_SAMPLES = {
    "n": 16, "grid": 4, "n_continuity": 8, "samples": 3, "power_m": 2, "seed": 1,
    "f_inf": 2.5, "ns": [16, 64, 256], "lambdas": [0.5], "boundary_zero": False,
}


def test_every_numeric_key_is_read_by_some_experiment():
    read = set().union(*(row.numeric for row in EXPERIMENTS.values()))
    assert read == set(_NUMERIC_SAMPLES)
    # (experiment, key) pairs accepted
    assert sum(len(row.numeric) for row in EXPERIMENTS.values()) == 17


@pytest.mark.parametrize("experiment", EXPERIMENT_NAMES)
@pytest.mark.parametrize("key", sorted(_NUMERIC_SAMPLES))
def test_only_the_keys_an_experiment_reads_are_accepted(tmp_path, capsys, experiment, key):
    value = _NUMERIC_SAMPLES[key]
    if key in EXPERIMENTS[experiment].numeric:
        num, _ = _validate_config({"numeric": {key: value}}, experiment)
        assert num[key] == value
        assert set(num) == set(EXPERIMENTS[experiment].numeric)
        return
    cfg = _write_cfg(tmp_path, "k.json", {"numeric": {key: value}})
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "does not read" in err


# a cheap value other than the default for every numeric key
_CHANGED = {**_NUMERIC_SAMPLES, "grid": 16, "f_inf": 3.0, "boundary_zero": True}


def _shown(out, experiment, numeric):
    """What a run shows: its CSV bytes (None without one) and its summary's
    verdict, failing check, error slug and metrics."""
    cfg = _write_cfg(out, f"{experiment}.json", {"numeric": numeric})
    assert main([experiment, "--config", cfg, "--out", str(out)]) in (0, 1)
    csv_path = out / f"{experiment}.csv"
    summary = json.loads((out / f"{experiment}.summary.json").read_text(encoding="utf-8"))
    return (csv_path.read_bytes() if csv_path.exists() else None,
            [summary.get(k) for k in ("verdict", "failing", "error", "metrics")])


@pytest.fixture(scope="module")
def shown_at_defaults(tmp_path_factory):
    cache = {}

    def get(experiment):
        if experiment not in cache:
            cache[experiment] = _shown(tmp_path_factory.mktemp(experiment), experiment, {})
        return cache[experiment]

    return get


# every (experiment, key) pair the config check accepts
@pytest.mark.parametrize("experiment, key", [
    (name, key) for name in EXPERIMENT_NAMES for key in _validate_config({}, name)[0]])
def test_every_accepted_numeric_key_changes_the_run(tmp_path, shown_at_defaults,
                                                    experiment, key):
    value = _CHANGED[key]
    assert value != _validate_config({}, experiment)[0][key]
    assert _shown(tmp_path, experiment, {key: value}) != shown_at_defaults(experiment)


def test_seed_is_no_command_line_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chernoff", "--seed", "9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_readme_lists_the_keys_each_experiment_reads():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].strip("`") in EXPERIMENTS:
            listed[cells[0].strip("`")] = set(re.findall(r"`(\w+)` =", cells[3]))
    assert listed == {name: set(row.numeric) for name, row in EXPERIMENTS.items()}


# the model under which a run records every check its experiment has
_ALL_CHECKS_MODEL = {"averaging": "rotation-damped-2d"}


def test_readme_lists_the_checks_each_experiment_records():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].strip("`") in EXPERIMENTS:
            listed[cells[0].strip("`")] = re.findall(r"`(\w+)`", cells[2])
    recorded = {}
    for name, row in EXPERIMENTS.items():
        cfg = {"model": _ALL_CHECKS_MODEL[name]} if name in _ALL_CHECKS_MODEL else {}
        num, _ = _validate_config(cfg, name)
        report = row.run(_resolve_model(cfg, name), num)
        recorded[name] = list(report.checks)
    assert listed == recorded


def _run_cli(tmp_path, experiment, numeric):
    cfg = _write_cfg(tmp_path, f"{experiment}.json", {"numeric": numeric})
    out = tmp_path / experiment
    rc = main([experiment, "--config", cfg, "--out", str(out)])
    with (out / f"{experiment}.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rc, rows, json.loads((out / f"{experiment}.summary.json").read_text(encoding="utf-8"))


# experiments whose every check is backed by rows: (numeric, section of the
# first row with ok = false, the check the verdict names)
@pytest.mark.parametrize("experiment, numeric, section, failing", [
    ("evolsys", {}, None, None),
    ("degree", {}, None, None),
    ("wave-periodic", {}, None, None),
    ("wave-energy", {}, None, None),
    ("wave-energy", {"grid": 16}, "energy", "energy_residual"),
    # every monodromy is roundoff: its unit gap passes, Liouville's formula fails
    ("wave-periodic", {"f_inf": 1e20}, "liouville", "nondegeneracy"),
])
def test_the_verdict_agrees_with_the_csv(tmp_path, capsys, experiment, numeric,
                                         section, failing):
    rc, rows, summary = _run_cli(tmp_path, experiment, numeric)
    capsys.readouterr()
    false_rows = [r for r in rows if r["ok"] == "false"]
    assert (summary["failing"] is None) == (not false_rows)
    assert (rc, summary["failing"]) == (0 if failing is None else 1, failing)
    assert (false_rows[0]["section"] if false_rows else None) == section


# how each catalog family shows its order at T and at T/4: a constant A
# (scalar-linear, wave-k1) makes the product exact, and rotation-damped-2d
# is exact only over a whole period
@pytest.mark.parametrize("key, hows", [
    ("scalar-linear", ("floor", "floor")),
    ("rotation-damped-2d", ("floor", "order")),
    ("wave-k1", ("floor", "floor")),
    ("wave-k3", ("order", "order")),
])
def test_evolsys_passes_on_every_catalog_model(tmp_path, capsys, key, hows):
    cfg = _write_cfg(tmp_path, "m.json", {"model": key})
    out = tmp_path / "o"
    assert main(["evolsys", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    with (out / "evolsys.csv").open(encoding="utf-8", newline="") as fh:
        rows = [(r["section"], r["label"], r["ok"]) for r in csv.DictReader(fh)
                if r["section"].startswith("order")]
    assert rows == [("order", hows[0], "true"), ("order-T/4", hows[1], "true")]


def test_a_zeroth_order_product_fails_refinement_order(monkeypatch):
    # every step of the refined systems is exp(h A(0)); the reference at
    # n_ref = 16 n = 4096 (default n) keeps the true scheme, so the refined
    # errors stay O(1)
    build = cli.build_evolution

    def frozen(fam, m):
        if m >= 4096:
            return build(fam, m)
        A0 = fam.A(0.0)
        const = GeneratorFamily(dim=fam.dim, T=fam.T, metric=fam.metric,
                                A=lambda t: np.broadcast_to(A0, np.shape(t) + A0.shape))
        return build(const, m)

    monkeypatch.setattr(cli, "build_evolution", frozen)
    num, _ = _validate_config({}, "evolsys")
    report = cli.run_evolsys(_resolve_model({}, "evolsys"), num)
    assert [r[:2] + r[4:] for r in report.rows if r[0].startswith("order")] == [
        ["order", None, False], ["order-T/4", None, False]]
    assert report.checks["refinement_order"] is False


# a constant non-normal A, whose product is exact, so its refinement errors
# are roundoff; and a field with F(t, 0) = 0 on a region centred at 0, so
# every rung's fixed point is 0 and every defect is exactly 0
@pytest.mark.parametrize("experiment, model, numeric, check", [
    ("evolsys", {"A": [[-1.0, 2.5, 0.0], [0.0, -0.7, -1.5], [0.0, 0.0, -2.0]]},
     {"n": 16}, "refinement_order"),
    ("branching", {"A": [[-1.0]], "F": ["tanh(s)*cos(2*pi*t/T)"],
                   "region": {"center": [0.0], "radius": 1.0}},
     {"grid": 16}, "defect_order"),
])
@pytest.mark.parametrize("floor", [True, False])
def test_exact_results_pass_by_the_floor_alone(tmp_path, capsys, monkeypatch, experiment,
                                               model, numeric, check, floor):
    if not floor:
        shows_order = semigroup.ConvergenceTable.shows_order
        monkeypatch.setattr(semigroup.ConvergenceTable, "shows_order",
                            lambda self, p, floor: shows_order(self, p, -np.inf))
    cfg = _write_cfg(tmp_path, "x.json", {"model": model, "numeric": numeric})
    rc = main([experiment, "--config", cfg, "--out", str(tmp_path / "o")])
    capsys.readouterr()
    summary = json.loads((tmp_path / "o" / f"{experiment}.summary.json").read_text(encoding="utf-8"))
    assert (rc, summary["failing"]) == ((0, None) if floor else (1, check))


# defect_order reads the finest three solved rungs: a defect that is flat
# over the top rungs and first order below passes, and so does one whose F
# is flat in t at the region's midpoint only; both fall along the ladder
@pytest.mark.parametrize("model, orders", [
    ({"A": [["-0.5"]], "F": ["(-0.144)*max(s, 0)*exp(-s)+(0.5)*cos(2*pi*t/T)"],
      "lipschitz": 0.144, "region": {"kind": "ball", "center": [0.0], "radius": 2.0}},
     (0.99, 1.01)),
    ({"A": [["-1"]], "F": ["abs(cos(2*pi*t/T)-0.4)*tanh(s)+0.2"], "lipschitz": 1,
      "region": {"center": [0.0], "radius": 2.0}},
     (0.99, 1.2)),
])
def test_branching_judges_the_finest_three_rungs(tmp_path, capsys, model, orders):
    cfg = _write_cfg(tmp_path, "b.json", {"model": model})
    out = tmp_path / "o"
    assert main(["branching", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "branching.summary.json").read_text(encoding="utf-8"))
    assert summary["failing"] is None
    with (out / "branching.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["ok"] == "true" for r in rows)
    defects = [float(r["defect"]) for r in rows]
    assert all(b <= a for a, b in zip(defects, defects[1:]))
    assert defects[-1] < 1e-2 * defects[0]
    assert orders[0] < summary["metrics"]["defect_order"] < orders[1]


@pytest.mark.parametrize("experiment", ["averaging", "continuation", "branching"])
def test_a_generator_with_a_kink_in_t_is_averaged(tmp_path, capsys, experiment):
    # the kink in A(t) lies off every grid node; the averaged pair is the
    # mean over the map's own cell tags, with no refinement that could fail
    model = {"A": [["-1-0.5*abs(sin(2*pi*t/T)+0.3)"]], "F": ["tanh(s)"], "lipschitz": 1,
             "region": {"center": [0.0], "radius": 2.0}}
    cfg = _write_cfg(tmp_path, "k.json", {"model": model})
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "numeric failure" not in capsys.readouterr().err


# the entry each case's error names
_PLACES = {"an A cell": "A[0][0]", "an F component": "F[0]", "a 2x2 A cell": "A[1][1]"}


@pytest.mark.parametrize("where, model, name, offset", [
    ("an A cell", {"A": [["-1+0*s"]]}, "s", 5),
    ("an F component", {"F": ["1-q"]}, "q", 2),
    ("a 2x2 A cell", {"A": [[-1.0, 0.0], [0.0, "-1+s"]], "F": ["1-s", "s"],
                      "region": {"center": [0.0, 0.0], "radius": 1.0}}, "s", 3),
])
def test_a_name_outside_an_entrys_variables_exits_2(tmp_path, capsys, where, model,
                                                      name, offset):
    # an A cell may use t and T, an F component t, s and T (pi always); the
    # error names the entry, and the parser the identifier and its offset
    base = {"A": [[-1.0]], "F": ["1-s"], "region": {"center": [0.0], "radius": 1.0}}
    cfg = _write_cfg(tmp_path, "v.json", {"model": {**base, **model}})
    rc = main(["branching", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2, where
    assert (f"config error: {_PLACES[where]}: unknown identifier {name!r} at offset {offset}"
            in err)
    assert "Traceback" not in err and not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", [k for k, spec in MODELS.items() if "A" in spec])
@pytest.mark.parametrize("experiment", ["averaging", "continuation", "branching"])
def test_an_ode_model_runs_the_same_as_its_inline_spec(tmp_path, capsys, key, experiment):
    # the summary records the config's own model: the key, or the spec
    numeric = {"grid": 64, "lambdas": [1.0, 0.3, 0.1]}
    got = {}
    for name, model in (("key", key), ("spec", MODELS[key])):
        cfg = _write_cfg(tmp_path, f"{name}.json", {"model": model, "numeric": numeric})
        out = tmp_path / name
        rc = main([experiment, "--config", cfg, "--out", str(out)])
        summary = json.loads((out / f"{experiment}.summary.json").read_text(encoding="utf-8"))
        assert summary.pop("model") == model
        got[name] = rc, (out / f"{experiment}.csv").read_bytes(), summary
    capsys.readouterr()
    assert got["key"] == got["spec"]


def test_wave_periodic_reports_the_liouville_defect(tmp_path, capsys):
    _, _, summary = _run_cli(tmp_path, "wave-periodic", {})
    assert summary["metrics"]["det_defect_max"] < 1e-13
    _, _, summary = _run_cli(tmp_path, "wave-periodic", {"f_inf": 1e20})
    capsys.readouterr()
    assert summary["metrics"]["det_defect_max"] > 1e2


def test_wave_periodic_default_sizes_reach_the_periodic_state_within_1e_4():
    # the state wave-periodic solves for against a reference at grid 2048;
    # left tags at grid 1024 were 3.2e-4 away
    model = _resolve_model({}, "wave-periodic").wave
    grid = EXPERIMENTS["wave-periodic"].numeric["grid"]
    x = find_periodic_wave(model, lam=1.0, grid=grid).fixed_point.x
    ref = find_periodic_wave(model, lam=1.0, grid=2048).fixed_point.x
    assert metric_norm(x - ref, model.family.metric) <= 1e-4


def test_wave_energy_default_residual_is_no_larger_than_with_left_tags(tmp_path, capsys):
    # 5.75e-4 is the residual the left-tag default reached at grid 2048
    _, _, summary = _run_cli(tmp_path, "wave-energy", {})
    capsys.readouterr()
    assert summary["metrics"]["energy_residual"] <= 5.75e-4


def test_readme_lists_the_inline_model_keys():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    bullets = text.split("An\ninline model accepts exactly these keys:", 1)[1].split("\n\n", 2)[1]
    listed = set(re.findall(r"^\* `(\w+)`", bullets, flags=re.M))
    assert listed == _INLINE_KEYS


def test_inline_omega_is_an_unknown_key(tmp_path, capsys):
    # a family carries no rate claim; every rate is computed where it is read
    cfg = _write_cfg(tmp_path, "o.json", {"model": {"A": [[-1.0]], "omega": 1.0}})
    assert main(["evolsys", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: unknown inline model keys: ['omega']" in err
    assert not (tmp_path / "o").exists()


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
    {"lambdas": [0.5]},                               # set by numeric.lambdas
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


def test_an_exponent_in_s_outside_its_domain_exits_1(tmp_path, capsys):
    # s^s and its derivative s^s (log s + 1) need s > 0; around s = -0.5
    # averaging's d0 fails in the expression language, a numeric failure,
    # and every branching rung fails on its own
    model = {"A": [[-1]], "F": ["s^s"], "lipschitz": 2,
             "region": {"kind": "ball", "center": [-0.5], "radius": 0.25}}
    cfg = _write_cfg(tmp_path, "s.json", {"model": model})
    out = tmp_path / "o"
    assert main(["averaging", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "numeric failure: expression" in err and "Traceback" not in err
    assert _failure_summary(out, "averaging")["error"] == "expression"
    out = tmp_path / "b"
    assert main(["branching", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "numeric failure: fixed_point_failures" in err and "Traceback" not in err
    with (out / "branching.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["ok"] == "false" and r["error"].startswith("invalid power")
                        for r in rows)


def test_energy_audit_on_a_two_node_path_exits_1(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "w.json", {"numeric": {"grid": 1}})
    rc = main(["wave-energy", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "numeric failure: invalid-input" in capsys.readouterr().err


def _failure_summary(out, experiment):
    # a numeric failure writes the summary and no CSV
    assert not (out / f"{experiment}.csv").exists()
    return json.loads((out / f"{experiment}.summary.json").read_text(encoding="utf-8"))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_states_its_own_slug():
    # a failed run's summary records its error's slug; ConfigError exits 2
    # before any summary is written, so it keeps the base class's
    slugs = {cls.__name__: cls.__dict__.get("slug") for cls in _subclasses(EvolverError)
             if cls is not ConfigError}
    assert slugs == {
        "InvalidInputError": "invalid-input", "InvalidMetricError": "invalid-metric",
        "PreconditionError": "precondition", "SingularResolventError": "singular-resolvent",
        "ResourceLimitError": "resource-guard", "ConvergenceError": "no-convergence",
        "DegenerateFixedPointError": "degenerate-fixed-point",
        "InadmissibleRegionError": "inadmissible-region", "DegenerateZeroError": "degenerate-zero",
        "OracleFailureError": "oracle-failure", "ExprError": "expression",
    }
    assert EvolverError.slug == ConfigError.slug == "error"


@pytest.mark.parametrize("experiment", ["averaging", "branching", "continuation"])
def test_oversized_grid_is_a_resource_guard_failure(tmp_path, capsys, experiment):
    # grid subdivides [0, T] like n and shares its cap, 2^14
    cfg = _write_cfg(tmp_path, "g.json", {"numeric": {"grid": 2 ** 62}})
    out = tmp_path / "o"
    assert main([experiment, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"numeric failure: resource-guard: subdivision {2 ** 62} of [0, T] exceeds 16384" in err
    summary = _failure_summary(out, experiment)
    assert (summary["verdict"], summary["error"]) == ("fail", "resource-guard")


def test_overflowing_step_products_exit_1(tmp_path, capsys):
    # a negative slope f_inf = -1e5 makes the lift B = (0, -f_inf u) grow
    # at rate sqrt(1e5): every step exp(h lam (A + B)) grows by about e^3.9
    # and is finite, but the product toward the monodromy grows by about
    # e^1987, so it overflows for any accurate exponential
    cfg = _write_cfg(tmp_path, "w.json", {"numeric": {"f_inf": -1e5}})
    out = tmp_path / "o"
    assert main(["wave-periodic", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "numeric failure: invalid-input" in err and "overflows" in err
    summary = _failure_summary(out, "wave-periodic")
    assert (summary["verdict"], summary["error"]) == ("fail", "invalid-input")


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


@pytest.mark.parametrize("model, degrees", [
    # zeros near 0 (index -1) and +-2.98 (+1 each): at lam = 1 Newton finds
    # only the outer two, and the endpoint check fails the rung, not 2
    ({"A": [[-1]], "F": ["3*tanh(s)+0.1*sin(2*pi*t/T)"], "lipschitz": 3,
      "region": {"center": [0], "radius": 4}}, ["", "1", "1", "1", "1"]),
    # A = 1: every rung has deg(-(A_hat x + F_hat)) = -1, against d0 = 1
    ({"A": [[1]], "F": ["0.1*sin(2*pi*t/T)"], "lipschitz": 0,
      "region": {"center": [0], "radius": 1}}, ["-1"] * 5),
])
def test_averaging_rungs_on_an_interval(tmp_path, capsys, model, degrees):
    cfg = _write_cfg(tmp_path, "a.json", {"model": model})
    out = tmp_path / "o"
    assert main(["averaging", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "averaging.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][:5] == ["averaged", "", "true", "", "1"]
    assert [r[4] for r in rows[1:]] == degrees
    assert all(r[5] == "true" for r in rows[1:] if r[4])
    if "" in degrees:
        assert "contradicts the endpoint degree 1" in lines[2]


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
