"""Random inline models through evolver.cli.main.

A hypothesis strategy draws models of dimension at most 3: a constant or
t-dependent A with non-normal off-diagonals, a field built from the
expression grammar's functions, and a ball region.  Each runs under
evolsys, branching and one of averaging and continuation at n, grid in
{16, 32}.
Every run must end in a documented exit code without a traceback, with a
verdict that agrees with its CSV.  Two checks must never fail for their
unstated reason: refinement_order on a constant A, whose product is
exact, and branching's defect_order on a field with F(t, 0) = 0 whose
region is centred on the zero, where every defect is exactly 0.
"""

import csv
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from evolver.cli import main

# components that vanish at s = 0, each with Lipschitz constant at most 1 in s
_ZERO_AT_0 = ("sin(s)", "tanh(s)", "s*cos(2*pi*t/T)", "s*exp(-s^2)", "log(1+s^2)",
              "min(s, 0)", "max(s, 0)*exp(-s)", "sign(s)*s^2/(1+s^2)",
              "abs(s)*s/(1+s^2)")
_FORCING = ("sin(2*pi*t/T)", "cos(2*pi*t/T)", "1")

_coef = st.floats(-1.0, 1.0, allow_nan=False).map(lambda v: round(v, 3))


@st.composite
def inline_models(draw):
    """(model, constant_A, zero_at_0): an inline model and what it promises."""
    d = draw(st.integers(1, 3))
    constant = draw(st.booleans())
    A = []
    for i in range(d):
        row = []
        for j in range(d):
            if i == j:
                v = -draw(st.floats(0.5, 3.0).map(lambda v: round(v, 3)))
            elif j > i:
                v = round(3.0 * draw(_coef), 3)   # non-normal: upper triangle only
            else:
                v = 0.0
            row.append(repr(v) if constant or i != j
                       else f"({v!r})+({draw(_coef)!r})*cos(2*pi*t/T)")
        A.append(row)
    zero_at_0 = draw(st.booleans())
    F, lip = [], 0.0
    for _ in range(d):
        c = draw(_coef)
        term = f"({c!r})*{draw(st.sampled_from(_ZERO_AT_0))}"
        if not zero_at_0:
            term += f"+({draw(_coef)!r})*{draw(st.sampled_from(_FORCING))}"
        F.append(term)
        lip = max(lip, abs(c))
    centred = draw(st.booleans())
    center = [0.0] * d if centred else [draw(_coef) for _ in range(d)]
    model = {"A": A, "F": F, "lipschitz": lip,
             "region": {"kind": "ball", "center": center,
                        "radius": draw(st.sampled_from([0.5, 1.0, 2.0]))}}
    return model, constant, zero_at_0 and centred


def _run(out, experiment, model, n, grid, capsys):
    numeric = {"n": n, "n_continuity": n} if experiment == "evolsys" else {"grid": grid}
    cfg = out / f"{experiment}.json"
    cfg.write_text(json.dumps({"model": model, "numeric": numeric}), encoding="utf-8")
    rc = main([experiment, "--config", str(cfg), "--out", str(out / experiment)])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), (rc, err)
    assert "Traceback" not in err
    if rc == 2:
        assert "config error" in err
        return rc, None, None
    summary = json.loads((out / experiment / f"{experiment}.summary.json")
                         .read_text(encoding="utf-8"))
    csv_path = out / experiment / f"{experiment}.csv"
    if "error" in summary:        # a numeric failure writes no CSV
        assert rc == 1 and not csv_path.exists()
        return rc, summary, None
    with csv_path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert (rc == 0) == (summary["failing"] is None)
    return rc, summary, rows


def _assert_verdict_agrees(experiment, summary, rows):
    failing = summary["failing"]
    false_ok = [r for r in rows if r.get("ok") == "false"]
    if false_ok:
        assert failing is not None
    if experiment == "evolsys":        # every check is shown by rows
        assert (failing is None) == (not false_ok)
    if experiment == "branching":      # fixed_point_failures is checked first
        assert (failing == "fixed_point_failures") == bool(false_ok)
    if experiment == "averaging":
        sweep = [r for r in rows if r["section"] == "period-map"]
        if all(r["agrees"] == "true" for r in sweep):
            assert failing != "degree_equality"
        if any(r["section"] == "winding" and r["agrees"] == "false" for r in rows):
            assert failing is not None


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=inline_models(), n=st.sampled_from([16, 32]), grid=st.sampled_from([16, 32]),
       degree_run=st.sampled_from(["averaging", "continuation"]))
def test_random_inline_models_through_the_cli(capsys, case, n, grid, degree_run):
    model, constant, zero_defects = case
    with tempfile.TemporaryDirectory() as tmp:
        for experiment in ("evolsys", "branching", degree_run):
            rc, summary, rows = _run(Path(tmp), experiment, model, n, grid, capsys)
            if rows is None:
                continue
            _assert_verdict_agrees(experiment, summary, rows)
            if experiment == "evolsys" and constant:
                assert all(r["ok"] == "true" for r in rows if r["section"].startswith("order"))
            if experiment == "branching" and zero_defects:
                assert summary["failing"] is None
