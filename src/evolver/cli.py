"""Experiment runner: JSON configs in, CSV tables and JSON summaries out.

Usage:
    evolver <experiment> --config cfg.json [--out DIR] [--seed N]

Experiments: chernoff, evolsys, branching, degree, averaging,
continuation, wave-periodic, wave-energy.  Each writes
<out>/<experiment>.csv and <out>/<experiment>.summary.json, prints a
verdict line, and exits 0 on pass, 1 on a numeric failure (the first
failing check is named on stderr), 2 on a config problem.

A config is checked against its experiment's row of EXPERIMENTS before
any runner starts: a numeric key the runner does not read, a model given
to an experiment that takes none, or one that lacks what it needs
(degrees need d <= degree.MAX_DEGREE_DIM) is a config error.

Outputs are byte-deterministic for a fixed config and seed: floats are
printed with %.17g, JSON keys are sorted, and wall time goes to stderr
only (the summary carries "wall_time": null).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import catalog
from .averaging import RUNG_TOL, averaging_degree_check, branching_experiment
from .degree import MAX_DEGREE_DIM, Region, averaged_map, brouwer_degree, winding_number_2d
from .errors import ConfigError, EvolverError
from .evolsys import (
    ORDER,
    affine_family,
    build_evolution,
    cell_tags,
    cocycle_defect,
    contraction_check,
    family_continuity_gap,
)
from .linop import row_norms
from .mild import fixed_point, period_map
from .semigroup import (
    ORDER_SHARE,
    ChernoffSequence,
    ConvergenceTable,
    chernoff_defect,
    chernoff_power_limit,
    chernoff_sum_limit,
    dissipativity_rate,
    resolvent_scheme,
)
from .wave import (
    energy_residual,
    find_periodic_wave,
    linear_nondegeneracy,
    select_eta,
    spectral_invariance_gap,
)

_TOP_KEYS = {"experiment", "model", "numeric", "output"}


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _positive_list(kind):
    return lambda v: isinstance(v, list) and bool(v) and all(kind(x) and x > 0 for x in v)


def _ladder(v):
    """At least three strictly increasing step counts: a convergence check
    reads the last three errors of the table."""
    return (_positive_list(_is_int)(v) and len(v) >= 3
            and all(a < b for a, b in zip(v, v[1:])))


# (check, what it asks for) per numeric key; n, grid and n_continuity count
# subdivision cells and samples the defect draws, so zero is as bad as
# negative; ns are step counts, so no float is truncated; a boolean is no
# number
_NUMERIC_CHECKS = {
    **{key: (lambda v: _is_int(v) and v >= 1, "an integer >= 1")
       for key in ("n", "grid", "n_continuity", "samples")},
    **{key: (lambda v: _is_int(v) and v >= 0, "an integer >= 0")
       for key in ("power_m", "seed")},
    "f_inf": (_is_number, "a number"),
    "ns": (_ladder, "a list of at least 3 strictly increasing integers >= 1"),
    "lambdas": (_positive_list(_is_number), "a nonempty list of positive numbers"),
    "boundary_zero": (lambda v: isinstance(v, bool), "true or false"),
}
_ERROR_SLUGS = {
    "InvalidInputError": "invalid-input",
    "InvalidMetricError": "invalid-metric",
    "PreconditionError": "precondition",
    "SingularResolventError": "singular-resolvent",
    "ResourceLimitError": "resource-guard",
    "ConvergenceError": "no-convergence",
    "DegenerateFixedPointError": "degenerate-fixed-point",
    "InadmissibleRegionError": "inadmissible-region",
    "DegenerateZeroError": "degenerate-zero",
    "OracleFailureError": "oracle-failure",
    "ExprError": "expression",
}


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if np.isfinite(f) else None
    return v


def _load_config(path):
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON config: {exc}")
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    return obj


def _validate_config(cfg, experiment):
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "experiment" in cfg and cfg["experiment"] != experiment:
        raise ConfigError(
            f"config is for experiment {cfg['experiment']!r}, not {experiment!r}"
        )
    num = cfg.get("numeric", {})
    if not isinstance(num, dict):
        raise ConfigError("numeric section must be an object")
    # seed is read by main, which records it in every summary
    defaults = {"seed": 0, **EXPERIMENTS[experiment].numeric}
    unread = set(num) - set(defaults)
    if unread:
        raise ConfigError(f"{experiment} does not read numeric keys {sorted(unread)}; "
                          f"it reads {sorted(defaults)}")
    for key, v in num.items():
        check, what = _NUMERIC_CHECKS[key]
        if not check(v):
            raise ConfigError(f"numeric.{key} must be {what}")
    out = cfg.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("output section must be an object")
    if set(out) - {"dir", "format"}:
        raise ConfigError(f"unknown output keys: {sorted(set(out) - {'dir', 'format'})}")
    if out.get("format", "csv") != "csv":
        raise ConfigError("output.format must be 'csv'")
    return {**defaults, **num}, out


def _resolve_model(cfg, experiment):
    """The experiment's model, checked against what its row needs."""
    row = EXPERIMENTS[experiment]
    if row.model is None:
        if "model" in cfg:
            raise ConfigError(f"{experiment} takes no model")
        return None
    cm = catalog.model_from_config(cfg.get("model", row.model))
    if row.needs in ("field", "degree") and (cm.field is None or cm.region is None):
        raise ConfigError(f"{experiment} needs a model with a field and a region")
    if row.needs == "degree" and cm.dim > MAX_DEGREE_DIM:
        raise ConfigError(f"{experiment} computes degrees, which are capped at "
                          f"dimension {MAX_DEGREE_DIM}; the model has {cm.dim}")
    if row.needs == "wave" and cm.wave is None:
        raise ConfigError(f"{experiment} needs a wave-* catalog model")
    return cm


# ---------------------------------------------------------------------------
# experiment runners: each returns a Report


@dataclass
class Report:
    """A runner's CSV header and rows, summary metrics and thresholds, and
    its checks: name -> passed, in order of first use, which is the order
    in which the verdict names the first failing one."""

    header: list
    thresholds: dict
    rows: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

    def row(self, *cells, check=None):
        """Append a CSV row; with check, fold its last cell, the row's ok,
        into that check."""
        self.rows.append(list(cells))
        if check is not None:
            self.check(check, cells[-1])

    def check(self, name, ok):
        self.checks[name] = bool(self.checks.get(name, True) and ok)


def run_chernoff(cm, num, seed):
    rng = np.random.default_rng(seed)
    samples = num["samples"]
    draws = []   # (d, G, u, x, n) per sample, in the order the generator yields them
    for _ in range(samples):
        d = int(rng.integers(1, 7))
        draws.append((d, rng.standard_normal((d, d)), rng.uniform(0.3, 0.999),
                      rng.standard_normal(d), int(rng.integers(1, 65))))
    dims, Gs, us, xs, ns_drawn = zip(*draws)
    dims, us, ns_drawn = np.array(dims), np.array(us), np.array(ns_drawn)
    lhs, rhs = np.empty(samples), np.empty(samples)
    # one stacked defect call per dimension: T is G scaled to spectral
    # norm u, and x is scaled to unit length
    for d in np.unique(dims).tolist():
        idx = np.flatnonzero(dims == d)
        G = np.stack([Gs[i] for i in idx])
        X = np.stack([xs[i] for i in idx])
        T_op = G * (us[idx] / np.linalg.norm(G, 2, axis=(1, 2)))[:, None, None]
        X /= row_norms(X)[:, None]
        lhs[idx], rhs[idx] = chernoff_defect(T_op, X, ns_drawn[idx])
    # a NaN defect fails its comparison, so it counts as a violation
    ok = lhs <= rhs + 1e-9
    report = Report(["section", "sample", "dim", "n", "lhs_or_error", "rhs", "ok"],
                    {"defect_slack": 1e-9, "convergence_tol": 1e-3})
    for i, cells in enumerate(zip(dims.tolist(), ns_drawn.tolist(), lhs.tolist(),
                                  rhs.tolist(), ok.tolist())):
        report.row("defect", i, *cells, check="defect_violations")
    B = rng.standard_normal((3, 3))
    A = B - 1.1 * np.linalg.norm(B, 2) * np.eye(3)
    scheme = resolvent_scheme(lambda mu: A, 3)
    x3 = rng.standard_normal(3)
    x3 /= np.linalg.norm(x3)
    seq = ChernoffSequence(t=1.0, mu0=0.0, ns=tuple(num["ns"]))
    power = chernoff_power_limit(scheme, seq, x3)
    total = chernoff_sum_limit(scheme, seq, x3)
    for section, table in (("power", power), ("sum", total)):
        for n, e in zip(table.ns, table.errors):
            report.row(section, "", 3, n, e, "", "")
    report.check("power_convergence", power.converged)
    report.check("sum_convergence", total.converged)
    report.metrics = {
        "defect_violations": int(np.count_nonzero(~ok)),
        "defect_min_margin": float(np.min(rhs + 1e-9 - lhs)),
        "power_final_error": power.errors[-1],
        "power_rate": power.rate,
        "sum_final_error": total.errors[-1],
    }
    return report


def run_evolsys(cm, num, seed):
    fam = cm.family
    T = fam.T
    n = num["n"]
    if n < 16:
        raise ConfigError("evolsys needs numeric.n >= 16")
    R = build_evolution(fam, n)
    report = Report(["section", "label", "value", "bound", "ok"],
                    {"cocycle": 1e-12, "order": ORDER_SHARE * ORDER, "contraction": 1e-9})
    fractions = [
        (1.0, 0.5, 0.0), (1.0, 0.75, 0.25), (0.9, 0.6, 0.3),
        (0.8, 0.5, 0.1), (2.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0),
    ]
    triples = [(a * T, b * T, c * T) for a, b, c in fractions]
    triples += [
        (R.nodes[n], R.nodes[n // 2], R.nodes[0]),
        (R.nodes[n], R.nodes[3 * n // 4], R.nodes[n // 4]),
        (R.nodes[7 * n // 8], R.nodes[n // 2], R.nodes[n // 8]),
    ]
    defects = cocycle_defect(R, *np.array(triples).T)
    for (t, r, s), d in zip(triples, defects.tolist()):
        report.row("cocycle", "%.6g,%.6g,%.6g" % (t, r, s), d, 1e-12, d <= 1e-12,
                   check="cocycle_defect")

    # R(T, 0), and R(T/4, 0) for families exact only over a whole period;
    # the floor is the roundoff of the reference's products
    ref = build_evolution(fam, min(16 * n, 2 ** 14))
    M_ref = ref.operators([T, T / 4], 0.0)
    floor = fam.dim * ref.n * np.finfo(float).eps * max(1.0, np.linalg.norm(M_ref[0], 2))
    ref_ns = [n // 4, n // 2, n, 2 * n]
    errs = np.array([np.linalg.norm((R if m == n else build_evolution(fam, m))
                                    .operators([T, T / 4], 0.0) - M_ref, 2, axis=(1, 2))
                     for m in ref_ns])
    tables = [ConvergenceTable(ref_ns, col.tolist()) for col in errs.T]
    for suffix, table in zip(("", "-T/4"), tables):
        for m, e in zip(ref_ns, table.errors):
            report.row("refine" + suffix, str(m), e, "", "")
        how = table.shows_order(ORDER, floor)
        report.row("order" + suffix, how, table.rate, ORDER_SHARE * ORDER, how is not None,
                   check="refinement_order")

    # the rate of the generators the product is built from
    rate_min = float(np.min(dissipativity_rate(fam.stack(cell_tags(T, n)), fam.metric)))
    excess = contraction_check(R, rate_min)
    report.row("contraction", "omega=%.6g" % rate_min, excess, 1e-9, excess <= 1e-9,
               check="contraction_excess")

    eps_sweep = [1e-1, 1e-2, 1e-3, 1e-4]
    v = np.zeros(fam.dim)
    v[0] = 1.0
    perturbed = [
        affine_family(fam, B=lambda t, _e=eps: np.multiply.outer(
            _e * np.cos(2.0 * np.pi * t / T), np.eye(fam.dim)))
        for eps in eps_sweep
    ]
    gaps = family_continuity_gap(fam, perturbed, num["n_continuity"], v)
    for eps, (lhs, rhs) in zip(eps_sweep, gaps):
        report.row("continuity", "eps=%g" % eps, lhs, rhs, lhs <= rhs,
                   check="continuity_bound")
    lhss = [lhs for lhs, _ in gaps]
    for a, b in zip(lhss, lhss[1:]):
        ratio = a / b if b > 0 else np.inf
        report.row("continuity-scaling", "", ratio, "10/3..30", 10.0 / 3.0 <= ratio <= 30.0,
                   check="continuity_scaling")
    report.metrics = {
        "cocycle_defect_max": float(np.max(defects, initial=0.0)),
        "refinement_order": tables[0].rate,
        "contraction_excess": excess,
        "continuity_lhs": lhss,
    }
    return report


def run_branching(cm, num, seed):
    lambdas = [float(v) for v in num["lambdas"]]
    if any(a <= b for a, b in zip(lambdas, lambdas[1:])):
        raise ConfigError("branching needs a strictly descending numeric.lambdas")
    result = branching_experiment(cm.family, cm.field, lambdas, cm.region, grid=num["grid"])
    d = cm.dim
    # the defect is O(lam), order 1 in 1/lam; a rung's residual RUNG_TOL
    # moves it by about RUNG_TOL / (lam T), most at the smallest lam
    floor = RUNG_TOL / (lambdas[-1] * cm.family.T)
    report = Report(["lambda"] + ["x_star_%d" % i for i in range(d)]
                    + ["defect", "newton_iters", "residual", "ok", "error"],
                    {"defect_order": {"order": ORDER_SHARE, "floor": floor}})
    for r in result.rows:
        xs = list(r.x) if r.x is not None else [""] * d
        report.row(r.lam, *xs, r.defect, r.iterations, r.residual, r.ok, r.error)
        report.check("fixed_point_failures", r.ok)
    defects = result.defects
    table = ConvergenceTable([1.0 / r.lam for r in result.rows if r.ok], defects)
    report.check("defect_order", table.shows_order(1, floor) is not None)
    report.metrics = {
        "defect_order": table.rate,
        "defect_ratio": defects[-1] / defects[0] if len(defects) > 1 and defects[0] else None,
        "defect_first": defects[0] if defects else None,
        "defect_last": defects[-1] if defects else None,
        "x_star_last": result.rows[-1].x if result.rows and result.rows[-1].ok else None,
    }
    return report


def _scaled_identity(c):
    """x -> c x with its Jacobians c I, as (g, evaluate)."""
    def g(x):
        return c * np.asarray(x, dtype=float)

    def evaluate(X):
        return g(X), np.broadcast_to(c * np.eye(X.shape[-1]), X.shape + X.shape[-1:])

    return g, evaluate


def _power_field(m):
    """z -> z^m - 0.1 on R^2 = C with its Jacobians, as (g, evaluate)."""
    def g(x):
        x = np.asarray(x, dtype=float)
        z = x[..., 0] + 1j * x[..., 1]
        w = z ** m - 0.1
        return np.stack([w.real, w.imag], axis=-1)

    def evaluate(X):
        # the Cauchy-Riemann matrix of dw/dz = m z^(m-1) = p + iq
        dw = m * (X[..., 0] + 1j * X[..., 1]) ** (m - 1)
        p, q = dw.real, dw.imag
        return g(X), np.stack([np.stack([p, -q], -1), np.stack([q, p], -1)], -2)

    return g, evaluate


def run_degree(cm, num, seed):
    if num["boundary_zero"]:
        U = Region.ball(np.array([1.0, 0.0]), 1.0)
        g, evaluate = _scaled_identity(1.0)
        brouwer_degree(g, U, evaluate=evaluate)
        raise ConfigError("boundary-zero run unexpectedly passed the screen")
    report = Report(["field", "dim", "param", "degree", "expected", "winding", "ok"], {})
    for d in (1, 2, 3):
        U = Region.ball(np.zeros(d), 1.0)
        for name, c, expected in (("identity", 1.0, 1), ("antipodal", -1.0, (-1) ** d)):
            g, evaluate = _scaled_identity(c)
            rep = brouwer_degree(g, U, grid=8, evaluate=evaluate)
            wind = winding_number_2d(g, U) if d == 2 else ""
            ok = rep.value == expected and (d != 2 or wind == expected)
            report.row(name, d, "", rep.value, expected, wind, ok, check="degree_mismatch")
    U2 = Region.ball(np.zeros(2), 1.0)
    for m in (2, num["power_m"]):
        g, evaluate = _power_field(m)
        rep = brouwer_degree(g, U2, grid=12, evaluate=evaluate)
        wind = winding_number_2d(g, U2)
        report.row("complex-power", 2, m, rep.value, m, wind, rep.value == m and wind == m,
                   check="degree_mismatch")
    report.metrics = {"fields_checked": len(report.rows)}
    return report


def run_averaging(cm, num, seed):
    lambdas = [float(v) for v in num["lambdas"]]
    result = averaging_degree_check(cm.family, cm.field, cm.region, lambdas, grid=num["grid"])
    report = Report(["section", "lambda", "boundary_ok", "boundary_min",
                     "degree", "agrees", "error"], {})
    report.row("averaged", "", True, "", result.d0, "", "")
    for r in result.rows:
        report.row("period-map", r.lam, r.boundary_ok, r.boundary_min,
                   r.degree, r.agrees, r.error)
    report.check("degree_equality", result.verdict)
    wind = None
    if cm.dim == 2:
        avg = result.averaged
        g, _ = averaged_map(avg.A_hat, avg.F_hat, avg.DF_hat)
        wind = winding_number_2d(g, cm.region)
        agrees = wind == result.d0
        report.row("winding", "", True, "", wind, agrees, "")
        report.check("winding_crosscheck", agrees)
    report.metrics = {"d0": result.d0, "lambda0": result.lambda0, "winding_d0": wind}
    return report


def run_continuation(cm, num, seed):
    lambdas = sorted(float(v) for v in num["lambdas"])
    result = averaging_degree_check(cm.family, cm.field, cm.region, lambdas, grid=num["grid"])
    report = Report(["section", "lambda", "ok", "value", "error"], {"fp_residual": 1e-8})
    report.row("averaged", "", True, result.d0, "")
    report.check("averaged_degree_nonzero", result.d0 != 0)
    for r in result.rows:
        report.row("sweep", r.lam, r.boundary_ok, r.degree, r.error)
        report.check("boundary_clear", r.boundary_ok)
        report.check("degree_constant", r.degree == result.reference)
    lam_top = lambdas[-1]
    phi = period_map(cm.family, cm.field, lam_top, num["grid"])
    fp = fixed_point(phi, cm.region.midpoint, tol=1e-8)
    inside = bool(cm.region.contains(fp.x))
    report.row("fixed-point", lam_top, inside, fp.residual, "")
    report.check("endpoint_fixed_point", inside and fp.residual <= 1e-8)
    report.metrics = {"d0": result.d0, "x_star": fp.x, "fp_residual": fp.residual}
    return report


def run_wave_periodic(cm, num, seed):
    model, eigs = cm.wave, cm.wave.eigs
    # unset: a slope between the first two eigenvalues (above the only one)
    between = 0.5 * (eigs[0] + eigs[1]) if model.k >= 2 else eigs[0] + 1.0
    f_inf = float(between if num["f_inf"] is None else num["f_inf"])
    lambdas = [float(v) for v in num["lambdas"]]
    nondeg = linear_nondegeneracy(model, lambdas, f_inf=f_inf, n=num["grid"])
    report = Report(["section", "lambda", "value", "bound", "ok"],
                    {"unit_gap": 1e-8, "residual": 1e-6})
    report.row("kernel", "", nondeg.kernel_sigma_min, 1e-8, nondeg.kernel_ok,
               check="nondegeneracy")
    for r in nondeg.rows:
        report.row("monodromy", r.lam, r.unit_gap, 1e-8, r.unit_gap > 1e-8,
                   check="nondegeneracy")
        report.row("liouville", r.lam, r.det_defect, r.det_bound, r.det_defect <= r.det_bound,
                   check="nondegeneracy")
    result = find_periodic_wave(model, lam=1.0, grid=num["grid"])
    report.row("periodic", 1.0, result.residual_eta, 1e-6, result.residual_eta <= 1e-6,
               check="periodic_residual")
    report.metrics = {
        "f_inf_checked": f_inf,
        "kernel_sigma_min": nondeg.kernel_sigma_min,
        "unit_gap_min": min(r.unit_gap for r in nondeg.rows),
        "det_defect_max": max(r.det_defect for r in nondeg.rows),
        "periodic_residual_eta": result.residual_eta,
        "newton_iterations": result.fixed_point.iterations,
    }
    return report


def run_wave_energy(cm, num, seed):
    model = cm.wave
    report = Report(["section", "label", "value", "bound", "ok"],
                    {"energy": 1e-3, "order": {"order": ORDER_SHARE * ORDER, "floor": 1e-6},
                     "invariance": 1e-10})

    sel = select_eta(model)
    report.row("rate", "analytic", sel.rate_analytic, "", "")
    report.row("rate", "numeric", sel.rate_numeric, sel.rate_analytic - 1e-9,
               sel.rate_numeric >= sel.rate_analytic - 1e-9, check="dissipativity_rate")

    grid0 = num["grid"]
    x0 = np.zeros(model.dim)
    x0[0] = 0.5
    x0[model.k] = -0.2

    def residual_at(grid):
        rep = energy_residual(period_map(cm.family, cm.field, 1.0, grid)(x0), model)
        return rep.max_energy_residual, rep.max_position_residual

    res0, pos0 = residual_at(grid0)
    res1, _ = residual_at(2 * grid0)
    factor = res1 / res0 if res0 > 0 else 0.0
    report.row("energy", "grid=%d" % grid0, res0, 1e-3, res0 < 1e-3, check="energy_residual")
    report.row("energy", "grid=%d" % (2 * grid0), res1, "", "")
    table = ConvergenceTable([grid0, 2 * grid0], [res0, res1])
    how = table.shows_order(ORDER, 1e-6)
    report.row("energy-order", how, table.rate, ORDER_SHARE * ORDER, how is not None,
               check="energy_order")
    report.row("position", "grid=%d" % grid0, pos0, "", "")

    pairs = [(ft * model.T, fs * model.T) for ft, fs in (
        (0.17, 0.0), (0.35, 0.1), (0.5, 0.25), (0.63, 0.2), (0.77, 0.4),
        (0.88, 0.3), (1.0, 0.0), (0.95, 0.6), (0.42, 0.4), (0.29, 0.05))]
    for ka, kb in ((1, 3), (3, 8)):
        label = "k=%d,k'=%d" % (ka, kb)
        gap = spectral_invariance_gap(model, ka, kb, pairs, n=256)
        report.row("invariance", label, gap, 1e-10, gap <= 1e-10,
                   check="eigenmode_invariance")
        C = 0.1 * np.ones((kb, kb))
        gap_c = spectral_invariance_gap(model, ka, kb, [(0.5 * model.T, 0.0)],
                                        n=256, coupling=C)
        report.row("invariance-coupled", label, gap_c, "> 1e-8", gap_c > 1e-8,
                   check="eigenmode_invariance")
    report.metrics = {
        "eta": sel.eta,
        "rate_analytic": sel.rate_analytic,
        "rate_numeric": sel.rate_numeric,
        "energy_residual": res0,
        "energy_refinement_factor": factor,
    }
    return report


@dataclass(frozen=True)
class Experiment:
    """A runner, its default model (None: it takes none), what the model
    must carry ("field": a field and a region, "degree": those in at most
    degree.MAX_DEGREE_DIM dimensions, "wave": a wave section), and the
    numeric keys the runner reads with their defaults (None: derived).
    """

    run: Callable
    model: str | None
    needs: str | None
    numeric: dict


EXPERIMENTS = {
    "chernoff": Experiment(run_chernoff, None, None,
                           {"samples": 200, "ns": (16, 64, 256, 1024, 4096)}),
    "evolsys": Experiment(run_evolsys, "wave-k3", None, {"n": 256, "n_continuity": 128}),
    "branching": Experiment(run_branching, "scalar-linear", "field",
                            {"lambdas": catalog.BRANCHING_LADDER, "grid": 1024}),
    "degree": Experiment(run_degree, None, None, {"boundary_zero": False, "power_m": 3}),
    "averaging": Experiment(run_averaging, "scalar-linear", "degree",
                            {"lambdas": catalog.AVERAGING_LADDER, "grid": 256}),
    "continuation": Experiment(run_continuation, "rotation-damped-2d", "degree",
                               {"lambdas": catalog.AVERAGING_LADDER, "grid": 256}),
    "wave-periodic": Experiment(run_wave_periodic, "wave-k3", "wave",
                                {"lambdas": catalog.WAVE_LADDER, "grid": 256, "f_inf": None}),
    "wave-energy": Experiment(run_wave_energy, "wave-k3", "wave", {"grid": 512}),
}
EXPERIMENT_NAMES = tuple(EXPERIMENTS)


def _write_outputs(out_dir, experiment, report, summary):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{experiment}.csv"
    if report is not None:
        with csv_path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(report.header)
            for row in report.rows:
                writer.writerow([_fmt(c) for c in row])
    json_path = out / f"{experiment}.summary.json"
    json_path.write_text(
        json.dumps(_jsonable(summary), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return csv_path, json_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="evolver",
        description="Run a named experiment from a JSON config.",
    )
    parser.add_argument("experiment", choices=EXPERIMENT_NAMES)
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        num, out_cfg = _validate_config(cfg, args.experiment)
        cm = _resolve_model(cfg, args.experiment)
    except EvolverError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else num["seed"]
    out_dir = args.out or out_cfg.get("dir", "out")
    summary = {
        "schema": 1,
        "experiment": args.experiment,
        "model": cm.key if cm is not None else None,
        "seed": seed,
        "wall_time": None,
    }

    t0 = time.perf_counter()
    try:
        report = EXPERIMENTS[args.experiment].run(cm, num, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EvolverError as exc:
        slug = _ERROR_SLUGS.get(type(exc).__name__, "error")
        summary.update({"verdict": "fail", "error": slug, "message": str(exc)})
        _write_outputs(out_dir, args.experiment, None, summary)
        print(f"numeric failure: {slug}: {exc}", file=sys.stderr)
        return 1
    finally:
        print(f"[timing] {args.experiment}: {time.perf_counter() - t0:.2f}s",
              file=sys.stderr)

    failing = next((name for name, ok in report.checks.items() if not ok), None)
    summary.update({
        "verdict": "pass" if failing is None else "fail",
        "metrics": report.metrics,
        "thresholds": report.thresholds,
        "failing": failing,
    })
    csv_path, json_path = _write_outputs(out_dir, args.experiment, report, summary)
    print(f"{args.experiment}: {summary['verdict']} ({csv_path}, {json_path})")
    if failing is not None:
        print(f"numeric failure: {failing}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
