"""Experiment runner: JSON configs in, CSV tables and JSON summaries out.

Usage:
    evolver <experiment> --config cfg.json [--out DIR] [--seed N]

Experiments: chernoff, evolsys, branching, degree, averaging,
continuation, wave-periodic, wave-energy.  Each writes
<out>/<experiment>.csv and <out>/<experiment>.summary.json, prints a
verdict line, and exits 0 on pass, 1 on a numeric failure (the failing
metric is named on stderr), 2 on a config problem.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import catalog
from .averaging import averaging_degree_check, branching_experiment
from .degree import MAX_DEGREE_DIM, Region, averaged_map, brouwer_degree, winding_number_2d
from .errors import ConfigError, EvolverError
from .evolsys import (
    affine_family,
    build_evolution,
    cocycle_defect,
    contraction_check,
    family_continuity_gap,
)
from .linop import row_norms
from .mild import fixed_point, period_map
from .semigroup import (
    ChernoffSequence,
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
    "ConfigError": "config",
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
# experiment runners: each returns a dict with header, rows, metrics,
# thresholds and checks, the (metric, passed) pairs in verdict order


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
    ok = lhs <= rhs + 1e-9
    violations = int(np.count_nonzero(~ok))
    min_margin = float(np.min(rhs + 1e-9 - lhs))
    rows = [["defect", i, d, n, lo, hi, good] for i, (d, n, lo, hi, good) in enumerate(
        zip(dims.tolist(), ns_drawn.tolist(), lhs.tolist(), rhs.tolist(), ok.tolist()))]
    B = rng.standard_normal((3, 3))
    A = B - 1.1 * np.linalg.norm(B, 2) * np.eye(3)
    scheme = resolvent_scheme(lambda mu: A, 3)
    x3 = rng.standard_normal(3)
    x3 /= np.linalg.norm(x3)
    ns = tuple(num["ns"])
    seq = ChernoffSequence(t=1.0, mu0=0.0, ns=ns)
    power = chernoff_power_limit(scheme, seq, x3)
    total = chernoff_sum_limit(scheme, seq, x3)
    for n, e in zip(power.ns, power.errors):
        rows.append(["power", "", 3, n, e, "", ""])
    for n, e in zip(total.ns, total.errors):
        rows.append(["sum", "", 3, n, e, "", ""])
    return {
        "header": ["section", "sample", "dim", "n", "lhs_or_error", "rhs", "ok"],
        "rows": rows,
        "metrics": {
            "defect_violations": violations,
            "defect_min_margin": min_margin,
            "power_final_error": power.errors[-1],
            "power_rate": power.rate,
            "sum_final_error": total.errors[-1],
        },
        "thresholds": {"defect_slack": 1e-9, "convergence_tol": 1e-3},
        "checks": [
            ("defect_violations", violations == 0),
            ("power_convergence", power.converged),
            ("sum_convergence", total.converged),
        ],
    }


def run_evolsys(cm, num, seed):
    fam = cm.family
    T = fam.T
    n = num["n"]
    if n < 16:
        raise ConfigError("evolsys needs numeric.n >= 16")
    R = build_evolution(fam, n)
    rows = []
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
    coc_max = float(np.max(defects, initial=0.0))
    for (t, r, s), d in zip(triples, defects.tolist()):
        rows.append(["cocycle", "%.6g,%.6g,%.6g" % (t, r, s), d, 1e-12, d <= 1e-12])

    ref = build_evolution(fam, min(16 * n, 2 ** 14))
    M_ref = ref.operator(T, 0.0)
    ref_ns = [n // 4, n // 2, n, 2 * n]
    errs = []
    for m in ref_ns:
        M = (R if m == n else build_evolution(fam, m)).operator(T, 0.0)
        e = float(np.linalg.norm(M - M_ref, 2))
        errs.append(e)
        rows.append(["refine", str(m), e, "", ""])
    order = float(-np.polyfit(np.log(ref_ns), np.log(errs), 1)[0])
    rows.append(["order", "", order, 0.9, order >= 0.9])

    rate_min = float(np.min(dissipativity_rate(fam.stack(R.nodes), fam.metric)))
    excess = contraction_check(R, rate_min)
    rows.append(["contraction", "omega=%.6g" % rate_min, excess, 1e-9, excess <= 1e-9])

    eps_sweep = [1e-1, 1e-2, 1e-3, 1e-4]
    v = np.zeros(fam.dim)
    v[0] = 1.0
    perturbed = [
        affine_family(fam, B=lambda t, _e=eps: np.multiply.outer(
            _e * np.cos(2.0 * np.pi * t / T), np.eye(fam.dim)))
        for eps in eps_sweep
    ]
    gaps = family_continuity_gap(fam, perturbed, num["n_continuity"], v)
    lhss = []
    cont_ok = True
    for eps, (lhs, rhs) in zip(eps_sweep, gaps):
        lhss.append(lhs)
        cont_ok = cont_ok and lhs <= rhs
        rows.append(["continuity", "eps=%g" % eps, lhs, rhs, lhs <= rhs])
    scaling_ok = True
    for a, b in zip(lhss, lhss[1:]):
        ratio = a / b if b > 0 else np.inf
        good = 10.0 / 3.0 <= ratio <= 30.0
        scaling_ok = scaling_ok and good
        rows.append(["continuity-scaling", "", ratio, "10/3..30", good])

    return {
        "header": ["section", "label", "value", "bound", "ok"],
        "rows": rows,
        "metrics": {
            "cocycle_defect_max": coc_max,
            "refinement_order": order,
            "contraction_excess": excess,
            "continuity_lhs": lhss,
        },
        "thresholds": {"cocycle": 1e-12, "order": 0.9, "contraction": 1e-9},
        "checks": [
            ("cocycle_defect", coc_max <= 1e-12),
            ("refinement_order", order >= 0.9),
            ("contraction_excess", excess <= 1e-9),
            ("continuity_bound", cont_ok),
            ("continuity_scaling", scaling_ok),
        ],
    }


def run_branching(cm, num, seed):
    lambdas = [float(v) for v in num["lambdas"]]
    if any(a <= b for a, b in zip(lambdas, lambdas[1:])):
        raise ConfigError("branching needs a strictly descending numeric.lambdas")
    report = branching_experiment(cm.family, cm.field, lambdas, cm.region,
                                  n=num["n"], grid=num["grid"])
    d = cm.dim
    header = (["lambda"] + ["x_star_%d" % i for i in range(d)]
              + ["defect", "newton_iters", "residual", "ok", "error"])
    rows = []
    for r in report.rows:
        xs = list(r.x) if r.x is not None else [""] * d
        rows.append([r.lam] + xs + [r.defect, r.iterations, r.residual, r.ok, r.error])
    defects = report.defects
    trend_ok = all(
        b <= a * (1.0 + 1e-6) + 1e-12 for a, b in zip(defects, defects[1:])
    )
    ratio = report.defect_ratio
    all_ok = all(r.ok for r in report.rows)
    return {
        "header": header,
        "rows": rows,
        "metrics": {
            "defect_ratio": ratio,
            "defect_first": defects[0] if defects else None,
            "defect_last": defects[-1] if defects else None,
            "x_star_last": report.rows[-1].x if report.rows and report.rows[-1].ok else None,
        },
        "thresholds": {"defect_ratio": 1e-2},
        "checks": [
            ("fixed_point_failures", all_ok),
            ("defect_ratio", bool(ratio <= 1e-2)),
            ("defect_trend", trend_ok),
        ],
    }


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
    rows = []
    all_ok = True
    for d in (1, 2, 3):
        U = Region.ball(np.zeros(d), 1.0)
        for name, c, expected in (("identity", 1.0, 1), ("antipodal", -1.0, (-1) ** d)):
            g, evaluate = _scaled_identity(c)
            rep = brouwer_degree(g, U, grid=8, evaluate=evaluate)
            wind = ""
            ok = rep.value == expected
            if d == 2:
                wind = winding_number_2d(g, U)
                ok = ok and wind == expected
            all_ok = all_ok and ok
            rows.append([name, d, "", rep.value, expected, wind, ok])
    U2 = Region.ball(np.zeros(2), 1.0)
    for m in (2, num["power_m"]):
        g, evaluate = _power_field(m)
        rep = brouwer_degree(g, U2, grid=12, evaluate=evaluate)
        wind = winding_number_2d(g, U2)
        ok = rep.value == m and wind == m
        all_ok = all_ok and ok
        rows.append(["complex-power", 2, m, rep.value, m, wind, ok])
    return {
        "header": ["field", "dim", "param", "degree", "expected", "winding", "ok"],
        "rows": rows,
        "metrics": {"fields_checked": len(rows)},
        "thresholds": {},
        "checks": [("degree_mismatch", all_ok)],
    }


def run_averaging(cm, num, seed):
    lambdas = [float(v) for v in num["lambdas"]]
    report = averaging_degree_check(cm.family, cm.field, cm.region, lambdas,
                                    n=num["n"], grid=num["grid"])
    rows = [["averaged", "", True, "", report.d0, "", ""]]
    for r in report.rows:
        rows.append(["period-map", r.lam, r.boundary_ok, r.boundary_min,
                     r.degree, r.agrees, r.error])
    wind = None
    wind_ok = True
    if cm.dim == 2:
        avg = report.averaged
        g, _ = averaged_map(avg.A_hat, avg.F_hat, avg.DF_hat)
        wind = winding_number_2d(g, cm.region)
        wind_ok = wind == report.d0
        rows.append(["winding", "", True, "", wind, wind_ok, ""])
    return {
        "header": ["section", "lambda", "boundary_ok", "boundary_min",
                   "degree", "agrees", "error"],
        "rows": rows,
        "metrics": {"d0": report.d0, "lambda0": report.lambda0,
                    "winding_d0": wind},
        "thresholds": {},
        "checks": [
            ("degree_equality", report.verdict),
            ("winding_crosscheck", wind_ok),
        ],
    }


def run_continuation(cm, num, seed):
    lambdas = sorted(float(v) for v in num["lambdas"])
    report = averaging_degree_check(cm.family, cm.field, cm.region, lambdas,
                                    n=num["n"], grid=num["grid"])
    rows = [["averaged", "", True, report.d0, ""]]
    boundary_clear = True
    degrees_ok = True
    for r in report.rows:
        boundary_clear = boundary_clear and r.boundary_ok
        degrees_ok = degrees_ok and (r.degree == report.reference)
        rows.append(["sweep", r.lam, r.boundary_ok, r.degree, r.error])
    lam_top = lambdas[-1]
    phi = period_map(cm.family, cm.field, lam_top, num["n"], num["grid"])
    fp = fixed_point(phi, cm.region.midpoint, tol=1e-8)
    inside = bool(cm.region.contains(fp.x))
    rows.append(["fixed-point", lam_top, inside, fp.residual, ""])
    return {
        "header": ["section", "lambda", "ok", "value", "error"],
        "rows": rows,
        "metrics": {"d0": report.d0, "x_star": fp.x,
                    "fp_residual": fp.residual},
        "thresholds": {"fp_residual": 1e-8},
        "checks": [
            ("averaged_degree_nonzero", report.d0 != 0),
            ("boundary_clear", boundary_clear),
            ("degree_constant", degrees_ok),
            ("endpoint_fixed_point", inside and fp.residual <= 1e-8),
        ],
    }


def run_wave_periodic(cm, num, seed):
    model, eigs = cm.wave, cm.wave.eigs
    # unset: a slope between the first two eigenvalues (above the only one)
    between = 0.5 * (eigs[0] + eigs[1]) if model.k >= 2 else eigs[0] + 1.0
    f_inf = float(between if num["f_inf"] is None else num["f_inf"])
    lambdas = [float(v) for v in num["lambdas"]]
    nondeg = linear_nondegeneracy(model, lambdas, f_inf=f_inf, n=num["n"])
    rows = [["kernel", "", nondeg.kernel_sigma_min, 1e-8, nondeg.kernel_ok]]
    for r in nondeg.rows:
        rows.append(["monodromy", r.lam, r.unit_gap, 1e-8, r.ok])
    result = find_periodic_wave(model, lam=1.0, n=2 * num["grid"], grid=num["grid"])
    rows.append(["periodic", 1.0, result.residual_eta, 1e-6,
                 result.residual_eta <= 1e-6])
    return {
        "header": ["section", "lambda", "value", "bound", "ok"],
        "rows": rows,
        "metrics": {
            "f_inf_checked": f_inf,
            "kernel_sigma_min": nondeg.kernel_sigma_min,
            "unit_gap_min": min(r.unit_gap for r in nondeg.rows),
            "periodic_residual_eta": result.residual_eta,
            "newton_iterations": result.fixed_point.iterations,
        },
        "thresholds": {"unit_gap": 1e-8, "residual": 1e-6},
        "checks": [
            ("nondegeneracy", nondeg.verdict),
            ("periodic_residual", result.residual_eta <= 1e-6),
        ],
    }


def run_wave_energy(cm, num, seed):
    model = cm.wave
    rows = []

    sel = select_eta(model)
    rate_ok = sel.rate_numeric >= sel.rate_analytic - 1e-9
    rows.append(["rate", "analytic", sel.rate_analytic, "", ""])
    rows.append(["rate", "numeric", sel.rate_numeric,
                 sel.rate_analytic - 1e-9, rate_ok])

    grid0 = num["grid"]
    n0 = 2 * grid0 if num["n"] is None else num["n"]
    x0 = np.zeros(model.dim)
    x0[0] = 0.5
    x0[model.k] = -0.2

    def residual_at(grid, n):
        rep = energy_residual(period_map(cm.family, cm.field, 1.0, n, grid)(x0), model)
        return rep.max_energy_residual, rep.max_position_residual

    res0, pos0 = residual_at(grid0, n0)
    res1, _ = residual_at(2 * grid0, 2 * n0)
    factor = res1 / res0 if res0 > 0 else 0.0
    halving_ok = (0.3 <= factor <= 0.7) or res1 <= 1e-6
    rows.append(["energy", "grid=%d,n=%d" % (grid0, n0), res0, 1e-3, res0 < 1e-3])
    rows.append(["energy", "grid=%d,n=%d" % (2 * grid0, 2 * n0), res1, "", ""])
    rows.append(["energy-halving", "", factor, "0.3..0.7", halving_ok])
    rows.append(["position", "grid=%d,n=%d" % (grid0, n0), pos0, "", ""])

    inv_ok = True
    pairs = [(ft * model.T, fs * model.T) for ft, fs in (
        (0.17, 0.0), (0.35, 0.1), (0.5, 0.25), (0.63, 0.2), (0.77, 0.4),
        (0.88, 0.3), (1.0, 0.0), (0.95, 0.6), (0.42, 0.4), (0.29, 0.05))]
    for ka, kb in ((1, 3), (3, 8)):
        gap = spectral_invariance_gap(model, ka, kb, pairs, n=256)
        good = gap <= 1e-10
        inv_ok = inv_ok and good
        rows.append(["invariance", "k=%d,k'=%d" % (ka, kb), gap, 1e-10, good])
        C = 0.1 * np.ones((kb, kb))
        gap_c = spectral_invariance_gap(model, ka, kb, [(0.5 * model.T, 0.0)],
                                        n=256, coupling=C)
        coupled_good = gap_c > 1e-8
        inv_ok = inv_ok and coupled_good
        rows.append(["invariance-coupled", "k=%d,k'=%d" % (ka, kb),
                     gap_c, "> 1e-8", coupled_good])

    return {
        "header": ["section", "label", "value", "bound", "ok"],
        "rows": rows,
        "metrics": {
            "eta": sel.eta,
            "rate_analytic": sel.rate_analytic,
            "rate_numeric": sel.rate_numeric,
            "energy_residual": res0,
            "energy_halving_factor": factor,
        },
        "thresholds": {"energy": 1e-3, "halving": [0.3, 0.7],
                       "invariance": 1e-10},
        "checks": [
            ("dissipativity_rate", rate_ok),
            ("energy_residual", bool(res0 < 1e-3)),
            ("energy_halving", halving_ok),
            ("eigenmode_invariance", inv_ok),
        ],
    }


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
                            {"lambdas": catalog.BRANCHING_LADDER, "n": 512, "grid": 1024}),
    "degree": Experiment(run_degree, None, None, {"boundary_zero": False, "power_m": 3}),
    "averaging": Experiment(run_averaging, "scalar-linear", "degree",
                            {"lambdas": catalog.AVERAGING_LADDER, "n": 256, "grid": 256}),
    "continuation": Experiment(run_continuation, "rotation-damped-2d", "degree",
                               {"lambdas": catalog.AVERAGING_LADDER, "n": 256, "grid": 256}),
    "wave-periodic": Experiment(run_wave_periodic, "wave-k3", "wave",
                                {"lambdas": catalog.WAVE_LADDER, "n": 512, "grid": 1024,
                                 "f_inf": None}),
    "wave-energy": Experiment(run_wave_energy, "wave-k3", "wave", {"grid": 2048, "n": None}),
}
EXPERIMENT_NAMES = tuple(EXPERIMENTS)


def _write_outputs(out_dir, experiment, result, summary):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{experiment}.csv"
    if result is not None:
        with csv_path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(result["header"])
            for row in result["rows"]:
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
        result = EXPERIMENTS[args.experiment].run(cm, num, seed)
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

    failing = next((name for name, good in result["checks"] if not good), None)
    summary.update({
        "verdict": "pass" if failing is None else "fail",
        "metrics": result["metrics"],
        "thresholds": result["thresholds"],
        "failing": failing,
    })
    csv_path, json_path = _write_outputs(out_dir, args.experiment, result, summary)
    print(f"{args.experiment}: {summary['verdict']} ({csv_path}, {json_path})")
    if failing is not None:
        print(f"numeric failure: {failing}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
