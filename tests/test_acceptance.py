"""End-to-end acceptance checks at pinned tolerances.

Each test prints one verdict line "[acceptance] <name>: PASS/FAIL" before
asserting, so a full run doubles as a report.
"""

import json
import subprocess
import sys

import numpy as np

from evolver import (
    ChernoffSequence,
    ConvergenceTable,
    GeneratorFamily,
    Region,
    averaged_pair,
    averaging_degree_check,
    branching_experiment,
    brouwer_degree,
    build_evolution,
    build_wave_model,
    chernoff_defect,
    chernoff_power_limit,
    chernoff_sum_limit,
    cocycle_defect,
    contraction_check,
    energy_residual,
    family_continuity_gap,
    find_periodic_wave,
    linear_nondegeneracy,
    mild_solve,
    resolvent_scheme,
    select_eta,
    spectral_invariance_gap,
    winding_number_2d,
)
from evolver.catalog import AVERAGING_LADDER, BRANCHING_LADDER, WAVE_LADDER, get_model
from evolver.evolsys import ORDER
from evolver.semigroup import ORDER_SHARE

from oracles import fd_pair, rk4_transition


def _verdict(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_chernoff_defect():
    rng = np.random.default_rng(101)
    violations = 0
    for _ in range(200):
        d = int(rng.integers(1, 7))
        G = rng.standard_normal((d, d))
        T_op = G * (rng.uniform(0.3, 0.999) / np.linalg.norm(G, 2))
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        n = int(rng.integers(1, 65))
        lhs, rhs = chernoff_defect(T_op, x, n)
        if lhs > rhs + 1e-9:
            violations += 1
    assert _verdict("chernoff-defect", violations == 0)


def test_representation_limits():
    rng = np.random.default_rng(102)
    B = rng.standard_normal((3, 3))
    A = B - 1.1 * np.linalg.norm(B, 2) * np.eye(3)
    scheme = resolvent_scheme(lambda mu: A, 3)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    seq = ChernoffSequence(t=1.0, mu0=0.0, ns=(16, 64, 256, 1024, 4096))
    power = chernoff_power_limit(scheme, seq, x)
    total = chernoff_sum_limit(scheme, seq, x)
    ok = True
    for table in (power, total):
        errs = list(table.errors)
        ok = ok and errs[-1] < 1e-3
        ok = ok and errs[-3] >= errs[-2] >= errs[-1]
        ok = ok and table.converged
    assert _verdict("representation-limits", ok)


def test_evolution_axioms():
    fam = get_model("wave-k3").family  # d = 6
    T = fam.T
    n = 4096
    R = build_evolution(fam, n)
    triples = [
        (R.nodes[n], R.nodes[n // 2], R.nodes[0]),
        (R.nodes[n], R.nodes[3 * n // 4], R.nodes[n // 4]),
        (R.nodes[7 * n // 8], R.nodes[n // 2], R.nodes[n // 8]),
        (R.nodes[5 * n // 8], R.nodes[3 * n // 8], R.nodes[n // 8]),
    ]
    coc = max(cocycle_defect(R, t, r, s) for t, r, s in triples)

    M = R.operator(T, 0.0)
    M_oracle = rk4_transition(fam.A, T, 0.0, 20000)
    gap = float(np.linalg.norm(M - M_oracle, 2))

    # refinement against the independent RK4 transition, not against a
    # finer build of the same scheme, so a tag rule that is wrong in every
    # build shows as a lost order
    ns = [64, 128, 256, 512]
    errs = [
        float(np.linalg.norm(build_evolution(fam, m).operator(T, 0.0) - M_oracle, 2))
        for m in ns
    ]
    order = ConvergenceTable(ns, errs).rate

    ok = coc <= 1e-12 and gap < 1e-3 and order >= ORDER_SHARE * ORDER
    assert _verdict("evolution-axioms", ok), (coc, gap, order)


def test_wave_contraction():
    cm = get_model("wave-k3")
    sel = select_eta(cm.wave)
    R = build_evolution(cm.family, 1024)
    excess = contraction_check(R, sel.rate_numeric)
    assert _verdict("wave-contraction", excess <= 1e-9), excess


def test_parameter_continuity():
    fam = get_model("wave-k3").family
    T = fam.T
    base_A = fam.A
    v = np.zeros(fam.dim)
    v[0] = 1.0
    lhss = []
    bound_ok = True
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        def A2(t, _e=eps):
            return np.asarray(base_A(t), dtype=float) + np.multiply.outer(
                _e * np.cos(2.0 * np.pi * t / T), np.eye(fam.dim))

        fam2 = GeneratorFamily(dim=fam.dim, A=A2, T=T, metric=fam.metric)
        [(lhs, rhs)] = family_continuity_gap(fam, [fam2], 128, v)
        lhss.append(lhs)
        bound_ok = bound_ok and lhs <= rhs
    scaling_ok = all(10.0 / 3.0 <= a / b <= 30.0 for a, b in zip(lhss, lhss[1:]))
    assert _verdict("parameter-continuity", bound_ok and scaling_ok), lhss


def test_branching_defect():
    ok = True
    for key in ("scalar-linear", "rotation-damped-2d"):
        cm = get_model(key)
        rep = branching_experiment(cm.family, cm.field, list(BRANCHING_LADDER),
                                   cm.region, grid=1024)
        defects = rep.defects
        mono = all(b <= a * (1.0 + 1e-6) + 1e-12 for a, b in zip(defects, defects[1:]))
        ok = ok and all(r.ok for r in rep.rows)
        ok = ok and defects[-1] / defects[0] < 1e-2
        ok = ok and mono
    assert _verdict("branching-defect", ok)


def test_averaging_degree():
    ok = True
    for key in ("scalar-linear", "rotation-damped-2d"):
        cm = get_model(key)
        rep = averaging_degree_check(cm.family, cm.field, cm.region,
                                     list(AVERAGING_LADDER), grid=256)
        ok = ok and rep.verdict and rep.lambda0 is not None
        ok = ok and all(r.agrees for r in rep.rows if r.lam <= rep.lambda0)
        if cm.dim == 2:
            avg = averaged_pair(cm.family, cm.field, probes=cm.region.midpoint)

            def g_hat(x):
                x = np.asarray(x, dtype=float)
                corr = np.linalg.solve(avg.A_hat, np.asarray(avg.F_hat(x)).T).T
                return x + corr

            ok = ok and winding_number_2d(g_hat, cm.region) == rep.d0
    assert _verdict("averaging-degree", ok)


def _complex_power(m):
    def g(x):
        x = np.asarray(x, dtype=float)
        z = x[..., 0] + 1j * x[..., 1]
        w = z ** m - 0.1
        return np.stack([w.real, w.imag], axis=-1)

    return g


def test_degree_fields():
    ok = True
    for d in (1, 2, 3):
        U = Region.ball(np.zeros(d), 1.0)
        ident = lambda x: np.asarray(x, dtype=float)
        antip = lambda x: -np.asarray(x, dtype=float)
        ident_deg = brouwer_degree(ident, U, grid=8, evaluate=fd_pair(ident)).value
        antip_deg = brouwer_degree(antip, U, grid=8, evaluate=fd_pair(antip)).value
        ok = ok and ident_deg == 1 and antip_deg == (-1) ** d
        if d == 2:
            ok = ok and winding_number_2d(ident, U) == 1
            ok = ok and winding_number_2d(antip, U) == 1
    U2 = Region.ball(np.zeros(2), 1.0)
    for m in (2, 3, 4):
        g = _complex_power(m)
        ok = ok and brouwer_degree(g, U2, grid=12, evaluate=fd_pair(g)).value == m
        ok = ok and winding_number_2d(g, U2) == m
    assert _verdict("degree-fields", ok)


def test_wave_dissipativity():
    T = 2.0 * np.pi
    ok = True
    for beta in (lambda t: 1.0,
                 lambda t: 1.0 + 0.5 * np.cos(2.0 * np.pi * t / T)):
        for k in (1, 3, 8):
            model = build_wave_model(np.pi, k, beta, T)
            sel = select_eta(model)
            ok = ok and sel.rate_numeric >= sel.rate_analytic - 1e-9
    assert _verdict("wave-dissipativity", ok)


def test_energy_identity():
    cm = get_model("wave-k3")
    model = cm.wave
    x0 = np.zeros(model.dim)
    x0[0] = 0.5
    x0[model.k] = -0.2

    def residual_at(grid, n):
        traj = mild_solve(build_evolution(cm.family, n), cm.field, x0, grid=grid)
        return energy_residual(traj, model).max_energy_residual

    res0 = residual_at(512, 1024)
    res1 = residual_at(1024, 2048)
    table = ConvergenceTable([512, 1024], [res0, res1])
    ok = res0 < 1e-3 and table.shows_order(ORDER, 1e-6) is not None
    assert _verdict("energy-identity", ok), (res0, table.rate)


def test_eigenmode_invariance():
    T = 2.0 * np.pi
    beta = lambda t: 1.0 + 0.5 * np.cos(t)
    pairs = ((0.17, 0.0), (0.35, 0.1), (0.5, 0.25), (0.63, 0.2), (0.77, 0.4),
             (0.88, 0.3), (1.0, 0.0), (0.95, 0.6), (0.42, 0.4), (0.29, 0.05))
    model = build_wave_model(np.pi, 3, beta, T)
    ok = True
    for ka, kb in ((1, 3), (3, 8)):
        gap = spectral_invariance_gap(
            model, ka, kb, [(ft * T, fs * T) for ft, fs in pairs], n=256)
        ok = ok and gap <= 1e-10
    assert _verdict("eigenmode-invariance", ok)


def test_nondegeneracy_periodic():
    cm = get_model("wave-k3")
    model = cm.wave
    # slope pinned between the first two stiffness eigenvalues (1 and 4)
    nondeg = linear_nondegeneracy(model, list(WAVE_LADDER), f_inf=2.5, n=512)
    ok = nondeg.verdict and min(r.unit_gap for r in nondeg.rows) > 1e-8

    res = find_periodic_wave(model, lam=1.0, grid=1024)
    ok = ok and res.residual_eta <= 1e-6

    # affine nonlinearity: the period map is exactly affine, so its fixed
    # point has the closed form (I - M)^{-1} b
    cm1 = get_model("wave-k1")
    model1 = cm1.wave
    n = grid = 256
    R = build_evolution(cm1.family, n)

    def phi(x):
        return mild_solve(R, cm1.field, x, lam=1.0, grid=grid, tol=1e-13).final

    d = model1.dim
    b = phi(np.zeros(d))
    M = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        M[:, j] = phi(e) - b
    z_star = np.linalg.solve(np.eye(d) - M, b)
    found = find_periodic_wave(model1, lam=1.0, grid=grid, fp_tol=1e-11)
    gap = float(np.linalg.norm(found.fixed_point.x - z_star))
    ok = ok and gap <= 1e-8
    assert _verdict("nondegeneracy-periodic", ok), gap


def test_cli_determinism(tmp_path):
    cfg = tmp_path / "branching.json"
    cfg.write_text(json.dumps({
        "experiment": "branching",
        "model": "scalar-linear",
        "numeric": {"grid": 512, "seed": 5},
    }), encoding="utf-8")
    payloads = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "evolver.cli", "branching",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append((
            (out / "branching.csv").read_bytes(),
            (out / "branching.summary.json").read_bytes(),
        ))
    ok = payloads[0][0] == payloads[1][0] and payloads[0][1] == payloads[1][1]
    assert _verdict("cli-determinism", ok)
