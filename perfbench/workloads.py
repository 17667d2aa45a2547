"""Seeded CLI configs for the three benchmark workloads.

A workload is an ordered list of CLI experiments run one after another in
one process (a closed loop with a single caller).  The workload seed is the
only input: it fixes chernoff's sampling seed and jitters the coupling
ladders of branching, averaging, continuation and wave-periodic.  Every
other setting is the experiment's default, so each experiment keeps its
documented acceptance thresholds.

Jitter ranges, from the models' documented behaviour:

* branching (scalar-linear): the averaged-field defect of the periodic
  state is lam * w / (lam^2 + w^2) with w = 2 pi, so defect_ratio is
  bottom * (top^2 + w^2) / (top * w^2), close to bottom / top.  Seven
  rungs from top in [0.6, 1] down to bottom in [1e-3, 2e-3] keep it below
  3.4e-3, a factor of three inside the 1e-2 threshold, over 2.5 to 3
  decades.
* averaging (scalar-linear) and continuation (rotation-damped-2d): five
  rungs spanning about two decades, top in [0.6, 1] and bottom in
  [5e-3, 2e-2], the range of the shipped ladders (1 down to 1e-2).
* wave-periodic (wave-k3): ten ascending rungs from [0.05, 0.15] to
  [0.9, 1], the span of the shipped ladder (0.1 to 1); every lam > 0
  keeps the damped monodromy away from the eigenvalue 1.

Rung counts are fixed, so the work of a pass does not depend on the seed
beyond the iteration counts the ladders induce.
"""

from __future__ import annotations

import math

import numpy as np

# workload -> experiments, in the order one pass runs them
WORKLOADS = {
    "shooting": ("wave-periodic", "branching"),
    "degree": ("continuation", "averaging", "degree"),
    "evolution": ("evolsys", "wave-energy", "chernoff"),
}

# model each experiment resolves (the CLI's default for that experiment)
MODELS = {
    "evolsys": "wave-k3",
    "branching": "scalar-linear",
    "averaging": "scalar-linear",
    "continuation": "rotation-damped-2d",
    "wave-periodic": "wave-k3",
    "wave-energy": "wave-k3",
}


def _sig(v: float) -> float:
    return float("%.6g" % v)


def geometric_ladder(rng, top_range, bottom_range, rungs: int) -> list:
    """Strictly descending ladder, log-spaced with interior jitter.

    Interior rungs move by at most a quarter of the log spacing, so the
    order never changes.
    """
    top = rng.uniform(*top_range)
    bottom = rng.uniform(*bottom_range)
    logs = np.linspace(math.log(top), math.log(bottom), rungs)
    step = (logs[0] - logs[-1]) / (rungs - 1)
    logs[1:-1] += rng.uniform(-0.25, 0.25, rungs - 2) * step
    return [_sig(math.exp(v)) for v in logs]


def linear_ladder(rng, lo_range, hi_range, rungs: int) -> list:
    """Strictly ascending, evenly spaced ladder with interior jitter."""
    lo = rng.uniform(*lo_range)
    hi = rng.uniform(*hi_range)
    vals = np.linspace(lo, hi, rungs)
    step = (hi - lo) / (rungs - 1)
    vals[1:-1] += rng.uniform(-0.25, 0.25, rungs - 2) * step
    return [_sig(v) for v in vals]


def experiment_config(experiment: str, rng) -> dict:
    """The CLI config for one experiment, drawing its jitter from rng."""
    cfg = {"experiment": experiment}
    if experiment in MODELS:
        cfg["model"] = MODELS[experiment]
    numeric = {}
    if experiment == "chernoff":
        numeric["seed"] = int(rng.integers(0, 2 ** 31 - 1))
    elif experiment == "branching":
        numeric["lambdas"] = geometric_ladder(rng, (0.6, 1.0), (1e-3, 2e-3), 7)
    elif experiment in ("averaging", "continuation"):
        numeric["lambdas"] = geometric_ladder(rng, (0.6, 1.0), (5e-3, 2e-2), 5)
    elif experiment == "wave-periodic":
        numeric["lambdas"] = linear_ladder(rng, (0.05, 0.15), (0.9, 1.0), 10)
    if numeric:
        cfg["numeric"] = numeric
    return cfg


def workload_configs(workload: str, seed: int) -> list:
    """[(experiment, config)] for one pass of the workload, from the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return [(exp, experiment_config(exp, rng)) for exp in WORKLOADS[workload]]


def workload_models(workload: str) -> list:
    """Distinct catalog models the workload resolves, in first-use order."""
    out = []
    for exp in WORKLOADS[workload]:
        m = MODELS.get(exp)
        if m is not None and m not in out:
            out.append(m)
    return out
