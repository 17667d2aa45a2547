"""evolver's layer map for the traced run: what is wrapped and what is counted.

Instrument patches evolver for one traced pass and restores it on exit, so
no file under src/ changes.  Each wrapped function is rebound in every
evolver module that imported it (cli.build_evolution, averaging.mild_solve,
semigroup.mat_exp, ...), and the EvolutionSystem query methods are
patched on the class.  Span names are "<module>.<function>".

Counters recorded at the same boundaries:

* evolsys.family_A: A(t) evaluations, counted by wrapping the family that
  enters build_evolution (so partial-cell exponentials in operator/apply
  count too).
* evolsys.step_operators repeats: calls whose (system, times) pair was
  already assembled earlier in the pass.
* mild: Picard sweeps, state-steps (sweeps x batch x grid) and the batch
  size of every mild_solve; field evaluations as mild.field spans.
* mild.fixed_point: Newton iterations; period-map evaluations are the
  mild_solve spans directly under it.
* degree.brouwer_degree: field points evaluated and zeros found.
* averaging: Simpson nodes sampled while refining.
"""

from __future__ import annotations

import copy
import inspect
import sys
import weakref

import numpy as np

from spans import Patcher

# (module, function) pairs that get a plain timing span
SPANNED = (
    ("linop", "mat_exp"),
    ("linop", "operator_norm"),
    ("semigroup", "chernoff_defect"),
    ("semigroup", "chernoff_power_limit"),
    ("semigroup", "chernoff_sum_limit"),
    ("semigroup", "dissipativity_rate"),
    ("degree", "winding_number_2d"),
    ("averaging", "averaged_pair"),
    ("averaging", "average_generator"),
    ("averaging", "averaging_degree_check"),
    ("averaging", "branching_experiment"),
    ("averaging", "monodromy"),
    ("wave", "find_periodic_wave"),
    ("wave", "linear_nondegeneracy"),
    ("wave", "energy_residual"),
    ("wave", "select_eta"),
    ("wave", "spectral_invariance_gap"),
    ("wave", "build_wave_model"),
    ("exprlang", "eval_expr"),
    ("catalog", "model_from_config"),
    ("cli", "main"),
)

# EvolutionSystem methods that get a span "evolsys.<method>"
METHODS = ("step_operators", "operator", "apply")


def _rows(x) -> int:
    a = np.asarray(x)
    return int(a.size // a.shape[-1]) if a.ndim else 1


class Instrument:
    """Context manager that traces evolver into a Recorder while active."""

    def __init__(self, rec):
        self.rec = rec
        self.missing: list[str] = []
        self._patcher = Patcher()
        self._serials: dict[int, tuple] = {}
        self._seen_steps: set = set()

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._patcher.restore()
            raise
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False

    # -- helpers ---------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "evolver" or name.startswith("evolver."))]

    def _original(self, module: str, attr: str):
        mod = sys.modules.get("evolver." + module)
        fn = getattr(mod, attr, None) if mod is not None else None
        if fn is None:
            self.missing.append(f"{module}.{attr}")
        return fn

    def _rebind(self, module: str, attr: str, make):
        fn = self._original(module, attr)
        if fn is not None:
            self._patcher.replace_everywhere(self._modules(), fn, make(fn))

    def _serial(self, R) -> int:
        """Stable id of a live EvolutionSystem (id() alone is reused after GC)."""
        entry = self._serials.get(id(R))
        if entry is not None and entry[0]() is R:
            return entry[1]
        serial = len(self._serials) + 1
        self._serials[id(R)] = (weakref.ref(R), serial)
        return serial

    # -- wrappers --------------------------------------------------------

    def _install(self):
        rec = self.rec
        for module, attr in SPANNED:
            self._rebind(module, attr, lambda fn, n=f"{module}.{attr}": rec.wrap(n, fn))
        self._rebind("evolsys", "build_evolution", self._build_evolution)
        self._rebind("mild", "mild_solve", self._mild_solve)
        self._rebind("mild", "fixed_point", self._fixed_point)
        self._rebind("degree", "brouwer_degree", self._brouwer_degree)
        self._rebind("averaging", "_simpson_doubling", self._simpson_doubling)

        evolsys = sys.modules["evolver.evolsys"]
        cls = evolsys.EvolutionSystem
        for meth in METHODS:
            fn = cls.__dict__.get(meth)
            if fn is None:
                self.missing.append(f"evolsys.EvolutionSystem.{meth}")
                continue
            if meth == "step_operators":
                fn = self._count_step_repeats(fn)
            self._patcher.replace(cls, meth, rec.wrap(f"evolsys.{meth}", fn))

    def _family_A(self, A):
        rec = self.rec

        def counted_A(t):
            if rec.current() == "evolsys.family_A":
                return A(t)
            idx = rec.open("evolsys.family_A")
            try:
                return A(t)
            finally:
                rec.close(idx)

        return counted_A

    def _build_evolution(self, fn):
        def build_evolution(family, *args, **kwargs):
            traced = copy.copy(family)
            object.__setattr__(traced, "A", self._family_A(family.A))
            return fn(traced, *args, **kwargs)

        return self.rec.wrap("evolsys.build_evolution", build_evolution)

    def _count_step_repeats(self, fn):
        rec = self.rec

        def step_operators(R, times, *args, **kwargs):
            grid = np.asarray(times, dtype=float)
            key = (self._serial(R), grid.size, hash(grid.tobytes()))
            if key in self._seen_steps:
                rec.counts["evolsys.step_operators.repeats"] += 1
            self._seen_steps.add(key)
            return fn(R, times, *args, **kwargs)

        return step_operators

    def _mild_solve(self, fn):
        rec = self.rec
        sig = inspect.signature(fn)

        def mild_solve(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            bound.arguments["F"] = rec.wrap("mild.field", bound.arguments["F"])
            batch = _rows(bound.arguments["x0"])
            grid = int(bound.arguments["grid"])
            rec.samples["mild.batch"].append(batch)
            traj = fn(*bound.args, **bound.kwargs)
            rec.counts["mild.picard_sweeps"] += traj.iterations
            rec.counts["mild.state_steps"] += traj.iterations * batch * grid
            return traj

        return rec.wrap("mild.mild_solve", mild_solve)

    def _fixed_point(self, fn):
        rec = self.rec

        def fixed_point(*args, **kwargs):
            result = fn(*args, **kwargs)
            rec.counts["mild.newton_iters"] += result.iterations
            return result

        return rec.wrap("mild.fixed_point", fixed_point)

    def _brouwer_degree(self, fn):
        rec = self.rec

        def brouwer_degree(g, *args, **kwargs):
            def counted_g(x):
                rec.counts["degree.field_points"] += _rows(x)
                return g(x)

            report = fn(counted_g, *args, **kwargs)
            rec.counts["degree.zeros_found"] += len(report.zeros)
            return report

        return rec.wrap("degree.brouwer_degree", brouwer_degree)

    def _simpson_doubling(self, fn):
        rec = self.rec

        def simpson_doubling(sample, *args, **kwargs):
            def counted_sample(ts):
                rec.counts["averaging.simpson_nodes"] += len(ts)
                return sample(ts)

            return fn(counted_sample, *args, **kwargs)

        return simpson_doubling


def layer_metrics(rec, pass_wall: float) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    a = rec.arrays()
    names = a["names"]
    ids = {n: i for i, n in enumerate(names)}

    def mask(name):
        return a["name"] == ids.get(name, -1)

    out = {}
    for name in names:
        m = mask(name)
        out[f"{name}.calls"] = int(m.sum())
        out[f"{name}.self_s"] = float(a["self"][m].sum())
        out[f"{name}.s"] = float(a["dur"][m].sum())

    parent_name = np.where(a["parent"] >= 0, a["name"][a["parent"]], -1)
    under_fp = mask("mild.mild_solve") & (parent_name == ids.get("mild.fixed_point", -2))
    under_main = parent_name == ids.get("cli.main", -2)
    counts = rec.counts
    batches = rec.samples["mild.batch"]
    step_calls = out.get("evolsys.step_operators.calls", 0)
    zeros = counts["degree.zeros_found"]
    out.update({
        "mild.map_evals": int(under_fp.sum()),
        "mild.picard_sweeps": int(counts["mild.picard_sweeps"]),
        "mild.state_steps": int(counts["mild.state_steps"]),
        "mild.newton_iters": int(counts["mild.newton_iters"]),
        "mild.batch_p50": float(np.median(batches)) if batches else 0.0,
        "mild.batch_max": int(max(batches)) if batches else 0,
        "evolsys.step_operators.repeat_ratio": (
            counts["evolsys.step_operators.repeats"] / step_calls if step_calls else 0.0),
        "degree.field_points": int(counts["degree.field_points"]),
        "degree.zeros_found": int(zeros),
        "degree.points_per_zero": counts["degree.field_points"] / zeros if zeros else 0.0,
        "averaging.simpson_nodes": int(counts["averaging.simpson_nodes"]),
        "semigroup.chernoff_limits.self_s": (
            out.get("semigroup.chernoff_power_limit.self_s", 0.0)
            + out.get("semigroup.chernoff_sum_limit.self_s", 0.0)),
        "trace.coverage": float(a["dur"][under_main].sum()) / pass_wall,
        "trace.spans": len(a["dur"]),
    })
    return out
