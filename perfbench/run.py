"""evolver benchmark: the CLI experiments as closed-loop workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload shooting --seed 0 --seconds 35 --trace 0

One process, one caller: a pass runs the workload's experiments in order
through evolver.cli.main, each starting after the previous one returns.
The first pass warms caches and is not timed; passes repeat while
another one fits in --seconds.  Every run must exit 0 with verdict "pass" and
failing null, and every pass must reproduce the first pass's output
digests; a failing or raising run counts in "failed" and its pass is not
timed.

--trace 0 reports the end-to-end metrics: set-up time (fresh interpreters,
median), wall time of a pass, the slowest experiment of a pass, and peak
RSS.  The three times are rescaled to a nominal speed of the host by
slices of fixed reference work timed while the program runs (speed.py), so
that runs made minutes apart on a shared host compare; the raw times and
the factors are printed and recorded too.  --trace 1 alternates untraced and traced passes and reports the
per-layer metrics of BENCHMARK.json (medians over the traced passes), the
untraced per-experiment times, and the tracing overhead; the traced passes
must produce the same output digests as the untraced ones.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The full run record (environment, generated configs, per-run
timings and digests) goes to perfbench/results/, spans of traced passes
to a .npz file beside it.
"""

from __future__ import annotations

import os

# single-threaded BLAS baseline: must be set before numpy loads OpenBLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from speed import Reference  # noqa: E402
from workloads import WORKLOADS, workload_configs, workload_models  # noqa: E402

SETUP_REPS = 5

# fresh interpreter: import evolver and resolve each model once, then print
# the CLOCK_MONOTONIC reading (system-wide, so comparable with the parent's)
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from evolver import catalog
for spec in sys.argv[2:]:
    catalog.model_from_config(spec)
print(time.monotonic())
"""


def load_evolver():
    """Import evolver from this checkout's src/, or explain why not."""
    if not (SRC / "evolver" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no evolver sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import evolver
    import evolver.cli

    if SRC.resolve() not in Path(evolver.__file__).resolve().parents:
        raise SystemExit(f"benchmark: imported evolver from {evolver.__file__}, not {SRC}")
    return evolver.cli


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(args) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 caller, 1 process",
    }


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def run_experiment(cli, experiment: str, cfg_path: Path, out_dir: Path, ref=None) -> dict:
    """One CLI run; returns its timing, verdict check and output digests.

    Reference slices that interrupt the run are left out of its time.
    """
    csv_path = out_dir / f"{experiment}.csv"
    summary_path = out_dir / f"{experiment}.summary.json"
    for p in (csv_path, summary_path):
        p.unlink(missing_ok=True)
    argv = [experiment, "--config", str(cfg_path), "--out", str(out_dir)]
    log = io.StringIO()
    error = None
    first = len(ref.samples) if ref is not None else 0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a raising run is a failed run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if ref is not None:
        seconds -= sum(ref.samples[first:])
    verdict = failing = None
    if summary_path.is_file():
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        verdict, failing = summary.get("verdict"), summary.get("failing")
    ok = rc == 0 and error is None and verdict == "pass" and failing is None
    return {
        "experiment": experiment,
        "seconds": seconds,
        "ok": ok,
        "exit": rc,
        "verdict": verdict,
        "failing": failing,
        "error": error,
        "log": None if ok else log.getvalue()[-2000:],
        "csv_sha256": sha256(csv_path),
        "summary_sha256": sha256(summary_path),
    }


def run_pass(cli, configs, out_dir: Path, rec=None, ref=None) -> dict:
    """One pass; with ref, reference slices sample the host's speed during
    it, and "factor" is the pass's slowdown against the nominal speed."""
    runs = []
    first = len(ref.samples) if ref is not None else 0
    with ref.timing() if ref is not None else contextlib.nullcontext():
        for i, (experiment, _, cfg_path) in enumerate(configs):
            if rec is not None:
                rec.request_id = i
            runs.append(run_experiment(cli, experiment, cfg_path, out_dir, ref))
    p = {"wall": sum(r["seconds"] for r in runs), "runs": runs,
         "ok": all(r["ok"] for r in runs)}
    if ref is not None:
        p["factor"] = ref.factor(first)
    return p


def digests(p) -> list:
    return [(r["csv_sha256"], r["summary_sha256"]) for r in p["runs"]]


def setup_seconds(models, ref) -> list:
    """Fresh-interpreter set-up times; the first (cold .pyc) run is discarded."""
    times = []
    for _ in range(SETUP_REPS + 1):
        for _ in range(3):
            ref.sample()
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *models],
                             cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.split()[-1]) - t0)
    return times[1:]


def quartiles(values) -> tuple:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(name, values, unit) -> str:
    q1, q2, q3 = quartiles(values)
    return f"[metric] {name} = {q2:.6g} {unit} (median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})"


def successful(passes) -> list:
    """The passes whose runs all succeeded; all of them if none did."""
    return [p for p in passes if p["ok"]] or passes


def per_experiment(passes, experiment, rescale=False) -> list:
    return [r["seconds"] / (p["factor"] if rescale else 1.0)
            for p in successful(passes) for r in p["runs"] if r["experiment"] == experiment]


def end_to_end(cli, args, configs, out_dir, deadline) -> tuple:
    ref = Reference()
    setup = setup_seconds(workload_models(args.workload), ref)
    setup_factor = ref.factor()
    passes = [run_pass(cli, configs, out_dir)]
    step = 0.0
    while len(passes) < 3 or time.perf_counter() + step < deadline:
        t0 = time.perf_counter()
        passes.append(run_pass(cli, configs, out_dir, ref=ref))
        step = time.perf_counter() - t0
    good = successful(passes[1:])
    factors = [p["factor"] for p in good]
    walls = [p["wall"] for p in good]
    slowest = [max(r["seconds"] for r in p["runs"]) for p in good]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = {"setup_raw_s": setup, "wall_s": walls, "slowest_experiment_s": slowest}
    rescaled = {"setup_s": [t / setup_factor for t in setup],
                "wall_ref_s": [t / f for t, f in zip(walls, factors)],
                "slowest_experiment_ref_s": [t / f for t, f in zip(slowest, factors)]}
    for exp in WORKLOADS[args.workload]:
        raw[f"{exp}_s"] = per_experiment(passes[1:], exp)
        rescaled[f"{exp}_ref_s"] = per_experiment(passes[1:], exp, rescale=True)
    q1, q2, q3 = quartiles(factors)
    print(f"[speed] slowdown against the nominal speed: set-up {setup_factor:.4g}; passes "
          f"{q2:.4g} (q1 {q1:.4g}, q3 {q3:.4g}); {len(ref.samples)} reference slices")
    for name, vals in {**raw, **rescaled}.items():
        print(describe(name, vals, "s"))
    print(f"[metric] peak_rss_mb = {rss:.6g} MB (ru_maxrss of this process)")
    metrics = {name: statistics.median(rescaled[name])
               for name in ("setup_s", "wall_ref_s", "slowest_experiment_ref_s")}
    metrics["peak_rss_mb"] = rss
    record = {"setup_s": setup, "setup_factor": setup_factor, "reference_slices": ref.samples}
    return passes, metrics, record


def per_layer(cli, args, configs, out_dir, deadline, names) -> tuple:
    from layers import Instrument, layer_metrics
    from spans import Recorder

    passes = [run_pass(cli, configs, out_dir)]
    plain, traced, layer, spans, missing = [], [], [], [], set()
    step = 0.0
    while len(traced) < 2 or time.perf_counter() + step < deadline:
        t0 = time.perf_counter()
        plain.append(run_pass(cli, configs, out_dir))
        rec = Recorder()
        with Instrument(rec) as inst:
            p = run_pass(cli, configs, out_dir, rec)
        missing.update(inst.missing)
        traced.append(p)
        layer.append(layer_metrics(rec, p["wall"]))
        spans.append(rec.arrays())
        step = time.perf_counter() - t0
    passes += plain + traced
    if missing:
        print(f"[trace] not found, not traced: {', '.join(sorted(missing))}")
    plain_wall = statistics.median(p["wall"] for p in successful(plain))
    traced_wall = statistics.median(p["wall"] for p in successful(traced))
    # a layer with no span in a pass did no work there: its counts and times are 0
    metrics = {key: statistics.median(m.get(key, 0) for m in layer)
               for key in set(names).union(*layer)}
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    for exp in WORKLOADS[args.workload]:
        metrics[f"experiment.{exp}_s"] = statistics.median(per_experiment(plain, exp))
    record = {"traced_walls": [p["wall"] for p in traced],
              "untraced_walls": [p["wall"] for p in plain],
              "layers_per_pass": layer, "not_traced": sorted(missing)}
    return passes, metrics, record, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_evolver()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment(args)
    print("[env] " + json.dumps(env, sort_keys=True))
    deadline = time.perf_counter() + args.seconds
    work = RESULTS / f"work-{os.getpid()}"
    out_dir = work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = []
    for experiment, cfg in workload_configs(args.workload, args.seed):
        path = work / f"{experiment}.config.json"
        path.write_text(json.dumps(cfg, sort_keys=True) + "\n", encoding="utf-8")
        configs.append((experiment, cfg, path))
        print(f"[config] {experiment}: {json.dumps(cfg, sort_keys=True)}")
    try:
        if args.trace:
            passes, metrics, record, spans = per_layer(
                cli, args, configs, out_dir, deadline, [m["name"] for m in wanted])
        else:
            passes, metrics, record = end_to_end(cli, args, configs, out_dir, deadline)
            spans = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p["runs"]) for p in passes)
    failed = sum(not r["ok"] for p in passes for r in p["runs"])
    reference = digests(passes[0])
    stable = all(digests(p) == reference for p in passes)
    print(f"[check] fail_ratio = {failed}/{attempted} = {failed / attempted:.6g} ratio")
    print(f"[check] output digests identical across {len(passes)} passes"
          f"{' (traced and untraced)' if args.trace else ''}: {stable}")
    for p in passes:
        for r in p["runs"]:
            if not r["ok"]:
                print(f"[fail] {r['experiment']}: exit={r['exit']} verdict={r['verdict']} "
                      f"failing={r['failing']} error={r['error']}")

    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    if args.trace:
        for name in sorted(out):
            print(f"[layer] {name} = {out[name]['value']:.6g} {out[name]['unit']}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_record = {
        "environment": env,
        "configs": {exp: cfg for exp, cfg, _ in configs},
        "digests": {r["experiment"]: [r["csv_sha256"], r["summary_sha256"]]
                    for r in passes[0]["runs"]},
        "passes": passes,
        "metrics": metrics,
        **record,
    }
    stem.with_suffix(".json").write_text(json.dumps(run_record, indent=1, sort_keys=True),
                                         encoding="utf-8")
    if spans:
        np.savez_compressed(
            stem.with_name(stem.name + "-spans.npz"),
            **{f"pass{i}_{k}": np.asarray(v) for i, s in enumerate(spans)
               for k, v in s.items()},
        )
    print(json.dumps({"correct": failed == 0 and stable, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
