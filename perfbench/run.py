"""Run one `resdyn` benchmark workload and print its metrics.

    python3 perfbench/run.py --workload openloop --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It imports `resdyn` from the checkout's
own `src/` and fails, without printing a result, when that is missing.

The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the per-layer ones, taken
from spans recorded around every call into a `resdyn` layer. The line
before it holds the run's metadata (environment, tail percentiles and
their sample counts, accuracy figures, failed checks). Outputs go to
`.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import ast
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import SpanRecorder

# One BLAS thread: the run is a single thread of work. On a 2-CPU machine the
# OpenBLAS default of one thread per CPU made a train_cnn step 2.7x slower
# and its step-to-step spread 3x wider (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def import_resdyn() -> None:
    """Put the checkout's `src/` first on the path and make sure `resdyn`
    comes from there."""
    package = SRC / "resdyn"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no resdyn package at {package}; "
                         "run from the root of a resdyn checkout")
    sys.path.insert(0, str(SRC))
    import resdyn
    if Path(resdyn.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: resdyn imported from {resdyn.__file__}, not {package}")


# -- statistics ----------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile, in steps
    of 0.1, that leaves at least ten samples beyond it. Below 20 samples not
    even the median does, and the maximum is reported as percentile 100."""
    n = len(samples)
    if n < 20:
        return max(samples), 100.0, n
    import numpy as np
    pct = math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0
    return float(np.percentile(samples, pct)), pct, n


# -- run metadata ------------------------------------------------------------

def blas_info() -> dict:
    import numpy as np
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(dll, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_counts() -> dict:
    """Lines and public top-level symbols of `src/resdyn`."""
    lines = symbols = 0
    for path in sorted((SRC / "resdyn").glob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            symbols += sum(not n.startswith("_") for n in names)
    return {"src_lines": lines, "src_public_symbols": symbols}


def run_metadata(args) -> dict:
    import numpy as np
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas_info(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "commit": git_commit(), **src_counts()}


# -- the run -------------------------------------------------------------------

def timed_passes(workload, rec, state, seconds: float, min_passes: int,
                 passes: int | None = None) -> list[float]:
    """Wall time of each pass. Runs `passes` passes if given, otherwise
    passes until `seconds` have gone by and at least `min_passes` ran."""
    off = SpanRecorder(False)
    walls: list[float] = []
    start = time.perf_counter()
    while (len(walls) < passes if passes is not None
           else len(walls) < min_passes or time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        with rec.span("bench.pass"):
            workload.run_pass(rec, state)
        walls.append(time.perf_counter() - t0)
        workload.after_pass(off, state)
    return walls


def end_to_end(workload, setup_s: list[float], walls: list[float]) -> tuple[dict, dict]:
    smp = workload.samples
    total = sum(walls)
    step_tail, step_pct, step_n = tail(smp.step_ms)
    win_tail, win_pct, win_n = tail(smp.window_ms)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "windows_per_s": (smp.windows / total, "1/s"),
        "step_ms_p50": (statistics.median(smp.step_ms), "ms"),
        "step_ms_tail": (step_tail, "ms"),
        "realtime_x": (smp.sim_s / total, "x"),
        "window_ms_p50": (statistics.median(smp.window_ms), "ms"),
        "window_ms_tail": (win_tail, "ms"),
        "dm_rb_rmse_m": (workload.accuracy["dm_rb_rmse_m"], "m"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    tails = {"step_ms_tail": {"percentile": step_pct, "samples": step_n},
             "window_ms_tail": {"percentile": win_pct, "samples": win_n}}
    return metrics, tails


def per_layer(rec, setup_rec, walls: list[float], traced_walls: list[float]) -> dict:
    spans = rec.summary("bench.pass")
    counts = rec.counts

    def busy(name):
        return spans.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def per(total, n, scale):
        return total * scale / n if n else 0.0

    oracle_ticks = counts["scenarios.oracle_log.ticks"]
    rb_ticks = counts["dynamics.rollout.rb.ticks"]
    lb_ticks = counts["dynamics.rollout.lb.ticks"]
    epochs = counts["dynamics.train_dm_lb.epochs"]
    metrics = {
        "scenarios.oracle_log.calls": (counts["scenarios.oracle_log.calls"], "count"),
        "scenarios.oracle_log.ticks": (oracle_ticks, "count"),
        "scenarios.oracle_log.busy_s": (busy("scenarios.oracle_log"), "s"),
        "scenarios.oracle_log.us_per_tick":
            (per(busy("scenarios.oracle_log"), oracle_ticks, 1e6), "us"),
        "scenarios.oracle_log.setup_busy_s":
            (setup_rec.summary("bench.setup").get("scenarios.oracle_log", {})
             .get("busy_s", 0.0), "s"),
        "dynamics.rollout.rb.us_per_tick": (per(busy("dynamics.rollout.rb"), rb_ticks, 1e6), "us"),
        "dynamics.rollout.lb.us_per_tick": (per(busy("dynamics.rollout.lb"), lb_ticks, 1e6), "us"),
        "dynamics.rollout.ticks": (rb_ticks + lb_ticks, "count"),
        "dynamics.rollout_states.us_per_tick":
            (per(busy("dynamics.rollout_states"), counts["dynamics.rollout_states.ticks"], 1e6),
             "us"),
        "dynamics.tick_training_pairs.busy_s": (busy("dynamics.tick_training_pairs"), "s"),
        "dynamics.train_dm_lb.busy_s": (busy("dynamics.train_dm_lb"), "s"),
        "dynamics.train_dm_lb.epochs": (epochs, "count"),
        "dynamics.train_dm_lb.ms_per_epoch": (per(busy("dynamics.train_dm_lb"), epochs, 1e3), "ms"),
        "encoders.encode.calls": (calls("encoders.encode"), "count"),
        "encoders.encode.ms_per_call":
            (per(busy("encoders.encode"), calls("encoders.encode"), 1e3), "ms"),
        "encoders.encode.us_per_window":
            (per(busy("encoders.encode"), counts["encoders.encode.windows"], 1e6), "us"),
        "svgp.loss.ms_per_call": (per(busy("svgp.loss"), calls("svgp.loss"), 1e3), "ms"),
        "svgp.predict.calls": (calls("svgp.predict"), "count"),
        "svgp.predict.ms_per_call": (per(busy("svgp.predict"), calls("svgp.predict"), 1e3), "ms"),
        "autodiff.backward.ms_per_call":
            (per(busy("autodiff.backward"), calls("autodiff.backward"), 1e3), "ms"),
        "autodiff.Adam.step.ms_per_call":
            (per(busy("autodiff.Adam.step"), calls("autodiff.Adam.step"), 1e3), "ms"),
        "autodiff.Adam.steps": (calls("autodiff.Adam.step"), "count"),
        "autodiff.Adam.skipped_steps": (counts["autodiff.Adam.skipped_steps"], "count"),
        "core.write_trajectory_csv.ms_per_call":
            (per(busy("core.write_trajectory_csv"), calls("core.write_trajectory_csv"), 1e3),
             "ms"),
        "core.write_trajectory_csv.bytes": (counts["core.write_trajectory_csv.bytes"], "B"),
        "core.read_trajectory_csv.ms_per_call":
            (per(busy("core.read_trajectory_csv"), calls("core.read_trajectory_csv"), 1e3),
             "ms"),
        "bench.unattributed_s": (spans.get("bench.pass", {}).get("self_s", 0.0), "s"),
        "bench.trace_overhead_s": (sum(traced_walls) - sum(walls), "s"),
    }
    for layer, self_s in rec.layer_self_time("bench.pass").items():
        metrics[f"{layer}.self_s"] = (self_s, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("openloop", "train_cnn", "train_lstm", "corrected_rollout"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, to exercise the code paths quickly")
    args = parser.parse_args(argv)

    import_resdyn()
    import pipeline
    from workloads import WORKLOADS

    sizes = pipeline.TINY if args.tiny else pipeline.FULL
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    csv_dir = OUT / f"csv-{os.getpid()}"
    csv_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, sizes, csv_dir)
        off = SpanRecorder(False)
        setup_rec = SpanRecorder(False)
        setup_s, states = [], []
        for rep in range(sizes.setup_reps):
            setup_rec.enabled = bool(args.trace) and rep == sizes.setup_reps - 1
            t0 = time.perf_counter()
            with setup_rec.span("bench.setup"):
                states.append(workload.setup(setup_rec))
            setup_s.append(time.perf_counter() - t0)
        workload.fails.check(all(workload.same_setup(states[0], s) for s in states[1:]),
                             "set-ups from the same seed differ")
        spare, state = states[0], states[-1]
        del states

        workload.warmup(off, state)
        walls = timed_passes(workload, off, state, args.seconds, workload.min_passes())
        rec = SpanRecorder(bool(args.trace))
        if args.trace:
            traced_walls = timed_passes(workload, rec, state, args.seconds, workload.min_passes(),
                                        passes=len(walls))
        workload.finish(off, state, spare)
        fails = workload.fails
        if args.trace:
            metrics, tails = per_layer(rec, setup_rec, walls, traced_walls), {}
        else:
            metrics, tails = end_to_end(workload, setup_s, walls)
    finally:
        shutil.rmtree(csv_dir, ignore_errors=True)

    meta = run_metadata(args)
    meta.update(setup_s_each=setup_s, pass_walls_s=walls, tails=tails,
                accuracy=workload.accuracy,
                failed_ops_frac=fails.failed / max(fails.attempted, 1),
                failed_checks=fails.checks)
    record = {"meta": meta, "samples": {"step_ms": workload.samples.step_ms,
                                        "window_ms": workload.samples.window_ms}}
    if args.trace:
        record.update(setup_trace=setup_rec.as_dict(), trace=rec.as_dict())
    (OUT / f"{stem}.json").write_text(json.dumps(record))
    for what in fails.checks:
        print(f"perfbench: check failed: {what}", file=sys.stderr)

    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not fails.checks,
        "attempted": fails.attempted,
        "failed": fails.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
