"""The four benchmark workloads.

Each workload has a set-up, one untimed warm-up and a *pass*: a fixed piece
of work that run.py repeats until the run's time is up. A workload
keeps its own samples (step and window latencies, windows and simulated
seconds processed) and checks its own outputs.

- `openloop`: oracle ground truth, DM-LB training and open-loop windows.
- `train_cnn`, `train_lstm`: joint encoder + SVGP optimizer steps.
- `corrected_rollout`: corrected rollouts of the golden maneuvers with
  trajectory CSV output.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import pipeline as pl
from pipeline import DT, WINDOW, Failures, Sizes
from resdyn import core, dynamics, scenarios
from resdyn.core import ValidationError


class Samples:
    """What the timed passes of a run produced."""

    def __init__(self):
        self.step_ms: list[float] = []     # one optimizer step each
        self.window_ms: list[float] = []   # time per N-tick window, one sample per batch of windows
        self.windows = 0                   # windows processed
        self.sim_s = 0.0                   # simulated driving seconds processed


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, out_dir: Path):
        self.seed = seed
        self.sizes = sizes
        self.out_dir = out_dir
        self.fails = Failures()
        self.samples = Samples()
        self.accuracy: dict[str, float] = {}

    def setup(self, rec):
        raise NotImplementedError

    def min_passes(self) -> int:
        return self.sizes.min_passes

    def same_setup(self, a, b) -> bool:
        """Whether two set-ups from the same seed produced equal state."""
        raise NotImplementedError

    def warmup(self, rec, state) -> None:
        raise NotImplementedError

    def run_pass(self, rec, state) -> None:
        raise NotImplementedError

    def after_pass(self, rec, state) -> None:
        """Untimed work between passes."""

    def finish(self, rec, state, spare) -> None:
        """Final checks, untraced; `spare` is an untouched set-up from the
        same seed."""


def _arrays_equal(a, b) -> bool:
    return all(np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(a, b))


def _same_result(a, b) -> bool:
    """Equal pass results, where None marks a maneuver that failed."""
    return (a is None) == (b is None) and (a is None or _arrays_equal(a, b))


def _rms(values) -> float:
    return float(np.sqrt(np.mean(np.square(values))))


# -- openloop ----------------------------------------------------------------

class OpenLoop(Workload):
    """The paper's baseline stage. Set-up generates the golden set (the
    eight golden maneuvers and the loop). A pass trains DM-LB on the loop,
    then for each golden maneuver (one *step*) runs the oracle on its
    scripted commands and DM-RB / DM-LB open-loop rollouts over N-tick
    windows starting every `openloop_stride` ticks, each started from the
    oracle's measured state and scored at its end. The accuracy figures use
    the non-overlapping windows only, as the other workloads do.

    Windows, not whole maneuvers, are scored: DM-LB feeds its own
    acceleration back as an input, and its whole-maneuver rollouts diverge
    for many training seeds.
    """

    name = "openloop"

    def min_passes(self) -> int:
        return self.sizes.openloop_min_passes

    def setup(self, rec):
        logs = pl.oracle_logs(rec, self.seed, self.sizes)
        with rec.span("scenarios.golden_scripts"):
            scripts = scenarios.golden_scripts(duration=self.sizes.golden_s)
            commands = {s.name: s.commands(DT) for s in scripts}
        return {"rb": dynamics.RuleBasedModel(), "loop": logs["loop"], "commands": commands,
                "golden_xy": {name: logs[name].xy for name in scenarios.GOLDEN_NAMES},
                "results": []}

    def same_setup(self, a, b) -> bool:
        return (_arrays_equal((a["loop"].xy,), (b["loop"].xy,)) and a["commands"] == b["commands"]
                and _arrays_equal(a["golden_xy"].values(), b["golden_xy"].values()))

    def warmup(self, rec, state) -> None:
        first = state["loop"].records[0]
        dynamics.rollout(state["rb"], first.pose, first.state,
                         state["loop"].commands[:WINDOW], DT)

    def run_pass(self, rec, state) -> None:
        sz, fails, smp = self.sizes, self.fails, self.samples
        fails.attempted += 1
        with rec.span("dynamics.tick_training_pairs"):
            x, y = dynamics.tick_training_pairs(state["loop"].records, DT)
        with rec.span("dynamics.train_dm_lb"):
            lb, report = dynamics.train_dm_lb(x, y, seed=self.seed, epochs=sz.dm_epochs,
                                              patience=sz.dm_epochs)
        rec.count("dynamics.train_dm_lb.epochs", report.epochs_run)

        rb = state["rb"]
        rb_err, lb_err, truth = [], [], []
        for name in scenarios.GOLDEN_NAMES:
            t_step = time.perf_counter()
            fails.attempted += 1
            with rec.span("scenarios.oracle_log"):
                records = scenarios.oracle_log(state["commands"][name], DT)
            log = pl.Log.of(name, records)
            rec.count("scenarios.oracle_log.calls")
            rec.count("scenarios.oracle_log.ticks", log.ticks)
            truth.append(log.xy)
            for i in pl.window_starts(log, sz.openloop_stride):
                t0 = time.perf_counter()
                r0 = log.records[i]
                cmds = log.commands[i:i + WINDOW]
                for tag, model, errs in (("rb", rb, rb_err), ("lb", lb, lb_err)):
                    fails.attempted += 1
                    try:
                        with rec.span(f"dynamics.rollout.{tag}"):
                            traj = dynamics.rollout(model, r0.pose, r0.state, cmds, DT)
                    except ValidationError:
                        fails.failed += 1
                        continue
                    rec.count(f"dynamics.rollout.{tag}.ticks", WINDOW)
                    if i % WINDOW == 0:
                        errs.append(np.hypot(*(traj.xy[-1] - log.xy[i + WINDOW])))
                smp.window_ms.append(1000.0 * (time.perf_counter() - t0))
                smp.windows += 1
            smp.step_ms.append(1000.0 * (time.perf_counter() - t_step))
            smp.sim_s += log.ticks * DT
        state["results"].append([np.array(rb_err), np.array(lb_err), np.array(report.val_mse),
                                 *(lb.weights[k] for k in sorted(lb.weights)), *truth])

    def finish(self, rec, state, spare) -> None:
        results, fails = state["results"], self.fails
        first = results[0]
        fails.check(_arrays_equal(first[-len(scenarios.GOLDEN_NAMES):],
                                  state["golden_xy"].values()),
                    "openloop: oracle_log of the golden scripts differs from generate_golden_set")
        fails.check(all(_arrays_equal(first, other) for other in results[1:]),
                    "openloop: a pass with the same seed gave different results")
        rb_err, lb_err, val_mse = first[:3]
        fails.finite(rb_err, "DM-RB window error")
        fails.finite(lb_err, "DM-LB window error")
        fails.finite(val_mse, "DM-LB validation loss")
        self.accuracy.update(dm_rb_rmse_m=_rms(rb_err), dm_lb_rmse_m=_rms(lb_err),
                             dm_lb_val_mse=float(np.min(val_mse)))


# -- train_cnn / train_lstm ---------------------------------------------------

class Train(Workload):
    """Joint encoder + SVGP training steps. A pass is a fixed number of
    steps; the validation NELBO is taken once, after the warm-up step and
    the first pass."""

    kind = ""

    def __init__(self, seed, sizes, out_dir):
        super().__init__(seed, sizes, out_dir)
        self.batch = getattr(sizes, f"{self.kind}_batch")
        self.pass_steps = getattr(sizes, f"{self.kind}_pass_steps")
        self.losses: list[float] = []

    def setup(self, rec):
        corpus = pl.build_corpus(rec, self.seed, self.sizes)
        corrector = pl.Corrector(rec, self.kind, corpus, self.seed, self.sizes.inducing)
        return {"corpus": corpus, "corrector": corrector, "passes": 0}

    def same_setup(self, a, b) -> bool:
        ca, cb = a["corpus"], b["corpus"]
        return (_arrays_equal((ca.x_train, ca.y_train, ca.x_eval, ca.y_eval),
                              (cb.x_train, cb.y_train, cb.x_eval, cb.y_eval))
                and _arrays_equal(a["corrector"].state(), b["corrector"].state()))

    def _step(self, rec, state) -> None:
        self.fails.attempted += 1
        loss, applied = state["corrector"].step(rec, state["corpus"], self.batch)
        self.fails.failed += not applied
        self.losses.append(loss)

    def warmup(self, rec, state) -> None:
        self._step(rec, state)

    def run_pass(self, rec, state) -> None:
        smp = self.samples
        for _ in range(self.pass_steps):
            t0 = time.perf_counter()
            self._step(rec, state)
            ms = 1000.0 * (time.perf_counter() - t0)
            smp.step_ms.append(ms)
            smp.window_ms.append(ms / self.batch)
            smp.windows += self.batch
            smp.sim_s += self.batch * WINDOW * DT
        state["passes"] += 1

    def after_pass(self, rec, state) -> None:
        if state["passes"] == 1:
            self.accuracy["val_nelbo"] = state["corrector"].val_nelbo(rec, state["corpus"])

    def finish(self, rec, state, spare) -> None:
        # replay the warm-up and the first pass on an untouched set-up
        for _ in range(1 + self.pass_steps):
            spare["corrector"].step(rec, spare["corpus"], self.batch)
        replay = spare["corrector"].val_nelbo(rec, spare["corpus"])
        self.fails.check(replay == self.accuracy["val_nelbo"],
                         f"{self.name}: the same seed gave a different validation NELBO")
        self.fails.finite(self.losses, "training loss")
        self.fails.finite(self.accuracy["val_nelbo"], "validation NELBO")
        self.accuracy["dm_rb_rmse_m"] = state["corpus"].dm_rb_rmse_m


class TrainCnn(Train):
    name = "train_cnn"
    kind = "cnn"


class TrainLstm(Train):
    name = "train_lstm"
    kind = "lstm"


# -- corrected_rollout --------------------------------------------------------

class CorrectedRollout(Workload):
    """Set-up trains a `cnn` corrector for a fixed number of steps. A pass
    corrects each golden maneuver window by window, then writes the
    corrected trajectory as CSV and reads it back."""

    name = "corrected_rollout"

    def setup(self, rec):
        corpus = pl.build_corpus(rec, self.seed, self.sizes, keep_golden=True)
        corrector = pl.Corrector(rec, "cnn", corpus, self.seed, self.sizes.inducing)
        losses = []
        for _ in range(self.sizes.corrector_steps):
            self.fails.attempted += 1
            t0 = time.perf_counter()
            loss, applied = corrector.step(rec, corpus, self.sizes.cnn_batch)
            self.samples.step_ms.append(1000.0 * (time.perf_counter() - t0))
            self.fails.failed += not applied
            losses.append(loss)
        self.fails.finite(losses, "corrector training loss")
        return {"corpus": corpus, "corrector": corrector, "golden": corpus.golden,
                "rb": dynamics.RuleBasedModel(), "results": None}

    def same_setup(self, a, b) -> bool:
        return _arrays_equal(a["corrector"].state(), b["corrector"].state())

    def warmup(self, rec, state) -> None:
        log = state["golden"][0]
        first = pl.Log.of(log.name, log.records[:WINDOW + 1])
        pl.corrected_rollout(rec, state["rb"], state["corrector"], state["corrector"].gp,
                             state["corpus"], first)

    def run_pass(self, rec, state) -> None:
        smp, fails = self.samples, self.fails
        corrector = state["corrector"]
        results = []
        for log in state["golden"]:
            n_windows = log.ticks // WINDOW
            fails.attempted += n_windows
            window_ms: list[float] = []
            try:
                rows, sigmas = pl.corrected_rollout(rec, state["rb"], corrector, corrector.gp,
                                                    state["corpus"], log, window_ms)
            except ValidationError:
                # the rest of this maneuver cannot run; count all its windows
                fails.failed += n_windows
                results.append(None)
                continue
            # one sample per maneuver, as train_* take one per batch: the tail
            # of single 4-ms windows mostly measures scheduling hiccups
            smp.window_ms.append(float(np.mean(window_ms)))
            smp.windows += n_windows
            smp.sim_s += log.ticks * DT
            traj = pl.table_trajectory(rows)
            path = self.out_dir / f"{log.name}.csv"
            with rec.span("core.write_trajectory_csv"):
                core.write_trajectory_csv(path, traj, sigmas)
            rec.count("core.write_trajectory_csv.bytes", path.stat().st_size)
            with rec.span("core.read_trajectory_csv"):
                back, back_sigmas = core.read_trajectory_csv(path)
            fails.check(_arrays_equal((back.timestamps, back.poses, back.speeds, back_sigmas),
                                      (traj.timestamps, traj.poses, traj.speeds, sigmas)),
                        f"{log.name}: trajectory CSV read back differs from the one written")
            results.append((rows, sigmas))
        if state["results"] is None:
            state["results"] = results
        else:
            fails.check(all(_same_result(a, b) for a, b in zip(state["results"], results)),
                        "corrected_rollout: a pass with the same seed gave different results")

    def finish(self, rec, state, spare) -> None:
        fails, corrector = self.fails, state["corrector"]
        zero = pl.zero_mean_gp(corrector.gp)
        corrected, openloop = [], []
        for log, result in zip(state["golden"], state["results"]):
            plain = dynamics.rollout(state["rb"], log.records[0].pose, log.records[0].state,
                                     log.commands, DT)
            rows, _ = pl.corrected_rollout(rec, state["rb"], corrector, zero,
                                           state["corpus"], log)
            traj = pl.table_trajectory(rows)
            fails.check(_arrays_equal((traj.poses, traj.speeds), (plain.poses, plain.speeds)),
                        f"{log.name}: zero-mean corrected rollout differs from the open-loop one")
            openloop.append(pl.position_rmse(plain.xy, log.xy))
            if result is not None:
                fails.finite(result[0], f"{log.name}: corrected trajectory")
                corrected.append(pl.position_rmse(result[0][:, 3:5], log.xy))
        self.accuracy.update(corrected_rmse_m=float(np.mean(corrected)),
                             openloop_rmse_m=float(np.mean(openloop)),
                             val_nelbo=corrector.val_nelbo(rec, state["corpus"]),
                             dm_rb_rmse_m=state["corpus"].dm_rb_rmse_m)
        fails.finite(list(self.accuracy.values()), "corrected_rollout accuracy")


WORKLOADS = {w.name: w for w in (OpenLoop, TrainCnn, TrainLstm, CorrectedRollout)}
