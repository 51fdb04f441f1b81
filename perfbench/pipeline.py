"""The residual-correction pipeline, composed from `resdyn`'s public calls.

`resdyn` has no windowing, joint training or corrected rollout of its own
yet, so the benchmark builds them here from `rollout_states`, `encode`,
`VariationalGP.loss`/`predict`, `backward`, `Adam` and the trajectory CSV
functions. Every call into a `resdyn` layer is wrapped in a span.

Window convention: a window is N ticks starting at tick i of an oracle log.
The open-loop model starts from the oracle's measured pose and state at i
and is driven by the logged commands (`rollout_states`). The encoder sees
N rows of (throttle, brake, steering, speed, acceleration, heading change
since the window start); the target is the oracle-minus-open-loop position
after N ticks, in the window-start heading frame.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from resdyn import core, dynamics, encoders, scenarios, svgp
from resdyn import autodiff as ad
from resdyn.rng import seeded_rng

DT = core.DEFAULT_DT
WINDOW = 100      # N, ticks per window
FEATURES = 6


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload. `FULL` is what the benchmark measures;
    `TINY` only exercises the code paths."""

    loop_s: float             # loop log duration, s
    golden_s: float           # duration of each golden maneuver, s
    pool_stride: int          # ticks between training-window starts
    openloop_stride: int      # ticks between scored openloop-window starts
    dm_epochs: int            # DM-LB epochs, fixed (no early stop)
    inducing: int             # SVGP inducing points, M
    cnn_batch: int
    lstm_batch: int
    cnn_pass_steps: int       # optimizer steps in one train_cnn pass
    lstm_pass_steps: int
    corrector_steps: int      # corrector training steps in corrected_rollout set-up
    setup_reps: int           # set-ups per run; setup_s is their median
    min_passes: int           # timed passes per run, at least
    openloop_min_passes: int  # ... on openloop, so that its 8 steps a pass give 20 samples


FULL = Sizes(loop_s=24.0, golden_s=20.0, pool_stride=6, openloop_stride=50,
             dm_epochs=100,
             inducing=128, cnn_batch=256, lstm_batch=64, cnn_pass_steps=10,
             lstm_pass_steps=4, corrector_steps=10, setup_reps=3, min_passes=2,
             openloop_min_passes=3)
TINY = Sizes(loop_s=3.0, golden_s=2.0, pool_stride=20, openloop_stride=50,
             dm_epochs=2,
             inducing=4, cnn_batch=8, lstm_batch=2, cnn_pass_steps=1,
             lstm_pass_steps=1, corrector_steps=2, setup_reps=2, min_passes=2,
             openloop_min_passes=2)


class Failures:
    """Attempted and failed operations, plus failed correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok and what not in self.checks:
            self.checks.append(what)

    def finite(self, value, what: str) -> None:
        self.check(bool(np.all(np.isfinite(value))), f"non-finite {what}")


# -- data -------------------------------------------------------------------

@dataclass
class Log:
    """One oracle log, with the per-tick arrays the benchmark needs."""

    name: str
    records: list               # list[core.LogRecord], n+1 entries
    commands: list              # list[core.ControlCommand], n entries
    cmd_array: np.ndarray       # (n, 3) throttle, brake, steering
    xy: np.ndarray              # (n+1, 2) oracle positions

    @classmethod
    def of(cls, name, records) -> "Log":
        cmds = [r.command for r in records[:-1]]
        return cls(name, records, cmds,
                   np.array([(c.throttle, c.brake, c.steering) for c in cmds]),
                   np.array([(r.pose.x, r.pose.y) for r in records]))

    @property
    def ticks(self) -> int:
        return len(self.commands)


def oracle_logs(rec, seed: int, sizes: Sizes) -> dict[str, Log]:
    """The eight golden maneuvers plus the `loop` log, from the oracle."""
    with rec.span("scenarios.oracle_log"):
        raw = scenarios.generate_golden_set(seed, dt=DT, loop_duration=sizes.loop_s,
                                            scenario_duration=sizes.golden_s)
    logs = {name: Log.of(name, records) for name, records in raw.items()}
    rec.count("scenarios.oracle_log.calls", len(logs))
    rec.count("scenarios.oracle_log.ticks", sum(log.ticks for log in logs.values()))
    return logs


def window_starts(log: Log, stride: int) -> range:
    return range(0, log.ticks - WINDOW + 1, stride)


def rotate(vec, heading: float, inverse: bool = False) -> np.ndarray:
    """World <-> window-start heading frame, for (2,) vectors."""
    c, s = math.cos(heading), math.sin(heading)
    if inverse:
        s = -s
    return np.array([c * vec[0] - s * vec[1], s * vec[0] + c * vec[1]])


def features(cmd_array: np.ndarray, table: np.ndarray, heading0: float) -> np.ndarray:
    """(N, 6) encoder input for one window from its commands and the
    open-loop state table of `rollout_states`."""
    out = np.empty((WINDOW, FEATURES))
    out[:, :3] = cmd_array
    out[:, 3:5] = table[:WINDOW, :2]
    out[:, 5] = core.wrap_angle_array(table[:WINDOW, 2] - heading0)
    return out


def windows(rec, model, log: Log, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw features (W, N, 6) and residual targets (W, 2) of the windows
    starting every `stride` ticks."""
    starts = window_starts(log, stride)
    x = np.empty((len(starts), WINDOW, FEATURES))
    y = np.empty((len(starts), 2))
    for k, i in enumerate(starts):
        r0 = log.records[i]
        with rec.span("dynamics.rollout_states"):
            table = dynamics.rollout_states(model, r0.pose, r0.state,
                                            log.commands[i:i + WINDOW], DT)
        rec.count("dynamics.rollout_states.ticks", WINDOW)
        x[k] = features(log.cmd_array[i:i + WINDOW], table, r0.pose.heading)
        y[k] = rotate(log.xy[i + WINDOW] - table[WINDOW, 3:5], r0.pose.heading,
                      inverse=True)
    return x, y


@dataclass
class Corpus:
    """Normalized training windows from the loop and evaluation windows
    from the golden maneuvers (non-overlapping, stride N)."""

    golden: list[Log]           # kept only when asked for
    x_train: np.ndarray
    y_train: np.ndarray
    x_eval: np.ndarray
    y_eval: np.ndarray
    feat_mean: np.ndarray
    feat_std: np.ndarray

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.feat_mean) / self.feat_std

    @property
    def dm_rb_rmse_m(self) -> float:
        """RMS of DM-RB's open-loop position error after N ticks, over the
        evaluation windows."""
        return float(np.sqrt(np.mean(np.sum(self.y_eval ** 2, axis=1))))


def build_corpus(rec, seed: int, sizes: Sizes, keep_golden: bool = False) -> Corpus:
    logs = oracle_logs(rec, seed, sizes)
    model = dynamics.RuleBasedModel()
    x_train, y_train = windows(rec, model, logs["loop"], sizes.pool_stride)
    golden = [logs[name] for name in scenarios.GOLDEN_NAMES]
    evals = [windows(rec, model, log, WINDOW) for log in golden]
    x_eval = np.concatenate([e[0] for e in evals])
    y_eval = np.concatenate([e[1] for e in evals])
    flat = x_train.reshape(-1, FEATURES)
    mean = flat.mean(axis=0)
    std = np.maximum(flat.std(axis=0), 1e-8)
    return Corpus(golden if keep_golden else [], (x_train - mean) / std, y_train,
                  (x_eval - mean) / std, y_eval, mean, std)


# -- corrector: encoder + SVGP, trained jointly ------------------------------

class Corrector:
    """A sequence encoder feeding an SVGP on its raw latents
    (`pre_normalized`), both trained by one Adam."""

    def __init__(self, rec, kind: str, corpus: Corpus, seed: int, inducing: int,
                 lr: float = 0.01):
        self.spec = encoders.make_spec(kind, window=WINDOW, features=FEATURES)
        init_rng = seeded_rng(seed, "corrector-init", kind)
        self.params = encoders.init_encoder(self.spec, init_rng)
        self.gp = svgp.VariationalGP(self.spec.latent_dim, inducing)
        n_seed = min(len(corpus.x_train), max(2 * inducing, 256))
        sub = init_rng.choice(len(corpus.x_train), n_seed, replace=False)
        self.gp.init_from_latents(self.latents(rec, corpus.x_train[sub]),
                                  corpus.y_train[sub], init_rng)
        self.opt = ad.Adam(encoders.trainable(self.params) + self.gp.parameters(), lr=lr)
        self.batch_rng = seeded_rng(seed, "corrector-batches", kind)
        self.total_n = len(corpus.x_train)

    def encode(self, rec, x: np.ndarray) -> ad.Tensor:
        with rec.span("encoders.encode"):
            z = encoders.encode(self.params, self.spec, x)
        rec.count("encoders.encode.windows", len(x))
        return z

    def latents(self, rec, x: np.ndarray, chunk: int = 32) -> np.ndarray:
        """Encoder outputs without keeping a graph alive across chunks."""
        return np.concatenate([self.encode(rec, x[i:i + chunk]).data
                               for i in range(0, len(x), chunk)])

    def step(self, rec, corpus: Corpus, batch: int) -> tuple[float, bool]:
        """One joint optimizer step on a random minibatch; returns the loss
        and whether Adam applied the step."""
        idx = self.batch_rng.choice(len(corpus.x_train), batch, replace=False)
        with rec.span("autodiff.Adam.zero_grad"):
            self.opt.zero_grad()
        z = self.encode(rec, corpus.x_train[idx])
        with rec.span("svgp.loss"):
            loss = self.gp.loss(z, corpus.y_train[idx], self.total_n, pre_normalized=True)
        with rec.span("autodiff.backward"):
            ad.backward(loss)
        with rec.span("autodiff.Adam.step"):
            applied = self.opt.step()
        if not applied:
            rec.count("autodiff.Adam.skipped_steps")
        return float(loss.data), applied

    def val_nelbo(self, rec, corpus: Corpus) -> float:
        """Negative ELBO per evaluation window, nats."""
        z = ad.Tensor(self.latents(rec, corpus.x_eval))
        with rec.span("svgp.loss"):
            loss = self.gp.loss(z, corpus.y_eval, len(corpus.x_eval), pre_normalized=True)
        return float(loss.data) / len(corpus.x_eval)

    def state(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.opt.params]


def zero_mean_gp(gp: svgp.VariationalGP) -> svgp.VariationalGP:
    """A copy of `gp` whose predictive mean is exactly zero."""
    arrays = {k: np.array(v) for k, v in gp.to_arrays().items()}
    for t in range(gp.num_tasks):
        arrays[f"m{t}"] = np.zeros_like(arrays[f"m{t}"])
        arrays[f"c{t}"] = np.zeros_like(arrays[f"c{t}"])
    return svgp.VariationalGP.from_arrays(arrays)


def corrected_rollout(rec, model, corrector: Corrector, gp: svgp.VariationalGP,
                      corpus: Corpus, log: Log, window_times: list | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Open-loop rollout of `log`'s commands from its first measured state,
    with the GP's predicted residual added at the end of every N-tick window.

    Returns the state table (n+1, 5) as `rollout_states` lays it out, and
    per-tick sigmas (n+1, 2) of the accumulated correction, NaN before the
    first correction. The sigma is carried as independent per-window
    variances rotated into the world frame. Appends each window's latency,
    ms, to `window_times` if given.
    """
    n = log.ticks
    rows = np.empty((n + 1, 5))
    sigmas = np.full((n + 1, 2), np.nan)
    var = np.zeros(2)
    first = log.records[0]
    pose, state = first.pose, first.state
    for i in range(0, n, WINDOW):
        t0 = time.perf_counter()
        ticks = min(WINDOW, n - i)
        with rec.span("dynamics.rollout_states"):
            table = dynamics.rollout_states(model, pose, state, log.commands[i:i + ticks], DT)
        rec.count("dynamics.rollout_states.ticks", ticks)
        rows[i:i + ticks] = table[:ticks]
        x_end, y_end = table[ticks, 3], table[ticks, 4]
        if ticks == WINDOW:
            x = corpus.normalize(features(log.cmd_array[i:i + WINDOW], table, pose.heading))
            z = corrector.encode(rec, x[None])
            with rec.span("svgp.predict"):
                mean, std = gp.predict(z, pre_normalized=True)
            d = rotate(mean[0], pose.heading)
            c2, s2 = math.cos(pose.heading) ** 2, math.sin(pose.heading) ** 2
            var += (c2 * std[0, 0] ** 2 + s2 * std[0, 1] ** 2,
                    s2 * std[0, 0] ** 2 + c2 * std[0, 1] ** 2)
            x_end, y_end = x_end + d[0], y_end + d[1]
            sigmas[i + WINDOW:i + 2 * WINDOW] = np.sqrt(var)
        pose = core.Pose(x_end, y_end, table[ticks, 2])
        state = core.VehicleState(table[ticks, 0], table[ticks, 1], table[ticks, 2])
        if window_times is not None:
            window_times.append(1000.0 * (time.perf_counter() - t0))
    rows[n] = (state.speed, state.acceleration, pose.heading, pose.x, pose.y)
    return rows, sigmas


def table_trajectory(rows: np.ndarray) -> core.Trajectory:
    """The state table of a rollout as a `Trajectory` (x, y, heading, speed)."""
    return core.Trajectory(np.arange(len(rows)) * DT, rows[:, [3, 4, 2]], rows[:, 0])


def position_rmse(xy: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.sum((xy - truth) ** 2, axis=1))))
