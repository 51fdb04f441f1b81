"""Open-loop dynamic models: per-tick (command, state) -> (accel, heading rate).

Two flavors: a rule-based kinematic bicycle with an affine actuator map
(deadzone + quadratic drag), and a small learned MLP. A model's `tick`
takes (throttle, brake, steering, speed, acceleration) as floats and
returns (accel, heading rate). `rollout_states` is the one rollout kernel:
it steps the speed and heading tick by tick on plain floats, integrates
the position in one vectorized pass after the loop, and `rollout` derives
its Trajectory from that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Tensor, backward, load_checkpoint, parameter, save_checkpoint
from .core import (DEFAULT_DT, ControlCommand, LogRecord, Pose, Trajectory,
                   ValidationError, VehicleState, _checked_array, check_dt, check_finite,
                   check_positive_int, wrap_angle_array)
from .rng import seeded_rng

# DM-RB calibration. Module constants, not class attributes: CPython 3.11
# reads a class attribute through `self` unspecialized, 5% slower per tick.
_WHEELBASE = 2.85              # m
_MAX_FRONT_WHEEL_ANGLE = 0.47  # rad at |steering| = 1
_THROTTLE_GAIN = 4.0           # (m/s^2) per command unit
_BRAKE_GAIN = 8.0
_THROTTLE_DEADZONE = 0.02
_BRAKE_DEADZONE = 0.02
_DRAG_COEFF = 0.002            # 1/m, quadratic speed drag (calibrated to
                               # absorb rolling resistance near cruise speeds)
# DM-LB training: Adam step size, minibatch size, share held out for early stopping
_LR, _BATCH_SIZE, _VAL_FRACTION = 3e-3, 256, 0.2


class RuleBasedModel:
    """Kinematic bicycle with deadzoned affine actuators and quadratic drag."""

    def tick(self, throttle: float, brake: float, steering: float,
             speed: float, acceleration: float) -> tuple[float, float]:
        """(accel, heading rate) for speed >= 0; acceleration is unused."""
        # a comparison stands for max(0.0, d), the same for every d (-0.0
        # and NaN too) and cheaper than the builtin call
        d_thr, d_brk = throttle - _THROTTLE_DEADZONE, brake - _BRAKE_DEADZONE
        accel = (_THROTTLE_GAIN * (d_thr if d_thr > 0.0 else 0.0)
                 - _BRAKE_GAIN * (d_brk if d_brk > 0.0 else 0.0)
                 - _DRAG_COEFF * speed * speed)
        heading_rate = speed * math.tan(steering * _MAX_FRONT_WHEEL_ANGLE) / _WHEELBASE
        return accel, heading_rate


class MlpDynamicModel:
    """5 -> 8 (ReLU) -> 2 network over z-scored per-tick features.

    Inputs (throttle, brake, steering, speed, acceleration); outputs
    (acceleration, heading rate), de-normalized. A model is the 8 arrays of
    `_SHAPES`, by their checkpoint names: the layers w1, b1, w2 and b2, and
    the z-scoring in_mean, in_std of the inputs and out_mean, out_std of
    the outputs.
    """

    HIDDEN = 8
    # every array of a model, as its checkpoint names it, and its shape
    _SHAPES = {"w1": (5, HIDDEN), "b1": (HIDDEN,), "w2": (HIDDEN, 2), "b2": (2,),
               "in_mean": (5,), "in_std": (5,), "out_mean": (2,), "out_std": (2,)}

    def __init__(self, arrays: dict[str, np.ndarray]):
        """`core._checked_array` checks each array, and a std <= 0 raises a
        ValidationError naming it. The model keeps copies, so a later write
        to `arrays` cannot undo the checks."""
        self.arrays = {k: _checked_array(arrays, k, shape) for k, shape in self._SHAPES.items()}
        for key in ("in_std", "out_std"):
            if np.any(self.arrays[key] <= 0):
                raise ValidationError(f"array {key!r}: normalization stds must be positive")
        self.weights = {k: self.arrays[k] for k in ("w1", "b1", "w2", "b2")}

    def tick(self, throttle: float, brake: float, steering: float,
             speed: float, acceleration: float) -> tuple[float, float]:
        accel, rate = self.tick_batch(np.array([throttle, brake, steering,
                                                speed, acceleration]))
        return float(accel), float(rate)

    def tick_batch(self, features: np.ndarray) -> np.ndarray:
        """Rows of (throttle, brake, steering, speed, acceleration), or one
        such 1-D row, to (accel, heading rate)."""
        a = self.arrays
        xn = (features - a["in_mean"]) / a["in_std"]
        h = np.maximum(xn @ a["w1"] + a["b1"], 0.0)
        return (h @ a["w2"] + a["b2"]) * a["out_std"] + a["out_mean"]

    def save(self, path) -> None:
        save_checkpoint(path, self.arrays)

    @classmethod
    def load(cls, path) -> "MlpDynamicModel":
        """Model saved by `save`; a refusal names the path."""
        arrays = load_checkpoint(path)
        try:
            return cls(arrays)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc


def tick_training_pairs(records: list[LogRecord], dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) per tick; labels are the effective accel and heading
    rate realized over the next tick, finite-differenced from the log. A dt
    that is not finite and positive, fewer than 2 records, or a record not
    dt after the one before it (within 1e-9 s) raises a ValidationError.

    The records' fields are read into one table in one pass; the step
    check, features and labels are then slices of it."""
    check_dt(dt)
    if len(records) < 2:
        raise ValidationError(f"tick training pairs need at least 2 records, got {len(records)}")
    # columns throttle, brake, steering, speed, acceleration, heading, t
    table = np.array([(r.command.throttle, r.command.brake, r.command.steering, r.state.speed,
                       r.state.acceleration, r.state.heading, r.timestamp) for r in records],
                     dtype=float)
    # an overflow gives inf without a warning, as it does in float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(table[:, 6])
        late = np.flatnonzero(~(np.abs(steps - dt) <= 1e-9))
        if len(late):
            i = int(late[0])
            raise ValidationError(f"record {i + 1} is {float(steps[i])!r} s after "
                                  f"record {i}, not dt = {dt!r} s (within 1e-9 s)")
        changes = np.diff(table[:, 3:6:2], axis=0)   # of speed and heading over a tick
        changes[:, 1] = wrap_angle_array(changes[:, 1])
        return table[:-1, :5].copy(), changes / dt


@dataclass
class DmTrainReport:
    epochs_run: int
    train_mse: list[float] = field(default_factory=list, init=False)
    val_mse: list[float] = field(default_factory=list, init=False)
    best_epoch: int = field(default=0, init=False)
    best_val_mse: float = field(default=math.inf, init=False)


def train_dm_lb(features: np.ndarray, labels: np.ndarray, seed: int = 0,
                epochs: int = 200, patience: int = 10
                ) -> tuple[MlpDynamicModel, DmTrainReport]:
    """MSE-trained with Adam; early stop when validation plateaus. Features
    must be (n, 5) and labels (n, 2), both finite, and epochs and patience
    positive ints; anything else raises a ValidationError."""
    check_positive_int(epochs, "epochs")
    check_positive_int(patience, "patience")
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if features.ndim != 2 or features.shape[1] != 5 or labels.shape != (len(features), 2):
        raise ValidationError(f"features must be (n, 5) and labels (n, 2), "
                              f"got {features.shape} and {labels.shape}")
    check_finite(features, "features")
    check_finite(labels, "labels")
    if len(features) == 0:
        raise ValidationError("empty dynamic-model training set")
    rng = seeded_rng(seed, "dm-lb")
    perm = rng.permutation(len(features))
    n_val = max(1, int(round(_VAL_FRACTION * len(features))))
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    if len(tr_idx) == 0:
        tr_idx = val_idx
    in_mean = features[tr_idx].mean(axis=0)
    in_std = np.maximum(features[tr_idx].std(axis=0), 1e-8)
    out_mean = labels[tr_idx].mean(axis=0)
    out_std = np.maximum(labels[tr_idx].std(axis=0), 1e-8)
    xn = (features - in_mean) / in_std
    yn = (labels - out_mean) / out_std

    h = MlpDynamicModel.HIDDEN
    w1 = parameter(rng.normal(0, math.sqrt(2.0 / 5), (5, h)), "w1")
    b1 = parameter(np.zeros(h), "b1")
    w2 = parameter(rng.normal(0, math.sqrt(1.0 / h), (h, 2)), "w2")
    b2 = parameter(np.zeros(2), "b2")
    params = [w1, b1, w2, b2]
    opt = Adam(params, lr=_LR)

    def forward(xb: np.ndarray) -> Tensor:
        hidden = ad.relu(ad.affine(Tensor(xb), w1, b1))
        return ad.affine(hidden, w2, b2)

    def mse_on(idx: np.ndarray) -> float:
        pred = forward(xn[idx]).data
        return float(np.mean((pred - yn[idx]) ** 2))

    report = DmTrainReport(epochs_run=0)
    best = {p.name: p.data.copy() for p in params}
    stall = 0
    for epoch in range(epochs):
        order = rng.permutation(len(tr_idx))
        losses = []
        for lo in range(0, len(order), _BATCH_SIZE):
            batch = tr_idx[order[lo:lo + _BATCH_SIZE]]
            opt.zero_grad()
            pred = forward(xn[batch])
            err = ad.sub(pred, Tensor(yn[batch]))
            loss = ad.tmean(ad.mul(err, err))
            backward(loss)
            opt.step()
            losses.append(float(loss.data))
        val = mse_on(val_idx)
        report.train_mse.append(float(np.mean(losses)))
        report.val_mse.append(val)
        report.epochs_run = epoch + 1
        if val < report.best_val_mse - 1e-12:
            report.best_val_mse = val
            report.best_epoch = epoch
            best = {p.name: p.data.copy() for p in params}
            stall = 0
        else:
            stall += 1
            if stall >= patience:
                break
    return MlpDynamicModel(dict(best, in_mean=in_mean, in_std=in_std, out_mean=out_mean,
                                out_std=out_std)), report


def rollout(model, start_pose: Pose, start_state: VehicleState,
            commands: list[ControlCommand], dt: float = DEFAULT_DT) -> Trajectory:
    """Open-loop rollout: state fed back from the model's own integration.

    Returns |commands|+1 poses; only the initial measured state enters.
    """
    table = rollout_states(model, start_pose, start_state, commands, dt)
    return Trajectory(np.arange(len(table)) * dt, table[:, [3, 4, 2]], table[:, 0])


def rollout_states(model, start_pose: Pose, start_state: VehicleState,
                   commands: list[ControlCommand], dt: float = DEFAULT_DT
                   ) -> np.ndarray:
    """Rollout returning the per-tick state table the model itself saw:
    rows (speed_i, accel_i, heading_i, x_i, y_i), length |commands|+1.

    Row i holds the state consumed by tick i (accel = output of tick i-1,
    measured state at row 0). Forward Euler, speed and heading sampled at
    interval start: the loop steps them on floats, clamping the speed at 0
    and wrapping the heading to (-pi, pi]; x and y then follow in one
    vectorized pass, x_{i+1} = x_i + speed_i * cos(heading_i) * dt in that
    order of operations. A dt that is not finite and positive (also with no
    commands), a non-finite model output or table entry raises a
    ValidationError.
    """
    check_dt(dt)
    speed, accel, heading = start_state.speed, start_state.acceleration, start_pose.heading
    VehicleState(speed, accel, heading)  # Pose leaves the heading range unchecked
    tick, isfinite, pi = model.tick, math.isfinite, math.pi
    rows = [speed, accel, heading]
    for i, cmd in enumerate(commands):
        accel, rate = tick(cmd.throttle, cmd.brake, cmd.steering, speed, accel)
        # checked here: the clamp below would turn a NaN accel into speed 0
        if not (isfinite(accel) and isfinite(rate)):
            raise ValidationError(f"non-finite model output at tick {i}: "
                                  f"accel {accel!r}, heading rate {rate!r}")
        heading += rate * dt
        if not -pi < heading <= pi:   # the wrap returns in-range values as they are
            heading = float(wrap_angle_array(heading))
        speed += accel * dt
        if not speed > 0.0:           # max(0.0, speed): -0.0 becomes 0.0 too
            speed = 0.0
        rows += (speed, accel, heading)
    table = np.empty((len(rows) // 3, 5))
    table[:, :3] = np.fromiter(rows, float, len(rows)).reshape(-1, 3)
    speeds, headings = table[:-1, 0], table[:-1, 2]
    table[0, 3:] = start_pose.x, start_pose.y
    table[1:, 3] = speeds * np.cos(headings) * dt
    table[1:, 4] = speeds * np.sin(headings) * dt
    np.cumsum(table[:, 3:], axis=0, out=table[:, 3:])
    check_finite(table, "rollout state (row, column)")
    return table
