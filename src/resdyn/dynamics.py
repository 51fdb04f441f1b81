"""Open-loop dynamic models: per-tick (command, state) -> (accel, heading rate).

Two flavors: a rule-based kinematic bicycle with an affine actuator map
(deadzone + quadratic drag), and a small learned MLP. A model's `tick`
takes (throttle, brake, steering, speed, acceleration) as floats and
returns (accel, heading rate). `rollout_states` is the one rollout loop:
it integrates the ticks into a state table on plain floats, and
`rollout` derives its Trajectory from that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Tensor, backward, load_checkpoint, parameter, save_checkpoint
from .core import (DEFAULT_DT, ControlCommand, LogRecord, Pose, Trajectory,
                   ValidationError, VehicleState, integrate_step, wrap_angle)
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
        accel = (_THROTTLE_GAIN * max(0.0, throttle - _THROTTLE_DEADZONE)
                 - _BRAKE_GAIN * max(0.0, brake - _BRAKE_DEADZONE)
                 - _DRAG_COEFF * speed * speed)
        heading_rate = speed * math.tan(steering * _MAX_FRONT_WHEEL_ANGLE) / _WHEELBASE
        return accel, heading_rate


class MlpDynamicModel:
    """5 -> 8 (ReLU) -> 2 network over z-scored per-tick features.

    Inputs (throttle, brake, steering, speed, acceleration); outputs
    (acceleration, heading rate), de-normalized.
    """

    HIDDEN = 8

    def __init__(self, weights: dict[str, np.ndarray],
                 in_mean: np.ndarray, in_std: np.ndarray,
                 out_mean: np.ndarray, out_std: np.ndarray):
        for key, shape in (("w1", (5, self.HIDDEN)), ("b1", (self.HIDDEN,)),
                           ("w2", (self.HIDDEN, 2)), ("b2", (2,))):
            if tuple(np.shape(weights[key])) != shape:
                raise ValidationError(f"{key} has shape {np.shape(weights[key])}, want {shape}")
        if np.any(np.asarray(in_std) <= 0) or np.any(np.asarray(out_std) <= 0):
            raise ValidationError("normalization stds must be positive")
        self.weights = {k: np.asarray(v, dtype=float) for k, v in weights.items()}
        self.in_mean = np.asarray(in_mean, dtype=float)
        self.in_std = np.asarray(in_std, dtype=float)
        self.out_mean = np.asarray(out_mean, dtype=float)
        self.out_std = np.asarray(out_std, dtype=float)

    def tick(self, throttle: float, brake: float, steering: float,
             speed: float, acceleration: float) -> tuple[float, float]:
        accel, rate = self.tick_batch(np.array([throttle, brake, steering,
                                                speed, acceleration]))
        return float(accel), float(rate)

    def tick_batch(self, features: np.ndarray) -> np.ndarray:
        """Rows of (throttle, brake, steering, speed, acceleration), or one
        such 1-D row, to (accel, heading rate)."""
        xn = (features - self.in_mean) / self.in_std
        h = np.maximum(xn @ self.weights["w1"] + self.weights["b1"], 0.0)
        return (h @ self.weights["w2"] + self.weights["b2"]) * self.out_std + self.out_mean

    def save(self, path) -> None:
        arrays = dict(self.weights)
        arrays.update(in_mean=self.in_mean, in_std=self.in_std,
                      out_mean=self.out_mean, out_std=self.out_std)
        save_checkpoint(path, arrays)

    @classmethod
    def load(cls, path) -> "MlpDynamicModel":
        a = load_checkpoint(path)
        weights = {k: a[k] for k in ("w1", "b1", "w2", "b2")}
        return cls(weights, a["in_mean"], a["in_std"], a["out_mean"], a["out_std"])


def tick_training_pairs(records: list[LogRecord], dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) per tick; labels are the effective accel and heading
    rate realized over the next tick, finite-differenced from the log."""
    n = len(records) - 1
    x = np.empty((n, 5))
    y = np.empty((n, 2))
    for i in range(n):
        r, nxt = records[i], records[i + 1]
        x[i] = (r.command.throttle, r.command.brake, r.command.steering,
                r.state.speed, r.state.acceleration)
        dh = wrap_angle(nxt.state.heading - r.state.heading)
        y[i] = ((nxt.state.speed - r.state.speed) / dt, dh / dt)
    return x, y


@dataclass
class DmTrainReport:
    epochs_run: int
    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    best_epoch: int = 0
    best_val_mse: float = math.inf


def train_dm_lb(features: np.ndarray, labels: np.ndarray, seed: int = 0,
                epochs: int = 200, patience: int = 10
                ) -> tuple[MlpDynamicModel, DmTrainReport]:
    """MSE-trained with Adam; early stop when validation plateaus."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
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
    return MlpDynamicModel(best, in_mean, in_std, out_mean, out_std), report


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
    measured state at row 0). A non-finite model output raises
    ValidationError from `integrate_step`.
    """
    x, y, heading = start_pose.x, start_pose.y, start_pose.heading
    speed, accel = start_state.speed, start_state.acceleration
    VehicleState(speed, accel, heading)  # Pose leaves the heading range unchecked
    n = len(commands)
    table = np.empty((n + 1, 5))
    for i, cmd in enumerate(commands):
        table[i] = (speed, accel, heading, x, y)
        accel, rate = model.tick(cmd.throttle, cmd.brake, cmd.steering, speed, accel)
        x, y, heading, speed = integrate_step(x, y, heading, speed, accel, rate, dt)
    table[n] = (speed, accel, heading, x, y)
    return table
