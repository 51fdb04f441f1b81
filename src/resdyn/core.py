"""Shared domain types, pose integration and CSV I/O.

The dataclasses check their fields once, where data comes in (logs,
CSV rows, rollout start states). `integrate_step` works on plain floats
so per-tick loops build no objects. Everything here is immutable after
construction; operations are pure functions, safe to call from parallel
workers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_DT = 0.01  # 100 Hz control tick

LOG_CSV_FIELDS = ("t", "throttle", "brake", "steering", "speed",
                  "acceleration", "heading", "x", "y")


class ValidationError(ValueError):
    """Input rejected by a precondition or invariant check."""


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    if not math.isfinite(theta):
        raise ValidationError(f"non-finite angle: {theta!r}")
    if -math.pi < theta <= math.pi:
        return theta
    # the modulo rounds up to 2*pi just above pi, e.g. at nextafter(pi, 4)
    w = math.pi - (math.pi - theta) % (2.0 * math.pi)
    return math.pi if w == -math.pi else w


def wrap_angle_array(theta: np.ndarray) -> np.ndarray:
    """Vectorized `wrap_angle`: in-range angles come back unchanged."""
    theta = np.asarray(theta, dtype=float)
    w = np.pi - np.mod(np.pi - theta, 2.0 * np.pi)
    w = np.where(w == -np.pi, np.pi, w)
    return np.where((-np.pi < theta) & (theta <= np.pi), theta, w)


@dataclass(frozen=True)
class ControlCommand:
    throttle: float
    brake: float
    steering: float

    def __post_init__(self):
        if not (math.isfinite(self.throttle) and math.isfinite(self.brake)
                and math.isfinite(self.steering)):
            raise ValidationError("non-finite command field")
        if not 0.0 <= self.throttle <= 1.0:
            raise ValidationError(f"throttle {self.throttle} outside [0, 1]")
        if not 0.0 <= self.brake <= 1.0:
            raise ValidationError(f"brake {self.brake} outside [0, 1]")
        if not -1.0 <= self.steering <= 1.0:
            raise ValidationError(f"steering {self.steering} outside [-1, 1]")


@dataclass(frozen=True)
class VehicleState:
    speed: float          # m/s, >= 0
    acceleration: float   # m/s^2
    heading: float        # rad, wrapped to (-pi, pi]

    def __post_init__(self):
        if not (math.isfinite(self.speed) and math.isfinite(self.acceleration)
                and math.isfinite(self.heading)):
            raise ValidationError("non-finite state field")
        if self.speed < 0.0:
            raise ValidationError(f"negative speed {self.speed}")
        if not -math.pi < self.heading <= math.pi:
            raise ValidationError(f"heading {self.heading} outside (-pi, pi]")


@dataclass(frozen=True)
class Pose:
    x: float
    y: float
    heading: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)
                and math.isfinite(self.heading)):
            raise ValidationError("non-finite pose field")


@dataclass(frozen=True)
class LogRecord:
    timestamp: float
    command: ControlCommand
    state: VehicleState
    pose: Pose


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step timestamped 2-D pose and speed sequence, the unit of all
    grading."""

    timestamps: np.ndarray          # (n,) seconds, strictly increasing
    poses: np.ndarray               # (n, 3) columns x, y, heading
    speeds: np.ndarray              # (n,) m/s

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        ps = np.asarray(self.poses, dtype=float)
        vs = np.asarray(self.speeds, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "poses", ps)
        object.__setattr__(self, "speeds", vs)
        if ts.ndim != 1 or ps.ndim != 2 or ps.shape[1] != 3:
            raise ValidationError(f"bad trajectory shapes {ts.shape}, {ps.shape}")
        if len(ts) != len(ps) or vs.shape != ts.shape:
            raise ValidationError(
                f"{len(ts)} timestamps vs {len(ps)} poses and speeds of shape {vs.shape}")
        if len(ts) == 0:
            raise ValidationError("empty trajectory")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(ps))
                and np.all(np.isfinite(vs))):
            raise ValidationError("non-finite trajectory entry")
        if len(ts) > 1:
            with np.errstate(over="ignore"):
                steps = np.diff(ts)
            if not np.all(np.isfinite(steps)):
                raise ValidationError("timestamp step overflows to a non-finite value")
            if np.any(steps <= 0):
                raise ValidationError("timestamps not strictly increasing")
            if np.max(steps) - np.min(steps) > 1e-9:
                raise ValidationError("timestamp step not constant within 1e-9 s")

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def xy(self) -> np.ndarray:
        return self.poses[:, :2]


def integrate_step(x: float, y: float, heading: float, speed: float,
                   accel: float, heading_rate: float, dt: float
                   ) -> tuple[float, float, float, float]:
    """One forward-Euler tick: velocity and heading sampled at interval start.

    Speed clamps at zero (no reverse) and the heading is wrapped to
    (-pi, pi]. Returns the new (x, y, heading, speed).
    """
    vals = (x, y, heading, speed, accel, heading_rate, dt)
    if not all(math.isfinite(v) for v in vals):
        raise ValidationError(f"non-finite integrate_step input: {vals}")
    if dt <= 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if speed < 0.0:
        raise ValidationError(f"negative speed {speed}")
    return (x + speed * math.cos(heading) * dt,
            y + speed * math.sin(heading) * dt,
            wrap_angle(heading + heading_rate * dt),
            max(0.0, speed + accel * dt))


def write_log_csv(path, records: list[LogRecord]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(LOG_CSV_FIELDS)
        for r in records:
            w.writerow([repr(float(v)) for v in (
                r.timestamp, r.command.throttle, r.command.brake,
                r.command.steering, r.state.speed, r.state.acceleration,
                r.state.heading, r.pose.x, r.pose.y)])


def parse_log_row(row: list[str]) -> LogRecord:
    """Parse one CSV row; raises ValidationError on any invariant violation."""
    if len(row) != len(LOG_CSV_FIELDS):
        raise ValidationError(f"expected {len(LOG_CSV_FIELDS)} fields, got {len(row)}")
    t, thr, brk, st, v, a, hd, x, y = (float(c) for c in row)
    return LogRecord(t, ControlCommand(thr, brk, st),
                     VehicleState(v, a, hd), Pose(x, y, hd))


TRAJ_CSV_FIELDS = ("t", "x", "y", "heading", "speed", "sigma_x", "sigma_y")


def write_trajectory_csv(path, traj: Trajectory,
                         sigmas: np.ndarray | None = None) -> None:
    """Rows `t,x,y,heading,speed,sigma_x,sigma_y`; sigma cells empty where
    no correction was made (warm-up ticks)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRAJ_CSV_FIELDS)
        for i in range(len(traj)):
            row = [repr(float(traj.timestamps[i])), repr(float(traj.poses[i, 0])),
                   repr(float(traj.poses[i, 1])), repr(float(traj.poses[i, 2])),
                   repr(float(traj.speeds[i]))]
            if sigmas is None or not np.all(np.isfinite(sigmas[i])):
                row += ["", ""]
            else:
                row += [repr(float(sigmas[i, 0])), repr(float(sigmas[i, 1]))]
            w.writerow(row)


def read_trajectory_csv(path) -> tuple[Trajectory, np.ndarray]:
    """Returns (trajectory, sigmas): sigmas are (n, 2), NaN where a cell is
    empty. The header must be `TRAJ_CSV_FIELDS`. A row with another cell
    count, a t, x, y, heading or speed cell that is not a finite number, or
    a sigma cell neither empty nor finite and >= 0 raises a ValidationError
    naming `path:line`. Bytes that are not UTF-8 CSV, and rows that
    `Trajectory` rejects (none, or no fixed step), raise one naming `path`."""
    rows, sigmas = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        # (file line where the row starts, row): a quoted cell may span lines
        numbered, line = [], 1
        try:
            for row in reader:
                numbered.append((line, row))
                line = reader.line_num + 1
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationError(f"{path}: not a UTF-8 CSV file ({exc})") from exc
        if not numbered or tuple(numbered[0][1]) != TRAJ_CSV_FIELDS:
            raise ValidationError(
                f"{path}: expected trajectory header {','.join(TRAJ_CSV_FIELDS)}")
        for ln, row in numbered[1:]:
            if not row:
                continue
            try:
                if len(row) != len(TRAJ_CSV_FIELDS):
                    raise ValueError(f"{len(row)} cells, header has {len(TRAJ_CSV_FIELDS)}")
                rows.append([float(c) for c in row[:5]])
                if not all(math.isfinite(v) for v in rows[-1]):
                    raise ValueError(f"t, x, y, heading and speed {row[:5]} not all finite")
                sigmas.append([float(c) if c != "" else np.nan for c in row[5:]])
                if any(c != "" and not 0.0 <= s < math.inf
                       for c, s in zip(row[5:], sigmas[-1])):
                    raise ValueError(f"sigmas {row[5:]} not empty or finite and >= 0")
            except ValueError as exc:
                raise ValidationError(f"{path}:{ln}: bad trajectory row ({exc})") from exc
    table = np.array(rows).reshape(-1, 5)
    try:
        traj = Trajectory(table[:, 0], table[:, 1:4], table[:, 4])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return traj, np.array(sigmas).reshape(-1, 2)
