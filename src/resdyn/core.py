"""Shared domain types, input checks and CSV I/O.

The dataclasses check their fields once, where data comes in (logs,
CSV rows, rollout start states), so per-tick loops work on plain floats
and build no objects. Everything here is immutable after construction;
operations are pure functions, safe to call from parallel workers.

The trajectory CSV runs at the cost of CPython's float `repr` and `float`
parsing: the writer formats a row's state cells in one f-string and the
sigma cells once per run of equal sigma pairs; the reader reads a file
once, converts whole columns and checks them at once, and walks the rows
it read only to word a refusal, naming the first bad record by file line.
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


def check_positive_int(value, what: str) -> None:
    """Raise a ValidationError naming `what` unless value is an int >= 1; a
    numpy integer counts, a bool does not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValidationError(f"{what} must be a positive int, got {value!r}")


def check_dt(dt: float) -> None:
    """Raise a ValidationError unless the time step dt is finite and > 0."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValidationError(f"dt must be finite and positive, got {dt!r}")


def check_finite(values: np.ndarray, what: str) -> None:
    """Raise a ValidationError naming `what` and the first index of values
    that holds a NaN or an infinity."""
    finite = np.isfinite(values)
    if not finite.all():
        first = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValidationError(f"non-finite {what} at index {first}")


def wrap_angle_array(theta: np.ndarray) -> np.ndarray:
    """Wrap angles to (-pi, pi], elementwise, for any shape (0-d too).
    In-range angles come back unchanged. A non-finite angle raises,
    naming the first index that holds one (no index for a 0-d input)."""
    theta = np.asarray(theta, dtype=float)
    bad = np.argwhere(~np.isfinite(theta))
    if len(bad):
        at = tuple(int(k) for k in bad[0])
        where = f" at index {at[0] if len(at) == 1 else at}" if at else ""
        raise ValidationError(f"non-finite angle{where}: {float(theta[at])!r}")
    # the modulo rounds up to 2*pi just above pi, e.g. at nextafter(pi, 4)
    w = np.pi - np.mod(np.pi - theta, 2.0 * np.pi)
    w = np.where(w == -np.pi, np.pi, w)
    return np.where((-np.pi < theta) & (theta <= np.pi), theta, w)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Pose:
    x: float
    y: float
    heading: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)
                and math.isfinite(self.heading)):
            raise ValidationError("non-finite pose field")


@dataclass(frozen=True, slots=True)
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


def write_log_csv(path, records: list[LogRecord]) -> None:
    """Rows of `LOG_CSV_FIELDS`, one per record, each cell a float's repr.
    A field that is not a finite number (`LogRecord` leaves the timestamp
    unchecked) raises a ValidationError naming the path, the record's index
    and the field before the file is opened: `parse_log_row` would refuse
    it."""
    table = np.array([(r.timestamp, r.command.throttle, r.command.brake,
                       r.command.steering, r.state.speed, r.state.acceleration,
                       r.state.heading, r.pose.x, r.pose.y) for r in records],
                     dtype=float).reshape(-1, len(LOG_CSV_FIELDS))
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        i, j = bad[0]
        raise ValidationError(f"{path}: record {i} field {LOG_CSV_FIELDS[j]!r} is "
                              f"{float(table[i, j])!r}, not a finite number")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(LOG_CSV_FIELDS)
        w.writerows([list(map(repr, row)) for row in table.tolist()])


def parse_log_row(row: list[str]) -> LogRecord:
    """Parse one CSV row; raises ValidationError on any invariant violation,
    naming the field when a cell is not a finite number."""
    if len(row) != len(LOG_CSV_FIELDS):
        raise ValidationError(f"expected {len(LOG_CSV_FIELDS)} fields, got {len(row)}")
    for name, cell in zip(LOG_CSV_FIELDS, row):
        try:
            if not math.isfinite(float(cell)):
                raise ValueError
        except ValueError:
            raise ValidationError(f"log field {name!r}: {cell!r} is not a finite number") from None
    t, thr, brk, st, v, a, hd, x, y = (float(c) for c in row)
    return LogRecord(t, ControlCommand(thr, brk, st),
                     VehicleState(v, a, hd), Pose(x, y, hd))


TRAJ_CSV_FIELDS = ("t", "x", "y", "heading", "speed", "sigma_x", "sigma_y")


def write_trajectory_csv(path, traj: Trajectory, sigmas: np.ndarray) -> None:
    """Rows `t,x,y,heading,speed,sigma_x,sigma_y`; both sigma cells are
    empty in a row where either sigma is not finite (warm-up ticks).
    `sigmas` other than (len(traj), 2), or with a finite entry below 0,
    raises a ValidationError naming the path before the file is opened:
    `read_trajectory_csv` would refuse it.

    Each row's five state cells are one f-string of reprs. The sigma cells
    are formatted once per run of consecutive rows whose sigmas have equal
    bits (a corrected rollout holds one pair per window), so 0.0 and -0.0
    start separate runs and every non-finite row shares one empty run."""
    n = len(traj)
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.shape != (n, 2):
        raise ValidationError(f"{path}: sigmas of shape {sigmas.shape}, trajectory needs ({n}, 2)")
    finite = np.isfinite(sigmas)
    if np.any(finite & (sigmas < 0.0)):
        raise ValidationError(f"{path}: negative finite sigma")
    ok = finite.all(axis=1)
    bits = np.where(ok[:, None], sigmas, np.nan).view(np.int64)
    starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)])
    cells = [f"{sx!r},{sy!r}" if keep else "," for (sx, sy), keep
             in zip(sigmas[starts].tolist(), ok[starts].tolist())]
    runs = np.repeat(np.array(cells, dtype=object), np.diff(starts, append=n)).tolist()
    table = np.column_stack((traj.timestamps, traj.poses, traj.speeds)).tolist()
    lines = [",".join(TRAJ_CSV_FIELDS)]
    lines += [f"{t!r},{x!r},{y!r},{heading!r},{speed!r},{cell}"
              for (t, x, y, heading, speed), cell in zip(table, runs)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def read_trajectory_csv(path) -> tuple[Trajectory, np.ndarray]:
    """Returns (trajectory, sigmas): sigmas are (n, 2), NaN where a cell is
    empty. The header must be `TRAJ_CSV_FIELDS`. A row with another cell
    count, a t, x, y, heading or speed cell that is not a finite number, or
    a sigma cell neither empty nor finite and >= 0 raises a ValidationError
    naming `path:line`. Bytes that are not UTF-8 CSV, and rows that
    `Trajectory` rejects (none, or no fixed step), raise one naming `path`.

    The file is read and tokenized once, keeping each record's end line.
    Each column is converted with `float` into one table, an empty sigma
    cell as NaN, and whole columns are checked: every row has 7 cells, the
    state cells are finite, and the sigma cells in [0, inf) are exactly the
    non-empty ones (so a literal `nan` is refused). Only to word a refusal
    are the rows walked, by `_row_fault`, for the first bad record."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows, ends = [], []
        try:
            for row in reader:
                rows.append(row)
                ends.append(reader.line_num)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationError(f"{path}: not a UTF-8 CSV file ({exc})") from exc
    if not rows or tuple(rows[0]) != TRAJ_CSV_FIELDS:
        raise ValidationError(f"{path}: expected trajectory header {','.join(TRAJ_CSV_FIELDS)}")
    body = list(filter(None, rows[1:]))
    n, width = len(body), len(TRAJ_CSV_FIELDS)
    table = np.empty((n, width))
    try:
        if set(map(len, body)) - {width}:
            raise ValueError
        cols = list(zip(*body))
        for j, col in enumerate(cols):
            # an empty sigma cell reads as NaN
            cells = map({"": "nan"}.get, col, col) if j >= 5 else col
            table[:, j] = np.fromiter(map(float, cells), float, n)
        sig = table[:, 5:]
        empty = sum(col.count("") for col in cols[5:])
        if not (np.isfinite(table[:, :5]).all()
                and np.count_nonzero((sig >= 0.0) & (sig < math.inf)) == 2 * n - empty):
            raise ValueError
    except ValueError:
        for i, row in enumerate(rows[1:]):
            fault = row and _row_fault(row)
            if fault:  # a record starts after the last one's end: quoted cells span lines
                raise ValidationError(
                    f"{path}:{ends[i] + 1}: bad trajectory row ({fault})") from None
        raise  # the row checks accept what the column checks refused
    try:
        traj = Trajectory(table[:, 0], table[:, 1:4], table[:, 4])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return traj, table[:, 5:]


def _row_fault(row: list[str]) -> str | None:
    """Why `read_trajectory_csv` refuses a non-empty record, or None."""
    if len(row) != len(TRAJ_CSV_FIELDS):
        return f"{len(row)} cells, header has {len(TRAJ_CSV_FIELDS)}"
    try:
        state = [float(cell) for cell in row[:5]]
        if not all(map(math.isfinite, state)):
            return f"t, x, y, heading and speed {row[:5]} not all finite"
        sigmas = [float(cell) for cell in row[5:] if cell != ""]
    except ValueError as exc:
        return str(exc)
    if not all(0.0 <= s < math.inf for s in sigmas):
        return f"sigmas {row[5:]} not empty or finite and >= 0"
    return None
