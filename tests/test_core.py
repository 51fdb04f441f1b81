import csv
import dataclasses
import functools
import itertools
import math
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from reference import wrap_angle

import resdyn.core
from resdyn.core import (LOG_CSV_FIELDS, TRAJ_CSV_FIELDS, ControlCommand, LogRecord, Pose,
                         Trajectory, ValidationError, VehicleState, parse_log_row,
                         read_trajectory_csv, wrap_angle_array, write_log_csv,
                         write_trajectory_csv)
from resdyn.dynamics import rollout_states

# the float boundaries of the (-pi, pi] wrap
EDGE_ANGLES = (math.pi, -math.pi, math.nextafter(math.pi, 4),
               math.nextafter(-math.pi, -4), 3 * math.pi, -3 * math.pi)
# finite floats with their boundaries: signed zeros, subnormals, the
# smallest normal and the largest magnitudes
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
SIGMA = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from(
    (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308))
ROW = st.tuples(FINITE, FINITE, FINITE, FINITE,
                st.none() | st.tuples(SIGMA, SIGMA))


class TestWrapAngle:
    def test_zero(self):
        assert wrap_angle_array(0.0) == 0.0

    def test_three_pi(self):
        assert wrap_angle_array(3 * math.pi) == pytest.approx(math.pi)

    def test_minus_pi_maps_to_plus_pi(self):
        assert wrap_angle_array(-math.pi) == pytest.approx(math.pi)

    @given(st.floats(-50.0, 50.0))
    @example(EDGE_ANGLES[0])
    @example(EDGE_ANGLES[1])
    @example(EDGE_ANGLES[2])
    @example(EDGE_ANGLES[3])
    @example(EDGE_ANGLES[4])
    @example(EDGE_ANGLES[5])
    def test_range_and_congruence(self, theta):
        w = float(wrap_angle_array(theta))
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-9)

    @given(st.lists(FINITE | st.sampled_from(EDGE_ANGLES), min_size=1, max_size=16))
    # in range, both return the input itself: 1e-20 and 0.1 stay as they are
    @example([*np.linspace(-20, 20, 401), *EDGE_ANGLES, 1e-20, -1e-20, 0.1])
    @example([*EDGE_ANGLES, *EDGE_FLOATS])
    def test_array_matches_scalar(self, thetas):
        # bit for bit, signed zeros too, as 0-d, 1-d and 2-d input
        want = np.array([wrap_angle(t) for t in thetas])
        assert np.all((-math.pi < want) & (want <= math.pi))
        got = [wrap_angle_array(np.array(thetas)), wrap_angle_array(np.array(thetas)[:, None]),
               np.array([wrap_angle_array(t) for t in thetas])]
        for wrapped in got:
            assert wrapped.tobytes() == want.tobytes()
        assert all(wrap_angle_array(t).shape == () for t in thetas[:3])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_array_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match=rf"non-finite angle at index 2: {bad!r}"):
            wrap_angle_array(np.array([0.5, 4.0, bad, bad, 1.0]))
        with pytest.raises(ValidationError, match=r"non-finite angle at index \(1, 0\)"):
            wrap_angle_array(np.array([[0.5, 4.0], [bad, 1.0]]))
        # a 0-d angle has no index to name, as the scalar refusal names none
        for wrap in (wrap_angle_array, wrap_angle):
            with pytest.raises(ValidationError, match=rf"^non-finite angle: {bad!r}$"):
                wrap(bad)


class Replay:
    """A stub model whose i-th tick returns outputs[i], an (accel, heading
    rate) pair, whatever the command and state."""

    def __init__(self, outputs):
        self._next = iter(outputs).__next__

    def tick(self, throttle, brake, steering, speed, acceleration):
        return self._next()


def replay_table(outputs, x=0.0, y=0.0, heading=0.0, speed=0.0, dt=0.01):
    """`rollout_states` table of a model that replays `outputs`, one tick
    per (accel, heading rate) pair."""
    outputs = list(outputs)
    return rollout_states(Replay(outputs), Pose(x, y, heading),
                          VehicleState(speed, 0.0, heading),
                          [ControlCommand(0, 0, 0)] * len(outputs), dt)


def replay_end(outputs, **start):
    """(x, y, heading, speed) after the last tick of `replay_table`."""
    speed, _, heading, x, y = replay_table(outputs, **start)[-1]
    return x, y, heading, speed


class TestIntegrateStep:
    """The integration step of `dynamics.rollout_states`, the one rollout
    kernel: forward Euler with speed and heading sampled at interval start,
    speed clamped at zero, heading wrapped. Stub models feed it given
    (accel, heading rate) pairs."""

    def test_stationary(self):
        assert replay_end([(0.0, 0.0)]) == (0.0, 0.0, 0.0, 0.0)
        assert not replay_table([(0.0, 0.0)] * 5).any()

    def test_straight_line(self):
        x, y, _, v = replay_end([(0.0, 0.0)], speed=10.0)
        assert x == pytest.approx(0.1)
        assert y == 0.0
        assert v == 10.0

    @staticmethod
    def _analytic_arc(v0, a, h0, w, t):
        # closed form for x(t), y(t) under constant accel and heading rate
        v = v0 + a * t
        x = (v * math.sin(h0 + w * t) - v0 * math.sin(h0)) / w \
            + (a / w ** 2) * (math.cos(h0 + w * t) - math.cos(h0))
        y = (-v * math.cos(h0 + w * t) + v0 * math.cos(h0)) / w \
            + (a / w ** 2) * (math.sin(h0 + w * t) - math.sin(h0))
        return x, y

    def test_fine_step_converges_to_true_motion(self):
        # the step rule refined to dt/1000 must approach the analytic arc;
        # one second of curved, accelerating motion
        x, y, _, _ = replay_end([(2.0, 0.1)] * (100 * 1000), heading=math.pi / 2,
                                speed=5.0, dt=0.01 / 1000)
        ax, ay = self._analytic_arc(5.0, 2.0, math.pi / 2, 0.1, 1.0)
        assert math.hypot(x - ax, y - ay) < 1e-3

    def test_coarse_step_discretization_scale(self):
        # at the production tick the Euler gap to the true arc stays small
        # but visible (~1e-2 m over 1 s); that gap is part of what the
        # residual corrector later absorbs
        x, y, _, _ = replay_end([(2.0, 0.1)] * 100, heading=math.pi / 2, speed=5.0)
        ax, ay = self._analytic_arc(5.0, 2.0, math.pi / 2, 0.1, 1.0)
        gap = math.hypot(x - ax, y - ay)
        assert 1e-4 < gap < 0.05

    # what each start value, model output or dt is refused by
    REFUSALS = {"x": "non-finite rollout state", "y": "non-finite rollout state",
                "heading": "non-finite state field 'heading'",
                "speed": "non-finite state field 'speed'",
                "accel": "non-finite model output at tick 0",
                "heading_rate": "non-finite model output at tick 0",
                "dt": "dt must be finite and positive"}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("position", range(7), ids=[
        "x", "y", "heading", "speed", "accel", "heading_rate", "dt"])
    def test_rejects_nonfinite(self, position, bad):
        # duck-typed start pose and state: the kernel's own checks, not
        # the dataclasses', are under test
        names = list(self.REFUSALS)
        args = dict(zip(names, [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.01]))
        args[names[position]] = bad
        pose = SimpleNamespace(x=args["x"], y=args["y"], heading=args["heading"])
        state = SimpleNamespace(speed=args["speed"], acceleration=0.0)
        model = Replay([(args["accel"], args["heading_rate"])])
        with pytest.raises(ValidationError, match=self.REFUSALS[names[position]]):
            rollout_states(model, pose, state, [ControlCommand(0, 0, 0)], args["dt"])

    def test_rejects_nonpositive_dt(self):
        for dt in (0.0, -0.0, -0.01):
            with pytest.raises(ValidationError, match="dt must be finite and positive"):
                replay_table([(0.0, 0.0)], speed=1.0, dt=dt)

    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-1, 1)),
                    min_size=1, max_size=30))
    def test_speed_never_negative(self, steps):
        assert np.all(replay_table(steps, speed=1.0)[:, 0] >= 0.0)

    def test_fold_associativity(self):
        # a rollout continued from row 20 of another equals it bit for bit
        # (but for row 20's accel, which the continuation starts at 0)
        rng = np.random.default_rng(7)
        seq = [(rng.uniform(-3, 3), rng.uniform(-1, 1)) for _ in range(50)]
        start = dict(x=1.0, y=2.0, heading=0.3, speed=4.0)
        whole = replay_table(seq, **start)
        speed, _, heading, x, y = replay_table(seq[:20], **start)[-1]
        rest = replay_table(seq[20:], x=x, y=y, heading=heading, speed=speed)
        assert whole[20:, [0, 2, 3, 4]].tobytes() == rest[:, [0, 2, 3, 4]].tobytes()


class TestTypes:
    def test_command_ranges(self):
        with pytest.raises(ValidationError):
            ControlCommand(1.2, 0, 0)
        with pytest.raises(ValidationError):
            ControlCommand(0, -0.1, 0)
        with pytest.raises(ValidationError):
            ControlCommand(0, 0, 1.5)

    def test_state_invariants(self):
        with pytest.raises(ValidationError):
            VehicleState(-0.1, 0, 0)
        with pytest.raises(ValidationError):
            VehicleState(1, 0, -math.pi)  # open at -pi
        VehicleState(1, 0, math.pi)  # closed at +pi

    @pytest.mark.parametrize("make, message", [
        (lambda: ControlCommand(0.5, math.inf, 0.0), "non-finite command field 'brake': inf"),
        (lambda: VehicleState(1.0, math.nan, math.nan),
         "non-finite state field 'acceleration': nan"),
        (lambda: Pose(0.0, 0.0, -math.inf), "non-finite pose field 'heading': -inf"),
        (lambda: Trajectory(np.zeros(2), np.zeros((2, 3)), np.array([1.0, math.nan])),
         r"non-finite trajectory speeds at index \(1,\)"),
        (lambda: Trajectory(np.array([0.0, math.inf]), np.zeros((2, 3)), np.zeros(2)),
         r"non-finite trajectory timestamps at index \(1,\)"),
        (lambda: Trajectory(np.zeros(2), np.array([[0.0] * 3, [0.0, math.nan, 0.0]]),
                            np.zeros(2)), r"non-finite trajectory poses at index \(1, 1\)"),
    ], ids=["ControlCommand", "VehicleState", "Pose", "speeds", "timestamps", "poses"])
    def test_non_finite_field_named(self, make, message):
        # the first non-finite field, where more than one is
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: ControlCommand(0.5, 0.0, -0.25),
        lambda: VehicleState(3.0, -0.5, 1.0),
        lambda: Pose(1.0, -2.0, 1.0),
        lambda: LogRecord(0.01, ControlCommand(0.5, 0.0, -0.25),
                          VehicleState(3.0, -0.5, 1.0), Pose(1.0, -2.0, 1.0)),
    ], ids=["ControlCommand", "VehicleState", "Pose", "LogRecord"])
    def test_per_tick_types_are_frozen_slotted_values(self, make):
        a, b = make(), make()
        # equal by value, hashable, and with no per-instance __dict__
        assert a == b and a is not b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert not hasattr(a, "__dict__")
        name = dataclasses.fields(a)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, 0.0)
        # a new attribute is refused too; CPython's frozen-and-slotted
        # __setattr__ raises a TypeError for one on some versions
        with pytest.raises((AttributeError, TypeError)):
            a.extra = 0.0
        assert a == b and not hasattr(a, "extra")
        assert a != dataclasses.replace(a, **{name: getattr(a, name) + 0.125})

    def test_trajectory_fixed_step(self):
        ts = np.array([0.0, 0.01, 0.02001])
        with pytest.raises(ValidationError):
            Trajectory(ts, np.zeros((3, 3)), np.zeros(3))
        Trajectory(np.array([0.0, 0.01, 0.02]), np.zeros((3, 3)), np.zeros(3))

    def test_trajectory_length_mismatch(self):
        with pytest.raises(ValidationError):
            Trajectory(np.array([0.0, 0.01]), np.zeros((3, 3)), np.zeros(2))
        for speeds in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
            with pytest.raises(ValidationError, match="speeds"):
                Trajectory(np.array([0.0, 0.01, 0.02]), np.zeros((3, 3)), speeds)

    def test_trajectory_step_overflow_rejected(self):
        # the step 2e308 overflows to inf, which no spread test can compare
        with pytest.raises(ValidationError, match="step overflows"):
            Trajectory(np.array([-1e308, 1e308]), np.zeros((2, 3)), np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_trajectory_nonfinite_speed_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            Trajectory(np.array([0.0, 0.01]), np.zeros((2, 3)), np.array([1.0, bad]))


class TestParseLogRow:
    GOOD = ["0.5", "0.2", "0.0", "-0.1", "3.0", "0.1", "0.25", "1.0", "-2.0"]

    def test_good_row(self):
        r = parse_log_row(self.GOOD)
        assert (r.timestamp, r.command.steering, r.state.heading, r.pose.y) == \
            (0.5, -0.1, 0.25, -2.0)

    @pytest.mark.parametrize("cell", ["a", "", "nan", "-inf", "1e999"])
    @pytest.mark.parametrize("column", range(9))
    def test_cell_that_is_not_a_finite_number_named(self, column, cell):
        row = list(self.GOOD)
        row[column] = cell
        with pytest.raises(ValidationError, match=f"log field '{LOG_CSV_FIELDS[column]}': "
                                                  f"'{cell}' is not a finite number"):
            parse_log_row(row)

    def test_all_cells_not_numbers_names_the_first(self):
        with pytest.raises(ValidationError, match="log field 't': 'a' is not a finite number"):
            parse_log_row(["a"] * 9)


def log_fields(r: LogRecord) -> tuple[float, ...]:
    return (r.timestamp, r.command.throttle, r.command.brake, r.command.steering,
            r.state.speed, r.state.acceleration, r.state.heading, r.pose.x, r.pose.y,
            r.pose.heading)


# each field's float boundaries inside its range: signed zeros, the
# smallest subnormal, +-1e308 and a heading of exactly pi
UNIT = st.floats(0.0, 1.0) | st.sampled_from((-0.0, 5e-324, 1.0))
HEADING = st.floats(-math.pi, math.pi, exclude_min=True) | st.sampled_from(
    (math.pi, math.nextafter(-math.pi, 0.0), 0.0, -0.0, 5e-324, -5e-324))
LOG_RECORD = st.builds(
    lambda t, thr, brk, steer, v, a, hd, x, y: LogRecord(
        t, ControlCommand(thr, brk, steer), VehicleState(v, a, hd), Pose(x, y, hd)),
    FINITE, UNIT, UNIT, st.floats(-1.0, 1.0) | st.sampled_from((-1.0, -0.0, -5e-324)),
    SIGMA, FINITE, HEADING, FINITE, FINITE)
LOG_CELL = st.text(max_size=6) | st.floats().map(repr) | st.sampled_from(
    ("", "nan", "-inf", "1e999", "-0.0", "5e-324", "1e308", "3.141592653589793",
     "3.1415926535897936", "-1", "2", " 1 ", "1_0", "0x1p0", "\x00"))


class TestLogCsv:
    @given(st.lists(LOG_RECORD, min_size=1, max_size=8))
    @example([LogRecord(-0.0, ControlCommand(-0.0, 1.0, -1.0), VehicleState(5e-324, -1e308, math.pi),
                        Pose(1e308, -1e308, math.pi))])
    def test_write_read_round_trip_bit_exact(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.csv"
            write_log_csv(path, records)
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
        assert tuple(header) == LOG_CSV_FIELDS
        back = [parse_log_row(row) for row in rows]
        assert np.array_equal(np.array([log_fields(r) for r in back]).view(np.int64),
                              np.array([log_fields(r) for r in records]).view(np.int64))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_timestamp_rejected_before_writing(self, tmp_path, bad):
        # LogRecord leaves its timestamp unchecked; the reader refuses the cell
        good = LogRecord(0.0, ControlCommand(0.5, 0.0, 0.1), VehicleState(1.0, 0.2, 0.3),
                         Pose(4.0, 5.0, 0.3))
        records = [dataclasses.replace(good, timestamp=t) for t in (0.0, 0.01, bad, -bad)]
        path = tmp_path / "log.csv"
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: record 2 field 't' is {bad!r}, not a finite number")):
            write_log_csv(path, records)
        assert not path.exists()

    @given(st.lists(LOG_CELL, min_size=9, max_size=9))
    def test_any_row_raises_only_validation_error(self, row):
        try:
            parse_log_row(row)
        except ValidationError:
            pass


class TestTrajectoryCsv:
    GOOD = "0.0,0.0,0.0,0.0,1.0,,"

    @staticmethod
    def write(tmp_path, *rows):
        path = tmp_path / "traj.csv"
        path.write_text("".join(r + "\n" for r in (",".join(TRAJ_CSV_FIELDS),) + rows))
        return path

    @pytest.mark.parametrize("row", ["0.01,1.0,2.0,0.5,3.0",
                                     "0.01,1.0,2.0,0.5,3.0,0.1,0.2,0.3"])
    def test_row_with_other_cell_count_rejected(self, tmp_path, row):
        good = self.write(tmp_path, self.GOOD, "0.01,1.0,2.0,0.5,3.0,0.1,0.0")
        _, sigmas = read_trajectory_csv(good)
        assert np.array_equal(sigmas, [[np.nan, np.nan], [0.1, 0.0]], equal_nan=True)
        path = self.write(tmp_path, self.GOOD, row)
        with pytest.raises(ValidationError, match=re.escape(f"{path}:3")):
            read_trajectory_csv(path)

    def test_line_counts_file_lines_not_records(self, tmp_path):
        # the quoted "0.0\n" cell spans lines 2-3, so the bad row is line 5
        path = self.write(tmp_path, '"0.0', '",0.0,0.0,0.0,1.0,,', "0.01,0.0,0.0,0.0,1.0,,",
                          "0.02,bad,0.0,0.0,1.0,,")
        with pytest.raises(ValidationError, match=re.escape(f"{path}:5: ")):
            read_trajectory_csv(path)
        # a quoted "\r\n" ends one line, a quoted lone "\r" another: the
        # first record spans lines 2-3, the second 4-5, the bad row is line 6
        path.write_bytes(",".join(TRAJ_CSV_FIELDS).encode() + b'\n"0.0\r\n",0.0,0.0,0.0,1.0,,\n'
                         b'"0.01\r",0.0,0.0,0.0,1.0,,\r\n0.02,bad,0.0,0.0,1.0,,\r\n')
        with pytest.raises(ValidationError, match=re.escape(f"{path}:6: ")):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("x", ["0.0", "bad"], ids=["accepted", "refused"])
    def test_file_opened_once(self, tmp_path, monkeypatch, x):
        path = self.write(tmp_path, self.GOOD, f"0.01,{x},0.0,0.0,1.0,,")
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(resdyn.core, "open", counting_open, raising=False)
        try:
            read_trajectory_csv(path)
            refused = False
        except ValidationError:
            refused = True
        assert (opened, refused) == ([path], x == "bad")

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    @pytest.mark.parametrize("column", [1, 4])
    def test_nonfinite_x_or_speed_rejected(self, tmp_path, cell, column):
        cells = "0.01,1.0,2.0,0.5,3.0,,".split(",")
        cells[column] = cell
        path = self.write(tmp_path, self.GOOD, ",".join(cells))
        with pytest.raises(ValidationError, match=re.escape(f"{path}:3")):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("header", ["t,x,y,heading", "t,x,y,heading,speed",
                                        "t,x,y,heading,sigma_x,sigma_y",
                                        "t,x,y,heading,speed,sigma_x,sigma_y,extra"])
    def test_other_header_rejected(self, tmp_path, header):
        path = tmp_path / "traj.csv"
        path.write_text(header + "\n" + self.GOOD + "\n")
        with pytest.raises(ValidationError, match="expected trajectory header"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("cell", ["-0.1", "inf", "-inf", "nan"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_sigma_not_finite_and_nonnegative_rejected(self, tmp_path, cell, column):
        sigmas = ["0.2", "0.2"]
        sigmas[column] = cell
        path = self.write(tmp_path, self.GOOD, "0.01,1.0,2.0,0.5,3.0," + ",".join(sigmas))
        with pytest.raises(ValidationError, match=re.escape(f"{path}:3")):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("body, match", [
        (b"0.0,0.0,0.0,0.0,1.0,\xff,\n", "not a UTF-8 CSV file"),
        (b'0.0,0.0,0.0,0.0,1.0,"' + b"1" * 131073 + b'",\n', "not a UTF-8 CSV file"),
        (b"", "empty trajectory"),
        (b"0.0,0,0,0,1,,\n0.01,0,0,0,1,,\n0.03,0,0,0,1,,\n", "timestamp step not constant"),
        (b"-1e308,0,0,0,1,,\n1e308,0,0,0,1,,\n", "timestamp step overflows"),
    ], ids=["non-utf8-byte", "field-over-csv-limit", "header-only", "step-not-constant",
            "step-overflows"])
    def test_unreadable_or_not_a_trajectory_names_path(self, tmp_path, body, match):
        path = tmp_path / "traj.csv"
        path.write_bytes(",".join(TRAJ_CSV_FIELDS).encode() + b"\n" + body)
        with pytest.raises(ValidationError, match=re.escape(f"{path}: ") + match):
            read_trajectory_csv(path)

    @given(start=st.floats(-1e3, 1e3), step=st.sampled_from((0.01, 0.05, 1.0)),
           rows=st.lists(ROW, min_size=1, max_size=12))
    @example(start=0.0, step=0.01, rows=[(-0.0, 5e-324, 1e308, 0.0, None),
                                         (-1e308, -5e-324, -0.0, -0.0, (5e-324, 1e308)),
                                         (0.0, 1.7976931348623157e308, 0.0, 0.0, (0.0, -0.0))])
    def test_write_read_round_trip(self, start, step, rows):
        # a temporary directory per example: hypothesis reruns the body,
        # which pytest's function-scoped tmp_path would not follow
        poses = np.array([r[:3] for r in rows])
        speeds = np.array([r[3] for r in rows])
        sigmas = np.array([r[4] if r[4] is not None else (np.nan, np.nan) for r in rows])
        traj = Trajectory(start + np.arange(len(rows)) * step, poses, speeds)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traj.csv"
            write_trajectory_csv(path, traj, sigmas)
            back, back_sigmas = read_trajectory_csv(path)
        assert np.array_equal(back.timestamps, traj.timestamps)
        assert np.array_equal(back.poses, traj.poses)
        assert np.array_equal(np.signbit(back.poses), np.signbit(traj.poses))
        assert np.array_equal(back.speeds, traj.speeds)
        assert np.array_equal(back_sigmas, sigmas, equal_nan=True)

    # signed zeros, the smallest subnormal, huge, short and full-precision
    # values; sigma rows whole, all NaN, half NaN, half inf
    PINNED_TRAJ = dict(
        timestamps=[0.0, 0.01, 0.02, 0.03, 0.04],
        poses=[[-0.0, 5e-324, 1e308], [0.1, 0.30000000000000004, -3.141592653589793],
               [1.0, -2.5, 0.0], [1e-05, 123456.789, 2.0], [-1e308, 0.5, -0.0]],
        speeds=[0.0, 12.5, 1e308, 5e-324, 3.0])
    PINNED_SIGMAS = [[0.25, 0.30000000000000004], [math.nan, math.nan], [math.nan, 0.5],
                     [-0.0, 5e-324], [math.inf, 0.1]]
    PINNED_ROWS = (b"0.0,-0.0,5e-324,1e+308,0.0,",
                   b"0.01,0.1,0.30000000000000004,-3.141592653589793,12.5,",
                   b"0.02,1.0,-2.5,0.0,1e+308,",
                   b"0.03,1e-05,123456.789,2.0,5e-324,",
                   b"0.04,-1e+308,0.5,-0.0,3.0,")

    # runs of sigma pairs, written after the pinned rows: equal pairs, 0.0
    # then -0.0 in either column, a half-NaN and an inf row inside a run of
    # equal pairs, one empty run of NaN, half-NaN and inf rows, and pairs
    # that all differ
    RUN_SIGMAS = [[0.5, 0.5], [0.5, 0.5], [0.0, 0.5], [-0.0, 0.5], [0.5, 0.0], [0.5, -0.0],
                  [0.5, 0.5], [math.nan, 0.5], [0.5, 0.5], [0.5, math.inf], [0.5, 0.5],
                  [math.nan, math.nan], [math.inf, 0.1], [0.1, math.nan], [math.nan, math.nan],
                  [0.1, 0.2], [0.2, 0.1], [5e-324, 1e308], [0.30000000000000004, 0.3]]
    RUN_CELLS = (b"0.5,0.5", b"0.5,0.5", b"0.0,0.5", b"-0.0,0.5", b"0.5,0.0", b"0.5,-0.0",
                 b"0.5,0.5", b",", b"0.5,0.5", b",", b"0.5,0.5", b",", b",", b",", b",",
                 b"0.1,0.2", b"0.2,0.1", b"5e-324,1e+308", b"0.30000000000000004,0.3")

    @pytest.mark.parametrize("with_sigmas", [True, False], ids=["sigmas", "no-sigmas"])
    def test_written_bytes(self, tmp_path, with_sigmas):
        # the format byte for byte: CRLF line ends, repr cells, both sigma
        # cells empty where either sigma is not finite, and in every row
        # of a trajectory whose sigmas are all NaN
        pinned = {k: np.array(v) for k, v in self.PINNED_TRAJ.items()}
        k = len(self.PINNED_ROWS) + np.arange(len(self.RUN_SIGMAS))
        traj = Trajectory(np.r_[pinned["timestamps"], np.round(0.01 * k, 2)],
                          np.r_[pinned["poses"], np.tile([1.0, 2.0, 0.5], (len(k), 1))],
                          np.r_[pinned["speeds"], np.full(len(k), 3.0)])
        rows = self.PINNED_ROWS + tuple(f"{t!r},1.0,2.0,0.5,3.0,".encode()
                                        for t in traj.timestamps[len(self.PINNED_ROWS):].tolist())
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, np.array(self.PINNED_SIGMAS + self.RUN_SIGMAS)
                             if with_sigmas else np.full((len(traj), 2), np.nan))
        cells = ((b"0.25,0.30000000000000004", b",", b",", b"-0.0,5e-324", b",")
                 + self.RUN_CELLS if with_sigmas else (b",",) * len(rows))
        assert path.read_bytes() == b"".join(
            line + b"\r\n" for line in (b"t,x,y,heading,speed,sigma_x,sigma_y",
                                        *(r + c for r, c in zip(rows, cells, strict=True))))

    @pytest.mark.parametrize("sigmas, match", [
        (np.array([[0.1, 0.1], [math.nan, math.nan], [0.1, -0.1], [0.1, 0.1], [0.1, 0.1]]),
         "negative finite sigma"),
        (np.full((4, 2), 0.1), re.escape("sigmas of shape (4, 2), trajectory needs (5, 2)")),
        (np.full(5, 0.1), re.escape("sigmas of shape (5,), trajectory needs (5, 2)")),
        (np.full((5, 3), 0.1), re.escape("sigmas of shape (5, 3), trajectory needs (5, 2)")),
    ], ids=["negative", "short", "1-D", "third-column"])
    def test_sigmas_the_reader_refuses_rejected_before_writing(self, tmp_path, sigmas, match):
        traj = Trajectory(**{k: np.array(v) for k, v in self.PINNED_TRAJ.items()})
        path = tmp_path / "traj.csv"
        with pytest.raises(ValidationError, match=re.escape(f"{path}: ") + match):
            write_trajectory_csv(path, traj, sigmas)
        assert not path.exists()


def read_bytes(raw: bytes):
    """read_trajectory_csv of a file holding `raw`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        path.write_bytes(raw)
        return read_trajectory_csv(path)


def valid_trajectory_bytes() -> bytes:
    """A written three-row trajectory, one row without sigmas."""
    traj = Trajectory(np.array([0.0, 0.01, 0.02]), np.arange(9.0).reshape(3, 3),
                      np.array([1.0, 1.5, -0.0]))
    sigmas = np.array([[np.nan, np.nan], [0.1, 0.2], [0.0, 5e-324]])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid.csv"
        write_trajectory_csv(path, traj, sigmas)
        return path.read_bytes()


# bytes a CSV or float parser treats specially, and arbitrary short runs
CHUNK = st.sampled_from((b",", b"\n", b"\r", b'"', b"\x00", b"\xff", b"\xc3", b"-",
                         b"e", b".", b"nan", b"inf", b"1e999", "\ufeff".encode("utf-8"))) \
    | st.binary(min_size=1, max_size=4)
MUTATION = st.tuples(st.sampled_from(("replace", "insert", "delete")),
                     st.integers(0, 1 << 16), CHUNK)


def mutated(raw: bytes, mutations) -> bytes:
    """raw after each (op, pos, chunk) of `MUTATION` in turn."""
    raw = bytearray(raw)
    for op, pos, chunk in mutations:
        i = pos % (len(raw) + 1)
        if op == "replace":
            raw[i:i + len(chunk)] = chunk
        elif op == "insert":
            raw[i:i] = chunk
        else:
            del raw[i:i + len(chunk)]
    return bytes(raw)


class TestTrajectoryCsvFuzz:
    """Whatever the bytes, the reader returns a trajectory or raises a
    ValidationError, never another exception."""

    @given(st.binary(max_size=300))
    def test_random_bytes(self, raw):
        try:
            read_bytes(raw)
        except ValidationError:
            pass

    @given(st.binary(max_size=200))
    def test_random_bytes_after_header(self, raw):
        try:
            read_bytes(",".join(TRAJ_CSV_FIELDS).encode() + b"\n" + raw)
        except ValidationError:
            pass

    @given(st.lists(MUTATION, min_size=1, max_size=6))
    def test_mutated_valid_file(self, mutations):
        try:
            traj, sigmas = read_bytes(mutated(valid_trajectory_bytes(), mutations))
        except ValidationError:
            return
        assert sigmas.shape == (len(traj), 2)

    def test_valid_file_reads_back(self):
        traj, sigmas = read_bytes(valid_trajectory_bytes())
        assert np.array_equal(traj.timestamps, [0.0, 0.01, 0.02])
        assert np.array_equal(sigmas, [[np.nan, np.nan], [0.1, 0.2], [0.0, 5e-324]], equal_nan=True)


def reference_read_trajectory_csv(path) -> tuple[Trajectory, np.ndarray]:
    """The row-by-row reader that `read_trajectory_csv` replaced, kept as
    the reference it must match refusal for refusal and bit for bit."""
    isfinite, inf, nan = math.isfinite, math.inf, math.nan
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
                t, x, y, heading, speed, sx, sy = row
                t, x, y, heading, speed = float(t), float(x), float(y), float(heading), float(speed)
                if not (isfinite(t) and isfinite(x) and isfinite(y) and isfinite(heading)
                        and isfinite(speed)):
                    raise ValueError(f"t, x, y, heading and speed {row[:5]} not all finite")
                fx = float(sx) if sx != "" else nan
                fy = float(sy) if sy != "" else nan
                if (sx != "" and not 0.0 <= fx < inf) or (sy != "" and not 0.0 <= fy < inf):
                    raise ValueError(f"sigmas {row[5:]} not empty or finite and >= 0")
            except ValueError as exc:
                raise ValidationError(f"{path}:{ln}: bad trajectory row ({exc})") from exc
            rows.append((t, x, y, heading, speed))
            sigmas.append((fx, fy))
    table = np.array(rows).reshape(-1, 5)
    try:
        traj = Trajectory(table[:, 0], table[:, 1:4], table[:, 4])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return traj, np.array(sigmas).reshape(-1, 2)


def outcomes(raw: bytes) -> list:
    """What `read_trajectory_csv` and the reference make of a file holding
    `raw`: the refusal's message, or each returned array's shape and bits."""
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traj.csv"
        path.write_bytes(raw)
        for read in (read_trajectory_csv, reference_read_trajectory_csv):
            try:
                traj, sigmas = read(path)
            except ValidationError as exc:
                found.append(str(exc))
                continue
            found.append([(a.shape, np.ascontiguousarray(a).view(np.int64).tobytes())
                          for a in (traj.timestamps, traj.poses, traj.speeds, sigmas)])
    return found


@functools.cache
def long_trajectory_lines() -> tuple[bytes, ...]:
    """The lines of a written 2001-row trajectory whose sigmas run as a
    corrected rollout's do: 100 empty rows, then one pair per 100 rows."""
    rng = np.random.default_rng(25)
    n = 2001
    sigmas = np.repeat(np.abs(rng.standard_normal((21, 2))), 100, axis=0)[:n]
    sigmas[:100] = np.nan
    traj = Trajectory(np.arange(n) * 0.01, np.cumsum(rng.standard_normal((n, 3)), axis=0),
                      np.abs(rng.standard_normal(n)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "long.csv"
        write_trajectory_csv(path, traj, sigmas)
        return tuple(path.read_bytes().split(b"\r\n"))


class TestReaderMatchesReference:
    """`read_trajectory_csv` accepts and refuses exactly what the row-by-row
    reference does, with the same message, and returns the same bits."""

    @given(st.lists(MUTATION, min_size=1, max_size=6))
    def test_mutated_valid_file(self, mutations):
        new, reference = outcomes(mutated(valid_trajectory_bytes(), mutations))
        assert new == reference

    @pytest.mark.parametrize("row", [1, 1001, 2001], ids=["first", "middle", "last"])
    def test_one_bad_cell_in_a_long_file(self, row):
        lines = long_trajectory_lines()
        new, reference = outcomes(b"\r\n".join(lines))
        assert new == reference and not isinstance(new, str)
        for column, cell in itertools.product(range(len(TRAJ_CSV_FIELDS)),
                                              (b"x", b"", b"nan", b"inf", b"-0.1", b"0.5,0.5")):
            cells = lines[row].split(b",")
            cells[column] = cell
            new, reference = outcomes(b"\r\n".join(
                lines[:row] + (b",".join(cells),) + lines[row + 1:]))
            assert new == reference, (column, cell)
            if cell in (b"x", b"nan", b"0.5,0.5"):
                assert f"traj.csv:{row + 1}: bad trajectory row" in new
