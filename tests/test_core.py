import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from resdyn.core import (TRAJ_CSV_FIELDS, ControlCommand, Pose, Trajectory,
                         ValidationError, VehicleState, integrate_step,
                         read_trajectory_csv, wrap_angle, wrap_angle_array,
                         write_trajectory_csv)

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


def fine_reference_rollout(pose, speed, accel, heading_rate, dt, n_steps, refine=1000):
    """Independent fine-step integrator: same Euler rule at dt/refine."""
    x, y, h, v = pose.x, pose.y, pose.heading, speed
    fine = dt / refine
    for _ in range(n_steps * refine):
        x += v * math.cos(h) * fine
        y += v * math.sin(h) * fine
        h += heading_rate * fine
        v = max(0.0, v + accel * fine)
    return x, y, h, v


class TestWrapAngle:
    def test_zero(self):
        assert wrap_angle(0.0) == 0.0

    def test_three_pi(self):
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)

    def test_minus_pi_maps_to_plus_pi(self):
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    @given(st.floats(-50.0, 50.0))
    @example(EDGE_ANGLES[0])
    @example(EDGE_ANGLES[1])
    @example(EDGE_ANGLES[2])
    @example(EDGE_ANGLES[3])
    @example(EDGE_ANGLES[4])
    @example(EDGE_ANGLES[5])
    def test_range_and_congruence(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-9)

    def test_array_matches_scalar(self):
        # in range, both return the input itself: 1e-20 and 0.1 stay as they are
        thetas = np.concatenate([np.linspace(-20, 20, 401), EDGE_ANGLES, [1e-20, -1e-20, 0.1]])
        wrapped = wrap_angle_array(thetas)
        for t, w in zip(thetas, wrapped):
            assert w == wrap_angle(float(t))
            assert -math.pi < w <= math.pi


class TestIntegrateStep:
    # integrate_step(x, y, heading, speed, accel, heading_rate, dt)
    #   -> (x, y, heading, speed)
    def test_stationary(self):
        assert integrate_step(0, 0, 0, 0.0, 0.0, 0.0, 0.01) == (0.0, 0.0, 0.0, 0.0)

    def test_straight_line(self):
        x, y, _, v = integrate_step(0, 0, 0, 10.0, 0.0, 0.0, 0.01)
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
        fine = 0.01 / 1000
        x, y, h, v = 0.0, 0.0, math.pi / 2, 5.0
        for _ in range(100 * 1000):
            x, y, h, v = integrate_step(x, y, h, v, 2.0, 0.1, fine)
        ax, ay = self._analytic_arc(5.0, 2.0, math.pi / 2, 0.1, 1.0)
        assert math.hypot(x - ax, y - ay) < 1e-3

    def test_coarse_step_discretization_scale(self):
        # at the production tick the Euler gap to the true arc stays small
        # but visible (~1e-2 m over 1 s); that gap is part of what the
        # residual corrector later absorbs
        x, y, h, v = 0.0, 0.0, math.pi / 2, 5.0
        for _ in range(100):
            x, y, h, v = integrate_step(x, y, h, v, 2.0, 0.1, 0.01)
        ax, ay = self._analytic_arc(5.0, 2.0, math.pi / 2, 0.1, 1.0)
        gap = math.hypot(x - ax, y - ay)
        assert 1e-4 < gap < 0.05

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            integrate_step(0, 0, 0, float("nan"), 0.0, 0.0, 0.01)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValidationError):
            integrate_step(0, 0, 0, 1.0, 0.0, 0.0, 0.0)

    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-1, 1)),
                    min_size=1, max_size=30))
    def test_speed_never_negative(self, steps):
        state = (0.0, 0.0, 0.0, 1.0)
        for accel, omega in steps:
            state = integrate_step(*state, accel, omega, 0.01)
            assert state[3] >= 0.0

    def test_fold_associativity(self):
        # integrating k steps one by one equals folding the same sequence
        rng = np.random.default_rng(7)
        seq = [(rng.uniform(-3, 3), rng.uniform(-1, 1)) for _ in range(50)]
        state_a = (1.0, 2.0, 0.3, 4.0)
        for a, w in seq:
            state_a = integrate_step(*state_a, a, w, 0.01)
        state_b = (1.0, 2.0, 0.3, 4.0)
        for a, w in seq[:20]:
            state_b = integrate_step(*state_b, a, w, 0.01)
        for a, w in seq[20:]:
            state_b = integrate_step(*state_b, a, w, 0.01)
        assert state_a == state_b


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
        raw = bytearray(valid_trajectory_bytes())
        for op, pos, chunk in mutations:
            i = pos % (len(raw) + 1)
            if op == "replace":
                raw[i:i + len(chunk)] = chunk
            elif op == "insert":
                raw[i:i] = chunk
            else:
                del raw[i:i + len(chunk)]
        try:
            traj, sigmas = read_bytes(bytes(raw))
        except ValidationError:
            return
        assert sigmas.shape == (len(traj), 2)

    def test_valid_file_reads_back(self):
        traj, sigmas = read_bytes(valid_trajectory_bytes())
        assert np.array_equal(traj.timestamps, [0.0, 0.01, 0.02])
        assert np.array_equal(sigmas, [[np.nan, np.nan], [0.1, 0.2], [0.0, 5e-324]], equal_nan=True)
