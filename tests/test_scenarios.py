import csv
import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import solve_ivp

import resdyn.scenarios
from resdyn.core import ControlCommand, ValidationError, parse_log_row, write_log_csv
from resdyn.dynamics import RuleBasedModel, rollout
from resdyn.scenarios import (GOLDEN_NAMES, OracleParams, ScenarioScript, Segment, _drive,
                              _loop_script, _oracle_logs, generate_golden_set, golden_scripts,
                              oracle_log)


def records_digest(logs) -> str:
    """SHA-256 over the repr of every record field of every log, by name:
    a change to the oracle's arithmetic, by one ulp anywhere, changes it.
    libm's cos/sin/atan2/tan results enter it, so a platform with another
    libm may need its own pinned values."""
    h = hashlib.sha256()
    for name in sorted(logs):
        h.update(name.encode())
        for r in logs[name]:
            h.update(repr((r.timestamp, r.command.throttle, r.command.brake,
                           r.command.steering, r.state.speed, r.state.acceleration,
                           r.state.heading, r.pose.x, r.pose.y, r.pose.heading)).encode())
    return h.hexdigest()


def record_bits(records) -> list[tuple[int, ...]]:
    """Every field of every record as its float's bits, so 0.0 and -0.0
    differ where `==` would call them equal."""
    return np.array([(r.timestamp, r.command.throttle, r.command.brake, r.command.steering,
                      r.state.speed, r.state.acceleration, r.state.heading, r.pose.x, r.pose.y,
                      r.pose.heading) for r in records]).view(np.int64).tolist()


def bits(values) -> list[int]:
    return np.array(values, dtype=float).view(np.int64).tolist()


REST = (0.0,) * 8   # x, y, heading, vx, vy, yaw_rate, accel_lag, wheel_angle


def step(s, cmd, p=OracleParams()):
    """The oracle's 8-float state s one 0.01 s command tick later."""
    return _drive(p, 0.01, s, (cmd,))[1][:8]


def heading_change(recs):
    hd = np.array([r.state.heading for r in recs])
    dh = np.diff(hd)
    return float(((dh + np.pi) % (2 * np.pi) - np.pi).sum())


class TestOracleStep:
    def test_stationary_at_rest(self):
        s = REST
        for _ in range(100):
            s = step(s, ControlCommand(0, 0, 0))
        x, y, _, vx, vy, yaw_rate = s[:6]
        assert (x, y, vx, vy, yaw_rate) == (0, 0, 0, 0, 0)

    def test_steady_state_cornering(self):
        # hold speed with a test-side throttle loop, steer constant, then
        # compare the settled yaw rate to the linear-bicycle closed form
        p = OracleParams()
        s = (0.0, 0.0, 0.0, 8.0, 0.0, 0.0, 0.0, 0.0)
        target_v, steering = 8.0, 0.25
        rates, speeds = [], []
        for i in range(3000):
            thr = min(max(0.055 + 0.8 * (target_v - s[3]), 0.0), 1.0)
            s = step(s, ControlCommand(thr, 0, steering), p)
            if i >= 2500:
                rates.append(s[5])
                speeds.append(s[3])
        wheel = steering * p.max_front_wheel_angle
        expect = p.steady_state_yaw_rate(float(np.mean(speeds)), wheel)
        assert np.mean(rates) == pytest.approx(expect, rel=0.02)

    def test_step_throttle_speed_approach(self):
        # straight-line: oracle must track the 2-state longitudinal ODE
        p = OracleParams()
        amax = p.throttle_gain * (0.4 - p.throttle_deadzone)

        def ode(_t, y):
            v, alag = y
            taper = min(v / 0.1, 1.0) if v > 0.0 else 0.0
            drag = (p.rolling_resistance + p.drag_coeff * v * v) * taper
            return [alag - drag, (amax - alag) / p.throttle_tau]

        ref = solve_ivp(ode, (0, 20.0), [0.0, 0.0], rtol=1e-8, atol=1e-10,
                        max_step=0.05, dense_output=True)
        s = REST
        speeds = [0.0]
        for _ in range(2000):
            s = step(s, ControlCommand(0.4, 0, 0), p)
            speeds.append(s[3])
        speeds = np.array(speeds)
        t = np.arange(2001) * 0.01
        assert np.all(np.diff(speeds) >= -1e-12)  # monotone approach
        assert np.max(np.abs(speeds - ref.sol(t)[0])) < 5e-3

    def test_oracle_log_drives_the_given_vehicle(self):
        # a heavier, laggier vehicle: the log follows single steps with the
        # same params from rest, and not the nominal vehicle
        p = OracleParams(mass=2400.0, throttle_tau=0.5)
        cmds = golden_scripts(duration=5.0)[0].commands(0.01)
        recs = oracle_log(cmds, 0.01, p)
        s = REST
        for cmd in cmds:
            s = step(s, cmd, p)
        assert (recs[-1].pose.x, recs[-1].pose.y) == s[:2]
        assert recs[-1].pose != oracle_log(cmds, 0.01)[-1].pose

    def test_circle_records_equal_pinned_digest(self):
        # five constant-steer laps each way: the heading leaves (-pi, pi]
        # above pi and at or below -pi, and the kernel wraps it back
        logs = {name: oracle_log([ControlCommand(0.5, 0.0, steering)] * 5000)
                for name, steering in (("left_circle", 0.3), ("right_circle", -0.3))}
        for recs in logs.values():
            hd = np.array([r.state.heading for r in recs])
            assert np.sum(np.abs(np.diff(hd)) > math.pi) == 5
        assert records_digest(logs) == \
            "f30f44d6311d7bc01c0f2cff01bbd2ac92484e0af13b2dfe33e404163ddf509a"

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.inf, -math.inf, math.nan])
    def test_dt_not_finite_and_positive_rejected(self, dt):
        cmds = [ControlCommand(0.5, 0, 0.1)] * 3
        for run in (lambda: oracle_log([], dt), lambda: oracle_log(cmds, dt)):
            with pytest.raises(ValidationError, match=r"^dt must be finite and positive"):
                run()

    def test_no_commands_give_one_record_at_rest(self):
        # every field a float, as in any other log: the command too
        (rec,) = oracle_log([], 0.01)
        fields = (rec.timestamp, rec.command.throttle, rec.command.brake, rec.command.steering,
                  rec.state.speed, rec.state.acceleration, rec.state.heading, rec.pose.x, rec.pose.y)
        assert [type(v) for v in fields] == [float] * 9 and not any(fields)

    def test_understeer_invariant(self):
        with pytest.raises(Exception):
            OracleParams(cornering_front=2e5, cornering_rear=1e5)


# command fields with their boundaries, signed zeros among them
UNIT = st.floats(0.0, 1.0) | st.sampled_from((0.0, -0.0, 1.0))
COMMAND = st.builds(ControlCommand, UNIT, UNIT,
                    st.floats(-1.0, 1.0) | st.sampled_from((0.0, -0.0, -1.0, 1.0)))
STATE = st.just(REST) | st.tuples(
    st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
    st.floats(-math.pi, math.pi, exclude_min=True) | st.sampled_from((math.pi, -3.14159)),
    st.floats(0.0, 40.0), st.floats(-2.0, 2.0), st.floats(-1.0, 1.0), st.floats(-8.0, 4.0),
    st.floats(-0.47, 0.47))
DT = st.sampled_from((0.01, 0.02, 0.005))


def flip_zeros(cmd: ControlCommand) -> ControlCommand:
    """cmd with the sign of each zero field flipped: equal under ==, not in bits."""
    return ControlCommand(*(-v if v == 0.0 else v for v in (cmd.throttle, cmd.brake, cmd.steering)))


class TestSharedDrive:
    @given(st.lists(COMMAND, max_size=40), st.data(), STATE, DT)
    def test_resumed_drive_equals_one_drive(self, commands, data, start, dt):
        # the 8-float state carries everything a tick reads: ax is set by
        # each substep before use, so a drive cut at any tick k resumes exactly
        k = data.draw(st.integers(0, len(commands)), label="k")
        p = OracleParams()
        rows, end = _drive(p, dt, start, commands)
        head, cut = _drive(p, dt, start, commands[:k])
        tail, resumed = _drive(p, dt, cut[:8], commands[k:])
        assert bits(head + tail) == bits(rows)
        # an empty drive returns its start state with an ax of 0.0, so
        # with nothing after the cut the cut's own state is the end
        assert bits(resumed if k < len(commands) else cut) == bits(end)
        assert bits(resumed[:8]) == bits(end[:8])

    @given(st.lists(COMMAND, max_size=30),
           st.lists(st.tuples(st.integers(0, 30), st.booleans(), st.lists(COMMAND, max_size=8)),
                    max_size=4), DT)
    def test_shared_drive_equals_each_list_alone(self, base, variants, dt):
        # lists cut from one base at drawn ticks, some going on with the
        # base's commands with their zeros' signs flipped, then a drawn tail
        lists = [base] + [base[:k] + ([flip_zeros(c) for c in base[k:]] if flipped else []) + tail
                          for k, flipped, tail in variants]
        logs = _oracle_logs(lists, dt)
        assert len({id(log) for log in logs}) == len(lists)
        for commands, log in zip(lists, logs, strict=True):
            assert record_bits(log) == record_bits(oracle_log(commands, dt))

    def test_signed_zero_steering_is_not_shared(self):
        # equal under ==, so sharing by == would hand `minus`
        # the records of `plus`, whose commands hold +0.0
        plus = [ControlCommand(0.4, 0.0, 0.0)] * 50 + [ControlCommand(0.4, 0.0, 0.3)] * 50
        minus = plus[:20] + [ControlCommand(0.4, 0.0, -0.0)] * 30 + plus[50:]
        for lists in ([plus, minus], [minus, plus]):
            logs = _oracle_logs(lists, 0.01)
            for commands, log in zip(lists, logs, strict=True):
                assert record_bits(log) == record_bits(oracle_log(commands, 0.01))


# out-of-range values per OracleParams field; NaN and both infinities are
# added to each, and the in-range boundary values must be accepted
BAD_PARAMS = {
    "mass": [0.0, -1800.0], "yaw_inertia": [0.0, -1.0], "lf": [0.0, -1.2],
    "lr": [0.0, -1.65], "cornering_front": [0.0, -1.2e5], "cornering_rear": [0.0, -1.3e5],
    "max_front_wheel_angle": [0.0, -0.47, math.pi / 2, 2.0],
    "throttle_gain": [0.0, -4.0], "brake_gain": [0.0, -8.0],
    "throttle_deadzone": [-0.01, 1.0, 1.5], "brake_deadzone": [-0.01, 1.0, 1.5],
    "throttle_tau": [0.0, -0.3], "steering_tau": [0.0, -0.1],
    "rolling_resistance": [-0.12], "drag_coeff": [-0.00023],
    "low_speed_blend": [0.0, -1.5],
}
GOOD_BOUNDARY = {"throttle_deadzone": 0.0, "brake_deadzone": 0.0,
                 "rolling_resistance": 0.0, "drag_coeff": 0.0, "max_front_wheel_angle": 1.5}


class TestOracleRanges:
    def test_every_field_covered(self):
        assert set(BAD_PARAMS) == {f.name for f in dataclasses.fields(OracleParams)}

    @pytest.mark.parametrize("field", sorted(BAD_PARAMS))
    def test_out_of_range_param_rejected(self, field):
        for value in BAD_PARAMS[field] + [math.nan, math.inf, -math.inf]:
            with pytest.raises(ValidationError, match=f"^{field} must be"):
                OracleParams(**{field: value})
        if field in GOOD_BOUNDARY:
            OracleParams(**{field: GOOD_BOUNDARY[field]})

    def test_kinematic_blend_cannot_divide_by_zero(self):
        # a zero blend speed would reach w = vx / blend inside the stepper
        with pytest.raises(ValidationError, match="^low_speed_blend must be"):
            OracleParams(low_speed_blend=0.0)


class TestGoldenSet:
    @pytest.fixture(scope="class")
    def logs(self):
        return generate_golden_set(0, loop_duration=60.0)

    def test_catalogue_size_and_names(self, logs):
        assert set(logs) == set(GOLDEN_NAMES) | {"loop"}
        assert len(logs) == 9

    def test_left_turn_net_heading(self, logs):
        assert heading_change(logs["left_turn"]) == pytest.approx(math.pi / 2, abs=0.2)

    def test_right_turn_mirrors_left(self, logs):
        assert heading_change(logs["right_turn"]) == pytest.approx(
            -heading_change(logs["left_turn"]), abs=1e-9)

    def test_u_turn_range(self, logs):
        net = heading_change(logs["left_u_turn"])
        assert 0.75 * math.pi < net < 1.35 * math.pi

    def test_stop_variants_reach_standstill(self, logs):
        for name in ("left_turn_stop", "right_turn_stop"):
            recs = logs[name]
            sp = np.array([r.state.speed for r in recs])
            t = np.array([r.timestamp for r in recs])
            mid = sp[(t > 5.0) & (t < 30.0)]
            assert mid.min() < 0.1

    def test_durations(self, logs):
        for name in GOLDEN_NAMES:
            assert len(logs[name]) == 6001
        assert len(logs["loop"]) == 6001  # loop_duration=60 here

    @pytest.mark.parametrize("scenario_s, loop_s", [(20.0, 24.0), (60.0, 60.0)])
    def test_logs_equal_oracle_log_of_each_script(self, logs, scenario_s, loop_s):
        # the shared prefixes are driven once; at 20 s right_turn_stop's
        # commands equal left_turn_stop's, so it shares every tick
        if scenario_s != 60.0:
            logs = generate_golden_set(0, loop_duration=loop_s, scenario_duration=scenario_s)
            assert all(a is b for a, b in zip(logs["right_turn_stop"][:-1], logs["left_turn_stop"]))
        scripts = golden_scripts(scenario_s) + [_loop_script(loop_s)]
        assert [s.name for s in scripts] == list(logs)
        assert len({id(log) for log in logs.values()}) == len(logs)
        for script in scripts:
            alone = oracle_log(script.commands(0.01), 0.01)
            assert record_bits(logs[script.name]) == record_bits(alone), script.name

    def test_same_seed_byte_identical(self, tmp_path):
        a = generate_golden_set(7, loop_duration=10.0, scenario_duration=10.0)
        b = generate_golden_set(7, loop_duration=10.0, scenario_duration=10.0)
        for name in a:
            pa, pb = tmp_path / f"a_{name}.csv", tmp_path / f"b_{name}.csv"
            write_log_csv(pa, a[name])
            write_log_csv(pb, b[name])
            assert pa.read_bytes() == pb.read_bytes()

    def test_records_equal_pinned_digest(self):
        # 20 s maneuvers reach the full stop of the *_stop ones, so the
        # forward-only clamp runs
        logs = generate_golden_set(0, loop_duration=10.0, scenario_duration=20.0)
        assert min(r.state.speed for r in logs["left_turn_stop"]) == 0.0
        assert records_digest(logs) == \
            "17ccbefe5deb46dd595b29a36a1fe915b4cce3eefa3caf3df39c9dd93c787ace"

    def test_60s_records_equal_pinned_digest(self, logs):
        # the class fixture's 60 s maneuvers and 60 s loop: the u-turns wrap
        # the heading past pi, the *_stop maneuvers and the loop stand still
        # for hundreds of ticks, and every script ends in a long hold
        for name in ("left_u_turn", "right_u_turn"):
            hd = np.array([r.state.heading for r in logs[name]])
            assert np.sum(np.abs(np.diff(hd)) > math.pi) == 1
        for name in ("left_turn_stop", "right_turn_stop", "loop"):
            assert sum(r.state.speed == 0.0 for r in logs[name]) > 300
        assert records_digest(logs) == \
            "9f05f9fa2c83f3d8966af123da121472eb6541e13bf290afebb05332e60d358b"

    def test_log_csv_round_trip(self, logs, tmp_path):
        # every cell is a plain float literal that parses back bit for bit
        path = tmp_path / "left_turn.csv"
        write_log_csv(path, logs["left_turn"])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [parse_log_row(row) for row in rows] == logs["left_turn"]

    def test_rule_based_model_diverges_everywhere(self, logs):
        # every golden scenario must leave a learnable residual
        dm = RuleBasedModel()
        for name in GOLDEN_NAMES:
            recs = logs[name]
            traj = rollout(dm, recs[0].pose, recs[0].state,
                           [r.command for r in recs[:-1]])
            gt = np.array([[r.pose.x, r.pose.y] for r in recs])
            m_ate = float(np.linalg.norm(traj.xy - gt, axis=1).mean())
            assert m_ate > 1.0, f"{name}: m-ATE {m_ate:.3f} m leaves nothing to learn"

    def test_scripts_cover_duration(self):
        for script in golden_scripts():
            assert script.duration == 60.0
            cmds = script.commands(0.01)
            assert len(cmds) == 6000

    @pytest.mark.parametrize("dt", [0.0, -0.0, -0.01, math.nan, math.inf])
    def test_commands_dt_not_finite_and_positive_rejected(self, dt):
        script = golden_scripts(duration=5.0)[0]
        for run in (lambda: script.commands(dt),
                    lambda: generate_golden_set(0, dt, loop_duration=5.0, scenario_duration=5.0)):
            with pytest.raises(ValidationError, match=r"^dt must be finite and positive"):
                run()

    @pytest.mark.parametrize("dt", [5e-324, 1e-300])
    def test_dt_too_small_for_numpy_to_size_the_ticks_rejected(self, monkeypatch, dt):
        # 5 s over 5e-324 s overflows to inf ticks; over 1e-300 s it is a
        # count whose float64 array numpy cannot size
        def drive(*args):
            raise AssertionError("drove a tick")
        monkeypatch.setattr(resdyn.scenarios, "_drive", drive)
        script = golden_scripts(duration=5.0)[0]
        message = re.escape(f"script '{script.name}': duration 5.0 at dt {dt!r} is "
                            f"{5.0 / dt!r} ticks, more than numpy can size")
        for run in (lambda: script.commands(dt),
                    lambda: generate_golden_set(0, dt, loop_duration=5.0, scenario_duration=5.0)):
            with pytest.raises(ValidationError, match=message):
                run()

    @pytest.mark.parametrize("dt, loop_s", [(math.nan, 5.0), (0.01, -1.0)])
    def test_bad_dt_or_loop_duration_rejected_before_driving(self, monkeypatch, dt, loop_s):
        def drive(*args):
            raise AssertionError("drove a tick")
        monkeypatch.setattr(resdyn.scenarios, "_drive", drive)
        with pytest.raises(ValidationError):
            generate_golden_set(0, dt, loop_duration=loop_s, scenario_duration=5.0)

    def test_infinite_loop_duration_rejected(self):
        # refused before planning: the planner adds segments until the
        # duration is met, which an infinite one never is
        with pytest.raises(ValidationError,
                           match=r"^script 'loop': duration must be finite and >= 0, got inf"):
            generate_golden_set(0, loop_duration=math.inf, scenario_duration=1.0)

    def test_oracle_log_is_well_formed(self, logs):
        recs = logs["left_turn"]
        ts = np.array([r.timestamp for r in recs])
        steps = np.diff(ts)
        assert np.max(np.abs(steps - 0.01)) < 1e-9
        assert all(r.state.speed >= 0 for r in recs)
        assert all(-math.pi < r.state.heading <= math.pi for r in recs)


def reference_commands(script: ScenarioScript, dt: float) -> list[tuple[str, str, str]]:
    """The script's command rule one tick at a time, as float.hex triples:
    at t = i * dt the first segment with t0 <= t < t1 wins, else the last;
    its ramp fraction (t - t0) / span is clamped to [0, 1] (0 for a span
    <= 0) and each field is p0 + a * (p1 - p0)."""
    out = []
    for i in range(int(round(script.duration / dt))):
        t = i * dt
        seg = next((s for s in script.segments if s.t0 <= t < s.t1), script.segments[-1])
        span = seg.t1 - seg.t0
        a = 0.0 if span <= 0 else min(max((t - seg.t0) / span, 0.0), 1.0)
        out.append(tuple(float.hex(p0 + a * (p1 - p0))
                         for p0, p1 in (seg.throttle, seg.brake, seg.steering)))
    return out


def hexed(commands) -> list[tuple[str, str, str]]:
    return [(c.throttle.hex(), c.brake.hex(), c.steering.hex()) for c in commands]


def hand_built_scripts() -> list[ScenarioScript]:
    return [
        # segment 1 has zero length; 2 overlaps 0 on [0.6, 1), where 0 wins;
        # [1.7, 2) is a gap that falls back to the last segment, before its
        # t0; 3 overlaps the last on [2.5, 2.9), where 3 wins
        ScenarioScript("hand_built", 3.0, (
            Segment(0.0, 1.0, (0.2, 0.6), (0.0, 0.0), (-0.3, 0.7)),
            Segment(0.5, 0.5, (1.0, 1.0), (1.0, 1.0), (1.0, 1.0)),
            Segment(0.6, 1.7, (0.9, 0.1), (0.3, 0.0), (0.5, -0.5)),
            Segment(2.0, 2.9, (0.0, 0.35), (0.05, 0.05), (-1.0, 1.0)),
            Segment(2.5, 3.0, (0.1, 0.4), (0.2, 0.7), (0.9, -0.8)))),
        # the gap [2, 2.5) falls back to a last segment of zero length
        ScenarioScript("zero_length_last", 2.5, (
            Segment(0.0, 2.0, (0.0, 1.0), (0.4, 0.1), (0.25, -0.75)),
            Segment(2.5, 2.5, (0.3, 0.9), (0.6, 0.0), (-0.2, 0.2)))),
    ]


class TestScriptCommands:
    @pytest.mark.parametrize("duration", [20.0, 60.0])
    def test_golden_commands_equal_scalar_reference(self, duration):
        for script in golden_scripts(duration):
            assert hexed(script.commands(0.01)) == reference_commands(script, 0.01), script.name

    @pytest.mark.parametrize("duration", [24.0, 600.0])
    def test_loop_commands_equal_scalar_reference(self, duration):
        script = _loop_script(duration)
        assert hexed(script.commands(0.01)) == reference_commands(script, 0.01)

    @pytest.mark.parametrize("dt", [0.01, 0.007])
    @pytest.mark.parametrize("script", hand_built_scripts(), ids=lambda s: s.name)
    def test_hand_built_commands_equal_scalar_reference(self, script, dt):
        assert hexed(script.commands(dt)) == reference_commands(script, dt)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf, -0.5])
    def test_bad_duration_rejected(self, duration):
        segs = (Segment(0.0, 1.0, (0.5, 0.5), (0.0, 0.0), (0.0, 0.0)),)
        with pytest.raises(ValidationError, match=r"^script 'x': duration must be finite"):
            ScenarioScript("x", duration, segs)

    @pytest.mark.parametrize("t0, t1", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf),
                                        (-math.inf, 1.0), (1.0, 0.5)])
    def test_bad_segment_bounds_rejected(self, t0, t1):
        with pytest.raises(ValidationError, match=r"^segment bounds must be finite"):
            Segment(t0, t1, (0.5, 0.5), (0.0, 0.0), (0.0, 0.0))

    def test_uncovered_duration_names_script_and_segment(self):
        first = Segment(0.0, 1.0, (0.5, 0.5), (0.0, 0.0), (0.0, 0.0))
        late = Segment(0.25, 1.0, (0.5, 0.5), (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(ValidationError, match=r"^script 'x': segment 0 starts at 0.25"):
            ScenarioScript("x", 1.0, (late, first))
        with pytest.raises(ValidationError, match=r"^script 'x': segment 1 ends at 1.0"):
            ScenarioScript("x", 2.0, (first, first))
        with pytest.raises(ValidationError, match=r"^script 'x': no segments"):
            ScenarioScript("x", 2.0, ())
