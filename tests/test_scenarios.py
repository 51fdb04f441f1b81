import csv
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from resdyn.core import ControlCommand, parse_log_row, write_log_csv
from resdyn.dynamics import RuleBasedModel, rollout
from resdyn.scenarios import (GOLDEN_NAMES, OracleParams, OracleState,
                              generate_golden_set, golden_scripts, oracle_log,
                              oracle_step)


def heading_change(recs):
    hd = np.array([r.state.heading for r in recs])
    dh = np.diff(hd)
    return float(((dh + np.pi) % (2 * np.pi) - np.pi).sum())


class TestOracleStep:
    def test_stationary_at_rest(self):
        s = OracleState()
        for _ in range(100):
            s = oracle_step(s, ControlCommand(0, 0, 0), 0.01)
        assert (s.x, s.y, s.vx, s.vy, s.yaw_rate) == (0, 0, 0, 0, 0)

    def test_steady_state_cornering(self):
        # hold speed with a test-side throttle loop, steer constant, then
        # compare the settled yaw rate to the linear-bicycle closed form
        p = OracleParams()
        s = OracleState(vx=8.0)
        target_v, steering = 8.0, 0.25
        rates, speeds = [], []
        for i in range(3000):
            thr = min(max(0.055 + 0.8 * (target_v - s.vx), 0.0), 1.0)
            s = oracle_step(s, ControlCommand(thr, 0, steering), 0.01, p)
            if i >= 2500:
                rates.append(s.yaw_rate)
                speeds.append(s.vx)
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
        s = OracleState()
        speeds = [0.0]
        for _ in range(2000):
            s = oracle_step(s, ControlCommand(0.4, 0, 0), 0.01, p)
            speeds.append(s.vx)
        speeds = np.array(speeds)
        t = np.arange(2001) * 0.01
        assert np.all(np.diff(speeds) >= -1e-12)  # monotone approach
        assert np.max(np.abs(speeds - ref.sol(t)[0])) < 5e-3

    def test_oracle_log_drives_the_given_vehicle(self):
        # a heavier, laggier vehicle: the log follows oracle_step with the
        # same params from rest, and not the nominal vehicle
        p = OracleParams(mass=2400.0, throttle_tau=0.5)
        cmds = golden_scripts(duration=5.0)[0].commands(0.01)
        recs = oracle_log(cmds, 0.01, p)
        s = OracleState()
        for cmd in cmds:
            s = oracle_step(s, cmd, 0.01, p)
        assert (recs[-1].pose.x, recs[-1].pose.y) == (s.x, s.y)
        assert recs[-1].pose != oracle_log(cmds, 0.01)[-1].pose

    def test_understeer_invariant(self):
        with pytest.raises(Exception):
            OracleParams(cornering_front=2e5, cornering_rear=1e5)


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

    def test_same_seed_byte_identical(self, tmp_path):
        a = generate_golden_set(7, loop_duration=10.0, scenario_duration=10.0)
        b = generate_golden_set(7, loop_duration=10.0, scenario_duration=10.0)
        for name in a:
            pa, pb = tmp_path / f"a_{name}.csv", tmp_path / f"b_{name}.csv"
            write_log_csv(pa, a[name])
            write_log_csv(pb, b[name])
            assert pa.read_bytes() == pb.read_bytes()

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

    def test_oracle_log_is_well_formed(self, logs):
        recs = logs["left_turn"]
        ts = np.array([r.timestamp for r in recs])
        steps = np.diff(ts)
        assert np.max(np.abs(steps - 0.01)) < 1e-9
        assert all(r.state.speed >= 0 for r in recs)
        assert all(-math.pi < r.state.heading <= math.pi for r in recs)
