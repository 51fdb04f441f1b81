import math

import numpy as np
import pytest

from resdyn.core import ControlCommand, Pose, ValidationError, VehicleState
from resdyn.dynamics import (MlpDynamicModel, RuleBasedModel, rollout, rollout_states,
                             tick_training_pairs, train_dm_lb)
from resdyn.rng import seeded_rng
from resdyn.scenarios import generate_golden_set

CMD0 = ControlCommand(0, 0, 0)
REST = VehicleState(0, 0, 0)


def zero_mlp():
    w = {"w1": np.zeros((5, 8)), "b1": np.zeros(8),
         "w2": np.zeros((8, 2)), "b2": np.zeros(2)}
    return MlpDynamicModel(w, np.zeros(5), np.ones(5), np.zeros(2), np.ones(2))


class TestRuleBased:
    # tick arguments: throttle, brake, steering, speed, acceleration
    def test_zero_command_at_rest(self):
        assert RuleBasedModel().tick(0, 0, 0, 0, 0) == (0.0, 0.0)

    def test_zero_steering_no_turn(self):
        for thr in (0.1, 0.5, 1.0):
            _, rate = RuleBasedModel().tick(thr, 0, 0, 5, 0)
            assert rate == 0.0

    def test_heading_rate_closed_form(self):
        # wheelbase 2.85 m, front wheel at 0.47 rad per unit steering
        _, rate = RuleBasedModel().tick(0, 0, 0.5, 5, 0)
        assert rate == pytest.approx(5.0 * math.tan(0.235) / 2.85)

    def test_odd_in_steering(self):
        m = RuleBasedModel()
        for st in (0.1, 0.33, 0.9):
            a1, r1 = m.tick(0.3, 0, st, 7, 0)
            a2, r2 = m.tick(0.3, 0, -st, 7, 0)
            assert r1 == -r2
            assert a1 == a2

    def test_deadzone_and_drag(self):
        # gains 4 and 8 m/s^2, deadzones 0.02, drag 0.002 / m
        m = RuleBasedModel()
        a, _ = m.tick(0.01, 0.015, 0, 10, 0)
        assert a == pytest.approx(-0.002 * 100)  # inside deadzones: drag only
        a, _ = m.tick(0.5, 0, 0, 0, 0)
        assert a == pytest.approx(4 * 0.48)
        a, _ = m.tick(0, 0.5, 0, 0, 0)
        assert a == pytest.approx(-8 * 0.48)


class TestMlpModel:
    def test_all_zero_weights(self):
        assert zero_mlp().tick(0.7, 0, 0.2, 5, 1) == (0.0, 0.0)

    def test_handcrafted_accel_passthrough(self):
        # hidden pair relu(a) - relu(-a) reconstructs the acceleration input
        w1 = np.zeros((5, 8))
        w1[4, 0], w1[4, 1] = 1.0, -1.0
        w2 = np.zeros((8, 2))
        w2[0, 0], w2[1, 0] = 1.0, -1.0
        m = MlpDynamicModel({"w1": w1, "b1": np.zeros(8), "w2": w2, "b2": np.zeros(2)},
                            np.zeros(5), np.ones(5), np.zeros(2), np.ones(2))
        for accel in (-2.0, 0.0, 1.7):
            out = m.tick(0.4, 0, 0.1, 3, accel)
            assert out[0] == pytest.approx(accel)
            assert out[1] == 0.0

    def test_rejects_nonpositive_std(self):
        w = {"w1": np.zeros((5, 8)), "b1": np.zeros(8),
             "w2": np.zeros((8, 2)), "b2": np.zeros(2)}
        with pytest.raises(ValidationError):
            MlpDynamicModel(w, np.zeros(5), np.zeros(5), np.zeros(2), np.ones(2))

    def test_save_load_deterministic(self, tmp_path):
        rng = seeded_rng(0, "mlp-io")
        w = {"w1": rng.standard_normal((5, 8)), "b1": rng.standard_normal(8),
             "w2": rng.standard_normal((8, 2)), "b2": rng.standard_normal(2)}
        m = MlpDynamicModel(w, np.zeros(5), np.ones(5), np.zeros(2), np.ones(2))
        m.save(tmp_path / "dm.ckpt")
        m2 = MlpDynamicModel.load(tmp_path / "dm.ckpt")
        row = (0.3, 0.1, -0.2, 4, 0.5)
        assert m.tick(*row) == m2.tick(*row)


class TestTrainDmLb:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            train_dm_lb(np.empty((0, 5)), np.empty((0, 2)))

    def test_identical_rows_converge_to_constant(self):
        x = np.tile([0.3, 0.0, 0.1, 5.0, 0.5], (64, 1))
        y = np.tile([0.5, 0.02], (64, 1))
        model, report = train_dm_lb(x, y, seed=1, epochs=60)
        assert report.train_mse[-1] < 1e-4
        out = model.tick(0.3, 0, 0.1, 5, 0.5)
        assert out[0] == pytest.approx(0.5, abs=1e-3)
        assert out[1] == pytest.approx(0.02, abs=1e-3)

    def test_linear_ground_truth(self):
        rng = seeded_rng(2, "lin")
        x = rng.uniform([0, 0, -1, 0, -2], [1, 1, 1, 15, 2], size=(2000, 5))
        y = np.stack([2.0 * x[:, 0] - 3.0 * x[:, 1] - 0.01 * x[:, 3],
                      0.4 * x[:, 2] * 1.0], axis=1)
        model, report = train_dm_lb(x, y, seed=2, epochs=300)
        val = report.best_val_mse * np.var(y, axis=0).mean()  # de-normalized
        assert val < 1e-3

    def test_same_seed_checkpoints_byte_identical(self, tmp_path):
        rng = seeded_rng(4, "ckpt-data")
        x = rng.uniform([0, 0, -1, 0, -2], [1, 1, 1, 15, 2], size=(600, 5))
        y = np.stack([x[:, 0] - x[:, 1], 0.4 * x[:, 2]], axis=1)
        paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
        for path in paths:
            model, _ = train_dm_lb(x, y, seed=5, epochs=20)
            model.save(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        loaded = MlpDynamicModel.load(paths[0])
        for row in x[:8]:
            assert loaded.tick(*row) == model.tick(*row)

    def test_oracle_logs_beat_untrained_and_rule_based(self):
        logs = generate_golden_set(0, loop_duration=45.0, scenario_duration=1.0)
        recs = logs["loop"]
        x, y = tick_training_pairs(recs, 0.01)
        model, report = train_dm_lb(x, y, seed=3, epochs=120)
        assert report.best_val_mse < report.val_mse[0] / 10.0

        # held-out ticks: one-step RMSE of the trained net vs the rule-based map
        hold = generate_golden_set(0, loop_duration=1.0, scenario_duration=20.0)
        xh, yh = tick_training_pairs(hold["left_turn"], 0.01)
        pred_lb = model.tick_batch(xh)
        rb = RuleBasedModel()
        pred_rb = np.array([rb.tick(*row) for row in xh])
        scale = np.std(yh, axis=0)
        rmse_lb = np.sqrt(np.mean(((pred_lb - yh) / scale) ** 2))
        rmse_rb = np.sqrt(np.mean(((pred_rb - yh) / scale) ** 2))
        assert rmse_lb < rmse_rb


class TestRollout:
    def test_zero_commands_stationary(self):
        traj = rollout(RuleBasedModel(), Pose(3, 4, 0.5), REST, [CMD0] * 50)
        assert len(traj) == 51
        assert np.allclose(traj.xy, [3, 4])
        assert np.all(traj.speeds == 0)

    def test_straight_line_monotone(self):
        cmds = [ControlCommand(0.4, 0, 0)] * 200
        traj = rollout(RuleBasedModel(), Pose(0, 0, 0), REST, cmds)
        assert len(traj) == 201
        assert np.all(np.diff(traj.xy[:, 0]) >= 0)
        assert np.all(traj.xy[2:, 0] > 0)  # first tick starts from rest
        assert traj.xy[-1, 0] > 1.0
        assert np.all(traj.xy[:, 1] == 0)

    def test_states_table_matches_rollout(self):
        rng = seeded_rng(5, "cmds")
        cmds = [ControlCommand(rng.uniform(0, 0.5), 0, rng.uniform(-0.3, 0.3))
                for _ in range(100)]
        start = VehicleState(2.0, 0.1, 0.2)
        traj = rollout(RuleBasedModel(), Pose(1, -1, 0.2), start, cmds)
        table = rollout_states(RuleBasedModel(), Pose(1, -1, 0.2), start, cmds)
        assert table.shape == (101, 5)
        assert np.array_equal(table[:, 0], traj.speeds)
        assert np.array_equal(table[:, 2], traj.poses[:, 2])
        assert np.array_equal(table[:, 3:], traj.xy)
        assert np.array_equal(traj.timestamps, np.arange(101) * 0.01)

    def test_nonfinite_model_output_rejected(self):
        class Exploding:
            def tick(self, throttle, brake, steering, speed, acceleration):
                return math.inf, 0.0

        with pytest.raises(ValidationError):
            rollout(Exploding(), Pose(0, 0, 0), REST, [CMD0] * 3)

    def test_start_heading_outside_range_rejected(self):
        with pytest.raises(ValidationError):
            rollout(RuleBasedModel(), Pose(0, 0, 4.0), REST, [CMD0] * 3)
