import math

import numpy as np
import pytest

from resdyn.autodiff import save_checkpoint
from resdyn.core import ControlCommand, Pose, ValidationError, VehicleState, wrap_angle
from resdyn.dynamics import (MlpDynamicModel, RuleBasedModel, rollout, rollout_states,
                             tick_training_pairs, train_dm_lb)
from resdyn.rng import seeded_rng
from resdyn.scenarios import generate_golden_set

CMD0 = ControlCommand(0, 0, 0)
REST = VehicleState(0, 0, 0)
BAD_DTS = [0.0, -0.01, math.nan, math.inf, -math.inf]


def reference_table(model, pose, state, commands, dt=0.01):
    """`rollout_states` written tick by tick: math.cos and math.sin, and
    each tick's (x, y, heading, speed) update in one expression."""
    x, y, h, v, a = pose.x, pose.y, pose.heading, state.speed, state.acceleration
    rows = [(v, a, h, x, y)]
    for c in commands:
        a, rate = model.tick(c.throttle, c.brake, c.steering, v, a)
        x, y, h, v = (x + v * math.cos(h) * dt, y + v * math.sin(h) * dt,
                      wrap_angle(h + rate * dt), max(0.0, v + a * dt))
        rows.append((v, a, h, x, y))
    return np.array(rows)


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


def mlp_arrays():
    return {"w1": np.zeros((5, 8)), "b1": np.zeros(8), "w2": np.zeros((8, 2)),
            "b2": np.zeros(2), "in_mean": np.zeros(5), "in_std": np.ones(5),
            "out_mean": np.zeros(2), "out_std": np.ones(2)}


class TestMlpCheckpointBoundary:
    @pytest.mark.parametrize("key", list(mlp_arrays()))
    def test_missing_entry_named(self, tmp_path, key):
        arrays = mlp_arrays()
        del arrays[key]
        path = tmp_path / "dm.ckpt"
        save_checkpoint(path, arrays)
        with pytest.raises(ValidationError, match=f"dm.ckpt: checkpoint has no '{key}' entry"):
            MlpDynamicModel.load(path)

    @pytest.mark.parametrize("key, bad", [
        ("in_mean", np.zeros(3)), ("in_std", np.ones(3)), ("in_std", np.ones((5, 1))),
        ("out_mean", np.zeros(5)), ("out_std", np.ones(1)), ("out_std", np.ones((1, 2))),
        ("w1", np.zeros((8, 5))), ("in_std", np.zeros(5)), ("out_std", -np.ones(2))])
    def test_wrong_shape_or_std_named(self, tmp_path, key, bad):
        arrays = mlp_arrays()
        arrays[key] = bad
        path = tmp_path / "dm.ckpt"
        save_checkpoint(path, arrays)
        with pytest.raises(ValidationError, match=f"dm.ckpt: {key}"):
            MlpDynamicModel.load(path)

    @pytest.mark.parametrize("key", ["in_mean", "in_std", "out_mean", "out_std"])
    def test_non_finite_normalization_named(self, tmp_path, key):
        # save_checkpoint refuses NaN, so patch it into a saved payload
        arrays = mlp_arrays()
        arrays[key] = np.full(arrays[key].shape, 7.0)
        path = tmp_path / "dm.ckpt"
        save_checkpoint(path, arrays)
        raw = path.read_bytes()
        seven, nan = np.float64(7.0).tobytes(), np.float64(np.nan).tobytes()
        path.write_bytes(raw.replace(seven, nan, 1))
        with pytest.raises(ValidationError, match=f"dm.ckpt: entry '{key}' holds non-finite"):
            MlpDynamicModel.load(path)
        arrays[key] = np.full(arrays[key].shape, np.nan)
        weights = {k: arrays[k] for k in ("w1", "b1", "w2", "b2")}
        with pytest.raises(ValidationError, match=f"^{key} must be a finite array"):
            MlpDynamicModel(weights, arrays["in_mean"], arrays["in_std"],
                            arrays["out_mean"], arrays["out_std"])


class TestTickTrainingPairs:
    @pytest.mark.parametrize("dt", BAD_DTS)
    def test_bad_dt_rejected(self, dt):
        records = generate_golden_set(0, loop_duration=0.1, scenario_duration=0.1)["loop"]
        with pytest.raises(ValidationError, match="dt must be finite and positive"):
            tick_training_pairs(records, dt)

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_records_rejected(self, count):
        records = generate_golden_set(0, loop_duration=0.1, scenario_duration=0.1)["loop"]
        with pytest.raises(ValidationError, match=f"at least 2 records, got {count}$"):
            tick_training_pairs(records[:count], 0.01)


class TestTrainDmLb:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            train_dm_lb(np.empty((0, 5)), np.empty((0, 2)))

    @pytest.mark.parametrize("x_shape, y_shape", [
        ((10, 4), (10, 2)), ((10, 6), (10, 2)), ((10,), (10, 2)), ((10, 5, 1), (10, 2)),
        ((10, 5), (10, 3)), ((10, 5), (9, 2)), ((10, 5), (10,))])
    def test_wrong_shapes_rejected(self, x_shape, y_shape):
        with pytest.raises(ValidationError, match=r"features must be \(n, 5\) and labels \(n, 2\)"):
            train_dm_lb(np.zeros(x_shape), np.zeros(y_shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("what", ["features", "labels"])
    def test_non_finite_rejected_at_first_bad_index(self, what, bad):
        data = {"features": np.ones((10, 5)), "labels": np.ones((10, 2))}
        data[what][7, 1] = bad
        data[what][8, 0] = bad
        with pytest.raises(ValidationError, match=rf"non-finite {what} at index \(7, 1\)"):
            train_dm_lb(data["features"], data["labels"])

    @pytest.mark.parametrize("name, value", [("epochs", 0), ("epochs", -3), ("epochs", 2.5),
                                             ("patience", 0), ("patience", True)])
    def test_epochs_and_patience_must_be_positive_ints(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be a positive int"):
            train_dm_lb(np.ones((10, 5)), np.ones((10, 2)), **{name: value})

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


class Replay:
    """A stub model whose i-th tick returns outputs[i]."""

    def __init__(self, outputs):
        self._next = iter(outputs).__next__

    def tick(self, throttle, brake, steering, speed, acceleration):
        return self._next()


def small_lb_model(logs):
    x, y = tick_training_pairs(logs["loop"], 0.01)
    return train_dm_lb(x, y, seed=0, epochs=3)[0]


class TestRolloutStates:
    """`rollout_states` integrates the position after its loop, in one
    vectorized pass; it must equal the tick-by-tick rule bit for bit."""

    LOGS = generate_golden_set(0, loop_duration=6.0, scenario_duration=3.0)

    @pytest.mark.parametrize("kind", ["rb", "lb"])
    def test_windows_and_whole_logs_equal_reference(self, kind):
        model = RuleBasedModel() if kind == "rb" else small_lb_model(self.LOGS)
        cases = 0
        for name, records in self.LOGS.items():
            cmds = [r.command for r in records[:-1]]
            starts = list(range(0, len(cmds) - 100 + 1, 50))
            for i, n in [(i, 100) for i in starts] + [(0, len(cmds))]:
                r0 = records[i]
                got = rollout_states(model, r0.pose, r0.state, cmds[i:i + n])
                want = reference_table(model, r0.pose, r0.state, cmds[i:i + n])
                assert got.tobytes() == want.tobytes(), (name, i, n)
                cases += 1
        assert cases == 8 * 5 + 11 + 9   # golden and loop windows, whole logs

    @pytest.mark.parametrize("case", ["heading wraps", "stop", "stop and turn"])
    def test_wraps_and_stops_equal_reference(self, case):
        cmd = {"heading wraps": ControlCommand(0.3, 0, 1.0),
               "stop": ControlCommand(0, 1.0, 0),
               "stop and turn": ControlCommand(0, 0.4, -1.0)}[case]
        pose, state = Pose(5.0, -2.0, 3.0), VehicleState(6.0, 0.0, 3.0)
        model = RuleBasedModel()
        got = rollout_states(model, pose, state, [cmd] * 400)
        assert got.tobytes() == reference_table(model, pose, state, [cmd] * 400).tobytes()
        if case == "heading wraps":
            assert got[:, 2].max() > 3.1 and got[:, 2].min() < -3.1
        else:
            assert got[-1, 0] == 0.0 and got[-2, 0] == 0.0

    def test_clamp_maps_negative_zero_to_zero(self):
        # as max(0.0, speed) does: a speed of -0.0 leaves the tick as +0.0
        model = Replay([(-0.0, 0.0)] * 2)
        got = rollout_states(model, Pose(0, 0, 0), VehicleState(-0.0, 0.0, 0.0), [CMD0] * 2)
        want = reference_table(Replay([(-0.0, 0.0)] * 2), Pose(0, 0, 0),
                               VehicleState(-0.0, 0.0, 0.0), [CMD0] * 2)
        assert got.tobytes() == want.tobytes()
        assert math.copysign(1.0, got[1, 0]) == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("tick", [0, 50, 99])
    @pytest.mark.parametrize("output", ["accel", "rate"])
    def test_non_finite_output_rejected(self, output, tick, bad):
        # a NaN accel would otherwise vanish in the clamp: max(0.0, nan) == 0.0
        outputs = [(0.5, 0.1)] * 100
        outputs[tick] = (bad, 0.1) if output == "accel" else (0.5, bad)
        with pytest.raises(ValidationError, match=f"non-finite model output at tick {tick}"):
            rollout_states(Replay(outputs), Pose(0, 0, 0), REST, [CMD0] * 100)

    def test_state_overflowing_to_inf_rejected(self):
        with pytest.raises(ValidationError, match=r"non-finite rollout state .* \(1, 0\)"):
            rollout_states(Replay([(1e308, 0.0)]), Pose(0, 0, 0), REST, [CMD0], 10.0)

    @pytest.mark.parametrize("dt", BAD_DTS)
    def test_bad_dt_rejected_with_and_without_commands(self, dt):
        for cmds in ([], [CMD0] * 3):
            with pytest.raises(ValidationError, match="dt must be finite and positive"):
                rollout_states(RuleBasedModel(), Pose(0, 0, 0), REST, cmds, dt)

    def test_no_commands_gives_the_start_row(self):
        table = rollout_states(RuleBasedModel(), Pose(1, 2, 0.5), VehicleState(3, 0.25, 0.5), [])
        assert table.tolist() == [[3.0, 0.25, 0.5, 1.0, 2.0]]
