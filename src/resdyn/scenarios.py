"""Synthetic ground-truth vehicle and the golden maneuver catalogue.

The oracle is a dynamic bicycle with linear tires, first-order actuator
lags and rolling/aero resistance, sub-stepped at dt/10 with midpoint
integration. It is deliberately richer than the open-loop models so their
rollouts accumulate a structured, learnable residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (DEFAULT_DT, ControlCommand, LogRecord, Pose,
                   ValidationError, VehicleState, wrap_angle)

SUBSTEPS = 10


@dataclass(frozen=True)
class OracleParams:
    mass: float = 1800.0            # kg
    yaw_inertia: float = 3270.0     # kg m^2
    lf: float = 1.20                # m, CoG to front axle
    lr: float = 1.65                # m, CoG to rear axle
    cornering_front: float = 1.2e5  # N/rad
    cornering_rear: float = 1.3e5   # N/rad
    max_front_wheel_angle: float = 0.47
    throttle_gain: float = 4.0      # m/s^2 per unit
    brake_gain: float = 8.0
    throttle_deadzone: float = 0.02
    brake_deadzone: float = 0.02
    throttle_tau: float = 0.3       # s, longitudinal actuator lag
    steering_tau: float = 0.1       # s
    rolling_resistance: float = 0.12   # m/s^2 opposing motion
    drag_coeff: float = 0.00023        # 1/m, quadratic
    low_speed_blend: float = 1.5       # m/s, below this the tires are kinematic

    def __post_init__(self):
        for name in ("mass", "yaw_inertia", "lf", "lr", "cornering_front",
                     "cornering_rear", "throttle_tau", "steering_tau"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        # understeering configuration keeps the linear bicycle stable
        if self.lr * self.cornering_rear <= self.lf * self.cornering_front:
            raise ValidationError("oracle must understeer: lr*Cr > lf*Cf")

    @property
    def wheelbase(self) -> float:
        return self.lf + self.lr

    @property
    def understeer_gradient(self) -> float:
        return (self.mass / self.wheelbase) * (self.lr / self.cornering_front
                                               - self.lf / self.cornering_rear)

    def steady_state_yaw_rate(self, speed: float, wheel_angle: float) -> float:
        return speed * wheel_angle / (self.wheelbase
                                      + self.understeer_gradient * speed * speed)


@dataclass
class OracleState:
    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    vx: float = 0.0        # body longitudinal velocity, >= 0
    vy: float = 0.0        # body lateral velocity
    yaw_rate: float = 0.0
    accel_lag: float = 0.0       # lagged longitudinal actuator output
    wheel_angle: float = 0.0     # lagged front wheel angle
    last_ax: float = 0.0         # realized longitudinal accel (for logging)


def _derivatives(s: list[float], p: OracleParams,
                 accel_target: float, wheel_target: float):
    """Time derivatives of the 8-float state (x, y, heading, vx, vy,
    yaw_rate, accel_lag, wheel_angle), and the realized longitudinal accel."""
    _, _, heading, vx, vy, yaw_rate, accel_lag, wheel_angle = s
    dx_acc = (accel_target - accel_lag) / p.throttle_tau
    dx_whl = (wheel_target - wheel_angle) / p.steering_tau

    # rolling resistance tapers in over the first 0.1 m/s so launch
    # dynamics stay continuous (no chattering at standstill)
    taper = min(vx / 0.1, 1.0) if vx > 0.0 else 0.0
    drag = (p.rolling_resistance + p.drag_coeff * vx * vx) * taper
    ax = accel_lag - drag

    v_safe = max(vx, p.low_speed_blend)
    alpha_f = math.atan2(vy + p.lf * yaw_rate, v_safe) - wheel_angle
    alpha_r = math.atan2(vy - p.lr * yaw_rate, v_safe)
    f_front = -p.cornering_front * alpha_f
    f_rear = -p.cornering_rear * alpha_r

    dvy = (f_front * math.cos(wheel_angle) + f_rear) / p.mass - yaw_rate * vx
    dr = (p.lf * f_front * math.cos(wheel_angle) - p.lr * f_rear) / p.yaw_inertia
    # cornering drag: longitudinal component of the front lateral force
    ax -= f_front * math.sin(wheel_angle) / p.mass

    # below the blend speed the dynamic tire equations lose validity; pull
    # lateral states toward the kinematic bicycle solution instead
    if vx < p.low_speed_blend:
        r_kin = vx * math.tan(wheel_angle) / p.wheelbase
        vy_kin = r_kin * p.lr
        w = vx / p.low_speed_blend
        dvy = w * dvy + (1.0 - w) * (vy_kin - vy) / 0.2
        dr = w * dr + (1.0 - w) * (r_kin - yaw_rate) / 0.2

    dvx = ax + yaw_rate * vy
    dxw = vx * math.cos(heading) - vy * math.sin(heading)
    dyw = vx * math.sin(heading) + vy * math.cos(heading)
    return (dxw, dyw, yaw_rate, dvx, dvy, dr, dx_acc, dx_whl), ax


def _clamp_forward(s: list[float]) -> list[float]:
    # forward driving only; a stopped vehicle has no lateral motion either
    if s[3] <= 0.0:
        s[3] = s[4] = s[5] = 0.0
    return s


def oracle_step(state: OracleState, cmd: ControlCommand, dt: float,
                params: OracleParams | None = None) -> OracleState:
    """Advance the oracle by one control tick (midpoint rule, dt/10 substeps)."""
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    p = params or OracleParams()
    accel_target = (p.throttle_gain * max(0.0, cmd.throttle - p.throttle_deadzone)
                    - p.brake_gain * max(0.0, cmd.brake - p.brake_deadzone))
    wheel_target = cmd.steering * p.max_front_wheel_angle

    s = [state.x, state.y, state.heading, state.vx, state.vy,
         state.yaw_rate, state.accel_lag, state.wheel_angle]
    h = dt / SUBSTEPS
    half = 0.5 * h
    ax = state.last_ax
    for _ in range(SUBSTEPS):
        k1, _ = _derivatives(s, p, accel_target, wheel_target)
        mid = _clamp_forward([v + half * k for v, k in zip(s, k1)])
        k2, ax = _derivatives(mid, p, accel_target, wheel_target)
        s = _clamp_forward([v + h * k for v, k in zip(s, k2)])
    x, y, heading, vx, vy, yaw_rate, accel_lag, wheel_angle = s
    return OracleState(x, y, wrap_angle(heading), vx, vy, yaw_rate,
                       accel_lag, wheel_angle, ax)


def oracle_log(commands: list[ControlCommand], dt: float = DEFAULT_DT,
               params: OracleParams | None = None) -> list[LogRecord]:
    """Drive the oracle from rest at the origin through a command sequence;
    one record per tick, |commands|+1 records."""
    s = OracleState()
    p = params or OracleParams()
    records = []
    cmd0 = commands[0] if commands else ControlCommand(0, 0, 0)
    records.append(_record(0.0, cmd0, s))
    for i, cmd in enumerate(commands):
        s = oracle_step(s, cmd, dt, p)
        nxt = commands[i + 1] if i + 1 < len(commands) else cmd
        records.append(_record((i + 1) * dt, nxt, s))
    return records


def _record(t: float, cmd: ControlCommand, s: OracleState) -> LogRecord:
    return LogRecord(t, cmd,
                     VehicleState(max(s.vx, 0.0), s.last_ax, wrap_angle(s.heading)),
                     Pose(s.x, s.y, wrap_angle(s.heading)))


# -- scenario scripts ---------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """Linear command ramp over [t0, t1)."""
    t0: float
    t1: float
    throttle: tuple[float, float]
    brake: tuple[float, float]
    steering: tuple[float, float]

    def at(self, t: float) -> ControlCommand:
        span = self.t1 - self.t0
        a = 0.0 if span <= 0 else min(max((t - self.t0) / span, 0.0), 1.0)
        lerp = lambda pair: pair[0] + a * (pair[1] - pair[0])
        return ControlCommand(lerp(self.throttle), lerp(self.brake), lerp(self.steering))


@dataclass(frozen=True)
class ScenarioScript:
    name: str
    duration: float
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments or self.segments[0].t0 > 0.0 \
                or self.segments[-1].t1 < self.duration:
            raise ValidationError(f"{self.name}: segments must cover [0, duration]")

    def command(self, t: float) -> ControlCommand:
        for seg in self.segments:
            if seg.t0 <= t < seg.t1:
                return seg.at(t)
        return self.segments[-1].at(t)

    def commands(self, dt: float = DEFAULT_DT) -> list[ControlCommand]:
        n = int(round(self.duration / dt))
        return [self.command(i * dt) for i in range(n)]


def _hold(t0, t1, throttle=0.0, brake=0.0, steering=0.0) -> Segment:
    return Segment(t0, t1, (throttle, throttle), (brake, brake), (steering, steering))


def _ramp(t0, t1, throttle=(0.0, 0.0), brake=(0.0, 0.0), steering=(0.0, 0.0)) -> Segment:
    return Segment(t0, t1, throttle, brake, steering)


class _Plan:
    """Builds open-loop command segments from speed/turn intents using the
    nominal vehicle's actuator map, so scripted maneuvers land near their
    target speeds without any feedback controller."""

    ACCEL, STOP_DECEL = 1.0, 2.0   # m/s^2, rough rates of speed changes and of stops

    def __init__(self):
        self.p = OracleParams()
        self.segs: list[Segment] = []
        self.t = 0.0
        self.v = 0.0
        self.steer = 0.0

    def _cruise_throttle(self, v: float) -> float:
        p = self.p
        need = p.rolling_resistance + p.drag_coeff * v * v
        return need / p.throttle_gain + p.throttle_deadzone

    def _go_throttle(self, v_mid: float, accel: float) -> float:
        p = self.p
        need = accel + p.rolling_resistance + p.drag_coeff * v_mid * v_mid
        return min(1.0, need / p.throttle_gain + p.throttle_deadzone)

    def speed_to(self, v_target: float):
        """Accelerate or brake toward v_target at roughly `ACCEL`."""
        p, rate = self.p, self.ACCEL
        dv = v_target - self.v
        # the actuator lag eats ~tau of effective ramp time
        span = max(abs(dv) / rate + p.throttle_tau, 0.5)
        if dv >= 0:
            thr = self._go_throttle(0.5 * (self.v + v_target), rate)
            self.segs.append(_hold(self.t, self.t + span, throttle=thr,
                                   steering=self.steer))
        else:
            drag = p.rolling_resistance + p.drag_coeff * (0.5 * (self.v + v_target)) ** 2
            brk = min(1.0, max(0.0, (rate - drag) / p.brake_gain) + p.brake_deadzone)
            self.segs.append(_hold(self.t, self.t + span, brake=brk,
                                   steering=self.steer))
        self.t += span
        self.v = v_target

    def stop(self, hold: float = 2.0):
        span = max(self.v / self.STOP_DECEL, 0.5) + 1.0  # margin drains actuator lag
        self.segs.append(_hold(self.t, self.t + span, brake=0.45, steering=self.steer))
        self.t += span
        self.segs.append(_hold(self.t, self.t + hold, brake=0.5))
        self.t += hold
        self.v = 0.0
        self.steer = 0.0

    def cruise(self, span: float):
        self.segs.append(_hold(self.t, self.t + span,
                               throttle=self._cruise_throttle(self.v),
                               steering=self.steer))
        self.t += span

    def steer_to(self, steering: float, ramp: float = 1.0):
        thr = self._cruise_throttle(self.v)
        self.segs.append(_ramp(self.t, self.t + ramp, throttle=(thr, thr),
                               steering=(self.steer, steering)))
        self.t += ramp
        self.steer = steering

    def turn(self, angle: float, steering: float):
        """Steer through a net heading change of `angle` at current speed."""
        p = self.p
        v = max(self.v, 0.5)
        wheel = steering * p.max_front_wheel_angle
        rate = abs(p.steady_state_yaw_rate(v, wheel))
        # cornering drag at steady state: F_yf sin(wheel)/m with
        # F_yf = m a_lat lr/L; hold speed by feeding it forward
        corner_drag = abs(rate * v * (p.lr / p.wheelbase) * math.sin(wheel))
        thr = self._cruise_throttle(v) + corner_drag / p.throttle_gain
        self.segs.append(_ramp(self.t, self.t + 1.0, throttle=(thr, thr),
                               steering=(self.steer, steering)))
        self.t += 1.0
        self.steer = steering
        hold = max(abs(angle) / rate - 1.0, 0.0)     # both ramps sum to ~1 s
        self.segs.append(_hold(self.t, self.t + hold, throttle=thr,
                               steering=steering))
        self.t += hold
        self.segs.append(_ramp(self.t, self.t + 1.0, throttle=(thr, thr),
                               steering=(steering, 0.0)))
        self.t += 1.0
        self.steer = 0.0

    def finish(self, duration: float):
        if self.t < duration:
            self.cruise(duration - self.t)
        self.t = duration


def _turn_script(name: str, sign: float, u_turn: bool, with_stop: bool,
                 duration: float) -> ScenarioScript:
    plan = _Plan()
    plan.speed_to(8.0)
    plan.cruise(3.0)
    if with_stop:
        plan.stop(hold=2.0)
        plan.speed_to(7.0)
        plan.cruise(2.0)
    if u_turn:
        plan.speed_to(5.0)
        plan.turn(sign * math.pi, sign * 0.55)
    else:
        plan.turn(sign * math.pi / 2.0, sign * 0.32)
    plan.cruise(4.0)
    plan.speed_to(10.0 if not with_stop else 8.0)
    plan.cruise(5.0)
    plan.speed_to(6.0)
    plan.finish(duration)
    return ScenarioScript(name, duration, tuple(plan.segs))


def _zigzag_script(name: str, sign: float, duration: float) -> ScenarioScript:
    plan = _Plan()
    plan.speed_to(7.0)
    plan.cruise(2.0)
    s = sign
    for _ in range(7):
        plan.steer_to(0.28 * s, ramp=1.2)
        plan.cruise(1.8)
        s = -s
    plan.steer_to(0.0, ramp=1.2)
    plan.speed_to(9.0)
    plan.cruise(3.0)
    plan.speed_to(6.0)
    plan.finish(duration)
    return ScenarioScript(name, duration, tuple(plan.segs))


def _loop_script(duration: float) -> ScenarioScript:
    """Mixed urban-style profile: speed changes, stops, turns both ways,
    lane-change wiggles; cycles a varied block until the duration is met."""
    plan = _Plan()
    speeds = (6.0, 9.0, 12.0, 7.0, 10.0, 5.0)
    turns = (0.30, -0.34, 0.22, -0.26, 0.45, -0.20, 0.55, -0.48)
    angles = (0.8, -0.9, 0.5, -0.6, 1.3, -0.5, 1.5, -1.2)
    i = 0
    while plan.t < duration - 1.0:
        v = speeds[i % len(speeds)]
        plan.speed_to(v)
        plan.cruise(2.0 + (i % 3))
        plan.turn(angles[i % len(angles)], turns[i % len(turns)])
        plan.cruise(1.5 + (i % 2))
        # lane-change style wiggle every third block
        if i % 3 == 2:
            plan.steer_to(0.15 if i % 2 else -0.15, ramp=0.8)
            plan.cruise(0.8)
            plan.steer_to(0.0, ramp=0.8)
        # full stop every fourth block, as at a light
        if i % 4 == 3:
            plan.stop(hold=1.5)
        i += 1
    plan.finish(duration)
    return ScenarioScript("loop", duration, tuple(plan.segs))


GOLDEN_NAMES = ("left_turn", "left_turn_stop", "right_turn", "right_turn_stop",
                "left_u_turn", "right_u_turn", "zigzag_left", "zigzag_right")


def golden_scripts(duration: float = 60.0) -> list[ScenarioScript]:
    """The eight golden maneuvers, planned for the nominal `OracleParams()`."""
    return [
        _turn_script("left_turn", +1.0, u_turn=False, with_stop=False, duration=duration),
        _turn_script("left_turn_stop", +1.0, u_turn=False, with_stop=True, duration=duration),
        _turn_script("right_turn", -1.0, u_turn=False, with_stop=False, duration=duration),
        _turn_script("right_turn_stop", -1.0, u_turn=False, with_stop=True, duration=duration),
        _turn_script("left_u_turn", +1.0, u_turn=True, with_stop=False, duration=duration),
        _turn_script("right_u_turn", -1.0, u_turn=True, with_stop=False, duration=duration),
        _zigzag_script("zigzag_left", +1.0, duration=duration),
        _zigzag_script("zigzag_right", -1.0, duration=duration),
    ]


def generate_golden_set(seed: int = 0, dt: float = DEFAULT_DT,
                        loop_duration: float = 600.0,
                        scenario_duration: float = 60.0
                        ) -> dict[str, list[LogRecord]]:
    """The eight golden maneuvers plus one long mixed loop, driven by the
    nominal vehicle `OracleParams()`.

    The scripts are deterministic; the seed perturbs nothing physical and
    is kept for interface stability of callers that thread it through.
    """
    del seed  # scripted catalogue; generation is deterministic by design
    logs = {}
    for script in golden_scripts(scenario_duration):
        logs[script.name] = oracle_log(script.commands(dt), dt)
    loop = _loop_script(loop_duration)
    logs[loop.name] = oracle_log(loop.commands(dt), dt)
    return logs
