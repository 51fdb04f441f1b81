"""Synthetic ground-truth vehicle and the golden maneuver catalogue.

The oracle is a dynamic bicycle with linear tires, first-order actuator
lags and rolling/aero resistance, sub-stepped at dt/10 with midpoint
integration. It is deliberately richer than the open-loop models so their
rollouts accumulate a structured, learnable residual.

One kernel, `_drive`, steps a whole command list on plain floats, with
both midpoint stages written out in its substep loop. `_oracle_logs` runs
it for a set of logs, then builds the records, and drives each command
prefix the logs share only once: from rest, with the same dt and params,
the rows and state after a prefix depend on its commands' bits alone. A
later log holds the earlier one's records before the shared prefix ends
and is driven on from the state there. `oracle_log` is the one-log case;
in `generate_golden_set` the turn maneuvers share their opening blocks,
and each right-hand one its left-hand twin's up to the first steer.
A script's commands are evaluated for every tick in one numpy pass, with
the same IEEE operations a per-tick evaluation would make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import pairwise

import numpy as np

from .core import (DEFAULT_DT, ControlCommand, LogRecord, Pose,
                   ValidationError, VehicleState, check_dt, wrap_angle_array)

SUBSTEPS = 10


@dataclass(frozen=True)
class OracleParams:
    """Oracle vehicle. Every field is finite; the deadzones lie in [0, 1),
    the resistance terms are >= 0, the wheel angle limit lies in
    (0, pi/2) and every other field is > 0. A ValidationError names the
    first field out of range."""

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
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name in ("throttle_deadzone", "brake_deadzone"):
                ok, want = 0.0 <= v < 1.0, "in [0, 1)"
            elif f.name in ("rolling_resistance", "drag_coeff"):
                ok, want = 0.0 <= v < math.inf, "finite and >= 0"
            elif f.name == "max_front_wheel_angle":
                ok, want = 0.0 < v < 0.5 * math.pi, "in (0, pi/2)"
            else:
                ok, want = 0.0 < v < math.inf, "finite and > 0"
            if not ok:
                raise ValidationError(f"{f.name} must be {want}, got {v!r}")
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


def _drive(p: OracleParams, dt: float, s: tuple, commands) -> tuple[list, tuple]:
    """Step vehicle `p` from the 8-float state `s` (x, y, heading, vx, vy,
    yaw_rate, accel_lag, wheel_angle) through `commands`, one control tick
    each, by the midpoint rule at dt/10 substeps. Returns the flat list of
    (x, y, heading, vx, ax) after every tick, and the final state as the 8
    floats of `s` followed by `ax`; `ax` is the realized longitudinal accel
    of a tick's last substep (0.0 with no commands), and every tick ends with
    the heading wrapped. Both midpoint stages are written out on float
    locals, and the parameters are read once here, not on every substep.
    Its one caller, `_oracle_logs`, checks dt."""
    mass, inertia, lf, lr = p.mass, p.yaw_inertia, p.lf, p.lr
    neg_cf, neg_cr, wheelbase = -p.cornering_front, -p.cornering_rear, p.wheelbase
    throttle_tau, steering_tau, blend = p.throttle_tau, p.steering_tau, p.low_speed_blend
    rolling, drag_coeff = p.rolling_resistance, p.drag_coeff
    throttle_gain, throttle_deadzone = p.throttle_gain, p.throttle_deadzone
    brake_gain, brake_deadzone = p.brake_gain, p.brake_deadzone
    max_wheel, pi = p.max_front_wheel_angle, math.pi
    cos, sin, tan, atan2 = math.cos, math.sin, math.tan, math.atan2
    h = dt / SUBSTEPS
    half = 0.5 * h
    substeps = range(SUBSTEPS)
    x, y, heading, vx, vy, yaw_rate, accel_lag, wheel_angle = s
    ax = 0.0
    rows = []
    for cmd in commands:
        # a comparison stands for max(0.0, d), here and below for min/max:
        # the builtin calls cost 15% of a tick
        d_thr = cmd.throttle - throttle_deadzone
        d_brk = cmd.brake - brake_deadzone
        accel_target = (throttle_gain * (d_thr if d_thr > 0.0 else 0.0)
                        - brake_gain * (d_brk if d_brk > 0.0 else 0.0))
        wheel_target = cmd.steering * max_wheel
        for _ in substeps:
            # stage 1, the rates at the substep's start. Rolling resistance
            # tapers in over the first 0.1 m/s so launch dynamics stay
            # continuous (no chattering at standstill); from 0.1 m/s on,
            # vx / 0.1 rounds to >= 1.0, so the taper is exactly 1.0
            drag = rolling + drag_coeff * vx * vx
            if vx < 0.1:
                drag *= vx / 0.1 if vx > 0.0 else 0.0
            v_safe = blend if vx < blend else vx
            f_front = neg_cf * (atan2(vy + lf * yaw_rate, v_safe) - wheel_angle)
            f_rear = neg_cr * atan2(vy - lr * yaw_rate, v_safe)
            cos_wheel = cos(wheel_angle)
            dvy = (f_front * cos_wheel + f_rear) / mass - yaw_rate * vx
            dr = (lf * f_front * cos_wheel - lr * f_rear) / inertia
            # cornering drag: longitudinal component of the front lateral force
            ax = accel_lag - drag - f_front * sin(wheel_angle) / mass
            # below the blend speed the dynamic tire equations lose validity;
            # pull lateral states toward the kinematic bicycle solution instead
            if vx < blend:
                r_kin = vx * tan(wheel_angle) / wheelbase
                w = vx / blend
                dvy = w * dvy + (1.0 - w) * (r_kin * lr - vy) / 0.2
                dr = w * dr + (1.0 - w) * (r_kin - yaw_rate) / 0.2

            # the midpoint; forward driving only, and a stopped vehicle has
            # no lateral motion either
            m_vx = vx + half * (ax + yaw_rate * vy)
            if m_vx <= 0.0:
                m_vx = m_vy = m_yaw_rate = 0.0
            else:
                m_vy = vy + half * dvy
                m_yaw_rate = yaw_rate + half * dr
            m_heading = heading + half * yaw_rate
            m_accel_lag = accel_lag + half * ((accel_target - accel_lag) / throttle_tau)
            m_wheel_angle = wheel_angle + half * ((wheel_target - wheel_angle) / steering_tau)

            # stage 2, the same rates at the midpoint
            drag = rolling + drag_coeff * m_vx * m_vx
            if m_vx < 0.1:
                drag *= m_vx / 0.1 if m_vx > 0.0 else 0.0
            v_safe = blend if m_vx < blend else m_vx
            f_front = neg_cf * (atan2(m_vy + lf * m_yaw_rate, v_safe) - m_wheel_angle)
            f_rear = neg_cr * atan2(m_vy - lr * m_yaw_rate, v_safe)
            cos_wheel = cos(m_wheel_angle)
            dvy = (f_front * cos_wheel + f_rear) / mass - m_yaw_rate * m_vx
            dr = (lf * f_front * cos_wheel - lr * f_rear) / inertia
            ax = m_accel_lag - drag - f_front * sin(m_wheel_angle) / mass
            if m_vx < blend:
                r_kin = m_vx * tan(m_wheel_angle) / wheelbase
                w = m_vx / blend
                dvy = w * dvy + (1.0 - w) * (r_kin * lr - m_vy) / 0.2
                dr = w * dr + (1.0 - w) * (r_kin - m_yaw_rate) / 0.2

            cos_h, sin_h = cos(m_heading), sin(m_heading)
            x = x + h * (m_vx * cos_h - m_vy * sin_h)
            y = y + h * (m_vx * sin_h + m_vy * cos_h)
            heading = heading + h * m_yaw_rate
            accel_lag = accel_lag + h * ((accel_target - m_accel_lag) / throttle_tau)
            wheel_angle = wheel_angle + h * ((wheel_target - m_wheel_angle) / steering_tau)
            vx = vx + h * (ax + m_yaw_rate * m_vy)
            if vx <= 0.0:
                vx = vy = yaw_rate = 0.0
            else:
                vy = vy + h * dvy
                yaw_rate = yaw_rate + h * dr
        if not -pi < heading <= pi:   # the wrap returns in-range values as they are
            heading = float(wrap_angle_array(heading))
        rows += (x, y, heading, vx, ax)
    return rows, (x, y, heading, vx, vy, yaw_rate, accel_lag, wheel_angle, ax)


def _shared_prefixes(command_lists: list[list[ControlCommand]]) -> list[tuple[int, int]]:
    """For each command list, (i, k): of the lists before it, list i shares
    the longest prefix with it, k commands long (0 for none). Commands are
    equal when their three fields have equal bits, so 0.0 and -0.0 differ;
    of equal prefixes the earliest list's wins, so k is above what list i
    itself shares with any list before it."""
    if len(command_lists) < 2:
        return [(0, 0)] * len(command_lists)
    tables = []
    for commands in command_lists:
        table = np.empty((len(commands), 3))
        table[:, 0] = [c.throttle for c in commands]
        table[:, 1] = [c.brake for c in commands]
        table[:, 2] = [c.steering for c in commands]
        tables.append(table.view(np.int64))
    shared = []
    for j, b in enumerate(tables):
        best = (0, 0)
        for i, a in enumerate(tables[:j]):
            m = min(len(a), len(b))
            differ = np.flatnonzero((a[:m] != b[:m]).any(axis=1))
            k = int(differ[0]) if len(differ) else m
            if k > best[1]:
                best = (i, k)
        shared.append(best)
    return shared


def _oracle_logs(command_lists: list[list[ControlCommand]], dt: float,
                 params: OracleParams | None = None) -> list[list[LogRecord]]:
    """`oracle_log` of every command list, each a list of its own, with each
    shared command prefix driven once. A list that shares its first k
    commands with an earlier one holds that log's first k record objects,
    and is driven on from the earlier log's state after tick k, which that
    log's drive returns at a cut there. The rows and state after a prefix
    depend on its commands' bits alone (the drive starts from rest with the
    same dt and params), so every log equals its own `oracle_log` bit for
    bit."""
    check_dt(dt)
    p = params or OracleParams()
    shared = _shared_prefixes(command_lists)
    cuts = [set() for _ in command_lists]   # per log, where later logs' shared prefixes end
    for i, k in shared:
        if k:
            cuts[i].add(k)
    states = {}   # (log, tick): the 8 floats of `_drive`'s state, then the tick's ax
    logs = []
    for j, (commands, (i, k)) in enumerate(zip(command_lists, shared)):
        s = states[i, k] if k else (0.0,) * 9
        rows = [s[0], s[1], s[2], s[3], s[8]]   # the row of tick k
        for start, stop in pairwise([k, *sorted(cuts[j]), len(commands)]):
            if start < stop:
                segment, s = _drive(p, dt, s[:8], commands[start:stop])
                rows += segment
            states[j, stop] = s
        # record n holds the command of the tick that starts there, and the
        # last record repeats the last command; the kernel leaves vx >= 0
        # and the heading wrapped
        cmds = commands[k:] + (commands[-1:] or [ControlCommand(0.0, 0.0, 0.0)])
        records = logs[i][:k] if k else []
        it = iter(rows)
        records += [LogRecord(n * dt, cmd, VehicleState(vx, ax, heading), Pose(x, y, heading))
                    for n, (cmd, x, y, heading, vx, ax) in enumerate(zip(cmds, it, it, it, it, it), k)]
        logs.append(records)
    return logs


def oracle_log(commands: list[ControlCommand], dt: float = DEFAULT_DT,
               params: OracleParams | None = None) -> list[LogRecord]:
    """Drive the oracle from rest at the origin through a command sequence;
    one record per tick, |commands|+1 records, each holding the command of
    the tick that starts there (the last command repeats in the last one).
    A dt that is not finite and positive raises a ValidationError, also
    for no commands. `_oracle_logs` drives a prefix that logs share (equal
    bits, from rest, the same dt and params) once; this is its one-log
    case, which compares no commands."""
    return _oracle_logs([commands], dt, params)[0]


# -- scenario scripts ---------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """Linear command ramp over [t0, t1); the bounds are finite, t0 <= t1."""
    t0: float
    t1: float
    throttle: tuple[float, float]
    brake: tuple[float, float]
    steering: tuple[float, float]

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1) and self.t0 <= self.t1):
            raise ValidationError(f"segment bounds must be finite with t0 <= t1, "
                                  f"got t0={self.t0!r}, t1={self.t1!r}")


def _check_duration(name: str, duration: float) -> None:
    if not (math.isfinite(duration) and duration >= 0.0):
        raise ValidationError(f"script {name!r}: duration must be finite "
                              f"and >= 0, got {duration!r}")


@dataclass(frozen=True)
class ScenarioScript:
    """Commands over [0, duration): at time t the first segment with
    t0 <= t < t1 ramps them, else the last segment does. The duration is
    finite and >= 0, the first segment starts at or before 0 and the last
    ends at or after the duration; a ValidationError names the script and,
    where one segment is at fault, its index."""
    name: str
    duration: float
    segments: tuple[Segment, ...]

    def __post_init__(self):
        _check_duration(self.name, self.duration)
        if not self.segments:
            raise ValidationError(f"script {self.name!r}: no segments")
        if self.segments[0].t0 > 0.0:
            raise ValidationError(f"script {self.name!r}: segment 0 starts at "
                                  f"{self.segments[0].t0!r}, after 0")
        if self.segments[-1].t1 < self.duration:
            raise ValidationError(f"script {self.name!r}: segment {len(self.segments) - 1} "
                                  f"ends at {self.segments[-1].t1!r}, before the "
                                  f"duration {self.duration!r}")

    def commands(self, dt: float = DEFAULT_DT) -> list[ControlCommand]:
        """The command at every tick t = i * dt of the script, in one numpy
        pass over the ticks; dt must be finite and > 0, and small enough that
        numpy can size an array of the ticks."""
        check_dt(dt)
        ticks = self.duration / dt   # inf where the quotient overflows
        if not ticks <= np.iinfo(np.intp).max / 8:   # bytes of the float64 tick array
            raise ValidationError(f"script {self.name!r}: duration {self.duration!r} at dt "
                                  f"{dt!r} is {ticks!r} ticks, more than numpy can size")
        t = np.arange(int(round(ticks))) * dt
        t0, t1 = np.array([[seg.t0, seg.t1] for seg in self.segments]).T
        # t is sorted, so the ticks inside [t0, t1) are one index range per
        # segment; filled last to first, the first segment holding a tick wins
        lo, hi = np.searchsorted(t, t0), np.searchsorted(t, t1)
        seg = np.full(len(t), len(self.segments) - 1)
        for k in range(len(self.segments) - 1, -1, -1):
            seg[lo[k]:hi[k]] = k
        span = (t1 - t0)[seg]
        # the ramp fraction, clamped to [0, 1] as min(max(a, 0.0), 1.0) does
        a = np.divide(t - t0[seg], span, out=np.zeros_like(t), where=span > 0)
        a = np.where(a < 0.0, 0.0, a)
        a = np.where(a > 1.0, 1.0, a)
        p0, p1 = (np.array([[s.throttle, s.brake, s.steering] for s in self.segments])
                  .transpose(2, 0, 1))
        throttle, brake, steering = (p0[seg] + a[:, None] * (p1 - p0)[seg]).T.tolist()
        return list(map(ControlCommand, throttle, brake, steering))


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
    lane-change wiggles; cycles a varied block until the duration is met,
    which must be finite and >= 0."""
    _check_duration("loop", duration)
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

    The logs are `_oracle_logs` of the scripts' commands, so a command
    prefix that logs share (equal bits, from rest, the same dt and
    params) is driven once and its records are the same objects in each;
    every log equals `oracle_log(script.commands(dt), dt)` bit for bit. A
    bad dt or loop duration raises before any tick is driven.

    The scripts are deterministic; the seed perturbs nothing physical and
    is kept for interface stability of callers that thread it through.
    """
    del seed  # scripted catalogue; generation is deterministic by design
    scripts = golden_scripts(scenario_duration) + [_loop_script(loop_duration)]
    logs = _oracle_logs([script.commands(dt) for script in scripts], dt)
    return {script.name: log for script, log in zip(scripts, logs)}
