"""Scalar, one-value-at-a-time forms of vectorized `resdyn` code. The tests
require the vectorized code to give the same bits and the same refusals."""

import math

import numpy as np

from resdyn.core import ValidationError, check_dt


def wrap_angle(theta: float) -> float:
    """`resdyn.core.wrap_angle_array` for one float."""
    if not math.isfinite(theta):
        raise ValidationError(f"non-finite angle: {theta!r}")
    if -math.pi < theta <= math.pi:
        return theta
    # the modulo rounds up to 2*pi just above pi, e.g. at nextafter(pi, 4)
    w = math.pi - (math.pi - theta) % (2.0 * math.pi)
    return math.pi if w == -math.pi else w


def tick_training_pairs(records, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """`resdyn.dynamics.tick_training_pairs` record by record."""
    check_dt(dt)
    n = len(records) - 1
    if n < 1:
        raise ValidationError(f"tick training pairs need at least 2 records, got {n + 1}")
    x = np.empty((n, 5))
    y = np.empty((n, 2))
    for i in range(n):
        r, nxt = records[i], records[i + 1]
        if not abs((nxt.timestamp - r.timestamp) - dt) <= 1e-9:
            raise ValidationError(f"record {i + 1} is {nxt.timestamp - r.timestamp!r} s after "
                                  f"record {i}, not dt = {dt!r} s (within 1e-9 s)")
        x[i] = (r.command.throttle, r.command.brake, r.command.steering,
                r.state.speed, r.state.acceleration)
        dh = wrap_angle(nxt.state.heading - r.state.heading)
        y[i] = ((nxt.state.speed - r.state.speed) / dt, dh / dt)
    return x, y
