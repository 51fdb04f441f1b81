"""Central finite-difference gradient oracles shared by gradient tests: entry
by entry (`fd_grad`, `check_grads`, `assert_matches`) and along one direction
(`check_directional`)."""

import numpy as np

from resdyn.autodiff import backward


def fd_grad(fn, tensors, h=1e-5):
    """Numerical gradient of scalar fn(tensors...) wrt each tensor by
    central differences, evaluated entry by entry."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(fn().data)
            flat[i] = orig - h
            fm = float(fn().data)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def check_grads(fn, tensors, h=1e-5, rtol=1e-4, atol=1e-7):
    """Assert analytic grads from backward() match central differences."""
    for t in tensors:
        t.grad = None
    loss = fn()
    backward(loss)
    numeric = fd_grad(fn, tensors, h=h)
    for t, num in zip(tensors, numeric):
        ana = t.grad if t.grad is not None else np.zeros_like(t.data)
        assert_matches(ana, num, t.name or t.data.shape, rtol, atol)


def assert_matches(ana, num, what, rtol=1e-4, atol=1e-7):
    """Assert each entry of an analytic gradient is within atol of the
    numerical one, or within rtol of the larger of the two magnitudes."""
    denom = np.maximum(np.abs(num), np.abs(ana))
    err = np.abs(ana - num)
    rel = err / np.maximum(denom, 1e-8)
    bad = (err > atol) & (rel > rtol)
    assert not bad.any(), (
        f"gradient mismatch for {what}: "
        f"max rel err {rel.max():.3e}, max abs err {err.max():.3e}")


def check_directional(fn, tensors, rng, h=1e-4, rtol=1e-8):
    """Assert that the directional derivative <grad f, v>, from backward(),
    matches the central difference (f(x + h v) - f(x - h v)) / 2h along one
    random unit direction v over all tensors. Two evaluations of f,
    whatever the sizes, where `fd_grad` needs two per entry."""
    for t in tensors:
        t.grad = None
    backward(fn())
    directions = [rng.standard_normal(t.data.shape) for t in tensors]
    norm = np.sqrt(sum(float(np.vdot(v, v)) for v in directions))
    directions = [v / norm for v in directions]
    analytic = sum(float(np.vdot(t.grad, v)) for t, v in zip(tensors, directions)
                   if t.grad is not None)
    originals = [t.data for t in tensors]
    values = []
    for step in (h, -h):
        for t, x, v in zip(tensors, originals, directions):
            t.data = x + step * v
        values.append(float(fn().data))
    for t, x in zip(tensors, originals):
        t.data = x
    numeric = (values[0] - values[1]) / (2.0 * h)
    err = abs(analytic - numeric)
    assert err <= rtol * max(abs(analytic), abs(numeric)), (
        f"directional derivative {analytic:.12e} vs central difference {numeric:.12e}: "
        f"relative error {err / max(abs(analytic), abs(numeric), 1e-300):.3e}")
