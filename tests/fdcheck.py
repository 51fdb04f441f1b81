"""Central finite-difference gradient oracle shared by gradient tests."""

import numpy as np

from resdyn.autodiff import Tensor, backward


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
        denom = np.maximum(np.abs(num), np.abs(ana))
        err = np.abs(ana - num)
        rel = err / np.maximum(denom, 1e-8)
        bad = (err > atol) & (rel > rtol)
        assert not bad.any(), (
            f"gradient mismatch for {t.name or t.data.shape}: "
            f"max rel err {rel.max():.3e}, max abs err {err.max():.3e}")
