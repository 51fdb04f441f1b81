"""Minimal dense-tensor reverse-mode autodiff and Adam optimizer.

Define-by-run: every op is a module-level function (`add`, `matmul`,
`tsum`, ...) that returns a Tensor holding the forward value and a
closure that scatters the upstream gradient, passed in as its argument, to
its parents. Tensors have no arithmetic operators; indexing (`x[key]`)
is the one op spelled as a method, and it takes basic keys only (ints,
slices, Ellipsis and None), which select each element at most once, so
its gradient is added into a slice. A closure never references its own
output node, so a graph holds no reference cycle: it is rebuilt each
minibatch and freed by reference counting as soon as it is dropped.
float64 everywhere: the models trained here are tiny and Cholesky
robustness matters more than speed.

`backward` frees each interior node's gradient as soon as that node's
closure has passed it on, so after `backward` only leaves (parameters and
inputs created with `requires_grad`) hold a `.grad`. A node's first
gradient is stored as a copy and later ones are added into it in place.
"""

from __future__ import annotations

import ctypes
import json
import math
import sys

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import expit

from .core import ValidationError

SQRT5 = np.sqrt(5.0)

# glibc mallopt parameter numbers, from malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Fix glibc's heap thresholds so memory freed with a graph is reused.

    A graph is freed in one go when its last reference drops, at the end
    of every training step. Under glibc's default sliding thresholds that
    leaves the graph's memory free at the top of the heap, which is
    trimmed, and the next step page-faults it back in. On a 2-CPU VM that
    was 9k minor faults and about a third of a cnn training step (B=256, a
    35 MB graph), and 108k faults on an lstm step (B=64, a 420 MB graph).
    With arrays up to 32 MB kept on the heap and trimming only beyond 1 GB
    free, neither step faults. Other C libraries keep their defaults.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_heap()


class Tensor:
    """A node in the computation graph: value, lazy gradient, backward rule."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 _parents: tuple = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self.name = name
        # parents are only kept while a gradient path exists
        self._parents = _parents if self.requires_grad else ()
        self._backward = None

    def _acc(self, g):
        # copy, never alias: g may be a read-only broadcast view or an
        # array that another node still holds. The copy is laid out like
        # data, and made by adding +0.0, which maps -0.0 to +0.0: both as
        # a sum into zeros would, so reductions over it round the same.
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            np.add(g, 0.0, out=self.grad)
        else:
            self.grad += g

    def __getitem__(self, key):
        if not _is_basic_key(key):
            raise ValidationError(
                f"Tensor index {key!r} is not basic: use ints, slices, Ellipsis or None")
        x = self
        out = Tensor(x.data[key], _parents=(x,))
        if out.requires_grad:
            def _bwd(g):
                if x.grad is None:
                    x.grad = np.zeros_like(x.data)
                x.grad[key] += g
            out._backward = _bwd
        return out

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'}, name={self.name})"


def _is_basic_key(key) -> bool:
    """True for ints, slices, Ellipsis, None and tuples of these: numpy's
    basic indexing, which yields a view."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in parts)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, name: str | None = None) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


def backward(loss: Tensor) -> None:
    """Reverse accumulation from a scalar loss through the whole graph."""
    if loss.data.size != 1:
        raise ValidationError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    topo, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
            node.grad = None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise binary ------------------------------------------------

def _binary(a, b, fwd, da, db):
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = fwd(a.data, b.data)
    except ValueError as exc:
        raise ValidationError(f"shape mismatch: {a.data.shape} vs {b.data.shape}") from exc
    out = Tensor(data, _parents=(a, b))
    if out.requires_grad:
        def _bwd(g):
            if a.requires_grad:
                a._acc(_unbroadcast(da(g, a.data, b.data), a.data.shape))
            if b.requires_grad:
                b._acc(_unbroadcast(db(g, a.data, b.data), b.data.shape))
        out._backward = _bwd
    return out


def add(a, b):
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b):
    return _binary(a, b, lambda x, y: x / y,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


# -- elementwise unary -------------------------------------------------

def _unary(x, fwd, dfn):
    x = as_tensor(x)
    data = fwd(x.data)
    out = Tensor(data, _parents=(x,))
    if out.requires_grad:
        y = out.data
        def _bwd(g):
            x._acc(dfn(g, x.data, y))
        out._backward = _bwd
    return out


def exp(x):
    return _unary(x, np.exp, lambda g, v, y: g * y)


def sqrt(x):
    return _unary(x, np.sqrt, lambda g, v, y: g * 0.5 / y)


def tanh(x):
    return _unary(x, np.tanh, lambda g, v, y: g * (1.0 - y * y))


def sigmoid(x):
    return _unary(x, expit, lambda g, v, y: g * y * (1.0 - y))


def relu(x):
    return _unary(x, lambda v: np.maximum(v, 0.0), lambda g, v, y: g * (v > 0))


def matern52(sqdist):
    """Matern-5/2 radial profile as a function of the squared distance.

    Expressed on s = r^2 so the derivative stays finite at s = 0 (the raw
    chain rule through sqrt(0) would produce NaN on kernel diagonals).
    """
    def fwd(s):
        r = np.sqrt(np.maximum(s, 0.0))
        return (1.0 + SQRT5 * r + (5.0 / 3.0) * s) * np.exp(-SQRT5 * r)

    def dfn(g, s, y):
        r = np.sqrt(np.maximum(s, 0.0))
        return g * (-(5.0 / 6.0) * (1.0 + SQRT5 * r) * np.exp(-SQRT5 * r))

    return _unary(sqdist, fwd, dfn)


# -- reductions and shape ops -----------------------------------------

def tsum(x, axis=None, keepdims=False):
    x = as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims), _parents=(x,))
    if out.requires_grad:
        def _bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            x._acc(np.broadcast_to(g, x.data.shape))
        out._backward = _bwd
    return out


def tmean(x, axis=None, keepdims=False):
    x = as_tensor(x)
    if axis is None:
        count = x.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([x.data.shape[i] for i in axes]))
    return mul(tsum(x, axis, keepdims), 1.0 / count)


def reshape(x, shape):
    x = as_tensor(x)
    out = Tensor(x.data.reshape(shape), _parents=(x,))
    if out.requires_grad:
        def _bwd(g):
            x._acc(g.reshape(x.data.shape))
        out._backward = _bwd
    return out


def transpose(x, axes=None):
    x = as_tensor(x)
    out = Tensor(x.data.transpose(axes), _parents=(x,))
    if out.requires_grad:
        inv = None if axes is None else np.argsort(axes)
        def _bwd(g):
            x._acc(g.transpose(inv))
        out._backward = _bwd
    return out


# -- linear algebra ----------------------------------------------------

def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValidationError(
            f"matmul needs >=2-D operands, got {a.data.shape} @ {b.data.shape}")
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ValidationError(
            f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}") from exc
    out = Tensor(data, _parents=(a, b))
    if out.requires_grad:
        def _bwd(g):
            if a.requires_grad:
                a._acc(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
            if b.requires_grad:
                b._acc(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))
        out._backward = _bwd
    return out


def softmax(x):
    """Softmax over the last axis."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, _parents=(x,))
    if out.requires_grad:
        def _bwd(g):
            x._acc((g - (g * y).sum(axis=-1, keepdims=True)) * y)
        out._backward = _bwd
    return out


def _phi_half_diag(m: np.ndarray) -> np.ndarray:
    p = np.tril(m)
    p[np.diag_indices_from(p)] *= 0.5
    return p


def cholesky(a):
    """Lower Cholesky factor; the input must be built symmetrically upstream
    (the returned adjoint is symmetrized)."""
    a = as_tensor(a)
    l_data = np.linalg.cholesky(a.data)
    out = Tensor(l_data, _parents=(a,))
    if out.requires_grad:
        def _bwd(g):
            p = _phi_half_diag(l_data.T @ g)
            tmp = solve_triangular(l_data, p, lower=True, trans="T")
            s = solve_triangular(l_data, tmp.T, lower=True, trans="T").T
            a._acc(0.5 * (s + s.T))
        out._backward = _bwd
    return out


def trisolve(l, b):
    """Solve L x = b for lower-triangular L."""
    l, b = as_tensor(l), as_tensor(b)
    if b.data.ndim != 2 or l.data.ndim != 2:
        raise ValidationError(f"trisolve needs 2-D operands, got {l.data.shape}, {b.data.shape}")
    x_data = solve_triangular(l.data, b.data, lower=True, trans="N")
    out = Tensor(x_data, _parents=(l, b))
    if out.requires_grad:
        def _bwd(g):
            gb = solve_triangular(l.data, g, lower=True, trans="T")
            gl = -gb @ x_data.T
            if l.requires_grad:
                l._acc(np.tril(gl))
            if b.requires_grad:
                b._acc(gb)
        out._backward = _bwd
    return out


# -- network ops -------------------------------------------------------

def conv1d(x, w, bias, stride: int = 1, dilation: int = 1):
    """1-D convolution plus bias. x: (B, C_in, L); w: (C_out, C_in, K);
    bias: (C_out,).

    Output length floor((L - dilation*(K-1) - 1)/stride) + 1.
    """
    x, w, bias = as_tensor(x), as_tensor(w), as_tensor(bias)
    xd = x.data
    if (xd.ndim != 3 or w.data.ndim != 3 or xd.shape[1] != w.data.shape[1]
            or bias.data.shape != w.data.shape[:1]):
        raise ValidationError(f"conv1d shape mismatch: input {xd.shape}, "
                              f"kernel {w.data.shape}, bias {bias.data.shape}")
    _, c_in, length = xd.shape
    c_out, _, k = w.data.shape
    l_out = conv1d_output_length(length, k, stride, dilation)
    if l_out < 1:
        raise ValidationError(
            f"conv1d input length {length} too short for kernel {k}, "
            f"stride {stride}, dilation {dilation} "
            f"(needs length >= {dilation * (k - 1) + 1})")
    idx = (np.arange(l_out) * stride)[:, None] + np.arange(k)[None, :] * dilation
    cols = xd[:, :, idx]                                  # (B, C_in, L_out, K)
    data = np.einsum("bclk,ock->bol", cols, w.data, optimize=True)
    data = data + bias.data[:, None]
    out = Tensor(data, _parents=(x, w, bias))
    if out.requires_grad:
        def _bwd(g):
            if w.requires_grad:
                w._acc(np.einsum("bclk,bol->ock", cols, g, optimize=True))
            if x.requires_grad:
                gcols = np.einsum("bol,ock->bclk", g, w.data, optimize=True)
                gx = np.zeros_like(xd)
                # col2im; taps from last to first add each input position's
                # terms in rising output index, the order np.add.at uses
                span = stride * (l_out - 1) + 1
                for j in range(k - 1, -1, -1):
                    gx[:, :, j * dilation:j * dilation + span:stride] += gcols[..., j]
                x._acc(gx)
            if bias.requires_grad:
                bias._acc(g.sum(axis=(0, 2)))
        out._backward = _bwd
    return out


def conv1d_output_length(length: int, kernel: int, stride: int, dilation: int) -> int:
    return (length - dilation * (kernel - 1) - 1) // stride + 1


def dropout(x, rate: float, rng: np.random.Generator | None = None,
            train: bool = False):
    """Inverted dropout; identity in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ValidationError(f"dropout rate {rate} outside [0, 1)")
    if not train or rate == 0.0:
        return as_tensor(x)
    if rng is None:
        raise ValidationError("dropout in train mode needs an rng")
    x = as_tensor(x)
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return mul(x, Tensor(mask))


def layer_norm(x, gamma, beta):
    """Normalize the last axis (variance floor 1e-5), then scale and shift."""
    x = as_tensor(x)
    mu = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = tmean(mul(centered, centered), axis=-1, keepdims=True)
    normed = div(centered, sqrt(add(var, 1e-5)))
    return add(mul(normed, gamma), beta)


def affine(x, w, b):
    """x @ w + b for 2-D x."""
    return add(matmul(x, w), b)


# -- optimizer ---------------------------------------------------------

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction and the usual beta1 = 0.9, beta2 = 0.999,
    eps = 1e-8. A step with any non-finite gradient is skipped entirely and
    counted."""

    def __init__(self, params, lr: float = 1e-3):
        self.params = list(params)
        for p in self.params:
            if not p.requires_grad:
                raise ValidationError("Adam got a non-trainable tensor")
        self.lr = lr
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0
        self.skipped_steps = 0

    def step(self) -> bool:
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                 for p in self.params]
        if not all(np.all(np.isfinite(g)) for g in grads):
            self.skipped_steps += 1
            return False
        self.t += 1
        c1 = 1.0 - _BETA1 ** self.t
        c2 = 1.0 - _BETA2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + _EPS)
        return True

    def zero_grad(self):
        for p in self.params:
            p.grad = None


# -- checkpoints -------------------------------------------------------

def save_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    """JSON header line listing (name, shape, offset), then the flat
    little-endian float64 payload; offsets count elements. An array with
    a non-finite value raises a ValidationError naming the path and the
    entry, before the file is opened: `load_checkpoint` would refuse it."""
    entries, blobs, offset = [], [], 0
    for name, arr in arrays.items():
        a = np.asarray(arr, dtype=np.float64)
        if not np.all(np.isfinite(a)):
            raise ValidationError(f"{path}: entry {name!r} holds non-finite values")
        entries.append({"name": name, "shape": list(a.shape), "offset": offset})
        blobs.append(np.ascontiguousarray(a).astype("<f8").tobytes())
        offset += a.size
    header = json.dumps({"format": "f64-le", "entries": entries})
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Arrays saved by `save_checkpoint`. A malformed header, another
    format, an entry beyond the payload, a payload that is not whole
    float64s and non-finite values all raise a ValidationError naming
    the path."""
    with open(path, "rb") as fh:
        line = fh.readline()
        raw = fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{path}: checkpoint header is not a JSON line") from exc
    if not isinstance(header, dict) or not isinstance(header.get("entries"), list):
        raise ValidationError(f"{path}: checkpoint header has no entry list")
    if header.get("format") != "f64-le":
        raise ValidationError(
            f"{path}: checkpoint format {header.get('format')!r}, expected 'f64-le'")
    if len(raw) % 8:
        raise ValidationError(
            f"{path}: payload of {len(raw)} bytes is not a whole number of float64s")
    payload = np.frombuffer(raw, dtype="<f8")
    out = {}
    for e in header["entries"]:
        if not (isinstance(e, dict) and isinstance(e.get("name"), str)
                and isinstance(e.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in e["shape"])
                and type(e.get("offset")) is int and e["offset"] >= 0):
            raise ValidationError(f"{path}: bad checkpoint entry {e!r}")
        name, offset, size = e["name"], e["offset"], math.prod(e["shape"])
        if offset + size > payload.size:
            raise ValidationError(
                f"{path}: entry {name!r} needs float64s {offset}..{offset + size}, "
                f"payload has {payload.size}")
        arr = payload[offset:offset + size].reshape(e["shape"]).astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{path}: entry {name!r} holds non-finite values")
        out[name] = arr
    return out
