"""Minimal dense-tensor reverse-mode autodiff and Adam optimizer.

Define-by-run: every op is a module-level function (`add`, `matmul`,
`tsum`, ...) that returns a Tensor holding the forward value. Tensors have
no operators and no indexing. A Tensor built directly is a leaf: only
`_node(data, parents, backward)` links a node to its parents, and
`backward(g, *parents)` scatters the upstream gradient g to them, calling
a parent's `_acc` only when it requires a gradient. A backward never
references the node it serves, so a graph holds no reference cycle:
it is rebuilt each minibatch and freed by reference counting as soon as it
is dropped. float64 everywhere: the models trained here are tiny and
Cholesky robustness matters more than speed.

`lstm` is a fused node: one node for the whole sequence, whose backward
holds the intermediates it needs (each tick's operand [1 | x_t | h_t],
gates and cell state) instead of a graph of elementwise nodes; it runs one
GEMM per tick each way and matches such a graph to about 1e-15 relative.
The conv encoders (`encoders._encode_conv`) and the SVGP's loss
(`svgp.VariationalGP.loss`) are fused nodes built by `_node` outside this
module.

`backward` frees each interior node's gradient as soon as that node's
backward has passed it on, so after `backward` only leaves (parameters and
inputs created with `requires_grad`) hold a `.grad`. A node's first
gradient is stored as a copy and later ones are added into it in place.
"""

from __future__ import annotations

import ctypes
import json
import math
import sys

import numpy as np
from scipy.linalg.blas import dgemm

from .core import ValidationError

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

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = ()
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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'}, name={self.name})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _value(x) -> np.ndarray:
    """A Tensor's data, or x as a float64 array."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _node(data, parents, backward):
    """A Tensor holding `data` over `parents`, a plain one given as its
    `_value` so it is converted once. When the node requires a gradient,
    `autodiff.backward` calls `backward(g, *parents)` with its gradient g
    and the parents as Tensors."""
    parents, out = tuple(map(as_tensor, parents)), Tensor(data)
    if any(p.requires_grad for p in parents):  # parents are kept only on a gradient path
        out.requires_grad, out._parents, out._backward = True, parents, backward
    return out


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
            node._backward(node.grad, *node._parents)
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
    av, bv = _value(a), _value(b)
    try:
        data = fwd(av, bv)
    except ValueError as exc:
        raise ValidationError(f"shape mismatch: {av.shape} vs {bv.shape}") from exc
    def _bwd(g, a, b):
        if a.requires_grad:
            a._acc(_unbroadcast(da(g, a.data, b.data), a.data.shape))
        if b.requires_grad:
            b._acc(_unbroadcast(db(g, a.data, b.data), b.data.shape))
    return _node(data, (a if isinstance(a, Tensor) else av,
                        b if isinstance(b, Tensor) else bv), _bwd)


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
    y = fwd(_value(x))
    def _bwd(g, x):
        x._acc(dfn(g, x.data, y))
    return _node(y, (x,), _bwd)


def sqrt(x):
    return _unary(x, np.sqrt, lambda g, v, y: g * 0.5 / y)


def relu(x):
    return _unary(x, lambda v: np.maximum(v, 0.0), lambda g, v, y: g * (v > 0))


# -- reductions and shape ops -----------------------------------------

def tsum(x, axis=None, keepdims=False):
    def _bwd(g, x):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._acc(np.broadcast_to(g, x.data.shape))
    return _node(_value(x).sum(axis=axis, keepdims=keepdims), (x,), _bwd)


def tmean(x, axis=None, keepdims=False):
    shape = _value(x).shape
    if axis is None:
        count = math.prod(shape)
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([shape[i] for i in axes]))
    return mul(tsum(x, axis, keepdims), 1.0 / count)


def reshape(x, shape):
    def _bwd(g, x):
        x._acc(g.reshape(x.data.shape))
    return _node(_value(x).reshape(shape), (x,), _bwd)


def transpose(x, axes=None):
    def _bwd(g, x):
        x._acc(g.transpose(None if axes is None else np.argsort(axes)))
    return _node(_value(x).transpose(axes), (x,), _bwd)


# -- linear algebra ----------------------------------------------------

def matmul(a, b):
    av, bv = _value(a), _value(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ValidationError(f"matmul needs >=2-D operands, got {av.shape} @ {bv.shape}")
    try:
        data = av @ bv
    except ValueError as exc:
        raise ValidationError(f"matmul shape mismatch: {av.shape} @ {bv.shape}") from exc
    def _bwd(g, a, b):
        if a.requires_grad:
            a._acc(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            b._acc(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))
    return _node(data, (a, b), _bwd)


def softmax(x):
    """Softmax over the last axis."""
    xv = _value(x)
    e = np.exp(xv - xv.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    def _bwd(g, x):
        x._acc((g - (g * y).sum(axis=-1, keepdims=True)) * y)
    return _node(y, (x,), _bwd)


# -- network ops -------------------------------------------------------

def _sigmoid_(v: np.ndarray) -> np.ndarray:
    """1/(1+exp(-v)) in place, within 4 ulp of scipy's expit; exp's overflow gives the limit 0."""
    with np.errstate(over="ignore"):
        np.exp(np.negative(v, out=v), out=v)
    return np.divide(1.0, np.add(v, 1.0, out=v), out=v)


def lstm(x, wx, wh, b):
    """Final hidden state (B, H) of a single-layer LSTM run from zero state
    over x: (B, N, F), with wx: (F, 4H), wh: (H, 4H) and b: (4H,), the gate
    columns ordered input, forget, cell, output.

    One node, one GEMM per tick each way: tick t's gates are z_t @ [b; wx; wh]
    for z_t = [1 | x_t | h_t], a slab of one store that also holds the hidden
    states, and the weight gradient sums z_t.T @ dgates_t. The output equals
    that per-tick product under `_sigmoid_` bit for bit; output and gradients
    match `(x_t@wx + h@wh) + b` under scipy's expit to about 1e-15 relative.
    x takes no gradient: an x that requires one is refused, not dropped.
    """
    xd, wxd, whd, bd = _value(x), _value(wx), _value(wh), _value(b)
    hdim = whd.shape[0] if whd.ndim == 2 else 0
    if (xd.ndim != 3 or xd.shape[1] < 1 or wxd.shape != (xd.shape[-1], 4 * hdim)
            or whd.shape != (hdim, 4 * hdim) or bd.shape != (4 * hdim,)):
        raise ValidationError(f"lstm shape mismatch: input {xd.shape} (want (B, N>=1, F)), "
                              f"wx {wxd.shape} (want (F, 4H)), wh {whd.shape} "
                              f"(want (H, 4H)), b {bd.shape} (want (4H,))")
    if isinstance(x, Tensor) and x.requires_grad:
        raise ValidationError("lstm takes no gradient for its input x")
    nb, nt, k = xd.shape[0], xd.shape[1], 1 + xd.shape[2]
    z = np.empty((nt + 1, nb, k + hdim))      # z[t] = [1 | x_t | h_t]
    z[0], z[:, :, 0] = 0.0, 1.0               # h_0 = 0; the bias column
    z[:nt, :, 1:k] = xd.transpose(1, 0, 2)
    w = np.concatenate((bd[None], wxd, whd))
    gates = np.empty((nt, 4, nb, hdim))       # i, f, g, o, gate-major
    cs, tcs = np.zeros((nt + 1, nb, hdim)), np.empty((nt, nb, hdim))
    v = np.empty((nb, 4 * hdim))              # one tick's gates, then dgates
    vq = v.reshape(nb, 4, hdim).transpose(1, 0, 2)
    for t in range(nt):
        i, f, g, o = gates[t]
        np.matmul(z[t], w, out=v)
        np.tanh(vq[2], out=g)
        _sigmoid_(v)
        gates[t, :2], o[...] = vq[:2], vq[3]
        np.add(f * cs[t], i * g, out=cs[t + 1])
        np.multiply(o, np.tanh(cs[t + 1], out=tcs[t]), out=z[t + 1, :, k:])
    def _bwd(dh, x, wx, wh, b):
        gwt, wht = np.zeros((k + hdim, 4 * hdim)).T, whd.T.copy()   # gwt = gw.T
        m, d = np.empty((2, 4, nb, hdim))
        dc, tmp, dh_next = np.zeros((3, nb, hdim))
        for t in range(nt - 1, -1, -1):
            (i, f, g, o), tc = gates[t], tcs[t]
            np.subtract(1.0, np.multiply(tc, tc, out=tmp), out=tmp)
            dc += np.multiply(np.multiply(tmp, o, out=tmp), dh, out=tmp)
            # dgates = [dc g, dc c_{t-1}, dc i, dh tanh(c_t)] times the
            # activations' derivatives [i(1-i), f(1-f), 1-g^2, o(1-o)]
            np.multiply(dc, g, out=m[0])
            np.multiply(dc, cs[t], out=m[1])
            np.multiply(dc, i, out=m[2])
            np.multiply(dh, tc, out=m[3])
            np.multiply(gates[t], np.subtract(1.0, gates[t], out=d), out=d)
            np.subtract(1.0, np.multiply(g, g, out=d[2]), out=d[2])
            np.multiply(m, d, out=vq)
            gwt = dgemm(1.0, v.T, z[t].T, 1.0, gwt, trans_b=1, overwrite_c=1)  # += in place
            if t:
                dh = np.matmul(v, wht, out=dh_next)
            dc *= f
        for p, gp in ((b, gwt[:, 0]), (wx, gwt[:, 1:k].T), (wh, gwt[:, k:].T)):
            if p.requires_grad:
                p._acc(gp)
    return _node(z[nt, :, k:].copy(), (x, wx, wh, b), _bwd)


def dropout(x, rate: float, rng: np.random.Generator | None = None,
            train: bool = False):
    """Inverted dropout; identity in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ValidationError(f"dropout rate {rate} outside [0, 1)")
    if not train or rate == 0.0:
        return as_tensor(x)
    if rng is None:
        raise ValidationError("dropout in train mode needs an rng")
    mask = (rng.random(_value(x).shape) >= rate) / (1.0 - rate)
    return mul(x, mask)


def layer_norm(x, gamma, beta):
    """Normalize the last axis (variance floor 1e-5), then scale and shift."""
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
        if not (math.isfinite(lr) and lr > 0.0):
            raise ValidationError(f"Adam lr must be finite and > 0, got {lr!r}")
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
