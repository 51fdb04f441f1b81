"""Minimal dense-tensor reverse-mode autodiff and Adam optimizer.

Define-by-run: every op is a module-level function (`add`, `matmul`,
`tsum`, ...) that returns a Tensor holding the forward value and a
closure that scatters the upstream gradient, passed in as its argument, to
its parents. Tensors have no operators and no indexing. A closure never
references its own output node, so a graph holds no reference cycle: it
is rebuilt each minibatch and freed by reference counting as soon as it
is dropped. float64 everywhere: the models trained here are tiny and
Cholesky robustness matters more than speed.

`conv1d` and `lstm` are fused nodes: one node for the whole operation,
whose closure holds the intermediates it needs (the im2col columns; each
tick's gates and cell state) instead of a graph of elementwise nodes. The
SVGP's ELBO (`svgp.VariationalGP.elbo`) is built the same way, outside
this module, from a `Tensor` over its parameters and a closure that calls
each parent's `_acc`; its kernel, Cholesky and triangular-solve algebra
live in `svgp` with it.

An op none of whose operands is a Tensor returns its plain numpy value,
after the same shape checks, and builds no node (`_node`): a pure
evaluation runs the graph's ops at numpy's cost.

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
from numpy.lib.stride_tricks import as_strided
from scipy.special import expit

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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'}, name={self.name})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _value(x) -> np.ndarray:
    """A Tensor's data, or x as a float64 array."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _node(data, *parents):
    """A Tensor holding `data` over `parents`, or `data` itself when no
    parent is a Tensor: an op on plain operands builds no node."""
    for p in parents:
        if isinstance(p, Tensor):
            return Tensor(data, _parents=tuple(map(as_tensor, parents)))
    return data


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
    av, bv = _value(a), _value(b)
    try:
        data = fwd(av, bv)
    except ValueError as exc:
        raise ValidationError(f"shape mismatch: {av.shape} vs {bv.shape}") from exc
    out = _node(data, a, b)
    if isinstance(out, Tensor) and out.requires_grad:
        a, b = out._parents
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
    data = fwd(_value(x))
    out = _node(data, x)
    if isinstance(out, Tensor) and out.requires_grad:
        y = out.data
        def _bwd(g):
            x._acc(dfn(g, x.data, y))
        out._backward = _bwd
    return out


def sqrt(x):
    return _unary(x, np.sqrt, lambda g, v, y: g * 0.5 / y)


def relu(x):
    return _unary(x, lambda v: np.maximum(v, 0.0), lambda g, v, y: g * (v > 0))


# -- reductions and shape ops -----------------------------------------

def tsum(x, axis=None, keepdims=False):
    data = _value(x).sum(axis=axis, keepdims=keepdims)
    out = _node(data, x)
    if isinstance(out, Tensor) and out.requires_grad:
        def _bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            x._acc(np.broadcast_to(g, x.data.shape))
        out._backward = _bwd
    return out


def tmean(x, axis=None, keepdims=False):
    shape = _value(x).shape
    if axis is None:
        count = math.prod(shape)
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([shape[i] for i in axes]))
    return mul(tsum(x, axis, keepdims), 1.0 / count)


def reshape(x, shape):
    data = _value(x).reshape(shape)
    out = _node(data, x)
    if isinstance(out, Tensor) and out.requires_grad:
        def _bwd(g):
            x._acc(g.reshape(x.data.shape))
        out._backward = _bwd
    return out


def transpose(x, axes=None):
    data = _value(x).transpose(axes)
    out = _node(data, x)
    if isinstance(out, Tensor) and out.requires_grad:
        inv = None if axes is None else np.argsort(axes)
        def _bwd(g):
            x._acc(g.transpose(inv))
        out._backward = _bwd
    return out


# -- linear algebra ----------------------------------------------------

def matmul(a, b):
    av, bv = _value(a), _value(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ValidationError(f"matmul needs >=2-D operands, got {av.shape} @ {bv.shape}")
    try:
        data = av @ bv
    except ValueError as exc:
        raise ValidationError(f"matmul shape mismatch: {av.shape} @ {bv.shape}") from exc
    out = _node(data, a, b)
    if isinstance(out, Tensor) and out.requires_grad:
        a, b = out._parents
        def _bwd(g):
            if a.requires_grad:
                a._acc(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
            if b.requires_grad:
                b._acc(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))
        out._backward = _bwd
    return out


def softmax(x):
    """Softmax over the last axis."""
    xv = _value(x)
    e = np.exp(xv - xv.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = _node(y, x)
    if isinstance(out, Tensor) and out.requires_grad:
        def _bwd(g):
            x._acc((g - (g * y).sum(axis=-1, keepdims=True)) * y)
        out._backward = _bwd
    return out


# -- network ops -------------------------------------------------------

def conv1d(x, w, bias, stride: int = 1, dilation: int = 1):
    """1-D convolution plus bias. x: (B, C_in, L); w: (C_out, C_in, K);
    bias: (C_out,).

    Output length floor((L - dilation*(K-1) - 1)/stride) + 1. A stride or
    dilation below 1 raises a ValidationError.

    The forward is one matmul: the weights as (C_out, C_in*K) against the
    contiguous im2col block (C_in*K, B*L_out). Those are the operands of
    numpy's einsum "bclk,ock->bol", so the values match it bit for bit
    without its per-call path search; so do the backward's two matmuls.
    """
    if stride < 1 or dilation < 1:
        raise ValidationError(
            f"conv1d stride {stride} and dilation {dilation} must each be at least 1")
    xd, wd, bd = _value(x), _value(w), _value(bias)
    if xd.ndim != 3 or wd.ndim != 3 or xd.shape[1] != wd.shape[1] or bd.shape != wd.shape[:1]:
        raise ValidationError(f"conv1d shape mismatch: input {xd.shape}, "
                              f"kernel {wd.shape}, bias {bd.shape}")
    b, c_in, length = xd.shape
    c_out, _, k = wd.shape
    l_out = conv1d_output_length(length, k, stride, dilation)
    if l_out < 1:
        raise ValidationError(
            f"conv1d input length {length} too short for kernel {k}, "
            f"stride {stride}, dilation {dilation} "
            f"(needs length >= {dilation * (k - 1) + 1})")
    sb, sc, sl = xd.strides
    # taps[c, j, b, l] = x[b, c, l*stride + j*dilation]
    taps = as_strided(xd, (c_in, k, b, l_out), (sc, dilation * sl, sb, stride * sl),
                      writeable=False)
    cols = taps.copy().reshape(c_in * k, b * l_out)
    w2 = wd.reshape(c_out, c_in * k)
    data = (w2 @ cols).reshape(c_out, b, l_out).transpose(1, 0, 2)
    data = data + bd[:, None]
    out = _node(data, x, w, bias)
    if isinstance(out, Tensor) and out.requires_grad:
        x, w, bias = out._parents
        def _bwd(g):
            g2 = g.transpose(1, 0, 2).reshape(c_out, b * l_out)
            if w.requires_grad:
                w._acc((g2 @ np.ascontiguousarray(cols.T)).reshape(wd.shape))
            if x.requires_grad:
                gcols = (w2.T @ g2).reshape(c_in, k, b, l_out)
                gx = np.zeros_like(xd)
                # col2im; taps from last to first add each input position's
                # terms in rising output index, the order np.add.at uses
                span = stride * (l_out - 1) + 1
                for j in range(k - 1, -1, -1):
                    gx[:, :, j * dilation:j * dilation + span:stride] += \
                        gcols[:, j].transpose(1, 0, 2)
                x._acc(gx)
            if bias.requires_grad:
                bias._acc(g.sum(axis=(0, 2)))
        out._backward = _bwd
    return out


def conv1d_output_length(length: int, kernel: int, stride: int, dilation: int) -> int:
    return (length - dilation * (kernel - 1) - 1) // stride + 1


def lstm(x, wx, wh, b):
    """Final hidden state (B, H) of a single-layer LSTM run from zero state
    over x: (B, N, F), with wx: (F, 4H), wh: (H, 4H) and b: (4H,), the gate
    columns ordered input, forget, cell, output.

    One node for the whole sequence: the closure keeps each tick's gates
    and cell state and runs backpropagation through time. Every value is
    formed in the order a per-tick graph of `add`, `matmul`, `mul` and
    elementwise sigmoid and tanh nodes would form it, so output and
    gradients equal that graph's bit for bit. x takes no gradient: an x
    that requires one is refused rather than silently dropped.
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
    i_s, f_s, g_s, o_s = (slice(k * hdim, (k + 1) * hdim) for k in range(4))
    h = np.zeros((xd.shape[0], hdim))
    c = np.zeros((xd.shape[0], hdim))
    hs, cs, ticks = [h], [c], []
    for t in range(xd.shape[1]):
        gates = (xd[:, t, :] @ wxd + h @ whd) + bd
        i, f = expit(gates[:, i_s]), expit(gates[:, f_s])
        g, o = np.tanh(gates[:, g_s]), expit(gates[:, o_s])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        hs.append(h)
        cs.append(c)
        ticks.append((i, f, g, o, tc))
    out = _node(h, x, wx, wh, b)
    if isinstance(out, Tensor) and out.requires_grad:
        x, wx, wh, b = out._parents
        def _bwd(dh):
            gwx, gwh, gb = np.zeros_like(wxd), np.zeros_like(whd), np.zeros_like(bd)
            dgates = np.empty((xd.shape[0], 4 * hdim))
            dc_next = None
            for t in range(xd.shape[1] - 1, -1, -1):
                i, f, g, o, tc = ticks[t]
                dc = (dh * o) * (1.0 - tc * tc)
                if dc_next is not None:
                    dc += dc_next
                dgates[:, i_s] = (dc * g) * i * (1.0 - i)
                dgates[:, f_s] = (dc * cs[t]) * f * (1.0 - f)
                dgates[:, g_s] = (dc * i) * (1.0 - g * g)
                dgates[:, o_s] = (dh * tc) * o * (1.0 - o)
                gb += dgates.sum(axis=0)
                gwx += xd[:, t, :].T @ dgates
                gwh += hs[t].T @ dgates
                dh = dgates @ whd.T
                dc_next = dc * f
            for p, gp in ((wx, gwx), (wh, gwh), (b, gb)):
                if p.requires_grad:
                    p._acc(gp)
        out._backward = _bwd
    return out


def dropout(x, rate: float, rng: np.random.Generator | None = None,
            train: bool = False):
    """Inverted dropout; identity in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ValidationError(f"dropout rate {rate} outside [0, 1)")
    if not train or rate == 0.0:
        return x if isinstance(x, Tensor) else _value(x)
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
