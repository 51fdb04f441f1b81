"""Sequence encoders mapping a command/state window to a latent vector.

The paper's corrector variants differ only in the encoder, so each of the
five kinds is one fixed architecture, held in module constants. `cnn` and
`dilated_cnn` are two ReLU conv layers of 16 filters, kernel 6, stride 4,
dilated (1, 1) and (5, 1), fused with the dense layer into one autodiff
node (`_encode_conv`); `lstm` is one 128-unit LSTM layer; `attention` is
two 32-wide self-attention blocks within segments of 5 ticks, mean-pooled
per segment, so its window is a multiple of 25. Each ends in a dense layer.
`transformer` is one 64-wide encoder layer with sinusoidal positions and a
1024-wide feed-forward block under dropout 0.1, mean-pooled over the
window into the latent. A spec sets only kind, window and features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from .autodiff import Tensor, _node, _value, parameter
from .core import ValidationError, check_finite, check_positive_int

# the shipped latent size of each kind
_LATENT_DIMS = {"cnn": 250, "dilated_cnn": 200, "lstm": 128, "attention": 200,
                "transformer": 64}
KINDS = tuple(_LATENT_DIMS)
_KERNEL, _STRIDE = 6, 4                               # both conv layers
_DILATIONS = {"cnn": (1, 1), "dilated_cnn": (5, 1)}   # per conv layer
_CHANNELS = 16                                        # both conv layers
_HIDDEN = 128                                         # lstm
_SEGMENT, _BLOCKS, _ATT_DIM = 5, 2, 32                # attention
_FF_DIM, _DROPOUT = 1024, 0.1                         # transformer
_CONV_PARAMS = ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "fc_w", "fc_b")


@dataclass(frozen=True)
class EncoderSpec:
    kind: str
    window: int = 100
    features: int = 6

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown encoder kind {self.kind!r}, want one of {KINDS}")
        for name in ("window", "features"):
            check_positive_int(getattr(self, name), f"encoder spec field {name!r}")
        n_min = min_window_length(self)
        if self.window < n_min:
            raise ValidationError(
                f"{self.kind} needs a window of at least {n_min} ticks, got {self.window}")
        if self.kind == "attention" and self.window % n_min:
            raise ValidationError(
                f"attention needs a window that is a multiple of {n_min} ticks, "
                f"got {self.window}")

    @property
    def latent_dim(self) -> int:
        return _LATENT_DIMS[self.kind]


def make_spec(kind: str, /, window: int = 100, features: int = 6) -> EncoderSpec:
    return EncoderSpec(kind, window, features)


def min_window_length(spec: EncoderSpec) -> int:
    """Smallest window the encoder accepts."""
    if spec.kind in ("lstm", "transformer"):
        return 1
    if spec.kind == "attention":
        return _SEGMENT ** _BLOCKS
    # a conv layer keeps m >= 1 outputs iff its input length is at least
    # (m-1)*stride + dilation*(kernel-1) + 1; walk back from m = 1 at the top
    length = 1
    for d in reversed(_DILATIONS[spec.kind]):
        length = (length - 1) * _STRIDE + d * (_KERNEL - 1) + 1
    return length


def conv1d_output_length(length: int, kernel: int, stride: int, dilation: int) -> int:
    return (length - dilation * (kernel - 1) - 1) // stride + 1


def conv_chain_lengths(spec: EncoderSpec) -> list[int]:
    lengths, length = [], spec.window
    for d in _DILATIONS[spec.kind]:
        length = conv1d_output_length(length, _KERNEL, _STRIDE, d)
        lengths.append(length)
    return lengths


def init_encoder(spec: EncoderSpec, rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh parameter set for the given spec; names are stable and used by
    the checkpoint format."""
    f = spec.features

    def normal(name, *shape, scale):
        return parameter(rng.normal(0.0, scale, shape), name)

    def zeros(name, *shape):
        return parameter(np.zeros(shape), name)

    p: dict[str, Tensor] = {}
    if spec.kind in ("cnn", "dilated_cnn"):
        c, k = _CHANNELS, _KERNEL
        p["conv1_w"] = normal("conv1_w", c, f, k, scale=math.sqrt(2.0 / (f * k)))
        p["conv1_b"] = zeros("conv1_b", c)
        p["conv2_w"] = normal("conv2_w", c, c, k, scale=math.sqrt(2.0 / (c * k)))
        p["conv2_b"] = zeros("conv2_b", c)
        flat = c * conv_chain_lengths(spec)[-1]
        p["fc_w"] = normal("fc_w", flat, spec.latent_dim, scale=math.sqrt(1.0 / flat))
        p["fc_b"] = zeros("fc_b", spec.latent_dim)
    elif spec.kind == "lstm":
        h = _HIDDEN
        bound = 1.0 / math.sqrt(h)
        p["wx"] = parameter(rng.uniform(-bound, bound, (f, 4 * h)), "wx")
        p["wh"] = parameter(rng.uniform(-bound, bound, (h, 4 * h)), "wh")
        b = np.zeros(4 * h)
        b[h:2 * h] = 1.0  # forget-gate bias
        p["b"] = parameter(b, "b")
        p["fc_w"] = normal("fc_w", h, spec.latent_dim, scale=math.sqrt(1.0 / h))
        p["fc_b"] = zeros("fc_b", spec.latent_dim)
    elif spec.kind == "attention":
        d_in = f
        for i in range(_BLOCKS):
            for nm in ("q", "k", "v"):
                p[f"blk{i}_{nm}"] = normal(f"blk{i}_{nm}", d_in, _ATT_DIM,
                                           scale=math.sqrt(1.0 / d_in))
            d_in = _ATT_DIM
        flat = spec.window // _SEGMENT ** _BLOCKS * _ATT_DIM
        p["fc_w"] = normal("fc_w", flat, spec.latent_dim, scale=math.sqrt(1.0 / flat))
        p["fc_b"] = zeros("fc_b", spec.latent_dim)
    elif spec.kind == "transformer":
        e = spec.latent_dim
        p["embed_w"] = normal("embed_w", f, e, scale=math.sqrt(1.0 / f))
        p["embed_b"] = zeros("embed_b", e)
        for nm in ("wq", "wk", "wv", "wo"):
            p[nm] = normal(nm, e, e, scale=math.sqrt(1.0 / e))
        p["ln1_g"] = parameter(np.ones(e), "ln1_g")
        p["ln1_b"] = zeros("ln1_b", e)
        p["ff1_w"] = normal("ff1_w", e, _FF_DIM, scale=math.sqrt(2.0 / e))
        p["ff1_b"] = zeros("ff1_b", _FF_DIM)
        p["ff2_w"] = normal("ff2_w", _FF_DIM, e, scale=math.sqrt(1.0 / _FF_DIM))
        p["ff2_b"] = zeros("ff2_b", e)
        p["ln2_g"] = parameter(np.ones(e), "ln2_g")
        p["ln2_b"] = zeros("ln2_b", e)
        # fixed sinusoidal positions, saved with the weights but not trained
        p["pos"] = Tensor(sinusoidal_positions(spec.window, e))
    return p


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length)[:, None].astype(float)
    i = np.arange(dim)[None, :].astype(float)
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / dim)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


def encode(params: dict[str, Tensor], spec: EncoderSpec, windows: np.ndarray | Tensor,
           train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Latent vectors (B, latent_dim) for a batch of normalized windows
    (B, N, F). N must equal the configured window length, and every entry
    must be finite: an lstm's saturated gates would hide an infinity."""
    x = ad.as_tensor(windows)
    if x.data.ndim != 3 or x.data.shape[2] != spec.features:
        raise ValidationError(f"windows must be (B, N, {spec.features}), got {x.data.shape}")
    if x.data.shape[1] != spec.window:
        raise ValidationError(
            f"window length {x.data.shape[1]} differs from configured {spec.window}")
    check_finite(x.data, "window entry (window, tick, feature)")
    if spec.kind in ("cnn", "dilated_cnn"):
        return _encode_conv(params, x, _DILATIONS[spec.kind], _STRIDE)
    if spec.kind == "lstm":
        return _encode_lstm(params, x)
    if spec.kind == "attention":
        return _encode_attention(params, x)
    return _encode_transformer(params, spec, x, train, rng)


def _encode_conv(p, x, dilations, stride):
    """relu(conv2(relu(conv1(x)))) flattened through the dense layer, as one
    node over x (B, N, F) and p's `_CONV_PARAMS`: conv{i}_w (C_out, C_in, K),
    conv{i}_b (C_out,), fc_w (C*L, D) and fc_b (D,). Each layer is one GEMM
    of its weights as (C_out, C_in*K) against the im2col block
    (C_in*K, B*L_out), activations kept as (C, B*L); the second layer's
    input gradient is col2im, taps from last to first as np.add.at adds.
    Latent and gradients equal, bit for bit, those of the same layers as a
    graph of conv, relu, reshape and affine nodes. x takes no gradient: an
    x that requires one is refused, not dropped."""
    if stride < 1 or min(dilations) < 1:
        raise ValidationError(
            f"conv stride {stride} and dilations {dilations} must each be at least 1")
    xd, ws = _value(x), [_value(p[n]) for n in _CONV_PARAMS]
    if xd.ndim != 3 or not xd.shape[0]:
        raise ValidationError(f"conv encoder input must be (B>=1, N, F), got {xd.shape}")
    if isinstance(x, Tensor) and x.requires_grad:
        raise ValidationError("the conv encoder takes no gradient for its input x")
    nb, h, cols_t, acts = xd.shape[0], xd.transpose(0, 2, 1), [], []   # h: (B, C, L)
    for i, d in enumerate(dilations):
        (w, bias), (_, c, length) = ws[2 * i:2 * i + 2], h.shape
        if w.ndim != 3 or w.shape[1] != c:
            raise ValidationError(f"conv{i + 1}_w has shape {w.shape}, want (C, {c}, K)")
        if bias.shape != w.shape[:1]:
            raise ValidationError(f"conv{i + 1}_b has shape {bias.shape}, want ({len(w)},)")
        k, l_out = w.shape[2], conv1d_output_length(length, w.shape[2], stride, d)
        if l_out < 1:
            raise ValidationError(
                f"conv{i + 1} input length {length} too short for kernel {k}, stride "
                f"{stride}, dilation {d} (needs length >= {d * (k - 1) + 1})")
        sb, sc, sl = h.strides          # cols[c*K + j, b*L_out + l] = h[b, c, l*stride + j*d]
        cols = as_strided(h, (c, k, nb, l_out), (sc, d * sl, sb, stride * sl),
                          writeable=False).copy().reshape(c * k, -1)
        a = w.reshape(len(w), -1) @ cols
        cols_t.append(np.ascontiguousarray(cols.T))     # the weight gradient's operand
        a += bias[:, None]
        acts.append(np.maximum(a, 0.0, out=a))          # (C_out, B*L_out)
        h = a.reshape(len(w), nb, l_out).transpose(1, 0, 2)
    fw, fb = ws[4:]
    if fw.ndim != 2 or fw.shape[0] != h.shape[1] * h.shape[2]:
        raise ValidationError(f"fc_w has shape {fw.shape}, want ({h.shape[1] * h.shape[2]}, D)")
    if fb.shape != fw.shape[1:]:
        raise ValidationError(f"fc_b has shape {fb.shape}, want ({fw.shape[1]},)")
    flat = h.reshape(nb, -1)                            # (B, C*L), a copy
    data = flat @ fw
    data += fb
    def _bwd(g, x, *params):
        grads = [None] * 4 + [flat.T @ g, g.sum(axis=0)]
        gh = (g @ fw.T).reshape(h.shape).transpose(1, 0, 2)  # at the top activations
        for i in (1, 0):
            w, a, d = ws[2 * i], acts[i], dilations[i]
            g2 = np.multiply(gh, a.reshape(gh.shape) > 0.0, out=np.empty(gh.shape))
            g2 = np.add(g2, 0.0, out=g2).reshape(a.shape)   # -0.0 as +0.0, as _acc does
            del gh                                  # before the next buffers: peak memory
            grads[2 * i] = (g2 @ cols_t[i]).reshape(w.shape)
            grads[2 * i + 1] = g2.sum(axis=1)
            if i:       # col2im of the columns' gradient, built as (C, L, B)
                (c_in, k), l_out = w.shape[1:], a.shape[1] // nb
                g2 = (w.reshape(len(w), -1).T @ g2).reshape(c_in, k, nb, l_out)
                gh = np.zeros((c_in, acts[0].shape[1] // nb, nb))
                span = stride * (l_out - 1) + 1
                for j in range(k - 1, -1, -1):
                    gh[:, j * d:j * d + span:stride] += g2[:, j].transpose(0, 2, 1)
                gh = gh.transpose(0, 2, 1)
        for t, gp in zip(params, grads):
            if t.requires_grad:
                t._acc(gp)
    return _node(data, (x, *(p[n] for n in _CONV_PARAMS)), _bwd)


def _encode_lstm(p, x):
    return ad.affine(ad.lstm(x, p["wx"], p["wh"], p["b"]), p["fc_w"], p["fc_b"])


def _self_attention(flat, wq, wk, wv, groups, length):
    """Single-head softmax(QKᵀ/√d)V within each of `groups` sequences of
    `length` rows of flat (groups*length, D): (groups, length, d)."""
    d = wq.data.shape[1]
    q, k, v = (ad.reshape(ad.matmul(flat, w), (groups, length, d)) for w in (wq, wk, wv))
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(d))
    return ad.matmul(ad.softmax(scores), v)


def _attention_block(x, wq, wk, wv):
    """Self-attention within non-overlapping segments, mean-pooled per
    segment: (B, T, D) -> (B, T//segment, d_att); T is a multiple of the
    segment length."""
    b, t, d = x.data.shape
    s = t // _SEGMENT
    att = _self_attention(ad.reshape(x, (b * t, d)), wq, wk, wv, b * s, _SEGMENT)
    return ad.reshape(ad.tmean(att, axis=1), (b, s, wq.data.shape[1]))


def _encode_attention(p, x):
    h = x
    for i in range(_BLOCKS):
        h = _attention_block(h, p[f"blk{i}_q"], p[f"blk{i}_k"], p[f"blk{i}_v"])
    b = h.data.shape[0]
    flat = ad.reshape(h, (b, -1))
    return ad.affine(flat, p["fc_w"], p["fc_b"])


def _encode_transformer(p, spec, x, train, rng):
    b, n, f = x.data.shape
    e = spec.latent_dim
    flat = ad.reshape(x, (b * n, f))
    emb = ad.reshape(ad.affine(flat, p["embed_w"], p["embed_b"]), (b, n, e))
    emb = ad.add(emb, p["pos"])
    att = _self_attention(ad.reshape(emb, (b * n, e)), p["wq"], p["wk"], p["wv"], b, n)
    att = ad.reshape(ad.matmul(ad.reshape(att, (b * n, e)), p["wo"]), (b, n, e))
    sub1 = ad.layer_norm(ad.add(emb, att), p["ln1_g"], p["ln1_b"])
    # position-wise feed-forward with dropout inside
    ff = ad.relu(ad.affine(ad.reshape(sub1, (b * n, e)), p["ff1_w"], p["ff1_b"]))
    ff = ad.dropout(ff, _DROPOUT, rng=rng, train=train)
    ff = ad.reshape(ad.affine(ff, p["ff2_w"], p["ff2_b"]), (b, n, e))
    sub2 = ad.layer_norm(ad.add(sub1, ff), p["ln2_g"], p["ln2_b"])
    return ad.tmean(sub2, axis=1)


def trainable(params: dict[str, Tensor]) -> list[Tensor]:
    return [t for t in params.values() if t.requires_grad]
