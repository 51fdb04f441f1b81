import gc
import json
import tempfile
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from fdcheck import assert_matches, check_directional, check_grads, fd_grad
from hypothesis import given, strategies as st
from scipy.linalg import solve_triangular
from scipy.special import expit

import resdyn.autodiff as ad
from resdyn.autodiff import Adam, Tensor, backward, parameter
from resdyn.core import ValidationError
from resdyn.encoders import _CONV_PARAMS, _encode_conv, conv1d_output_length
from resdyn.rng import seeded_rng
from resdyn import svgp
from resdyn.svgp import MAX_JITTER, VariationalGP


def randt(rng, *shape, shift=0.0):
    return parameter(rng.standard_normal(shape) + shift)


def conv_params(rng, shapes, plain=False):
    """The conv encoder's six parameters, standard normal, of the given
    shapes in `_CONV_PARAMS` order; arrays when plain, else parameters."""
    return {n: rng.standard_normal(sh) if plain else parameter(rng.standard_normal(sh), n)
            for n, sh in zip(_CONV_PARAMS, shapes)}


class TestBasics:
    def test_square_gradient(self):
        x = parameter(3.0)
        backward(ad.mul(x, x))
        assert x.grad == pytest.approx(6.0)

    def test_relu_gate(self):
        x = parameter(np.array([-1.0, 2.0]))
        backward(ad.tsum(ad.relu(x)))
        assert np.allclose(x.grad, [0.0, 1.0])

    def test_nonscalar_loss_rejected(self):
        x = parameter(np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            backward(ad.mul(x, x))

    def test_shared_subexpression_accumulates(self):
        # y = x*x + x*x  vs the unrolled tree with an independent copy
        x = parameter(2.0)
        s = ad.mul(x, x)
        backward(ad.add(s, s))
        x2 = parameter(2.0)
        x3 = parameter(2.0)
        backward(ad.add(ad.mul(x2, x2), ad.mul(x3, x3)))
        assert x.grad == pytest.approx(x2.grad + x3.grad)
        assert x.grad == pytest.approx(8.0)

    def test_shape_mismatch_diagnostic(self):
        a = parameter(np.zeros((2, 3)))
        b = parameter(np.zeros((2, 2)))
        with pytest.raises(ValidationError, match=r"2, 3.*2, 2"):
            ad.matmul(a, b)

    def test_graph_is_freed_without_cycle_collector(self):
        # backward closures get the upstream gradient as an argument and
        # keep no reference to their own node, so no graph is a cycle
        rng = seeded_rng(0, "acyclic")
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                a = randt(rng, 4, 4)
                x = randt(rng, 2, 3, 8)
                solved = ad.matmul(ad.transpose(a), ad.softmax(a))
                conv = _encode_conv(conv_params(rng, [(2, 8, 2), (2,), (2, 2, 2), (2,), (2, 3),
                                                      (3,)]), Tensor(x.data), (1, 1), 1)
                seq = ad.lstm(Tensor(x.data), randt(rng, 8, 8), randt(rng, 2, 8), randt(rng, 8))
                gp = VariationalGP(dim=4, inducing=3)
                gp.z.data = rng.standard_normal((3, 4))
                parts = [ad.softmax(solved), seq,
                         ad.sqrt(ad.add(ad.relu(solved), 1.0)), ad.mul(solved, solved),
                         ad.div(ad.sub(solved, 1.0), 2.0), ad.tmean(conv, axis=1),
                         gp.loss(solved, np.zeros((4, 2)), total_n=8)]
                loss = ad.tsum(ad.reshape(parts[0], (-1,)))
                for q in parts[1:]:
                    loss = ad.add(loss, ad.tsum(q))
                backward(loss)
                del a, x, solved, conv, seq, gp, parts, loss
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_interior_gradients_freed_leaves_kept(self):
        w = parameter(np.array([[1.0, -2.0], [0.5, 3.0]]))
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        h = ad.matmul(x, w)
        y = ad.relu(h)
        loss = ad.tsum(ad.mul(y, y))
        backward(loss)
        assert h.grad is None and y.grad is None and loss.grad is None
        assert w.grad.shape == (2, 2) and x.grad.shape == (1, 2)

    def test_first_gradient_is_a_copy(self):
        # tsum hands s a read-only broadcast view, and add hands s's
        # gradient array to both operands: the second accumulation into
        # a must write into neither
        a = parameter(np.zeros((2, 3)))
        b = parameter(np.zeros((2, 3)))
        w = np.arange(6.0).reshape(2, 3)
        for first_via_sum in (True, False):
            a.grad = b.grad = None
            s = ad.add(a, b)
            terms = [ad.tsum(s), ad.tsum(ad.mul(a, Tensor(w)))]
            backward(ad.add(*(terms if first_via_sum else terms[::-1])))
            assert np.array_equal(a.grad, 1.0 + w)
            assert np.array_equal(b.grad, np.ones((2, 3)))
        x = parameter(3.0)
        backward(ad.mul(x, x))  # 0-d operands: the gradient is a numpy scalar
        assert isinstance(x.grad, np.ndarray) and x.grad.shape == ()

    def test_first_gradient_stored_as_a_sum_into_zeros_would_be(self):
        # reductions over a gradient round by its memory order, so it keeps
        # data's order; and relu's gate times a negative gives -0.0, which
        # a sum into zeros turns into +0.0
        x = parameter(np.asfortranarray(np.arange(-3.0, 3.0).reshape(2, 3)))
        backward(ad.tsum(x))
        assert x.grad.flags.f_contiguous
        x.grad = None
        backward(ad.tsum(ad.mul(ad.relu(x), -1.0)))
        assert np.array_equal(x.grad, [[0.0, 0.0, 0.0], [0.0, -1.0, -1.0]])
        assert not np.signbit(x.grad[x.grad == 0.0]).any()

    def test_dropout_eval_is_identity(self):
        x = parameter(np.arange(6.0).reshape(2, 3))
        assert ad.dropout(x, 0.5, train=False) is x

    def test_dropout_train_scales(self):
        rng = seeded_rng(0, "drop")
        x = Tensor(np.ones((200, 50)))
        y = ad.dropout(x, 0.3, rng=rng, train=True)
        kept = y.data != 0.0
        assert abs(kept.mean() - 0.7) < 0.03
        assert np.allclose(y.data[kept], 1.0 / 0.7)


class TestConv1d:
    """The conv layers inside the conv encoder's fused node
    (`encoders._encode_conv`), which replaced the `conv1d` op: x (B, N, F)
    through conv1, relu, conv2, relu and the dense layer."""

    def test_identity_kernel(self):
        x = np.arange(1.0, 6.0).reshape(1, 5, 1)
        p = {n: Tensor(v) for n, v in zip(_CONV_PARAMS, (np.ones((1, 1, 1)), np.zeros(1),
                                                         np.ones((1, 1, 1)), np.zeros(1),
                                                         np.eye(5), np.zeros(5)))}
        y = _encode_conv(p, Tensor(x), (1, 1), 1)
        assert np.array_equal(y.data, x.reshape(1, 5))

    def test_length_formula_cases(self):
        # independent arithmetic for floor((L - d*(k-1) - 1)/s) + 1; the
        # second layer, refusing a kernel one longer than its input, names
        # the first layer's output length, and takes a kernel of exactly
        # that length to one position
        for length, k, s, d, expect in [(100, 6, 4, 1, 24), (100, 6, 4, 5, 19)]:
            assert (length - d * (k - 1) - 1) // s + 1 == expect
            assert conv1d_output_length(length, k, s, d) == expect
            p = {n: Tensor(np.zeros(sh)) for n, sh in zip(
                _CONV_PARAMS, [(4, 3, k), (4,), (4, 4, expect + 1), (4,), (4, 5), (5,)])}
            x = Tensor(np.zeros((2, length, 3)))
            with pytest.raises(ValidationError, match=f"conv2 input length {expect} too short"):
                _encode_conv(p, x, (d, 1), s)
            p["conv2_w"] = Tensor(np.zeros((4, 4, expect)))
            assert _encode_conv(p, x, (d, 1), s).data.shape == (2, 5)

    @pytest.mark.parametrize("batch", [1, 7, 256])
    @pytest.mark.parametrize("dilations", [(1, 1), (5, 1)], ids=["cnn", "dilated_cnn"])
    def test_forward_matches_loop(self, batch, dilations):
        # both layers of a conv encoder (6 features, 16 channels, kernel 6,
        # stride 4, window 100) and its dense layer against sums written out
        # per (b, o, l)
        rng = seeded_rng(batch, "conv-forward", *dilations)
        x = rng.standard_normal((batch, 100, 6))
        l1 = conv1d_output_length(100, 6, 4, dilations[0])
        l2 = conv1d_output_length(l1, 6, 4, dilations[1])
        p = conv_params(rng, [(16, 6, 6), (16,), (16, 16, 6), (16,), (16 * l2, 8), (8,)])
        y = _encode_conv(p, Tensor(x), dilations, 4).data
        h = x.transpose(0, 2, 1)
        for i, dilation in enumerate(dilations):
            w, bias = p[f"conv{i + 1}_w"].data, p[f"conv{i + 1}_b"].data
            l_out = conv1d_output_length(h.shape[2], 6, 4, dilation)
            taps = np.arange(6) * dilation
            ref = np.empty((batch, 16, l_out))
            for b in range(batch):
                for o in range(16):
                    for pos in range(l_out):
                        ref[b, o, pos] = bias[o] + np.sum(h[b][:, 4 * pos + taps] * w[o])
            h = np.maximum(ref, 0.0)
        ref = h.reshape(batch, -1) @ p["fc_w"].data + p["fc_b"].data
        assert y.shape == ref.shape
        assert np.allclose(y, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("k, stride, dilation, length", [
        (7, 1, 2, 40),   # up to 7 taps on one input position
        (6, 4, 5, 60),   # the encoders' strided, dilated layer
        (9, 4, 5, 70),   # 3 taps on one position at stride 4
    ])
    def test_input_gradient_matches_add_at_bit_for_bit(self, k, stride, dilation, length):
        # the second layer's input gradient, scattered back from its im2col
        # columns, reaches the first layer's weights and biases; a 1-tap
        # first layer gives the second an input of `length` positions
        rng = seeded_rng(2, "col2im")
        x = rng.standard_normal((3, stride * (length - 1) + 1, 2))
        p = conv_params(rng, [(2, 2, 1), (2,), (4, 2, k), (4,), (4 * conv1d_output_length(
            length, k, stride, dilation), 3), (3,)])
        p["conv2_w"].data *= 10.0 ** rng.uniform(-6, 6, (4, 2, k))
        g = rng.standard_normal((3, 3))
        backward(ad.tsum(ad.mul(_encode_conv(p, Tensor(x), (1, dilation), stride), Tensor(g))))
        h = np.maximum(np.einsum("bnf,cf->bcn", x[:, ::stride], p["conv1_w"].data[:, :, 0])
                       + p["conv1_b"].data[:, None], 0.0)
        pre = np.einsum("bclk,ock->bol", h[:, :, (np.arange(
            conv1d_output_length(length, k, stride, dilation)) * stride)[:, None]
            + np.arange(k) * dilation], p["conv2_w"].data) + p["conv2_b"].data[:, None]
        g_pre = np.where(pre > 0.0, (g @ p["fc_w"].data.T).reshape(pre.shape), 0.0)
        idx = (np.arange(pre.shape[2]) * stride)[:, None] + np.arange(k)[None, :] * dilation
        gcols = np.einsum("bol,ock->bclk", g_pre, p["conv2_w"].data, optimize=True)
        ref = np.zeros_like(h)
        np.add.at(ref, (slice(None), slice(None), idx), gcols)
        g_h = np.ascontiguousarray(np.where(h > 0.0, ref, 0.0).transpose(1, 0, 2))
        cols = x[:, ::stride].transpose(2, 0, 1).reshape(2, -1)
        assert np.array_equal(p["conv1_w"].grad[:, :, 0],
                              g_h.reshape(2, -1) @ np.ascontiguousarray(cols.T))
        assert np.array_equal(p["conv1_b"].grad, g_h.transpose(1, 0, 2).sum(axis=(0, 2)))

    def test_too_short_rejected(self):
        p = conv_params(seeded_rng(0, "conv-short"), [(1, 1, 6), (1,), (1, 1, 1), (1,),
                                                      (1, 1), (1,)])
        with pytest.raises(ValidationError, match="conv1 input length 5 too short"):
            _encode_conv(p, Tensor(np.zeros((1, 5, 1))), (1, 1), 1)

    @pytest.mark.parametrize("x_shape, b_shape, message", [
        ((9, 3), (4,), r"input must be \(B>=1, N, F\), got \(9, 3\)"),
        ((2, 9, 2), (4,), r"conv1_w has shape \(4, 3, 3\), want \(C, 2, K\)"),
        ((2, 9, 3), (1,), r"conv1_b has shape \(1,\), want \(4,\)"),
        ((2, 9, 3), (4, 1), r"conv1_b has shape \(4, 1\)"),
    ], ids=["2-d-input", "channels", "bias-length", "2-d-bias"])
    def test_shape_mismatch_rejected(self, x_shape, b_shape, message):
        # input (B, N, F=3), kernel (C_out=4, C_in=3, K), bias (C_out,)
        p = {n: Tensor(np.zeros(sh)) for n, sh in zip(
            _CONV_PARAMS, [(4, 3, 3), b_shape, (4, 4, 1), (4,), (28, 2), (2,)])}
        with pytest.raises(ValidationError, match=message):
            _encode_conv(p, Tensor(np.zeros(x_shape)), (1, 1), 1)


def lstm_reference(x, wx, wh, b):
    """Per-tick plain-numpy LSTM from zero state, gates ordered i, f, g, o:
    each tick's [1 | x_t | h_t] times [b; wx; wh], then tanh of the g block
    and the sigmoid 1/(1+exp(-v)) over the whole gate block."""
    hdim = wh.shape[0]
    w = np.concatenate((b[None], wx, wh))
    h = np.zeros((x.shape[0], hdim))
    c = np.zeros((x.shape[0], hdim))
    for t in range(x.shape[1]):
        gates = np.concatenate((np.ones((x.shape[0], 1)), x[:, t, :], h), axis=1) @ w
        g = np.tanh(gates[:, 2 * hdim:3 * hdim])
        s = 1.0 / (1.0 + np.exp(-gates))
        i, f, o = s[:, :hdim], s[:, hdim:2 * hdim], s[:, 3 * hdim:]
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def lstm_expit_bptt(x, wx, wh, b, dout):
    """The per-tick formulation `(x_t@wx + h@wh) + b` with scipy's expit and
    its backpropagation through time from the output gradient dout, in plain
    numpy: (h_N, d/dwx, d/dwh, d/db)."""
    hdim = wh.shape[0]
    hs, cs, ticks = [np.zeros((x.shape[0], hdim))], [np.zeros((x.shape[0], hdim))], []
    for t in range(x.shape[1]):
        gates = (x[:, t, :] @ wx + hs[-1] @ wh) + b
        i, f, o = (expit(gates[:, k * hdim:(k + 1) * hdim]) for k in (0, 1, 3))
        g = np.tanh(gates[:, 2 * hdim:3 * hdim])
        cs.append(f * cs[-1] + i * g)
        ticks.append((i, f, g, o, np.tanh(cs[-1])))
        hs.append(o * ticks[-1][4])
    gwx, gwh, gb = np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(b)
    dh, dc = dout, np.zeros_like(dout)
    for t in range(x.shape[1] - 1, -1, -1):
        i, f, g, o, tc = ticks[t]
        dc = dc + dh * o * (1.0 - tc * tc)
        dgates = np.concatenate((dc * g * i * (1.0 - i), dc * cs[t] * f * (1.0 - f),
                                 dc * i * (1.0 - g * g), dh * tc * o * (1.0 - o)), axis=1)
        gwx += x[:, t, :].T @ dgates
        gwh += hs[t].T @ dgates
        gb += dgates.sum(axis=0)
        dh, dc = dgates @ wh.T, dc * f
    return hs[-1], gwx, gwh, gb


def lstm_setup(seed, n, b=3, f=2, hdim=4, scale=1.0):
    rng = seeded_rng(seed, "lstm", n)
    x = Tensor(rng.standard_normal((b, n, f)))
    wx = parameter(scale * rng.standard_normal((f, 4 * hdim)), "wx")
    wh = parameter(scale * rng.standard_normal((hdim, 4 * hdim)), "wh")
    bias = parameter(rng.standard_normal(4 * hdim), "b")
    mix = Tensor(rng.standard_normal((b, hdim)))
    return x, wx, wh, bias, mix


class TestLstm:
    def test_forward_matches_per_tick_reference_bit_for_bit(self):
        x, wx, wh, bias, _ = lstm_setup(20, 30, b=5, f=6, hdim=16)
        out = ad.lstm(x, wx, wh, bias)
        assert np.array_equal(out.data, lstm_reference(x.data, wx.data, wh.data, bias.data))

    def test_matches_expit_formulation_at_encoder_size(self):
        # folding b into the GEMM reorders sums, and numpy's exp is not libm's:
        # not bit for bit, but within 1e-12 relative of each array's largest
        x, wx, wh, bias, mix = lstm_setup(26, 100, b=64, f=6, hdim=128, scale=0.1)
        out = ad.lstm(x, wx, wh, bias)
        backward(ad.tsum(ad.mul(out, mix)))
        want = lstm_expit_bptt(x.data, wx.data, wh.data, bias.data, mix.data)
        for got, ref in zip((out.data, wx.grad, wh.grad, bias.grad), want):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_sigmoid_within_4_ulp_of_expit_at_float_boundaries(self):
        tiny = np.nextafter(0.0, 1.0)
        v = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, np.finfo(float).tiny,
                      -np.finfo(float).tiny, 40.0, -40.0, 745.0, -745.0, 800.0, -800.0])
        got, want = ad._sigmoid_(v.copy()), expit(v)
        # both lie in [0, 1], where the int64 view counts ulps
        assert np.all(np.abs(got.view(np.int64) - want.view(np.int64)) <= 4)

    def test_gates_at_800_raise_no_warning(self):
        # exp(800) overflows to inf inside the sigmoid, whose limit 0 is exact
        x, wx, wh, bias, mix = lstm_setup(27, 5, scale=0.1)
        bias.data = np.where(np.arange(bias.data.size) % 2, 800.0, -800.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.lstm(x, wx, wh, bias)
            backward(ad.tsum(ad.mul(out, mix)))
        assert all(np.all(np.isfinite(a)) for a in (out.data, wx.grad, wh.grad, bias.grad))

    @pytest.mark.parametrize("n", [1, 7])
    def test_fd_weights(self, n):
        x, wx, wh, bias, mix = lstm_setup(21, n, scale=0.5)
        check_grads(lambda: ad.tsum(ad.mul(ad.lstm(x, wx, wh, bias), mix)), [wx, wh, bias])

    def test_saturated_gates_finite_and_fd_consistent(self):
        # units 0 and 1 get pre-activations near +-40, where expit returns
        # exactly 1 (or about 4e-18) and tanh returns exactly +-1; units 2
        # and 3 stay in range so the gradient is not all zeros
        assert expit(40.0) == 1.0 and np.tanh(40.0) == 1.0
        x, wx, wh, bias, mix = lstm_setup(22, 7, scale=0.1)
        signs = np.where(seeded_rng(23, "signs").random((4, 4)) < 0.5, -40.0, 40.0)
        signs[:, 2:] = 0.0
        bias.data += signs.reshape(-1)
        check_grads(lambda: ad.tsum(ad.mul(ad.lstm(x, wx, wh, bias), mix)), [wx, wh, bias])
        for p in (wx, wh, bias):
            assert np.all(np.isfinite(p.grad))
        assert np.any(bias.grad[2:4] != 0.0)

    def test_directional_at_encoder_size(self):
        # the lstm encoder's sizes: B=64 windows of N=100 ticks, F=6, H=128
        x, wx, wh, bias, mix = lstm_setup(24, 100, b=64, f=6, hdim=128, scale=0.1)
        check_directional(lambda: ad.tsum(ad.mul(ad.lstm(x, wx, wh, bias), mix)),
                          [wx, wh, bias], seeded_rng(25, "lstm-direction"))

    @pytest.mark.parametrize("x_shape, wx_shape, wh_shape, b_shape", [
        ((3, 6), (6, 16), (4, 16), (16,)),
        ((3, 0, 6), (6, 16), (4, 16), (16,)),
        ((3, 5, 6), (5, 16), (4, 16), (16,)),
        ((3, 5, 6), (6, 12), (4, 16), (16,)),
        ((3, 5, 6), (6, 16), (4, 12), (16,)),
        ((3, 5, 6), (6, 16), (4, 16), (12,)),
        ((3, 5, 6), (6, 16), (4, 16), (1, 16)),
    ], ids=["2-d-input", "no-ticks", "wx-rows", "wx-cols", "wh", "b-length", "2-d-b"])
    def test_shape_mismatch_rejected(self, x_shape, wx_shape, wh_shape, b_shape):
        # H = 4 from wh's rows: wx (F, 16), wh (4, 16), b (16,)
        args = [Tensor(np.zeros(s)) for s in (x_shape, wx_shape, wh_shape, b_shape)]
        with pytest.raises(ValidationError, match=r"lstm shape mismatch: input \("
                           + r", ".join(map(str, x_shape))):
            ad.lstm(*args)

    def test_input_gradient_refused(self):
        x = parameter(np.zeros((3, 5, 6)))
        with pytest.raises(ValidationError, match="no gradient for its input"):
            ad.lstm(x, parameter(np.zeros((6, 16))), parameter(np.zeros((4, 16))),
                    parameter(np.zeros(16)))


class TestFiniteDifference:
    """Central-FD oracle against every op's analytic gradient."""

    def test_binary_ops(self):
        rng = seeded_rng(1, "fd-bin")
        a = randt(rng, 3, 4)
        b = randt(rng, 3, 4, shift=3.0)  # keep divisor away from 0
        bc = randt(rng, 4, shift=3.0)    # broadcast case
        for op in (ad.add, ad.sub, ad.mul, ad.div):
            check_grads(lambda op=op: ad.tsum(op(a, b)), [a, b])
            check_grads(lambda op=op: ad.tsum(op(a, bc)), [a, bc])

    def test_unary_ops(self):
        rng = seeded_rng(1, "fd-un")
        x = randt(rng, 2, 5, shift=2.0)  # positive: valid for sqrt
        check_grads(lambda: ad.tsum(ad.sqrt(x)), [x])

    def test_relu_away_from_kink(self):
        rng = seeded_rng(1, "fd-relu")
        x = parameter(np.where(rng.standard_normal((3, 3)) > 0, 1.0, -1.0)
                      * rng.uniform(0.5, 2.0, (3, 3)))
        check_grads(lambda: ad.tsum(ad.relu(x)), [x])

    def test_matmul(self):
        rng = seeded_rng(1, "fd-mm")
        a, b = randt(rng, 3, 4), randt(rng, 4, 2)
        w = Tensor(rng.standard_normal((3, 2)))
        check_grads(lambda: ad.tsum(ad.mul(ad.matmul(a, b), w)), [a, b])

    def test_matmul_batched(self):
        rng = seeded_rng(1, "fd-bmm")
        a, b = randt(rng, 2, 3, 4), randt(rng, 2, 4, 2)
        w = Tensor(rng.standard_normal((2, 3, 2)))
        check_grads(lambda: ad.tsum(ad.mul(ad.matmul(a, b), w)), [a, b])

    def test_softmax(self):
        rng = seeded_rng(1, "fd-sm")
        x = randt(rng, 3, 5)
        w = Tensor(rng.standard_normal((3, 5)))
        check_grads(lambda: ad.tsum(ad.mul(ad.softmax(x), w)), [x])

    def test_reductions_and_shape(self):
        rng = seeded_rng(1, "fd-red")
        x = randt(rng, 3, 4)
        w0 = Tensor(rng.standard_normal(4))
        check_grads(lambda: ad.tsum(ad.mul(ad.tsum(x, axis=0), w0)), [x])
        check_grads(lambda: ad.tsum(ad.mul(ad.tmean(x, axis=1, keepdims=True),
                                           Tensor(np.ones((3, 1))))), [x])
        check_grads(lambda: ad.tsum(ad.mul(ad.reshape(x, (4, 3)),
                                           Tensor(np.arange(12.0).reshape(4, 3)))), [x])
        check_grads(lambda: ad.tsum(ad.mul(ad.transpose(x),
                                           Tensor(np.arange(12.0).reshape(4, 3)))), [x])

    def test_conv1d(self):
        # the conv encoder node, stride 2 and dilations (2, 1): lengths 15, 6, 3
        rng = seeded_rng(1, "fd-conv")
        x = Tensor(rng.standard_normal((2, 15, 3)))
        p = conv_params(rng, [(4, 3, 3), (4,), (3, 4, 2), (3,), (9, 2), (2,)])
        wt = Tensor(rng.standard_normal((2, 2)))
        check_grads(lambda: ad.tsum(ad.mul(_encode_conv(p, x, (2, 1), 2), wt)), list(p.values()))

    def test_dropout_train_fixed_mask(self):
        rng = seeded_rng(1, "fd-drop")
        x = randt(rng, 4, 4, shift=1.0)
        mask_rng_seed = 99

        def f():
            return ad.tsum(ad.dropout(x, 0.4, rng=seeded_rng(mask_rng_seed, "m"),
                                      train=True))
        check_grads(f, [x])

    def test_layer_norm(self):
        rng = seeded_rng(1, "fd-ln")
        x = randt(rng, 3, 6)
        gamma = randt(rng, 6, shift=1.0)
        beta = randt(rng, 6)
        w = Tensor(rng.standard_normal((3, 6)))
        check_grads(lambda: ad.tsum(ad.mul(ad.layer_norm(x, gamma, beta), w)),
                    [x, gamma, beta])

    # The SVGP's Cholesky, triangular-solve and Matern-5/2 adjoints, which
    # its fused ELBO node chains, against central differences of their
    # forward maps.

    def test_cholesky(self):
        rng = seeded_rng(1, "fd-chol")
        b = Tensor(rng.standard_normal((4, 4)))
        w = rng.standard_normal((4, 4))

        def f():
            return Tensor(np.sum(w * np.linalg.cholesky(b.data.T @ b.data + 2.0 * np.eye(4))))
        l = np.linalg.cholesky(b.data.T @ b.data + 2.0 * np.eye(4))
        ga = svgp._cholesky_adjoint(l, svgp._inv_lower(l), np.tril(w))
        (num,) = fd_grad(f, [b], h=1e-6)
        assert_matches(b.data @ (ga + ga.T), num, "b", rtol=3e-4)

    def test_trisolve(self):
        rng = seeded_rng(1, "fd-tri")
        l = Tensor(np.tril(rng.standard_normal((4, 4))) + 3.0 * np.eye(4))
        b = Tensor(rng.standard_normal((4, 3)))
        w = rng.standard_normal((4, 3))

        # the forward is the GP's, L^-1 b as a product with dtrtri's inverse;
        # np.tril keeps the differences off L's upper triangle, which
        # `_inv_lower` would copy through
        def f():
            return Tensor(np.sum(w * (svgp._inv_lower(np.tril(l.data)) @ b.data)))
        l_inv = svgp._inv_lower(l.data)
        gl, gb = svgp._trisolve_adjoint(l_inv, l_inv @ b.data, w)
        num_l, num_b = fd_grad(f, [l, b])
        assert_matches(gl, num_l, "l")
        assert_matches(gb, num_b, "b")

    def test_matern52(self):
        rng = seeded_rng(1, "fd-mat")
        a, b = Tensor(rng.standard_normal((3, 2))), Tensor(rng.standard_normal((4, 2)))
        scale = Tensor(np.array(1.7))
        w = rng.standard_normal((3, 4))

        def k():
            return svgp._matern(a.data, b.data, (b.data * b.data).sum(axis=1, keepdims=True).T,
                                scale.data)
        ga, gb, g_scale = svgp._matern_adjoint(w, a.data, b.data, k()[1], scale.data)
        numeric = fd_grad(lambda: Tensor(np.sum(w * k()[0])), [a, b, scale])
        for what, got, num in zip("a b scale".split(), (ga, gb, g_scale), numeric):
            assert_matches(got, num, what)

    def test_matern52_at_zero(self):
        unit, slope = svgp._matern52(np.array([0.0]))
        assert unit[0] == pytest.approx(1.0)
        assert slope[0] == pytest.approx(-5.0 / 6.0)
        # coincident rows: a zero distance passes a finite, zero gradient
        a = np.array([[0.3, -1.2], [2.0, 0.5]])
        _, parts = svgp._matern(a, a, (a * a).sum(axis=1, keepdims=True).T, 1.0)
        ga, gb, _ = svgp._matern_adjoint(np.eye(2), a, a, parts, 1.0)
        assert np.array_equal(ga, np.zeros_like(a)) and np.array_equal(gb, np.zeros_like(a))


def _plain_cases():
    """(op name, op, plain operands) covering every autodiff op."""
    rng = seeded_rng(3, "plain-ops")
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    x3 = rng.standard_normal((2, 5, 3))
    return [
        ("add", ad.add, (a, b)), ("sub", ad.sub, (a, 2.0)), ("mul", ad.mul, (a, b[0])),
        ("div", ad.div, (a, b)), ("sqrt", ad.sqrt, (np.abs(a),)),
        ("relu", ad.relu, (a,)),
        ("tsum", ad.tsum, (a,)), ("tsum axis", lambda v: ad.tsum(v, axis=1, keepdims=True), (a,)),
        ("tmean", lambda v: ad.tmean(v, axis=(0, 1)), (x3,)),
        ("reshape", lambda v: ad.reshape(v, (4, 3)), (a,)),
        ("transpose", lambda v: ad.transpose(v, (2, 0, 1)), (x3,)),
        ("matmul", ad.matmul, (x3, rng.standard_normal((3, 2)))),
        ("softmax", ad.softmax, (a,)),
        ("conv encoder", lambda v, *ws: _encode_conv(dict(zip(_CONV_PARAMS, ws)), v, (2, 1), 2),
         (rng.standard_normal((2, 12, 3)), *conv_params(
             rng, [(4, 3, 2), (4,), (3, 4, 2), (3,), (6, 2), (2,)], plain=True).values())),
        ("lstm", ad.lstm, (x3, rng.standard_normal((3, 8)), rng.standard_normal((2, 8)),
                           rng.standard_normal(8))),
        ("dropout eval", lambda v: ad.dropout(v, 0.5), (a,)),
        ("dropout train", lambda v: ad.dropout(v, 0.5, seeded_rng(1, "mask"), train=True), (a,)),
        ("layer_norm", ad.layer_norm, (a, b[0], b[1])),
        ("affine", ad.affine, (a, b.T, b[0, :3])),
    ]


class TestPlainOperands:
    """Every op returns a Tensor. One none of whose operands is a Tensor
    gives a constant node, holding the value the op gives on the same
    operands as constant Tensors."""

    @pytest.mark.parametrize("name, op, operands", _plain_cases(),
                             ids=[c[0] for c in _plain_cases()])
    def test_value_equals_node_data(self, name, op, operands):
        plain = op(*operands)
        node = op(*[Tensor(o) for o in operands])
        assert isinstance(plain, Tensor) and isinstance(node, Tensor)
        assert not plain.requires_grad and plain._parents == () and plain._backward is None
        assert plain.data.shape == node.data.shape
        assert plain.data.tobytes() == node.data.tobytes()

    @pytest.mark.parametrize("float_first", [False, True], ids=["tensor-float", "float-tensor"])
    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div],
                             ids=["add", "sub", "mul", "div"])
    def test_float_operand_same_as_constant_tensor(self, op, float_first):
        # a Python float, converted once, gives the values and gradients of
        # the same number as a constant Tensor, bit for bit
        rng = seeded_rng(5, "float-operand")
        data, mix = rng.standard_normal((3, 4)) + 3.0, Tensor(rng.standard_normal((3, 4)))
        results = []
        for const in (2.5, Tensor(np.array(2.5))):
            x = parameter(data.copy())
            out = op(*((const, x) if float_first else (x, const)))
            backward(ad.tsum(ad.mul(out, mix)))
            results.append((out.data.tobytes(), x.grad.tobytes()))
        assert results[0] == results[1]

    def test_one_tensor_operand_gives_a_node(self):
        w = parameter(np.ones((2, 2)))
        out = ad.matmul(np.eye(2), w)
        assert isinstance(out, Tensor) and out.requires_grad

    @pytest.mark.parametrize("op, operands, message", [
        (ad.add, (np.ones((2, 3)), np.ones(4)), "shape mismatch"),
        (ad.matmul, (np.ones(3), np.ones((3, 3))), "matmul needs >=2-D"),
        (ad.matmul, (np.ones((2, 3)), np.ones((2, 3))), "matmul shape mismatch"),
        (ad.lstm, (np.ones((1, 0, 2)), np.ones((2, 8)), np.ones((2, 8)), np.ones(8)),
         "lstm shape mismatch"),
        (_encode_conv, (dict(zip(_CONV_PARAMS, [np.ones((3, 2, 2)), *[np.ones(3)] * 5])),
                        np.ones((0, 9, 2)), (1, 1), 1), "conv encoder input must be"),
        (_encode_conv, (dict(zip(_CONV_PARAMS, [np.ones((3, 4, 2)), *[np.ones(3)] * 5])),
                        np.ones((1, 9, 2)), (1, 1), 1), "conv1_w has shape"),
        (ad.lstm, (np.ones((1, 3, 2)), np.ones((2, 8)), np.ones((2, 8)), np.ones(7)),
         "lstm shape mismatch"),
    ])
    def test_shape_checks_kept(self, op, operands, message):
        with pytest.raises(ValidationError, match=message):
            op(*operands)


class TestTriangularSolve:
    """The SVGP solves with its K_ZZ factor L by multiplying with L^-1
    (`svgp._inv_lower`, LAPACK dtrtri), formed once per factor, in the
    forward W = L^-1 K_ZX and in the adjoint alike."""

    @staticmethod
    def factor(m=128, seed=0):
        a = seeded_rng(seed, "tri-factor").standard_normal((m, m))
        return np.linalg.cholesky(a @ a.T / m + 0.1 * np.eye(m))

    def test_cholesky_adjoint_matches_solve_triangular_form(self):
        # products with L^-1 round otherwise than solves with L: not bit for
        # bit, but within 1e-14 of the largest entry on a factor of
        # condition number about 20
        rng = seeded_rng(2, "tri-adjoint")
        a = rng.standard_normal((16, 16))
        g = rng.standard_normal((16, 16))
        l = np.linalg.cholesky(a @ a.T + np.eye(16))
        grad = svgp._cholesky_adjoint(l, svgp._inv_lower(l), g)
        p = np.tril(l.T @ g)
        p[np.diag_indices_from(p)] *= 0.5
        tmp = solve_triangular(l, p, lower=True, trans="T")
        s = solve_triangular(l, tmp.T, lower=True, trans="T").T
        want = 0.5 * (s + s.T)
        np.testing.assert_allclose(grad, want, rtol=0, atol=1e-14 * np.abs(want).max())

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_inverse_matches_solve_with_identity(self, order):
        l = np.asarray(self.factor(), order=order)
        got = svgp._inv_lower(l)
        want = solve_triangular(l, np.eye(128), lower=True)
        assert np.array_equal(np.triu(got, 1), np.zeros((128, 128)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_singular_factor_refused(self):
        l = self.factor(8)
        l[3, 3] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="singular triangular factor"):
            svgp._inv_lower(l)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["l lower", "l upper"])
    def test_non_finite_operand_rejected(self, where, bad):
        # a factor is not re-checked when inverted: it is made only from a
        # K_ZZ checked whole, so a bad value in either triangle of K_ZZ is
        # refused before any factor exists (a non-finite K_XZ is refused
        # where it is formed: tests/test_svgp.py)
        l = self.factor(8)
        kzz = l @ l.T
        kzz[(6, 2) if where == "l lower" else (2, 6)] = bad
        with pytest.raises(ValidationError, match="K_ZZ is not finite"):
            VariationalGP(dim=1, inducing=8)._chol_kzz(kzz)


class TestCholeskyAdjoint:
    """The SVGP's Cholesky adjoint, `svgp._cholesky_adjoint` (Murray, Differentiation of the Cholesky
    decomposition, 2016) on a near-singular K_ZZ: duplicated inducing points
    make the Matern-5/2 kernel matrix rank-deficient, and the jitter is all
    that keeps it positive definite."""

    @staticmethod
    def reference_dl(a: np.ndarray, da: np.ndarray):
        """dL = L Phi(L^-1 dA L^-T) at 50 digits; Phi keeps the lower
        triangle and halves the diagonal."""
        with mpmath.workdps(50):
            l = mpmath.cholesky(mpmath.matrix(a.tolist()))
            l_inv = l ** -1
            x = l_inv * mpmath.matrix(da.tolist()) * l_inv.T
            n = len(a)
            phi = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(i + 1):
                    phi[i, j] = x[i, j] / 2 if i == j else x[i, j]
            return l * phi

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("jitter", [1e-8, 1e-6, MAX_JITTER])
    def test_dot_product_on_duplicated_inducing_points(self, jitter, seed):
        rng = seeded_rng(seed, "chol-adjoint")
        base = rng.standard_normal((5, 3))
        z = base[rng.permutation(np.repeat(np.arange(5), 2))]     # 10 points, rank 5
        sq = ((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=-1)
        k = svgp._matern52(sq)[0]
        assert np.linalg.matrix_rank(k, tol=1e-10) == 5
        a = k + jitter * np.eye(len(z))
        da = rng.standard_normal(a.shape)
        da = da + da.T
        g = np.tril(rng.standard_normal(a.shape))    # L's cotangent lives on its lower triangle
        l = np.linalg.cholesky(a)
        grad = svgp._cholesky_adjoint(l, svgp._inv_lower(l), g)
        assert np.isfinite(grad).all()
        lhs = float((grad * da).sum())
        dl = self.reference_dl(a, da)
        with mpmath.workdps(50):
            terms = [mpmath.mpf(float(g[i, j])) * dl[i, j]
                     for i in range(len(a)) for j in range(i + 1)]
            rhs, scale = float(mpmath.fsum(terms)), float(mpmath.fsum(map(abs, terms)))
        # a first-order forward-error bound: cond(A) ulps of the sum of
        # |G * dL|; the measured errors stay 30x or more below it
        tol = np.linalg.cond(a) * np.finfo(float).eps * scale
        assert abs(lhs - rhs) <= tol, (lhs, rhs, tol)


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = parameter(np.array([1.0, -2.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        assert np.allclose(p.data, [1.0, -2.0])

    def test_first_step_magnitude(self):
        p = parameter(np.array([0.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([0.37])
        opt.step()
        assert p.data[0] == pytest.approx(-0.1, rel=1e-6)

    def test_nonfinite_gradient_skipped(self):
        p = parameter(np.array([1.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([np.nan])
        assert opt.step() is False
        assert opt.skipped_steps == 1
        assert p.data[0] == 1.0

    def test_quadratic_bowl_converges(self):
        rng = seeded_rng(3, "bowl")
        w0 = rng.standard_normal(8)
        w0 /= np.linalg.norm(w0)
        p = parameter(w0.copy())
        opt = Adam([p], lr=0.05)
        for _ in range(200):
            opt.zero_grad()
            loss = ad.tsum(ad.mul(p, p))
            backward(loss)
            opt.step()
        assert np.linalg.norm(p.data) < 1e-2

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_learning_rate_rejected(self, lr):
        # a NaN rate would turn every parameter NaN in a step counted as taken
        with pytest.raises(ValidationError, match=f"Adam lr must be finite and > 0, got {lr}"):
            Adam([parameter(np.ones(2))], lr=lr)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = seeded_rng(4, "ckpt")
        arrays = {"w1": rng.standard_normal((3, 4)),
                  "b": rng.standard_normal(4),
                  "scalar": np.array(2.5)}
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(path, arrays)
        loaded = ad.load_checkpoint(path)
        assert set(loaded) == set(arrays)
        for k in arrays:
            assert np.array_equal(loaded[k], np.asarray(arrays[k]))

    @pytest.mark.parametrize("header", [
        b"\xff\xfenot json",
        b"{not json",
        b"[1, 2]",
        b'{"format": "f64-le"}',
        b'{"format": "f64-le", "entries": [{"name": "a", "shape": [-1], "offset": 0}]}',
        b'{"format": "f64-le", "entries": [{"name": "a", "shape": [1], "offset": true}]}',
        b'{"format": "f64-le", "entries": [{"name": 3, "shape": [1], "offset": 0}]}',
        b'{"format": "f64-le", "entries": ["a"]}',
    ])
    def test_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(header + b"\n" + np.ones(2).tobytes())
        with pytest.raises(ValidationError, match="bad.ckpt"):
            ad.load_checkpoint(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"")
        with pytest.raises(ValidationError, match="empty.ckpt"):
            ad.load_checkpoint(path)

    def test_other_format_rejected(self, tmp_path):
        path = tmp_path / "f32.ckpt"
        ad.save_checkpoint(path, {"a": np.ones(2)})
        raw = path.read_bytes().replace(b'"f64-le"', b'"f32-le"', 1)
        path.write_bytes(raw)
        with pytest.raises(ValidationError, match="f32.ckpt.*f32-le"):
            ad.load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.ckpt"
        ad.save_checkpoint(path, {"a": np.ones(3), "b": np.ones((2, 2))})
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])  # b's last element is missing
        with pytest.raises(ValidationError, match="short.ckpt.*'b'"):
            ad.load_checkpoint(path)
        path.write_bytes(raw[:-3])  # cut inside a float64
        with pytest.raises(ValidationError, match="short.ckpt.*float64"):
            ad.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_rejected(self, tmp_path, bad):
        # written by hand: save_checkpoint refuses non-finite arrays
        path = tmp_path / "nan.ckpt"
        header = {"format": "f64-le", "entries": [
            {"name": "ok", "shape": [2], "offset": 0},
            {"name": "w", "shape": [2], "offset": 2}]}
        payload = np.array([1.0, 1.0, 1.0, bad], dtype="<f8").tobytes()
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
        with pytest.raises(ValidationError, match="nan.ckpt.*'w'"):
            ad.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_not_saved(self, tmp_path, bad):
        path = tmp_path / "nan.ckpt"
        with pytest.raises(ValidationError, match="nan.ckpt.*'w'"):
            ad.save_checkpoint(path, {"ok": np.ones(2), "w": np.array([1.0, bad])})
        assert not path.exists()

    def test_header_is_json_line(self, tmp_path):
        path = tmp_path / "m.ckpt"
        ad.save_checkpoint(path, {"a": np.ones(2)})
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header["entries"][0] == {"name": "a", "shape": [2], "offset": 0}


# any JSON value json.loads can return, NaN and the infinities included
JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
                    max_leaves=6)


def load_bytes(raw: bytes):
    """load_checkpoint of a file holding `raw`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ckpt"
        path.write_bytes(raw)
        return ad.load_checkpoint(path)


class TestCheckpointFuzz:
    """Whatever the bytes, the loader returns arrays or raises a
    ValidationError, never another exception."""

    @given(st.binary(max_size=300))
    def test_random_bytes(self, raw):
        try:
            load_bytes(raw)
        except ValidationError:
            pass

    @given(st.data())
    def test_truncated_file_rejected(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "whole.ckpt"
            ad.save_checkpoint(path, {"a": np.arange(3.0), "b": np.ones((2, 2)),
                                      "c": np.array(2.5)})
            raw = path.read_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(ValidationError):
            load_bytes(raw[:cut])

    @given(fmt=st.just("f64-le") | JSON,
           name=st.text(max_size=5) | JSON,
           shape=st.lists(st.integers(-2, 4), max_size=3) | JSON,
           offset=st.integers(-2, 8) | JSON,
           payload=st.integers(0, 10))
    def test_bad_header_fields(self, fmt, name, shape, offset, payload):
        header = {"format": fmt, "entries": [{"name": name, "shape": shape, "offset": offset}]}
        raw = json.dumps(header).encode("utf-8") + b"\n" + np.ones(payload).tobytes()
        try:
            load_bytes(raw)
        except ValidationError:
            pass
