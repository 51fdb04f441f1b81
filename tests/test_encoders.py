from dataclasses import fields

import numpy as np
import pytest
from fdcheck import check_directional, check_grads

import resdyn.autodiff as ad
from resdyn.autodiff import Tensor, backward, parameter
from resdyn.core import ValidationError
from resdyn.encoders import (_CONV_PARAMS, _DILATIONS, _DROPOUT, _FF_DIM, _STRIDE, KINDS,
                             EncoderSpec, conv_chain_lengths, encode, init_encoder,
                             make_spec, min_window_length, trainable)
from resdyn.rng import seeded_rng

# each kind's shortest window (a few ticks for lstm and transformer, which
# take any), so that the finite-difference checks run on the shipped widths
SHORT = {"cnn": 26, "dilated_cnn": 46, "lstm": 7, "attention": 25, "transformer": 6}

# parameter names and shapes of each kind's shipped structure at
# make_spec(kind): window 100, 6 features
SHIPPED = {
    "cnn": [("conv1_w", (16, 6, 6)), ("conv1_b", (16,)), ("conv2_w", (16, 16, 6)),
            ("conv2_b", (16,)), ("fc_w", (80, 250)), ("fc_b", (250,))],
    "dilated_cnn": [("conv1_w", (16, 6, 6)), ("conv1_b", (16,)), ("conv2_w", (16, 16, 6)),
                    ("conv2_b", (16,)), ("fc_w", (64, 200)), ("fc_b", (200,))],
    "lstm": [("wx", (6, 512)), ("wh", (128, 512)), ("b", (512,)), ("fc_w", (128, 128)),
             ("fc_b", (128,))],
    "attention": [("blk0_q", (6, 32)), ("blk0_k", (6, 32)), ("blk0_v", (6, 32)),
                  ("blk1_q", (32, 32)), ("blk1_k", (32, 32)), ("blk1_v", (32, 32)),
                  ("fc_w", (128, 200)), ("fc_b", (200,))],
    "transformer": [("embed_w", (6, 64)), ("embed_b", (64,)), ("wq", (64, 64)),
                    ("wk", (64, 64)), ("wv", (64, 64)), ("wo", (64, 64)), ("ln1_g", (64,)),
                    ("ln1_b", (64,)), ("ff1_w", (64, 1024)), ("ff1_b", (1024,)),
                    ("ff2_w", (1024, 64)), ("ff2_b", (64,)), ("ln2_g", (64,)),
                    ("ln2_b", (64,)), ("pos", (100, 64))],
}


def short_setup(kind, seed=0):
    spec = make_spec(kind, window=SHORT[kind])
    params = init_encoder(spec, seeded_rng(seed, "enc", kind))
    return spec, params


class TestShapes:
    def test_cnn_default_lengths_and_latent(self):
        spec = make_spec("cnn", window=100)
        assert conv_chain_lengths(spec) == [24, 5]
        assert spec.latent_dim == 250
        params = init_encoder(spec, seeded_rng(0, "cnn100"))
        z = encode(params, spec, np.zeros((3, 100, 6)))
        assert z.data.shape == (3, 250)

    def test_dilated_default_lengths(self):
        spec = make_spec("dilated_cnn", window=100)
        assert conv_chain_lengths(spec) == [19, 4]
        assert spec.latent_dim == 200

    def test_lstm_latent_is_128_for_any_valid_n(self):
        for n in (1, 13, 100):
            spec = make_spec("lstm", window=n)
            params = init_encoder(spec, seeded_rng(0, "lstm", n))
            z = encode(params, spec, np.zeros((2, n, 6)))
            assert z.data.shape == (2, 128)

    def test_transformer_table_values(self):
        assert (_FF_DIM, _DROPOUT) == (1024, 0.1)

    def test_transformer_latent_defaults_to_embed_dim(self):
        # the latent is the pooled embedding, so latent_dim is the width
        spec = make_spec("transformer", window=10)
        assert spec.latent_dim == 64
        params = init_encoder(spec, seeded_rng(0, "tf64"))
        assert params["wq"].data.shape == (64, 64)
        z = encode(params, spec, np.zeros((2, 10, 6)))
        assert z.data.shape == (2, 64)

    def test_kinds_and_unknown_kind(self):
        assert KINDS == ("cnn", "dilated_cnn", "lstm", "attention", "transformer")
        for kind in KINDS:
            assert make_spec(kind).kind == kind
        with pytest.raises(ValidationError, match="unknown encoder kind 'gru'"):
            make_spec("gru")

    def test_attention_latent(self):
        spec = make_spec("attention", window=100)
        params = init_encoder(spec, seeded_rng(0, "att100"))
        z = encode(params, spec, np.zeros((2, 100, 6)))
        assert z.data.shape == (2, 200)

    def test_wrong_window_length_rejected(self):
        spec, params = short_setup("cnn")
        with pytest.raises(ValidationError, match="differs from configured"):
            encode(params, spec, np.zeros((2, 30, 6)))

    def test_wrong_feature_count_rejected(self):
        spec, params = short_setup("lstm")
        with pytest.raises(ValidationError):
            encode(params, spec, np.zeros((2, 7, 5)))


def graph_nodes(out: Tensor) -> int:
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def conv_reference(x, p, dilations, stride, g):
    """The conv encoder as the graph of ops it was built from before it was
    one node (transpose, conv1d, relu, conv1d, relu, reshape, matmul, add),
    in plain numpy: each conv one GEMM of its weights against im2col columns
    taken by fancy indexing, its gradient held as (C, B, L) in memory, and
    its input gradient scattered back with np.add.at. p maps the six
    parameter names to arrays and g is the latent's gradient. Returns the
    latent and a dict of the six gradients."""
    acts, cols, taps = [x.transpose(0, 2, 1)], [], []
    for i, d in enumerate(dilations):
        w, bias, h = p[f"conv{i + 1}_w"], p[f"conv{i + 1}_b"], acts[-1]
        (nb, c_in, length), (c_out, _, k) = h.shape, w.shape
        l_out = (length - d * (k - 1) - 1) // stride + 1
        taps.append((np.arange(l_out) * stride)[:, None] + np.arange(k) * d)   # (L_out, K)
        cols.append(h[:, :, taps[-1]].transpose(1, 3, 0, 2).reshape(c_in * k, nb * l_out))
        pre = (w.reshape(c_out, -1) @ cols[-1]).reshape(c_out, nb, l_out).transpose(1, 0, 2)
        acts.append(np.maximum(pre + bias[:, None], 0.0))
    flat = acts[-1].reshape(len(x), -1)
    grads = {"fc_w": flat.T @ g, "fc_b": g.sum(axis=0)}
    g_act = (g @ p["fc_w"].T).reshape(acts[-1].shape)
    for i in (1, 0):
        w = p[f"conv{i + 1}_w"]
        g_pre = np.ascontiguousarray(np.where(acts[i + 1] > 0.0, g_act, 0.0).transpose(1, 0, 2))
        g2 = g_pre.reshape(len(w), -1)
        grads[f"conv{i + 1}_w"] = (g2 @ np.ascontiguousarray(cols[i].T)).reshape(w.shape)
        grads[f"conv{i + 1}_b"] = g_pre.transpose(1, 0, 2).sum(axis=(0, 2))
        if i:
            c_in, k = w.shape[1:]
            gcols = (w.reshape(len(w), -1).T @ g2).reshape(c_in, k, len(x), -1)
            g_act = np.zeros(acts[1].shape)
            np.add.at(g_act, (slice(None), slice(None), taps[1]), gcols.transpose(2, 0, 3, 1))
    return flat @ p["fc_w"] + p["fc_b"], grads


def conv_case(kind, batch, seed):
    """A shipped-size conv encoder with nonzero biases, a batch of windows
    and a latent gradient."""
    spec = make_spec(kind)
    params = init_encoder(spec, seeded_rng(seed, "conv-node", kind))
    rng = seeded_rng(seed, "conv-node-data", kind, batch)
    for name in ("conv1_b", "conv2_b", "fc_b"):
        params[name].data = 0.1 * rng.standard_normal(params[name].data.shape)
    return (spec, params, rng.standard_normal((batch, spec.window, spec.features)),
            rng.standard_normal((batch, spec.latent_dim)))


class TestConvNode:
    """The conv encoders' one fused node, `_encode_conv`."""

    @pytest.mark.parametrize("batch", [1, 8, 256])
    @pytest.mark.parametrize("kind", ["cnn", "dilated_cnn"])
    def test_equals_op_graph_bit_for_bit(self, kind, batch):
        spec, params, x, g = conv_case(kind, batch, 30)
        x[0, :40] = 0.0        # with zero biases below, pre-activations exactly 0
        params["conv1_b"].data[:4] = 0.0
        out = encode(params, spec, x)
        backward(ad.tsum(ad.mul(out, Tensor(g))))
        want, grads = conv_reference(x, {n: t.data for n, t in params.items()},
                                     _DILATIONS[kind], _STRIDE, g)
        assert out.data.tobytes() == want.tobytes()
        for name in _CONV_PARAMS:
            assert params[name].grad.tobytes() == grads[name].tobytes(), name

    def test_fd_at_exactly_zero_pre_activations(self):
        # window 0 is all zeros and the conv biases are 0, so every one of
        # its pre-activations is exactly 0 whatever the weights; the weights'
        # gradients must match central differences there
        spec, params = short_setup("cnn", seed=31)
        rng = seeded_rng(32, "conv-zero")
        x = rng.standard_normal((2, spec.window, 6))
        x[0] = 0.0
        mix = Tensor(rng.standard_normal((2, spec.latent_dim)))
        fn = lambda: ad.tsum(ad.mul(encode(params, spec, x), mix))  # noqa: E731
        weights = [params[n] for n in ("conv1_w", "conv2_w", "fc_w", "fc_b")]
        check_grads(fn, weights)
        assert np.all(params["conv1_b"].data == 0.0) and np.all(params["conv2_b"].data == 0.0)

    @pytest.mark.parametrize("kind", ["cnn", "dilated_cnn"])
    def test_directional_at_benchmark_batch(self, kind):
        # a step small enough that no pre-activation changes sign between
        # the two evaluations: at h = 1e-4 one of dilated_cnn's 77824 first-
        # layer pre-activations crosses 0, and the difference then straddles
        # a ReLU kink
        spec, params, x, g = conv_case(kind, 256, 33)
        mix = Tensor(g)
        check_directional(lambda: ad.tsum(ad.mul(encode(params, spec, x), mix)),
                          trainable(params), seeded_rng(34, "conv-direction", kind), h=1e-6)

    def test_encode_is_one_node(self):
        # the node, its input windows and the six parameters
        spec, params, x, _ = conv_case("cnn", 4, 35)
        out = encode(params, spec, x)
        assert graph_nodes(out) == 8
        assert {id(t) for t in out._parents[1:]} == {id(params[n]) for n in _CONV_PARAMS}

    def test_empty_batch_refused(self):
        spec, params, _, _ = conv_case("cnn", 2, 36)
        with pytest.raises(ValidationError, match=r"must be \(B>=1, N, F\), got \(0, 100, 6\)"):
            encode(params, spec, np.zeros((0, 100, 6)))

    def test_input_gradient_refused(self):
        spec, params, x, _ = conv_case("cnn", 2, 36)
        with pytest.raises(ValidationError, match="no gradient for its input x"):
            encode(params, spec, parameter(x))

    @pytest.mark.parametrize("name, shape", [("conv1_w", (16, 5, 6)), ("conv1_b", (15,)),
                                             ("conv2_w", (16, 16)), ("conv2_b", (16, 1)),
                                             ("fc_w", (81, 250)), ("fc_b", (249,))])
    def test_wrong_parameter_shape_named(self, name, shape):
        spec, params, x, _ = conv_case("cnn", 2, 37)
        params[name].data = np.zeros(shape)
        with pytest.raises(ValidationError, match=f"{name} has shape"):
            encode(params, spec, x)


class TestLstmGraph:
    def test_node_count_does_not_grow_with_window(self):
        # one fused node runs the whole sequence; a graph built per tick
        # would grow by a dozen or more nodes for every tick
        counts = []
        for n in (7, 50):
            spec = make_spec("lstm", window=n)
            params = init_encoder(spec, seeded_rng(0, "graph", n))
            counts.append(graph_nodes(encode(params, spec, np.zeros((2, n, 6)))))
        assert counts[0] == counts[1]


class TestSpecFields:
    def test_unknown_field_named(self):
        with pytest.raises(TypeError, match="'foo'"):
            make_spec("cnn", foo=1)

    def test_spec_sets_only_sizes(self):
        assert [f.name for f in fields(EncoderSpec)] == ["kind", "window", "features"]

    @pytest.mark.parametrize("field, value", [("kernel", 6), ("stride", 4),
                                              ("dilations", (5, 1)), ("segment", 5),
                                              ("blocks", 2), ("embed_dim", 64),
                                              ("latent_dim", 250), ("channels", 16),
                                              ("hidden", 128), ("att_dim", 32),
                                              ("ff_dim", 1024), ("dropout", 0.1)])
    def test_fixed_structure_is_not_a_field(self, field, value):
        with pytest.raises(TypeError, match=f"'{field}'"):
            make_spec("cnn", **{field: value})

    @pytest.mark.parametrize("kind, field, value", [
        ("attention", "window", 100.0), ("cnn", "features", 2.5), ("cnn", "window", True),
        ("lstm", "features", "8"), ("transformer", "window", np.float64(16.0))])
    def test_size_that_is_not_an_int_rejected(self, kind, field, value):
        with pytest.raises(ValidationError,
                           match=f"encoder spec field '{field}' must be a positive int"):
            make_spec(kind, **{field: value})

    @pytest.mark.parametrize("field", ["window", "features"])
    def test_size_below_one_rejected(self, field):
        with pytest.raises(ValidationError,
                           match=f"encoder spec field '{field}' must be a positive int"):
            make_spec("cnn", **{field: 0})

    def test_numpy_integer_size_accepted(self):
        assert make_spec("cnn", window=np.int64(30)).window == 30

    def test_kind_as_override_rejected(self):
        with pytest.raises(TypeError, match="'kind'"):
            make_spec("cnn", kind="lstm")


class TestShippedArchitectures:
    @pytest.mark.parametrize("kind", KINDS)
    def test_parameter_names_and_shapes(self, kind):
        params = init_encoder(make_spec(kind), seeded_rng(0, "shipped", kind))
        assert [(n, t.data.shape) for n, t in params.items()] == SHIPPED[kind]
        fixed = [n for n, t in params.items() if not t.requires_grad]
        assert fixed == (["pos"] if kind == "transformer" else [])


class TestMinWindow:
    def test_cnn_min_is_26(self):
        assert min_window_length(make_spec("cnn", window=100)) == 26

    def test_dilated_min_is_46(self):
        assert min_window_length(make_spec("dilated_cnn", window=100)) == 46

    def test_lstm_min_is_1(self):
        assert min_window_length(make_spec("lstm", window=5)) == 1

    def test_attention_min(self):
        assert min_window_length(make_spec("attention", window=25)) == 25

    @pytest.mark.parametrize("n", [10, 26, 30, 49])
    def test_attention_window_not_a_multiple_of_25_rejected(self, n):
        with pytest.raises(ValidationError, match=r"\b25 ticks, got %d" % n):
            make_spec("attention", window=n)

    @pytest.mark.parametrize("n", [50, 100])
    def test_attention_window_multiple_of_25_encodes(self, n):
        spec = make_spec("attention", window=n)
        z = encode(init_encoder(spec, seeded_rng(0, "att", n)), spec, np.ones((2, n, 6)))
        assert z.data.shape == (2, 200)

    def test_too_small_window_rejected_with_min_in_message(self):
        with pytest.raises(ValidationError, match="at least 26"):
            make_spec("cnn", window=25)

    def test_min_window_encodes(self):
        # at exactly N_min every conv length is >= 1 and encode works
        for kind in ("cnn", "dilated_cnn", "attention"):
            n = SHORT[kind]
            spec, params = short_setup(kind)
            z = encode(params, spec, np.zeros((1, n, 6)))
            assert z.data.shape == (1, spec.latent_dim)


class TestZeroWeightTransformer:
    def test_zero_weights_zero_positions_give_zero_latent(self):
        spec, params = short_setup("transformer")
        for name, t in params.items():
            t.data = np.zeros_like(t.data)
        rng = seeded_rng(1, "zw")
        z = encode(params, spec, rng.standard_normal((3, spec.window, 6)))
        assert np.allclose(z.data, 0.0)


class TestOrderSensitivity:
    @pytest.mark.parametrize("kind", ["lstm", "attention", "transformer"])
    def test_row_permutation_changes_latent(self, kind):
        spec, params = short_setup(kind, seed=3)
        rng = seeded_rng(4, "perm", kind)
        w = rng.standard_normal((1, spec.window, 6))
        w2 = w.copy()
        # swap the first row with one in a different attention segment
        j = min(spec.window - 1, 6)
        w2[0, [0, j]] = w2[0, [j, 0]]
        z1 = encode(params, spec, w).data
        z2 = encode(params, spec, w2).data
        assert not np.allclose(z1, z2)


class TestDeterminismAndDropout:
    def test_eval_is_deterministic(self):
        spec, params = short_setup("transformer")
        rng = seeded_rng(5, "det")
        w = rng.standard_normal((2, spec.window, 6))
        z1 = encode(params, spec, w).data
        z2 = encode(params, spec, w).data
        assert np.array_equal(z1, z2)

    def test_train_dropout_differs_from_eval(self):
        spec, params = short_setup("transformer", seed=6)
        rng = seeded_rng(7, "drop-data")
        w = rng.standard_normal((2, spec.window, 6))
        z_eval = encode(params, spec, w).data
        z_train = encode(params, spec, w, train=True, rng=seeded_rng(8, "mask")).data
        assert not np.allclose(z_eval, z_train)


def fd_case(kind, train=False):
    """A shipped-width encoder on its shortest window: a scalar loss of its
    latent, the trainable tensors and an rng; in train mode each evaluation
    draws the same dropout mask."""
    spec, params = short_setup(kind, seed=10)
    rng = seeded_rng(11, "fd", kind)
    w = rng.standard_normal((2, spec.window, 6))
    mix = Tensor(rng.standard_normal((2, spec.latent_dim)))

    def f():
        mask_rng = seeded_rng(12, "fd-mask", kind) if train else None
        return ad.tsum(ad.mul(encode(params, spec, w, train, mask_rng), mix))
    return f, trainable(params), rng


class TestEncoderGradients:
    """Finite-difference checks of every encoder kind at its shipped widths."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_fd_all_weights(self, kind):
        # three random directions per tensor, two evaluations each: entry by
        # entry would take two per weight, over 130k for the transformer
        f, tensors, rng = fd_case(kind, train=True)
        for t in tensors:
            for _ in range(3):
                check_directional(f, [t], rng, h=1e-4, rtol=1e-7)

    @pytest.mark.parametrize("kind", ["cnn", "dilated_cnn"])
    def test_fd_every_entry(self, kind):
        f, tensors, _ = fd_case(kind)
        check_grads(f, tensors, h=1e-5, rtol=1e-4)
