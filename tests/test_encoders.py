from dataclasses import fields

import numpy as np
import pytest
from fdcheck import check_grads

import resdyn.autodiff as ad
from resdyn.autodiff import Tensor, backward
from resdyn.core import ValidationError
from resdyn.encoders import (KINDS, EncoderSpec, conv_chain_lengths, encode, init_encoder,
                             make_spec, min_window_length, trainable)
from resdyn.rng import seeded_rng

# reduced specs keep the finite-difference sweep fast; kinds are unchanged
TINY = {
    "cnn": dict(window=26, channels=2, latent_dim=3),
    "dilated_cnn": dict(window=46, channels=2, latent_dim=3),
    "lstm": dict(window=7, hidden=4, latent_dim=3),
    "attention": dict(window=25, att_dim=3, latent_dim=3),
    "transformer": dict(window=6, ff_dim=8, latent_dim=4, dropout=0.0),
}

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


def tiny_setup(kind, seed=0):
    spec = make_spec(kind, **TINY[kind])
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
        spec = make_spec("transformer", window=100)
        assert spec.ff_dim == 1024
        assert spec.dropout == 0.1

    def test_transformer_latent_defaults_to_embed_dim(self):
        # the latent is the pooled embedding, so latent_dim is the width
        assert make_spec("transformer", window=10).latent_dim == 64
        spec = make_spec("transformer", window=10, latent_dim=16, ff_dim=8)
        params = init_encoder(spec, seeded_rng(0, "tf16"))
        assert params["wq"].data.shape == (16, 16)
        z = encode(params, spec, np.zeros((2, 10, 6)))
        assert z.data.shape == (2, 16)

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
        spec, params = tiny_setup("cnn")
        with pytest.raises(ValidationError, match="differs from configured"):
            encode(params, spec, np.zeros((2, 30, 6)))

    def test_wrong_feature_count_rejected(self):
        spec, params = tiny_setup("lstm")
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


class TestLstmGraph:
    def test_node_count_does_not_grow_with_window(self):
        # one fused node runs the whole sequence; a graph built per tick
        # would grow by a dozen or more nodes for every tick
        counts = []
        for n in (7, 50):
            spec = make_spec("lstm", window=n, hidden=4, latent_dim=3)
            params = init_encoder(spec, seeded_rng(0, "graph", n))
            counts.append(graph_nodes(encode(params, spec, np.zeros((2, n, 6)))))
        assert counts[0] == counts[1]


class TestSpecFields:
    def test_unknown_field_named(self):
        with pytest.raises(ValidationError, match="'foo'"):
            make_spec("cnn", foo=1)

    def test_spec_sets_only_sizes(self):
        assert [f.name for f in fields(EncoderSpec)] == [
            "kind", "window", "features", "latent_dim", "channels", "hidden", "att_dim",
            "ff_dim", "dropout"]

    @pytest.mark.parametrize("field, value", [("kernel", 6), ("stride", 4),
                                              ("dilations", (5, 1)), ("segment", 5),
                                              ("blocks", 2), ("embed_dim", 64)])
    def test_fixed_structure_is_not_a_field(self, field, value):
        with pytest.raises(ValidationError, match=f"unknown encoder spec field.*'{field}'"):
            make_spec("cnn", **{field: value})

    @pytest.mark.parametrize("kind, field, value", [
        ("attention", "window", 100.0), ("cnn", "channels", 2.5), ("cnn", "hidden", True),
        ("lstm", "latent_dim", "8"), ("transformer", "ff_dim", np.float64(16.0))])
    def test_size_that_is_not_an_int_rejected(self, kind, field, value):
        with pytest.raises(ValidationError,
                           match=f"encoder spec field '{field}' must be a positive int"):
            make_spec(kind, **{field: value})

    @pytest.mark.parametrize("field", ["window", "features", "latent_dim", "channels",
                                       "hidden", "att_dim", "ff_dim"])
    def test_size_below_one_rejected(self, field):
        with pytest.raises(ValidationError,
                           match=f"encoder spec field '{field}' must be a positive int"):
            make_spec("cnn", **{field: 0})

    def test_numpy_integer_size_accepted(self):
        assert make_spec("cnn", channels=np.int64(3)).channels == 3

    def test_kind_as_override_rejected(self):
        with pytest.raises(ValidationError, match="'kind' is make_spec's first argument"):
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
        spec = make_spec("attention", window=n, att_dim=3, latent_dim=3)
        z = encode(init_encoder(spec, seeded_rng(0, "att", n)), spec, np.ones((2, n, 6)))
        assert z.data.shape == (2, 3)

    def test_too_small_window_rejected_with_min_in_message(self):
        with pytest.raises(ValidationError, match="at least 26"):
            make_spec("cnn", window=25)

    def test_min_window_encodes(self):
        # at exactly N_min every conv length is >= 1 and encode works
        for kind in ("cnn", "dilated_cnn", "attention"):
            n = TINY[kind]["window"]
            spec, params = tiny_setup(kind)
            z = encode(params, spec, np.zeros((1, n, 6)))
            assert z.data.shape == (1, spec.latent_dim)


class TestZeroWeightTransformer:
    def test_zero_weights_zero_positions_give_zero_latent(self):
        spec, params = tiny_setup("transformer")
        for name, t in params.items():
            t.data = np.zeros_like(t.data)
        rng = seeded_rng(1, "zw")
        z = encode(params, spec, rng.standard_normal((3, spec.window, 6)))
        assert np.allclose(z.data, 0.0)


class TestOrderSensitivity:
    @pytest.mark.parametrize("kind", ["lstm", "attention", "transformer"])
    def test_row_permutation_changes_latent(self, kind):
        spec, params = tiny_setup(kind, seed=3)
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
        spec, params = tiny_setup("transformer")
        rng = seeded_rng(5, "det")
        w = rng.standard_normal((2, spec.window, 6))
        z1 = encode(params, spec, w).data
        z2 = encode(params, spec, w).data
        assert np.array_equal(z1, z2)

    def test_train_dropout_differs_from_eval(self):
        spec = make_spec("transformer", window=6, ff_dim=16, latent_dim=4, dropout=0.5)
        params = init_encoder(spec, seeded_rng(6, "drop"))
        rng = seeded_rng(7, "drop-data")
        w = rng.standard_normal((2, 6, 6))
        z_eval = encode(params, spec, w).data
        z_train = encode(params, spec, w, train=True, rng=seeded_rng(8, "mask")).data
        assert not np.allclose(z_eval, z_train)


class TestEncoderGradients:
    """Finite-difference pass over every encoder kind (tiny instances)."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_fd_all_weights(self, kind):
        spec, params = tiny_setup(kind, seed=10)
        rng = seeded_rng(11, "fd", kind)
        w = rng.standard_normal((2, spec.window, 6))
        mix = Tensor(rng.standard_normal((2, spec.latent_dim)))
        tensors = trainable(params)

        def f():
            return ad.tsum(ad.mul(encode(params, spec, w), mix))
        check_grads(f, tensors, h=1e-5, rtol=1e-4)
