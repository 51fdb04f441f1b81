import gc
import math
import re
import warnings
import weakref

import numpy as np
import pytest
from fdcheck import check_directional, check_grads
from scipy.cluster.vq import kmeans2
from scipy.linalg import solve_triangular

from resdyn import svgp
from resdyn.autodiff import Adam, Tensor, backward, parameter
from resdyn.core import ValidationError
from resdyn.rng import seeded_rng
from resdyn.svgp import VariationalGP

SQRT5 = math.sqrt(5.0)


def dense_matern(x, lengthscale, outputscale):
    """Independent dense Matern-5/2 gram matrix (numpy only)."""
    r = np.abs(x[:, None] - x[None, :]) / lengthscale
    return outputscale * (1 + SQRT5 * r + 5 * r ** 2 / 3) * np.exp(-SQRT5 * r)


def dense_lml(y, k, noise, const_mean):
    """Exact log marginal likelihood of a constant-mean GP, via Cholesky."""
    n = len(y)
    cov = k + noise * np.eye(n)
    ell = np.linalg.cholesky(cov)
    resid = np.linalg.solve(ell, y - const_mean)
    return float(-0.5 * resid @ resid - np.log(np.diag(ell)).sum()
                 - 0.5 * n * math.log(2 * math.pi))


def toy_instance(seed=0, n=12):
    rng = seeded_rng(seed, "toy")
    x = np.sort(rng.uniform(-2, 2, n))
    k = dense_matern(x, 0.8, 1.3)
    f = np.linalg.cholesky(k + 1e-12 * np.eye(n)) @ rng.standard_normal(n)
    y = 0.3 + f + math.sqrt(0.05) * rng.standard_normal(n)
    return x, y, k


def make_toy_gp(x, lengthscale=0.8, outputscale=1.3, noise=0.05, cmean=0.3):
    gp = VariationalGP(dim=1, inducing=len(x), num_tasks=1)
    gp.z.data = x[:, None].copy()
    gp.log_lengthscales.data = np.array([math.log(lengthscale)])
    gp.log_outputscale.data = np.array(math.log(outputscale))
    gp.log_noise.data[0] = np.array(math.log(noise))
    gp.c.data[0] = np.array(cmean)
    return gp


def fit(x, y, inducing, batch_size, lr, epochs, seed, z_scale=1.0):
    """A GP trained alone on fixed inputs x (n, d) and targets y (n, T) by
    minibatch Adam: inputs z-scored by the GP, inducing points seeded from
    them and then scaled by z_scale, one permutation per epoch, full
    batches only. Returns the GP and the loss of every step."""
    rng = seeded_rng(seed, "svgp-fit")
    gp = VariationalGP(x.shape[1], inducing, num_tasks=y.shape[1], input_mean=x.mean(axis=0),
                       input_std=np.maximum(x.std(axis=0), 1e-8))
    gp.init_from_latents(x, y, rng)
    gp.z.data *= z_scale
    opt = Adam(gp.parameters(), lr=lr)
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for lo in range(0, len(x) - batch_size + 1, batch_size):
            idx = order[lo:lo + batch_size]
            opt.zero_grad()
            loss = gp.loss(x[idx], y[idx], total_n=len(x))
            backward(loss)
            opt.step()
            losses.append(float(loss.data))
    return gp, losses


def kernel_value(a, b, lengthscales, outputscale):
    """k(a, b) as the GP computes it: `_matern` of the two points scaled
    by the lengthscales."""
    ls = np.asarray(lengthscales, float)
    a, b = np.atleast_2d(a) / ls, np.atleast_2d(b) / ls
    k, _ = svgp._matern(a, b, (b * b).sum(axis=1, keepdims=True).T, outputscale)
    return float(k[0, 0])


class TestKernel:
    def test_equal_points_give_outputscale(self):
        a = np.array([0.4, -1.0])
        assert kernel_value(a, a, [0.7, 1.3], 2.5) == pytest.approx(2.5)

    def test_vanishes_at_large_distance(self):
        assert kernel_value([0.0], [50.0], [1.0], 1.0) < 1e-20

    def test_unit_distance_extended_precision(self):
        import mpmath
        mpmath.mp.dps = 50
        r = mpmath.mpf(1)
        expect = float((1 + mpmath.sqrt(5) * r + 5 * r ** 2 / 3)
                       * mpmath.e ** (-mpmath.sqrt(5) * r))
        got = kernel_value([0.0], [1.0], [1.0], 1.0)
        assert got == pytest.approx(expect, abs=1e-14)

    def test_ard_scaling(self):
        a, b = np.array([1.0, 0.25]), np.array([3.0, 0.75])
        # scaled distance sqrt(1 + 1) for both formulations
        assert kernel_value(a, b, [2.0, 0.5], 1.0) == pytest.approx(
            kernel_value([0.0], [math.sqrt(2)], [1.0], 1.0))


class TestElboAgainstDenseOracle:
    def test_zero_information_kl_is_zero(self):
        x, y, _ = toy_instance()
        gp = make_toy_gp(x)
        kl = gp._kl(gp._l_var())
        assert float(kl[0]) == pytest.approx(0.0, abs=1e-12)

    def test_elbo_matches_lml_at_exact_posterior(self, monkeypatch):
        x, y, k = toy_instance()
        n = len(x)
        noise, cmean, jitter = 0.05, 0.3, 1e-12
        monkeypatch.setattr(svgp, "_JITTER", jitter)
        gp = make_toy_gp(x)
        # whiten the exact dense posterior into the variational parameters
        cov = k + noise * np.eye(n)
        alpha = np.linalg.solve(cov, y - cmean)
        mu_u = k @ alpha
        sigma_u = k - k @ np.linalg.solve(cov, k)
        lk = np.linalg.cholesky(k + jitter * np.eye(n))
        m_w = np.linalg.solve(lk, mu_u)
        s_w = np.linalg.solve(lk, np.linalg.solve(lk, sigma_u).T).T
        l_w = np.linalg.cholesky(0.5 * (s_w + s_w.T) + 1e-14 * np.eye(n))
        raw = np.tril(l_w, -1) + np.diag(np.log(np.diag(l_w)))
        gp.m.data[0] = m_w
        gp.l_raw.data[0] = raw
        elbo = -float(gp.loss(x[:, None], y[:, None], total_n=n).data)
        lml = dense_lml(y, k, noise, cmean)
        assert elbo == pytest.approx(lml, abs=1e-6)

    def test_elbo_is_lower_bound_for_any_q(self):
        # randomized variational states must never exceed the dense LML
        x, y, k = toy_instance(n=17)
        lml = dense_lml(y, k, 0.05, 0.3)
        for seed in range(8):
            rng = seeded_rng(seed, "q")
            gp = make_toy_gp(x)
            gp.m.data[0] = rng.standard_normal(len(x))
            gp.l_raw.data[0] = np.tril(rng.standard_normal((len(x), len(x))) * 0.3,
                                       -1) + np.diag(rng.uniform(-1, 0.3, len(x)))
            elbo = -float(gp.loss(x[:, None], y[:, None], total_n=len(x)).data)
            assert elbo <= lml + 1e-9

    def test_elbo_lower_bound_with_few_inducing(self):
        x, y, k = toy_instance(n=20)
        lml = dense_lml(y, k, 0.05, 0.3)
        gp = VariationalGP(dim=1, inducing=6, num_tasks=1)
        rng = seeded_rng(3, "zsub")
        gp.z.data = np.sort(rng.choice(x, 6, replace=False))[:, None]
        gp.log_lengthscales.data = np.array([math.log(0.8)])
        gp.log_outputscale.data = np.array(math.log(1.3))
        gp.log_noise.data[0] = np.array(math.log(0.05))
        gp.c.data[0] = np.array(0.3)
        gp.m.data[0] = rng.standard_normal(6) * 0.5
        elbo = -float(gp.loss(x[:, None], y[:, None], total_n=len(x)).data)
        assert elbo <= lml + 1e-9

    def test_jitter_insensitivity_when_well_conditioned(self, monkeypatch):
        x, y, _ = toy_instance(n=15)
        gp = make_toy_gp(x)
        elbos = []
        for jitter in (1e-8, 1e-6):
            monkeypatch.setattr(svgp, "_JITTER", jitter)
            elbos.append(-float(gp.loss(x[:, None], y[:, None], total_n=len(x)).data))
        assert abs(elbos[0] - elbos[1]) < 1e-3


class TestPredict:
    def test_prior_predictive_with_zero_information(self):
        x, _, _ = toy_instance()
        gp = make_toy_gp(x, outputscale=1.3, noise=0.05, cmean=0.421)
        zq = np.array([[0.12], [5.0], [-3.3]])
        mean, std = gp.predict(zq)
        assert np.allclose(mean[:, 0], 0.421)
        assert np.allclose(std[:, 0], math.sqrt(1.3 + 0.05), atol=1e-6)

    def test_variance_floor_is_noise(self):
        x, y, _ = toy_instance()
        gp = make_toy_gp(x)
        rng = seeded_rng(9, "vq")
        gp.m.data[0] = rng.standard_normal(len(x))
        gp.l_raw.data[0] = np.tril(rng.standard_normal((len(x), len(x))), -1) \
            + np.diag(rng.uniform(-2, 0, len(x)))
        zq = rng.uniform(-4, 4, (50, 1))
        _, std = gp.predict(zq)
        assert np.all(std >= math.sqrt(0.05) - 1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_latents_rejected(self, bad):
        gp = VariationalGP(dim=2, inducing=3, num_tasks=2)
        latents = np.zeros((4, 2))
        latents[2, 1] = bad
        targets = np.zeros((4, 2))
        for z in (latents, Tensor(latents)):
            with pytest.raises(ValidationError, match="latents"):
                gp.predict(z)
            with pytest.raises(ValidationError, match="latents"):
                gp.loss(z, targets, total_n=10)
        with pytest.raises(ValidationError, match="latents"):
            gp.predict(latents[2:3])
        targets[0, 0] = bad
        with pytest.raises(ValidationError, match="targets"):
            gp.loss(np.zeros((4, 2)), targets, total_n=10)

    @pytest.mark.parametrize("shape", [(2,), (4, 3), (2, 4, 2)])
    def test_latents_of_wrong_shape_rejected(self, shape):
        gp = VariationalGP(dim=2, inducing=3, num_tasks=2)
        for z in (np.zeros(shape), Tensor(np.zeros(shape))):
            with pytest.raises(ValidationError, match=r"\(B, 2\)"):
                gp.predict(z)
            with pytest.raises(ValidationError, match=r"\(B, 2\)"):
                gp.loss(z, np.zeros((2, 2)), total_n=10)

    @pytest.mark.parametrize("pre_normalized", [False, True])
    def test_ndarray_and_tensor_latents_agree(self, pre_normalized):
        # one way in: an ndarray is treated exactly as a constant Tensor,
        # and pre_normalized is honoured for both
        rng = seeded_rng(5, "latent-entry")
        gp = VariationalGP(dim=2, inducing=4, num_tasks=2,
                           input_mean=np.array([0.5, -1.0]), input_std=np.array([2.0, 0.25]))
        gp.z.data = rng.standard_normal((4, 2))
        gp.m.data[0] = rng.standard_normal(4)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal((6, 2))
        got = gp.predict(x, pre_normalized=pre_normalized)
        want = gp.predict(Tensor(x), pre_normalized=pre_normalized)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert np.array_equal(gp.loss(x, y, 10, pre_normalized=pre_normalized).data,
                              gp.loss(Tensor(x), y, 10, pre_normalized=pre_normalized).data)
        other = gp.predict(x, pre_normalized=not pre_normalized)
        assert not np.array_equal(got[0], other[0])


def gp_arrays():
    """`to_arrays` of a small two-task GP whose tasks all differ."""
    rng = seeded_rng(31, "arrays")
    gp = VariationalGP(dim=2, inducing=3, num_tasks=2,
                       input_mean=np.array([0.1, -0.2]), input_std=np.array([1.5, 0.5]))
    for p in gp.parameters():
        p.data = rng.standard_normal(p.data.shape) * 0.3
    return gp, {k: np.array(v) for k, v in gp.to_arrays().items()}


class TestKmeansSeeds:
    """`init_from_latents` seeds k-means with `_kmeans_pp_seeds`, which must
    draw what scipy's `kmeans2(minit="++")` draws, by the same rng calls."""

    @pytest.mark.parametrize("case", ["random", "n equals k", "duplicated rows"])
    def test_same_bytes_and_next_draw_as_scipy(self, case):
        rng = seeded_rng(71, "kpp-data", case)
        if case == "random":
            data, k = rng.standard_normal((300, 5)), 16
        elif case == "n equals k":
            data, k = rng.standard_normal((12, 3)), 12
        else:
            data, k = np.repeat(rng.standard_normal((10, 3)), 3, axis=0), 8
        ours, theirs = seeded_rng(72, "kpp", case), seeded_rng(72, "kpp", case)
        got = kmeans2(data, svgp._kmeans_pp_seeds(data, k, ours), minit="matrix")
        want = kmeans2(data, k, minit="++", seed=theirs)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert ours.random() == theirs.random()


class TestInitFromLatents:
    """k-means++ needs as many distinct latents as inducing points: with
    fewer, its distances are all 0 and the seeds repeat."""

    @staticmethod
    def _latents(distinct):
        rng = seeded_rng(73, "init-latents", distinct)
        return np.repeat(rng.standard_normal((distinct, 3)), 3, axis=0)

    def test_fewer_distinct_latents_than_inducing_rejected(self):
        latents = self._latents(10)
        with pytest.raises(ValidationError,
                           match=r"10 distinct latents \(of 30\) cannot seed 12 distinct"):
            VariationalGP(3, 12).init_from_latents(latents, np.zeros((30, 2)),
                                                   seeded_rng(74, "init"))

    def test_as_many_distinct_latents_seed_distinct_centers(self):
        latents, centers = self._latents(12), []
        for _ in range(2):
            gp = VariationalGP(3, 12)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                gp.init_from_latents(latents, np.zeros((36, 2)), seeded_rng(74, "init"))
            centers.append(gp.z.data)
        assert len(np.unique(centers[0], axis=0)) == 12
        assert centers[0].tobytes() == centers[1].tobytes()

    def test_one_target_row_per_latent(self):
        # the constant means start at the target means, which 7 rows for 50
        # latents would set from rows that belong to no latent
        gp, latents = VariationalGP(3, 12), seeded_rng(75, "init-rows").standard_normal((50, 3))
        with pytest.raises(ValidationError, match="50 latents but 7 target rows"):
            gp.init_from_latents(latents, np.ones((7, 2)), seeded_rng(74, "init"))
        assert np.array_equal(gp.c.data, np.zeros(2))


class TestConstructorArguments:
    @pytest.mark.parametrize("args, name", [
        ((0, 4), "dim"), ((-2, 4), "dim"), ((3.0, 4), "dim"), ((True, 4), "dim"),
        ((3, 0), "inducing"), ((3, 4.0), "inducing"), ((3, "4"), "inducing"),
        ((3, 4, 0), "num_tasks"), ((3, 4, 2.5), "num_tasks"), ((3, 4, False), "num_tasks"),
    ])
    def test_not_a_positive_int_rejected(self, args, name):
        with pytest.raises(ValidationError,
                           match=f"VariationalGP argument '{name}' must be a positive int"):
            VariationalGP(*args)

    def test_numpy_integers_accepted(self):
        gp = VariationalGP(np.int64(3), np.int32(4), num_tasks=np.int64(1))
        assert gp.z.data.shape == (4, 3) and gp.m.data.shape == (1, 4)

    @pytest.mark.parametrize("name, value, message", [
        ("input_mean", np.zeros(5), r"'input_mean' must have shape \(3,\), got \(5,\)"),
        ("input_mean", np.zeros((3, 1)), r"'input_mean' must have shape \(3,\)"),
        ("input_mean", [0.0, np.inf, 0.0], r"non-finite VariationalGP argument 'input_mean' at index \(1,\)"),
        ("input_std", [1.0, np.nan, 1.0], r"non-finite VariationalGP argument 'input_std' at index \(1,\)"),
        ("input_std", np.ones(2), r"'input_std' must have shape \(3,\), got \(2,\)"),
        ("input_std", [1.0, 0.0, 1.0], r"'input_std' must be positive"),
        ("input_std", [1.0, 1.0, -2.0], r"'input_std' must be positive"),
    ])
    def test_input_statistics_checked(self, name, value, message):
        with pytest.raises(ValidationError, match=message):
            VariationalGP(3, 4, **{name: value})


class TestFromArrays:
    def test_round_trip_keeps_each_task(self):
        gp, arrays = gp_arrays()
        for name in ("m", "l_raw", "c", "log_noise"):
            for t in range(2):
                assert np.array_equal(arrays[f"{name}{t}"], getattr(gp, name).data[t])
        back = VariationalGP.from_arrays(arrays)
        for p, q in zip(gp.parameters(), back.parameters()):
            assert np.array_equal(p.data, q.data)
        x = seeded_rng(32, "arrays-x").standard_normal((5, 2))
        assert all(np.array_equal(a, b) for a, b in zip(gp.predict(x), back.predict(x)))

    @pytest.mark.parametrize("key", ["z", "num_tasks", "log_lengthscales", "input_std",
                                     "m1", "l_raw0", "c1", "log_noise0"])
    def test_missing_key_rejected(self, key):
        _, arrays = gp_arrays()
        del arrays[key]
        with pytest.raises(ValidationError, match=re.escape(repr(key))):
            VariationalGP.from_arrays(arrays)

    @pytest.mark.parametrize("key, shape", [("m0", (4,)), ("m1", (2,)), ("l_raw1", (3, 2)),
                                            ("c0", (1,)), ("log_noise1", (2,)),
                                            ("log_lengthscales", (3,)), ("input_mean", (1,)),
                                            ("z", (3,))])
    def test_wrong_shape_rejected(self, key, shape):
        _, arrays = gp_arrays()
        arrays[key] = np.ones(shape)
        with pytest.raises(ValidationError, match=re.escape(repr(key))):
            VariationalGP.from_arrays(arrays)

    @pytest.mark.parametrize("key", ["c0", "m1", "l_raw1", "log_noise0", "z", "input_mean"])
    def test_nonfinite_value_rejected(self, key):
        _, arrays = gp_arrays()
        arrays[key].flat[-1] = np.nan
        with pytest.raises(ValidationError, match=re.escape(repr(key))):
            VariationalGP.from_arrays(arrays)

    @pytest.mark.parametrize("num_tasks", [0.0, -1.0, 1.5])
    def test_num_tasks_not_positive_integer_rejected(self, num_tasks):
        _, arrays = gp_arrays()
        arrays["num_tasks"] = np.array(num_tasks)
        with pytest.raises(ValidationError, match="'num_tasks' must be a positive integer"):
            VariationalGP.from_arrays(arrays)

    @pytest.mark.parametrize("num_tasks", [3.0, 1e15])
    def test_num_tasks_beyond_the_task_keys_rejected(self, num_tasks):
        # the arrays hold two tasks: the first missing key is named before
        # anything is allocated for the count, which at 1e15 tasks of 3x3
        # factors would take petabytes
        _, arrays = gp_arrays()
        arrays["num_tasks"] = np.array(num_tasks)
        with pytest.raises(ValidationError, match="^missing array 'm2'$"):
            VariationalGP.from_arrays(arrays)


def same_bits(got, want) -> bool:
    """Both (mean, std) pairs hold the same shapes and the same bytes."""
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def fresh_predict(gp, x):
    """`predict` of a GP rebuilt from `gp`'s arrays, with no call history."""
    return VariationalGP.from_arrays(gp.to_arrays()).predict(x)


def moments_of_loss(gp, latents, y, pre_normalized):
    """The (mu, var, parts) that `_moments` returns inside the loss node."""
    seen = []
    moments = VariationalGP._moments

    def spy(self, *args):
        seen.append(moments(self, *args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VariationalGP, "_moments", spy)
        gp.loss(latents, y, total_n=40, pre_normalized=pre_normalized)
    (moments_out,) = seen
    return moments_out


def node_predict(gp, x, y):
    """`predict`'s mean and std from the moments the ELBO node computes on
    the live parameters, with no factor cache."""
    mu, var, _ = moments_of_loss(gp, x, y, pre_normalized=False)
    return mu.T, np.sqrt(var + np.exp(gp.log_noise.data)[:, None]).T


class TestPredictMatchesGraph:
    """`predict` on its factor cache equals the ELBO node's moments, which
    it computes afresh from the parameters."""

    X = seeded_rng(34, "graph-x").standard_normal((6, 2))
    Y = seeded_rng(35, "graph-y").standard_normal((6, 2))

    @staticmethod
    def gp():
        gp = VariationalGP.from_arrays(gp_arrays()[1])
        gp.input_mean, gp.input_std = np.array([0.25, -0.5]), np.array([1.5, 0.75])
        return gp

    def test_fresh_gp(self):
        gp = self.gp()
        assert same_bits(gp.predict(self.X), node_predict(gp, self.X, self.Y))

    def test_after_adam_steps(self):
        gp = self.gp()
        opt = Adam(gp.parameters(), lr=0.05)
        for _ in range(4):
            gp.predict(self.X)       # the cache must follow every step
            opt.zero_grad()
            backward(gp.loss(self.X, self.Y, total_n=30))
            assert opt.step()
            assert same_bits(gp.predict(self.X), node_predict(gp, self.X, self.Y))

    def test_moments_hold_no_graph(self, monkeypatch):
        # latents that require a gradient included: `predict` and the ELBO
        # node both run `_moments` on plain arrays
        gp, seen = self.gp(), []
        moments = VariationalGP._moments

        def spy(self, *args):
            mu, var, parts = moments(self, *args)
            seen.extend((mu, var, *parts[1:]))
            return mu, var, parts

        monkeypatch.setattr(VariationalGP, "_moments", spy)
        for _ in range(2):
            gp.predict(parameter(self.X))
        backward(gp.loss(parameter(self.X), self.Y, total_n=30))
        assert len(seen) == 15
        assert all(type(t) in (np.ndarray, tuple) for t in seen)


class TestPredictAfterChanges:
    """`predict` answers from the parameters as they are at the call, however
    and however little they were changed since the previous call."""

    X = seeded_rng(33, "predict-x").standard_normal((5, 2))

    @staticmethod
    def gp():
        # loaded as a checkpoint is: every parameter an ndarray, 0-d ones too
        return VariationalGP.from_arrays(gp_arrays()[1])

    def test_repeated_calls_bit_identical(self):
        gp = self.gp()
        first = gp.predict(self.X)
        assert same_bits(gp.predict(self.X), first)
        assert same_bits(gp.predict(self.X), fresh_predict(gp, self.X))

    @pytest.mark.parametrize("name", ["z", "log_lengthscales", "log_outputscale", "l_raw",
                                      "m", "c", "log_noise"])
    @pytest.mark.parametrize("step", ["0.25", "one ulp"])
    def test_in_place_write(self, name, step):
        gp = self.gp()
        before = gp.predict(self.X)
        data = getattr(gp, name).data
        old = data.flat[0]
        data.flat[0] = old + 0.25 if step == "0.25" else np.nextafter(old, np.inf)
        got = gp.predict(self.X)
        assert same_bits(got, fresh_predict(gp, self.X))
        if step == "0.25":
            assert not same_bits(got, before)

    def test_reassigned_array(self):
        gp = self.gp()
        before = gp.predict(self.X)
        gp.z.data = gp.z.data + 0.25
        got = gp.predict(self.X)
        assert same_bits(got, fresh_predict(gp, self.X)) and not same_bits(got, before)

    def test_rows_of_z_swapped(self):
        # the same values in other places: the means now pair with other
        # inducing points
        gp = self.gp()
        before = gp.predict(self.X)
        gp.z.data[[0, 1]] = gp.z.data[[1, 0]]
        got = gp.predict(self.X)
        assert same_bits(got, fresh_predict(gp, self.X)) and not same_bits(got, before)

    def test_adam_step(self):
        gp = self.gp()
        opt = Adam(gp.parameters(), lr=0.05)
        before = gp.predict(self.X)
        backward(gp.loss(self.X, np.ones((5, 2)), total_n=20))
        opt.step()
        got = gp.predict(self.X)
        assert same_bits(got, fresh_predict(gp, self.X)) and not same_bits(got, before)

    def test_signed_zero_flip_in_z(self):
        gp = self.gp()
        gp.z.data[1, 0] = 0.0
        gp.predict(self.X)
        gp.z.data[1, 0] = -0.0
        assert same_bits(gp.predict(self.X), fresh_predict(gp, self.X))
        gp.z.data[1, 0] = 0.0
        assert same_bits(gp.predict(self.X), fresh_predict(gp, self.X))

    def test_unfactorizable_kzz_raises_every_call(self):
        # equal inducing points at outputscale e^40 give a rank-one K_ZZ
        # that even the largest jitter cannot lift above rounding
        gp = self.gp()
        z, log_scale = gp.z.data.copy(), gp.log_outputscale.data.copy()
        good = gp.predict(self.X)
        for _ in range(2):
            gp.z.data[:] = z[0]
            gp.log_outputscale.data[...] = 40.0
            for _ in range(2):
                with pytest.raises(ValidationError, match="K_ZZ not factorizable"):
                    gp.predict(self.X)
            gp.z.data[:] = z
            gp.log_outputscale.data[...] = log_scale
            assert same_bits(gp.predict(self.X), good)

    @pytest.mark.parametrize("name, at, value", [("log_outputscale", ..., 800.0),
                                                 ("log_outputscale", ..., math.nan),
                                                 ("z", 0, (1e200, 0.0))],
                             ids=["800.0", "nan", "z-1e200"])
    @pytest.mark.parametrize("call", ["predict", "loss"])
    def test_nonfinite_kernel_raises_and_caches_nothing(self, call, name, at, value):
        # e^800 overflows: K_ZZ is inf, as it is nan at a nan outputscale,
        # and an inducing point of 1e200 overflows its squared norm; the
        # refusal is the only signal, as a warning would fail the test
        gp = self.gp()
        good, cache = gp.predict(self.X), gp._factor_cache
        data = getattr(gp, name).data
        restore = data.copy()
        data[at] = value
        with pytest.raises(ValidationError, match=r"K_ZZ is not finite .*log_outputscale"):
            if call == "predict":
                gp.predict(self.X)
            else:
                gp.loss(self.X, np.ones((5, 2)), total_n=20)
        assert gp._factor_cache is cache
        data[...] = restore
        assert same_bits(gp.predict(self.X), good)

    @pytest.mark.parametrize("call", ["predict", "loss"])
    def test_zero_lengthscale_raises_and_caches_nothing(self, call):
        # e^-800 underflows to a lengthscale of 0 and e^800 overflows to
        # inf, at which the GP would predict its prior; both are refused
        # before K_ZZ, with no overflow or divide warning first
        gp = self.gp()
        good, cache = gp.predict(self.X), gp._factor_cache
        restore = gp.log_lengthscales.data.copy()
        for log_ls in (-800.0, 800.0):
            gp.log_lengthscales.data[0] = log_ls
            with pytest.raises(ValidationError, match=r"^log_lengthscales \[.+\] give "
                               r"lengthscales \[ *(0\.|inf) .+\], not all finite and > 0"):
                if call == "predict":
                    gp.predict(self.X)
                else:
                    gp.loss(self.X, np.ones((5, 2)), total_n=20)
            assert gp._factor_cache is cache
        gp.log_lengthscales.data[...] = restore
        assert same_bits(gp.predict(self.X), good)

    @pytest.mark.parametrize("call", ["predict", "loss"])
    def test_nonfinite_cross_covariance_raises_and_caches_nothing(self, call):
        # at lengthscale e^-345, z = 0, 1, 2 scale to finite points whose
        # K_ZZ is the outputscale times I, but a latent at 1e5 overflows its
        # squared norm, and K_XZ holds inf - inf = nan; no warning comes first
        gp = VariationalGP(1, 3, num_tasks=1)
        gp.z.data = np.array([[0.0], [1.0], [2.0]])
        x = np.array([[0.5]])
        good, cache = gp.predict(x), gp._factor_cache
        gp.log_lengthscales.data[...] = -345.0
        with pytest.raises(ValidationError,
                           match=r"K_XZ is not finite at log_lengthscales \[-345\.\]"):
            if call == "predict":
                gp.predict(np.array([[1e5]]))
            else:
                gp.loss(np.array([[1e5]]), np.zeros((1, 1)), total_n=1)
        assert gp._factor_cache is cache
        gp.log_lengthscales.data[...] = 0.0
        assert same_bits(gp.predict(x), good)


class TestGradients:
    def test_elbo_fd_every_parameter(self):
        # tiny instance: l=3, B=4, d=2, two tasks; latents included so the
        # joint encoder path is differentiable end to end
        rng = seeded_rng(11, "fd-gp")
        gp = VariationalGP(dim=2, inducing=3, num_tasks=2)
        gp.z.data = rng.standard_normal((3, 2))
        gp.log_lengthscales.data = rng.uniform(-0.3, 0.3, 2)
        gp.log_outputscale.data = np.array(0.2)
        for t in range(2):
            gp.m.data[t] = rng.standard_normal(3) * 0.5
            gp.l_raw.data[t] = np.tril(rng.standard_normal((3, 3)) * 0.2, -1) \
                + np.diag(rng.uniform(-0.5, 0.2, 3))
            gp.c.data[t] = np.array(rng.standard_normal())
            gp.log_noise.data[t] = np.array(math.log(0.05))
        latents = parameter(rng.standard_normal((4, 2)), "latents")
        targets = rng.standard_normal((4, 2)) * 0.3

        def f():
            return gp.loss(latents, targets, total_n=10)
        check_grads(f, gp.parameters() + [latents], h=1e-6, rtol=3e-4)


def elbo_reference(gp, latents, targets, total_n, pre_normalized):
    """The ELBO in plain numpy, op for op in the order of the graph of
    autodiff nodes that computed it before it became one node."""
    x = latents if pre_normalized else (latents - gp.input_mean) / gp.input_std
    y = np.ascontiguousarray(targets.T)
    bsz, tasks, size = y.shape[1], gp.num_tasks, gp.inducing
    eye = np.eye(size)
    l_raw, m, c, log_noise = gp.l_raw.data, gp.m.data, gp.c.data, gp.log_noise.data

    def matern(a, b, b2, scale):
        sq = np.maximum(((a * a).sum(axis=1, keepdims=True) + b2) - (a @ b.T) * 2.0, 0.0)
        r = np.sqrt(np.maximum(sq, 0.0))
        return (1.0 + SQRT5 * r + (5.0 / 3.0) * sq) * np.exp(-SQRT5 * r) * scale

    # K_ZZ scaled z once per operand, and took exp of each scale per use
    zb = gp.z.data / np.exp(gp.log_lengthscales.data)
    za = gp.z.data / np.exp(gp.log_lengthscales.data)
    kzz = matern(za, zb, (zb * zb).sum(axis=1, keepdims=True).T,
                 np.exp(gp.log_outputscale.data))
    jitter = svgp._JITTER
    while True:
        try:
            chol = np.linalg.cholesky(kzz + jitter * eye)
            break
        except np.linalg.LinAlgError:
            jitter *= 10.0
    lw = l_raw * np.tril(np.ones((size, size)), -1) + np.exp(l_raw * eye) * eye
    ls = np.exp(gp.log_lengthscales.data)
    zs = gp.z.data / np.exp(gp.log_lengthscales.data)
    kxz = matern(x / ls, zs, (zs * zs).sum(axis=1, keepdims=True).T,
                 np.exp(gp.log_outputscale.data))
    w = svgp._inv_lower(chol) @ kxz.T          # L^-1 by dtrtri, then one GEMM
    mu = (m.reshape(tasks, 1, -1) @ w).reshape(tasks, -1) + c.reshape(tasks, 1)
    u = lw.transpose(0, 2, 1) @ w
    var = np.maximum((np.exp(gp.log_outputscale.data) - (w * w).sum(axis=0))
                     + (u * u).sum(axis=1), 0.0)
    err = y - mu
    quad = (err * err + var).sum(axis=1)
    loglik = log_noise * (-0.5 * bsz) - (quad / (np.exp(log_noise) * 2.0)
                                         + 0.5 * bsz * svgp.LOG_2PI)
    log_det = (l_raw * eye).sum(axis=(1, 2))
    kl = (((m * m).sum(axis=1) + (lw * lw).sum(axis=(1, 2)))
          - (log_det * 2.0 + float(size))) * 0.5
    return ((loglik * (total_n / bsz)) - kl).sum()


def random_gp(seed, dim, inducing, tasks=2):
    """A GP with every parameter drawn at random, each task different."""
    rng = seeded_rng(seed, "random-gp")
    gp = VariationalGP(dim, inducing, num_tasks=tasks, input_mean=rng.standard_normal(dim),
                       input_std=rng.uniform(0.5, 2.0, dim))
    gp.z.data = rng.standard_normal((inducing, dim))
    gp.log_lengthscales.data = rng.uniform(-0.3, 0.3, dim) + 0.5 * math.log(dim)
    gp.log_outputscale.data = np.array(0.2)
    gp.m.data = rng.standard_normal((tasks, inducing)) * 0.5
    gp.l_raw.data = np.tril(rng.standard_normal((tasks, inducing, inducing)) * 0.2, -1) \
        + rng.uniform(-0.5, 0.2, (tasks, 1, inducing)) * np.eye(inducing)
    gp.c.data = rng.standard_normal(tasks)
    gp.log_noise.data = rng.uniform(-3.0, -1.0, tasks)
    return gp


class TestElboNode:
    """The loss, the negated ELBO, is one autodiff node over the latents and
    the 7 parameters, with a hand-derived adjoint."""

    @pytest.mark.parametrize("pre_normalized", [False, True])
    def test_value_matches_reference_op_order(self, pre_normalized):
        gp = random_gp(51, dim=3, inducing=6)
        rng = seeded_rng(52, "elbo-ref")
        x, y = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
        want = elbo_reference(gp, x, y, 40, pre_normalized)
        for latents in (x, parameter(x)):
            loss = gp.loss(latents, y, 40, pre_normalized=pre_normalized)
            assert loss.data.tobytes() == (-want).tobytes()

    def test_one_node_over_latents_and_parameters(self):
        gp = random_gp(53, dim=3, inducing=4)
        latents = parameter(np.ones((2, 3)))
        loss = gp.loss(latents, np.zeros((2, 2)), 10)
        assert len(loss._parents) == 8 and loss._parents[-1] is latents
        assert all(p is q for p, q in zip(loss._parents, gp.parameters()))
        assert len(gp.loss(Tensor(latents.data), np.zeros((2, 2)), 10)._parents) == 7

    def test_freed_without_cycle_collector(self):
        gp = random_gp(54, dim=3, inducing=4)
        latents = parameter(seeded_rng(55, "free").standard_normal((5, 3)))
        gc.collect()
        gc.disable()
        try:
            # the closure holds every intermediate; a Tensor takes no weakref
            loss = gp.loss(latents, np.ones((5, 2)), 20)
            closure, value = weakref.ref(loss._backward), weakref.ref(loss.data)
            backward(loss)
            del loss
            assert closure() is None and value() is None
            assert latents.grad is not None and gp.z.grad is not None
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("n_latents, n_targets", [(8, 1), (1, 8), (8, 5)])
    def test_one_target_row_per_latent(self, n_latents, n_targets):
        gp = VariationalGP(dim=2, inducing=3)
        with pytest.raises(ValidationError,
                           match=f"{n_latents} latents but {n_targets} target rows"):
            gp.loss(np.zeros((n_latents, 2)), np.ones((n_targets, 2)), 100)

    @pytest.mark.parametrize("total_n", [math.nan, math.inf, 7.5, 0])
    def test_total_n_not_a_positive_int_rejected(self, total_n):
        gp = VariationalGP(dim=2, inducing=3)
        with pytest.raises(ValidationError,
                           match=f"loss argument 'total_n' must be a positive int, got {total_n}"):
            gp.loss(np.zeros((4, 2)), np.ones((4, 2)), total_n)

    def test_total_n_below_batch_rejected(self):
        gp = VariationalGP(dim=2, inducing=3)
        with pytest.raises(ValidationError, match="bad batch/total sizes: 4, 3"):
            gp.loss(np.zeros((4, 2)), np.ones((4, 2)), 3)

    def test_directional_at_benchmark_size(self):
        # train_cnn's sizes: B=256, M=128, dim 250, latents included
        gp = random_gp(56, dim=250, inducing=128)
        rng = seeded_rng(57, "direction")
        latents = parameter(rng.standard_normal((256, 250)))
        y = rng.standard_normal((256, 2))
        check_directional(lambda: gp.loss(latents, y, 1024, pre_normalized=True),
                          gp.parameters() + [latents], rng)


class TestInverseAgainstSolve:
    """W = L^-1 K_ZX is one GEMM with the inverse dtrtri forms, not a
    triangular solve. Against substitution (scipy's `solve_triangular`)
    on the same L, W, the predictive mean and the latent variance differ,
    relative to their largest entries, by at most 10x what was measured
    when the inverse replaced the solve."""

    @pytest.mark.parametrize("duplicated, bounds, min_cond", [
        (False, (1.1e-13, 1.4e-13, 3.0e-14), 1.0),
        (True, (8.7e-12, 9.2e-12, 2.1e-12), 1e4),
    ], ids=["benchmark size", "two pairs of duplicated inducing points"])
    def test_within_rounding_of_the_solve(self, duplicated, bounds, min_cond):
        # train_cnn's sizes: B=256, M=128, dim 250
        gp = random_gp(58, dim=250, inducing=128)
        if duplicated:
            gp.z.data[[1, 3]] = gp.z.data[[0, 2]]
        x = seeded_rng(59, "inverse-x").standard_normal((256, 250))
        (a, lw, ls, zs, zs2, scale), (chol, _) = gp._inducing()
        assert np.linalg.cond(chol) >= min_cond
        mu, var, (_, _, w, _) = gp._moments(x, gp.m.data, gp.c.data, a, lw, ls, zs, zs2, scale)
        kxz, _ = svgp._matern(x / ls, zs, zs2, scale)
        w_ref = solve_triangular(chol, kxz.T, lower=True)
        mu_ref = gp.m.data @ w_ref + gp.c.data[:, None]
        u_ref = lw.transpose(0, 2, 1) @ w_ref
        var_ref = np.maximum((scale - (w_ref * w_ref).sum(axis=0)) + (u_ref * u_ref).sum(axis=1),
                             0.0)
        for what, got, want, bound in zip(("W", "mean", "variance"), (w, mu, var),
                                          (w_ref, mu_ref, var_ref), bounds):
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err <= bound, (what, err)


class TestGradientsAtKinks:
    """Central differences, entry by entry, where the adjoint meets a clip
    or a retried factorization. Latents sit exactly on inducing points."""

    @staticmethod
    def setup(seed):
        gp = random_gp(seed, dim=2, inducing=5)
        rng = seeded_rng(seed, "kink-latents")
        latents = parameter(np.concatenate([gp.z.data[[1, 3, 4]], rng.standard_normal((3, 2))]))
        return gp, latents, rng.standard_normal((6, 2))

    def test_distance_zero(self):
        # K_ZZ's diagonal and three K_XZ entries are at distance 0, where
        # the squared distance is clipped and passes no gradient
        gp, latents, y = self.setup(61)
        _, _, (_, (sq, _, _), _, _) = moments_of_loss(gp, latents, y, True)
        assert np.all(sq[[0, 1, 2], [1, 3, 4]] == 0.0)
        assert np.all(np.diagonal(gp._inducing()[1][1][0]) == 0.0)
        check_grads(lambda: gp.loss(latents, y, 40, pre_normalized=True),
                    gp.parameters() + [latents], h=1e-6, rtol=3e-4)

    def test_clipped_variance(self, monkeypatch):
        # no jitter and a nearly zero variational factor: at an inducing
        # point the latent variance k - |W|^2 + |U|^2 is 0 up to rounding,
        # and relu clips those that round below 0
        monkeypatch.setattr(svgp, "_JITTER", 0.0)
        gp, latents, y = self.setup(62)
        gp.l_raw.data = np.tile(-30.0 * np.eye(5), (2, 1, 1))
        _, var, _ = moments_of_loss(gp, latents, y, True)
        assert (var[:, :3] == 0.0).any() and (var[:, 3:] > 0.0).all()
        check_grads(lambda: gp.loss(latents, y, 40, pre_normalized=True),
                    gp.parameters() + [latents], h=1e-6, rtol=3e-4)

    def test_escalated_jitter(self, monkeypatch):
        # the first Cholesky of every factorization fails, as on a K_ZZ that
        # needs more than the first jitter, so each uses 10 x _JITTER
        cholesky, calls = np.linalg.cholesky, []

        def failing_first(a):
            calls.append(a)
            if len(calls) % 2:
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing_first)
        gp, latents, y = self.setup(63)
        gp.z.data[2] = gp.z.data[0] + 1e-3        # nearly duplicated inducing points
        check_grads(lambda: gp.loss(latents, y, 40, pre_normalized=True),
                    gp.parameters() + [latents], h=1e-6, rtol=3e-4)
        assert len(calls) % 2 == 0
        for failed, used in zip(calls[::2], calls[1::2]):
            assert np.allclose(used - failed, 9 * svgp._JITTER * np.eye(5), rtol=0, atol=1e-15)


class TestFit:
    def test_sin_fit_reaches_low_rmse(self):
        rng = seeded_rng(21, "sin")
        x = rng.uniform(0, 4 * math.pi, 500)[:, None]
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(500)
        gp, losses = fit(x, y[:, None], inducing=32, batch_size=64, lr=0.01, epochs=300,
                         seed=21)
        xh = rng.uniform(0, 4 * math.pi, 200)[:, None]
        yh = np.sin(xh[:, 0]) + 0.1 * rng.standard_normal(200)
        mean, _ = gp.predict(xh)
        rmse = float(np.sqrt(np.mean((mean[:, 0] - yh) ** 2)))
        assert rmse < 0.2
        self._check_monotone_trend(losses, batches_per_epoch=500 // 64)

    @staticmethod
    def _check_monotone_trend(losses: list[float], batches_per_epoch: int):
        # 50-iteration moving average sampled at epoch boundaries must not
        # materially increase more than twice across the run; material means
        # above 1% of the total descent, which separates real optimization
        # bumps from minibatch composition noise around the floor
        losses = np.array(losses)
        ma = np.convolve(losses, np.ones(50) / 50, mode="valid")
        idx = [min(e * batches_per_epoch, len(ma) - 1)
               for e in range(1, len(losses) // batches_per_epoch + 1)]
        at_epochs = ma[idx]
        eps = 0.01 * max(ma[0] - ma[-1], 1.0)
        violations = int(np.sum(np.diff(at_epochs) > eps))
        assert violations <= 2, f"{violations} epoch-level loss increases above {eps:.2f}"

    def test_constant_targets_recover_constant(self):
        rng = seeded_rng(23, "const")
        x = rng.standard_normal((300, 2))
        y = np.full((300, 1), 1.7)
        gp, _ = fit(x, y, inducing=16, batch_size=64, lr=0.05, epochs=60, seed=23)
        assert float(gp.c.data[0]) == pytest.approx(1.7, abs=0.05)
        assert np.linalg.norm(gp.m.data[0]) < 0.5
        mean, _ = gp.predict(rng.standard_normal((20, 2)))
        assert np.allclose(mean[:, 0], 1.7, atol=0.1)

    def test_lengthscale_recovery(self):
        rng = seeded_rng(25, "ls")
        x = np.sort(rng.uniform(0, 4, 400))
        k = dense_matern(x, 0.5, 1.0)
        f = np.linalg.cholesky(k + 1e-10 * np.eye(400)) @ rng.standard_normal(400)
        y = f + 0.05 * rng.standard_normal(400)
        # the model works on z-scored inputs: compare in that space
        expected = math.log(0.5 / x.std())
        # 600 Adam steps on 48 inducing points (cond(L) about 4e4) are
        # chaotic: a last-bit change moves where one run ends by up to about
        # 0.5. So the fit runs from the seeded start and from starts with z
        # scaled by 1 +- 1e-15 ... 1e-9, and the bounds hold for the set.
        errors = []
        for z_scale in [1.0] + [1.0 + sign * eps for eps in (1e-15, 1e-13, 1e-11, 1e-9)
                                for sign in (1, -1)]:
            gp, _ = fit(x[:, None], y[:, None], inducing=48, batch_size=128, lr=0.05,
                        epochs=150, seed=25, z_scale=z_scale)
            errors.append(abs(float(gp.log_lengthscales.data[0]) - expected))
        assert max(errors) < 0.5 and np.median(errors) < 0.25, errors

    def test_prior_draw_two_sigma_coverage(self):
        # zero-information posterior: predictive equals the prior; draws from
        # the prior must fall outside the 2-sigma band ~4.55% of the time
        rng = seeded_rng(27, "calib")
        gp = VariationalGP(dim=2, inducing=8, num_tasks=1)
        gp.log_noise.data = np.array([math.log(0.04)])
        gp.z.data = rng.standard_normal((8, 2))
        zq = rng.standard_normal((6000, 2))
        mean, std = gp.predict(zq)
        y = mean[:, 0] + np.sqrt(1.0 + 0.04) * rng.standard_normal(6000)
        defect = float(np.mean(np.abs(y - mean[:, 0]) > 2 * std[:, 0]))
        assert 0.01 <= defect <= 0.12
