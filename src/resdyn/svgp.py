"""Sparse variational GP regression head.

Matern-5/2 ARD kernel, learned inducing points, whitened Cholesky
variational posterior, per-task constant means and noises. Tasks share the
kernel and inducing locations. The GP is trained only jointly with an
upstream sequence encoder, by one optimizer on the minibatch ELBO (`loss`);
this module has no standalone trainer on fixed latents.

Each per-task parameter is one tensor with a leading axis over the T
tasks: `m` (T, M), `l_raw` (T, M, M), `c` (T,) and `log_noise` (T,), so
one graph serves all tasks. `to_arrays`/`from_arrays` keep one key per
task: `m{t}`, `l_raw{t}`, `c{t}` and `log_noise{t}`, next to `num_tasks`.

Latents enter `elbo`, `predict` and `init_from_latents` one way
(`_latent_node`): checked to be a finite (B, dim) array, then z-scored by
the stored input mean and std, which `elbo` and `predict` skip when the
caller passes `pre_normalized=True`. A Tensor stays a graph node, so an
encoder's output keeps its gradient path into the GP; anything else stays
a plain array. `predict` and `init_from_latents` take the latents' values.

`predict` reads a factor cache: the K_ZZ Cholesky factor, the variational
factors and the inducing-side kernel terms (`_inducing_terms`). Any change
to the shape, dtype or bytes of `z`, the kernel scales or `l_raw`, down to
one ulp or a zero's sign, rebuilds it; `m`, `c` and `log_noise` are read
afresh. `elbo` and `predict` run the one formula, `_moments`: `elbo` on
the live graph nodes, `predict` on the cache, `m.data`, `c.data` and the
latents' values, all plain arrays, on which the autodiff ops build no
node, so `predict` builds no `Tensor`.

`elbo` and `predict` put the same jitter on K_ZZ: `_JITTER`, raised x10
while the Cholesky fails, up to `MAX_JITTER`. Jitter is equivalent to
observing the inducing values through N(0, jitter) noise, so the ELBO
remains a true lower bound on the exact log marginal likelihood.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.cluster.vq import kmeans2

from . import autodiff as ad
from .autodiff import Tensor, parameter
from .core import ValidationError, check_finite, check_positive_int

LOG_2PI = math.log(2.0 * math.pi)
MAX_JITTER = 1e-4
_JITTER = 1e-8        # first jitter tried on K_ZZ, by `elbo` and `predict` alike
_INIT_NOISE = 0.01    # sigma_n^2 of every task at construction, m^2
_TASK_PARAMS = ("m", "l_raw", "c", "log_noise")   # leading task axis


def _values(x) -> np.ndarray:
    """A Tensor's data, or x as a float array."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=float)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes, both float64, equal bytes (so -0.0 differs from 0.0)."""
    return (a.shape == b.shape and a.dtype == b.dtype == np.float64
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


def _checkpoint_array(arrays: dict, key: str, shape: tuple | None = None) -> np.ndarray:
    """arrays[key] as a finite float array, of `shape` when given."""
    if key not in arrays:
        raise ValidationError(f"GP arrays have no {key!r}")
    a = np.array(arrays[key], dtype=float)
    if shape is not None and a.shape != shape:
        raise ValidationError(f"GP array {key!r} has shape {a.shape}, expected {shape}")
    check_finite(a, f"GP array {key!r}")
    return a


class VariationalGP:
    """Shared-kernel multi-task SVGP with independent whitened posteriors."""

    def __init__(self, dim: int, inducing: int, num_tasks: int = 2,
                 input_mean: np.ndarray | None = None,
                 input_std: np.ndarray | None = None):
        for name, value in (("dim", dim), ("inducing", inducing), ("num_tasks", num_tasks)):
            check_positive_int(value, f"VariationalGP argument {name!r}")
        self.dim = dim
        self.inducing = inducing
        self.num_tasks = num_tasks
        for name, value, default in (("input_mean", input_mean, 0.0),
                                     ("input_std", input_std, 1.0)):
            a = np.full(dim, default) if value is None else np.asarray(value, float)
            if a.shape != (dim,):
                raise ValidationError(
                    f"VariationalGP argument {name!r} must have shape ({dim},), got {a.shape}")
            check_finite(a, f"VariationalGP argument {name!r}")
            setattr(self, name, a)
        if np.any(self.input_std <= 0):
            raise ValidationError("VariationalGP argument 'input_std' must be positive")
        self.z = parameter(np.zeros((inducing, dim)), "z")
        self.log_lengthscales = parameter(np.zeros(dim), "log_lengthscales")
        self.log_outputscale = parameter(np.array(0.0), "log_outputscale")
        self.m = parameter(np.zeros((num_tasks, inducing)), "m")
        self.l_raw = parameter(np.zeros((num_tasks, inducing, inducing)), "l_raw")
        self.c = parameter(np.zeros(num_tasks), "c")
        self.log_noise = parameter(np.full(num_tasks, math.log(_INIT_NOISE)), "log_noise")
        self._eye = np.eye(inducing)
        self._strict = np.tril(np.ones((inducing, inducing)), -1)
        self._factor_cache = None    # (key, factors) of `_factors`

    # -- parameter plumbing ---------------------------------------------

    def parameters(self) -> list[Tensor]:
        return [self.z, self.log_lengthscales, self.log_outputscale,
                self.m, self.l_raw, self.c, self.log_noise]

    def init_from_latents(self, latents: np.ndarray, targets: np.ndarray,
                          rng: np.random.Generator) -> None:
        """k-means++ inducing seeding over a subsample; constant means start
        at the per-task target means."""
        latents = self._latent_node(_values(latents), pre_normalized=False)
        y = self._targets(targets)
        sub = latents if len(latents) <= 2048 else \
            latents[rng.choice(len(latents), 2048, replace=False)]
        if len(sub) < self.inducing:
            raise ValidationError(
                f"{len(sub)} latents cannot seed {self.inducing} inducing points")
        centers, _ = kmeans2(sub, self.inducing, minit="++", seed=rng)
        self.z.data = centers.astype(float)
        self.c.data = y.mean(axis=1)

    def _latent_node(self, latents: np.ndarray | Tensor,
                     pre_normalized: bool) -> np.ndarray | Tensor:
        """(B, dim) latents checked finite and z-scored unless
        `pre_normalized`: a Tensor as a graph node, else a plain array."""
        values = _values(latents)
        if values.ndim != 2 or values.shape[1] != self.dim:
            raise ValidationError(f"latents must be (B, {self.dim}), got {values.shape}")
        check_finite(values, "latents")
        x = latents if isinstance(latents, Tensor) else values
        if pre_normalized:
            return x
        return ad.div(ad.sub(x, self.input_mean), self.input_std)

    def _targets(self, targets: np.ndarray) -> np.ndarray:
        """(B, T) targets as a finite, contiguous (T, B) array."""
        y = np.asarray(targets, float)
        if y.ndim != 2 or y.shape[1] != self.num_tasks:
            raise ValidationError(f"targets must be (B, {self.num_tasks}), got {y.shape}")
        check_finite(y, "targets")
        return np.ascontiguousarray(y.T)

    # -- kernel graph pieces ----------------------------------------------

    def _scaled(self, x: Tensor) -> Tensor:
        return ad.div(x, ad.exp(self.log_lengthscales))

    @staticmethod
    def _row_norms(a: Tensor) -> Tensor:
        return ad.tsum(ad.mul(a, a), axis=1, keepdims=True)        # (n, 1)

    @classmethod
    def _matern(cls, a: Tensor, b: Tensor, b2: Tensor, scale: Tensor) -> Tensor:
        """Matern-5/2 covariance of the rows of the scaled inputs a and b,
        given b's squared row norms b2 as (1, m)."""
        ab = ad.matmul(a, ad.transpose(b))
        sqdist = ad.relu(ad.sub(ad.add(cls._row_norms(a), b2), ad.mul(ab, 2.0)))
        return ad.mul(ad.matern52(sqdist), scale)

    def _cross_cov(self, a: Tensor, b: Tensor) -> Tensor:
        bs = self._scaled(b)
        return self._matern(self._scaled(a), bs, ad.transpose(self._row_norms(bs)),
                            ad.exp(self.log_outputscale))

    def _inducing_terms(self) -> tuple[Tensor, Tensor, Tensor, Tensor, Tensor]:
        """The lengthscales, z scaled by them, its squared row norms (1, M),
        and the outputscale twice, one node per use in `_moments`."""
        zs = self._scaled(self.z)
        return (ad.exp(self.log_lengthscales), zs, ad.transpose(self._row_norms(zs)),
                ad.exp(self.log_outputscale), ad.exp(self.log_outputscale))

    def _chol_kzz(self) -> Tensor:
        """Cholesky of K_ZZ + jitter*I, the jitter rising x10 from `_JITTER`
        to `MAX_JITTER`; a non-finite K_ZZ raises a ValidationError."""
        kzz = self._cross_cov(self.z, self.z)
        if not np.all(np.isfinite(kzz.data)):
            raise ValidationError(
                f"K_ZZ is not finite at log_lengthscales {self.log_lengthscales.data}, "
                f"log_outputscale {self.log_outputscale.data}")
        jitter = _JITTER
        while True:
            try:
                return ad.cholesky(ad.add(kzz, jitter * self._eye))
            except np.linalg.LinAlgError:
                jitter *= 10.0
                if jitter > MAX_JITTER:
                    raise ValidationError(
                        f"K_ZZ not factorizable even at jitter {MAX_JITTER}")

    def _l_var(self) -> Tensor:
        """Variational Cholesky factors (T, M, M): strict lower of raw, exp
        on the diagonal."""
        diag = ad.mul(ad.exp(ad.mul(self.l_raw, self._eye)), self._eye)
        return ad.add(ad.mul(self.l_raw, self._strict), diag)

    def _factors(self) -> tuple[np.ndarray, ...]:
        """`_chol_kzz()`, `_l_var()` and `_inducing_terms()` as arrays,
        rebuilt only when the shape, dtype or bytes of z, the kernel scales
        or l_raw change."""
        live = (self.z.data, self.log_lengthscales.data, self.log_outputscale.data,
                self.l_raw.data)
        if self._factor_cache is None or not all(map(_same_bits, self._factor_cache[0], live)):
            factors = (self._chol_kzz().data, self._l_var().data,
                       *(t.data for t in self._inducing_terms()))
            self._factor_cache = (tuple(a.copy() for a in live), factors)
        return self._factor_cache[1]

    # -- core quantities ---------------------------------------------------

    def _moments(self, latents, m, c, chol, lw, ls, zs, zs2, scale, kxx):
        """Marginal posterior means and latent variances, both (T, B), from
        the means m, c, the factors chol, lw and `_inducing_terms()`; kxx is
        the prior variance k(x, x), the outputscale, as matern52(0) = 1.
        Graph nodes give nodes; plain arrays throughout give plain arrays."""
        kxz = self._matern(ad.div(latents, ls), zs, zs2, scale)
        w = ad.trisolve(chol, ad.transpose(kxz))               # (M, B) = L_K^{-1} K_ZX
        tasks = self.num_tasks
        # (T, 1, M) @ (M, B): one matrix-vector product per task
        mu = ad.add(ad.reshape(ad.matmul(ad.reshape(m, (tasks, 1, -1)), w), (tasks, -1)),
                    ad.reshape(c, (tasks, 1)))
        u = ad.matmul(ad.transpose(lw, (0, 2, 1)), w)           # (T, M, B)
        var = ad.relu(ad.add(ad.sub(kxx, ad.tsum(ad.mul(w, w), axis=0)),
                             ad.tsum(ad.mul(u, u), axis=1)))
        return mu, var

    def _kl(self, lw: Tensor) -> Tensor:
        """KL(q(u_t) || p(u_t)) per task, (T,)."""
        log_det = ad.tsum(ad.mul(self.l_raw, self._eye), axis=(1, 2))
        return ad.mul(ad.sub(ad.add(ad.tsum(ad.mul(self.m, self.m), axis=1),
                                    ad.tsum(ad.mul(lw, lw), axis=(1, 2))),
                             ad.add(ad.mul(log_det, 2.0), float(self.inducing))),
                      0.5)

    def elbo(self, latents: Tensor | np.ndarray, targets: np.ndarray, total_n: int,
             pre_normalized: bool = False) -> Tensor:
        """Scalar ELBO node (sum over tasks). Batch likelihood is rescaled
        by total_n / B; the KL appears once per task."""
        latents = self._latent_node(latents, pre_normalized)
        y = self._targets(targets)                              # (T, B)
        bsz = y.shape[1]
        if bsz < 1 or total_n < bsz:
            raise ValidationError(f"bad batch/total sizes: {bsz}, {total_n}")
        lw = self._l_var()
        mu, var = self._moments(latents, self.m, self.c, self._chol_kzz(), lw,
                                *self._inducing_terms())
        err = ad.sub(y, mu)
        quad = ad.tsum(ad.add(ad.mul(err, err), var), axis=1)
        noise = ad.exp(self.log_noise)
        loglik = ad.sub(ad.mul(self.log_noise, -0.5 * bsz),
                        ad.add(ad.div(quad, ad.mul(noise, 2.0)), 0.5 * bsz * LOG_2PI))
        return ad.tsum(ad.sub(ad.mul(loglik, total_n / bsz), self._kl(lw)))

    def loss(self, latents, targets, total_n, pre_normalized=False) -> Tensor:
        return ad.mul(self.elbo(latents, targets, total_n, pre_normalized), -1.0)

    def predict(self, latents: np.ndarray | Tensor,
                pre_normalized: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Predictive means and stds, both (B, num_tasks); std includes noise."""
        latents = self._latent_node(_values(latents), pre_normalized)
        mu, var = self._moments(latents, self.m.data, self.c.data, *self._factors())
        std = np.sqrt(var + np.exp(self.log_noise.data)[:, None])
        return mu.T, std.T

    # -- persistence -------------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        out = {"z": self.z.data, "log_lengthscales": self.log_lengthscales.data,
               "log_outputscale": self.log_outputscale.data,
               "input_mean": self.input_mean, "input_std": self.input_std,
               "num_tasks": np.array(float(self.num_tasks))}
        for t in range(self.num_tasks):
            out.update({f"{name}{t}": np.array(getattr(self, name).data[t])
                        for name in _TASK_PARAMS})
        return out

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "VariationalGP":
        """The GP `to_arrays` describes. A missing key, a non-finite value, a
        shape that disagrees with `z` and `num_tasks`, or a `num_tasks` that
        is not a positive integer raises a ValidationError naming the key."""
        z = _checkpoint_array(arrays, "z")
        if z.ndim != 2 or 0 in z.shape:
            raise ValidationError(
                f"GP array 'z' must be (M, dim) with M, dim >= 1, got {z.shape}")
        num_tasks = float(_checkpoint_array(arrays, "num_tasks", ()))
        if num_tasks < 1 or num_tasks != int(num_tasks):
            raise ValidationError(
                f"GP array 'num_tasks' must be a positive integer, got {num_tasks}")
        gp = cls(z.shape[1], z.shape[0], num_tasks=int(num_tasks),
                 input_mean=_checkpoint_array(arrays, "input_mean", z.shape[1:]),
                 input_std=_checkpoint_array(arrays, "input_std", z.shape[1:]))
        for p in gp.parameters():
            if p.name in _TASK_PARAMS:
                p.data = np.stack([_checkpoint_array(arrays, f"{p.name}{t}", p.data.shape[1:])
                                   for t in range(gp.num_tasks)])
            else:
                p.data = _checkpoint_array(arrays, p.name, p.data.shape)
        return gp

