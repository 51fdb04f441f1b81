"""Sparse variational GP regression head.

Matern-5/2 ARD kernel, learned inducing points, whitened Cholesky
variational posterior, per-task constant means and noises. Tasks share the
kernel and inducing locations. The GP is trained only jointly with an
upstream sequence encoder, by one optimizer on the minibatch ELBO (`loss`);
this module has no standalone trainer on fixed latents.

Each per-task parameter is one tensor with a leading axis over the T
tasks: `m` (T, M), `l_raw` (T, M, M), `c` (T,) and `log_noise` (T,).
`to_arrays`/`from_arrays` keep one key per task: `m{t}`, `l_raw{t}`, `c{t}`
and `log_noise{t}`, next to `num_tasks`.

Latents enter `loss`, `predict` and `init_from_latents` one way
(`_latents`): checked to be a finite (B, dim) array, then z-scored by the
stored input mean and std, which `loss` and `predict` skip when the caller
passes `pre_normalized=True`. A Tensor's values are used; when it requires
a gradient, the loss node passes one back to it, so an encoder's output
keeps its gradient path into the GP.

K_ZZ's Cholesky factor L and A = L^-1 (LAPACK dtrtri) are formed once per
parameter state, and W = L^-1 K_ZX is one GEMM, A K_ZX. The loss, the
negated ELBO, is one fused autodiff node over the latents and the 7
parameters, computed on plain arrays; its closure keeps the intermediates,
A among them, for a hand-derived adjoint of 2-D GEMMs: through the
likelihood and the KL, the whitened factors, W, L (Murray, Differentiation
of the Cholesky decomposition, 2016) and the Matern-5/2 cross-covariances.

`loss` and `predict` run the one formula, `_moments`, on plain arrays:
`loss` on terms `_inducing` builds from the parameters at the call,
`predict` on a cache of them, rebuilt by any change to the shape, dtype or
bytes of `z`, the kernel scales or `l_raw`, down to one ulp or a zero's
sign; `m`, `c` and `log_noise` are read afresh. A call that raises leaves
the cache as it was.

`loss` and `predict` put the same jitter on K_ZZ: `_JITTER`, raised x10
while the Cholesky fails, up to `MAX_JITTER`. Jitter is equivalent to
observing the inducing values through N(0, jitter) noise, so the ELBO
remains a true lower bound on the exact log marginal likelihood.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.cluster.vq import kmeans2
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dtrtri
from scipy.spatial.distance import cdist

from .autodiff import Tensor, _node, _value, parameter
from .core import ValidationError, _checked_array, check_finite, check_positive_int

LOG_2PI = math.log(2.0 * math.pi)
MAX_JITTER = 1e-4
_JITTER = 1e-8        # first jitter tried on K_ZZ, by `loss` and `predict` alike
_INIT_NOISE = 0.01    # sigma_n^2 of every task at construction, m^2
_TASK_PARAMS = ("m", "l_raw", "c", "log_noise")   # leading task axis
_SQRT5 = math.sqrt(5.0)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes, both float64, equal bytes (so -0.0 differs from 0.0)."""
    return (a.shape == b.shape and a.dtype == b.dtype == np.float64
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


def _kmeans_pp_seeds(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds (k, d) from the rows of data, drawn as scipy's
    `kmeans2(minit="++")` draws them, with the same rng calls, so the seeds
    are the same bytes; the squared distance to the nearest seed is kept as
    a running minimum instead of recomputed against every seed so far."""
    seeds = np.empty((k, data.shape[1]))
    seeds[0] = data[rng.integers(data.shape[0])]
    d2 = None
    for i in range(1, k):
        near = cdist(seeds[i - 1:i], data, metric="sqeuclidean")[0]
        d2 = near if d2 is None else np.minimum(d2, near)
        cumprobs = (d2 / d2.sum()).cumsum()
        seeds[i] = data[int(np.searchsorted(cumprobs, rng.uniform()))]
    return seeds


def _inv_lower(l: np.ndarray) -> np.ndarray:
    """L^-1 of a lower-triangular L (M, M) with a zero strict upper triangle,
    by LAPACK dtrtri on L^T, which is Fortran-ordered for `_chol_kzz`'s L."""
    inv_t, info = dtrtri(l.T, lower=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular triangular factor (dtrtri info {info})")
    return inv_t.T


def _trisolve_adjoint(l_inv: np.ndarray, x: np.ndarray, g: np.ndarray):
    """Gradients of sum(g * x), for x = L^-1 b, with respect to L (lower
    triangle) and b, given L^-1; b's comes back Fortran-ordered."""
    gb = (g.T @ l_inv).T
    return -np.tril(gb @ x.T), gb


def _cholesky_adjoint(l: np.ndarray, l_inv: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of sum(g * L), for L the lower Cholesky factor of a
    symmetric A and g lower triangular, with respect to A, symmetrized:
    sym(L^-T Phi(L^T g) L^-1), Phi keeping the lower triangle and halving
    the diagonal (Murray 2016); L^-1 is given."""
    p = np.tril(l.T @ g)
    p[np.diag_indices_from(p)] *= 0.5
    s = l_inv.T @ (p @ l_inv)
    return 0.5 * (s + s.T)


def _matern52(sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matern-5/2 profile k(s) of squared distances s >= 0, and its slope
    dk/ds, which stays finite at s = 0 (-5/6) where the chain rule through
    r = sqrt(s) would not."""
    r = np.sqrt(sq)
    t = 1.0 + _SQRT5 * r
    e = np.exp(-_SQRT5 * r)
    return (t + (5.0 / 3.0) * sq) * e, (-(5.0 / 6.0) * t) * e


def _matern(a: np.ndarray, b: np.ndarray, b2: np.ndarray, scale):
    """Matern-5/2 covariance (n, m) of the rows of the scaled inputs a and
    b, given b's squared row norms b2 as (1, m), and the parts its adjoint
    reads: the squared distances, the unit-scale kernel and its slope. An
    overflow, or an inf scale, gives a non-finite covariance without a
    warning; the callers refuse it."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.maximum(((a * a).sum(axis=1, keepdims=True) + b2) - (a @ b.T) * 2.0, 0.0)
        unit, slope = _matern52(sq)
        return unit * scale, (sq, unit, slope)


def _matern_adjoint(gk: np.ndarray, a: np.ndarray, b: np.ndarray, parts, scale):
    """Gradients of sum(gk * k), for k = _matern(a, b, b2, scale) with b2
    b's squared row norms, with respect to a, b and scale. A clipped
    squared distance (0 after rounding) passes no gradient. When b is a,
    gk must be symmetric, and the two equal gradients are formed once."""
    sq, unit, slope = parts
    g_scale = np.vdot(gk, unit)
    gs = gk * slope
    gs *= scale
    gs *= sq > 0.0
    # 2 (a rowsum(gs) - gs b) as one dgemm, on the C-ordered arrays' transposes
    ga = dgemm(-2.0, b.T, gs.T, 2.0, (a * gs.sum(axis=1, keepdims=True)).T, overwrite_c=1).T
    if b is a:
        return ga, ga, g_scale
    gb = (b * gs.sum(axis=0)[:, None]).T
    return ga, dgemm(-2.0, a.T, gs.T, 2.0, gb, trans_b=1, overwrite_c=1).T, g_scale


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
        self._diag = np.arange(inducing)
        self._factor_cache = None    # (key, factors) of `_factors`

    # -- parameter plumbing ---------------------------------------------

    def parameters(self) -> list[Tensor]:
        return [self.z, self.log_lengthscales, self.log_outputscale,
                self.m, self.l_raw, self.c, self.log_noise]

    def init_from_latents(self, latents: np.ndarray, targets: np.ndarray,
                          rng: np.random.Generator) -> None:
        """k-means++ inducing seeding over a subsample; constant means start
        at the per-task target means."""
        latents = self._latents(latents, pre_normalized=False)
        y = self._targets(targets, len(latents))
        sub = latents if len(latents) <= 2048 else \
            latents[rng.choice(len(latents), 2048, replace=False)]
        if (distinct := len(np.unique(sub, axis=0))) < self.inducing:
            raise ValidationError(f"{distinct} distinct latents (of {len(sub)}) cannot "
                                  f"seed {self.inducing} distinct inducing points")
        centers, _ = kmeans2(sub, _kmeans_pp_seeds(sub, self.inducing, rng), minit="matrix")
        self.z.data = centers.astype(float)
        self.c.data = y.mean(axis=1)

    def _latents(self, latents, pre_normalized: bool) -> np.ndarray:
        """The values of (B, dim) latents, checked finite and z-scored
        unless `pre_normalized`."""
        x = _value(latents)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValidationError(f"latents must be (B, {self.dim}), got {x.shape}")
        check_finite(x, "latents")
        return x if pre_normalized else (x - self.input_mean) / self.input_std

    def _targets(self, targets: np.ndarray, n: int) -> np.ndarray:
        """(B, T) targets for n latents, one row each, as a finite,
        contiguous (T, B) array."""
        y = np.asarray(targets, float)
        if y.ndim != 2 or y.shape[1] != self.num_tasks:
            raise ValidationError(f"targets must be (B, {self.num_tasks}), got {y.shape}")
        if len(y) != n:
            raise ValidationError(
                f"{n} latents but {len(y)} target rows: one target row per latent")
        check_finite(y, "targets")
        return np.ascontiguousarray(y.T)

    # -- inducing-side terms ------------------------------------------------

    def _chol_kzz(self, kzz: np.ndarray) -> np.ndarray:
        """Cholesky factor of kzz + jitter*I, the jitter rising x10 from
        `_JITTER` to `MAX_JITTER`; a non-finite kzz raises a ValidationError."""
        if not np.isfinite(kzz).all():
            raise ValidationError(
                f"K_ZZ is not finite at log_lengthscales {self.log_lengthscales.data}, "
                f"log_outputscale {self.log_outputscale.data}")
        jitter = _JITTER
        while True:
            try:
                return np.linalg.cholesky(kzz + jitter * self._eye)
            except np.linalg.LinAlgError:
                jitter *= 10.0
                if jitter > MAX_JITTER:
                    raise ValidationError(
                        f"K_ZZ not factorizable even at jitter {MAX_JITTER}")

    def _l_var(self) -> np.ndarray:
        """Variational Cholesky factors (T, M, M): strict lower of raw, exp
        on the diagonal."""
        l_raw, diag = self.l_raw.data, self._diag
        lw = np.tril(l_raw, -1)
        lw[:, diag, diag] = np.exp(l_raw[:, diag, diag])
        return lw

    def _inducing(self):
        """The inducing-side arguments of `_moments` from the parameters'
        values: A = L^-1 for L the K_ZZ Cholesky factor, `_l_var()`, the
        lengthscales, z scaled by them, its squared row norms (1, M) and
        the outputscale; and, for the adjoint, L and K_ZZ's kernel parts."""
        with np.errstate(over="ignore"):
            ls = np.exp(self.log_lengthscales.data)
        # a lengthscale of 0 or inf would give the prior, not a refusal
        if not (np.isfinite(ls).all() and (ls > 0.0).all()):
            raise ValidationError(f"log_lengthscales {self.log_lengthscales.data} give "
                                  f"lengthscales {ls}, not all finite and > 0")
        # an inf outputscale, or a z / ls that overflows or whose square does,
        # gives a K_ZZ that is refused
        with np.errstate(over="ignore"):
            scale = np.exp(self.log_outputscale.data)
            zs = self.z.data / ls
            zs2 = (zs * zs).sum(axis=1, keepdims=True).T
        kzz, kzz_parts = _matern(zs, zs, zs2, scale)
        chol = self._chol_kzz(kzz)
        return (_inv_lower(chol), self._l_var(), ls, zs, zs2, scale), (chol, kzz_parts)

    def _factors(self) -> tuple[tuple, tuple]:
        """The cache key and `_inducing()`'s `_moments` arguments, rebuilt
        only when the shape, dtype or bytes of z, the kernel scales or
        l_raw change; `predict` stores them once they have served."""
        live = (self.z.data, self.log_lengthscales.data, self.log_outputscale.data,
                self.l_raw.data)
        if self._factor_cache is not None and all(map(_same_bits, self._factor_cache[0], live)):
            return self._factor_cache
        return tuple(a.copy() for a in live), self._inducing()[0]

    # -- core quantities ---------------------------------------------------

    def _moments(self, x, m, c, a, lw, ls, zs, zs2, scale):
        """Marginal posterior means and latent variances, both (T, B), of
        the z-scored latents x, from the means m, c and `_inducing()`'s
        terms; the prior variance k(x, x) is the outputscale, as the unit
        kernel is 1 at distance 0. Also returns what the ELBO's adjoint
        reads: x scaled, the K_XZ kernel parts, W = A K_ZX and the
        whitened factors' products U = lw^T W. A non-finite K_XZ raises."""
        xs = x / ls
        kxz, kxz_parts = _matern(xs, zs, zs2, scale)
        if not np.isfinite(kxz).all():
            raise ValidationError(
                f"K_XZ is not finite at log_lengthscales {self.log_lengthscales.data}")
        w = a @ kxz.T                                           # (M, B)
        tasks = self.num_tasks
        # (T, 1, M) @ (M, B): one matrix-vector product per task
        mu = (m.reshape(tasks, 1, -1) @ w).reshape(tasks, -1) + c.reshape(tasks, 1)
        u = lw.transpose(0, 2, 1) @ w                            # (T, M, B)
        var = np.maximum((scale - (w * w).sum(axis=0)) + (u * u).sum(axis=1), 0.0)
        return mu, var, (xs, kxz_parts, w, u)

    def _kl(self, lw: np.ndarray) -> np.ndarray:
        """KL(q(u_t) || p(u_t)) per task, (T,)."""
        m = self.m.data
        log_det = (self.l_raw.data * self._eye).sum(axis=(1, 2))
        return (((m * m).sum(axis=1) + (lw * lw).sum(axis=(1, 2)))
                - (log_det * 2.0 + float(self.inducing))) * 0.5

    def loss(self, latents: Tensor | np.ndarray, targets: np.ndarray, total_n: int,
             pre_normalized: bool = False) -> Tensor:
        """The negated ELBO (sum over tasks), one node over the latents, when
        they are a Tensor, and the 7 parameters. The batch likelihood is
        rescaled by total_n / B, for an int total_n >= B; the KL appears
        once per task. There must be one row of targets per latent."""
        x = self._latents(latents, pre_normalized)
        y = self._targets(targets, len(x))                      # (T, B)
        bsz = y.shape[1]
        check_positive_int(total_n, "loss argument 'total_n'")
        if bsz < 1 or total_n < bsz:
            raise ValidationError(f"bad batch/total sizes: {bsz}, {total_n}")
        (a, lw, ls, zs, zs2, scale), (chol, kzz_parts) = self._inducing()
        m, log_noise = self.m.data, self.log_noise.data
        mu, var, (xs, kxz_parts, w, u) = self._moments(x, m, self.c.data, a, lw,
                                                       ls, zs, zs2, scale)
        err = y - mu
        quad = (err * err + var).sum(axis=1)
        noise2 = np.exp(log_noise) * 2.0
        loglik = log_noise * (-0.5 * bsz) - (quad / noise2 + 0.5 * bsz * LOG_2PI)
        rescale = total_n / bsz
        value = -((loglik * rescale) - self._kl(lw)).sum()
        input_std = None if pre_normalized else self.input_std
        diag = self._diag

        def _bwd(g, *parents):
            # the 7 `parameters()`, then the latents when they take a gradient
            params, latents = parents[:7], parents[7:]
            s = -float(g)                           # d out / d ELBO
            sn = s * rescale                        # d out / d loglik, every task
            q = -sn / noise2                        # d out / d quad, (T,)
            g_mu = (-2.0 * q)[:, None] * err        # (T, B)
            g_var = np.where(var > 0.0, q[:, None], 0.0)
            g_u = u * (2.0 * g_var)[:, None, :]     # (T, M, B)
            g_u2 = g_u.reshape(-1, bsz)            # (T*M, B): 2-D GEMMs over the tasks
            g_w = (m.T @ g_mu + lw.transpose(1, 0, 2).reshape(len(w), -1) @ g_u2
                   - w * (2.0 * g_var.sum(axis=0)))
            g_lw = (g_u2 @ w.T).reshape(lw.shape).transpose(0, 2, 1) - s * lw
            # lw's diagonal is exp(l_raw's), and the KL's log-det term adds s
            g_l_raw = np.tril(g_lw, -1)
            g_l_raw[:, diag, diag] = g_lw[:, diag, diag] * lw[:, diag, diag] + s
            g_chol, g_kzx = _trisolve_adjoint(a, w, g_w)
            g_kzz = _cholesky_adjoint(chol, a, g_chol)
            del g_chol, g_w                         # before the Matern adjoints: peak memory
            g_xs, g_zs, g_scale_x = _matern_adjoint(g_kzx.T, xs, zs, kxz_parts, scale)
            g_zz, _, g_scale_z = _matern_adjoint(g_kzz, zs, zs, kzz_parts, scale)
            g_zs += 2.0 * g_zz                     # K_ZZ takes z as both operands
            # in `parameters()` order; the log-scales through xs, zs, and the
            # outputscale through K_XZ, K_ZZ and the prior variance k(x, x)
            grads = (g_zs / ls,
                     -((g_xs * xs).sum(axis=0) + (g_zs * zs).sum(axis=0)),
                     scale * (g_scale_x + g_scale_z + g_var.sum()),
                     g_mu @ w.T - s * m,
                     g_l_raw,
                     g_mu.sum(axis=1),
                     sn * (quad / noise2 - 0.5 * bsz))
            for p, gp in zip(params, grads):
                p._acc(gp)
            for lat in latents:
                g_x = g_xs / ls
                lat._acc(g_x if input_std is None else g_x / input_std)
        parents = self.parameters()
        if isinstance(latents, Tensor) and latents.requires_grad:
            parents.append(latents)
        return _node(value, parents, _bwd)

    def predict(self, latents: np.ndarray | Tensor,
                pre_normalized: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Predictive means and stds, both (B, num_tasks); std includes noise."""
        x = self._latents(latents, pre_normalized)
        key, factors = self._factors()
        mu, var, _ = self._moments(x, self.m.data, self.c.data, *factors)
        self._factor_cache = key, factors
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
        z = _checked_array(arrays, "z")
        if z.ndim != 2 or 0 in z.shape:
            raise ValidationError(
                f"array 'z' must be (M, dim) with M, dim >= 1, got {z.shape}")
        num_tasks = float(_checked_array(arrays, "num_tasks", ()))
        if num_tasks < 1 or num_tasks != int(num_tasks):
            raise ValidationError(
                f"array 'num_tasks' must be a positive integer, got {num_tasks}")
        # the per-task arrays are read before anything is sized by num_tasks,
        # so a count the keys do not back fails at its first missing key
        m = z.shape[0]
        tasks = {name: np.stack([_checked_array(arrays, f"{name}{t}", shape)
                                 for t in range(int(num_tasks))])
                 for name, shape in zip(_TASK_PARAMS, ((m,), (m, m), (), ()))}
        gp = cls(z.shape[1], m, num_tasks=int(num_tasks),
                 input_mean=_checked_array(arrays, "input_mean", z.shape[1:]),
                 input_std=_checked_array(arrays, "input_std", z.shape[1:]))
        for p in gp.parameters():
            p.data = (tasks[p.name] if p.name in tasks
                      else _checked_array(arrays, p.name, p.data.shape))
        return gp

