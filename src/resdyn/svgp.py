"""Sparse variational GP regression head.

Matern-5/2 ARD kernel, learned inducing points, whitened Cholesky
variational posterior, per-task constant means and noises. Tasks share the
kernel and inducing locations. Minibatch ELBO trained by Adam, optionally
jointly with an upstream encoder.

Latents enter `elbo`, `predict` and `init_from_latents` one way: made a
graph node (an ndarray becomes a constant `Tensor`), checked to be a
finite (B, dim) array, then z-scored by the stored input mean and std
inside the graph. `elbo` and `predict` skip the z-score when the caller
passes `pre_normalized=True`. An encoder's output node therefore keeps its
gradient path into the GP.

Jitter added to K_ZZ is equivalent to observing the inducing values through
N(0, jitter) noise, so the ELBO remains a true lower bound on the exact
log marginal likelihood for any jitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.cluster.vq import kmeans2

from . import autodiff as ad
from .autodiff import Adam, Tensor, backward, parameter
from .core import ValidationError
from .rng import seeded_rng

LOG_2PI = math.log(2.0 * math.pi)
MAX_JITTER = 1e-4


@dataclass
class GpConfig:
    inducing: int = 128
    batch_size: int = 256
    lr: float = 0.01
    epochs: int = 40
    jitter: float = 1e-8
    init_noise: float = 0.01   # sigma_n^2, m^2

    def validate(self):
        if self.inducing < 1:
            raise ValidationError("need at least one inducing point")
        if self.inducing >= self.batch_size:
            raise ValidationError(
                f"inducing count {self.inducing} must stay below batch size {self.batch_size}")
        if self.lr <= 0 or self.epochs < 1:
            raise ValidationError("bad optimizer settings")


def _check_finite(values: np.ndarray, what: str) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        first = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValidationError(f"non-finite {what} at index {first}")


class VariationalGP:
    """Shared-kernel multi-task SVGP with independent whitened posteriors."""

    def __init__(self, dim: int, inducing: int, num_tasks: int = 2,
                 init_noise: float = 0.01,
                 input_mean: np.ndarray | None = None,
                 input_std: np.ndarray | None = None):
        if inducing < 1:
            raise ValidationError("need at least one inducing point")
        self.dim = dim
        self.inducing = inducing
        self.num_tasks = num_tasks
        self.input_mean = np.zeros(dim) if input_mean is None else np.asarray(input_mean, float)
        self.input_std = np.ones(dim) if input_std is None else np.asarray(input_std, float)
        if np.any(self.input_std <= 0):
            raise ValidationError("input std must be positive")
        self.z = parameter(np.zeros((inducing, dim)), "z")
        self.log_lengthscales = parameter(np.zeros(dim), "log_lengthscales")
        self.log_outputscale = parameter(np.array(0.0), "log_outputscale")
        self.m = [parameter(np.zeros(inducing), f"m{t}") for t in range(num_tasks)]
        self.l_raw = [parameter(np.zeros((inducing, inducing)), f"l_raw{t}")
                      for t in range(num_tasks)]
        self.c = [parameter(np.array(0.0), f"c{t}") for t in range(num_tasks)]
        self.log_noise = [parameter(np.array(math.log(init_noise)), f"log_noise{t}")
                          for t in range(num_tasks)]
        self._eye = np.eye(inducing)
        self._strict = np.tril(np.ones((inducing, inducing)), -1)

    # -- parameter plumbing ---------------------------------------------

    def parameters(self) -> list[Tensor]:
        out = [self.z, self.log_lengthscales, self.log_outputscale]
        for t in range(self.num_tasks):
            out += [self.m[t], self.l_raw[t], self.c[t], self.log_noise[t]]
        return out

    def init_from_latents(self, latents: np.ndarray, targets: np.ndarray,
                          rng: np.random.Generator) -> None:
        """k-means++ inducing seeding over a subsample; constant means start
        at the per-task target means."""
        latents = self._latent_node(latents, pre_normalized=False).data
        sub = latents if len(latents) <= 2048 else \
            latents[rng.choice(len(latents), 2048, replace=False)]
        if len(sub) < self.inducing:
            raise ValidationError(
                f"{len(sub)} latents cannot seed {self.inducing} inducing points")
        centers, _ = kmeans2(sub, self.inducing, minit="++", seed=rng)
        self.z.data = centers.astype(float)
        t2 = np.atleast_2d(np.asarray(targets, float).T).T
        for t in range(self.num_tasks):
            self.c[t].data = np.array(float(t2[:, t].mean()))

    def _latent_node(self, latents: np.ndarray | Tensor, pre_normalized: bool) -> Tensor:
        """(B, dim) latents as a finite graph node, z-scored unless
        `pre_normalized`."""
        x = ad.as_tensor(latents)
        if x.data.ndim != 2 or x.data.shape[1] != self.dim:
            raise ValidationError(f"latents must be (B, {self.dim}), got {x.data.shape}")
        _check_finite(x.data, "latents")
        if pre_normalized:
            return x
        return ad.div(ad.sub(x, Tensor(self.input_mean)), Tensor(self.input_std))

    # -- kernel graph pieces ----------------------------------------------

    def _scaled(self, x: Tensor) -> Tensor:
        return ad.div(x, ad.exp(self.log_lengthscales))

    @staticmethod
    def _sqdist(a: Tensor, b: Tensor) -> Tensor:
        a2 = ad.tsum(ad.mul(a, a), axis=1, keepdims=True)          # (n, 1)
        b2 = ad.transpose(ad.tsum(ad.mul(b, b), axis=1, keepdims=True))  # (1, m)
        ab = ad.matmul(a, ad.transpose(b))
        return ad.relu(ad.sub(ad.add(a2, b2), ad.mul(ab, 2.0)))

    def _cross_cov(self, a: Tensor, b: Tensor) -> Tensor:
        return ad.mul(ad.matern52(self._sqdist(self._scaled(a), self._scaled(b))),
                      ad.exp(self.log_outputscale))

    def _chol_kzz(self, jitter: float) -> tuple[Tensor, float]:
        """Cholesky of K_ZZ + jitter*I, escalating jitter x10 up to 1e-4."""
        kzz = self._cross_cov(self.z, self.z)
        j = jitter
        while True:
            try:
                return ad.cholesky(ad.add(kzz, Tensor(j * self._eye))), j
            except np.linalg.LinAlgError:
                j *= 10.0
                if j > MAX_JITTER:
                    raise ValidationError(
                        f"K_ZZ not factorizable even at jitter {MAX_JITTER}")

    def _l_var(self, t: int) -> Tensor:
        """Variational Cholesky factor: strict lower of raw, exp on diagonal."""
        raw = self.l_raw[t]
        diag = ad.mul(ad.exp(ad.mul(raw, Tensor(self._eye))), Tensor(self._eye))
        return ad.add(ad.mul(raw, Tensor(self._strict)), diag)

    # -- core quantities ---------------------------------------------------

    def _posterior_terms(self, latents: Tensor, jitter: float):
        """Shared pieces: W = L_K^{-1} K_ZX and per-point prior variance."""
        ls, _ = self._chol_kzz(jitter)
        kxz = self._cross_cov(latents, self.z)
        w = ad.trisolve(ls, ad.transpose(kxz))                 # (l, B)
        kxx = ad.exp(self.log_outputscale)                     # matern52(0) = 1
        return w, kxx

    def _task_moments(self, w: Tensor, kxx: Tensor, t: int):
        """Marginal posterior mean and latent variance for task t."""
        lw = self._l_var(t)
        mu = ad.add(ad.matmul(ad.transpose(w),
                              ad.reshape(self.m[t], (self.inducing, 1))),
                    self.c[t])                                  # (B, 1)
        u = ad.matmul(ad.transpose(lw), w)                      # (l, B)
        var = ad.relu(ad.add(ad.sub(kxx, ad.tsum(ad.mul(w, w), axis=0)),
                             ad.tsum(ad.mul(u, u), axis=0)))    # (B,)
        return ad.reshape(mu, (-1,)), var

    def _kl(self, t: int) -> Tensor:
        lw = self._l_var(t)
        m = self.m[t]
        log_det = ad.tsum(ad.mul(self.l_raw[t], Tensor(self._eye)))
        return ad.mul(ad.sub(ad.add(ad.tsum(ad.mul(m, m)),
                                    ad.tsum(ad.mul(lw, lw))),
                             ad.add(ad.mul(log_det, 2.0), float(self.inducing))),
                      0.5)

    def elbo(self, latents: Tensor | np.ndarray, targets: np.ndarray,
             total_n: int, jitter: float | None = None,
             pre_normalized: bool = False) -> Tensor:
        """Scalar ELBO node (sum over tasks). Batch likelihood is rescaled
        by total_n / B; the KL appears once per task."""
        latents = self._latent_node(latents, pre_normalized)
        if jitter is None:
            jitter = 1e-8
        y = np.atleast_2d(np.asarray(targets, float).T).T       # (B, T)
        _check_finite(y, "targets")
        bsz = y.shape[0]
        if bsz < 1 or total_n < bsz:
            raise ValidationError(f"bad batch/total sizes: {bsz}, {total_n}")
        if y.shape[1] != self.num_tasks:
            raise ValidationError(f"targets have {y.shape[1]} tasks, model has {self.num_tasks}")
        w, kxx = self._posterior_terms(latents, jitter)
        scale = total_n / bsz
        total = None
        for t in range(self.num_tasks):
            mu, var = self._task_moments(w, kxx, t)
            err = ad.sub(Tensor(y[:, t]), mu)
            quad = ad.tsum(ad.add(ad.mul(err, err), var))
            noise = ad.exp(self.log_noise[t])
            loglik = ad.sub(ad.mul(self.log_noise[t], -0.5 * bsz),
                            ad.add(ad.div(quad, ad.mul(noise, 2.0)),
                                   0.5 * bsz * LOG_2PI))
            task_elbo = ad.sub(ad.mul(loglik, scale), self._kl(t))
            total = task_elbo if total is None else ad.add(total, task_elbo)
        return total

    def loss(self, latents, targets, total_n, jitter=None,
             pre_normalized=False) -> Tensor:
        return ad.mul(self.elbo(latents, targets, total_n, jitter, pre_normalized), -1.0)

    def predict(self, latents: np.ndarray | Tensor, jitter: float | None = None,
                pre_normalized: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Predictive means and stds, both (M, num_tasks); std includes noise."""
        latents = self._latent_node(latents, pre_normalized)
        w, kxx = self._posterior_terms(latents, jitter if jitter is not None else 1e-8)
        means, stds = [], []
        for t in range(self.num_tasks):
            mu, var = self._task_moments(w, kxx, t)
            noise = float(np.exp(self.log_noise[t].data))
            means.append(mu.data)
            stds.append(np.sqrt(var.data + noise))
        return np.stack(means, axis=1), np.stack(stds, axis=1)

    # -- persistence -------------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        out = {"z": self.z.data, "log_lengthscales": self.log_lengthscales.data,
               "log_outputscale": self.log_outputscale.data,
               "input_mean": self.input_mean, "input_std": self.input_std,
               "num_tasks": np.array(float(self.num_tasks))}
        for t in range(self.num_tasks):
            out[f"m{t}"] = self.m[t].data
            out[f"l_raw{t}"] = self.l_raw[t].data
            out[f"c{t}"] = self.c[t].data
            out[f"log_noise{t}"] = self.log_noise[t].data
        return out

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "VariationalGP":
        z = arrays["z"]
        num_tasks = int(arrays["num_tasks"])
        gp = cls(z.shape[1], z.shape[0], num_tasks=num_tasks,
                 input_mean=arrays["input_mean"], input_std=arrays["input_std"])
        gp.z.data = np.array(z, dtype=float)
        gp.log_lengthscales.data = np.array(arrays["log_lengthscales"], dtype=float)
        gp.log_outputscale.data = np.array(arrays["log_outputscale"], dtype=float)
        for t in range(num_tasks):
            gp.m[t].data = np.array(arrays[f"m{t}"], dtype=float)
            gp.l_raw[t].data = np.array(arrays[f"l_raw{t}"], dtype=float)
            gp.c[t].data = np.array(arrays[f"c{t}"], dtype=float)
            gp.log_noise[t].data = np.array(arrays[f"log_noise{t}"], dtype=float)
        return gp


@dataclass
class FitReport:
    iteration_losses: list[float] = field(default_factory=list)
    epoch_train_loss: list[float] = field(default_factory=list)
    epoch_val_elbo: list[float] = field(default_factory=list)
    best_epoch: int = 0
    skipped_steps: int = 0


def fit_svgp(latents: np.ndarray, targets: np.ndarray, config: GpConfig,
             seed: int = 0, val_latents: np.ndarray | None = None,
             val_targets: np.ndarray | None = None) -> tuple[VariationalGP, FitReport]:
    """Standalone SVGP training on fixed latents (no encoder in the loop)."""
    config.validate()
    latents = np.asarray(latents, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, float).T).T
    n = len(latents)
    if n < config.batch_size:
        raise ValidationError(f"dataset of {n} smaller than batch size {config.batch_size}")
    rng = seeded_rng(seed, "svgp-fit")
    mean = latents.mean(axis=0)
    std = np.maximum(latents.std(axis=0), 1e-8)
    gp = VariationalGP(latents.shape[1], config.inducing,
                       num_tasks=targets.shape[1], init_noise=config.init_noise,
                       input_mean=mean, input_std=std)
    gp.init_from_latents(latents, targets, rng)
    params = gp.parameters()
    opt = Adam(params, lr=config.lr)
    report = FitReport()
    best = [p.data.copy() for p in params]
    best_val = -math.inf
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        for lo in range(0, n - config.batch_size + 1, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            opt.zero_grad()
            loss = gp.loss(latents[idx], targets[idx], total_n=n, jitter=config.jitter)
            backward(loss)
            opt.step()
            losses.append(float(loss.data))
        report.iteration_losses += losses
        report.epoch_train_loss.append(float(np.mean(losses)))
        if val_latents is not None:
            val = float(gp.elbo(val_latents, val_targets, total_n=len(val_latents),
                                jitter=config.jitter).data) / len(val_latents)
            report.epoch_val_elbo.append(val)
            if val > best_val:
                best_val = val
                report.best_epoch = epoch
                best = [p.data.copy() for p in params]
    if val_latents is not None:
        for p, data in zip(params, best):
            p.data = data
    report.skipped_steps = opt.skipped_steps
    return gp, report
