"""Gibbs sampler for the bivariate spike-and-slab model on wavelet coefficients.

The hierarchy, per detail coefficient d_jk = (Re, Im)':

    d_jk | theta_jk, sigma2          ~ N2(theta_jk, sigma2 * Sigma_j)
    theta_jk | z_jk, v_jk, C_j       ~ (1 - z_jk) delta_0 + z_jk N2(0, v_jk C_j)
    z_jk | eps_j                     ~ Bernoulli(eps_j)
    eps_j                            ~ U(0, 1)
    v_jk                             ~ Ga(3/2, 8)
    sigma2                           ~ IG(a, b)
    C_j                              ~ IW(A_j, w)

Sigma_j is the deterministic per-level noise shape from the transform
(unit trace), and the Ga(3/2, 8) mixing density makes the marginal prior
on active theta_jk a bivariate double exponential.  One sweep updates,
in order: sigma2, z, eps, theta, v, C.  Every update is vectorized
across all detail coefficients (or levels), with symmetric 2x2 matrices
carried as (a, b, c) component triples; a full sweep costs a fixed
number of numpy passes regardless of the number of levels.

Approximation coefficients are never shrunk: the model sees only detail
levels j0 .. log2(n)-1, and reconstruction passes the approximation
block through untouched.

Batches: every model and state array may carry free leading axes, so a
model built from R replicates holds ``sigma2`` as (R,), ``theta`` as
(R, n_det, 2) and ``C`` as (R, L, 3), and one sweep updates all R chains
with the same numpy calls a single chain makes.  The generator is then a
sequence of R generators, one per replicate (see
:class:`~cgsws.distributions.StreamStack`): replicate r draws from its
own generator only, exactly as its single chain would, and all
arithmetic is elementwise or reduces within one replicate, so each
replicate of a batch is bitwise its single-chain run.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
from scipy import special, stats

from . import baselines, mat2
from .distributions import (
    _inv_wishart_chol,
    as_streams,
    make_rng,
    sample_gig,
    sample_inv_gamma,
    streams_where,
)
from .transform import (
    CoeffTree,
    default_coarsest_level,
    forward,
    inverse,
    load_filters,
    noise_scale,
)

__all__ = [
    "METHODS",
    "Hyperparams",
    "SamplerConfig",
    "ChainState",
    "PosteriorSummary",
    "DenoiseResult",
    "SamplerError",
    "GibbsModel",
    "estimate_sigma2_mad",
    "estimate_Cj",
    "elicit",
    "init_state",
    "update_sigma2",
    "update_z_eps",
    "update_theta",
    "update_v",
    "update_C",
    "run_chain",
    "denoise",
]

# latent scale draws are clipped to this range; both tails carry
# negligible prior mass but would otherwise risk overflow in the
# precision algebra of the theta update
_V_MIN, _V_MAX = 1e-12, 1e12

# prior on v in the scale-mixture representation: Ga(shape 3/2, scale 8),
# whose rate 1/8 reappears as a/2 = 1/8 in the GIG conditional
_V_SHAPE, _V_SCALE = 1.5, 8.0
_GIG_A = 2.0 / _V_SCALE

# the Gibbs smoother and the two deterministic baselines of baselines.py
METHODS = ("cgsws", "cmws-hard", "ceb")


class SamplerError(RuntimeError):
    """Numerical failure inside a Gibbs update."""


@dataclasses.dataclass(frozen=True)
class Hyperparams:
    """Fixed hyperparameters of the hierarchy.

    ``b`` follows the scale-in-denominator inverse gamma convention, so
    the prior mean of sigma2 is 1/(b*(a-1)).  ``A`` stacks the per-level
    inverse Wishart scale matrices as (L, 2, 2), coarse level first.  A
    batch of replicates carries ``b`` as (R,) and ``A`` as (R, L, 2, 2).
    """

    a: float
    b: float
    w: float
    A: np.ndarray
    j0: int

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim < 3 or A.shape[-2:] != (2, 2):
            raise ValueError("A must stack per-level 2x2 matrices as (L, 2, 2)")
        object.__setattr__(self, "A", A)
        if not self.a > 1:
            raise ValueError("inverse gamma shape a must exceed 1")
        if not np.all(np.asarray(self.b) > 0):
            raise ValueError("inverse gamma scale b must be positive")
        if not self.w > 3:
            raise ValueError("inverse Wishart dof w must exceed 3")
        if not np.all(mat2.is_spd(A[..., 0, 0], A[..., 0, 1], A[..., 1, 1])):
            raise ValueError("every A_j must be symmetric positive definite")

    @property
    def n_levels(self):
        return self.A.shape[-3]

    @classmethod
    def stack(cls, hps):
        """One batch of per-replicate hyperparameters sharing a, w and j0."""
        hps = list(hps)
        first = hps[0]
        if any((h.a, h.w, h.j0) != (first.a, first.w, first.j0) for h in hps):
            raise ValueError("replicates of a batch must share a, w and j0")
        return cls(a=first.a, b=np.array([h.b for h in hps]), w=first.w,
                   A=np.stack([h.A for h in hps]), j0=first.j0)


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    """Chain-length and pipeline settings for :func:`run_chain`/:func:`denoise`."""

    iters: int = 10_000
    burnin: int = 5_000
    wavelet: str = "scd3"
    j0: int | None = None
    seed: int = 0
    trace_every: int = 0  # > 0 keeps a thinned sigma2 trace for diagnostics

    def __post_init__(self):
        if not (self.iters > self.burnin >= 0):
            raise ValueError("need iters > burnin >= 0")


@dataclasses.dataclass
class ChainState:
    """Current values of all sampled parameters.

    Per-coefficient arrays are flat over all detail levels, coarse level
    first; ``C`` holds per-level symmetric triples (c11, c12, c22).  A
    batched chain puts its replicate axis in front of every shape.
    """

    sigma2: float      # () or (R,)
    z: np.ndarray      # (..., n_det) uint8
    eps: np.ndarray    # (..., L)
    theta: np.ndarray  # (..., n_det, 2)
    v: np.ndarray      # (..., n_det)
    C: np.ndarray      # (..., L, 3)

    @property
    def C_matrices(self):
        return mat2.to_matrix(self.C)


@dataclasses.dataclass(frozen=True)
class PosteriorSummary:
    """Post-burn-in running means; theta_mean drives the reconstruction."""

    theta_mean: np.ndarray  # (..., n_det, 2)
    sigma2_mean: float      # () or (R,)
    eps_mean: np.ndarray    # (..., L)
    z_mean: np.ndarray      # (..., n_det)
    n_kept: int
    sigma2_trace: np.ndarray | None = None


@dataclasses.dataclass(frozen=True)
class DenoiseResult:
    """A :func:`denoise` estimate; ``summary`` is None for the baselines."""

    estimate: np.ndarray              # (..., n)
    summary: PosteriorSummary | None
    imag_residual: float              # () or (R,)
    sigma2: float                     # () or (R,): posterior mean or MAD estimate


# ---------------------------------------------------------------------------
# hyperparameter elicitation


def estimate_sigma2_mad(tree):
    """Robust noise-variance estimate from the finest detail level.

    Sums the squared MAD/0.6745 scale estimates of the real and
    imaginary parts, so a complex coefficient of pure noise has total
    variance sigma2 (the two parts split it).
    """
    finest = np.asarray(tree.details[-1])
    if finest.size < 2:
        raise ValueError("finest detail level needs at least 2 coefficients")
    s_re = stats.median_abs_deviation(finest.real) / 0.6745
    s_im = stats.median_abs_deviation(finest.imag) / 0.6745
    return s_re * s_re + s_im * s_im


def _sigma2_hat(tree):
    """The MAD estimate, floored so a constant signal keeps a positive scale."""
    return max(estimate_sigma2_mad(tree), 1e-20)


def estimate_Cj(tree, sigma2_hat, noise):
    """Method-of-moments slab covariances, one 2x2 matrix per level.

    Subtracts the noise share sigma2_hat * Sigma_j from each level's
    sample covariance; a result that is not positive definite is pushed
    onto the SPD cone by adding (|lambda_min| + 1e-6 trace(Cov)) * I.
    """
    out = np.empty((len(tree.details), 2, 2))
    for i, level in enumerate(tree.details):
        coef = np.asarray(level)
        if coef.size < 3:
            raise ValueError(
                f"level {tree.j0 + i} has {coef.size} coefficients; need >= 3 "
                "for a sample covariance"
            )
        parts = np.stack([coef.real, coef.imag])
        cov = np.cov(parts, ddof=1)
        C = cov - sigma2_hat * noise.matrix(tree.j0 + i)
        lam_min = mat2.eig_min(C[0, 0], C[0, 1], C[1, 1])
        if lam_min <= 0:
            # 1e-12 floor keeps degenerate (constant) levels on the cone
            bump = abs(lam_min) + max(1e-6 * np.trace(cov), 1e-12)
            C = C + bump * np.eye(2)
        out[i] = C
    return out


def elicit(tree, noise, w=10.0):
    """Data-driven hyperparameters: a = 2, b = 1/sigma2_hat, A_j = (w-3) C_hat_j.

    The IG prior mean then equals the MAD estimate and the IW prior mean
    equals the moment estimate of each slab covariance.  ``w`` may be
    lowered toward the least-informative 4, with a warning, but not
    below the existence threshold of the prior mean.
    """
    if w <= 4:
        if w <= 3:
            raise ValueError("inverse Wishart dof w must exceed 3")
        warnings.warn(
            f"w = {w:g} leaves the inverse Wishart prior extremely diffuse",
            stacklevel=2,
        )
    sigma2_hat = _sigma2_hat(tree)
    C_hat = estimate_Cj(tree, sigma2_hat, noise)
    return Hyperparams(a=2.0, b=1.0 / sigma2_hat, w=float(w),
                       A=(w - 3.0) * C_hat, j0=tree.j0)


# ---------------------------------------------------------------------------
# model workspace


class GibbsModel:
    """Data, noise shape, and hyperparameters with cached flat expansions.

    Bundles everything the six updates condition on.  Per-coefficient
    arrays are flat (coarse level first) and per-level quantities are
    pre-expanded to coefficient length, so each update is a handful of
    whole-array operations.

    ``data`` is one coefficient tree and ``hp`` its hyperparameters, or
    ``data`` is a sequence of R trees of one shape and ``hp`` a sequence
    of their R hyperparameter sets: a batch, whose data and
    hyperparameters carry a leading replicate axis (``batch == (R,)``)
    and share the noise shape.
    """

    def __init__(self, data, noise, hp):
        if isinstance(data, CoeffTree):
            trees, hps, self.batch = [data], [hp], ()
        else:
            trees, hps = list(data), list(hp)
            if not trees or len(hps) != len(trees):
                raise ValueError("a batch needs one hyperparameter set per tree")
            self.batch = (len(trees),)
            hp = Hyperparams.stack(hps)
        for tree, h in zip(trees, hps):
            if not (tree.n == noise.n and tree.j0 == noise.j0 == h.j0):
                raise ValueError("data, noise scale, and hyperparameters disagree "
                                 "on (n, j0)")
            if h.n_levels != len(tree.details):
                raise ValueError("hyperparameters carry the wrong number of levels")
        self.tree = data
        self.noise = noise
        self.hp = hp

        self.level_sizes = np.array([len(d) for d in trees[0].details])
        self.level_starts = np.concatenate([[0], np.cumsum(self.level_sizes)[:-1]])
        self.n_det = int(self.level_sizes.sum())
        self.n_levels = len(self.level_sizes)
        self.lev_of = np.repeat(np.arange(self.n_levels), self.level_sizes)

        # noise shape per level and expanded per coefficient
        sa, sb, sc = mat2.unpack(noise.sigma)
        self.sig_logdet = np.log(mat2.det(sa, sb, sc))
        self.isig = mat2.inv(sa, sb, sc)
        self.isig_c = tuple(x[self.lev_of] for x in self.isig)
        self.sig_c = (sa[self.lev_of], sb[self.lev_of], sc[self.lev_of])
        self.sig_logdet_c = self.sig_logdet[self.lev_of]

        self.A_tri = mat2.from_matrix(hp.A)
        flat = [np.concatenate([np.asarray(d) for d in t.details]) for t in trees]
        self.set_data(np.stack(flat) if self.batch else flat[0])

    def set_data(self, flat_complex):
        """Install new flat detail coefficients, (..., n_det), same structure."""
        if flat_complex.shape != self.batch + (self.n_det,):
            raise ValueError("flat coefficient vector has the wrong length")
        self.d = np.stack([flat_complex.real, flat_complex.imag], axis=-1)
        d1, d2 = self.d[..., 0], self.d[..., 1]
        ia, ib, ic = self.isig_c
        # Sigma_j^{-1} d and the noise-normalized quadratic form, reused
        # by the z and theta updates every sweep
        self.u1 = ia * d1 + ib * d2
        self.u2 = ib * d1 + ic * d2
        self.qd = d1 * self.u1 + d2 * self.u2

    def per_level_sum(self, x):
        return np.add.reduceat(x, self.level_starts, axis=-1)

    def per_coef(self, x):
        """Per-level values (..., L) repeated over each level's coefficients."""
        return x.take(self.lev_of, axis=-1)

    def residual_quadform(self, state):
        """sum_jk (d - theta)' Sigma_j^{-1} (d - theta), the sigma2 statistic."""
        r1 = self.d[..., 0] - state.theta[..., 0]
        r2 = self.d[..., 1] - state.theta[..., 1]
        ia, ib, ic = self.isig_c
        return mat2.quad(ia, ib, ic, r1, r2).sum(axis=-1)

    def detail_tree(self, theta):
        """Copy of the data tree with details replaced by theta (..., n_det, 2).

        A batched model returns one tree per replicate.
        """
        flat = theta[..., 0] + 1j * theta[..., 1]
        trees = self.tree if self.batch else [self.tree]
        out = [CoeffTree(n=t.n, j0=t.j0, approx=t.approx.copy(),
                         details=np.split(f, self.level_starts[1:]))
               for t, f in zip(trees, flat.reshape(-1, self.n_det))]
        return out if self.batch else out[0]


def init_state(model):
    """Starting point: active coefficients at the data, priors at their means."""
    hp = model.hp
    C0 = model.A_tri / (hp.w - 3.0)
    per_coef = model.batch + (model.n_det,)
    return ChainState(
        sigma2=1.0 / (hp.b * (hp.a - 1.0)),
        z=np.ones(per_coef, dtype=np.uint8),
        eps=np.full(model.batch + (model.n_levels,), 0.5),
        theta=model.d.copy(),
        v=np.full(per_coef, _V_SHAPE * _V_SCALE),
        C=C0.copy(),
    )


# ---------------------------------------------------------------------------
# the six full-conditional updates
#
# ``rng`` is one Generator for a single chain, or a sequence of them (one
# per replicate) for a batched model.


def _lift(x):
    """A per-replicate value, () or (R,), shaped to broadcast against (..., n)."""
    return x[..., None] if isinstance(x, np.ndarray) else x


def update_sigma2(state, model, rng):
    """sigma2 | rest ~ IG(a + n_det, [1/b + R/2]^{-1}) with R the residual form."""
    hp = model.hp
    rate = 1.0 / hp.b + 0.5 * model.residual_quadform(state)
    state.sigma2 = sample_inv_gamma(hp.a + model.n_det, 1.0 / rate, as_streams(rng))


def update_z_eps(state, model, rng):
    """Flip inclusion indicators from posterior odds, then refresh eps.

    The Bernoulli success probability compares the noise-only density
    f(d | 0, sigma2 Sigma_j) with the conditional slab marginal
    N2(d; 0, sigma2 Sigma_j + v_jk C_j); the log-odds go through a
    sigmoid so neither density is ever exponentiated on its own.
    """
    rng = as_streams(rng)
    s2 = _lift(state.sigma2)
    ca, cb, cc = (model.per_coef(state.C[..., i]) for i in range(3))
    ma = s2 * model.sig_c[0] + state.v * ca
    mb = s2 * model.sig_c[1] + state.v * cb
    mc = s2 * model.sig_c[2] + state.v * cc
    det_m = mat2.det(ma, mb, mc)
    d1, d2 = model.d[..., 0], model.d[..., 1]
    q_m = (mc * d1 * d1 - 2.0 * mb * d1 * d2 + ma * d2 * d2) / det_m
    log_f0 = -(2.0 * np.log(s2) + model.sig_logdet_c) / 2.0 - model.qd / (2.0 * s2)
    log_m = -np.log(det_m) / 2.0 - q_m / 2.0
    # eps of exactly 0 or 1 must force z deterministically, so the prior
    # log odds are allowed to reach +-inf
    eps = model.per_coef(state.eps)
    with np.errstate(divide="ignore"):
        logit = np.log(eps) - np.log1p(-eps) + log_m - log_f0
    u = rng.random(model.batch + (model.n_det,))
    state.z = (u < special.expit(logit)).astype(np.uint8)

    kept = model.per_level_sum(state.z.astype(float))
    state.eps = rng.beta(1.0 + kept, 1.0 + model.level_sizes - kept)


def update_theta(state, model, rng):
    """Point mass at zero where z = 0; precision-weighted binormal where z = 1."""
    s2 = _lift(state.sigma2)
    ica, icb, icc = map(model.per_coef, mat2.inv(*mat2.unpack(state.C)))
    pa = model.isig_c[0] / s2 + ica / state.v
    pb = model.isig_c[1] / s2 + icb / state.v
    pc = model.isig_c[2] / s2 + icc / state.v
    ta, tb, tc = mat2.inv(pa, pb, pc)
    if not (np.all(ta > 0) and np.all(mat2.det(ta, tb, tc) > 0)):
        raise SamplerError("posterior covariance of theta lost positive "
                           "definiteness")
    mu1 = (ta * model.u1 + tb * model.u2) / s2
    mu2 = (tb * model.u1 + tc * model.u2) / s2
    l11, l21, l22 = mat2.chol(ta, tb, tc)
    g = as_streams(rng).standard_normal(model.d.shape)
    on = state.z.astype(float)
    state.theta[..., 0] = on * (mu1 + l11 * g[..., 0])
    state.theta[..., 1] = on * (mu2 + l21 * g[..., 0] + l22 * g[..., 1])


def update_v(state, model, rng):
    """Prior reset Ga(3/2, 8) where z = 0; GIG(1/4, theta'C^{-1}theta, 1/2) where z = 1.

    Each branch is drawn only for the coefficients that use it; a
    vanishing quadratic form (only possible through underflow) falls back
    to the prior branch.
    """
    rng = as_streams(rng)
    ica, icb, icc = map(model.per_coef, mat2.inv(*mat2.unpack(state.C)))
    q = mat2.quad(ica, icb, icc, state.theta[..., 0], state.theta[..., 1])
    use_slab = (state.z == 1) & (q > 0.0)
    use_prior = ~use_slab
    v = np.empty(q.shape)
    v[use_prior] = streams_where(rng, use_prior).gamma(
        _V_SHAPE, _V_SCALE, size=np.count_nonzero(use_prior))
    v[use_slab] = sample_gig(_GIG_A, q[use_slab], 0.5, streams_where(rng, use_slab))
    state.v = np.clip(v, _V_MIN, _V_MAX)


def update_C(state, model, rng):
    """C_j | rest ~ IW(A_j + sum_k z theta theta'/v, w + sum_k z), per level."""
    t1, t2 = state.theta[..., 0], state.theta[..., 1]
    zv = state.z / state.v
    A = model.hp.A
    s11 = A[..., 0, 0] + model.per_level_sum(zv * t1 * t1)
    s12 = A[..., 0, 1] + model.per_level_sum(zv * t1 * t2)
    s22 = A[..., 1, 1] + model.per_level_sum(zv * t2 * t2)
    if not np.all(mat2.is_spd(s11, s12, s22)):
        raise SamplerError("inverse Wishart scale lost positive definiteness")
    dof = model.hp.w + model.per_level_sum(state.z.astype(float))
    l11, l21, l22 = mat2.chol(s11, s12, s22)
    c11, c12, c22 = _inv_wishart_chol(l11, l21, l22, dof, as_streams(rng))
    state.C = mat2.pack(c11, c12, c22)


_SWEEP = (
    ("sigma2", update_sigma2),
    ("z/eps", update_z_eps),
    ("theta", update_theta),
    ("v", update_v),
    ("C", update_C),
)


def sweep(state, model, rng):
    """One full Gibbs sweep in the fixed order sigma2, z, eps, theta, v, C."""
    for _, step in _SWEEP:
        step(state, model, rng)


# ---------------------------------------------------------------------------
# chain orchestration


def run_chain(data, noise, hp, config, rng):
    """Run the Gibbs sampler and return post-burn-in running means.

    Deterministic given (data, hp, config) and the generator's seed; a
    numerical failure aborts with the sweep index and the update that
    raised.  Only running sums are kept, so memory is flat in iters.  A
    batched model (or sequences of trees and hyperparameters) takes a
    sequence of generators, one per replicate, and every mean gains the
    leading replicate axis.
    """
    model = data if isinstance(data, GibbsModel) else GibbsModel(data, noise, hp)
    rng = as_streams(rng)
    if model.batch != (() if isinstance(rng, np.random.Generator) else (len(rng),)):
        raise ValueError("need one generator per replicate of the batch")
    state = init_state(model)
    theta_sum = np.zeros(model.d.shape)
    z_sum = np.zeros(model.batch + (model.n_det,))
    eps_sum = np.zeros(model.batch + (model.n_levels,))
    sigma2_sum = np.zeros(model.batch)
    trace = [] if config.trace_every > 0 else None
    for it in range(config.iters):
        for name, step in _SWEEP:
            try:
                step(state, model, rng)
            except Exception as exc:
                raise SamplerError(
                    f"update '{name}' failed at sweep {it}: {exc}"
                ) from exc
        if trace is not None and it % config.trace_every == 0:
            trace.append(state.sigma2)
        if it >= config.burnin:
            theta_sum += state.theta
            z_sum += state.z
            eps_sum += state.eps
            sigma2_sum += state.sigma2
    n_kept = config.iters - config.burnin
    return PosteriorSummary(
        theta_mean=theta_sum / n_kept,
        sigma2_mean=sigma2_sum / n_kept,
        eps_mean=eps_sum / n_kept,
        z_mean=z_sum / n_kept,
        n_kept=n_kept,
        sigma2_trace=None if trace is None else np.array(trace),
    )


def denoise(signal, config=SamplerConfig(), rng=None, method="cgsws"):
    """Full pipeline: transform, estimate, reconstruct.

    ``method`` is ``"cgsws"`` (elicit, run the Gibbs chain, take the
    posterior mean) or one of the deterministic baselines ``"cmws-hard"``
    and ``"ceb"``, which shrink at the floored MAD noise variance and
    ignore ``rng``.  Returns the real-valued estimate, the noise variance
    (posterior mean, or the MAD estimate), the posterior summary (None
    for a baseline) and the magnitude of the imaginary part discarded on
    inversion.  An (R, n) ``signal`` holds R replicates, with ``rng`` a
    sequence of R generators: the chain runs them as one batch, a
    baseline one at a time.  Every result then gains a leading replicate
    axis, and replicate r is bitwise the single-signal run of
    ``signal[r]`` with ``rng[r]``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}'; choose from {list(METHODS)}")
    signal = np.asarray(signal, dtype=float)
    single = signal.ndim == 1
    n = signal.shape[-1]
    filters = load_filters(config.wavelet)
    j0 = config.j0 if config.j0 is not None else default_coarsest_level(n)
    noise = noise_scale(n, j0, filters)
    if method != "cgsws":
        shrink = (baselines.cmws_hard if method == "cmws-hard"
                  else baselines.ceb_posterior_mean)

        rows = np.atleast_2d(signal)
        estimate = np.empty(rows.shape)
        imag_residual, sigma2 = np.empty(len(rows)), np.empty(len(rows))
        for r, y in enumerate(rows):
            tree = forward(y, j0, filters)
            sigma2[r] = _sigma2_hat(tree)
            estimate[r], imag_residual[r] = inverse(
                shrink(tree, sigma2[r], noise), filters)
        if single:
            estimate, imag_residual, sigma2 = (
                estimate[0], float(imag_residual[0]), sigma2[0])
        return DenoiseResult(estimate=estimate, summary=None,
                             imag_residual=imag_residual, sigma2=sigma2)

    trees = [forward(y, j0, filters) for y in np.atleast_2d(signal)]
    hps = [elicit(tree, noise) for tree in trees]
    if rng is None:
        rng = make_rng(config.seed, 0)
    model = (GibbsModel(trees[0], noise, hps[0]) if single
             else GibbsModel(trees, noise, hps))
    summary = run_chain(model, noise, None, config, rng)
    shrunk = model.detail_tree(summary.theta_mean)
    if single:
        estimate, imag_residual = inverse(shrunk, filters)
    else:
        estimate, imag_residual = map(
            np.array, zip(*(inverse(tree, filters) for tree in shrunk)))
    return DenoiseResult(estimate=estimate, summary=summary,
                         imag_residual=imag_residual, sigma2=summary.sigma2_mean)
