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
across detail coefficients (or levels), with symmetric 2x2 matrices
carried as (a, b, c) component triples; a full sweep costs a fixed
number of numpy passes regardless of the number of levels.  Work whose
result depends on a coefficient only where z = 1 runs over the active
coefficients alone, taken from ``state.z`` by each update: the theta
draw, the residual form of the sigma2 statistic and the scatter sums of
C.  The z and v updates draw at every coefficient.

Approximation coefficients are never shrunk: the model sees only detail
levels j0 .. log2(n)-1, and reconstruction passes the approximation
block through untouched.

Batches: every model and state array may carry free leading axes.  An
(R, n) stack of signals stays one object from end to end: ``forward``
gives one coefficient tree with a leading replicate axis, :func:`elicit`
gives its hyperparameters with ``b`` as (R,) and ``A`` as (R, L, 2, 2),
:class:`GibbsModel` takes both, and :meth:`GibbsModel.detail_tree` gives
one stacked tree back to ``inverse``.  The model holds ``sigma2`` as
(R,), ``theta`` as (R, n_det, 2) and ``C`` as (R, L, 3), and one sweep
updates all R chains with the same numpy calls a single chain makes.
The generator is then a sequence of R generators, one per replicate.
Each sweep makes three calls on each generator, in replicate order
within each step: ``random`` and ``standard_normal`` for two raw blocks
whose sizes depend only on (n_det, L), from which every draw but
theta's is built with elementwise transforms over the whole batch (see
:class:`~cgsws.distributions.Variates`); then, in the theta update, one
``standard_normal`` call of 2 k_r normals, k_r the replicate's active
count.  Replicate r reads only its own blocks and generator, exactly as
its single chain would, and all arithmetic is elementwise or reduces
within one replicate, so each replicate of a batch is bitwise its
single-chain run.  An update called on its own with generators draws
blocks sized for itself alone.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import baselines, mat2
from .distributions import (
    Variates,
    _beta,
    _gamma,
    _gamma_three_halves,
    _inv_wishart_chol,
    make_rng,
    ragged_normal,
    sample_gig,
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
# whose rate 1/8 reappears as a/2 = 1/8 in the GIG conditional; the shape
# is fixed by the draw in update_v (distributions._gamma_three_halves)
_V_SHAPE, _V_SCALE = 1.5, 8.0
_GIG_A = 2.0 / _V_SCALE

# inverse Wishart degrees of freedom of the elicited prior on each C_j
_ELICIT_W = 10.0

# the Gibbs smoother and the two deterministic baselines of baselines.py
METHODS = ("cgsws", "cmws-hard", "ceb")

# replicates per stacked baseline pass: each polyphase step has a fixed
# cost whatever its size, which a chunk pays once, while a whole share in
# one pass would hold all its coefficient trees at once
_BASELINE_CHUNK = 8


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


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    """Chain-length and pipeline settings for :func:`run_chain`/:func:`denoise`."""

    iters: int = 10_000
    burnin: int = 5_000
    wavelet: str = "scd3"
    j0: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (self.iters > self.burnin >= 0):
            raise ValueError("need iters > burnin >= 0")


@dataclasses.dataclass
class ChainState:
    """Current values of all sampled parameters.

    Per-coefficient arrays are flat over all detail levels, coarse level
    first; ``C`` holds per-level symmetric triples (c11, c12, c22) and
    ``C_inv`` the triple of their inverses.  Write ``C`` through
    :meth:`GibbsModel.set_C`, which refreshes ``C_inv`` with it.
    A batched chain puts its replicate axis in front of every shape.
    """

    sigma2: float      # () or (R,)
    z: np.ndarray      # (..., n_det) bool
    eps: np.ndarray    # (..., L)
    theta: np.ndarray  # (..., n_det, 2)
    v: np.ndarray      # (..., n_det)
    C: np.ndarray      # (..., L, 3)
    C_inv: tuple = ()  # three (..., L) arrays


@dataclasses.dataclass(frozen=True)
class PosteriorSummary:
    """Post-burn-in running means; theta_mean drives the reconstruction."""

    theta_mean: np.ndarray  # (..., n_det, 2)
    sigma2_mean: float      # () or (R,)
    eps_mean: np.ndarray    # (..., L)
    z_mean: np.ndarray      # (..., n_det)
    n_kept: int


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
    variance sigma2 (the two parts split it).  A stacked tree gives one
    estimate per signal.
    """
    finest = np.asarray(tree.details[-1])
    if finest.shape[-1] < 2:
        raise ValueError("finest detail level needs at least 2 coefficients")
    s_re = _mad(finest.real) / 0.6745
    s_im = _mad(finest.imag) / 0.6745
    return s_re * s_re + s_im * s_im


def _mad(x):
    """Median absolute deviation from the median along the last axis, unscaled."""
    return np.median(np.abs(x - np.median(x, axis=-1)[..., None]), axis=-1)


def _sigma2_hat(tree):
    """The MAD estimate, floored so a constant signal keeps a positive scale.

    An estimate past the float range raises here, once, for every method.
    """
    with np.errstate(over="ignore"):
        sigma2_hat = estimate_sigma2_mad(tree)
    if not np.all(sigma2_hat < np.inf):
        raise ValueError("the MAD noise variance estimate overflows the float range; "
                         "rescale the signal")
    return np.maximum(sigma2_hat, 1e-20)


def estimate_Cj(tree, sigma2_hat, noise):
    """Method-of-moments slab covariances, one 2x2 matrix per level: (..., L, 2, 2).

    Subtracts the noise share sigma2_hat * Sigma_j from each level's
    sample covariance; a result that is not positive definite is pushed
    onto the SPD cone by adding (|lambda_min| + 1e-6 trace(Cov)) * I.
    A stacked tree takes one sigma2_hat per signal.
    """
    s2 = np.asarray(sigma2_hat)[..., None, None]
    out = []
    for j, level in zip(tree.levels, tree.details):
        coef = np.asarray(level)
        m = coef.shape[-1]
        if m < 3:
            raise ValueError(
                f"level {j} has {m} coefficients; need >= 3 for a sample covariance")
        # 1e-12 floor keeps degenerate (constant) levels on the cone
        out.append(baselines._moment_slab(coef, s2 * noise.matrix(j), floor=1e-12))
    return np.stack(out, axis=-3)


def elicit(tree, noise):
    """Data-driven hyperparameters: a = 2, b = 1/sigma2_hat, A_j = (w-3) C_hat_j, w = 10.

    The IG prior mean then equals the MAD estimate and the IW prior mean
    equals the moment estimate of each slab covariance.  A stacked tree
    gives ``b`` as (R,) and ``A`` as (R, L, 2, 2).
    """
    sigma2_hat = _sigma2_hat(tree)
    C_hat = estimate_Cj(tree, sigma2_hat, noise)
    return Hyperparams(a=2.0, b=1.0 / sigma2_hat, w=_ELICIT_W,
                       A=(_ELICIT_W - 3.0) * C_hat, j0=tree.j0)


# ---------------------------------------------------------------------------
# model workspace


class GibbsModel:
    """Data, noise shape, and hyperparameters with cached flat expansions.

    Bundles everything the six updates condition on.  Per-coefficient
    arrays are flat (coarse level first); an update repeats per-level
    quantities over every coefficient (:meth:`per_coef`) or over the
    active ones only (:meth:`active`, :meth:`per_active`), so each update
    is a handful of whole-array operations.

    The model's ``batch`` is the leading axes of ``tree``, () or (R,),
    which ``hp`` must share: a tree stacked from R signals with its
    hyperparameters from :func:`elicit` gives ``batch == (R,)``, and all
    replicates share the noise shape.
    """

    def __init__(self, tree, noise, hp):
        if not (tree.n == noise.n and tree.j0 == noise.j0 == hp.j0):
            raise ValueError("data, noise scale, and hyperparameters disagree "
                             "on (n, j0)")
        if hp.n_levels != len(tree.details):
            raise ValueError("hyperparameters carry the wrong number of levels")
        self.batch = tree.approx.shape[:-1]
        if len(self.batch) > 1:
            raise ValueError(f"the sweep runs one signal or an (R, n) stack, not a "
                             f"batch of shape {self.batch}")
        if np.shape(hp.b) != self.batch or hp.A.shape[:-3] != self.batch:
            raise ValueError(f"hyperparameters do not match the data's batch {self.batch}")
        self.tree = tree
        self.noise = noise
        self.hp = hp

        self.level_sizes = np.array([d.shape[-1] for d in tree.details])
        self.level_starts = np.concatenate([[0], np.cumsum(self.level_sizes)[:-1]])
        self.n_det = int(self.level_sizes.sum())
        self.n_levels = len(self.level_sizes)
        self.lev_of = np.repeat(np.arange(self.n_levels), self.level_sizes)
        # where each (replicate, level) run of coefficients starts in the
        # flattened (..., n_det) arrays, and where the last one ends
        reps = math.prod(self.batch)
        self.run_edges = np.append(
            (self.n_det * np.arange(reps)[:, None] + self.level_starts).ravel(),
            reps * self.n_det)

        # noise shape per level: its determinant and inverse triple, the
        # inverse also tiled over replicates, like every (..., L) array
        # flattened
        sig = mat2.unpack(noise.sigma)
        self.sig_det = mat2.det(*sig)
        self.isig = mat2.inv(*sig)
        self.isig_tiled = np.tile(self.isig, reps)

        self.A_tri = mat2.from_matrix(hp.A)
        self.set_data(np.concatenate(tree.details, axis=-1))

    def set_data(self, flat_complex):
        """Install new flat detail coefficients, (..., n_det), same structure."""
        if flat_complex.shape != self.batch + (self.n_det,):
            raise ValueError("flat coefficient vector has the wrong length")
        self.d = np.stack([flat_complex.real, flat_complex.imag], axis=-1)
        d1, d2 = self.d[..., 0], self.d[..., 1]
        ia, ib, ic = self.per_coef(np.array(self.isig))
        # Sigma_j^{-1} d, the noise-normalized quadratic form and the data
        # products d1^2, d1 d2, d2^2, reused by the z and theta updates
        self.u1 = ia * d1 + ib * d2
        self.u2 = ib * d1 + ic * d2
        self.qd = d1 * self.u1 + d2 * self.u2
        self.dd = np.array([d1 * d1, d1 * d2, d2 * d2])

    def set_C(self, state, C):
        """Install slab covariances C (..., L, 3) and their inverse triple."""
        state.C = C
        state.C_inv = mat2.inv(*mat2.unpack(C))

    def per_coef(self, x):
        """Per-level values (..., L) repeated over each level's coefficients."""
        return x.repeat(self.level_sizes, axis=-1)

    def active(self, z):
        """The coefficients where z = 1, as (flat, counts).

        ``flat`` holds their positions in the flattened (..., n_det)
        arrays in C order, so they come replicate by replicate and, in
        each, level by level; ``counts`` (..., L) holds how many of them
        each level has.
        """
        flat = z.ravel().nonzero()[0]
        runs = flat.searchsorted(self.run_edges)
        return flat, (runs[1:] - runs[:-1]).reshape(self.batch + (self.n_levels,))

    def per_active(self, x, counts):
        """Per-level rows x (m, ..., L) repeated over the active ones: (m, k)."""
        return x.reshape(len(x), -1).repeat(counts.ravel(), axis=-1)

    def level_sums(self, x, counts):
        """Per-level sums (m, ..., L) of the rows x (m, k) at the active ones.

        Each level's run is reduced on its own, so a
        replicate's sums do not depend on the others in a batch.
        """
        counts = counts.ravel()
        ends = counts.cumsum()
        filled = counts > 0
        starts = (ends - counts)[filled]
        out = np.zeros((len(x), counts.size))
        for row, sums in zip(x, out):
            sums[filled] = np.add.reduceat(row, starts)
        return out.reshape((len(x),) + self.batch + (self.n_levels,))

    def residual_quadform(self, state):
        """sum_jk (d - theta)' Sigma_j^{-1} (d - theta), the sigma2 statistic.

        theta is zero where z = 0, so there each term is the data's own
        form ``qd``; the residual form is computed only where z = 1.
        """
        flat, counts = self.active(state.z)
        r = (self.d.reshape(-1, 2).take(flat, axis=0)
             - state.theta.reshape(-1, 2).take(flat, axis=0))
        form = self.qd.copy()
        form.reshape(-1)[flat] = mat2.quad(*self.per_active(self.isig_tiled, counts),
                                           r[:, 0], r[:, 1])
        return form.sum(axis=-1)

    def detail_tree(self, theta):
        """Copy of the data tree with details replaced by theta (..., n_det, 2)."""
        flat = theta[..., 0] + 1j * theta[..., 1]
        return CoeffTree(n=self.tree.n, j0=self.tree.j0, approx=self.tree.approx.copy(),
                         details=np.split(flat, self.level_starts[1:], axis=-1))


def init_state(model):
    """Starting point: active coefficients at the data, priors at their means."""
    hp = model.hp
    C0 = model.A_tri / (hp.w - 3.0)
    per_coef = model.batch + (model.n_det,)
    state = ChainState(
        sigma2=1.0 / (hp.b * (hp.a - 1.0)),
        z=np.ones(per_coef, dtype=bool),
        eps=np.full(model.batch + (model.n_levels,), 0.5),
        theta=model.d.copy(),
        v=np.full(per_coef, _V_SHAPE * _V_SCALE),
        C=None,
    )
    model.set_C(state, C0.copy())
    return state


# ---------------------------------------------------------------------------
# the six full-conditional updates
#
# ``rng`` is one Generator for a single chain, or a sequence of them (one
# per replicate) for a batched model, or the sweep's Variates.


def _variates(rng, model, steps):
    """``rng`` if it already holds blocks, else fresh blocks for the updates ``steps``.

    Per replicate, each update takes the listed uniforms, normals and
    gamma draws (one normal and one uniform of the counts per gamma's
    first candidate) for n coefficients on L levels; none depends on z.
    theta takes none: it draws its normals straight from the generators
    (see :func:`update_theta`).  The spare tail of 8 + 1/16 of the gamma
    draws backs the Marsaglia-Tsang rejections, under 5 % even at shape 1.
    """
    if isinstance(rng, Variates):
        return rng
    n, L = model.n_det, model.n_levels
    counts = {
        "sigma2": (1, 1, 1),
        "z/eps": (n + 2 * L, 2 * L, 2 * L),
        "theta": (0, 0, 0),
        "v": (n, n, 0),
        "C": (2 * L, 3 * L, 2 * L),
    }
    n_u, n_g, n_gamma = (sum(col) for col in zip(*(counts[s] for s in steps)))
    return Variates.draw(rng, n_u, n_g, spare=8 + n_gamma // 16)


def update_sigma2(state, model, rng):
    """sigma2 | rest ~ IG(a + n_det, [1/b + R/2]^{-1}) with R the residual form."""
    hp = model.hp
    rate = 1.0 / hp.b + 0.5 * model.residual_quadform(state)
    g = _gamma(hp.a + model.n_det, _variates(rng, model, ("sigma2",)), model.batch)
    state.sigma2 = rate / g


def _inclusion_logit(state, model):
    """Log odds of z_jk = 1 given the rest, (..., n_det).

    The slab marginal N2(d; 0, M), M = sigma2 Sigma_j + v_jk C_j, against
    the noise-only density N2(d; 0, S), S = sigma2 Sigma_j, plus the prior
    log odds of eps_j.  Per level, det M / det S is the quadratic
    1 + v (beta + gamma v) in v, with beta = tr(Sigma_j^{-1} C_j)/sigma2
    and gamma = det C_j / det S, so nothing cancels; and d' adj(M) d /
    det S = qd/sigma2 + v d' adj(C_j) d / det S, from the data products
    fixed in :meth:`GibbsModel.set_data`.  An eps of exactly 0 or 1 gives
    log odds of -inf or +inf.
    """
    inv_s2 = 1.0 / np.asarray(state.sigma2)[..., None]
    ia, ib, ic = model.isig
    ca, cb, cc = mat2.unpack(state.C)
    inv_det_s = inv_s2 * inv_s2 / model.sig_det
    with np.errstate(divide="ignore"):
        prior_logit = np.log(state.eps) - np.log1p(-state.eps)
    # per coefficient: adj(C_j)/det S weighing (d1^2, d1 d2, d2^2), then
    # beta, gamma and the prior log odds
    rows = model.per_coef(np.array([
        inv_det_s * cc, -2.0 * inv_det_s * cb, inv_det_s * ca,
        inv_s2 * (ia * ca + 2.0 * ib * cb + ic * cc), inv_det_s * mat2.det(ca, cb, cc),
        prior_logit]))
    beta, gamma, offset = rows[3:]
    v = state.v
    ratio = gamma * v  # det M / det S
    ratio += beta
    ratio *= v
    ratio += 1.0
    qd_s2 = model.qd * inv_s2
    # d' M^{-1} d = (qd/sigma2 + v d' adj(C_j) d / det S) / (det M / det S)
    quad_m = np.einsum("i...,i...->...", rows[:3], model.dd)
    quad_m *= v
    quad_m += qd_s2
    quad_m /= ratio
    # logit = prior logit - (log(det M / det S) + d'M^{-1}d - qd/sigma2)/2
    logit = quad_m
    logit -= qd_s2
    logit += np.log(ratio, out=ratio)
    logit *= -0.5
    logit += offset
    return logit


def update_z_eps(state, model, rng):
    """Flip inclusion indicators from posterior odds, then refresh eps.

    z_jk = 1 where a uniform falls below 1/(1 + exp(-logit)), so neither
    density is exponentiated on its own and an eps of exactly 0 or 1
    forces z (exp(+inf) = inf gives 0, exp(-inf) = 0 gives 1).
    """
    rng = _variates(rng, model, ("z/eps",))
    odds = _inclusion_logit(state, model)
    np.negative(odds, out=odds)
    u = rng.random(model.batch + (model.n_det,))
    with np.errstate(over="ignore"):
        np.exp(odds, out=odds)
    odds += 1.0
    state.z = u < np.reciprocal(odds, out=odds)

    kept = model.active(state.z)[1]
    state.eps = _beta(1.0 + kept, 1.0 + model.level_sizes - kept, rng)


def update_theta(state, model, rng):
    """Point mass at zero where z = 0; precision-weighted binormal where z = 1.

    Only the active coefficients are drawn: replicate r with k_r of them
    takes 2 k_r normals straight from its own generator, one
    ``standard_normal`` call per replicate in replicate order.
    """
    flat, counts = model.active(state.z)
    g = ragged_normal(rng, 2 * counts.sum(axis=-1)).reshape(-1, 2)
    # Sigma_j^{-1}/sigma2, C_j^{-1} and 1/sigma2 at each active coefficient
    inv_s2 = (1.0 / np.asarray(state.sigma2)[..., None]).repeat(model.n_levels, axis=-1)
    isa, isb, isc, ica, icb, icc, w = model.per_active(
        np.array([*(inv_s2 * x for x in model.isig), *state.C_inv, inv_s2]), counts)
    v = state.v.take(flat)
    pa = isa + ica / v
    pb = isb + icb / v
    pc = isc + icc / v
    ta, tb, tc = mat2.inv(pa, pb, pc)
    if not ((ta > 0).all() and (mat2.det(ta, tb, tc) > 0).all()):
        raise SamplerError("posterior covariance of theta lost positive "
                           "definiteness")
    u1, u2 = model.u1.take(flat), model.u2.take(flat)
    mu1 = (ta * u1 + tb * u2) * w
    mu2 = (tb * u1 + tc * u2) * w
    l11, l21, l22 = mat2.chol(ta, tb, tc)
    theta = np.zeros(model.d.shape)
    rows = theta.reshape(-1, 2)
    rows[flat, 0] = mu1 + l11 * g[:, 0]
    rows[flat, 1] = mu2 + l21 * g[:, 0] + l22 * g[:, 1]
    state.theta = theta


def update_v(state, model, rng):
    """Prior reset Ga(3/2, 8) where z = 0; GIG(1/4, theta'C^{-1}theta, 1/2) where z = 1.

    Every coefficient takes one normal and one uniform, used by whichever
    branch it is in, so the draw count does not depend on z.  The slab
    is drawn only where it is used; a vanishing quadratic form (only
    possible through underflow) falls back to the prior branch.
    """
    rng = _variates(rng, model, ("v",))
    shape = model.batch + (model.n_det,)
    g, u = rng.standard_normal(shape), rng.random(shape)
    v = _V_SCALE * _gamma_three_halves(g, u)
    flat, counts = model.active(state.z)
    theta = state.theta.reshape(-1, 2).take(flat, axis=0)
    q = mat2.quad(*model.per_active(np.array(state.C_inv), counts),
                  theta[:, 0], theta[:, 1])
    positive = q > 0.0
    slab = flat[positive]
    v.reshape(-1)[slab] = sample_gig(_GIG_A, q[positive], (g.take(slab), u.take(slab)))
    state.v = v.clip(_V_MIN, _V_MAX, out=v)


def update_C(state, model, rng):
    """C_j | rest ~ IW(A_j + sum_k z theta theta'/v, w + sum_k z), per level.

    The scatter sums and the degrees of freedom run over the active
    coefficients only.
    """
    flat, counts = model.active(state.z)
    theta = state.theta.reshape(-1, 2).take(flat, axis=0)
    t1, t2 = theta[:, 0], theta[:, 1]
    iv = 1.0 / state.v.take(flat)
    A = model.hp.A
    t11, t12, t22 = model.level_sums([iv * t1 * t1, iv * t1 * t2, iv * t2 * t2], counts)
    s11 = A[..., 0, 0] + t11
    s12 = A[..., 0, 1] + t12
    s22 = A[..., 1, 1] + t22
    if not np.all(mat2.is_spd(s11, s12, s22)):
        raise SamplerError("inverse Wishart scale lost positive definiteness")
    dof = model.hp.w + counts
    l11, l21, l22 = mat2.chol(s11, s12, s22)
    c11, c12, c22 = _inv_wishart_chol(l11, l21, l22, dof,
                                      _variates(rng, model, ("C",)))
    model.set_C(state, mat2.pack(c11, c12, c22))


_SWEEP = (
    ("sigma2", update_sigma2),
    ("z/eps", update_z_eps),
    ("theta", update_theta),
    ("v", update_v),
    ("C", update_C),
)


def sweep(state, model, rng):
    """One full Gibbs sweep in the fixed order sigma2, z, eps, theta, v, C."""
    variates = _variates(rng, model, [name for name, _ in _SWEEP])
    for _, step in _SWEEP:
        step(state, model, variates)


# ---------------------------------------------------------------------------
# chain orchestration


def run_chain(model, config, rng):
    """Run the Gibbs sampler on a :class:`GibbsModel`; return post-burn-in running means.

    Deterministic given (model, config) and the generator's seed; a
    numerical failure aborts with the sweep index and the update that
    raised.  Only running sums are kept, so memory is flat in iters.  A
    batched model takes a sequence of generators, one per replicate, and
    every mean gains the leading replicate axis.
    """
    rng = rng if isinstance(rng, np.random.Generator) else tuple(rng)
    if model.batch != (() if isinstance(rng, np.random.Generator) else (len(rng),)):
        raise ValueError("need one generator per replicate of the batch")
    state = init_state(model)
    theta_sum = np.zeros(model.d.shape)
    z_sum = np.zeros(model.batch + (model.n_det,))
    eps_sum = np.zeros(model.batch + (model.n_levels,))
    sigma2_sum = np.zeros(model.batch)
    steps = [name for name, _ in _SWEEP]
    for it in range(config.iters):
        variates = _variates(rng, model, steps)
        for name, step in _SWEEP:
            try:
                step(state, model, variates)
            except Exception as exc:
                raise SamplerError(
                    f"update '{name}' failed at sweep {it}: {exc}"
                ) from exc
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
    )


def denoise(signal, config=SamplerConfig(), rng=None, method="cgsws"):
    """Full pipeline: transform, estimate, reconstruct.

    ``method`` is ``"cgsws"`` (elicit, run the Gibbs chain, take the
    posterior mean) or one of the deterministic baselines ``"cmws-hard"``
    and ``"ceb"``, which shrink at the floored MAD noise variance and
    ignore ``rng``.  Returns the real-valued estimate, the noise variance
    (posterior mean, or the MAD estimate), the posterior summary (None
    for a baseline) and the magnitude of the imaginary part discarded on
    inversion.  ``signal`` is one signal (n,) or an (R, n) stack of R >= 1
    replicates, with ``rng`` a sequence of R generators that defaults to
    ``make_rng(config.seed, r)`` for replicate r: the chain runs the stack
    as one batch, a baseline in chunks of up to ``_BASELINE_CHUNK``
    replicates, each one stacked forward, MAD, shrinkage and inverse.
    Every result then gains a leading replicate axis, and replicate r is
    bitwise the single-signal run of ``signal[r]`` with ``rng[r]``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}'; choose from {list(METHODS)}")
    signal = np.asarray(signal, dtype=float)
    if signal.ndim not in (1, 2) or len(signal) == 0:
        raise ValueError("denoise takes one signal (n,) or a stack (R, n) with R >= 1, "
                         f"not shape {signal.shape}")
    n = signal.shape[-1]
    filters = load_filters(config.wavelet)
    j0 = config.j0 if config.j0 is not None else default_coarsest_level(n)
    noise = noise_scale(n, j0, filters)
    if method != "cgsws":
        shrink = (baselines.cmws_hard if method == "cmws-hard"
                  else baselines.ceb_posterior_mean)
        rows = signal.reshape(-1, n)
        estimate = np.empty(rows.shape)
        imag_residual, sigma2 = np.empty(len(rows)), np.empty(len(rows))
        for lo in range(0, len(rows), _BASELINE_CHUNK):
            chunk = slice(lo, lo + _BASELINE_CHUNK)
            tree = forward(rows[chunk], j0, filters)
            sigma2[chunk] = _sigma2_hat(tree)
            estimate[chunk], imag_residual[chunk] = inverse(
                shrink(tree, sigma2[chunk], noise), filters)
        # [()] turns the 0-d results of one signal into scalars
        batch = signal.shape[:-1]
        return DenoiseResult(estimate=estimate.reshape(signal.shape), summary=None,
                             imag_residual=imag_residual.reshape(batch)[()],
                             sigma2=sigma2.reshape(batch)[()])

    if rng is None:
        rng = (make_rng(config.seed, 0) if signal.ndim == 1
               else [make_rng(config.seed, r) for r in range(len(signal))])
    tree = forward(signal, j0, filters)
    model = GibbsModel(tree, noise, elicit(tree, noise))
    summary = run_chain(model, config, rng)
    estimate, imag_residual = inverse(model.detail_tree(summary.theta_mean), filters)
    return DenoiseResult(estimate=estimate, summary=summary,
                         imag_residual=imag_residual, sigma2=summary.sigma2_mean)
