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
in order: z, eps, theta, v, C, sigma2; like any fixed scan order, it
leaves the posterior invariant.  Every update is vectorized across
detail coefficients (or levels), with symmetric 2x2 matrices carried as
(a, b, c) component triples; a full sweep costs a fixed number of numpy
passes regardless of the number of levels.  Work whose result depends
on a coefficient only where z = 1 runs over the active coefficients
alone: the theta draw, the residual form of the sigma2 statistic, the
GIG draws of v and the scatter sums of C.  Each update reads what the
earlier ones of its sweep recorded on the sweep's draws: z/eps finds
the active set once, theta records its draws there and C^{-1} there,
and v its draws there.  Once z is drawn, the shape of every gamma the
sweep needs is known (eps's Beta pairs, C's Bartlett chi-squares and
sigma2's inverse gamma), so the z/eps update draws all of them in one
call and records C's and sigma2's.  The z and v updates draw at every
coefficient.

The chain starts (:func:`init_state`) from the keep-or-kill estimate
taken at its starting sigma2, the prior mean: a coefficient starts
active where the model's form d' Sigma_j^{-1} d exceeds 2 log n times
that sigma2.  :class:`GibbsModel` holds that form, so the start reads
the data and the noise shape from the model alone.

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
The generator is then a sequence of R generators, one per replicate;
every entry point raises ``ValueError`` on any other count.  Per sweep,
in replicate order within each step, each generator takes one
``random`` and one ``standard_normal`` call for two raw blocks whose
sizes depend only on (n_det, L), from which every draw but theta's is
built with elementwise transforms over the whole batch, each gamma from
a first and a spare candidate (see
:class:`~cgsws.distributions.Variates`); then, in the z/eps update, one
``standard_normal`` and one ``random`` call of k each per rejection
round of the sweep's one gamma call in which the replicate has k > 0
draws whose first and spare candidates were both rejected, which few
sweeps have; and last, in the theta update, one
``standard_normal`` call of 2 k_r normals, k_r the replicate's active
count.  Replicate r reads only its own blocks and generator, exactly as
its single chain would, and all arithmetic is elementwise or reduces
within one replicate, so each replicate of a batch is bitwise its
single-chain run.  An update called on its own with generators draws
one sweep's blocks and a record filled from the state
(:meth:`_SweepDraws.from_state`).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import baselines, mat2
from .distributions import (
    Variates,
    _bartlett_shapes,
    _beta_from_gammas,
    _gamma,
    _gamma_three_halves,
    _inv_wishart_chol,
    _positive_finite,
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
    "unit_scale",
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

# the MAD noise variance of a constant signal is zero; this keeps it positive
_SIGMA2_FLOOR = 1e-20

# the Gibbs smoother and the two deterministic baselines of baselines.py
METHODS = ("cgsws", "cmws-hard", "ceb")

# replicates per stacked baseline pass: each polyphase step has a fixed
# cost whatever its size, which a chunk pays once, while a whole share in
# one pass would hold all its coefficient trees at once
_BASELINE_CHUNK = 8


class SamplerError(RuntimeError):
    """Numerical failure inside a Gibbs update."""


def _check_integer_fields(config, *names):
    """Raise ValueError naming the first field that is not a (numpy) integer, or a negative seed."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, not {value!r}")
    if config.seed < 0:
        raise ValueError(f"seed must be non-negative, not {config.seed}")


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

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim < 3 or A.shape[-2:] != (2, 2):
            raise ValueError("A must stack per-level 2x2 matrices as (L, 2, 2)")
        object.__setattr__(self, "A", A)
        if not 1 < self.a < np.inf:
            raise ValueError("inverse gamma shape a must be finite and exceed 1")
        if not _positive_finite(self.b):
            raise ValueError("inverse gamma scale b must be positive and finite")
        if not 3 < self.w < np.inf:
            raise ValueError("inverse Wishart dof w must be finite and exceed 3")
        if not (np.all(np.isfinite(A))
                and np.all(mat2.is_spd(A[..., 0, 0], A[..., 0, 1], A[..., 1, 1]))):
            raise ValueError("every A_j must be finite and symmetric positive definite")

    @property
    def n_levels(self):
        return self.A.shape[-3]


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    """Chain-length and pipeline settings for :func:`run_chain`/:func:`denoise`."""

    iters: int = 10_000
    burnin: int = 5_000
    j0: int | None = None
    seed: int = 0

    def __post_init__(self):
        _check_integer_fields(self, "iters", "burnin", "seed",
                              *(() if self.j0 is None else ("j0",)))
        if not (self.iters > self.burnin >= 0):
            raise ValueError("need iters > burnin >= 0")


@dataclasses.dataclass
class ChainState:
    """Current values of all sampled parameters.

    Per-coefficient arrays are flat over all detail levels, coarse level
    first; ``C`` holds per-level symmetric triples (c11, c12, c22) and
    ``C_inv`` the triple of their inverses, component first.  Write ``C``
    through :meth:`GibbsModel.set_C`, which refreshes ``C_inv`` with it.
    A batched chain puts its replicate axis in front of every other axis.
    """

    sigma2: float      # () or (R,)
    z: np.ndarray      # (..., n_det) bool
    eps: np.ndarray    # (..., L)
    theta: np.ndarray  # (..., n_det, 2)
    v: np.ndarray      # (..., n_det)
    C: np.ndarray      # (..., L, 3)
    C_inv: np.ndarray = None  # (3, ..., L)


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
    s_re, s_im = _mad_scales(tree)
    return s_re * s_re + s_im * s_im


def _mad_scales(tree):
    """The MAD/0.6745 scale estimates of the finest level's real and imaginary parts."""
    finest = np.asarray(tree.details[-1])
    if finest.shape[-1] < 2:
        raise ValueError("finest detail level needs at least 2 coefficients")
    return _mad(finest.real) / 0.6745, _mad(finest.imag) / 0.6745


def _mad(x):
    """Median absolute deviation from the median along the last axis, unscaled."""
    return _median(np.abs(x - _median(x)[..., None]))


def _median(x):
    """``numpy.median(x, axis=-1)``, from one single-index partition.

    ``numpy.median`` partitions at three indices, which takes numpy's
    generic selection; a partition at one index takes its fast path,
    several times faster.  The values are ``numpy.median``'s bit for
    bit, except that a zero median may carry the other sign.
    """
    m = x.shape[-1]
    h = m // 2
    p = np.partition(x, h, axis=-1)
    upper = p[..., h:]
    if m % 2:
        mid = upper[..., 0]
    else:
        mid = (p[..., :h].max(axis=-1) + upper[..., 0]) / 2
    # NaN sorts last, so a row that holds one holds it in its upper part
    return np.where(np.isnan(upper.max(axis=-1)), np.nan, mid)[()]


def unit_scale(tree):
    """The pipeline's scale step: ``(tree / s, s, sigma2_hat)``, one s per signal.

    s = 2^round(log2 sigma_hat), sigma_hat the hypot of the MAD/0.6745
    scales of the finest level's real and imaginary parts, and s = 1
    where sigma_hat is 0; dividing by s is an exact product with 1/s.
    sigma2_hat is the returned tree's MAD noise variance, floored at
    1e-20.  An estimator run on the returned tree, its output times s
    and its variances times s^2, is bitwise equivariant under
    y -> 2^k y.  A noise scale that rounds to 2^511 or more raises
    ``ValueError``, since its variance would not fit a float, and so
    does one that rounds below 2^-1022, since its samples are subnormal
    and have lost the precision the unit-scale tree needs.  A tree that
    holds a NaN or an infinite coefficient raises ``ValueError``.
    """
    if not all(np.isfinite(level).all() for level in (tree.approx, *tree.details)):
        raise ValueError("the coefficient tree holds non-finite coefficients")
    s_re, s_im = _mad_scales(tree)
    with np.errstate(divide="ignore"):
        k = np.round(np.log2(np.hypot(s_re, s_im)))
    if not np.all(k < 511):
        raise ValueError("the MAD noise variance estimate overflows the float range; "
                         "rescale the signal")
    if np.any((k < -1022) & (k > -np.inf)):
        raise ValueError("the MAD noise scale estimate is below the normal float range "
                         "(2^-1022); rescale the signal")
    k = np.where(k > -np.inf, k, 0.0).astype(int)
    s, inv_s = np.ldexp(1.0, k), np.ldexp(1.0, -k)
    s_re, s_im = s_re * inv_s, s_im * inv_s
    inv_s = inv_s[..., None]
    unit = CoeffTree(n=tree.n, j0=tree.j0, approx=tree.approx * inv_s,
                     details=[level * inv_s for level in tree.details])
    return unit, s, np.maximum(s_re * s_re + s_im * s_im, _SIGMA2_FLOOR)


def estimate_Cj(tree, sigma2_hat, noise):
    """Method-of-moments slab covariances, one 2x2 matrix per level: (..., L, 2, 2).

    Subtracts the noise share sigma2_hat * Sigma_j from each level's
    sample covariance; a result that is not positive definite is pushed
    onto the SPD cone by ``baselines._moment_slab``, whose absolute floor
    assumes the unit noise scale of a tree from :func:`unit_scale`.  A
    stacked tree takes one sigma2_hat per signal.
    """
    s2 = np.asarray(sigma2_hat)[..., None, None]
    out = []
    for j, level in zip(tree.levels, tree.details):
        coef = np.asarray(level)
        m = coef.shape[-1]
        if m < 3:
            raise ValueError(
                f"level {j} has {m} coefficients; need >= 3 for a sample covariance")
        out.append(baselines._moment_slab(coef, s2 * noise.matrix(j)))
    return np.stack(out, axis=-3)


def elicit(tree, noise):
    """Data-driven hyperparameters: a = 2, b = 1/sigma2_hat, A_j = (w-3) C_hat_j, w = 10.

    The IG prior mean then equals the MAD estimate, floored so a constant
    signal keeps a positive scale, and the IW prior mean equals the
    moment estimate of each slab covariance.  A stacked tree gives ``b``
    as (R,) and ``A`` as (R, L, 2, 2).
    """
    sigma2_hat = np.maximum(estimate_sigma2_mad(tree), _SIGMA2_FLOOR)
    C_hat = estimate_Cj(tree, sigma2_hat, noise)
    return Hyperparams(a=2.0, b=1.0 / sigma2_hat, w=_ELICIT_W,
                       A=(_ELICIT_W - 3.0) * C_hat)


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
        if not (tree.n == noise.n and tree.j0 == noise.j0):
            raise ValueError("data and noise scale disagree on (n, j0)")
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
        self.eps_base = np.stack([np.ones(self.n_levels), 1.0 + self.level_sizes], axis=-1)
        # where each (replicate, level) run of coefficients starts in the
        # flattened (..., n_det) arrays, and where the last one ends
        reps = math.prod(self.batch)
        self.run_edges = np.append(
            (self.n_det * np.arange(reps)[:, None] + self.level_starts).ravel(),
            reps * self.n_det)

        # noise shape per level: its determinant and inverse triple, the
        # inverse also tiled over replicates, like every (..., L) array
        # flattened, and repeated over each level's coefficients
        sig = mat2.unpack(noise.sigma)
        self.sig_det = mat2.det(*sig)
        self.isig = mat2.inv(*sig)
        self.isig_tiled = np.tile(self.isig, reps)
        self.isig_coef = self.per_coef(np.array(self.isig))
        # per-level triples component first, (3, ..., L): the inverse
        # Wishart prior scales A_j, and Sigma_j^{-1} and the weights
        # (1, 2, 1) Sigma_j^{-1} of tr(Sigma_j^{-1} C_j), broadcasting over
        # the batch; C's axes in that order; and the per-level tables of
        # the z and theta updates, filled anew in each sweep
        A, lead = hp.A, (1,) * len(self.batch)
        self.A_rows = np.array([A[..., 0, 0], A[..., 0, 1], A[..., 1, 1]])
        ia, ib, ic = self.isig
        self.isig_rows = np.array(self.isig).reshape((3,) + lead + (-1,))
        self.trace_weights = np.array([ia, 2.0 * ib, ic]).reshape(self.isig_rows.shape)
        self.C_axes = (len(self.batch) + 1,) + tuple(range(len(self.batch) + 1))
        self.logit_table = np.empty((6,) + self.batch + (len(self.level_sizes),))
        self.theta_table = np.empty((7,) + self.batch + (len(self.level_sizes),))

        # per replicate, the (uniforms, normals) of a sweep's two blocks; no
        # count depends on z.  z/eps takes n uniforms and the candidates of
        # all 4L + 1 gammas, two each of a normal and a uniform; v takes n
        # of each and C its L normals
        n, L = self.n_det, self.n_levels
        self.block_sizes = (2 * n + 8 * L + 2, n + 9 * L + 2)

        self.set_data(np.concatenate(tree.details, axis=-1))

    def set_data(self, flat_complex):
        """Install new flat detail coefficients, (..., n_det), same structure."""
        if flat_complex.shape != self.batch + (self.n_det,):
            raise ValueError("flat coefficient vector has the wrong length")
        self.d = np.stack([flat_complex.real, flat_complex.imag], axis=-1)
        d1, d2 = self.d[..., 0], self.d[..., 1]
        self.d_rows = np.array([d1.ravel(), d2.ravel()])  # each flattened over the batch
        ia, ib, ic = self.isig_coef
        # Sigma_j^{-1} d as (2, ..., n_det), the noise-normalized quadratic
        # form and the data products d1^2, d1 d2, d2^2, reused by the z and
        # theta updates
        self.u = np.array([ia * d1 + ib * d2, ib * d1 + ic * d2])
        self.qd = d1 * self.u[0] + d2 * self.u[1]
        self.dd = np.array([d1 * d1, d1 * d2, d2 * d2])

    def set_C(self, state, C):
        """Install slab covariances C (..., L, 3) and their inverse triple (3, ..., L)."""
        state.C, state.C_inv = C, mat2.inv_rows(C.transpose(self.C_axes))

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
        filled = counts.nonzero()[0]
        out = np.zeros((len(x), counts.size))
        out[:, filled] = np.add.reduceat(x, (counts.cumsum() - counts)[filled], axis=1)
        return out.reshape((len(x),) + self.batch + (self.n_levels,))

    def residual_quadform(self, active, theta):
        """sum_jk (d - theta)' Sigma_j^{-1} (d - theta), the sigma2 statistic.

        theta is zero where z = 0, so there each term is the data's own
        form ``qd``; the residual form is computed only where z = 1, at
        the active set ``active`` = (flat, counts) of :meth:`active`, from
        theta's two components there, ``theta`` (2, k).
        """
        flat, counts = active
        r = self.d_rows.take(flat, axis=1) - theta
        form = self.qd.copy()
        form.reshape(-1)[flat] = mat2.quad(*self.per_active(self.isig_tiled, counts), *r)
        return form.sum(axis=-1)

    def detail_tree(self, theta):
        """Copy of the data tree with details replaced by theta (..., n_det, 2)."""
        flat = theta[..., 0] + 1j * theta[..., 1]
        return CoeffTree(n=self.tree.n, j0=self.tree.j0, approx=self.tree.approx.copy(),
                         details=np.split(flat, self.level_starts[1:], axis=-1))


def init_state(model):
    """Starting point: the keep-or-kill estimate, other parameters at their prior means.

    sigma2, v and C start at their prior means.  z starts at the keep set
    taken at that starting sigma2, the coefficients whose form
    d' Sigma_j^{-1} d, the model's ``qd``, exceeds 2 log n * sigma2; under
    the prior of :func:`elicit` the starting sigma2 is its floored MAD
    estimate, so this is the keep set of ``baselines.cmws_hard``.  theta
    starts at the data where z = 1 and at zero elsewhere, and eps_j at
    (1 + k_j)/(2 + n_j) for k_j of level j's n_j coefficients kept.
    """
    hp = model.hp
    sigma2 = 1.0 / (hp.b * (hp.a - 1.0))
    z = model.qd > 2.0 * math.log(model.tree.n) * np.asarray(sigma2)[..., None]
    kept = model.active(z)[1]
    state = ChainState(
        sigma2=sigma2,
        z=z,
        eps=(1.0 + kept) / (2.0 + model.level_sizes),
        theta=np.where(z[..., None], model.d, 0.0),
        v=np.full(model.batch + (model.n_det,), _V_SHAPE * _V_SCALE),
        C=None,
    )
    model.set_C(state, mat2.from_matrix(hp.A) / (hp.w - 3.0))
    return state


# ---------------------------------------------------------------------------
# the six full-conditional updates
#
# ``rng`` is one Generator for a single chain, or a sequence of them (one
# per replicate) for a batched model, or the sweep's _SweepDraws.


class _SweepDraws(Variates):
    """One sweep's blocks, and the record its updates read and write.

    The z/eps update records the active set ``active`` = (flat, counts)
    of the z it drew, and the gammas it drew with eps's for C's Bartlett
    chi-squares, ``C_gammas`` (..., L, 2), and for sigma2,
    ``sigma2_gamma``; theta records its draws at the active
    coefficients, ``theta`` (2, k), and the C^{-1} triple it gathered
    there, ``c_inv``; v records its clipped draws there, ``v``.  Each
    update reads the fields the earlier updates of its sweep recorded.
    One of these is drawn per sweep, so nothing recorded outlives it; an
    update called on its own gets one from :meth:`from_state`.
    """

    @classmethod
    def from_state(cls, rng, state, model):
        """A lone update's draws: one sweep's blocks, and the record filled from ``state``.

        The record holds the active set of ``state.z``, theta, C^{-1} and
        v there, and C's and sigma2's gammas at the shapes that active set
        gives, drawn by the sweep's own gamma call (:func:`_sweep_gammas`)
        from candidates ahead of the sweep's blocks, which it leaves whole
        for the update.
        """
        # two candidates, each a normal and a uniform, for each of 4L + 1 gammas
        ahead = 2 * (4 * model.n_levels + 1)
        self = cls.draw(rng, *(size + ahead for size in model.block_sizes))
        self.active = flat, counts = model.active(state.z)
        self.theta = state.theta.reshape(-1, 2).take(flat, axis=0).T
        self.c_inv = model.per_active(state.C_inv, counts)
        self.v = state.v.take(flat)
        _, self.C_gammas, self.sigma2_gamma = _sweep_gammas(model, counts, self)
        return self


def _check_generators(rng, model):
    """Raise unless ``rng`` holds one generator per replicate of the model's batch."""
    batch = () if isinstance(rng, np.random.Generator) else (len(rng),)
    if batch != model.batch:
        raise ValueError("need one generator per replicate of the batch")


def _variates(rng, state, model):
    """``rng`` if it is a sweep's draws, else, its generators checked, a lone update's.

    A lone update's draws come from :meth:`_SweepDraws.from_state`.
    """
    if isinstance(rng, _SweepDraws):
        return rng
    _check_generators(rng, model)
    return _SweepDraws.from_state(rng, state, model)


def _all_positive(x):
    """Whether every entry of x exceeds 0, by one reduction; NaN does not, empty x does."""
    return x.min(initial=math.inf) > 0.0


def _sigma2_shape(model):
    """sigma2's inverse gamma shape a + n_det."""
    return model.hp.a + model.n_det


# eps_j's Beta shapes (1 + k_j, 1 + n_j - k_j) are (1, 1 + n_j) + k_j (1, -1)
_EPS_SIGNS = np.array([1.0, -1.0])


def _eps_shapes(model, kept):
    """eps_j's Beta(1 + k_j, 1 + n_j - k_j) shapes, (..., L, 2), k_j of n_j active."""
    shapes = kept[..., None] * _EPS_SIGNS
    shapes += model.eps_base
    return shapes


def _C_shapes(model, kept):
    """The shapes (w + k_j)/2 and (w + k_j - 1)/2 of C_j's Bartlett gammas: (..., L, 2)."""
    return _bartlett_shapes(model.hp.w + kept)


def _sweep_gammas(model, kept, rng):
    """A sweep's 4L + 1 gammas, given the active counts ``kept`` (..., L), in one call.

    Returns eps's Beta pairs and C's Bartlett pairs, each (..., L, 2),
    and sigma2's gamma.
    """
    L = model.n_levels
    shapes = np.empty(model.batch + (4 * L + 1,))
    pair_shapes = shapes[..., :-1].reshape(model.batch + (2 * L, 2))  # a view
    pair_shapes[..., :L, :] = _eps_shapes(model, kept)
    pair_shapes[..., L:, :] = _C_shapes(model, kept)
    shapes[..., -1] = _sigma2_shape(model)
    g = _gamma(shapes, rng)
    pairs = g[..., :-1].reshape(pair_shapes.shape)
    return pairs[..., :L, :], pairs[..., L:, :], g[..., -1]


def update_sigma2(state, model, rng):
    """sigma2 | rest ~ IG(a + n_det, [1/b + R/2]^{-1}) with R the residual form.

    Last in a sweep, it takes the active set, theta's draws there and its
    gamma from the sweep's record.
    """
    rng = _variates(rng, state, model)
    rate = 1.0 / model.hp.b + 0.5 * model.residual_quadform(rng.active, rng.theta)
    state.sigma2 = rate / rng.sigma2_gamma


def _inclusion_logit(state, model):
    """Log odds of z_jk = 1 given the rest, (..., n_det).

    The slab marginal N2(d; 0, M), M = sigma2 Sigma_j + v_jk C_j, against
    the noise-only density N2(d; 0, S), S = sigma2 Sigma_j, plus the prior
    log odds of eps_j.  Per level, det M / det S is the quadratic
    1 + v (beta + gamma v) in v, with beta = tr(Sigma_j^{-1} C_j)/sigma2
    and gamma = det C_j / det S, so nothing cancels; and d' adj(M) d /
    det S = qd/sigma2 + v d' adj(C_j) d / det S, from the data products
    fixed in :meth:`GibbsModel.set_data`.  An eps of exactly 0 or 1 gives
    log odds of -inf or +inf, with numpy's divide warning, which
    :func:`update_z_eps` silences.
    """
    inv_s2 = 1.0 / np.asarray(state.sigma2)[..., None]
    c = state.C.transpose(model.C_axes)  # (c11, c12, c22), (3, ..., L)
    inv_det_s = inv_s2 * inv_s2 / model.sig_det
    # per level: adj(C_j)/det S weighing (d1^2, d1 d2, d2^2), then beta,
    # gamma and the prior log odds; then per coefficient
    table = model.logit_table
    np.multiply(inv_det_s, c[::-1], out=table[:3])
    np.multiply(-2.0 * inv_det_s, c[1], out=table[1])
    trace = model.trace_weights * c
    np.add(trace[0], trace[1], out=table[3])
    table[3] += trace[2]
    table[3] *= inv_s2
    np.multiply(inv_det_s, mat2.det(*c), out=table[4])
    np.log(state.eps, out=table[5])
    table[5] -= np.log1p(-state.eps)
    rows = model.per_coef(table)
    beta, gamma, offset = rows[3:]
    v = state.v
    ratio = gamma * v  # det M / det S
    ratio += beta
    ratio *= v
    ratio += 1.0
    qd_s2 = model.qd * inv_s2
    # d' M^{-1} d = (qd/sigma2 + v d' adj(C_j) d / det S) / (det M / det S)
    terms = rows[:3] * model.dd
    quad_m = np.add(terms[0], terms[1], out=terms[0])
    quad_m += terms[2]
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
    forces z (exp(+inf) = inf gives 0, exp(-inf) = 0 gives 1).  Once z
    is drawn, the shapes of every gamma of the sweep are known: eps's
    Beta pairs, C's Bartlett pairs and sigma2's.  All 4L + 1 are drawn
    in one call, eps is built from its pairs, and the rest are recorded
    for C and sigma2.
    """
    rng = _variates(rng, state, model)
    with np.errstate(divide="ignore", over="ignore"):
        odds = _inclusion_logit(state, model)
        np.negative(odds, out=odds)
        np.exp(odds, out=odds)
    u = rng.random(model.batch + (model.n_det,))
    odds += 1.0
    state.z = u < np.reciprocal(odds, out=odds)

    rng.active = model.active(state.z)
    eps_pairs, rng.C_gammas, rng.sigma2_gamma = _sweep_gammas(model, rng.active[1], rng)
    state.eps = _beta_from_gammas(eps_pairs)


def update_theta(state, model, rng):
    """Point mass at zero where z = 0; precision-weighted binormal where z = 1.

    Only the active coefficients are drawn: replicate r with k_r of them
    takes 2 k_r normals straight from its own generator, one
    ``standard_normal`` call per replicate in replicate order.
    """
    rng = _variates(rng, state, model)
    flat, counts = rng.active
    g = ragged_normal(rng, 2 * counts.sum(axis=-1)).reshape(-1, 2)
    # Sigma_j^{-1}/sigma2, C_j^{-1} and 1/sigma2 per level, then at each
    # active coefficient
    inv_s2 = 1.0 / np.asarray(state.sigma2)[..., None]
    table = model.theta_table
    np.multiply(model.isig_rows, inv_s2, out=table[:3])
    table[3:6] = state.C_inv
    table[6] = inv_s2
    rows = model.per_active(table, counts)
    # the precision Sigma_j^{-1}/sigma2 + C_j^{-1}/v and its inverse, the
    # covariance
    prec = rows[3:6] / state.v.take(flat)
    prec += rows[:3]
    ta, tb, tc = cov = mat2.inv_rows(prec)
    if not _all_positive(np.minimum(ta, mat2.det(ta, tb, tc))):
        raise SamplerError("posterior covariance of theta lost positive "
                           "definiteness")
    # the mean cov Sigma_j^{-1} d / sigma2 and a binormal draw around it
    u = model.u.reshape(2, -1).take(flat, axis=1)
    theta = cov[:2] * u[0]
    theta += cov[1:] * u[1]
    theta *= rows[6]
    l11, l21, l22 = mat2.chol(ta, tb, tc)
    theta[0] += l11 * g[:, 0]
    theta[1] += l21 * g[:, 0]
    theta[1] += l22 * g[:, 1]
    state.theta = np.zeros(model.d.shape)
    pairs = state.theta.reshape(-1, 2)
    pairs[flat, 0], pairs[flat, 1] = theta
    rng.theta, rng.c_inv = theta, rows[3:6]


def _clip_v(v):
    """Clip latent scales to [_V_MIN, _V_MAX] in place, by two ufuncs; NaN stays NaN."""
    np.maximum(v, _V_MIN, out=v)
    return np.minimum(v, _V_MAX, out=v)


def update_v(state, model, rng):
    """Prior reset Ga(3/2, 8) where z = 0; GIG(1/4, theta'C^{-1}theta, 1/2) where z = 1.

    Every coefficient takes one normal and one uniform, used by whichever
    branch it is in, so the draw count does not depend on z.  The slab
    is drawn only where it is used.  A vanishing quadratic form, which
    only underflow of theta can give, makes the GIG draw raise
    ``ValueError``; :func:`denoise` runs at unit noise scale, where it
    cannot arise.
    """
    rng = _variates(rng, state, model)
    shape = model.batch + (model.n_det,)
    g, u = rng.standard_normal(shape), rng.random(shape)
    v = _gamma_three_halves(g, u)
    v *= _V_SCALE
    _clip_v(v)
    flat = rng.active[0]
    q = mat2.quad(*rng.c_inv, *rng.theta)
    rng.v = _clip_v(sample_gig(_GIG_A, q, (g.take(flat), u.take(flat))))
    v.reshape(-1)[flat] = rng.v
    state.v = v


def _C_prior_scale(model):
    """The inverse Wishart prior scales A_j as a component triple, (3, ..., L)."""
    return model.A_rows


def update_C(state, model, rng):
    """C_j | rest ~ IW(A_j + sum_k z theta theta'/v, w + sum_k z), per level.

    The scatter sums and the degrees of freedom run over the active
    coefficients only.  The Bartlett gammas come from the z/eps update's
    record.
    """
    rng = _variates(rng, state, model)
    counts, theta = rng.active[1], rng.theta
    # theta theta'/v as the rows (t1 t1, t1 t2, t2 t2)/v, from theta/v
    scaled = theta * (1.0 / rng.v)
    outer = np.empty((3, theta.shape[1]))
    np.multiply(scaled[0], theta, out=outer[:2])
    np.multiply(scaled[1], theta[1], out=outer[2])
    scale = model.level_sums(outer, counts)
    scale += _C_prior_scale(model)
    if not _all_positive(np.minimum(scale[0], mat2.det(*scale))):
        raise SamplerError("inverse Wishart scale lost positive definiteness")
    model.set_C(state, _inv_wishart_chol(*mat2.chol(*scale), rng.C_gammas, rng))


_SWEEP = (
    ("z/eps", update_z_eps),
    ("theta", update_theta),
    ("v", update_v),
    ("C", update_C),
    ("sigma2", update_sigma2),
)


def sweep(state, model, rng):
    """One full Gibbs sweep in the fixed order z, eps, theta, v, C, sigma2.

    Like any fixed scan order, it leaves the posterior invariant.  Each
    replicate's generator gives the sweep's two blocks, then the
    rejection rounds of its one gamma call, then theta's normals.
    """
    _check_generators(rng, model)
    variates = _SweepDraws.draw(rng, *model.block_sizes)
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
    _check_generators(rng, model)
    state = init_state(model)
    theta_sum = np.zeros(model.d.shape)
    z_sum = np.zeros(model.batch + (model.n_det,))
    eps_sum = np.zeros(model.batch + (model.n_levels,))
    sigma2_sum = np.zeros(model.batch)
    for it in range(config.iters):
        variates = _SweepDraws.draw(rng, *model.block_sizes)
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
    inversion.  ``signal`` is one signal (n,) or an (R, n) stack of
    R >= 1 replicates, with ``rng`` a sequence of R generators that
    defaults to ``make_rng(config.seed, r)`` for replicate r.  Every
    method runs one loop over chunks of the input: forward, the tree
    :func:`unit_scale` gives, the estimator, inverse, then the estimate,
    residual and ``theta_mean`` times the chunk's s (variances times
    s^2), so ``denoise(2**k * y)`` is bitwise ``2**k * denoise(y)``.
    The chain's chunk is the whole input, run as one batch; a baseline's
    chunks are stacks of up to ``_BASELINE_CHUNK`` replicates.  A stack
    gives every result a leading replicate axis, and replicate r is
    bitwise the single-signal run of ``signal[r]`` with ``rng[r]``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}'; choose from {list(METHODS)}")
    signal = np.asarray(signal)
    if signal.ndim not in (1, 2) or len(signal) == 0:
        raise ValueError("denoise takes one signal (n,) or a stack (R, n) with R >= 1, "
                         f"not shape {signal.shape}")
    n = signal.shape[-1]
    filters = load_filters()
    j0 = config.j0 if config.j0 is not None else default_coarsest_level(n)
    noise = noise_scale(n, j0, filters)
    if method == "cgsws" and rng is None:
        rng = (make_rng(config.seed, 0) if signal.ndim == 1
               else [make_rng(config.seed, r) for r in range(len(signal))])
    step = len(signal) if method == "cgsws" else _BASELINE_CHUNK
    chunks = ([...] if signal.ndim == 1
              else [slice(lo, lo + step) for lo in range(0, len(signal), step)])
    estimate, summary = np.empty(signal.shape), None
    imag_residual, sigma2 = np.empty(signal.shape[:-1]), np.empty(signal.shape[:-1])
    for chunk in chunks:
        tree, s, sigma2_hat = unit_scale(forward(signal[chunk], j0, filters))
        if method == "cgsws":
            model = GibbsModel(tree, noise, elicit(tree, noise))
            summary = run_chain(model, config, rng)
            tree, sigma2_hat = model.detail_tree(summary.theta_mean), summary.sigma2_mean
            summary = dataclasses.replace(summary, sigma2_mean=sigma2_hat * s * s,
                                          theta_mean=summary.theta_mean * s[..., None, None])
        else:
            shrink = baselines.cmws_hard if method == "cmws-hard" else baselines.ceb_posterior_mean
            tree = shrink(tree, sigma2_hat, noise)
        est, resid = inverse(tree, filters)
        estimate[chunk], imag_residual[chunk] = est * s[..., None], resid * s
        sigma2[chunk] = sigma2_hat * s * s
    # [()] turns the 0-d results of one signal into scalars
    return DenoiseResult(estimate=estimate, summary=summary,
                         imag_residual=imag_residual[()], sigma2=sigma2[()])
