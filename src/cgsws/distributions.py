"""Random-variate generators and densities used by the Gibbs sampler.

Parameter conventions (non-standard ones are deliberate and load-bearing):

* inverse gamma ``IG(shape, scale)`` has density proportional to
  x^(-shape-1) exp(-1/(scale*x)), so its mean is 1/(scale*(shape-1)).
  Note the scale sits in the *denominator* of the exponent; using the
  usual rate convention here would corrupt the noise-variance update.
* ``Ga(shape, scale)`` is the ordinary gamma with mean shape*scale.
* ``GIG(a, b, p)`` has density proportional to x^(p-1) exp(-(a*x+b/x)/2).
* inverse Wishart ``IW(A, dof)`` (2x2 only) has mean A/(dof - 3).

Streams: :func:`make_rng` derives one independent generator per
(seed, stream) pair via ``SeedSequence(seed, spawn_key=(stream,))``; a
fixed pair reproduces an identical variate sequence across runs.  A
:class:`StreamStack` carries one generator per replicate of a batch, so
batched draws reproduce each replicate's single-chain draws exactly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from . import mat2

__all__ = [
    "make_rng",
    "StreamStack",
    "as_streams",
    "streams_where",
    "sample_inv_gamma",
    "sample_gig",
    "sample_inv_wishart",
    "sample_bernoulli",
    "sample_beta",
    "sample_gamma",
    "sample_binormal",
    "loglik_zero",
    "logmarg_signal",
    "inv_gamma_logpdf",
    "gig_logpdf",
]

_LOG_2PI = math.log(2.0 * math.pi)


def make_rng(seed, stream=0):
    """Independent generator for the given master seed and stream id."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.default_rng(ss)


class StreamStack:
    """One generator per replicate, used in place of a Generator for a batch.

    Each method mirrors the Generator method of the same name.  Array
    parameters and ``size`` carry the replicate axis first, and replicate
    r draws its slice from its own generator alone, with the parameters
    and size a single chain would pass; the draws are stacked back along
    the replicate axis.  A batch therefore reproduces every replicate's
    single-chain variates bit for bit, and only the draws themselves loop
    over replicates.

    A view from :meth:`where` draws instead for the true entries of an
    (R, ...) mask, flat in C order: replicate r takes the next
    ``counts[r]`` entries of every array parameter and of ``size``, and
    the draws are concatenated.
    """

    def __init__(self, generators, counts=None):
        self.generators = tuple(generators)
        if not self.generators:
            raise ValueError("a stream stack needs at least one generator")
        self.counts = counts

    def __len__(self):
        return len(self.generators)

    def where(self, mask):
        """View drawing for the true entries of ``mask``, flat in C order."""
        mask = np.asarray(mask)
        counts = np.count_nonzero(mask.reshape(len(self.generators), -1), axis=1)
        return StreamStack(self.generators, counts)

    def _draw(self, method, params, size):
        reps = len(self.generators)
        if self.counts is None:
            lead, cuts, join = reps, None, np.stack
            sizes = [None if size is None else tuple(size)[1:]] * reps
        else:
            lead, join = int(self.counts.sum()), np.concatenate
            cuts = np.cumsum(self.counts)[:-1]
            sizes = [None] * reps if size is None else list(self.counts)
        if size is not None and tuple(np.atleast_1d(size))[:1] != (lead,):
            raise ValueError(f"size {size} does not lead with {lead} draws")
        columns = []
        for p in params:
            if not np.ndim(p):
                columns.append((p,) * reps)
            elif len(p) != lead:
                raise ValueError(f"parameter of shape {np.shape(p)} does not lead "
                                 f"with {lead} draws")
            else:
                columns.append(p if cuts is None else np.split(p, cuts))
        rows = zip(*columns) if columns else [()] * reps
        return join([getattr(g, method)(*args, size=sz)
                     for g, sz, args in zip(self.generators, sizes, rows)])

    def random(self, size=None):
        return self._draw("random", (), size)

    def standard_normal(self, size=None):
        return self._draw("standard_normal", (), size)

    def beta(self, a, b, size=None):
        return self._draw("beta", (a, b), size)

    def gamma(self, shape, scale=1.0, size=None):
        return self._draw("gamma", (shape, scale), size)

    def chisquare(self, df, size=None):
        return self._draw("chisquare", (df,), size)

    def wald(self, mean, scale, size=None):
        return self._draw("wald", (mean, scale), size)


def as_streams(rng):
    """A Generator or StreamStack as given; a sequence of Generators stacked."""
    if isinstance(rng, (np.random.Generator, StreamStack)):
        return rng
    return StreamStack(rng)


def streams_where(rng, mask):
    """Generator(s) drawing for the true entries of ``mask``, flat in C order.

    A single Generator draws them as they come; a StreamStack gives each
    replicate's entries to that replicate's generator.
    """
    return rng.where(mask) if isinstance(rng, StreamStack) else rng


# ---------------------------------------------------------------------------
# scalar-family samplers


def sample_inv_gamma(shape, scale, rng, size=None):
    """Draw from IG(shape, scale); the reciprocal is Ga(shape, scale)."""
    if shape <= 0 or np.asarray(scale).min() <= 0:
        raise ValueError("inverse gamma requires shape > 0 and scale > 0")
    return 1.0 / rng.gamma(shape, scale, size=size)


def sample_gamma(shape, scale, rng, size=None):
    if shape <= 0 or scale <= 0:
        raise ValueError("gamma requires shape > 0 and scale > 0")
    return rng.gamma(shape, scale, size=size)


def sample_beta(a, b, rng, size=None):
    if a <= 0 or b <= 0:
        raise ValueError("beta requires positive parameters")
    return rng.beta(a, b, size=size)


def sample_bernoulli(p, rng, size=None):
    p = np.asarray(p)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("Bernoulli probability outside [0, 1]")
    return (rng.random(size=size if size is not None else p.shape or None) < p).astype(
        np.uint8
    )


def sample_binormal(mean, cov, rng, size=None):
    """Bivariate normal draws with the given mean and SPD covariance."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if mean.shape != (2,) or cov.shape != (2, 2):
        raise ValueError("mean must be a 2-vector and cov a 2x2 matrix")
    a, b, c = cov[0, 0], cov[0, 1], cov[1, 1]
    if not (a > 0 and a * c - b * b > 0):
        raise ValueError("covariance is not symmetric positive definite")
    l11, l21, l22 = mat2.chol(a, b, c)
    z = rng.standard_normal((2,) if size is None else (size, 2))
    x1 = mean[0] + l11 * z[..., 0]
    x2 = mean[1] + l21 * z[..., 0] + l22 * z[..., 1]
    return np.stack([x1, x2], axis=-1)


# ---------------------------------------------------------------------------
# generalized inverse Gaussian


def sample_gig(a, b, p, rng, size=None):
    """Draw from GIG(a, b, p) for the sampler's operating indices p = +/-1/2.

    Both go exactly through the inverse-Gaussian transformation and
    accept array-valued ``a``/``b``; any other index raises ValueError.
    """
    if p not in (-0.5, 0.5):
        raise ValueError(f"GIG sampling supports only p = +/-1/2, not {p}")
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if np.any(a_arr <= 0) or np.any(b_arr <= 0):
        raise ValueError("GIG requires a > 0 and b > 0")
    if p == -0.5:
        # matches the inverse Gaussian with mean sqrt(b/a) and shape b
        return rng.wald(np.sqrt(b_arr / a_arr), b_arr, size=size)
    # reciprocal of GIG(b, a, -1/2)
    return 1.0 / rng.wald(np.sqrt(a_arr / b_arr), a_arr, size=size)


# ---------------------------------------------------------------------------
# inverse Wishart (2x2)


def _inv_wishart_chol(l11, l21, l22, dof, rng):
    """IW draws as component triples, given Cholesky triples of the scale.

    All arguments broadcast; one draw per element of ``dof``.  Uses the
    Bartlett construction for Wishart(dof, scale^-1) and inverts in
    closed form.
    """
    dof = np.asarray(dof, dtype=float)
    c1sq = rng.chisquare(dof)
    c2sq = rng.chisquare(dof - 1.0)
    z = rng.standard_normal(dof.shape if dof.shape else None)
    w11 = c1sq
    w12 = np.sqrt(c1sq) * z
    w22 = z * z + c2sq
    i11, i12, i22 = mat2.inv(w11, w12, w22)
    c11 = l11 * l11 * i11
    c12 = l11 * (l21 * i11 + l22 * i12)
    c22 = l21 * l21 * i11 + 2.0 * l21 * l22 * i12 + l22 * l22 * i22
    return c11, c12, c22


def sample_inv_wishart(scale, dof, rng, size=None):
    """Draw 2x2 SPD matrices from IW(scale, dof); mean is scale/(dof-3)."""
    scale = np.asarray(scale, dtype=float)
    if scale.shape != (2, 2):
        raise ValueError("inverse Wishart scale must be 2x2")
    a, b, c = scale[0, 0], scale[0, 1], scale[1, 1]
    if not (abs(scale[0, 1] - scale[1, 0]) < 1e-12 and a > 0 and a * c - b * b > 0):
        raise ValueError("inverse Wishart scale must be symmetric positive definite")
    if dof <= 3:
        raise ValueError("inverse Wishart needs dof > 3 for the 2x2 mean to exist")
    l11, l21, l22 = mat2.chol(a, b, c)
    dof_arr = np.full(size, float(dof)) if size is not None else np.asarray(float(dof))
    triples = _inv_wishart_chol(l11, l21, l22, dof_arr, rng)
    return mat2.to_matrix(mat2.pack(*triples))


# ---------------------------------------------------------------------------
# densities


def _binormal_logpdf(d1, d2, a, b, c):
    """Zero-mean bivariate normal log density with covariance triple (a,b,c)."""
    det = a * c - b * b
    q = (c * d1 * d1 - 2.0 * b * d1 * d2 + a * d2 * d2) / det
    return -_LOG_2PI - 0.5 * np.log(det) - 0.5 * q


def _cov_triple(m, name):
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"{name} must be a 2x2 matrix")
    a, b, c = m[0, 0], m[0, 1], m[1, 1]
    if not (a > 0 and a * c - b * b > 0):
        raise ValueError(f"{name} is not symmetric positive definite")
    return a, b, c


def loglik_zero(d, sigma2, noise_cov):
    """log f(d | 0, sigma2 * noise_cov) for bivariate d (leading axes free)."""
    d = np.asarray(d, dtype=float)
    a, b, c = _cov_triple(noise_cov, "noise_cov")
    s2 = np.asarray(sigma2, dtype=float)
    if np.any(s2 <= 0):
        raise ValueError("sigma2 must be positive")
    return _binormal_logpdf(d[..., 0], d[..., 1], s2 * a, s2 * b, s2 * c)


def logmarg_signal(d, sigma2, noise_cov, v, signal_cov):
    """log of the signal-branch marginal: N2(d; 0, sigma2*noise_cov + v*signal_cov).

    ``v`` may be an array matching the leading axes of ``d``; ``v = 0``
    collapses to :func:`loglik_zero`.
    """
    d = np.asarray(d, dtype=float)
    na, nb, nc = _cov_triple(noise_cov, "noise_cov")
    ca, cb, cc = _cov_triple(signal_cov, "signal_cov")
    s2 = np.asarray(sigma2, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(s2 <= 0):
        raise ValueError("sigma2 must be positive")
    if np.any(v < 0):
        raise ValueError("latent scale v must be nonnegative")
    return _binormal_logpdf(
        d[..., 0],
        d[..., 1],
        s2 * na + v * ca,
        s2 * nb + v * cb,
        s2 * nc + v * cc,
    )


def inv_gamma_logpdf(x, shape, scale):
    """Log density of IG(shape, scale) in the scale-in-denominator convention."""
    x = np.asarray(x, dtype=float)
    if shape <= 0 or scale <= 0:
        raise ValueError("inverse gamma requires shape > 0 and scale > 0")
    return (
        -special.gammaln(shape)
        - shape * math.log(scale)
        - (shape + 1.0) * np.log(x)
        - 1.0 / (scale * x)
    )


def gig_logpdf(x, a, b, p):
    """Log density of GIG(a, b, p); normalization uses the Bessel K function."""
    x = np.asarray(x, dtype=float)
    if a <= 0 or b <= 0:
        raise ValueError("GIG requires a > 0 and b > 0")
    omega = math.sqrt(a * b)
    log_norm = 0.5 * p * math.log(a / b) - math.log(2.0) - (
        math.log(special.kve(p, omega)) - omega
    )
    return log_norm + (p - 1.0) * np.log(x) - 0.5 * (a * x + b / x)
