"""Random-variate generators used by the Gibbs sampler.

Parameter conventions (non-standard ones are deliberate and load-bearing):

* inverse gamma ``IG(shape, scale)`` has density proportional to
  x^(-shape-1) exp(-1/(scale*x)), so its mean is 1/(scale*(shape-1)).
  Note the scale sits in the *denominator* of the exponent; using the
  usual rate convention here would corrupt the noise-variance update.
* ``Ga(shape, scale)`` is the ordinary gamma with mean shape*scale.
* ``GIG(a, b, 1/2)``, the latent-scale conditional, has density
  proportional to x^(-1/2) exp(-(a*x+b/x)/2).
* inverse Wishart ``IW(A, dof)`` (2x2 only) has mean A/(dof - 3).

Streams: :func:`make_rng` derives one independent generator per
(seed, stream) pair via ``SeedSequence(seed, spawn_key=(stream,))``; a
fixed pair reproduces an identical variate sequence across runs.

Blocks: every variate is built from standard normals and uniforms.  A
:class:`Variates` holds one block of each per generator, drawn by one
``random`` and one ``standard_normal`` call, for a single generator or
for each of the R replicates of a batch (replicate axis first).  Its
``random``/``standard_normal`` hand the blocks out in order, so the
transforms below, written once over whole arrays, take a Variates or a
plain Generator alike.  Draws whose count differs by replicate come
instead straight from each replicate's generator: the sampler's theta
normals, two per active coefficient (:func:`ragged_normal`), and the
candidates that replace gammas whose first and spare candidates were
both rejected.
The transforms:

* gamma (shape >= 1) by Marsaglia & Tsang (2000, ACM TOMS 26:363), one
  normal and one uniform per candidate, with two candidates per draw
  from the blocks, a first and a spare; Ga(3/2), the latent-scale
  prior, exactly as g^2/2 - log(1 - u), with no rejection at all;
* beta as X/(X+Y) of two gammas, and chi-square as twice a gamma, with
  the gammas drawn by the caller, so that one call can draw them all;
* GIG(a, b, 1/2) as the reciprocal of an inverse Gaussian, by Michael,
  Schucany & Haas (1976, Amer. Statist. 30:88), with the small root taken
  as mu^2/x_large so that no subtraction cancels.

A gamma whose first candidate is rejected takes its spare, and one
whose spare is rejected too is replaced round by round: in each round,
every replicate with such entries draws their new normals, then their
new uniforms, from its own generator, one per entry in C order.  The
spare makes those rounds rare: at shape 1, where about 5 % of
candidates are rejected, about 0.25 % of draws need one.
Replicate r therefore consumes exactly the variates its single chain
would, and a batch reproduces every single chain bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import mat2

__all__ = [
    "make_rng",
    "Variates",
    "ragged_normal",
    "sample_inv_gamma",
    "sample_gig",
    "sample_inv_wishart",
]


def make_rng(seed, stream=0):
    """Independent generator for the given master seed and stream id."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.default_rng(ss)


class Variates:
    """Raw uniform and normal blocks, one row per generator, handed out in order.

    ``generators`` is one Generator (draws carry no replicate axis) or a
    sequence of R (every requested size leads with R).  Row r of
    ``uniform`` and ``normal`` belongs to generator r, and
    :meth:`random` and :meth:`standard_normal` hand its columns out in
    order, as the Generator would draw them.
    """

    def __init__(self, generators, uniform, normal):
        self._bind(generators)
        self.uniform = np.asarray(uniform, dtype=float).reshape(len(self.generators), -1)
        self.normal = np.asarray(normal, dtype=float).reshape(len(self.generators), -1)

    def _bind(self, generators):
        single = isinstance(generators, np.random.Generator)
        self.generators = (generators,) if single else tuple(generators)
        self.batch = () if single else (len(self.generators),)
        self._next = [0, 0]  # next unused column of uniform, normal

    @classmethod
    def draw(cls, generators, n_uniform, n_normal):
        """Blocks of n_uniform uniforms and n_normal normals per generator."""
        self = cls.__new__(cls)  # the blocks are made here, so skip __init__'s checks
        self._bind(generators)
        self.uniform = np.empty((len(self.generators), n_uniform))
        self.normal = np.empty((len(self.generators), n_normal))
        for gen, row_u, row_g in zip(self.generators, self.uniform, self.normal):
            gen.random(out=row_u)
            gen.standard_normal(out=row_g)
        return self

    def _take(self, which, size):
        if not isinstance(size, tuple):
            size = () if size is None else tuple(np.atleast_1d(size))
        lead = len(self.batch)
        if size[:lead] != self.batch:
            raise ValueError(f"size {size} does not lead with the batch {self.batch}")
        block = self.normal if which else self.uniform
        start = self._next[which]
        stop = start + math.prod(size[lead:])
        if stop > block.shape[1]:
            raise ValueError(f"request for {stop - start} variates overruns the block")
        self._next[which] = stop
        # a batch's rows are copied into one contiguous array, on which
        # numpy's elementwise loops run faster than on the rows in place
        taken = np.ascontiguousarray(block[:, start:stop]) if lead else block[0, start:stop]
        return taken if len(size) == lead + 1 else taken.reshape(size)

    def random(self, size=None):
        return self._take(0, size)

    def standard_normal(self, size=None):
        return self._take(1, size)


def ragged_normal(rng, counts):
    """Standard normals straight from the generators behind the :class:`Variates` ``rng``.

    ``counts`` holds one count per generator (one count for a Variates
    of one Generator).  Generator r makes one ``standard_normal`` call of
    counts[r] draws, in replicate order, and the runs come back
    concatenated; the blocks are left untouched.
    """
    counts = np.atleast_1d(counts).tolist()
    out = np.empty(sum(counts))
    stop = 0
    for gen, count in zip(rng.generators, counts):
        start, stop = stop, stop + count
        gen.standard_normal(out=out[start:stop])
    return out


# ---------------------------------------------------------------------------
# transforms


def _marsaglia_tsang(d, c, x, u):
    """Gamma candidates y = d*v, v = (1 + c*x)^3 with c = 1/sqrt(9d), and their acceptance.

    A candidate is accepted when v > 0 and log(1 - u) < x^2/2 + d - y + d log v.
    """
    w = c * x
    w += 1.0
    y = w * w
    y *= w
    y *= d
    accept = w > 0.0
    t = np.log(np.maximum(w, 1e-300))
    t *= 3.0 * d
    t -= y
    t += d
    t += 0.5 * (x * x)
    accept &= np.log(1.0 - u) < t
    return y, accept


def _gamma(shape, rng, size=None):
    """Ga(shape, 1) draws of the given size for shape >= 1 (Marsaglia & Tsang).

    ``shape`` is a scalar or an array of the draws' shape, which ``size``
    defaults to, and ``rng`` a Generator or a :class:`Variates`.  Each
    draw takes two candidates from ``rng``, each a standard normal and a
    uniform: all first candidates' normals, then their uniforms, then
    the spare candidates' normals, then theirs.  A spare replaces its
    first candidate where that was rejected; the spares are evaluated
    only when some first candidate was, all together, which costs less
    than gathering the rejected ones.  Draws whose two candidates were
    both rejected take fresh candidates in rounds until all are
    accepted: in each round, the generator behind every replicate with
    rejected entries draws one normal per entry, then one uniform per
    entry, in C order.
    """
    size = np.shape(shape) if size is None else size
    x, u = rng.standard_normal(size), rng.random(size)
    spare_x, spare_u = rng.standard_normal(size), rng.random(size)
    d = shape - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    y, accept = _marsaglia_tsang(d, c, x, u)
    if accept.all():
        return y
    spare_y, spare_accept = _marsaglia_tsang(d, c, spare_x, spare_u)
    y = np.where(accept, y, spare_y)
    accept |= spare_accept
    if accept.all():
        return y
    gens = rng.generators if isinstance(rng, Variates) else (rng,)
    reps = len(gens)
    # the rejected entries in C order, so replicate by replicate, and
    # their d and c (a scalar shape keeps them scalars)
    flat = np.flatnonzero(~accept)
    d, c = (p.reshape(-1)[flat] if np.ndim(p) else p for p in (d, c))
    while True:
        counts = np.bincount(flat // (accept.size // reps), minlength=reps).tolist()
        fresh = [(g.standard_normal(k), g.random(k)) for g, k in zip(gens, counts) if k]
        xs, us = fresh[0] if len(fresh) == 1 else map(np.concatenate, zip(*fresh))
        ys, ok = _marsaglia_tsang(d, c, xs, us)
        if ok.all():
            y.reshape(-1)[flat] = ys
            return y
        y.reshape(-1)[flat[ok]] = ys[ok]
        rejected = ~ok
        flat = flat[rejected]
        d, c = (p[rejected] if np.ndim(p) else p for p in (d, c))


def _gamma_three_halves(g, u):
    """Ga(3/2, 1) from a normal g and a uniform u, exactly and without rejection.

    It is the sum of Ga(1/2) = g^2/2 and the exponential Ga(1) = -log(1 - u).
    """
    return 0.5 * (g * g) - np.log(1.0 - u)


def _beta_from_gammas(xy):
    """Beta(a, b) as X/(X+Y), from pairs xy (..., 2) of X ~ Ga(a) and Y ~ Ga(b)."""
    return xy[..., 0] / (xy[..., 0] + xy[..., 1])


# ---------------------------------------------------------------------------
# public samplers


def _positive_finite(x):
    """Whether every entry of x lies in (0, inf); NaN does not.

    A NaN entry makes the minimum NaN, which fails ``> 0``.
    """
    if isinstance(x, float):
        return 0.0 < x < math.inf
    x = np.asarray(x, dtype=float)
    return x.size == 0 or bool(x.min() > 0.0 and x.max() < math.inf)


def sample_inv_gamma(shape, scale, rng, size=None):
    """Draw from IG(shape, scale) for shape >= 1; the reciprocal is Ga(shape, scale).

    ``size`` defaults to the shape of ``scale``.
    """
    if not (1 <= shape < np.inf and _positive_finite(scale)):
        raise ValueError("inverse gamma sampling requires a finite shape >= 1 "
                         "and a finite scale > 0")
    size = np.shape(scale) if size is None else size
    return (1.0 / (scale * _gamma(shape, rng, size)))[()]


# ---------------------------------------------------------------------------
# generalized inverse Gaussian


def sample_gig(a, b, rng, size=None):
    """Draw from GIG(a, b, 1/2), the reciprocal of an inverse Gaussian.

    That inverse Gaussian, GIG(b, a, -1/2), has mean mu = sqrt(a/b) and
    shape a.  Michael, Schucany & Haas: the roots of its chi-square(1)
    equation are mu/r and mu*r with r = x_large/mu >= 1, and the small
    root is taken with probability r/(1 + r); its reciprocal is formed
    directly, so it stays finite where the root itself would overflow or
    underflow.  ``a``/``b`` may be arrays.  ``rng`` is a Generator, a
    :class:`Variates`, or a pair (normals, uniforms) already drawn, one
    of each per draw.
    """
    if not (_positive_finite(a) and _positive_finite(b)):
        raise ValueError("GIG requires finite a > 0 and b > 0")
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if isinstance(rng, tuple):
        g, u = rng
    else:
        size = np.broadcast(a_arr, b_arr).shape if size is None else size
        g, u = rng.standard_normal(size), rng.random(size)
    mu = np.sqrt(a_arr / b_arr)
    t = g * g
    t *= mu
    t /= 2.0 * a_arr
    root = np.sqrt(t + 2.0)  # then sqrt(t) sqrt(t + 2)
    root *= np.sqrt(t)
    r = t + 1.0
    r += root
    small = r + 1.0  # then u (1 + r) < r
    small *= u
    return np.where(small < r, r, 1.0 / r) / mu


# ---------------------------------------------------------------------------
# inverse Wishart (2x2)


# half-dofs (dof, dof - 1)/2 of the Bartlett chi-squares, from dof/2
_CHI2_OFFSETS = np.array([0.0, 0.5])


def _bartlett_shapes(dof):
    """The gamma shapes dof/2 and (dof - 1)/2 of the two Bartlett chi-squares: (..., 2)."""
    return 0.5 * np.asarray(dof, dtype=float)[..., None] - _CHI2_OFFSETS


def _inv_wishart_chol(l11, l21, l22, gammas, rng):
    """IW draws as an (..., 3) array of component triples, given Cholesky triples of the scale.

    ``gammas`` (..., 2) holds one draw's pair of gammas at the shapes of
    :func:`_bartlett_shapes`, halves of its chi-squares with dof and
    dof - 1 degrees of freedom, and ``rng`` gives each draw its normal.
    The triples broadcast against ``gammas[..., 0]``.  Uses the Bartlett
    construction for Wishart(dof, scale^-1) and inverts in closed form.
    """
    chi2 = 2.0 * gammas
    c1sq, c2sq = chi2[..., 0], chi2[..., 1]
    z = rng.standard_normal(c1sq.shape)
    w11 = c1sq
    w12 = np.sqrt(c1sq) * z
    w22 = z * z + c2sq
    i11, i12, i22 = mat2.inv(w11, w12, w22)
    # the components are stored first and viewed last, so that each one is
    # contiguous
    c = np.empty((3,) + c1sq.shape)
    np.multiply(l11 * l11, i11, out=c[0, ...])
    np.multiply(l11, l21 * i11 + l22 * i12, out=c[1, ...])
    np.add(l21 * l21 * i11 + 2.0 * l21 * l22 * i12, l22 * l22 * i22, out=c[2, ...])
    return c.transpose(tuple(range(1, c.ndim)) + (0,))


def sample_inv_wishart(scale, dof, rng, size=None):
    """Draw 2x2 SPD matrices from IW(scale, dof); mean is scale/(dof-3)."""
    scale = np.asarray(scale, dtype=float)
    if scale.shape != (2, 2):
        raise ValueError("inverse Wishart scale must be 2x2")
    a, b, c = scale[0, 0], scale[0, 1], scale[1, 1]
    if not (abs(scale[0, 1] - scale[1, 0]) < 1e-12 and a > 0 and a * c - b * b > 0):
        raise ValueError("inverse Wishart scale must be symmetric positive definite")
    if not 3 < dof < np.inf:
        raise ValueError("inverse Wishart needs a finite dof > 3 for the 2x2 mean to exist")
    l11, l21, l22 = mat2.chol(a, b, c)
    shapes = _bartlett_shapes(np.full(() if size is None else size, float(dof)))
    return mat2.to_matrix(_inv_wishart_chol(l11, l21, l22, _gamma(shapes, rng), rng))
