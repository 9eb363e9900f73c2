"""Reference estimators: hard keep-or-kill and empirical-Bayes shrinkage.

Both operate coefficient-wise in the wavelet domain on the same noise
geometry as the Gibbs smoother (per-level shape Sigma_j, MAD variance
estimate), so method comparisons isolate the estimator itself.

* :func:`cmws_hard` keeps a complex coefficient untouched — magnitude
  and phase — whenever its noise-normalized quadratic form
  s = d'(sigma2_hat Sigma_j)^{-1} d exceeds a threshold, and zeroes it
  otherwise.  Under pure noise s is chi-square with 2 dof, so the
  threshold lambda = 2 log n gives a survivor probability of 1/n per
  coefficient.
* :func:`ceb_posterior_mean` fits, per level, a two-point mixture
  (1-eps) N2(0, sigma2_hat Sigma_j) + eps N2(0, sigma2_hat Sigma_j + V)
  to the observed coefficients by maximum marginal likelihood, then
  applies the posterior-mean shrinkage p_hat * V(V + sigma2_hat
  Sigma_j)^{-1} d.  The matrix factor has spectral norm below one in
  the noise metric, so shrinkage never amplifies a coefficient.  The
  fit, on coefficients divided by sqrt(sigma2_hat), takes a few
  extreme-deconvolution EM steps from a grid of weights and multiples
  of the moment slab, for all of a signal's levels at once, then
  polishes each level's best start with a damped Newton method in
  (logit eps, L), V = L L'.  A coefficient enters the likelihood only
  through four features, so each Newton step takes the value, gradient
  and exact Hessian from one pass over them; the Hessian is made
  positive definite by taking the absolute value of each eigenvalue.
  The backtracking line search scores the full step by such a pass,
  whose derivatives the next step reuses, and shorter steps by value.
  The fit keeps this division although ``denoise`` already rescales by a
  power of two: sqrt(sigma2_hat) scales exactly with the input, so a call
  on the raw tree is bitwise the call on the rescaled one.

Both accept a stacked tree, whose leading axes index signals, with one
sigma2_hat per signal (or one shared scalar); :func:`ceb_posterior_mean`
fits each signal's levels on their own, so row r of a stack is bitwise
the single-signal result.  The mixture threshold and the optimizer are
implementation choices; both estimators are deterministic given their
inputs, and neither needs more than numpy.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import warnings

import numpy as np

from . import mat2
from .distributions import _positive_finite
from .transform import CoeffTree

__all__ = ["CEBLevelParams", "cmws_hard", "ceb_posterior_mean"]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclasses.dataclass(frozen=True)
class CEBLevelParams:
    """Fitted mixture weight and slab covariance for one level."""

    eps: float
    V: np.ndarray  # (2, 2) symmetric PSD; rank one when the slab is a line
    converged: bool


def _stat(coef, sigma2_hat, Sg):
    """Noise-normalized quadratic form of each complex coefficient.

    ``coef`` (..., m) takes a ``sigma2_hat`` of shape () or (...).
    """
    ia, ib, ic = mat2.inv(Sg[0, 0], Sg[0, 1], Sg[1, 1])
    q = mat2.quad(ia, ib, ic, coef.real, coef.imag)
    return q / np.asarray(sigma2_hat)[..., None]


def _positive(sigma2_hat):
    """``sigma2_hat`` as an array, once checked positive and finite in every entry."""
    if not _positive_finite(sigma2_hat):
        raise ValueError("sigma2_hat must be positive and finite")
    return np.asarray(sigma2_hat, dtype=float)


def cmws_hard(tree, sigma2_hat, noise):
    """Keep-or-kill thresholding at 2 log n; returns a new tree, input untouched."""
    sigma2_hat = _positive(sigma2_hat)
    lam = 2.0 * math.log(tree.n)
    details = []
    for i, level in enumerate(tree.details):
        coef = np.asarray(level)
        s = _stat(coef, sigma2_hat, noise.matrix(tree.j0 + i))
        details.append(np.where(s > lam, coef, 0.0))
    return CoeffTree(n=tree.n, j0=tree.j0, approx=tree.approx.copy(),
                     details=details)


# ---------------------------------------------------------------------------
# empirical-Bayes posterior mean
#
# A coefficient d = (d1, d2) enters the mixture likelihood only through its
# features phi = (1, d1^2, 2 d1 d2, d2^2): with f0 = N2(0, N), f1 = N2(0, M)
# and M = N + V, log f1/f0 = c . phi for c = (log(det N / det M) / 2,
# (N^{-1} - M^{-1}) / 2 as a triple).  With eta = logit eps, a level's
# negative log likelihood is K + m softplus(eta) - sum_i softplus(eta + c .
# phi_i), K = -sum_i log f0(d_i), and its derivatives need only the sums of
# r_i phi_i and w_i phi_i phi_i', r = expit(eta + c . phi) and w = r (1 - r).

# logit eps is boxed so the weight never rounds to exactly 0 or 1
_ETA_BOUND = 30.0
_SENTINEL = 1e300
# EM starts (eps, multiple of the moment slab) and the EM steps taken from each
_EM_STARTS = tuple(itertools.product((0.05, 0.2, 0.5, 0.9), (0.3, 3.0)))
_EM_STEPS = 8
# Newton polish: stop at |gradient| < _GTOL or a relative decrease of at
# most _FTOL; Armijo constant and the step lengths of the line search
_GTOL, _FTOL, _NEWTON_ITERS = 1e-5, 1e-12, 200
_ARMIJO = 1e-4
_HALVINGS = np.array([0.5 ** k for k in range(1, 10)])
# rows of a level's data that hold phi_a phi_b, arranged as the (4, 4) matrix
_PAIRS = np.array([[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]])


def _expit(x):
    """The logistic function 1 / (1 + e^-x), 0 at x = -inf, without a warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _logit(p):
    """log(p / (1 - p)), -inf at p = 0 and inf at p = 1, without a warning."""
    with np.errstate(divide="ignore"):
        return np.log(p) - np.log1p(-p)


def _softplus(u):
    """log(1 + e^u) as max(u, 0) + log1p(e^-|u|), which never overflows."""
    return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


def _level_data(d1, d2):
    """One level's features and their products, and the features' sums, formed once per fit.

    Returns (F, sums).  F (10, m) holds phi_i = (1, d1^2, 2 d1 d2, d2^2)
    in rows 0-3 and the products phi_a phi_b, 1 <= a <= b <= 3, in rows
    4-9, so that ``(w @ F.T)[_PAIRS]`` is sum_i w_i phi_i phi_i'; sums is
    the sum of rows 1-3.
    """
    with np.errstate(all="ignore"):
        a, b, c = d1 * d1, 2.0 * d1 * d2, d2 * d2
        F = np.stack([np.ones_like(a), a, b, c, a * a, a * b, a * c, b * b, b * c, c * c])
    return F, F[1:4].sum(axis=1)


def _null_negloglik(data, na, nb, nc):
    """-sum_i log f0(d_i), the level's negative log likelihood as pure noise N = (na, nb, nc)."""
    F, (t11, t12, t22) = data
    det0 = na * nc - nb * nb
    return (F.shape[1] * (_LOG_2PI + 0.5 * math.log(det0))
            + 0.5 * (nc * t11 - nb * t12 + na * t22) / det0)


def _log_ratio(eta, va, vb, vc, na, nb, nc):
    """The c of eta + log f1/f0 = c . phi at slab V = (va, vb, vc), and the triple of M^{-1}.

    Broadcasts over the parameters, with the four entries of c on a new
    last axis.  det M is summed from nonnegative parts, so a rank-one
    slab loses nothing to cancellation.  Never raises or warns; an
    overflow shows as a non-finite value.
    """
    with np.errstate(all="ignore"):
        det0 = na * nc - nb * nb
        det1 = (det0 + np.maximum(va * vc - vb * vb, 0.0)
                + (nc * va - 2.0 * nb * vb + na * vc))
        pa, pb, pc = (nc + vc) / det1, -(nb + vb) / det1, (na + va) / det1
        c = np.stack([eta + 0.5 * (np.log(det0) - np.log(det1)), 0.5 * (nc / det0 - pa),
                      -0.5 * (nb / det0 + pb), 0.5 * (na / det0 - pc)], axis=-1)
    return c, (pa, pb, pc)


def _negloglik(eta, va, vb, vc, data, na, nb, nc):
    """One level's negative marginal log likelihood at logit weight eta and slab (va, vb, vc).

    ``data`` is the level's :func:`_level_data` and (na, nb, nc) the
    noise covariance triple.  The parameters may carry leading axes of
    starts, each scored on its own.  Never raises or warns; an overflow
    shows as a non-finite value.
    """
    F = data[0]
    c, _ = _log_ratio(eta, va, vb, vc, na, nb, nc)
    with np.errstate(all="ignore"):
        return (_null_negloglik(data, na, nb, nc) + F.shape[1] * _softplus(eta)
                - _softplus(c @ F[:4]).sum(axis=-1))


def _objective(x, data, na, nb, nc):
    """Value, gradient and exact Hessian at x = (logit eps, l11, l21, l22), V = L L'.

    One pass over the level's data gives s = sum_i r_i phi_i and W =
    sum_i w_i phi_i phi_i'; with g_c = -s and H_c = -W the gradient and
    Hessian in c (and eta), everything else is 2x2 algebra on the
    parameters.  With P = M^{-1}, R = [[s1, s2/2], [s2/2, s3]], G = (s0 P -
    P R P) / 2 the V gradient and B = P R P - s0 P / 2, and dM_k = E_k L'
    + L E_k' for the unit matrix E_k of each entry of L: the Jacobian J
    of c holds -tr(P dM_k) / 2 and P dM_k P / 2, the gradient in L is
    tr(dM_k G), and the Hessian is J' H_c J, plus m expit'(eta) in eta and
    tr(d2M_kl G) + tr(dM_k P dM_l B) in L, d2M_kl being constant.  A
    non-finite value, gradient or Hessian returns the 1e300 sentinel with
    zeros.  Never raises or warns.
    """
    eta, l11, l21, l22 = (float(v) for v in x)
    F = data[0]
    m = F.shape[1]
    c, inv_m = _log_ratio(eta, l11 * l11, l11 * l21, l21 * l21 + l22 * l22, na, nb, nc)
    with np.errstate(all="ignore"):
        z = c @ F[:4]
        e = np.exp(-np.abs(z))
        t = 1.0 / (1.0 + e)
        value = (_null_negloglik(data, na, nb, nc) + m * _softplus(eta)
                 - (np.maximum(z, 0.0) + np.log1p(e)).sum())
        s0, s1, s2, s3 = (np.where(z >= 0.0, t, e * t) @ F[:4].T).tolist()
        W = ((e * t * t) @ F.T)[_PAIRS]
        q = float(_expit(eta))
    pa, pb, pc = (float(p) for p in inv_m)
    aa, ab, ac = mat2.sandwich(pa, pb, pc, s1, 0.5 * s2, s3)
    ga, gb, gc = 0.5 * (s0 * pa - aa), 0.5 * (s0 * pb - ab), 0.5 * (s0 * pc - ac)
    ba, bb, bc = aa - 0.5 * s0 * pa, ab - 0.5 * s0 * pb, ac - 0.5 * s0 * pc
    dM = ((2.0 * l11, l21, 0.0), (0.0, l11, 2.0 * l21), (0.0, 0.0, 2.0 * l22))
    J, Y = [[1.0, 0.0, 0.0, 0.0]], []
    for xa, xb, xc in dM:
        # U = P dM_k; a row of J, and P dM_k B as (Y00, Y01 + Y10, Y11)
        u00, u01 = pa * xa + pb * xb, pa * xb + pb * xc
        u10, u11 = pb * xa + pc * xb, pb * xb + pc * xc
        J.append([-0.5 * (u00 + u11), 0.5 * (u00 * pa + u01 * pb),
                  0.5 * (u00 * pb + u01 * pc), 0.5 * (u10 * pb + u11 * pc)])
        Y.append((u00 * ba + u01 * bb, u00 * bb + u01 * bc + u10 * ba + u11 * bb,
                  u10 * bb + u11 * bc))
    T = [[xa * y0 + xb * y1 + xc * y2 for y0, y1, y2 in Y] for xa, xb, xc in dM]
    # d2M_kl is 2 E11, E12 + E21, 2 E22 and 2 E22 at (l11, l11), (l11, l21),
    # (l21, l21) and (l22, l22), and zero elsewhere
    T[0][0] += 2.0 * ga
    T[0][1] += 2.0 * gb
    T[1][0] += 2.0 * gb
    T[1][1] += 2.0 * gc
    T[2][2] += 2.0 * gc
    J = np.array(J)
    H = -(J @ W @ J.T)
    H[0, 0] += m * q * (1.0 - q)
    H[1:, 1:] += T
    g = np.array([m * q - s0] + [xa * ga + 2.0 * xb * gb + xc * gc for xa, xb, xc in dM])
    if not (np.isfinite(value) and np.isfinite(g).all() and np.isfinite(H).all()):
        return _SENTINEL, np.zeros(4), np.zeros((4, 4))
    return float(value), g, H


def _moment_slab(coef, noise_cov):
    """Moment estimate of the slab: the (Re, Im) sample covariance minus the noise.

    ``coef`` (..., m) gives one (2, 2) estimate per leading index, less
    the noise share ``noise_cov`` (..., 2, 2).  An estimate that is not
    positive definite is pushed onto the SPD cone by adding
    (|lambda_min| + max(1e-6 trace(Cov), 1e-8)) * I.  The absolute 1e-8,
    which keeps a constant level on the cone, assumes coefficients at a
    noise scale near one, as ``sampler.unit_scale`` leaves them.  One
    coefficient has a zero sample covariance.
    """
    m = coef.shape[-1]
    # the sample covariance as np.cov forms it, per leading index
    parts = np.stack([coef.real, coef.imag], axis=-2)
    parts -= parts.mean(axis=-1, keepdims=True)
    cov = parts @ parts.swapaxes(-1, -2)
    cov *= 1.0 / max(m - 1, 1)
    V = cov - noise_cov
    lam_min = mat2.eig_min(V[..., 0, 0], V[..., 0, 1], V[..., 1, 1])
    bump = abs(lam_min) + np.maximum(1e-6 * np.trace(cov, axis1=-2, axis2=-1), 1e-8)
    bumped = V + bump[..., None, None] * np.eye(2)
    return np.where((lam_min <= 0)[..., None, None], bumped, V)


def _em_step(eta, va, vb, vc, datas, na, nb, nc):
    """One extreme-deconvolution EM step of all of a signal's levels, from every start at once.

    Takes (S, L) logit weights and slab triples, a row per start and a
    column per level of ``datas``, with (L,) noise triples, and returns
    the updated (eta, va, vb, vc).  The levels' coefficients sit side by
    side in one (S, n) array of eta + c . phi; each level sums its own
    s = sum_i r_i phi_i.  With P = M^{-1}, R = [[s1, s2/2], [s2/2, s3]]
    and G = (s0 P - P R P) / 2 the V gradient, eps <- s0 / m and V <- V -
    (2 / s0) V G V, which is the update V P R P V / s0 + V - V P V of
    Bovy, Hogg & Roweis (2011).  Neither step lowers the likelihood; a
    start whose responsibilities vanish turns non-finite.
    """
    c, (pa, pb, pc) = _log_ratio(eta, va, vb, vc, na, nb, nc)
    sizes = [F.shape[1] for F, _ in datas]
    spans = [slice(hi - m, hi) for m, hi in zip(sizes, itertools.accumulate(sizes))]
    z = np.empty((c.shape[0], sum(sizes)))
    s = np.empty(c.shape)
    with np.errstate(all="ignore"):
        for level, ((F, _), span) in enumerate(zip(datas, spans)):
            np.matmul(c[:, level], F[:4], out=z[:, span])
        # the responsibilities expit(z), in place: (S, n) temporaries cost page faults
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        r = np.reciprocal(z, out=z)
        for level, ((F, _), span) in enumerate(zip(datas, spans)):
            np.matmul(r[:, span], F[:4].T, out=s[:, level])
        s0, s1, s2, s3 = np.moveaxis(s, -1, 0)
        aa, ab, ac = mat2.sandwich(pa, pb, pc, s1, 0.5 * s2, s3)
        eta = np.clip(_logit(s0 / np.array(sizes)), -_ETA_BOUND, _ETA_BOUND)
        k = 2.0 / s0
        wa, wb, wc = mat2.sandwich(va, vb, vc, 0.5 * (s0 * pa - aa),
                                   0.5 * (s0 * pb - ab), 0.5 * (s0 * pc - ac))
        return eta, va - k * wa, vb - k * wb, vc - k * wc


def _em_starts(V0s, datas, covs):
    """The polish's starts (logit eps, l11, l21, l22), one row per level, chosen by EM.

    Each start of ``_EM_STARTS`` pairs a weight with a multiple of a
    level's moment slab ``V0s[l]``; every start of every level takes
    ``_EM_STEPS`` EM steps at once, and for each level the Cholesky
    factor of the start with the highest likelihood is returned.  ``covs``
    are the levels' noise covariances.  Each start's l22 is raised to at least
    0.05 max(|l11|, |l21|): the gradient in l22 is 2 g22 l22, so a
    rank-one EM slab would start Newton on the ridge l22 = 0, which it
    never leaves.  The EM slab is PSD up to rounding; one whose (1, 1)
    entry is not positive gives a non-finite start.
    """
    covs, V0 = np.asarray(covs), np.asarray(V0s)
    na, nb, nc = covs[:, 0, 0], covs[:, 0, 1], covs[:, 1, 1]
    eps0, fac = np.array(_EM_STARTS).T
    fac = fac[:, None]
    x = (np.repeat(_logit(eps0)[:, None], len(datas), axis=1),
         fac * V0[:, 0, 0], fac * V0[:, 0, 1], fac * V0[:, 1, 1])
    for _ in range(_EM_STEPS):
        x = _em_step(*x, datas, na, nb, nc)
    val = np.stack([_negloglik(*(p[:, level] for p in x), data, na[level], nb[level], nc[level])
                    for level, data in enumerate(datas)], axis=1)
    best = np.argmin(np.where(np.isfinite(val), val, np.inf), axis=0)
    eta, va, vb, vc = (p[best, np.arange(len(datas))] for p in x)
    with np.errstate(all="ignore"):
        l11 = np.sqrt(va)
        l21 = vb / l11
        l22 = np.sqrt(np.maximum(vc - l21 * l21, 0.0))
        raised = np.maximum(l22, 0.05 * np.maximum(np.abs(l11), np.abs(l21)))
    return np.stack([eta, l11, l21, raised], axis=-1)


def _clip_eta(x):
    """``x`` (..., 4) with its logit weight clipped to the box [-30, 30]."""
    x = x.copy()
    x[..., 0] = np.clip(x[..., 0], -_ETA_BOUND, _ETA_BOUND)
    return x


def _polish(x, data, na, nb, nc):
    """Minimize the negative log likelihood by damped Newton from ``x`` = (logit eps, L).

    The Hessian of :func:`_objective` is made positive definite by
    replacing each eigenvalue lambda with |lambda|, floored at 1e-10
    max(1, max |lambda|) (Nocedal & Wright 2006, section 3.4), so the
    Newton direction is one of descent.  Each iteration scores the full
    step by one :func:`_objective` pass, whose gradient and Hessian the
    next iteration uses, and when it fails the Armijo test (c = 1e-4)
    scores the values alone of the step lengths 2^-1 ... 2^-9 in one
    call, taking the largest that passes, or else the one of lowest
    value; a step that lowers nothing is not taken.  The logit weight is
    clipped to [-30, 30].  Stops when the gradient's largest entry falls
    below 1e-5 or the value falls by a relative 1e-12 or less, and
    returns (x, True); after 200 iterations it returns (x, False).  A
    start that is not finite, or whose value is not, returns None.
    """
    f, g, H = _objective(x, data, na, nb, nc)
    if not (np.isfinite(x).all() and f < _SENTINEL):
        return None
    for _ in range(_NEWTON_ITERS):
        if np.abs(g).max() < _GTOL:
            return x, True
        lam, Q = np.linalg.eigh(H)
        lam = np.abs(lam)
        p = -Q @ ((Q.T @ g) / np.maximum(lam, 1e-10 * max(1.0, lam.max())))
        slope = _ARMIJO * (g @ p)
        trial = _clip_eta(x + p)
        new = _objective(trial, data, na, nb, nc)
        if not new[0] <= f + slope:
            trials = _clip_eta(x + _HALVINGS[:, None] * p)
            eta, l11, l21, l22 = trials.T
            fs = _negloglik(eta, l11 * l11, l11 * l21, l21 * l21 + l22 * l22, data, na, nb, nc)
            fs = np.where(np.isfinite(fs), fs, _SENTINEL)
            passing = np.flatnonzero(fs <= f + _HALVINGS * slope)
            trial = trials[passing[0] if passing.size else np.argmin(fs)]
            new = _objective(trial, data, na, nb, nc)
        if f - new[0] <= _FTOL * max(abs(f), abs(new[0]), 1.0):
            return (trial if new[0] < f else x), True
        x, (f, g, H) = trial, new
    return x, False


def _fit_levels(coefs, datas, covs):
    """Maximize each level's mixture likelihood: EM from a grid of starts, then a Newton polish.

    ``coefs`` are a signal's levels, ``datas`` their :func:`_level_data`
    and ``covs`` their noise covariances.  :func:`_em_starts` picks every
    level's start at once and :func:`_polish` refines each; ``converged``
    is the polish's stopping test.  A start the polish cannot take falls
    back, with a warning, to the moment slab and the share of
    coefficients above the 2 log m threshold as the weight.
    """
    V0s = [_moment_slab(coef, cov) for coef, cov in zip(coefs, covs)]
    fits = []
    for coef, data, cov, V0, x0 in zip(coefs, datas, covs, V0s,
                                        _em_starts(V0s, datas, covs)):
        polished = _polish(x0, data, cov[0, 0], cov[0, 1], cov[1, 1])
        if polished is None:
            warnings.warn("mixture fit failed; falling back to moment estimates",
                          stacklevel=3)
            s = _stat(coef, 1.0, cov)
            eps = float(np.clip(np.mean(s > 2.0 * math.log(max(coef.size, 2))),
                                0.01, 0.99))
            fits.append(CEBLevelParams(eps=eps, V=V0, converged=False))
            continue
        (eta, l11, l21, l22), converged = polished
        L = np.array([[l11, 0.0], [l21, l22]])
        fits.append(CEBLevelParams(eps=float(_expit(eta)), V=L @ L.T,
                                   converged=converged))
    return fits


def ceb_posterior_mean(tree, sigma2_hat, noise, return_params=False):
    """Bivariate posterior-mean shrinkage under per-level fitted mixtures.

    Each level is fitted on its coefficients divided by sqrt(sigma2_hat),
    so the fit sees unit noise scale and the estimate scales exactly with
    the input by powers of two; the returned V is rescaled to the data.
    A stacked tree is fitted one signal at a time, each at its own
    sigma2_hat, and ``fits`` lists its levels' parameters signal by signal.
    """
    sigma2_hat = _positive(sigma2_hat)
    levels = [np.asarray(level) for level in tree.details]
    covs = [noise.matrix(tree.j0 + i) for i in range(len(levels))]
    batch = np.shape(tree.approx)[:-1]
    s2_rows = np.broadcast_to(sigma2_hat, batch)
    details = [np.empty(level.shape, dtype=complex) for level in levels]
    fits = []
    for r in np.ndindex(batch):
        s2 = s2_rows[r]
        scale = math.sqrt(s2)
        coefs = [level[r] / scale for level in levels]
        datas = [_level_data(coef.real, coef.imag) for coef in coefs]
        for i, (coef, data, Sg, fit) in enumerate(zip(coefs, datas, covs,
                                                      _fit_levels(coefs, datas, covs))):
            fits.append(dataclasses.replace(fit, V=s2 * fit.V))
            na, nb, nc = Sg[0, 0], Sg[0, 1], Sg[1, 1]
            va, vb, vc = fit.V[0, 0], fit.V[0, 1], fit.V[1, 1]
            c, _ = _log_ratio(_logit(fit.eps), va, vb, vc, na, nb, nc)
            with np.errstate(all="ignore"):
                p_hat = _expit(c @ data[0][:4])

            # shrink matrix V (V + noise)^{-1}, applied as a 2x2 per coefficient
            d1, d2 = coef.real, coef.imag
            i1a, i1b, i1c = mat2.inv(na + va, nb + vb, nc + vc)
            s11 = va * i1a + vb * i1b
            s12 = va * i1b + vb * i1c
            s21 = vb * i1a + vc * i1b
            s22 = vb * i1b + vc * i1c
            t1 = p_hat * (s11 * d1 + s12 * d2)
            t2 = p_hat * (s21 * d1 + s22 * d2)
            details[i][r] = scale * (t1 + 1j * t2)
    out = CoeffTree(n=tree.n, j0=tree.j0, approx=tree.approx.copy(),
                    details=details)
    if return_params:
        return out, fits
    return out
