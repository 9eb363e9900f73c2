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
  of the moment slab at once, then polishes the best start with a
  damped Newton method in (logit eps, L), V = L L'.  Its Hessian is a
  forward difference of the closed-form gradient, made positive
  definite by taking the absolute value of each eigenvalue, and its
  backtracking line search scores all its trial steps in one call.
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

# logit eps is boxed so the weight never rounds to exactly 0 or 1
_ETA_BOUND = 30.0
_SENTINEL = 1e300
# EM starts (eps, multiple of the moment slab) and the EM steps taken from each
_EM_STARTS = tuple(itertools.product((0.05, 0.2, 0.5, 0.9), (0.3, 3.0)))
_EM_STEPS = 8
# Newton polish: stop at |gradient| < _GTOL or a relative decrease of at
# most _FTOL; Armijo constant and the step lengths tried after a full step
_GTOL, _FTOL, _NEWTON_ITERS = 1e-5, 1e-12, 200
_ARMIJO = 1e-4
_HALVINGS = np.array([0.5 ** k for k in range(1, 10)])


def _expit(x):
    """The logistic function 1 / (1 + e^-x), 0 at x = -inf, without a warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _logit(p):
    """log(p / (1 - p)), -inf at p = 0 and inf at p = 1, without a warning."""
    with np.errstate(divide="ignore"):
        return np.log(p) - np.log1p(-p)


def _level_data(d1, d2):
    """One level's products (d1^2, d1 d2, d2^2) and their sums, formed once per fit."""
    with np.errstate(all="ignore"):
        prods = (d1 * d1, d1 * d2, d2 * d2)
        return prods, tuple(p.sum() for p in prods)


def _responsibilities(eta, va, vb, vc, data, na, nb, nc):
    """One level's slab responsibilities at logit weight eta and slab V = (va, vb, vc).

    ``data`` is the level's :func:`_level_data`, (na, nb, nc) the noise
    covariance triple N, and M = N + V.  Returns the responsibilities r,
    log f1 - log f0 per coefficient, det N and the triple of M^{-1}.  The
    parameters may carry a leading axis of starts, each scored on its
    own, with the coefficients on the last axis of r.  det M is summed
    from nonnegative parts, so a rank-one slab loses nothing to
    cancellation.  Never raises; an overflow shows as a non-finite value.
    """
    s11, s12, s22 = data[0]
    with np.errstate(all="ignore"):
        det0 = na * nc - nb * nb
        det1 = (det0 + np.maximum(va * vc - vb * vb, 0.0)
                + (nc * va - 2.0 * nb * vb + na * vc))
        pa, pb, pc = (nc + vc) / det1, -(nb + vb) / det1, (na + va) / det1
        # log f1 - log f0 per coefficient, from the difference of the inverses
        h, ca, cb, cc = (np.asarray(x)[..., None] for x in (
            0.5 * (np.log(det0) - np.log(det1)), 0.5 * (nc / det0 - pa),
            nb / det0 + pb, 0.5 * (na / det0 - pc)))
        log_ratio = h + ca * s11 - cb * s12 + cc * s22
        r = _expit(np.asarray(eta)[..., None] + log_ratio)
    return r, log_ratio, det0, (pa, pb, pc)


def _slab_gradient(r, inv_m, data):
    """The V gradient of the negative log likelihood, and the sum of r.

    The gradient is the symmetric matrix -(sum_i r_i u_i u_i' - sum_i r_i
    M^{-1}) / 2, as a triple, with u_i = M^{-1} d_i and ``inv_m`` the
    triple of M^{-1}.
    """
    s11, s12, s22 = data[0]
    pa, pb, pc = inv_m
    with np.errstate(all="ignore"):
        rsum = r.sum(axis=-1)
        r11, r12, r22 = r @ s11, r @ s12, r @ s22
        # sum_i r_i u_i u_i' = M^{-1} (sum_i r_i d_i d_i') M^{-1}
        ta, tb = pa * r11 + pb * r12, pa * r12 + pb * r22
        tc, td = pb * r11 + pc * r12, pb * r12 + pc * r22
        grad_V = (-0.5 * (ta * pa + tb * pb - rsum * pa),
                  -0.5 * (ta * pb + tb * pc - rsum * pb),
                  -0.5 * (tc * pb + td * pc - rsum * pc))
    return grad_V, rsum


def _mixture(eta, va, vb, vc, data, na, nb, nc):
    """One level's negative marginal log likelihood and its gradients in eta and V.

    Takes the arguments of :func:`_responsibilities`, scores each start
    on its own, and gives the V gradient as :func:`_slab_gradient` does.
    Never raises; an overflow shows as a non-finite value.
    """
    r, log_ratio, det0, inv_m = _responsibilities(eta, va, vb, vc, data, na, nb, nc)
    t11, t12, t22 = data[1]
    m = r.shape[-1]
    with np.errstate(all="ignore"):
        sum_log_f0 = -m * (_LOG_2PI + 0.5 * np.log(det0)) - 0.5 * (
            nc * t11 - 2.0 * nb * t12 + na * t22) / det0
        # log(1 - eps) and log eps
        log_w0, log_w1 = (np.asarray(x)[..., None] for x in (
            -np.logaddexp(0.0, eta), -np.logaddexp(0.0, -eta)))
        ll = sum_log_f0 + np.logaddexp(log_w0, log_ratio + log_w1).sum(axis=-1)
        grad_V, rsum = _slab_gradient(r, inv_m, data)
        grad_eta = _expit(eta) * m - rsum
    return -ll, grad_eta, grad_V


def _mix_negloglik_grad(x, data, na, nb, nc):
    """Objective and gradient at x = (logit eps, l11, l21, l22), V = L L'.

    ``data`` is the level's :func:`_level_data`.  The Cholesky entries
    are unconstrained, so V is symmetric PSD and a rank-one slab is
    reachable; dV = dL L' + L dL' chains the V gradient G to 2 G L.  A
    non-finite value or gradient returns the 1e300 sentinel with a zero
    gradient.  ``x`` of shape (P, 4) scores P points, each on its own,
    and gives P values and (P, 4) gradients.  Never raises or warns.
    """
    x = np.asarray(x, dtype=float)
    eta, l11, l21, l22 = np.moveaxis(x, -1, 0)
    with np.errstate(all="ignore"):
        val, g_eta, (g11, g12, g22) = _mixture(
            eta, l11 * l11, l11 * l21, l21 * l21 + l22 * l22,
            data, na, nb, nc)
        grad = np.stack([g_eta, 2.0 * (g11 * l11 + g12 * l21),
                         2.0 * (g12 * l11 + g22 * l21), 2.0 * g22 * l22], axis=-1)
    ok = np.isfinite(val) & np.isfinite(grad).all(axis=-1)
    val = np.where(ok, val, _SENTINEL)
    grad = np.where(ok[..., None], grad, 0.0)
    return (float(val), grad) if x.ndim == 1 else (val, grad)


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


def _em_step(eta, va, vb, vc, data, na, nb, nc):
    """One extreme-deconvolution EM step of the mixture, from every start at once.

    Takes logit weights and slab triples with a leading axis of starts
    (or scalars) and returns the updated (eta, va, vb, vc).  With r the
    slab responsibilities and G the V gradient of :func:`_slab_gradient`,
    eps <- sum r / m and V <- V - (2 / sum r) V G V, which is the update
    V P R P V / sum r + V - V P V of Bovy, Hogg & Roweis (2011) with
    P = (N + V)^{-1} and R = sum_i r_i d_i d_i'.  Neither step lowers the
    likelihood; a start whose responsibilities vanish turns non-finite.
    """
    r, _, _, inv_m = _responsibilities(eta, va, vb, vc, data, na, nb, nc)
    G, rsum = _slab_gradient(r, inv_m, data)
    with np.errstate(all="ignore"):
        eta = np.clip(_logit(rsum / r.shape[-1]), -_ETA_BOUND, _ETA_BOUND)
        k = 2.0 / rsum
        wa, wb, wc = mat2.sandwich(va, vb, vc, *G)
        return eta, va - k * wa, vb - k * wb, vc - k * wc


def _em_start(V0, data, na, nb, nc):
    """The polish's start (logit eps, l11, l21, l22), chosen by EM.

    Each start of ``_EM_STARTS`` pairs a weight with a multiple of the
    moment slab ``V0``; all take ``_EM_STEPS`` EM steps together, and the
    Cholesky factor of the one with the highest likelihood is returned.
    Its l22 is raised to at least 0.05 max(|l11|, |l21|): the gradient in
    l22 is 2 g22 l22, so a rank-one EM slab would start Newton on the
    ridge l22 = 0, which it never leaves.  The EM slab is PSD up to
    rounding; one whose (1, 1) entry is not positive gives a non-finite
    start.
    """
    eps0, fac = np.array(_EM_STARTS).T
    x = (_logit(eps0), fac * V0[0, 0], fac * V0[0, 1], fac * V0[1, 1])
    for _ in range(_EM_STEPS):
        x = _em_step(*x, data, na, nb, nc)
    val = _mixture(*x, data, na, nb, nc)[0]
    best = np.argmin(np.where(np.isfinite(val), val, np.inf))
    eta, va, vb, vc = (p[best] for p in x)
    with np.errstate(all="ignore"):
        l11 = np.sqrt(va)
        l21 = vb / l11
        l22 = np.sqrt(np.maximum(vc - l21 * l21, 0.0))
    return np.array([eta, l11, l21, max(l22, 0.05 * max(abs(l11), abs(l21)))])


def _clip_eta(x):
    """``x`` (..., 4) with its logit weight clipped to the box [-30, 30]."""
    x = x.copy()
    x[..., 0] = np.clip(x[..., 0], -_ETA_BOUND, _ETA_BOUND)
    return x


def _newton_direction(x, g, data, na, nb, nc):
    """The Newton direction at x, on a Hessian made positive definite.

    The Hessian is the forward difference of the gradient ``g`` at steps
    h_i = 1e-6 max(1, |x_i|), its four shifted points scored in one
    call, then symmetrised.  Each eigenvalue lambda is replaced by
    |lambda|, floored at 1e-10 max(1, max |lambda|) (Nocedal & Wright
    2006, section 3.4), so the direction is one of descent.
    """
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    _, g_shift = _mix_negloglik_grad(x + np.diag(h), data, na, nb, nc)
    H = (g_shift - g) / h[:, None]
    lam, Q = np.linalg.eigh(0.5 * (H + H.T))
    lam = np.abs(lam)
    lam = np.maximum(lam, 1e-10 * max(1.0, lam.max()))
    return -Q @ ((Q.T @ g) / lam)


def _polish(x, data, na, nb, nc):
    """Minimize :func:`_mix_negloglik_grad` by damped Newton from ``x``.

    Each iteration tries the full step of :func:`_newton_direction`
    alone, and when it fails the Armijo test (c = 1e-4) scores the step
    lengths 2^-1 ... 2^-9 in one call, taking the largest that passes,
    or else the one of lowest value; a step that lowers nothing is not
    taken.  The logit weight is clipped to [-30, 30].  Stops when the
    gradient's largest entry falls below 1e-5 or the value falls by a
    relative 1e-12 or less, and returns (x, True); after 200 iterations
    it returns (x, False).  A start that is not finite, or whose value
    is not, returns None.
    """
    f, g = _mix_negloglik_grad(x, data, na, nb, nc)
    if not (np.isfinite(x).all() and f < _SENTINEL):
        return None
    for _ in range(_NEWTON_ITERS):
        if np.abs(g).max() < _GTOL:
            return x, True
        p = _newton_direction(x, g, data, na, nb, nc)
        slope = _ARMIJO * (g @ p)
        trial = _clip_eta(x + p)
        f_new, g_new = _mix_negloglik_grad(trial, data, na, nb, nc)
        if not f_new <= f + slope:
            trials = _clip_eta(x + _HALVINGS[:, None] * p)
            fs, gs = _mix_negloglik_grad(trials, data, na, nb, nc)
            passing = np.flatnonzero(fs <= f + _HALVINGS * slope)
            k = passing[0] if passing.size else np.argmin(fs)
            trial, f_new, g_new = trials[k], float(fs[k]), gs[k]
        stalled = f - f_new <= _FTOL * max(abs(f), abs(f_new), 1.0)
        if f_new < f:
            x, f, g = trial, f_new, g_new
        if stalled:
            return x, True
    return x, False


def _fit_level(coef, data, na, nb, nc):
    """Maximize the mixture likelihood: EM from a grid of starts, then a Newton polish.

    ``data`` is :func:`_level_data` of ``coef``, shared by every
    evaluation.  :func:`_em_start` picks the start and :func:`_polish`
    refines it; ``converged`` is the polish's stopping test.  A start the
    polish cannot take falls back, with a warning, to the moment slab and
    the share of coefficients above the 2 log m threshold as the weight.
    """
    noise_cov = np.array([[na, nb], [nb, nc]])
    V0 = _moment_slab(coef, noise_cov)
    polished = _polish(_em_start(V0, data, na, nb, nc), data, na, nb, nc)
    if polished is None:
        warnings.warn("mixture fit failed; falling back to moment estimates",
                      stacklevel=3)
        s = _stat(coef, 1.0, noise_cov)
        eps = float(np.clip(np.mean(s > 2.0 * math.log(max(coef.size, 2))),
                            0.01, 0.99))
        return CEBLevelParams(eps=eps, V=V0, converged=False)
    (eta, l11, l21, l22), converged = polished
    L = np.array([[l11, 0.0], [l21, l22]])
    return CEBLevelParams(eps=float(_expit(eta)), V=L @ L.T, converged=converged)


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
    batch = np.shape(tree.approx)[:-1]
    s2_rows = np.broadcast_to(sigma2_hat, batch)
    details = [np.empty(level.shape, dtype=complex) for level in levels]
    fits = []
    for r in np.ndindex(batch):
        s2 = s2_rows[r]
        scale = math.sqrt(s2)
        for i, level in enumerate(levels):
            coef = level[r] / scale
            Sg = noise.matrix(tree.j0 + i)
            na, nb, nc = Sg[0, 0], Sg[0, 1], Sg[1, 1]
            d1, d2 = coef.real, coef.imag
            data = _level_data(d1, d2)
            fit = _fit_level(coef, data, na, nb, nc)
            fits.append(dataclasses.replace(fit, V=s2 * fit.V))
            va, vb, vc = fit.V[0, 0], fit.V[0, 1], fit.V[1, 1]
            p_hat = _responsibilities(_logit(fit.eps), va, vb, vc,
                                      data, na, nb, nc)[0]

            # shrink matrix V (V + noise)^{-1}, applied as a 2x2 per coefficient
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
