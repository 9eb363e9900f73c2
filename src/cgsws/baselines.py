"""Reference estimators: hard keep-or-kill and empirical-Bayes shrinkage.

Both operate coefficient-wise in the wavelet domain on the same noise
geometry as the Gibbs smoother (per-level shape Sigma_j, MAD variance
estimate), so method comparisons isolate the estimator itself.

* :func:`cmws_hard` keeps a complex coefficient untouched — magnitude
  and phase — whenever its noise-normalized quadratic form
  s = d'(sigma2_hat Sigma_j)^{-1} d exceeds a threshold, and zeroes it
  otherwise.  Under pure noise s is chi-square with 2 dof, so the
  default lambda = 2 log n gives a survivor probability of 1/n per
  coefficient.
* :func:`ceb_posterior_mean` fits, per level, a two-point mixture
  (1-eps) N2(0, sigma2_hat Sigma_j) + eps N2(0, sigma2_hat Sigma_j + V)
  to the observed coefficients by maximum marginal likelihood, then
  applies the posterior-mean shrinkage p_hat * V(V + sigma2_hat
  Sigma_j)^{-1} d.  The matrix factor has spectral norm below one in
  the noise metric, so shrinkage never amplifies a coefficient.  The
  fit runs L-BFGS-B on the closed-form gradient in (logit eps, L) with
  V = L L', from three moment-based starts, on coefficients divided by
  sqrt(sigma2_hat).

The mixture threshold and the optimizer are implementation choices;
both estimators are deterministic given their inputs.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
from scipy import optimize, special

from . import mat2
from .transform import CoeffTree

__all__ = ["ThresholdRule", "CEBLevelParams", "cmws_hard", "ceb_posterior_mean"]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclasses.dataclass(frozen=True)
class ThresholdRule:
    """Cutoff for the chi-square-scaled statistic d'(sigma2 Sigma_j)^{-1} d."""

    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("threshold must be nonnegative")

    @classmethod
    def universal(cls, n):
        return cls(lam=2.0 * math.log(n))


@dataclasses.dataclass(frozen=True)
class CEBLevelParams:
    """Fitted mixture weight and slab covariance for one level."""

    eps: float
    V: np.ndarray  # (2, 2) symmetric PSD; rank one when the slab is a line
    converged: bool


def _stat(coef, sigma2_hat, Sg):
    """Noise-normalized quadratic form of each complex coefficient."""
    ia, ib, ic = mat2.inv(Sg[0, 0], Sg[0, 1], Sg[1, 1])
    q = mat2.quad(ia, ib, ic, coef.real, coef.imag)
    return q / sigma2_hat


def cmws_hard(tree, sigma2_hat, noise, rule=None):
    """Keep-or-kill thresholding; returns a new tree, input untouched."""
    if sigma2_hat <= 0:
        raise ValueError("sigma2_hat must be positive")
    if rule is None:
        rule = ThresholdRule.universal(tree.n)
    details = []
    for i, level in enumerate(tree.details):
        coef = np.asarray(level)
        s = _stat(coef, sigma2_hat, noise.matrix(tree.j0 + i))
        details.append(np.where(s > rule.lam, coef, 0.0))
    return CoeffTree(n=tree.n, j0=tree.j0, approx=tree.approx.copy(),
                     details=details)


# ---------------------------------------------------------------------------
# empirical-Bayes posterior mean

# logit eps is boxed so the weight never rounds to exactly 0 or 1
_BOUNDS = [(-30.0, 30.0), (None, None), (None, None), (None, None)]
_SENTINEL = 1e300
_LBFGS_OPTIONS = {"ftol": 1e-12, "gtol": 1e-5}


def _mixture(eta, va, vb, vc, d1, d2, na, nb, nc):
    """One level's mixture at logit weight eta and slab V = (va, vb, vc).

    (na, nb, nc) is the noise covariance triple N and M = N + V.  Returns
    the negative marginal log likelihood, its gradient in eta and in V
    (the symmetric matrix -(sum_i r_i u_i u_i' - sum_i r_i M^{-1}) / 2,
    as a triple, with u_i = M^{-1} d_i) and the slab responsibilities r.
    det M is summed from nonnegative parts, so a rank-one slab loses
    nothing to cancellation.  Never raises; an overflow shows as a
    non-finite value.
    """
    with np.errstate(all="ignore"):
        s11, s12, s22 = d1 * d1, d1 * d2, d2 * d2
        det0 = na * nc - nb * nb
        det1 = (det0 + np.maximum(va * vc - vb * vb, 0.0)
                + (nc * va - 2.0 * nb * vb + na * vc))
        pa, pb, pc = (nc + vc) / det1, -(nb + vb) / det1, (na + va) / det1
        # log f1 - log f0 per coefficient, from the difference of the inverses
        half_log_det = 0.5 * (np.log(det0) - np.log(det1))
        log_ratio = (half_log_det + (0.5 * (nc / det0 - pa)) * s11
                     - (nb / det0 + pb) * s12 + (0.5 * (na / det0 - pc)) * s22)
        sum_log_f0 = -d1.size * (_LOG_2PI + 0.5 * np.log(det0)) - 0.5 * (
            nc * s11.sum() - 2.0 * nb * s12.sum() + na * s22.sum()) / det0
        ll = sum_log_f0 + np.logaddexp(-np.logaddexp(0.0, eta),
                                       log_ratio - np.logaddexp(0.0, -eta)).sum()
        r = special.expit(eta + log_ratio)
        rsum = r.sum()
        r11, r12, r22 = r @ s11, r @ s12, r @ s22
        # sum_i r_i u_i u_i' = M^{-1} (sum_i r_i d_i d_i') M^{-1}
        ta, tb = pa * r11 + pb * r12, pa * r12 + pb * r22
        tc, td = pb * r11 + pc * r12, pb * r12 + pc * r22
        grad_V = (-0.5 * (ta * pa + tb * pb - rsum * pa),
                  -0.5 * (ta * pb + tb * pc - rsum * pb),
                  -0.5 * (tc * pb + td * pc - rsum * pc))
        grad_eta = special.expit(eta) * d1.size - rsum
    return -ll, grad_eta, grad_V, r


def _mix_negloglik_grad(x, d1, d2, na, nb, nc):
    """Objective and gradient at x = (logit eps, l11, l21, l22), V = L L'.

    The Cholesky entries are unconstrained, so V is symmetric PSD and a
    rank-one slab is reachable; dV = dL L' + L dL' chains the V gradient
    G to 2 G L.  A non-finite value or gradient returns the 1e300
    sentinel with a zero gradient.
    """
    eta, l11, l21, l22 = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        val, g_eta, (g11, g12, g22), _ = _mixture(
            eta, l11 * l11, l11 * l21, l21 * l21 + l22 * l22,
            d1, d2, na, nb, nc)
        grad = np.array([g_eta, 2.0 * (g11 * l11 + g12 * l21),
                         2.0 * (g12 * l11 + g22 * l21), 2.0 * g22 * l22])
    if not (np.isfinite(val) and np.isfinite(grad).all()):
        return _SENTINEL, np.zeros(4)
    return float(val), grad


def _moment_slab(coef, noise_tri):
    """Moment-based slab start value: sample covariance minus the noise."""
    parts = np.stack([coef.real, coef.imag])
    cov = np.cov(parts, ddof=1) if coef.size > 1 else np.zeros((2, 2))
    V = cov - np.array([[noise_tri[0], noise_tri[1]],
                        [noise_tri[1], noise_tri[2]]])
    lam_min = mat2.eig_min(V[0, 0], V[0, 1], V[1, 1])
    if lam_min <= 0:
        V = V + (abs(lam_min) + max(1e-6 * np.trace(cov), 1e-8)) * np.eye(2)
    return V


def _fit_level(coef, na, nb, nc):
    """Maximize the mixture likelihood by L-BFGS-B from three starts; best wins."""
    d1, d2 = coef.real, coef.imag
    V0 = _moment_slab(coef, (na, nb, nc))
    l11, l21, l22 = mat2.chol(V0[0, 0], V0[0, 1], V0[1, 1])
    best, best_val = None, _SENTINEL
    for eps0, fac in ((0.5, 1.0), (0.1, 3.0), (0.9, 1.0 / 3.0)):
        r = math.sqrt(fac)
        try:
            res = optimize.minimize(
                _mix_negloglik_grad, [special.logit(eps0), l11 * r, l21 * r, l22 * r],
                args=(d1, d2, na, nb, nc), method="L-BFGS-B", jac=True,
                bounds=_BOUNDS, options=_LBFGS_OPTIONS,
            )
        except ValueError:
            continue
        if res.fun < best_val:
            best, best_val = res, res.fun
    if best is None:
        warnings.warn("mixture fit failed; falling back to moment estimates",
                      stacklevel=3)
        s = _stat(coef, 1.0, np.array([[na, nb], [nb, nc]]))
        eps = float(np.clip(np.mean(s > 2.0 * math.log(max(coef.size, 2))),
                            0.01, 0.99))
        return CEBLevelParams(eps=eps, V=V0, converged=False)
    eta, l11, l21, l22 = best.x
    L = np.array([[l11, 0.0], [l21, l22]])
    return CEBLevelParams(eps=float(special.expit(eta)), V=L @ L.T,
                          converged=bool(best.success))


def ceb_posterior_mean(tree, sigma2_hat, noise, return_params=False):
    """Bivariate posterior-mean shrinkage under per-level fitted mixtures.

    Each level is fitted on its coefficients divided by sqrt(sigma2_hat),
    so the fit sees unit noise scale and the estimate scales exactly with
    the input by powers of two; the returned V is rescaled to the data.
    """
    if sigma2_hat <= 0:
        raise ValueError("sigma2_hat must be positive")
    scale = math.sqrt(sigma2_hat)
    details = []
    fits = []
    for i, level in enumerate(tree.details):
        coef = np.asarray(level) / scale
        Sg = noise.matrix(tree.j0 + i)
        na, nb, nc = Sg[0, 0], Sg[0, 1], Sg[1, 1]
        fit = _fit_level(coef, na, nb, nc)
        fits.append(dataclasses.replace(fit, V=sigma2_hat * fit.V))
        va, vb, vc = fit.V[0, 0], fit.V[0, 1], fit.V[1, 1]
        d1, d2 = coef.real, coef.imag
        p_hat = _mixture(special.logit(fit.eps), va, vb, vc,
                         d1, d2, na, nb, nc)[3]

        # shrink matrix V (V + noise)^{-1}, applied as a 2x2 per coefficient
        i1a, i1b, i1c = mat2.inv(na + va, nb + vb, nc + vc)
        s11 = va * i1a + vb * i1b
        s12 = va * i1b + vb * i1c
        s21 = vb * i1a + vc * i1b
        s22 = vb * i1b + vc * i1c
        t1 = p_hat * (s11 * d1 + s12 * d2)
        t2 = p_hat * (s21 * d1 + s22 * d2)
        details.append(scale * (t1 + 1j * t2))
    out = CoeffTree(n=tree.n, j0=tree.j0, approx=tree.approx.copy(),
                    details=details)
    if return_params:
        return out, fits
    return out
