"""Reference densities the tests compare the sampler's draws and closed forms against.

Conventions match :mod:`cgsws.distributions`: IG(shape, scale) has density
proportional to x^(-shape-1) exp(-1/(scale*x)), and GIG(a, b, p) to
x^(p-1) exp(-(a*x+b/x)/2).  The binormal densities take a noise shape
(and a slab shape) as 2x2 matrices and check that they are SPD.
"""

import math

import numpy as np
from scipy import special

_LOG_2PI = math.log(2.0 * math.pi)


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
