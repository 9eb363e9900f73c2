"""Reference densities the tests compare the sampler's draws and closed forms against.

Conventions match :mod:`cgsws.distributions`: IG(shape, scale) has density
proportional to x^(-shape-1) exp(-1/(scale*x)), and GIG(a, b, p) to
x^(p-1) exp(-(a*x+b/x)/2).  The binormal densities take a noise shape
(and a slab shape) as 2x2 matrices and check that they are SPD.

:data:`PLANTED_BUGS` holds wrong full conditionals, at least one per block
of the Gibbs sweep, for the tests of the Geweke check's power.
"""

import math

import numpy as np
from scipy import optimize, special

from cgsws import baselines, sampler

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


# the ceb fit's reference optimiser: scipy's L-BFGS-B with logit eps boxed
# as the polish clips it, and stopped at the polish's tolerances
LBFGS_BOUNDS = [(-30.0, 30.0), (None, None), (None, None), (None, None)]
LBFGS_OPTIONS = {"ftol": 1e-12, "gtol": 1e-5}


def lbfgs_fit(x0, data, na, nb, nc):
    """L-BFGS-B on ``baselines._objective``'s value and gradient from ``x0``; scipy's result."""
    return optimize.minimize(lambda x: baselines._objective(x, data, na, nb, nc)[:2], x0,
                             method="L-BFGS-B", jac=True, bounds=LBFGS_BOUNDS,
                             options=LBFGS_OPTIONS)


def _shrunk_theta_mean(set_data):
    # u = Sigma_j^{-1} d feeds only the theta update's posterior mean
    def bugged(self, flat_complex):
        set_data(self, flat_complex)
        self.u *= 0.95
    return bugged


# name -> (owner, attribute, wrapper of the original); each attribute is a
# name the sampler looks up for one conditional only (a gamma shape is read
# by the sweep's one gamma draw, which also fills a lone update's record)
PLANTED_BUGS = {
    "sigma2-shape": (sampler, "_sigma2_shape", lambda f: lambda model: f(model) + 1.0),
    "eps-prior": (sampler, "_eps_shapes",
                  lambda f: lambda model, kept: f(model, kept) + [0.0, 1.0]),
    "C-dof": (sampler, "_C_shapes", lambda f: lambda model, kept: f(model, kept) + 0.5),
    "C-scale-levels": (sampler, "_C_prior_scale",
                       lambda f: lambda model: tuple(x[..., ::-1] for x in f(model))),
    "v-gig-a": (sampler, "sample_gig",
                lambda f: lambda a, b, rng, size=None: f(1.25 * a, b, rng, size)),
    "z-logit": (sampler, "_inclusion_logit",
                lambda f: lambda state, model: f(state, model) + 0.3),
    "theta-mean": (sampler.GibbsModel, "set_data", _shrunk_theta_mean),
    "theta-sd": (sampler, "ragged_normal",
                 lambda f: lambda rng, counts: 1.1 * f(rng, counts)),
}


def plant_bug(monkeypatch, name):
    """Swap one sampler name for its bugged wrapper until the test ends.

    The bugs: sigma2's inverse gamma shape + 1; eps's prior Beta(1, 2) in
    place of U(0, 1); C's degrees of freedom + 1, which adds 1/2 to both
    Bartlett gamma shapes; C's prior scales A_j taken from the levels in
    reverse order; v's GIG a x 1.25; z's log odds + 0.3; theta's
    posterior mean x 0.95; theta's sd x 1.1.
    """
    owner, attr, wrap = PLANTED_BUGS[name]
    monkeypatch.setattr(owner, attr, wrap(getattr(owner, attr)))
