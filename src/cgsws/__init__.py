"""Bayesian signal denoising with complex Daubechies wavelets.

A noisy signal is transformed with a symmetric complex-valued wavelet
filter bank, the bivariate (real, imaginary) detail coefficients are
shrunk under a spike-and-slab mixture model fitted by Gibbs sampling,
and the posterior-mean coefficients are transformed back.  Two
deterministic reference estimators (hard keep-or-kill thresholding and
empirical-Bayes posterior-mean shrinkage) share the same transform and
noise-geometry machinery, and a benchmark harness replicates the
standard test-function AMSE protocol.

Quick start::

    import numpy as np
    from cgsws import SamplerConfig, denoise

    y = np.loadtxt("signal.csv")          # length a power of two
    result = denoise(y, SamplerConfig(iters=4000, burnin=2000, seed=1))
    np.savetxt("denoised.csv", result.estimate)
"""

from .baselines import ceb_posterior_mean, cmws_hard
from .bench import (
    BenchmarkResult,
    BenchmarkSpec,
    amse,
    geweke_harness,
    make_test_signal,
    rescale_snr,
    run_benchmark,
)
from .distributions import make_rng
from .sampler import (
    DenoiseResult,
    GibbsModel,
    Hyperparams,
    PosteriorSummary,
    SamplerConfig,
    denoise,
    elicit,
    run_chain,
)
from .transform import (
    CoeffTree,
    ComplexFilterPair,
    NoiseScale,
    default_coarsest_level,
    forward,
    inverse,
    load_filters,
    noise_covariance,
    noise_scale,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ComplexFilterPair",
    "CoeffTree",
    "NoiseScale",
    "load_filters",
    "forward",
    "inverse",
    "synthesize",
    "noise_covariance",
    "noise_scale",
    "default_coarsest_level",
    "make_rng",
    "Hyperparams",
    "SamplerConfig",
    "PosteriorSummary",
    "DenoiseResult",
    "GibbsModel",
    "elicit",
    "run_chain",
    "denoise",
    "cmws_hard",
    "ceb_posterior_mean",
    "make_test_signal",
    "rescale_snr",
    "amse",
    "BenchmarkSpec",
    "BenchmarkResult",
    "run_benchmark",
    "geweke_harness",
]
