"""Benchmark harness: test functions, SNR protocol, AMSE, and a Geweke check.

The simulation protocol matches the usual wavelet-denoising setup: a
test function sampled at t_i = i/n is rescaled so its sample standard
deviation equals the target SNR, unit-variance Gaussian noise is added,
and the estimator's error is averaged over grid points and replications,

    AMSE = 1/(M n) sum_k sum_i (fhat_k(t_i) - f(t_i))^2.

Each replication r owns two generator streams derived from the master
seed — 2r for the noise, 2r + 1 for the chain — and draws from nothing
else.  The deterministic baselines draw no chain, so their cells build
only the noise streams, and their results are bitwise those of a cell
that builds both.  A worker runs its contiguous share of a cell's replications through
one :func:`~cgsws.sampler.denoise` call: the Gibbs smoother as one batched
chain (one numpy call per update for the whole share), a baseline in
stacked chunks of a few replications, with the filters, coarsest level
and noise shape set up once per share.  Since every replication keeps to
its own streams and the batched arithmetic never mixes replications,
neither the batch composition nor the number of workers changes any
result.

:func:`geweke_harness` is a joint-distribution correctness test for the
Gibbs kernel on a deliberately tiny model (Geweke 2004, "Getting it
right"): it compares moments of (parameters, data) under direct
prior-forward simulation against the Markov chain that alternates Gibbs
sweeps with data re-draws.  Any bugged full conditional shifts the
latter's stationary distribution and shows up as a large z-score.  The
chain side runs 100 independent chains as one stacked model through the
same :func:`~cgsws.sampler.sweep` that :func:`~cgsws.sampler.denoise`
runs, each started from its own prior draw, so no step is burn-in; its
standard error is the spread of the 100 chain means.  The tests plant
the bugs that check its power, each by patching one name in the sampler.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import time

import numpy as np

from . import mat2
from .distributions import make_rng, sample_inv_gamma, sample_inv_wishart
from .sampler import (
    METHODS,
    ChainState,
    GibbsModel,
    Hyperparams,
    SamplerConfig,
    _check_integer_fields,
    denoise,
    sweep,
)
from .transform import forward, load_filters, noise_scale

__all__ = [
    "SIGNALS",
    "METHODS",
    "make_test_signal",
    "rescale_snr",
    "amse",
    "BenchmarkSpec",
    "BenchmarkResult",
    "run_benchmark",
    "write_benchmark_csv",
    "write_benchmark_json",
    "GewekeReport",
    "geweke_harness",
]

# Donoho-Johnstone piecewise test functions: jump locations and weights
_DJ_T = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81])
_BLOCKS_H = np.array([4.0, -5.0, 3.0, -4.0, 5.0, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2])
_BUMPS_H = np.array([4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])
_BUMPS_W = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01,
                     0.005, 0.008, 0.005])


def _blocks(t):
    # right-continuous steps: a grid point landing exactly on a jump takes
    # the right-hand value, keeping the range to at most 12 distinct levels
    jumps = (t[:, None] >= _DJ_T[None, :]).astype(float)
    return jumps @ _BLOCKS_H


def _bumps(t):
    shapes = (1.0 + np.abs((t[:, None] - _DJ_T[None, :]) / _BUMPS_W[None, :])) ** -4
    return shapes @ _BUMPS_H


def _heavisine(t):
    return 4.0 * np.sin(4.0 * np.pi * t) - np.sign(t - 0.3) - np.sign(0.72 - t)


def _doppler(t):
    return np.sqrt(t * (1.0 - t)) * np.sin(2.0 * np.pi * 1.05 / (t + 0.05))


SIGNALS = {
    "blocks": _blocks,
    "bumps": _bumps,
    "doppler": _doppler,
    "heavisine": _heavisine,
}


def make_test_signal(name, n):
    """Evaluate a named test function on the grid t_i = i/n, i = 0..n-1."""
    if name not in SIGNALS:
        raise ValueError(
            f"unknown signal '{name}'; choose from {sorted(SIGNALS)}"
        )
    if n < 8:
        raise ValueError("need n >= 8 samples")
    return SIGNALS[name](np.arange(n) / n)


def rescale_snr(f, snr):
    """Scale f so sd(f) = snr, the target ratio against unit noise variance."""
    f = np.asarray(f, dtype=float)
    sd = f.std(ddof=1)
    if sd == 0:
        raise ValueError("cannot set an SNR for a constant signal")
    if not 0 < snr < np.inf:
        raise ValueError("snr must be positive and finite")
    return f * (snr / sd)


def amse(estimates, truth):
    """Mean squared error averaged over replications and grid points."""
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    truth = np.asarray(truth, dtype=float)
    if estimates.shape[1] != truth.shape[0]:
        raise ValueError("estimate length does not match the truth")
    return float(np.mean((estimates - truth[None, :]) ** 2))


@dataclasses.dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark cell: ``reps`` noisy replicates of a test signal at ``snr``, one method.

    Replicate r draws its noise from ``make_rng(seed, 2r)`` and, for the
    Gibbs smoother, its chain from ``make_rng(seed, 2r + 1)``.  The chain
    length, wavelet and j0 come from ``sampler``, whose own ``seed`` the
    benchmark never reads.
    """

    signal: str = "doppler"
    n: int = 256
    snr: float = 5.0
    reps: int = 20
    method: str = "cgsws"
    seed: int = 0
    sampler: SamplerConfig = dataclasses.field(
        default_factory=lambda: SamplerConfig(iters=4000, burnin=2000)
    )

    def __post_init__(self):
        _check_integer_fields(self, "n", "reps", "seed")
        if self.signal not in SIGNALS:
            raise ValueError(f"unknown signal '{self.signal}'")
        if self.method not in METHODS:
            raise ValueError(f"unknown method '{self.method}'")
        if self.n < 32 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two, at least 32")
        if not 0 < self.snr < np.inf:
            raise ValueError("snr must be positive and finite")
        if self.reps < 1:
            raise ValueError("need at least one replication")


@dataclasses.dataclass(frozen=True)
class BenchmarkResult:
    amse: float
    mses: np.ndarray
    elapsed: float
    spec: BenchmarkSpec


def _replicate_share(spec, truth, reps):
    """Replications ``reps`` of a cell as one batch; their squared errors."""
    noisy = np.empty((len(reps), spec.n))
    for row, r in zip(noisy, reps):
        row[:] = truth + make_rng(spec.seed, 2 * r).standard_normal(spec.n)
    # the baselines draw nothing, so only the Gibbs smoother gets chain streams
    chains = ([make_rng(spec.seed, 2 * r + 1) for r in reps]
              if spec.method == "cgsws" else None)
    ests = denoise(noisy, spec.sampler, rng=chains, method=spec.method).estimate
    return [amse(est, truth) for est in ests]


def run_benchmark(spec, workers=1):
    """Replicate the denoising experiment and average the MSEs.

    Deterministic given spec.seed.  The replications are split into
    ``workers`` contiguous shares, each run as one batch (in a separate
    process when workers > 1); the per-replication streams make the
    result identical for any number of workers.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    truth = rescale_snr(make_test_signal(spec.signal, spec.n), spec.snr)
    t0 = time.perf_counter()
    shares = [s for s in np.array_split(np.arange(spec.reps), workers) if len(s)]
    if len(shares) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(shares)) as pool:
            parts = list(pool.map(_replicate_share, [spec] * len(shares),
                                  [truth] * len(shares), shares))
    else:
        parts = [_replicate_share(spec, truth, shares[0])]
    mses = np.array([m for part in parts for m in part])
    return BenchmarkResult(amse=float(mses.mean()), mses=mses,
                           elapsed=time.perf_counter() - t0, spec=spec)


def _spec_fields(spec):
    return {
        "signal": spec.signal,
        "n": spec.n,
        "snr": spec.snr,
        "reps": spec.reps,
        "method": spec.method,
        "seed": spec.seed,
        "iters": spec.sampler.iters,
        "burnin": spec.sampler.burnin,
        "wavelet": spec.sampler.wavelet,
        "j0": spec.sampler.j0,
    }


def write_benchmark_csv(result, path):
    """One row per replication; spec fields and the AMSE are echoed on each."""
    fields = _spec_fields(result.spec)
    with open(path, "w") as fh:
        fh.write(",".join(list(fields) + ["rep", "mse", "amse"]) + "\n")
        prefix = ",".join("" if v is None else str(v) for v in fields.values())
        for rep, mse in enumerate(result.mses):
            fh.write(f"{prefix},{rep},{mse:.10g},{result.amse:.10g}\n")


def write_benchmark_json(result, path):
    """Summary sidecar; excludes wall time so reruns are byte-identical."""
    payload = {
        "spec": _spec_fields(result.spec),
        "amse": result.amse,
        "mses": [float(m) for m in result.mses],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# joint-distribution correctness (two-simulator comparison)


@dataclasses.dataclass(frozen=True)
class GewekeReport:
    names: tuple
    z_scores: np.ndarray
    prior_means: np.ndarray
    chain_means: np.ndarray
    draws: int

    @property
    def max_abs_z(self):
        return float(np.max(np.abs(self.z_scores)))


def _geweke_stats(model, state, d):
    """Monitored functions of (parameters, data), one row per draw; finite prior variance each.

    ``resid_form``, the mean of (d - theta)' Sigma_j^{-1} (d - theta) / sigma2
    over coefficients, has prior mean 2 when d is the data theta was drawn against.
    """
    r = d - state.theta
    return np.stack([
        state.sigma2,
        np.log(state.sigma2),
        state.eps[..., 0], state.eps[..., 1], state.eps[..., 2],
        state.C[..., 0, 0] + state.C[..., 0, 2],
        state.C[..., 1, 0] + state.C[..., 1, 2],
        state.C[..., 2, 0] + state.C[..., 2, 2],
        state.z.mean(axis=-1),
        state.v.mean(axis=-1),
        (d * d).sum(axis=(-1, -2)) / d.shape[-2],
        mat2.quad(*model.isig_coef, r[..., 0], r[..., 1]).mean(axis=-1) / state.sigma2,
    ], axis=-1)


_GEWEKE_NAMES = ("sigma2", "log_sigma2", "eps_lev0", "eps_lev1", "eps_lev2", "tr_C_lev0",
                 "tr_C_lev1", "tr_C_lev2", "mean_z", "mean_v", "mean_d_sq", "resid_form")

# independent chains of the Gibbs-with-redraw simulator, run as one batch
_GEWEKE_CHAINS = 100

# the slab prior scales A_j, coarse level first: distinct and correlated,
# so a sweep that reads A from the wrong level moves the C_j moments; the
# finest is much narrower than the noise, where the slab and the spike overlap
_GEWEKE_A = 7.0 * np.array([[[30.0, 5.0], [5.0, 10.0]],
                            [[4.0, -1.0], [-1.0, 2.0]],
                            [[0.0063, 0.0], [0.0, 0.0063]]])


def _data_draw(model, theta, sigma2, rng):
    """Data given the signal: d = theta + sqrt(sigma2) chol(Sigma_j) h, h ~ N2(0, I)."""
    lev = model.lev_of
    l11, l21, l22 = mat2.chol(*mat2.unpack(model.noise.sigma))
    h = rng.standard_normal(theta.shape)
    s = np.sqrt(sigma2)[..., None]
    d = np.empty_like(theta)
    d[..., 0] = theta[..., 0] + s * l11[lev] * h[..., 0]
    d[..., 1] = theta[..., 1] + s * (l21[lev] * h[..., 0] + l22[lev] * h[..., 1])
    return d


def _prior_draw(model, hp, rng, size):
    """``size`` draws from the joint prior, as a :class:`ChainState` and the data."""
    L, n_det = model.n_levels, model.n_det
    lev = model.lev_of
    sigma2 = sample_inv_gamma(hp.a, hp.b, rng, size=size)
    eps = rng.random((size, L))
    c_tri = np.stack([mat2.from_matrix(sample_inv_wishart(A_j, hp.w, rng, size))
                      for A_j in hp.A], axis=1)
    z = rng.random((size, n_det)) < eps[:, lev]
    v = rng.gamma(1.5, 8.0, size=(size, n_det))
    ca, cb, cc = (v * c_tri[:, lev, i] for i in range(3))
    l11, l21, l22 = mat2.chol(ca, cb, cc)
    g = rng.standard_normal((size, n_det, 2))
    theta = np.empty((size, n_det, 2))
    theta[..., 0] = z * l11 * g[..., 0]
    theta[..., 1] = z * (l21 * g[..., 0] + l22 * g[..., 1])
    state = ChainState(sigma2=sigma2, z=z, eps=eps, theta=theta, v=v, C=None)
    model.set_C(state, c_tri)
    return state, _data_draw(model, theta, sigma2, rng)


def geweke_harness(draws=100_000, seed=0):
    """Two-simulator comparison of prior-forward vs Gibbs-with-redraw moments.

    The model is deliberately tiny: n = 16 and j0 = 1, 14 detail
    coefficients on three levels, with a = 4, b = 1, w = 10 and a slab
    scale A_j of its own at each level (``_GEWEKE_A``).  Simulator 1
    takes ``draws`` independent draws from the joint prior.  Simulator 2
    runs ``_GEWEKE_CHAINS`` chains of ``draws / _GEWEKE_CHAINS`` steps,
    each a Gibbs sweep and a fresh draw of the data given the sampled
    signal, from prior draws, which the chain leaves invariant; ``draws``
    must be a positive multiple of ``_GEWEKE_CHAINS``.  Each step records its
    statistics before the data redraw, so ``resid_form`` sees the data
    that the sweep conditioned on.  Planted bugs live in the tests, which
    patch one name that :mod:`cgsws.sampler` looks up.
    """
    K = _GEWEKE_CHAINS
    if draws < K or draws % K:
        raise ValueError(f"draws must be a positive multiple of {K}, got {draws}")
    n, j0 = 16, 1
    filters = load_filters("scd3")
    tree = forward(np.zeros((K, n)), j0, filters)
    L = len(tree.details)
    hp = Hyperparams(a=4.0, b=1.0, w=10.0, A=_GEWEKE_A)
    model = GibbsModel(tree, noise_scale(n, j0, filters), dataclasses.replace(
        hp, b=np.full(K, hp.b), A=np.broadcast_to(hp.A, (K, L, 2, 2)).copy()))

    # simulator 1: independent draws from the joint prior
    mc = _geweke_stats(model, *_prior_draw(model, hp, make_rng(seed, 0), draws))
    mc_mean = mc.mean(axis=0)
    mc_se = mc.std(axis=0, ddof=1) / np.sqrt(draws)

    # simulator 2: K chains of Gibbs sweeps interleaved with data re-draws
    rng = make_rng(seed, 1)
    chains = [make_rng(seed, 2 + k) for k in range(K)]
    state, d = _prior_draw(model, hp, rng, K)
    steps = draws // K
    sums = np.zeros((K, len(_GEWEKE_NAMES)))
    for _ in range(steps):
        model.set_data(d[..., 0] + 1j * d[..., 1])
        sweep(state, model, chains)
        sums += _geweke_stats(model, state, d)
        d = _data_draw(model, state.theta, state.sigma2, rng)
    chain_means = sums / steps
    sc_mean = chain_means.mean(axis=0)
    sc_se = chain_means.std(axis=0, ddof=1) / np.sqrt(K)

    zsc = (mc_mean - sc_mean) / np.sqrt(mc_se ** 2 + sc_se ** 2)
    return GewekeReport(names=_GEWEKE_NAMES, z_scores=zsc,
                        prior_means=mc_mean, chain_means=sc_mean, draws=draws)
