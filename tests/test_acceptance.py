"""Acceptance suite: one test per shipping criterion, stated tolerances.

These are the binding end-to-end checks for the package: transform
algebra, noise geometry, variate generators, joint correctness of the
Gibbs kernel, desk-scale reproduction of published benchmark values for
this simulation protocol, uniform dominance over the identity
estimator, baseline guarantees, and the command-line workflow.  Each
test is deterministic (pinned seeds) and enforces its own runtime
budget where one is part of the criterion.

Run with ``pytest -v tests/test_acceptance.py`` for the one-line-per-
criterion report.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy import integrate, special

import oracles
from cgsws import baselines as bl
from cgsws import bench as bn
from cgsws import distributions as dist
from cgsws import mat2
from cgsws import transform as tr
from cgsws.cli import main as cli_main
from cgsws.distributions import make_rng
from cgsws.sampler import SamplerConfig, estimate_sigma2_mad

# published AMSE reference values for this benchmark protocol
# (signal, n, snr) -> AMSE, reproduced desk-scale within +/-25%
SPOT_CELLS = {
    ("doppler", 256, 5.0): 0.3119,
    ("blocks", 256, 3.0): 0.4293,
    ("heavisine", 1024, 3.0): 0.0487,
}

DESK_SAMPLER = SamplerConfig(iters=4000, burnin=2000)


def desk_spec(signal, n, snr):
    return bn.BenchmarkSpec(signal=signal, n=n, snr=snr, reps=20,
                            method="cgsws", seed=0, sampler=DESK_SAMPLER)


def test_transform_unitarity_round_trip_parseval():
    t0 = time.perf_counter()
    filters = tr.load_filters("scd3")
    for n in (8, 64, 256):
        j0 = tr.default_coarsest_level(n)
        W = tr.build_matrix(n, j0, filters)
        assert np.max(np.abs(W @ W.conj().T - np.eye(n))) < 1e-9
    rng = make_rng(20240817, 101)
    for _ in range(100):
        y = rng.standard_normal(256)
        tree = tr.forward(y, 3, filters)
        back, resid = tr.inverse(tree, filters)
        assert np.max(np.abs(back - y)) < 1e-9
        assert resid < 1e-9
        coeffs = tree.flatten()
        assert abs(np.sum(np.abs(coeffs) ** 2) - np.sum(y * y)) < 1e-9
    assert time.perf_counter() - t0 < 10.0


def test_noise_covariance_trace_and_monte_carlo():
    t0 = time.perf_counter()
    filters = tr.load_filters("scd3")
    for n in (256, 1024):
        ns = tr.noise_scale(n, 3, filters)
        traces = ns.sigma[:, 0] + ns.sigma[:, 2]
        assert np.max(np.abs(traces - 1.0)) < 1e-10

    # transformed white noise of variance sigma2 must have per-level
    # covariance sigma2 * Sigma_j within 3 SE over 20,000 replicates
    n, j0, sigma2, reps = 256, 3, 1.7, 20000
    W = tr.build_matrix(n, j0, filters)
    noise = tr.noise_scale(n, j0, filters)
    rng = make_rng(20240817, 69)
    D = W @ (rng.standard_normal((n, reps)) * np.sqrt(sigma2))
    start = 1 << j0
    for i, j in enumerate(range(j0, n.bit_length() - 1)):
        size = 1 << j
        re = D[start:start + size, :].real
        im = D[start:start + size, :].imag
        # average within each replicate, then mean/SE across replicates
        prods = np.stack([(re * re).mean(axis=0), (re * im).mean(axis=0),
                          (im * im).mean(axis=0)])
        emp = prods.mean(axis=1)
        se = prods.std(axis=1, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(emp - sigma2 * noise.sigma[i]) < 3.0 * se), (
            f"level {j}: covariance off by more than 3 SE"
        )
        start += size
    assert time.perf_counter() - t0 < 60.0


def test_distribution_moments_and_gig_quadrature_cdf():
    t0 = time.perf_counter()
    N = 100_000

    # closed-form moment checks for every variate family
    x = dist.sample_inv_gamma(62.0, 0.5, make_rng(20240817, 103), size=N)
    se = x.std(ddof=1) / np.sqrt(N)
    assert abs(x.mean() - 1.0 / (0.5 * 61.0)) < 4 * se
    # the diffuse shape-2 operating point has no variance; check its median
    x = dist.sample_inv_gamma(2.0, 1.0, make_rng(20240817, 105), size=N)
    median = 1.0 / special.gammaincinv(2.0, 0.5)  # reciprocal of the gamma median
    assert abs(np.mean(x < median) - 0.5) < 4 * (0.5 / np.sqrt(N))

    # the v prior Ga(3/2, 8), the eps Beta, the z Bernoulli and the theta
    # binormal, each built as the sweep builds it from raw variates
    rng = make_rng(20240817, 107)
    x = 8.0 * dist._gamma_three_halves(rng.standard_normal(N), rng.random(N))
    se = x.std(ddof=1) / np.sqrt(N)
    assert abs(x.mean() - 12.0) < 4 * se
    assert abs(x.var(ddof=1) - 96.0) < 0.05 * 96.0

    x = dist._beta_from_gammas(
        dist._gamma(np.broadcast_to([5.0, 57.0], (N, 2)), make_rng(20240817, 109)))
    se = x.std(ddof=1) / np.sqrt(N)
    assert abs(x.mean() - 5.0 / 62.0) < 4 * se

    x = dist.Variates.draw(make_rng(20240817, 111), N, 0).random((N,)) < 0.25
    assert abs(x.mean() - 0.25) < 4 * np.sqrt(0.25 * 0.75 / N)

    mean = np.array([1.0, -2.0])
    cov = np.array([[1.2, -0.4], [-0.4, 0.8]])
    g = dist.Variates.draw(make_rng(20240817, 113), 0, 2 * N).standard_normal((N, 2))
    l11, l21, l22 = mat2.chol(cov[0, 0], cov[0, 1], cov[1, 1])
    x = np.stack([mean[0] + l11 * g[:, 0],
                  mean[1] + l21 * g[:, 0] + l22 * g[:, 1]], axis=-1)
    assert np.all(np.abs(x.mean(axis=0) - mean) < 4 * np.sqrt(np.diag(cov) / N))
    assert np.allclose(np.cov(x.T), cov, rtol=0.03)

    for q in (4.0, 50.0):
        x = dist.sample_gig(0.25, q, make_rng(20240817, 115), size=N)
        omega = math.sqrt(0.25 * q)
        m_th = math.sqrt(q / 0.25) * special.kve(1.5, omega) / special.kve(0.5, omega)
        se = x.std(ddof=1) / np.sqrt(N)
        assert abs(x.mean() - m_th) < 4 * se

    A = np.array([[2.0, 0.7], [0.7, 1.5]])
    C = dist.sample_inv_wishart(A, 10.0, make_rng(20240817, 117), size=N)
    se = C.std(axis=0, ddof=1) / np.sqrt(N)
    assert np.all(np.abs(C.mean(axis=0) - A / 7.0) < 4 * se)

    # GIG draws against the quadrature CDF of our own density at the
    # sampler's operating points (a = 1/4, p = 1/2): Kolmogorov < 0.01
    for q in (0.5, 4.0, 50.0):
        x = np.sort(dist.sample_gig(0.25, q, make_rng(20240817, 61), size=N))
        grid = np.concatenate([[0.9 * x[0]], np.geomspace(0.9 * x[0] + 1e-12,
                                                          1.1 * x[-1], 400)])

        def pdf(t, q=q):
            return np.exp(oracles.gig_logpdf(t, 0.25, q, 0.5))

        head = integrate.quad(pdf, 0.0, grid[0], limit=200)[0]
        segs = [integrate.quad(pdf, grid[i], grid[i + 1], limit=200)[0]
                for i in range(len(grid) - 1)]
        cdf_grid = np.concatenate([[head], head + np.cumsum(segs)])
        cdf = np.interp(x, grid, cdf_grid)
        up = np.arange(1, N + 1) / N
        lo = np.arange(0, N) / N
        ks = max(np.max(np.abs(up - cdf)), np.max(np.abs(cdf - lo)))
        assert ks < 0.01, f"GIG(0.25, {q}, 0.5): Kolmogorov statistic {ks:.4f}"
    assert time.perf_counter() - t0 < 120.0


def test_joint_sampler_two_simulator_check(monkeypatch):
    t0 = time.perf_counter()
    report = bn.geweke_harness(draws=100_000, seed=0)
    assert len(report.names) >= 6
    assert report.max_abs_z < 4.0, (
        f"clean chain: max |z| = {report.max_abs_z:.2f} over {report.names}"
    )
    oracles.plant_bug(monkeypatch, "sigma2-shape")
    bugged = bn.geweke_harness(draws=20_000, seed=0)
    assert bugged.max_abs_z > 6.0, (
        f"planted bug went undetected: max |z| = {bugged.max_abs_z:.2f}"
    )
    assert time.perf_counter() - t0 < 60.0


def test_benchmark_spot_values_desk_scale():
    t0 = time.perf_counter()
    for (signal, n, snr), target in SPOT_CELLS.items():
        result = bn.run_benchmark(desk_spec(signal, n, snr))
        assert 0.75 * target < result.amse < 1.25 * target, (
            f"{signal}/n={n}/snr={snr:g}: AMSE {result.amse:.4f} outside "
            f"+/-25% of {target}"
        )
    assert time.perf_counter() - t0 < 900.0


@pytest.mark.slow
def test_denoising_beats_unit_noise_everywhere():
    cells = itertools.product(("blocks", "bumps", "doppler", "heavisine"),
                              (256, 1024), (3.0, 10.0))
    # two workers give bitwise one worker's result (tests/test_bench.py) in less time
    for signal, n, snr in cells:
        result = bn.run_benchmark(desk_spec(signal, n, snr), workers=2)
        assert result.amse < 1.0, (
            f"{signal}/n={n}/snr={snr:g}: AMSE {result.amse:.4f} does not "
            "beat the unit noise floor"
        )


def test_baseline_estimator_guarantees():
    filters = tr.load_filters("scd3")
    noise = tr.noise_scale(256, 3, filters)
    for seed in (0, 1, 2):
        truth = bn.rescale_snr(bn.make_test_signal("doppler", 256), 5.0)
        y = truth + make_rng(909, seed).standard_normal(256)
        tree = tr.forward(y, 3, filters)
        s2 = estimate_sigma2_mad(tree)

        hard = bl.cmws_hard(tree, s2, noise)
        for kept, orig in zip(hard.details, tree.details):
            assert np.all((kept == 0) | (kept == np.asarray(orig)))

        ceb = bl.ceb_posterior_mean(tree, s2, noise)
        for i, (shrunk, orig) in enumerate(zip(ceb.details, tree.details)):
            Sg = noise.matrix(3 + i)
            q_out = bl._stat(np.asarray(shrunk), s2, Sg)
            q_in = bl._stat(np.asarray(orig), s2, Sg)
            assert np.all(q_out <= q_in * (1.0 + 1e-10))

        again_h = bl.cmws_hard(tree, s2, noise)
        again_c = bl.ceb_posterior_mean(tree, s2, noise)
        for a, b in zip(hard.details + ceb.details,
                        again_h.details + again_c.details):
            assert np.array_equal(a, b)


def test_denoise_command_workflow(tmp_path):
    t0 = time.perf_counter()
    truth = bn.rescale_snr(bn.make_test_signal("doppler", 4096), 5.0)
    y = truth + make_rng(1001, 0).standard_normal(4096)
    inp = tmp_path / "signal.csv"
    out = tmp_path / "estimate.csv"
    with open(inp, "w") as fh:
        fh.writelines(f"{v:.12g}\n" for v in y)

    code = cli_main(["denoise", str(inp), "--output", str(out), "--seed", "0"])
    assert code == 0

    estimate = np.loadtxt(out)
    assert estimate.shape == (4096,)
    assert np.mean((estimate - truth) ** 2) < np.mean((y - truth) ** 2)

    sidecar = json.loads((tmp_path / "estimate.json").read_text())
    assert sidecar["command"] == "denoise" and sidecar["method"] == "cgsws"
    assert sidecar["n"] == 4096
    assert sidecar["config"]["iters"] == 10_000
    assert sidecar["config"]["burnin"] == 5_000
    assert sidecar["sigma2"] > 0 and sidecar["wall_time_s"] > 0
    assert isinstance(sidecar["eps"], list) and len(sidecar["eps"]) > 0
    assert time.perf_counter() - t0 < 300.0
