"""Correctness checks made apart from the program under test.

Each check takes plain arrays and returns a list of failure messages
(empty when the output is acceptable).  The references are computed here
with numpy alone, or are properties the method must have; none of them
compares against a saved copy of earlier output.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Published AMSE of the complex-wavelet Gibbs smoother for doppler,
# n = 256, SNR 5 under the Donoho-Johnstone protocol.
DOPPLER_256_SNR5_AMSE = 0.3119
AMSE_BAND = 0.25

# Posterior mean noise variance must land within this share of the true
# unit variance on the denoise-large signals.  Over 30 noisy bumps at
# n = 4096 and 1000/500 iterations it had mean 0.992 and sd 0.031.
SIGMA2_TOL = 0.15

# Statistics this close to the threshold may fall either side of it
# through round-off between two correct computations.
_THRESHOLD_RTOL = 1e-9


def mse(estimate, truth):
    return float(np.mean((np.asarray(estimate, dtype=float) - truth) ** 2))


def check_denoised(estimate, truth, noisy, sidecar_text):
    """A ``denoise`` output: finite, right length, beats its input, sane sidecar."""
    fails = []
    estimate = np.asarray(estimate, dtype=float)
    if estimate.shape != truth.shape:
        return [f"estimate has shape {estimate.shape}, expected {truth.shape}"]
    if not np.all(np.isfinite(estimate)):
        fails.append("estimate has non-finite samples")
    err, base = mse(estimate, truth), mse(noisy, truth)
    if not err < base:
        fails.append(f"estimate MSE {err:.4g} is not below the noisy input's {base:.4g}")
    try:
        sigma2 = float(json.loads(sidecar_text)["sigma2"])
    except (ValueError, KeyError, TypeError) as exc:
        fails.append(f"sidecar does not parse: {exc}")
    else:
        if not abs(sigma2 - 1.0) <= SIGMA2_TOL:
            fails.append(f"posterior sigma2 {sigma2:.4g} is not within "
                         f"{SIGMA2_TOL:.0%} of the true noise variance 1")
    return fails


def check_reference_amse(mses, reference=DOPPLER_256_SNR5_AMSE, band=AMSE_BAND):
    """AMSE within +-band of the published value; every replicate beats unit noise."""
    mses = np.asarray(mses, dtype=float)
    fails = []
    value = float(mses.mean())
    if not abs(value / reference - 1.0) <= band:
        fails.append(f"AMSE {value:.4f} is outside +-{band:.0%} of the "
                     f"published {reference}")
    if not np.all(mses < 1.0):
        fails.append(f"{int(np.sum(~(mses < 1.0)))} replicate MSEs are not below 1")
    return fails


def check_amse_below_one(mses):
    value = float(np.mean(mses))
    return [] if value < 1.0 else [f"AMSE {value:.4f} is not below 1"]


def check_beats_input(est_mse, noisy_mse, label):
    if est_mse < noisy_mse:
        return []
    return [f"{label}: MSE {est_mse:.4g} is not below the noisy input's {noisy_mse:.4g}"]


def dense_diag_selfprod(n, j0, forward, filters):
    """diag(W W^T) of the dense transform matrix, built one column at a time.

    Column i of W is the flattened decomposition of the i-th unit vector,
    so only the running sum of squared columns is kept (O(n) memory).
    """
    diag = np.zeros(n, dtype=complex)
    e = np.zeros(n)
    for i in range(n):
        e[i] = 1.0
        col = forward(e, j0, filters).flatten()
        diag += col * col
        e[i] = 0.0
    return diag


def noise_shape_from_diag(diag, j0, level_tol=1e-8):
    """Per-level (s11, s12, s22) of unit white noise from diag(W W^T).

    For a coefficient row w, Var(Re) = (1 + Re sum w^2)/2,
    Var(Im) = (1 - Re sum w^2)/2 and Cov = Im(sum w^2)/2.
    """
    n = len(diag)
    J = n.bit_length() - 1
    shapes, pos = [], 1 << j0
    for j in range(j0, J):
        block = diag[pos: pos + (1 << j)]
        pos += 1 << j
        if np.max(np.abs(block - block[0])) > level_tol:
            raise ValueError(f"diag(W W^T) is not constant within level {j}")
        m = block.mean()
        shapes.append([0.5 * (1.0 + m.real), 0.5 * m.imag, 0.5 * (1.0 - m.real)])
    return np.array(shapes)


def check_noise_shape(program_sigma, dense_sigma, atol=1e-12):
    """The program's per-level noise shapes against the dense-matrix ones."""
    program_sigma = np.asarray(program_sigma, dtype=float)
    fails = []
    if program_sigma.shape != dense_sigma.shape:
        return [f"noise shape has shape {program_sigma.shape}, "
                f"expected {dense_sigma.shape}"]
    gap = float(np.max(np.abs(program_sigma - dense_sigma)))
    if not gap <= atol:
        fails.append(f"noise_scale differs from the dense-matrix shape by {gap:.3e}")
    trace_gap = float(np.max(np.abs(program_sigma[:, 0] + program_sigma[:, 2] - 1.0)))
    if not trace_gap <= 1e-10:
        fails.append(f"a level's noise shape has trace off 1 by {trace_gap:.3e}")
    return fails


def mad_sigma2(finest):
    """MAD/0.6745 noise variance of a complex level, real and imaginary summed."""
    def scale(x):
        return np.median(np.abs(x - np.median(x))) / 0.6745
    return scale(finest.real) ** 2 + scale(finest.imag) ** 2


def noise_stat(coef, sigma2, shape):
    """Noise-normalised quadratic form d' (sigma2 Sigma)^{-1} d per coefficient."""
    s11, s12, s22 = shape
    inv = np.linalg.inv(sigma2 * np.array([[s11, s12], [s12, s22]]))
    d = np.stack([coef.real, coef.imag])
    return np.einsum("ik,ij,jk->k", d, inv, d)


def check_keep_or_kill(details_in, details_out, sigma2, shapes, lam):
    """Each coefficient is exactly kept when its statistic exceeds lam, else exactly 0."""
    fails = []
    for j, (d_in, d_out, shape) in enumerate(zip(details_in, details_out, shapes)):
        d_in, d_out = np.asarray(d_in), np.asarray(d_out)
        stat = noise_stat(d_in, sigma2, shape)
        kept = d_out == d_in
        killed = d_out == 0
        if np.any(~(kept | killed)):
            fails.append(f"level {j}: {int(np.sum(~(kept | killed)))} coefficients "
                         "are neither kept nor zeroed")
        clear = np.abs(stat - lam) > _THRESHOLD_RTOL * lam
        wrong = clear & np.where(stat > lam, ~kept, ~killed)
        if np.any(wrong):
            fails.append(f"level {j}: {int(np.sum(wrong))} coefficients on the "
                         f"wrong side of the threshold {lam:.4g}")
    return fails


def check_no_enlargement(details_in, details_out, shapes):
    """No coefficient grows in the noise metric d' Sigma^{-1} d."""
    fails = []
    for j, (d_in, d_out, shape) in enumerate(zip(details_in, details_out, shapes)):
        before = noise_stat(np.asarray(d_in), 1.0, shape)
        after = noise_stat(np.asarray(d_out), 1.0, shape)
        grown = after > before * (1.0 + 1e-9) + 1e-300
        if np.any(grown):
            fails.append(f"level {j}: {int(np.sum(grown))} coefficients enlarged "
                         "in the noise metric")
    return fails


def check_same(first, later, label):
    """Repeated rounds on the same inputs must give bitwise identical output."""
    if len(first) == len(later) and all(np.array_equal(a, b) for a, b in zip(first, later)):
        return []
    return [f"{label}: a repeated round gave different output"]


def universal_threshold(n):
    return 2.0 * math.log(n)
