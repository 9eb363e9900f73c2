"""Complex-valued Daubechies wavelet transform with periodic boundaries.

The analysis bank is the symmetric complex Daubechies filter with three
vanishing moments ("scd3", length 6).  Signals of dyadic length n = 2^J
are decomposed down to a coarsest level ``j0``; detail level j holds 2^j
complex coefficients and the remaining 2^j0 scaling coefficients are kept
untouched.

Conventions (these fix the meaning of every downstream covariance):

* analysis step:  out[k] = sum_m  f[m] * x[(2k + m) mod N]   (no conjugate)
* synthesis step: adjoint with conjugated taps, so synthesis(analysis(x)) == x
* flattened coefficient order: scaling block first, then detail levels
  coarse to fine, each in natural position order.  ``build_matrix`` uses
  this order, i.e. W @ x equals the flattened output of :func:`forward`.

Both steps are polyphase filters along the last axis of an array whose
leading axes are independent signals: analysis computes only the kept
(even) outputs from stride-2 slices of a periodic extension, and
synthesis builds each output parity from its own half of the taps.  The
taps are summed in increasing m, so a stack of signals gives bitwise the
rows' one-by-one results, and :func:`build_matrix` and
:func:`noise_scale` are single cascades over stacks of unit vectors.

Stacks: :func:`forward` of an (..., n) array gives one :class:`CoeffTree`
whose ``approx`` and every ``details[i]`` carry the same leading axes,
one row per signal; :func:`inverse` of such a tree returns the (..., n)
signals and one imaginary residual per signal.  A 1-D signal is the
stack with no leading axes.

Because the analysis taps are complex, transforming real white noise
yields correlated real and imaginary parts; :func:`noise_covariance`
extracts the per-level 2x2 unit-noise covariance from diag(W W^T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ComplexFilterPair",
    "CoeffTree",
    "NoiseScale",
    "FilterValidationError",
    "TransformError",
    "load_filters",
    "supported_filters",
    "quadrature_mirror",
    "validate_filter_pair",
    "forward",
    "inverse",
    "synthesize",
    "build_matrix",
    "noise_covariance",
    "noise_scale",
    "default_coarsest_level",
]

DENSE_MATRIX_CAP = 4096


class FilterValidationError(ValueError):
    """A filter bank failed its orthonormality/moment invariants."""


class TransformError(ValueError):
    """Malformed signal or coefficient tree."""


@dataclass(frozen=True)
class ComplexFilterPair:
    """Low-pass/high-pass analysis pair of a complex orthonormal bank."""

    name: str
    low_pass: np.ndarray
    high_pass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "low_pass", np.asarray(self.low_pass, dtype=complex))
        object.__setattr__(self, "high_pass", np.asarray(self.high_pass, dtype=complex))


def quadrature_mirror(low_pass):
    """High-pass taps g[k] = (-1)^k conj(h[L-1-k]) of a low-pass filter."""
    h = np.asarray(low_pass, dtype=complex)
    signs = (-1.0) ** np.arange(len(h))
    return signs * np.conj(h[::-1])


def _scd3_low_pass():
    # Closed form of the length-6 symmetric complex Daubechies filter:
    # sqrt(2)/64 * [-3-i*s, 5-i*s, 30+2i*s, 30+2i*s, 5-i*s, -3-i*s], s = sqrt(15).
    s = math.sqrt(15.0)
    half = np.array([-3.0 - 1j * s, 5.0 - 1j * s, 30.0 + 2j * s])
    return math.sqrt(2.0) / 64.0 * np.concatenate([half, half[::-1]])


_FILTER_TABLE = {
    "scd3": _scd3_low_pass,
}


def supported_filters():
    return sorted(_FILTER_TABLE)


def load_filters(name):
    """Return the validated analysis pair for a named filter bank."""
    key = str(name).lower()
    if key not in _FILTER_TABLE:
        raise FilterValidationError(
            f"unknown filter {name!r}; supported filters: {', '.join(supported_filters())}"
        )
    h = _FILTER_TABLE[key]()
    pair = ComplexFilterPair(name=key, low_pass=h, high_pass=quadrature_mirror(h))
    validate_filter_pair(pair)
    return pair


def validate_filter_pair(pair):
    """Check DC gain, vanishing moment, shift orthonormality and symmetry.

    Raises :class:`FilterValidationError` naming the violated invariant.
    """
    tol = 1e-10
    h = pair.low_pass
    g = pair.high_pass
    L = len(h)
    if len(g) != L:
        raise FilterValidationError(f"{pair.name}: low/high pass length mismatch")
    if abs(h.sum() - math.sqrt(2.0)) > tol:
        raise FilterValidationError(f"{pair.name}: low-pass DC gain is not sqrt(2)")
    if abs(g.sum()) > tol:
        raise FilterValidationError(f"{pair.name}: high-pass does not annihilate constants")
    for m in range(L // 2):
        target = 1.0 if m == 0 else 0.0
        if abs(np.vdot(h[2 * m:], h[: L - 2 * m]) - target) > tol:
            raise FilterValidationError(
                f"{pair.name}: low-pass violates orthonormality at even shift {m}"
            )
        if abs(np.vdot(g[2 * m:], g[: L - 2 * m]) - target) > tol:
            raise FilterValidationError(
                f"{pair.name}: high-pass violates orthonormality at even shift {m}"
            )
    for m in range(-(L // 2) + 1, L // 2):
        lo = max(0, 2 * m)
        hi = min(L, L + 2 * m)
        if abs(np.sum(h[lo - 2 * m: hi - 2 * m] * np.conj(g[lo:hi]))) > tol:
            raise FilterValidationError(
                f"{pair.name}: low/high pass are not mutually orthogonal at shift {m}"
            )
    if not np.allclose(h, h[::-1], atol=tol):
        raise FilterValidationError(f"{pair.name}: low-pass is not symmetric")


@dataclass
class CoeffTree:
    """Pyramid of complex wavelet coefficients of length-2^J signals.

    ``details[i]`` holds the 2^(j0+i) coefficients of detail level j0+i for
    i = 0 .. J-1-j0 along its last axis; ``approx`` holds the 2^j0
    untouched scaling coefficients.  Leading axes, shared by all of them,
    index a stack of signals.
    """

    n: int
    j0: int
    approx: np.ndarray
    details: list = field(default_factory=list)

    @property
    def j_max(self):
        """Finest detail level, log2(n) - 1."""
        return self.n.bit_length() - 2

    @property
    def levels(self):
        """Detail level indices, coarse to fine."""
        return range(self.j0, self.j_max + 1)

    @property
    def detail_count(self):
        return self.n - (1 << self.j0)

    def validate(self):
        shape = np.shape(self.approx)
        if shape[-1:] != (1 << self.j0,):
            raise TransformError("scaling block has wrong length")
        # every level shares the scaling block's leading axes
        expected = [shape[:-1] + (1 << j,) for j in self.levels]
        got = [np.shape(d) for d in self.details]
        if got != expected:
            raise TransformError(f"detail level shapes {got} != expected {expected}")

    def flatten(self):
        """Coefficients in matrix order: scaling block, then levels coarse to fine."""
        return np.concatenate([self.approx, *self.details], axis=-1)


def _check_signal_length(n):
    if n < 4 or n & (n - 1):
        raise TransformError(f"signal length {n} is not a power of two >= 4")
    return n.bit_length() - 1


def _check_levels(j0, J):
    if not 1 <= j0 < J:
        raise TransformError(f"coarsest level {j0} outside valid range [1, {J - 1}]")


def default_coarsest_level(n):
    """Default coarsest level floor(log2(log n) + 1), at least 1."""
    J = _check_signal_length(n)
    j0 = int(math.floor(math.log2(math.log(n)) + 1.0))
    return min(max(j0, 1), J - 1)


def _wrap(a, start, stop):
    """a[..., i mod N] for i in range(start, stop): a periodic extension."""
    N = a.shape[-1]
    pieces = []
    while start < stop:
        k = start % N
        step = min(N - k, stop - start)
        pieces.append(a[..., k:k + step])
        start += step
    return np.concatenate(pieces, axis=-1)


def _bank(filters):
    """(L, 2) analysis taps: low pass in column 0, high pass in column 1."""
    return np.stack([filters.low_pass, filters.high_pass], axis=-1)


def _analysis_step(a, bank):
    # One decimated filtering pass along the last axis, computing only the
    # kept (even) outputs: tap m reads the stride-2 slice starting at m of
    # the input extended periodically by its first L - 1 samples.  Low and
    # high pass are the two rows of one accumulator.
    N = a.shape[-1]
    L = len(bank)
    ext = _wrap(a, 0, N + L - 1)
    taps = bank.reshape((L, 2) + (1,) * a.ndim)
    out = taps[0] * ext[..., 0:N:2]
    for m in range(1, L):
        out += taps[m] * ext[..., m:m + N:2]
    return out[0], out[1]


def _synthesis_step(approx, detail, bank):
    # Adjoint of _analysis_step along the last axis.  Output 2k + p sums
    # conj(h[2q + p]) approx[k - q] + conj(g[2q + p]) detail[k - q] over
    # q = 0 .. L/2 - 1, so each parity has its own L/2 taps per input and
    # no upsampled zeros are added.  Parities are the two accumulator rows.
    M = approx.shape[-1]
    L = len(bank)
    shift = L // 2 - 1
    ext_a = _wrap(approx, -shift, M)
    ext_d = _wrap(detail, -shift, M)
    taps = np.conj(bank).reshape((L, 2) + (1,) * approx.ndim)
    out = taps[0:2, 0] * ext_a[..., shift:]
    for q in range(shift + 1):
        lo = shift - q
        if q:
            out += taps[2 * q: 2 * q + 2, 0] * ext_a[..., lo:lo + M]
        out += taps[2 * q: 2 * q + 2, 1] * ext_d[..., lo:lo + M]
    full = np.empty(approx.shape[:-1] + (2 * M,), dtype=complex)
    full[..., 0::2] = out[0]
    full[..., 1::2] = out[1]
    return full


def _forward_columns(x, j0, filters):
    """Cascade along the last axis of ``x``; returns (approx, [details coarse->fine]).

    Leading axes are independent signals, so a stack of signals runs
    through every level in one call.
    """
    J = x.shape[-1].bit_length() - 1
    bank = _bank(filters)
    a = x.astype(complex)
    details = []
    for _ in range(J - j0):
        a, d = _analysis_step(a, bank)
        details.append(d)
    details.reverse()
    return a, details


def forward(signal, j0, filters):
    """Periodic pyramid decomposition of real signals (..., 2^J) along the last axis."""
    x = np.asarray(signal)
    if np.iscomplexobj(x):
        raise TransformError("forward expects a real-valued signal")
    x = x.astype(float)
    if x.ndim == 0:
        raise TransformError("forward expects a signal, not a scalar")
    if not np.all(np.isfinite(x)):
        raise TransformError("signal contains non-finite values (NaN or inf)")
    n = x.shape[-1]
    _check_levels(j0, _check_signal_length(n))
    approx, details = _forward_columns(x, j0, filters)
    return CoeffTree(n=n, j0=j0, approx=approx, details=details)


def synthesize(tree, filters):
    """Full complex synthesis of a coefficient tree (adjoint of forward)."""
    tree.validate()
    bank = _bank(filters)
    a = np.asarray(tree.approx, dtype=complex)
    for d in tree.details:
        a = _synthesis_step(a, np.asarray(d, dtype=complex), bank)
    return a


def inverse(tree, filters):
    """Reconstruct; returns (real signal, max absolute imaginary residual).

    For a tree produced by :func:`forward` the residual is at float
    round-off; after coefficient shrinkage it measures how far the
    modified coefficients are from the image of a real signal.  A stacked
    tree gives one residual per signal, a 1-D tree a float.
    """
    full = synthesize(tree, filters)
    resid = np.max(np.abs(full.imag), axis=-1)
    return full.real.copy(), resid if resid.ndim else float(resid)


def build_matrix(n, j0, filters):
    """Dense n x n transform matrix W with W @ x == forward(x).flatten().

    Column i is the flattened decomposition of the i-th canonical basis
    vector.  Intended for analysis and testing; n is capped because the
    construction is O(n^2) in memory.
    """
    J = _check_signal_length(n)
    _check_levels(j0, J)
    if n > DENSE_MATRIX_CAP:
        raise TransformError(
            f"dense transform matrix capped at n = {DENSE_MATRIX_CAP}, got {n}")
    # row i of the cascade over the identity is forward(e_i), i.e. W^T
    approx, details = _forward_columns(np.eye(n), j0, filters)
    return np.ascontiguousarray(np.concatenate([approx] + details, axis=-1).T)


@dataclass(frozen=True)
class NoiseScale:
    """Per-level 2x2 covariance of unit white noise after the transform.

    ``sigma[i]`` is the (s11, s12, s22) triple for detail level j0 + i,
    describing Cov[(Re d, Im d)] under input noise of unit variance.  The
    trace of every level is exactly 1.
    """

    n: int
    j0: int
    sigma: np.ndarray

    @property
    def levels(self):
        return range(self.j0, self.n.bit_length() - 1)

    def matrix(self, j):
        """Full 2x2 covariance matrix of detail level j."""
        if not self.j0 <= j < self.n.bit_length() - 1:
            raise ValueError(f"level {j} outside detail range "
                             f"[{self.j0}, {self.n.bit_length() - 2}]")
        s11, s12, s22 = self.sigma[j - self.j0]
        return np.array([[s11, s12], [s12, s22]])


def _sigma_from_selfprod(m):
    """2x2 triple [(1+Re m)/2, Im m / 2, (1-Re m)/2] from diag(W W^T) entries."""
    return np.stack(
        [0.5 * (1.0 + m.real), 0.5 * m.imag, 0.5 * (1.0 - m.real)], axis=-1
    )


def noise_covariance(W, j0):
    """Per-level noise covariance extracted from a dense transform matrix.

    Uses the diagonal of W W^T (plain transpose): for coefficient row w,
    Var(Re) = (1 + Re sum w^2)/2, Var(Im) = (1 - Re sum w^2)/2 and
    Cov(Re, Im) = Im(sum w^2)/2 under unit input noise.  The entries must
    be constant within each detail level (shift structure of the periodic
    transform); a spread above 1e-8 indicates a broken transform.
    """
    W = np.asarray(W)
    n = W.shape[0]
    if W.shape != (n, n):
        raise TransformError("transform matrix must be square")
    J = _check_signal_length(n)
    _check_levels(j0, J)
    diag = np.einsum("ij,ij->i", W, W)
    sigmas = []
    pos = 1 << j0
    for j in range(j0, J):
        block = diag[pos: pos + (1 << j)]
        pos += 1 << j
        spread = np.max(np.abs(block - block[0]))
        if spread > 1e-8:
            raise TransformError(
                f"noise covariance not constant within level {j} (spread {spread:.3e})"
            )
        sigmas.append(_sigma_from_selfprod(np.mean(block)))
    return NoiseScale(n=n, j0=j0, sigma=np.array(sigmas))


def noise_scale(n, j0, filters):
    """Per-level noise covariance without building the dense matrix.

    Row i of one synthesis cascade carries a single unit coefficient at
    position 0 of detail level j0 + i; the conjugated squared sum of the
    row's waveform equals the corresponding diagonal entry of W W^T.
    Agrees with :func:`noise_covariance` to round-off and costs
    O(n log n) instead of O(n^2).
    """
    J = _check_signal_length(n)
    _check_levels(j0, J)
    rows = J - j0
    bank = _bank(filters)
    wave = np.zeros((rows, 1 << j0), dtype=complex)
    for i in range(rows):
        detail = np.zeros((rows, 1 << (j0 + i)), dtype=complex)
        detail[i, 0] = 1.0
        wave = _synthesis_step(wave, detail, bank)
    selfprod = np.conj(np.sum(wave * wave, axis=-1))
    return NoiseScale(n=n, j0=j0, sigma=_sigma_from_selfprod(selfprod))
