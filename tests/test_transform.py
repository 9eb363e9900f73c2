"""Filter bank, pyramid transform, and noise-geometry tests."""

import numpy as np
import pytest

from cgsws import sampler as sp
from cgsws import transform as tr
from cgsws.distributions import make_rng

# reference values for the length-6 symmetric complex Daubechies low-pass
# filter (three vanishing moments), as tabulated in the wavelet literature
_SCD3_LOW = np.array([
    -0.0662912607 - 0.0855816496j,
    0.1104854346 - 0.0855816496j,
    0.6629126074 + 0.1711632992j,
    0.6629126074 + 0.1711632992j,
    0.1104854346 - 0.0855816496j,
    -0.0662912607 - 0.0855816496j,
])


class TestFilterBank:
    def test_matches_published_values(self, filters):
        assert np.allclose(filters.low_pass, _SCD3_LOW, atol=5e-11)

    def test_closed_form_is_exact(self, filters):
        s = np.sqrt(15.0)
        half = np.array([-3 - 1j * s, 5 - 1j * s, 30 + 2j * s])
        expected = np.sqrt(2.0) / 64.0 * np.concatenate([half, half[::-1]])
        assert np.array_equal(filters.low_pass, expected)

    def test_dc_gain(self, filters):
        assert abs(filters.low_pass.sum() - np.sqrt(2)) < 1e-14
        assert abs(filters.high_pass.sum()) < 1e-14

    def test_symmetry(self, filters):
        assert np.allclose(filters.low_pass, filters.low_pass[::-1], atol=0)

    @pytest.mark.parametrize("shift", [0, 1, 2])
    def test_even_shift_orthonormality(self, filters, shift):
        # unit energy at zero shift, orthogonal at every other even shift
        for f in (filters.low_pass, filters.high_pass):
            shifted = np.zeros_like(f)
            shifted[2 * shift:] = f[: len(f) - 2 * shift]
            val = np.sum(f * np.conj(shifted))
            assert abs(val - (1.0 if shift == 0 else 0.0)) < 1e-14

    def test_vanishing_moments(self, filters):
        k = np.arange(6)
        for m in range(3):
            assert abs(np.sum(filters.high_pass * k**m)) < 1e-12

    def test_validate_passes(self, filters):
        tr.validate_filter_pair(filters)  # should not raise

    def test_validate_catches_corruption(self, filters):
        bad = tr.ComplexFilterPair(
            name="bad",
            low_pass=filters.low_pass + 0.01,
            high_pass=filters.high_pass,
        )
        with pytest.raises(tr.FilterValidationError):
            tr.validate_filter_pair(bad)

    def test_unknown_name_lists_supported(self):
        with pytest.raises(ValueError, match="scd3"):
            tr.load_filters("db97")


class TestForwardInverse:
    @pytest.mark.parametrize("n", [8, 64, 256, 1024])
    def test_round_trip(self, filters, n):
        x = make_rng(1, n).standard_normal(n)
        j0 = tr.default_coarsest_level(n)
        rec, resid = tr.inverse(tr.forward(x, j0, filters), filters)
        assert np.max(np.abs(rec - x)) < 1e-10
        assert resid < 1e-10

    def test_constant_signal_kills_details(self, filters):
        n, j0 = 64, 2
        tree = tr.forward(np.full(n, 3.0), j0, filters)
        for level in tree.details:
            assert np.max(np.abs(level)) < 1e-12
        # approximation absorbs the constant with the dyadic gain
        expected = 3.0 * 2 ** ((np.log2(n) - j0) / 2)
        assert np.allclose(tree.approx, expected, atol=1e-10)

    def test_parseval(self, filters):
        x = make_rng(2, 0).standard_normal(128)
        tree = tr.forward(x, 3, filters)
        energy = np.sum(np.abs(tree.flatten()) ** 2)
        assert abs(energy - np.sum(x**2)) < 1e-9

    def test_linearity(self, filters):
        r = make_rng(3, 0)
        x, y = r.standard_normal(64), r.standard_normal(64)
        a = tr.forward(2.0 * x - 3.0 * y, 2, filters).flatten()
        b = 2.0 * tr.forward(x, 2, filters).flatten() - 3.0 * tr.forward(
            y, 2, filters).flatten()
        assert np.allclose(a, b, atol=1e-12)

    def test_rejects_bad_inputs(self, filters):
        with pytest.raises(tr.TransformError):
            tr.forward(np.ones(12), 1, filters)          # not a power of two
        with pytest.raises(tr.TransformError):
            tr.forward(np.ones(16) + 0j, 1, filters)     # complex input
        with pytest.raises(tr.TransformError):
            tr.forward(np.float64(1.0), 1, filters)      # 0-d, not a signal
        with pytest.raises(tr.TransformError):
            tr.forward(np.ones(16), 4, filters)          # j0 too deep
        with pytest.raises(tr.TransformError):
            tr.forward(np.ones(16), 0, filters)
        for bad in (np.nan, np.inf):
            with pytest.raises(tr.TransformError, match="non-finite"):
                tr.forward(np.r_[np.ones(15), bad], 1, filters)

    def test_inverse_rejects_mismatched_leading_axes(self, filters):
        tree = tr.forward(np.zeros((2, 16)), 1, filters)
        tree.details[-1] = np.zeros((3, 8), dtype=complex)
        with pytest.raises(tr.TransformError, match="shapes"):
            tr.inverse(tree, filters)

    def test_tree_structure(self, filters):
        tree = tr.forward(np.zeros(256), 3, filters)
        assert list(tree.levels) == [3, 4, 5, 6, 7]
        assert [len(d) for d in tree.details] == [8, 16, 32, 64, 128]
        assert len(tree.approx) == 8
        assert tree.detail_count == 248


class TestMatrixForm:
    @pytest.mark.parametrize("n,j0", [(8, 1), (64, 2), (256, 3)])
    def test_unitarity(self, filters, n, j0):
        W = tr.build_matrix(n, j0, filters)
        gram = W @ W.conj().T
        assert np.max(np.abs(gram - np.eye(n))) < 1e-9

    def test_matrix_matches_forward(self, filters):
        x = make_rng(5, 0).standard_normal(64)
        W = tr.build_matrix(64, 2, filters)
        assert np.allclose(W @ x, tr.forward(x, 2, filters).flatten(), atol=1e-12)

    def test_size_cap(self, filters):
        with pytest.raises(ValueError):
            tr.build_matrix(8192, 3, filters)


class TestNoiseScale:
    def test_unit_trace(self, filters):
        ns = tr.noise_scale(256, 3, filters)
        traces = ns.sigma[:, 0] + ns.sigma[:, 2]
        assert np.max(np.abs(traces - 1.0)) < 1e-12

    def test_dense_and_fast_paths_agree(self, filters):
        W = tr.build_matrix(128, 3, filters)
        dense = tr.noise_covariance(W, 3)
        fast = tr.noise_scale(128, 3, filters)
        assert np.max(np.abs(dense.sigma - fast.sigma)) < 1e-12

    def test_within_level_constancy_enforced(self, filters):
        # corrupting one matrix row breaks the per-level constancy check
        W = tr.build_matrix(64, 2, filters)
        W[-1] *= 1.05
        with pytest.raises(ValueError, match="level"):
            tr.noise_covariance(W, 2)

    def test_monte_carlo_covariance(self, filters):
        n, j0, reps = 64, 2, 20_000
        sigma = 1.5
        W = tr.build_matrix(n, j0, filters)
        noise = sigma * make_rng(6, 0).standard_normal((n, reps))
        coef = W @ noise
        ns = tr.noise_scale(n, j0, filters)
        start = 2**j0
        for i, j in enumerate(ns.levels):
            size = 2**j
            block = coef[start: start + size].ravel()
            start += size
            prods = np.stack([
                block.real**2, block.real * block.imag, block.imag**2,
            ])
            emp = prods.mean(axis=1)
            se = prods.std(axis=1, ddof=1) / np.sqrt(prods.shape[1])
            assert np.all(np.abs(emp - sigma**2 * ns.sigma[i]) < 3.0 * se)

    def test_matrix_view(self, filters):
        ns = tr.noise_scale(64, 2, filters)
        M = ns.matrix(3)
        assert M.shape == (2, 2) and M[0, 1] == M[1, 0]
        with pytest.raises(ValueError):
            ns.matrix(1)  # below the coarsest detail level


class TestDefaultCoarsestLevel:
    @pytest.mark.parametrize("n,expected", [(256, 3), (512, 3), (1024, 3),
                                            (4096, 4), (16, 2), (8, 2)])
    def test_values(self, n, expected):
        assert tr.default_coarsest_level(n) == expected


# ---------------------------------------------------------------------------
# bitwise oracle: the np.roll pyramid the polyphase steps replaced, verbatim


def _roll_analysis_step(a, h, g):
    # One decimated filtering pass; works on (N,) or (N, B) arrays.
    low = h[0] * a
    high = g[0] * a
    for m in range(1, len(h)):
        rolled = np.roll(a, -m, axis=0)
        low = low + h[m] * rolled
        high = high + g[m] * rolled
    return low[::2], high[::2]


def _roll_synthesis_step(approx, detail, h, g):
    n = 2 * approx.shape[0]
    up_a = np.zeros((n,) + approx.shape[1:], dtype=complex)
    up_d = np.zeros_like(up_a)
    up_a[::2] = approx
    up_d[::2] = detail
    out = np.conj(h[0]) * up_a + np.conj(g[0]) * up_d
    for m in range(1, len(h)):
        out = out + np.conj(h[m]) * np.roll(up_a, m, axis=0)
        out = out + np.conj(g[m]) * np.roll(up_d, m, axis=0)
    return out


def _roll_forward(x, j0, filters):
    """(approx, details coarse->fine) of the columns of ``x``."""
    a = x.astype(complex)
    details = []
    for _ in range(x.shape[0].bit_length() - 1 - j0):
        a, d = _roll_analysis_step(a, filters.low_pass, filters.high_pass)
        details.append(d)
    return a, details[::-1]


def _roll_synthesize(approx, details, filters):
    a = approx
    for d in details:
        a = _roll_synthesis_step(a, d, filters.low_pass, filters.high_pass)
    return a


def _roll_noise_sigma(n, j0, filters):
    J = n.bit_length() - 1
    sigmas = []
    for j in range(j0, J):
        details = [np.zeros(1 << lev, dtype=complex) for lev in range(j0, J)]
        details[j - j0][0] = 1.0
        wave = _roll_synthesize(np.zeros(1 << j0, dtype=complex), details, filters)
        sigmas.append(tr._sigma_from_selfprod(np.conj(np.sum(wave * wave))))
    return np.array(sigmas)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_ALL_SHAPES = [(1 << J, j0) for J in range(2, 13) for j0 in range(1, J)]


class TestPolyphaseOracle:
    @pytest.mark.parametrize("n,j0", _ALL_SHAPES)
    def test_forward_inverse_noise_scale_bitwise(self, filters, n, j0):
        rng = make_rng(n, j0)
        for x in (rng.standard_normal(n), np.zeros(n)):
            tree = tr.forward(x, j0, filters)
            approx, details = _roll_forward(x, j0, filters)
            assert _same_bits(tree.approx, approx)
            assert len(tree.details) == len(details)
            assert all(_same_bits(a, b) for a, b in zip(tree.details, details))
            rec, resid = tr.inverse(tree, filters)
            full = _roll_synthesize(approx, details, filters)
            assert _same_bits(rec, full.real)
            assert resid == float(np.max(np.abs(full.imag)))
        # a shrunk tree: half of the coefficients zeroed, the rest complex
        flat = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        flat[rng.random(n) < 0.5] = 0.0
        parts = np.split(flat, [1 << j for j in range(j0, n.bit_length() - 1)])
        tree = tr.CoeffTree(n=n, j0=j0, approx=parts[0], details=parts[1:])
        assert _same_bits(tr.synthesize(tree, filters),
                          _roll_synthesize(tree.approx, tree.details, filters))
        assert _same_bits(tr.noise_scale(n, j0, filters).sigma,
                          _roll_noise_sigma(n, j0, filters))

    @pytest.mark.parametrize("n,j0", [s for s in _ALL_SHAPES if s[0] <= 256])
    def test_dense_matrix_bitwise(self, filters, n, j0):
        W = tr.build_matrix(n, j0, filters)
        approx, details = _roll_forward(np.eye(n), j0, filters)
        expected = np.concatenate([approx] + details, axis=0)
        assert W.flags.c_contiguous
        assert _same_bits(W, expected)
        assert _same_bits(tr.noise_covariance(W, j0).sigma,
                          tr.noise_covariance(expected, j0).sigma)

    @pytest.mark.parametrize("n", [4, 8, 64, 1024])
    def test_stack_matches_rows(self, filters, n):
        bank = tr._bank(filters)
        rng = make_rng(7, n)
        stack = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        low, high = tr._analysis_step(stack, bank)
        up = tr._synthesis_step(low, high, bank)
        for r in range(3):
            row_low, row_high = tr._analysis_step(stack[r], bank)
            assert _same_bits(low[r], row_low) and _same_bits(high[r], row_high)
            assert _same_bits(up[r], tr._synthesis_step(row_low, row_high, bank))
        if n > 4:
            real = stack.real.copy()
            approx, details = tr._forward_columns(real, 1, filters)
            for r in range(3):
                tree = tr.forward(real[r], 1, filters)
                assert _same_bits(approx[r], tree.approx)
                assert all(_same_bits(d[r], e) for d, e in zip(details, tree.details))
            # the public pipeline on the stack: forward, MAD, elicitation and
            # inverse each give bitwise the rows' one-by-one results
            j0 = 2
            noise = tr.noise_scale(n, j0, filters)
            trees = tr.forward(real, j0, filters)
            rec, resid = tr.inverse(trees, filters)
            s2 = sp.estimate_sigma2_mad(trees)
            hp = sp.elicit(trees, noise)
            assert rec.shape == real.shape and resid.shape == s2.shape == hp.b.shape == (3,)
            for r in range(3):
                tree = tr.forward(real[r], j0, filters)
                assert _same_bits(trees.approx[r], tree.approx)
                assert all(_same_bits(d[r], e) for d, e in zip(trees.details, tree.details))
                row_rec, row_resid = tr.inverse(tree, filters)
                assert _same_bits(rec[r], row_rec) and resid[r] == row_resid
                assert s2[r] == sp.estimate_sigma2_mad(tree)
                row_hp = sp.elicit(tree, noise)
                assert hp.b[r] == row_hp.b and _same_bits(hp.A[r], row_hp.A)
