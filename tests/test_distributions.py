"""Distributional checks for the variate generators and the reference densities.

Every sampler is compared against an independent reference: scipy's
distribution machinery where a matching family exists, Bessel-function
moment formulas, or direct quadrature of the log densities in
``oracles.py``, which are themselves checked against scipy here.  All
seeds are pinned, so the Kolmogorov-Smirnov p-value floors are
deterministic rather than flaky.
"""

import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate, special, stats

import oracles
from cgsws import distributions as dist
from cgsws import make_rng, mat2

KS_FLOOR = 1e-2


class TestMakeRng:
    def test_same_pair_reproduces(self):
        a = make_rng(123, 4).standard_normal(16)
        b = make_rng(123, 4).standard_normal(16)
        npt.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        a = make_rng(123, 0).standard_normal(16)
        b = make_rng(123, 1).standard_normal(16)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_seeds_are_distinct(self):
        a = make_rng(123, 0).standard_normal(16)
        b = make_rng(124, 0).standard_normal(16)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_default_stream_is_zero(self):
        npt.assert_array_equal(
            make_rng(99).standard_normal(8), make_rng(99, 0).standard_normal(8)
        )


class TestInvGamma:
    """IG(shape, scale) with density x^(-shape-1) exp(-1/(scale*x)).

    scipy's invgamma uses the rate convention, so the reference
    distribution is ``invgamma(shape, scale=1/scale)``.
    """

    def test_kolmogorov_smirnov(self):
        rng = make_rng(20240817, 5)
        x = dist.sample_inv_gamma(4.0, 0.5, rng, size=20000)
        ref = stats.invgamma(4.0, scale=1.0 / 0.5)
        assert stats.kstest(x, ref.cdf).pvalue > KS_FLOOR

    def test_mean(self):
        rng = make_rng(20240817, 5)
        x = dist.sample_inv_gamma(4.0, 0.5, rng, size=20000)
        se = x.std(ddof=1) / np.sqrt(len(x))
        assert abs(x.mean() - 1.0 / (0.5 * 3.0)) < 4 * se

    def test_logpdf_matches_scipy(self):
        xs = np.linspace(0.05, 3.0, 30)
        ours = oracles.inv_gamma_logpdf(xs, 4.0, 0.5)
        ref = stats.invgamma(4.0, scale=2.0).logpdf(xs)
        npt.assert_allclose(ours, ref, atol=1e-12)

    def test_logpdf_normalized(self):
        total, _ = integrate.quad(
            lambda x: np.exp(oracles.inv_gamma_logpdf(x, 2.5, 1.3)), 0.0, np.inf
        )
        assert abs(total - 1.0) < 1e-8

    @pytest.mark.parametrize("shape,scale", [(0.0, 1.0), (-1.0, 1.0), (2.0, 0.0)])
    def test_rejects_bad_parameters(self, shape, scale):
        with pytest.raises(ValueError):
            dist.sample_inv_gamma(shape, scale, make_rng(0))
        with pytest.raises(ValueError):
            oracles.inv_gamma_logpdf(1.0, shape, scale)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_parameters(self, bad):
        # a NaN or infinite shape never accepts a gamma candidate
        for shape, scale in ((bad, 1.0), (2.0, bad), (2.0, np.array([1.0, bad]))):
            with pytest.raises(ValueError, match="finite shape >= 1"):
                dist.sample_inv_gamma(shape, scale, make_rng(0))


class TestGig:
    """GIG(a, b, p) against scipy's geninvgauss.

    In scipy's standardized form our draw matches
    ``geninvgauss(p, sqrt(a*b), scale=sqrt(b/a))``.  The sampler covers
    the sweep's index p = 1/2, including a near-degenerate b; the
    reference density also covers generic p on either side of zero.
    """

    SAMPLED = [
        (0.5, 0.25, 1.7),
        (0.5, 0.25, 1e-6),
    ]
    CASES = SAMPLED + [
        (-0.5, 2.0, 3.0),
        (1.3, 2.0, 3.0),
        (1.5, 1.0 / 6.0, 0.9),
        (-2.2, 0.8, 1.1),
        (0.25, 4.0, 0.05),
        (3.0, 1e-3, 2.0),
    ]

    @pytest.mark.parametrize("p,a,b", SAMPLED)
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_kolmogorov_smirnov(self, p, a, b):
        rng = make_rng(20240817, 7)
        x = dist.sample_gig(a, b, rng, size=20000)
        ref = stats.geninvgauss(p, np.sqrt(a * b), scale=np.sqrt(b / a))
        assert stats.kstest(x, ref.cdf).pvalue > KS_FLOOR

    @pytest.mark.parametrize("p,a,b", SAMPLED)
    def test_mean_matches_bessel_ratio(self, p, a, b):
        rng = make_rng(20240817, 7)
        x = dist.sample_gig(a, b, rng, size=20000)
        omega = np.sqrt(a * b)
        mean = np.sqrt(b / a) * special.kve(p + 1, omega) / special.kve(p, omega)
        se = x.std(ddof=1) / np.sqrt(len(x))
        assert abs(x.mean() - mean) < 4 * se

    @pytest.mark.parametrize("p,a,b", CASES)
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_logpdf_matches_scipy(self, p, a, b):
        ref = stats.geninvgauss(p, np.sqrt(a * b), scale=np.sqrt(b / a))
        xs = ref.ppf(np.linspace(0.05, 0.95, 13))
        npt.assert_allclose(oracles.gig_logpdf(xs, a, b, p), ref.logpdf(xs), atol=1e-10)

    @pytest.mark.parametrize("p", [0.5])
    def test_half_integer_accepts_arrays(self, p):
        a = np.array([0.5, 2.0, 7.0])
        b = np.array([1.0, 0.2, 3.0])
        x = dist.sample_gig(a, b, make_rng(20240817, 13), size=3)
        assert x.shape == (3,) and np.all(x > 0)
        # each component follows its own parameter pair
        draws = np.array(
            [
                dist.sample_gig(a, b, make_rng(20240817, 13 + i), size=3)
                for i in range(4000)
            ]
        )
        omega = np.sqrt(a * b)
        mean = np.sqrt(b / a) * special.kve(p + 1, omega) / special.kve(p, omega)
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se)

    @pytest.mark.parametrize("q", [1e-30, 1e-12])
    def test_tiny_b_is_finite_and_unbiased(self, q):
        # GIG(1/4, q, 1/2) tends to Ga(1/2, scale 8), mean 4, as q -> 0;
        # the small inverse-Gaussian root is mu^2/x_large, so no draw overflows
        x = dist.sample_gig(0.25, q, make_rng(20240817, 57), size=100_000)
        assert np.all(np.isfinite(x))
        se = x.std(ddof=1) / np.sqrt(len(x))
        assert abs(x.mean() - 4.0) < 4 * se

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-2.0, 1.0)])
    def test_rejects_bad_parameters(self, a, b):
        with pytest.raises(ValueError):
            dist.sample_gig(a, b, make_rng(0))
        with pytest.raises(ValueError):
            oracles.gig_logpdf(1.0, a, b, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_parameters(self, bad):
        for a, b in ((bad, 1.0), (1.0, bad), (1.0, np.array([1.0, bad]))):
            with pytest.raises(ValueError, match="finite a > 0 and b > 0"):
                dist.sample_gig(a, b, make_rng(0))

    def test_logpdf_normalized(self):
        for p, a, b in [(0.5, 2.0, 8.0), (1.7, 0.6, 1.1)]:
            total, _ = integrate.quad(
                lambda x: np.exp(oracles.gig_logpdf(x, a, b, p)), 0.0, np.inf
            )
            assert abs(total - 1.0) < 1e-8


class TestInvWishart:
    A = np.array([[2.0, 0.7], [0.7, 1.5]])
    DOF = 10.0

    @pytest.fixture()
    def draws(self):
        rng = make_rng(20240817, 9)
        return dist.sample_inv_wishart(self.A, self.DOF, rng, size=40000)

    def test_every_draw_is_spd_symmetric(self, draws):
        assert draws.shape == (40000, 2, 2)
        npt.assert_array_equal(draws[:, 0, 1], draws[:, 1, 0])
        dets = draws[:, 0, 0] * draws[:, 1, 1] - draws[:, 0, 1] ** 2
        assert np.all(draws[:, 0, 0] > 0) and np.all(dets > 0)

    def test_mean(self, draws):
        expect = self.A / (self.DOF - 3.0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - expect) < 4 * se)

    def test_inverse_is_wishart_mean(self, draws):
        # C ~ IW(A, dof) implies E[C^-1] = dof * A^-1
        inv = np.linalg.inv(draws)
        expect = self.DOF * np.linalg.inv(self.A)
        se = inv.std(axis=0, ddof=1) / np.sqrt(len(inv))
        assert np.all(np.abs(inv.mean(axis=0) - expect) < 4 * se)

    @pytest.mark.parametrize("idx", [0, 1])
    def test_diagonal_marginal(self, draws, idx):
        # 2x2 marginal: C_ii ~ IG with shape (dof-1)/2, rate A_ii/2
        ref = stats.invgamma((self.DOF - 1.0) / 2.0, scale=self.A[idx, idx] / 2.0)
        assert stats.kstest(draws[:, idx, idx], ref.cdf).pvalue > KS_FLOOR

    def test_single_draw_shape(self):
        c = dist.sample_inv_wishart(self.A, self.DOF, make_rng(0))
        assert c.shape == (2, 2) and c[0, 0] > 0

    def test_rejects_low_dof(self):
        with pytest.raises(ValueError, match="dof > 3"):
            dist.sample_inv_wishart(self.A, 3.0, make_rng(0))

    @pytest.mark.parametrize("dof", [np.nan, np.inf])
    def test_rejects_non_finite_dof(self, dof):
        # a NaN or infinite dof never accepts its Bartlett gamma candidates
        with pytest.raises(ValueError, match="finite dof > 3"):
            dist.sample_inv_wishart(self.A, dof, make_rng(0))

    def test_rejects_non_spd_scale(self):
        with pytest.raises(ValueError):
            dist.sample_inv_wishart(np.array([[1.0, 2.0], [2.0, 1.0]]), 8.0, make_rng(0))
        with pytest.raises(ValueError):
            dist.sample_inv_wishart(np.eye(3), 8.0, make_rng(0))


class TestBinormal:
    """The theta update's binormal: mean plus Cholesky factor times block normals."""

    MEAN = np.array([1.0, -2.0])
    COV = np.array([[1.2, -0.4], [-0.4, 0.8]])

    def test_moments(self):
        size = 60000
        g = dist.Variates.draw(make_rng(20240817, 11), 0, 2 * size).standard_normal(
            (size, 2))
        l11, l21, l22 = mat2.chol(self.COV[0, 0], self.COV[0, 1], self.COV[1, 1])
        x = np.stack([self.MEAN[0] + l11 * g[:, 0],
                      self.MEAN[1] + l21 * g[:, 0] + l22 * g[:, 1]], axis=-1)
        assert x.shape == (60000, 2)
        npt.assert_allclose(x.mean(axis=0), self.MEAN, atol=0.02)
        npt.assert_allclose(np.cov(x.T), self.COV, atol=0.02)


class TestSmallFamilies:
    """The transforms behind the v prior, eps and z draws of the sweep."""

    def test_gamma_moments(self):
        rng = make_rng(20240817, 15)
        x = 8.0 * dist._gamma_three_halves(rng.standard_normal(40000), rng.random(40000))
        se = x.std(ddof=1) / np.sqrt(len(x))
        assert abs(x.mean() - 12.0) < 4 * se

    def test_beta_moments(self):
        xy = dist._gamma(np.broadcast_to([3.0, 5.0], (40000, 2)), make_rng(20240817, 15))
        x = dist._beta_from_gammas(xy)
        se = x.std(ddof=1) / np.sqrt(len(x))
        assert abs(x.mean() - 3.0 / 8.0) < 4 * se

    def test_bernoulli_frequency(self):
        # the z update keeps a coefficient when its block uniform is below p
        p = np.array([0.0, 0.25, 1.0])
        draws = np.array(
            [dist.Variates.draw(make_rng(20240817, 17 + i), 3, 0).random((3,)) < p
             for i in range(4000)],
            dtype=float,
        )
        freq = draws.mean(axis=0)
        assert freq[0] == 0.0 and freq[2] == 1.0
        assert abs(freq[1] - 0.25) < 4 * np.sqrt(0.25 * 0.75 / 4000)

    def test_rejects_bad_parameters(self):
        # Marsaglia-Tsang needs shape >= 1, so the public sampler refuses less
        with pytest.raises(ValueError, match="shape >= 1"):
            dist.sample_inv_gamma(0.5, 1.0, make_rng(0))
        with pytest.raises(ValueError, match="shape >= 1"):
            dist.sample_inv_gamma(0.999, np.array([1.0, 2.0]), make_rng(0))


class TestGammaTransform:
    """Marsaglia-Tsang gamma from the raw blocks and its redrawn rejections."""

    @pytest.mark.parametrize("shape", [1.0, 1.5, 5.0, 2041.0])
    def test_kolmogorov_smirnov(self, shape):
        # each draw takes a first and a spare candidate from the blocks;
        # rejections are most frequent at shape 1, about 5 % of the
        # candidates, so both are rejected for some draws there and the
        # redraws from the generator are exercised too
        n = 20000
        variates = dist.Variates.draw(make_rng(20240817, 19), 2 * n, 2 * n)
        x = dist._gamma(shape, variates, (n,))
        assert stats.kstest(x, stats.gamma(shape).cdf).pvalue > KS_FLOOR

    def test_three_halves_kolmogorov_smirnov(self):
        rng = make_rng(20240817, 19)
        x = dist._gamma_three_halves(rng.standard_normal(20000), rng.random(20000))
        assert stats.kstest(x, stats.gamma(1.5).cdf).pvalue > KS_FLOOR

    # three replicates of four draws each, a first and a spare candidate
    # per draw; a normal of -50 makes 1 + c*x negative, which always
    # rejects, and a normal of 0 with a uniform of 1/2 accepts d = shape
    # - 1/3 exactly.  Replicate 0 rejects nothing, replicate 1 rejects
    # both candidates of draws 0, 2 and 3, and replicate 2 of all four;
    # with seed 32 both of them need a second round of redraws
    SHAPES = np.array([[1.0, 1.5, 5.0, 2.0]] * 3)
    NORMAL = np.tile([[0.0, 0.0, 0.0, 0.0],
                      [-50.0, 0.0, -50.0, -50.0],
                      [-50.0, -50.0, -50.0, -50.0]], 2)
    UNIFORM = np.full((3, 8), 0.5)
    SEED = 32

    def hand_made(self, rows):
        gens = [make_rng(self.SEED, r) for r in rows]
        return dist.Variates(gens, self.UNIFORM[rows], self.NORMAL[rows])

    def test_rejections_redraw_round_by_round(self):
        batch = dist._gamma(self.SHAPES, self.hand_made([0, 1, 2]), (3, 4))
        d = self.SHAPES - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        npt.assert_array_equal(batch[0], d[0])
        npt.assert_array_equal(batch[1, 1], d[1, 1])
        # replay: in each round, the replicate's own generator draws one
        # normal per pending draw, then one uniform per pending draw, in
        # column order
        rounds = []
        for r, pending in ((1, [0, 2, 3]), (2, [0, 1, 2, 3])):
            gen, expect, n = make_rng(self.SEED, r), d[r].copy(), 0
            while pending:
                x = gen.standard_normal(len(pending))
                u = gen.random(len(pending))
                y, ok = dist._marsaglia_tsang(d[r, pending], c[r, pending], x, u)
                expect[pending] = np.where(ok, y, np.nan)
                pending, n = [p for p, keep in zip(pending, ok) if not keep], n + 1
            npt.assert_array_equal(batch[r], expect)
            rounds.append(n)
        assert rounds == [2, 2]
        # each replicate alone, from its own rows and generator, is bitwise
        # its row of the batch
        for r in range(3):
            one = self.hand_made([r])
            alone = dist._gamma(self.SHAPES[r], dist.Variates(
                one.generators[0], one.uniform, one.normal), (4,))
            npt.assert_array_equal(alone, batch[r])

    def test_leftovers_use_only_their_replicate_generator(self):
        variates = self.hand_made([0, 1, 2])
        dist._gamma(self.SHAPES, variates, (3, 4))
        states = [g.bit_generator.state["state"] for g in variates.generators]
        fresh = [make_rng(self.SEED, r).bit_generator.state["state"] for r in range(3)]
        # replicate 0 accepted every block candidate, replicates 1 and 2 redrew
        assert states[0] == fresh[0]
        assert states[1] != fresh[1] and states[2] != fresh[2]

    def test_generator_and_blocks_share_the_rejection_path(self):
        # a plain Generator draws the first and spare candidates itself;
        # blocks holding those same candidates, backed by the generator in
        # the state they leave it in, give the same draws bit for bit and
        # leave it alike
        n = 2000
        direct = make_rng(20240817, 29)
        expect = dist._gamma(1.0, direct, (n,))
        gen = make_rng(20240817, 29)
        x, u, spare_x, spare_u = (gen.standard_normal(n), gen.random(n),
                                  gen.standard_normal(n), gen.random(n))
        variates = dist.Variates(gen, np.concatenate([u, spare_u]),
                                 np.concatenate([x, spare_x]))
        npt.assert_array_equal(dist._gamma(1.0, variates, (n,)), expect)
        assert gen.bit_generator.state == direct.bit_generator.state
        # some draws rejected both candidates and went to the generator
        d = 2.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        first, spare = (dist._marsaglia_tsang(d, c, g, v)[1] for g, v in ((x, u),
                                                                         (spare_x, spare_u)))
        assert not (first | spare).all()


class TestGammaSpare:
    """A gamma's spare candidate stands in for a rejected first one."""

    @staticmethod
    def rejecting_blocks(gen, spare_gen, size):
        """Blocks whose first candidates all reject, with spares from ``spare_gen``.

        A first normal of -1e3 makes 1 + c*x negative at every shape here.
        """
        n = int(np.prod(size))
        uniform = np.concatenate([np.full(n, 0.5), spare_gen.random(n)])
        normal = np.concatenate([np.full(n, -1e3), spare_gen.standard_normal(n)])
        return dist.Variates(gen, uniform, normal)

    def test_spares_follow_the_gamma_law(self):
        # shape 1 and mixed shapes in one call; every draw falls to its
        # spare, and the few spares rejected in turn to the generator
        shapes = np.array([1.0, 1.5, 5.0, 2041.0])
        n = 20000
        variates = self.rejecting_blocks(make_rng(20240817, 43), make_rng(20240817, 41),
                                         (n, 4))
        x = dist._gamma(np.broadcast_to(shapes, (n, 4)), variates, (n, 4))
        assert variates._next == [8 * n, 8 * n]
        for column, shape in zip(x.T, shapes):
            assert stats.kstest(column, stats.gamma(shape).cdf).pvalue > KS_FLOOR
            assert abs(column.mean() - shape) < 4.0 * np.sqrt(shape / n)
        # at shape 1 some spares were rejected too, so the generator's rounds ran
        spare_x = variates.normal[0, 4 * n:].reshape(n, 4)[:, 0]
        spare_u = variates.uniform[0, 4 * n:].reshape(n, 4)[:, 0]
        d = 2.0 / 3.0
        assert not dist._marsaglia_tsang(d, 1.0 / np.sqrt(9.0 * d), spare_x, spare_u)[1].all()

    def test_batch_is_each_replicate_alone_through_spares_and_rounds(self):
        # replicate 0 accepts every first candidate; replicates 1 and 2
        # reject every first one, and replicate 2 the spares of draws 0 and
        # 3 as well, which go to its generator's rounds
        shapes = np.array([[1.0, 1.0, 1.5, 5.0, 2041.0]] * 3)
        first = np.full((3, 5), -1e3)
        first[0] = 0.0
        spare = np.zeros((3, 5))
        spare[2, [0, 3]] = -1e3
        normal = np.concatenate([first, spare], axis=1)
        uniform = np.full((3, 10), 0.5)
        gens = [make_rng(34, r) for r in range(3)]
        batch = dist._gamma(shapes, dist.Variates(gens, uniform, normal), (3, 5))
        # a normal of 0 with a uniform of 1/2 accepts d = shape - 1/3 exactly
        d = shapes - 1.0 / 3.0
        npt.assert_array_equal(batch[:2], d[:2])
        npt.assert_array_equal(batch[2, [1, 2, 4]], d[2, [1, 2, 4]])
        assert np.all(batch[2, [0, 3]] != d[2, [0, 3]])
        fresh = [make_rng(34, r).bit_generator.state["state"] for r in range(3)]
        assert [g.bit_generator.state["state"] == f for g, f in zip(gens, fresh)] == [
            True, True, False]
        for r in range(3):
            alone = dist._gamma(shapes[r], dist.Variates(make_rng(34, r), uniform[r],
                                                         normal[r]), (5,))
            npt.assert_array_equal(alone, batch[r])


class TestVariates:
    def test_blocks_are_handed_out_in_order(self):
        variates = dist.Variates.draw(make_rng(5, 1), 6, 4)
        ref = make_rng(5, 1)
        u_ref, g_ref = ref.random(6), ref.standard_normal(4)
        npt.assert_array_equal(variates.random((2,)), u_ref[:2])
        npt.assert_array_equal(variates.random((2, 2)), u_ref[2:6].reshape(2, 2))
        npt.assert_array_equal(variates.standard_normal(4), g_ref[:4])

    def test_batch_rows_are_each_generator_alone(self):
        gens = [make_rng(5, r) for r in range(3)]
        batch = dist.Variates.draw(gens, 4, 6)
        for r in range(3):
            one = dist.Variates.draw(make_rng(5, r), 4, 6)
            npt.assert_array_equal(batch.uniform[r], one.uniform[0])
            npt.assert_array_equal(batch.normal[r], one.normal[0])
        assert batch.standard_normal((3, 2, 3)).shape == (3, 2, 3)

    def test_ragged_normal_is_one_call_per_generator(self):
        # generator r draws its own count after its blocks, whatever the
        # others draw, and a Variates hands out its blocks unchanged
        counts = [3, 0, 5]
        batch = dist.Variates.draw([make_rng(5, r) for r in range(3)], 2, 2)
        got = dist.ragged_normal(batch, np.array(counts))
        assert got.shape == (8,)
        bounds = np.cumsum([0] + counts)
        for r, c in enumerate(counts):
            ref = make_rng(5, r)
            ref.random(2), ref.standard_normal(2)
            npt.assert_array_equal(got[bounds[r]:bounds[r + 1]], ref.standard_normal(c))
        npt.assert_array_equal(batch.random((3, 2)), batch.uniform)

    def test_rejects_overrun_and_missing_batch_axis(self):
        variates = dist.Variates.draw([make_rng(5, 0), make_rng(5, 1)], 3, 3)
        with pytest.raises(ValueError, match="batch"):
            variates.random((3,))
        with pytest.raises(ValueError, match="overruns"):
            variates.random((2, 4))


class TestDensities:
    D = np.array([[0.3, -1.1], [2.0, 0.5]])
    NOISE = np.array([[0.6, 0.1], [0.1, 0.4]])
    SIGNAL = np.array([[1.1, 0.2], [0.2, 0.9]])

    def test_loglik_zero_matches_scipy(self):
        ref = stats.multivariate_normal(np.zeros(2), 1.7 * self.NOISE).logpdf(self.D)
        npt.assert_allclose(oracles.loglik_zero(self.D, 1.7, self.NOISE), ref, atol=1e-12)

    def test_logmarg_matches_scipy(self):
        cov = 1.7 * self.NOISE + 2.3 * self.SIGNAL
        ref = stats.multivariate_normal(np.zeros(2), cov).logpdf(self.D)
        got = oracles.logmarg_signal(self.D, 1.7, self.NOISE, 2.3, self.SIGNAL)
        npt.assert_allclose(got, ref, atol=1e-12)

    def test_logmarg_zero_v_collapses(self):
        got = oracles.logmarg_signal(self.D, 1.7, self.NOISE, 0.0, self.SIGNAL)
        npt.assert_allclose(got, oracles.loglik_zero(self.D, 1.7, self.NOISE), atol=1e-14)

    def test_logmarg_broadcasts_v(self):
        v = np.array([0.0, 2.3])
        got = oracles.logmarg_signal(self.D, 1.7, self.NOISE, v, self.SIGNAL)
        assert got[0] == pytest.approx(oracles.loglik_zero(self.D[0], 1.7, self.NOISE))
        cov = 1.7 * self.NOISE + 2.3 * self.SIGNAL
        assert got[1] == pytest.approx(
            stats.multivariate_normal(np.zeros(2), cov).logpdf(self.D[1])
        )

    def test_loglik_zero_normalized(self):
        total, _ = integrate.dblquad(
            lambda y, x: np.exp(oracles.loglik_zero(np.array([x, y]), 1.0, self.NOISE)),
            -8.0,
            8.0,
            -8.0,
            8.0,
        )
        assert abs(total - 1.0) < 1e-6

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            oracles.loglik_zero(self.D, 0.0, self.NOISE)
        with pytest.raises(ValueError):
            oracles.loglik_zero(self.D, 1.0, np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            oracles.logmarg_signal(self.D, 1.0, self.NOISE, -0.5, self.SIGNAL)
