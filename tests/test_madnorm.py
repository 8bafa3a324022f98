"""Mean-absolute-deviation normalization: references, integer path, theory."""

import math

import numpy as np
import pytest
from bigint_ref import madnorm_codes, round_div

from irnn.fixedpoint import (
    REQUANT_FRACTION_BITS,
    FxOverflow,
    Rescale,
    requant_multiplier,
    to_fixed,
)
from irnn.madnorm import (
    GAUSSIAN_MAD_RATIO,
    MadNormPlan,
    compute_stats,
    concentration_check,
    layernorm_ref,
    madnorm_int,
    madnorm_ref,
    scale_convergence_check,
)
from irnn.quant import (
    Observer,
    QTensor,
    QuantParams,
    derive_params,
    max_centered,
    quantize_tensor,
)


def _gauss(rng, n):
    return rng.normal(0.0, 1.0, size=n)


def _unif(rng, n):
    return rng.uniform(-1.0, 1.0, size=n)


def _expo(rng, n):
    return rng.exponential(1.0, size=n)


class TestStatsAndRefs:
    def test_stats_simple_pair(self):
        st = compute_stats([1.0, -1.0])
        assert st.mu == 0.0
        assert st.d == 1.0
        assert st.sigma_std == 1.0
        assert st.H == 2

    def test_stats_rejects_matrix(self):
        with pytest.raises(ValueError):
            compute_stats(np.zeros((2, 2)))

    def test_madnorm_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            x = rng.normal(0.0, 2.0, size=32)
            mu = x.mean()
            d = np.abs(x - mu).mean()
            np.testing.assert_allclose(madnorm_ref(x), (x - mu) / d)

    def test_unit_mean_absolute_output(self):
        # mean(|y|) = mean(|x - mu|) / d = 1 whenever d > 0
        rng = np.random.default_rng(42)
        for _ in range(20):
            y = madnorm_ref(rng.normal(3.0, 0.5, size=48))
            assert np.abs(y).mean() == pytest.approx(1.0)

    def test_constant_vector_gives_zeros(self):
        np.testing.assert_array_equal(madnorm_ref(np.full(7, 3.3)), np.zeros(7))

    def test_shift_invariance(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=16)
        np.testing.assert_allclose(madnorm_ref(x + 100.0), madnorm_ref(x))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=16)
        np.testing.assert_allclose(madnorm_ref(2.5 * x), madnorm_ref(x))
        np.testing.assert_allclose(madnorm_ref(-x), -madnorm_ref(x))

    def test_proportional_to_layernorm(self):
        # identical direction, lengths differ by sigma/d
        rng = np.random.default_rng(42)
        x = rng.normal(size=64)
        st = compute_stats(x)
        ratio = st.sigma_std / st.d
        np.testing.assert_allclose(
            madnorm_ref(x), layernorm_ref(x) * ratio, rtol=1e-4
        )

    def test_layernorm_standardizes(self):
        rng = np.random.default_rng(42)
        y = layernorm_ref(rng.normal(5.0, 3.0, size=512))
        assert abs(y.mean()) < 1e-12
        assert y.std() == pytest.approx(1.0, abs=1e-4)


def _calibrate(vectors, bitwidth=8):
    """One observer per site over a calibration batch."""
    obs = {k: Observer() for k in ("x", "mu", "xhat", "d", "y")}
    for x in vectors:
        st = compute_stats(x)
        obs["x"].observe(x)
        obs["mu"].observe(np.array([st.mu]))
        obs["xhat"].observe(x - st.mu)
        obs["d"].observe(np.array([st.d]))
        obs["y"].observe(madnorm_ref(x))
    return {k: o.finalize(bitwidth) for k, o in obs.items()}


class TestMadnormInt:
    def test_simple_pair(self):
        px = derive_params(-1.0, 1.0, 8)
        qx = quantize_tensor(np.array([1.0, -1.0]), px)
        qy = madnorm_int(
            qx,
            derive_params(-1.0, 1.0, 8),
            derive_params(-1.0, 1.0, 8),
            derive_params(0.0, 2.0, 8),
            derive_params(-2.0, 2.0, 8),
        )
        np.testing.assert_allclose(qy.dequantize(), [1.0, -1.0], atol=2.0 / 255)

    def test_constant_vector_hits_division_guard(self):
        px = derive_params(-1.0, 1.0, 8)
        qc = quantize_tensor(np.full(8, 0.7), px)
        py = derive_params(-2.0, 2.0, 8)
        qy = madnorm_int(
            qc,
            derive_params(-1.0, 1.0, 8),
            derive_params(-1.0, 1.0, 8),
            derive_params(0.0, 2.0, 8),
            py,
        )
        assert (qy.data == py.zero_point).all()

    def test_matches_reference_random(self):
        rng = np.random.default_rng(42)
        p = _calibrate(rng.normal(0.0, 1.0, size=(1000, 64)))
        sy = p["y"].scale
        means, maxes = [], []
        for x in rng.normal(0.0, 1.0, size=(1000, 64)):
            qx = quantize_tensor(x, p["x"])
            qy = madnorm_int(qx, p["mu"], p["xhat"], p["d"], p["y"])
            err = np.abs(qy.dequantize() - madnorm_ref(qx.dequantize()))
            means.append(err.mean())
            maxes.append(err.max())
        assert np.mean(means) <= 0.5 * sy
        assert np.max(maxes) <= 5.0 * sy

    def test_sixteen_bit_tracks_tighter(self):
        rng = np.random.default_rng(42)
        cal = rng.normal(0.0, 1.0, size=(200, 64))
        p8 = _calibrate(cal, bitwidth=8)
        p16 = _calibrate(cal, bitwidth=16)
        x = rng.normal(0.0, 1.0, size=64)

        def run(p):
            qx = quantize_tensor(x, p["x"])
            qy = madnorm_int(qx, p["mu"], p["xhat"], p["d"], p["y"])
            return np.abs(qy.dequantize() - madnorm_ref(x)).max()

        assert run(p16) < run(p8)
        assert run(p16) <= 1e-3

    def test_rejects_matrix(self):
        px = derive_params(-1.0, 1.0, 8)
        qx = quantize_tensor(np.zeros((2, 2)), px)
        with pytest.raises(ValueError, match="1-D"):
            madnorm_int(qx, px, px, derive_params(0.0, 1.0, 8), px)

    def test_rejects_nonzero_deviation_zero_point(self):
        px = derive_params(-1.0, 1.0, 8)
        qx = quantize_tensor(np.array([1.0, -1.0]), px)
        bad = QuantParams(8, 2.0 / 255, 128)
        with pytest.raises(ValueError, match="code 0"):
            madnorm_int(qx, px, px, bad, px)

    def test_centering_overflow_guard(self):
        px = QuantParams(8, 2.0**41 / 255, 128)
        tiny = QuantParams(8, 2e-6 / 255, 128)
        qx = quantize_tensor(np.array([0.5, -0.5]), px)
        with pytest.raises(FxOverflow):
            madnorm_int(qx, px, tiny, derive_params(0.0, 1.0, 8), px)


class TestPlanExactness:
    """The compiled plan against a big-int reference of the four steps."""

    @staticmethod
    def _rows(rng, px, h):
        lo, hi = -px.zero_point, px.qmax - px.zero_point
        rows = rng.integers(lo, hi, size=(40, h), endpoint=True)
        rows[0] = rows[0, 0]  # zero deviation: the division guard
        rows[1] = lo
        rows[2] = hi
        rows[3, ::2], rows[3, 1::2] = lo, hi
        rows[4] = 0
        # spreads of one code around one value: the smallest deviations
        rows[5:10] = rows[5:10, :1] + rng.integers(-1, 1, size=(5, h), endpoint=True)
        return np.clip(rows, lo, hi)

    def test_one_and_many_rows(self):
        rng = np.random.default_rng(42)
        for bits, h in ((8, 16), (16, 16), (8, 256), (16, 64)):
            p = _calibrate(rng.normal(0.0, 1.0, size=(100, h)), bitwidth=bits)
            args = (p["x"], p["mu"], p["xhat"], p["d"], p["y"])
            plan = MadNormPlan(*args, h)
            rows = self._rows(rng, p["x"], h)
            before = rows.copy()
            want = [madnorm_codes(r, *args) for r in rows.tolist()]
            z_y = p["y"].zero_point
            # [N x h] in one call, and the same rows one at a time
            assert (plan(rows) + z_y).tolist() == want, (bits, h)
            for r, w in zip(rows, want):
                assert (plan(r) + z_y).tolist() == w, (bits, h)
                qx = QTensor((r + p["x"].zero_point).astype(p["x"].dtype), p["x"])
                assert madnorm_int(qx, *args[1:]).data.tolist() == w
            # leading shape [2 x 20 x h], one code path
            stacked = plan(rows.reshape(2, 20, h)) + z_y
            assert stacked.reshape(40, h).tolist() == want
            assert plan(rows[:0]).shape == (0, h)
            np.testing.assert_array_equal(rows, before)

    def test_centered_steps_equal_uncentered_minus_zero(self):
        # every input code of the mean and centering steps, 8-bit sites
        rng = np.random.default_rng(42)
        h = 16
        p = _calibrate(rng.normal(0.0, 1.0, size=(100, h)))
        px, p_mu, p_xhat = p["x"], p["mu"], p["xhat"]
        plan = MadNormPlan(px, p_mu, p_xhat, p["d"], p["y"], h)
        c = max_centered(px)
        sums = np.arange(-h * c, h * c + 1, dtype=np.int64)
        # the references, from requant_multiplier and to_fixed directly
        raw, f = requant_multiplier(px.scale / (p_mu.scale * h))
        mean = Rescale((raw,), f, p_mu.zero_point, p_mu.qmin, p_mu.qmax, bounds=(h * c,))
        np.testing.assert_array_equal(plan.mean(sums), mean(sums) - p_mu.zero_point)
        xc = np.arange(-px.zero_point, px.qmax - px.zero_point + 1, dtype=np.int64)
        q_mu = np.arange(p_mu.qmax + 1, dtype=np.int64)
        f = REQUANT_FRACTION_BITS
        center = Rescale(
            (to_fixed(px.scale / p_xhat.scale, f), to_fixed(p_mu.scale / p_xhat.scale, f)),
            f, p_xhat.zero_point, p_xhat.qmin, p_xhat.qmax, bounds=(c, max_centered(p_mu)),
        )
        np.testing.assert_array_equal(
            plan.center(xc[:, None], (q_mu - p_mu.zero_point)[None, :]),
            center(xc[:, None], (p_mu.zero_point - q_mu)[None, :]) - p_xhat.zero_point,
        )


class TestDivisionProof:
    """The output division's int64 proof counts its rounding add.  With a
    16-bit input, a 32-bit deviation grid at 2^-30 and an output scale near
    2^13, the row below centers to 57343 and seven zeros, its deviation
    saturates at the top code 2^32 - 1, and raw_y * 57343 plus half the
    divisor (2^32 - 1) << 30 passes 2^63 once raw_y is near 2^47."""

    PX = QuantParams(16, 1.0, 32768)
    P_XHAT = QuantParams(16, 1.0, 0)
    P_D = QuantParams(32, 2.0**-30, 0)
    ROW = [32767] + [-32768] * 7

    def _grids(self, p_y):
        return self.PX, self.PX, self.P_XHAT, self.P_D, p_y

    def _y_grid(self, raw):
        """The output grid whose normalization multiplier has this raw."""
        y = 2.0**60 / raw
        for _ in range(1000):
            got = to_fixed(self.P_XHAT.scale / (y * self.P_D.scale), REQUANT_FRACTION_BITS)
            if got == raw:
                return QuantParams(8, y, 128)
            y = np.nextafter(y, np.inf if got > raw else 0.0)
        raise AssertionError(f"no output scale gives raw {raw}")

    def test_numerator_past_int64_refused(self):
        grids = self._grids(QuantParams(8, 2**13 * (1 + 1e-6), 128))
        # what the division owes; an unproven int64 numerator wraps to -2
        assert madnorm_codes(self.ROW, *grids)[0] - 128 == 2
        with pytest.raises(FxOverflow, match="normalization numerator"):
            MadNormPlan(*grids, len(self.ROW))

    def test_largest_admitted_multiplier_is_exact(self):
        num, den = max_centered(self.P_XHAT), self.P_D.qmax
        top = (2**63 - 1 - (den << (REQUANT_FRACTION_BITS - 1))) // num
        grids = self._grids(self._y_grid(top))
        plan = MadNormPlan(*grids, len(self.ROW))
        assert plan.norm.raw == top
        assert plan.norm.fits(num, den) and not plan.norm.fits(num + 1, den)
        row = np.array(self.ROW)
        assert (plan(row) + 128).tolist() == madnorm_codes(self.ROW, *grids)
        # the largest numerator over the largest divisor, both signs
        nums = [num, num - 1, 1, 0, -1, -num]
        want = [round_div(top * v, den << REQUANT_FRACTION_BITS) for v in nums]
        assert plan.norm(np.array(nums), den).tolist() == want
        assert want[0] == 2
        with pytest.raises(FxOverflow, match="normalization numerator"):
            MadNormPlan(*self._grids(self._y_grid(top + 1)), len(self.ROW))


class TestTheory:
    def test_gaussian_mad_to_sigma_ratio(self):
        # E|X - mu| / sigma = sqrt(2/pi) for Gaussians
        d = scale_convergence_check(_gauss, 10**6, 0.0, np.random.default_rng(42))
        assert d == pytest.approx(GAUSSIAN_MAD_RATIO, abs=0.01)

    def test_uniform_mad(self):
        d = scale_convergence_check(_unif, 10**5, 0.0, np.random.default_rng(42))
        assert d == pytest.approx(0.5, abs=0.005)

    def test_exponential_mad(self):
        # E|X - 1| = 2/e for Exp(1)
        d = scale_convergence_check(_expo, 10**6, 1.0, np.random.default_rng(42))
        assert d == pytest.approx(2.0 / math.e, abs=0.005)

    def test_estimate_converges(self):
        errs = [
            abs(scale_convergence_check(_unif, n, 0.0, np.random.default_rng(42)) - 0.5)
            for n in (10**2, 10**4, 10**6)
        ]
        assert errs[2] < errs[0]
        assert errs[2] < 1e-3

    def test_concentration_gaussian(self):
        for k in (2.0, 3.0):
            assert concentration_check(
                _gauss, k, 10**5, 0.0, GAUSSIAN_MAD_RATIO, np.random.default_rng(42)
            )

    def test_concentration_exponential(self):
        assert concentration_check(
            _expo, 3.0, 10**5, 1.0, 2.0 / math.e, np.random.default_rng(42)
        )

    def test_concentration_two_point(self):
        def pm_one(rng, n):
            return rng.choice([-1.0, 1.0], size=n)

        assert concentration_check(pm_one, 1.5, 10**4, 0.0, 1.0)

    def test_concentration_requires_k_above_one(self):
        with pytest.raises(ValueError, match="exceed 1"):
            concentration_check(_gauss, 1.0, 100, 0.0, 1.0)
