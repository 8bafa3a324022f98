"""Mean-absolute-deviation normalization: references, integer path, theory."""

import math

import numpy as np
import pytest

from irnn.fixedpoint import REQUANT_FRACTION_BITS, FxOverflow, requant_multiplier, to_fixed
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
    requant_rescale,
    sum_rescale,
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


def _round_div(num: int, den: int) -> int:
    """Python big-int num / den, rounded half away from zero."""
    q, r = divmod(abs(num), den)
    q += 2 * r >= den
    return q if num >= 0 else -q


def _clip(v: int, p: QuantParams) -> int:
    return min(max(v, p.qmin), p.qmax)


def _reference_codes(row, px, p_mu, p_xhat, p_d, p_y) -> list:
    """Big-int MadNorm of one row of centered codes, in the uncentered
    four-step form: mean, centering, deviation, division by max(q_d, 1)."""
    f, h = REQUANT_FRACTION_BITS, len(row)
    fx = requant_multiplier(px.scale / (p_mu.scale * h))
    q_mu = _clip(_round_div(fx.raw * sum(row), 2**fx.fraction_bits) + p_mu.zero_point, p_mu)
    raw_a = to_fixed(px.scale / p_xhat.scale, f).raw
    raw_b = to_fixed(p_mu.scale / p_xhat.scale, f).raw
    xhat = [
        _clip(_round_div(raw_a * x + raw_b * (p_mu.zero_point - q_mu), 2**f)
              + p_xhat.zero_point, p_xhat) - p_xhat.zero_point
        for x in row
    ]
    fx = requant_multiplier(p_xhat.scale / (p_d.scale * h))
    q_d = _clip(_round_div(fx.raw * sum(map(abs, xhat)), 2**fx.fraction_bits), p_d)
    raw_y = to_fixed(p_xhat.scale / (p_y.scale * p_d.scale), f).raw
    return [
        _clip(_round_div(raw_y * v, max(q_d, 1) << f) + p_y.zero_point, p_y) for v in xhat
    ]


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
            want = [_reference_codes(r, *args) for r in rows.tolist()]
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
        mean = requant_rescale(
            requant_multiplier(px.scale / (p_mu.scale * h)), p_mu, h * c
        )
        np.testing.assert_array_equal(plan.mean(sums), mean(sums) - p_mu.zero_point)
        xc = np.arange(-px.zero_point, px.qmax - px.zero_point + 1, dtype=np.int64)
        q_mu = np.arange(p_mu.qmax + 1, dtype=np.int64)
        center = sum_rescale(px.scale, p_mu.scale, p_xhat, (c, max_centered(p_mu)))
        np.testing.assert_array_equal(
            plan.center(xc[:, None], (q_mu - p_mu.zero_point)[None, :]),
            center(xc[:, None], (p_mu.zero_point - q_mu)[None, :]) - p_xhat.zero_point,
        )


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
