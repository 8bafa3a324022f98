"""Affine quantization parameters and integer-only arithmetic.

The bit-exact fixtures reproduce published worked examples of the scheme;
those examples round the scale constants to four decimals before doing the
arithmetic, so the fixture params are constructed with the same rounded
constants rather than re-derived exact ratios.
"""

import warnings

import numpy as np
import pytest

from irnn.cli import build_model, run_model_int
from irnn.fixedpoint import FxOverflow, Rescale, requant_multiplier, to_fixed
from irnn.graph import FloatModel
from irnn.quant import (
    ExactGemv,
    Observer,
    QTensor,
    QuantParams,
    dequantize,
    derive_params,
    qadd_diff,
    qadd_same,
    qmul,
    quantize,
    quantize_tensor,
    requantize,
    rescale,
)
from irnn.rnn import CellConfig

# ranges [-1,1], [0,5], [-5,5], [-2,2], [-1,6] at 8 bits, scales as printed
P_UNIT = QuantParams(8, 0.0078, 128)
P_POS5 = QuantParams(8, 0.0196, 0)
P_SYM5 = QuantParams(8, 0.0392, 128)
P_SYM2 = QuantParams(8, 0.0157, 128)
P_MIX6 = QuantParams(8, 0.0274, 36)


class TestDeriveParams:
    def test_published_scales(self):
        p = derive_params(-1, 1, 8)
        assert p.scale == pytest.approx(2 / 255)
        assert p.zero_point == 128

        p = derive_params(0, 5, 8)
        assert p.scale == pytest.approx(5 / 255)
        assert p.zero_point == 0

        p = derive_params(-5, 5, 8)
        assert p.scale == pytest.approx(10 / 255)
        assert p.zero_point == 128

    def test_identity_grid(self):
        p = derive_params(0, 255, 8)
        assert p.scale == 1.0
        assert p.zero_point == 0

    def test_zero_point_represents_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            lo = float(-rng.uniform(0.01, 100))
            hi = float(rng.uniform(0.01, 100))
            b = int(rng.choice([8, 16, 32]))
            p = derive_params(lo, hi, b)
            assert quantize(0.0, p) == p.zero_point

    def test_degenerate_zero_range(self):
        p = derive_params(0.0, 0.0, 8)
        assert p.scale == 1.0 and p.zero_point == 0

    def test_errors(self):
        with pytest.raises(ValueError, match="degenerate-range"):
            derive_params(1.0, -1.0, 8)
        # ranges so narrow that the scale underflows to 0
        for lo, hi, bits in ((0.0, 5e-322, 8), (-5e-322, 0.0, 16)):
            with pytest.raises(ValueError, match="degenerate-range"):
                derive_params(lo, hi, bits)
        with pytest.raises(ValueError, match="zero-excluded"):
            derive_params(0.5, 1.0, 8)
        with pytest.raises(ValueError, match="zero-excluded"):
            derive_params(-2.0, -1.0, 8)
        with pytest.raises(ValueError):
            derive_params(-1.0, 1.0, 12)
        with pytest.raises(ValueError):
            derive_params(float("nan"), 1.0, 8)


class TestQuantParams:
    def test_field_types_and_values_checked(self):
        good = dict(bitwidth=8, scale=2 / 255, zero_point=128)
        QuantParams(**good)
        QuantParams(**{**good, "bitwidth": np.int64(8), "zero_point": np.uint8(128)})
        bad = {
            "bitwidth": (8.0, True, "8", 12),
            "zero_point": (3.5, 128.0, True, -1, 256, None),
            "scale": (0.0, -1.0, float("nan"), float("inf")),
        }
        for field, values in bad.items():
            for value in values:
                with pytest.raises((ValueError, TypeError)):
                    QuantParams(**{**good, field: value})
        with pytest.raises(ValueError, match="finite and positive"):
            QuantParams(**{**good, "scale": float("inf")})


class TestQuantizeDequantize:
    def test_worked_example(self):
        assert quantize(0.2, P_UNIT) == 154
        assert dequantize(154, P_UNIT) == pytest.approx(0.2028)

    def test_multiplication_operand_codes(self):
        assert quantize(-0.8, P_UNIT) == 25
        assert quantize(2.3, P_POS5) == 117

    def test_zero_maps_to_zero_point(self):
        for p in (P_UNIT, P_POS5, P_SYM5, P_MIX6):
            assert quantize(0.0, p) == p.zero_point
            assert dequantize(p.zero_point, p) == 0.0

    def test_saturation_at_bounds(self):
        p = derive_params(-1, 1, 8)
        assert quantize(3.0, p) == quantize(1.0, p)
        assert quantize(-3.0, p) == quantize(-1.0, p)
        assert quantize(1e9, p) == 255

    def test_range_ends_are_end_codes(self):
        # quantize keeps no float range: a grid from derive_params(lo, hi)
        # maps lo to code 0 and hi to the top code, and everything beyond
        # either end saturates there, however far off
        rng = np.random.default_rng(42)
        for i in range(3000):
            b = (8, 16)[i % 2]
            lo = -float(10 ** rng.uniform(-6, 6))
            hi = float(10 ** rng.uniform(-6, 6))
            lo, hi = ((lo, hi), (0.0, hi), (lo, 0.0))[i % 3]
            p = derive_params(lo, hi, b)
            assert quantize(lo, p) == 0
            assert quantize(hi, p) == p.qmax
            for d in (abs(hi - lo) * 1e-9, p.scale, 1e3 * abs(hi - lo), 1e300):
                assert quantize(np.array([lo - d, hi + d]), p).tolist() == [0, p.qmax]

    def test_identity_grid_rounds_like_a_rescale(self):
        # a site calibrated only on zeros gets the identity grid (S = 1,
        # Z = 0); an input on it rounds to the nearest code and saturates,
        # as a rescale into that grid does
        p = derive_params(0.0, 0.0, 8)
        xs = np.array([-3.0, -0.4, 0.0, 0.5, 1.49, 2.5, 254.6, 1e6])
        assert quantize(xs, p).tolist() == [0, 0, 0, 1, 1, 3, 255, 255]
        acc = np.arange(-5, 300)
        np.testing.assert_array_equal(quantize(acc.astype(float), p), requantize(acc, 1.0, p))

    def test_monotone(self):
        rng = np.random.default_rng(42)
        p = derive_params(-2, 3, 8)
        xs = np.sort(rng.uniform(-3, 4, size=1000))
        qs = quantize(xs, p).astype(int)
        assert np.all(np.diff(qs) >= 0)

    def test_round_trip_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            lo = float(-rng.uniform(0.01, 50))
            hi = float(rng.uniform(0.01, 50))
            b = int(rng.choice([8, 16]))
            p = derive_params(lo, hi, b)
            xs = rng.uniform(lo, hi, size=10_000)
            err = np.abs(dequantize(quantize(xs, p), p) - xs)
            assert err.max() <= p.scale / 2 + 1e-12

    def test_vector_shape_and_dtype(self):
        q = quantize(np.zeros((3, 4)), P_UNIT)
        assert q.shape == (3, 4) and q.dtype == np.uint8
        q16 = quantize(0.5, derive_params(-1, 1, 16))
        assert isinstance(q16, int)


class TestNonFiniteInput:
    """NaN has no code; +-inf saturates at the end codes."""

    def test_nan_raises_inf_saturates(self):
        p = QuantParams(8, 0.05, 128)
        with pytest.raises(ValueError, match="NaN at flat index 1"):
            quantize([0.1, float("nan"), float("inf"), float("-inf")], p)
        with pytest.raises(ValueError, match="NaN at flat index 3"):
            quantize(np.array([[0.0, 1.0], [2.0, np.nan]]), p)
        with pytest.raises(ValueError, match="NaN"):
            quantize(float("nan"), p)
        with pytest.raises(ValueError, match="NaN"):
            quantize_tensor(np.array([np.nan]), p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert quantize([0.1, float("inf"), float("-inf")], p).tolist() == [130, 255, 0]
            assert (quantize(float("inf"), p), quantize(float("-inf"), p)) == (255, 0)

    @pytest.mark.parametrize("kind", ["lstm", "encdec"])
    def test_run_model_int_rejects_nan(self, kind):
        rng = np.random.default_rng(42)
        n = m = 8

        def cell(prefix, context=0):
            arrays = {prefix + "wx": rng.normal(0.0, 0.3, size=(4 * m, n)),
                      prefix + "wh": rng.normal(0.0, 0.3, size=(4 * m, m))}
            if context:
                arrays[prefix + "ws"] = rng.normal(0.0, 0.3, size=(4 * m, context))
            return arrays

        arrays = cell("") if kind == "lstm" else {
            **cell("enc_"), **cell("dec_", context=m),
            **{"att_" + k: rng.normal(0.0, 0.4, size=(m, m)) for k in ("wq", "wk")},
            "att_v": rng.normal(0.0, 0.4, size=m),
        }
        model = build_model(FloatModel(kind, arrays), rng.normal(0.0, 1.0, size=(4, 6, n)),
                            CellConfig())
        seqs = rng.normal(0.0, 1.0, size=(2, 6, n))
        run_model_int(model, seqs)
        seqs[1, 3, 5] = np.nan
        with pytest.raises(ValueError, match="NaN at flat index 29"):
            run_model_int(model, seqs)


class TestQmul:
    def test_worked_example(self):
        assert qmul(25, P_UNIT, 117, P_POS5, P_SYM5) == 81
        assert dequantize(81, P_SYM5) == pytest.approx(-1.8424)

    def test_zero_annihilates(self):
        rng = np.random.default_rng(42)
        for qb in rng.integers(0, 256, size=20):
            assert qmul(P_UNIT.zero_point, P_UNIT, int(qb), P_POS5, P_SYM5) == \
                P_SYM5.zero_point

    def test_random_pairs_against_float_product(self):
        rng = np.random.default_rng(42)
        pa = derive_params(-1, 1, 8)
        pb = derive_params(0, 5, 8)
        pc = derive_params(-5, 5, 8)
        u = rng.uniform(-1, 1, size=1000)
        w = rng.uniform(0, 5, size=1000)
        qc = qmul(quantize(u, pa), pa, quantize(w, pb), pb, pc)
        err = np.abs(dequantize(qc, pc) - u * w)
        assert err.max() <= pc.scale / 2 + pc.scale

    def test_output_saturates(self):
        # product exceeds the output range -> clipped, not wrapped
        pc = derive_params(-1, 1, 8)
        q = qmul(quantize(-1.0, P_UNIT), P_UNIT, quantize(5.0, P_POS5), P_POS5, pc)
        assert q == 0


class TestQaddSame:
    def test_worked_example(self):
        assert quantize(-0.3, P_UNIT) == 90
        assert quantize(0.7, P_UNIT) == 218
        assert qadd_same(90, 218, P_UNIT, P_SYM2) == 154
        assert dequantize(154, P_SYM2) == pytest.approx(0.4082)

    def test_zero_plus_zero(self):
        assert qadd_same(P_UNIT.zero_point, P_UNIT.zero_point, P_UNIT, P_SYM2) == \
            P_SYM2.zero_point

    def test_random_pairs_against_float_sum(self):
        rng = np.random.default_rng(42)
        p_in = derive_params(-1, 1, 8)
        p_out = derive_params(-2, 2, 8)
        a = rng.uniform(-1, 1, size=1000)
        b = rng.uniform(-1, 1, size=1000)
        qc = qadd_same(quantize(a, p_in), quantize(b, p_in), p_in, p_out)
        err = np.abs(dequantize(qc, p_out) - (a + b))
        assert err.max() <= p_out.scale / 2 + p_out.scale


class TestQaddDiff:
    def test_worked_example(self):
        assert quantize(-0.9, P_UNIT) == 13
        assert quantize(3.9, P_POS5) == 199
        assert qadd_diff(13, P_UNIT, 199, P_POS5, P_MIX6) == 146
        assert dequantize(146, P_MIX6) == pytest.approx(3.0140)

    def test_additive_identity(self):
        rng = np.random.default_rng(42)
        pa = derive_params(-1, 1, 8)
        pb = derive_params(0, 5, 8)
        pc = derive_params(-1, 6, 8)
        for a in rng.uniform(-1, 1, size=50):
            qc = qadd_diff(quantize(a, pa), pa, pb.zero_point, pb, pc)
            assert abs(dequantize(qc, pc) - a) <= pc.scale / 2 + pa.scale / 2

    def test_random_pairs_against_float_sum(self):
        rng = np.random.default_rng(42)
        pa = derive_params(-1, 1, 8)
        pb = derive_params(0, 5, 8)
        pc = derive_params(-1, 6, 8)
        a = rng.uniform(-1, 1, size=1000)
        b = rng.uniform(0, 5, size=1000)
        qc = qadd_diff(quantize(a, pa), pa, quantize(b, pb), pb, pc)
        err = np.abs(dequantize(qc, pc) - (a + b))
        assert err.max() <= pc.scale / 2 + pc.scale

    def test_sixteen_bit_operands(self):
        pa = derive_params(-4, 4, 16)
        pb = derive_params(-1, 1, 16)
        pc = derive_params(-5, 5, 16)
        rng = np.random.default_rng(42)
        a = rng.uniform(-4, 4, size=200)
        b = rng.uniform(-1, 1, size=200)
        qc = qadd_diff(quantize(a, pa), pa, quantize(b, pb), pb, pc)
        err = np.abs(dequantize(qc, pc) - (a + b))
        assert err.max() <= pc.scale / 2 + pc.scale


def _fields(op: Rescale) -> tuple:
    return op.raws, op.f, op.zero, op.lo, op.hi, op.bounds, op.tie_free


class TestRescale:
    """rescale's encoding: one term takes requant_multiplier's mantissa, two
    terms take to_fixed raws at f = 30; the references are built from
    those functions directly."""

    P_OUTS = (QuantParams(8, 0.0392, 128), QuantParams(16, 3.1e-4, 0), QuantParams(8, 2.5, 255))

    def test_one_term_is_the_normalized_multiplier(self):
        for p_out in self.P_OUTS:
            for ratio in (0.0, 1e-9, 0.0078 / 0.0392, 1.0, 0.75, 5.0, 3.3e4):
                op = rescale(p_out, (ratio, 1000))
                raw, f = requant_multiplier(ratio)
                want = Rescale((raw,), f, p_out.zero_point, p_out.qmin, p_out.qmax,
                               bounds=(1000,))
                assert _fields(op) == _fields(want), (p_out, ratio)
                t = np.arange(-1000, 1001, dtype=np.int64)
                np.testing.assert_array_equal(op(t), want(t))
        assert rescale(self.P_OUTS[0], (0.0, 7)).raws == (0,)

    def test_two_terms_share_thirty_fraction_bits(self):
        # MadNorm's centering step negates the mean's ratio; a zero ratio
        # drops its term
        for p_out in self.P_OUTS:
            for ra, rb in ((0.4, 0.3), (1.7, -0.55), (2.0**-12, -3.0), (0.9, 0.0), (0.0, -1.25)):
                op = rescale(p_out, (ra, 300), (rb, 200))
                assert op.f == 30
                raws = (to_fixed(ra, 30), to_fixed(rb, 30))
                want = Rescale(raws, 30, p_out.zero_point, p_out.qmin, p_out.qmax,
                               bounds=(300, 200))
                assert _fields(op) == _fields(want), (p_out, ra, rb)
                t0 = np.arange(-300, 301, dtype=np.int64)
                t1 = np.arange(-200, 201, 7, dtype=np.int64)[:, None]
                np.testing.assert_array_equal(op(t0, t1), want(t0, t1))
        assert rescale(self.P_OUTS[0], (0.5, 3), (0.0, 3)).raws[1] == 0

    def test_requantize_is_the_rescale_of_its_own_operand(self):
        # requantize compiles rescale(p_out, (in_scale / S_out, max |acc|)),
        # on arrays and on Python ints; the largest scale saturates both ends
        rng = np.random.default_rng(42)
        for p_out in self.P_OUTS:
            for in_scale in (1e-5, 0.0078 * 0.0392, 0.3, 7.0):
                ratio = in_scale / p_out.scale
                acc = rng.integers(-(2**20), 2**20, size=200)
                acc[:2] = -(2**20), 2**20
                want = rescale(p_out, (ratio, 2**20))(acc)
                got = requantize(acc, in_scale, p_out)
                assert got.dtype == p_out.dtype
                np.testing.assert_array_equal(got, want)
                scalars = [int(a) for a in acc[:40]]
                assert [requantize(a, in_scale, p_out) for a in scalars] == [
                    rescale(p_out, (ratio, abs(a)))(a) for a in scalars
                ]
            assert want.min() == p_out.qmin and want.max() == p_out.qmax

    def test_one_negative_term_is_refused(self):
        with pytest.raises(ValueError, match="ratios of positive scales"):
            rescale(self.P_OUTS[0], (-0.5, 10))


class TestObserver:
    def test_running_extrema(self):
        obs = Observer()
        obs.observe(np.array([0.5, -0.2]))
        assert obs.running_min == -0.2 and obs.running_max == 0.5
        obs.observe(np.array([1.0]))
        assert obs.running_min == -0.2 and obs.running_max == 1.0

    def test_empty_batch_unchanged(self):
        obs = Observer()
        obs.observe(np.array([]))
        assert (obs.running_min, obs.running_max) == (float("inf"), float("-inf"))

    def test_zero_inclusion_on_finalize(self):
        obs = Observer().observe(np.array([0.1, 0.3]))
        assert obs.finalize(8) == derive_params(0.0, 0.3, 8)

    def test_unobserved_finalize_degenerate(self):
        p = Observer().finalize(8)
        assert p.scale == 1.0 and p.zero_point == 0

    def test_rejects_nonfinite(self):
        nan, inf = float("nan"), float("inf")
        for batch in ([1.0, nan], [nan, 1.0], [1.0, inf], [-inf, 1.0], [-inf, inf], nan):
            obs = Observer().observe([0.5])
            with pytest.raises(ValueError, match="non-finite"):
                obs.observe(batch)
            assert (obs.running_min, obs.running_max) == (0.5, 0.5)


class TestQTensor:
    def test_dtype_checked(self):
        p = derive_params(-1, 1, 8)
        with pytest.raises(ValueError, match="dtype-mismatch"):
            QTensor(np.zeros(4, dtype=np.uint16), p)

    def test_round_trip(self):
        p = derive_params(-1, 1, 8)
        xs = np.linspace(-1, 1, 17)
        qt = quantize_tensor(xs, p)
        assert qt.data.dtype == np.uint8
        np.testing.assert_allclose(qt.dequantize(), xs, atol=p.scale / 2)


class TestQlinear:
    """A quantized linear map: requantize over the centered product of
    weight and input codes, plus a bias at the product's scale."""

    @staticmethod
    def _qlinear(qx, qw, p_out, bias=None):
        acc = qw.centered() @ qx.centered()
        if bias is not None:
            acc = acc + bias
        return QTensor(requantize(acc, qx.params.scale * qw.params.scale, p_out), p_out)

    def test_matches_float_matmul(self):
        rng = np.random.default_rng(42)
        n, m = 24, 16
        x = rng.uniform(-1, 1, size=n)
        w = rng.uniform(-0.5, 0.5, size=(m, n))
        px = derive_params(-1, 1, 8)
        pw = derive_params(-0.5, 0.5, 8)
        ref = w @ x
        bound = float(np.abs(ref).max()) * 1.5 + 1e-6
        p_out = derive_params(-bound, bound, 8)
        qt = self._qlinear(quantize_tensor(x, px), quantize_tensor(w, pw), p_out)
        # dominant error source is weight/input quantization inside the dot
        tol = p_out.scale / 2 + n * (px.scale / 2 * pw.scale / 2 * 4 + px.scale * 0.5 + pw.scale * 1.0)
        np.testing.assert_allclose(qt.dequantize(), ref, atol=tol)

    def test_bias_at_product_scale(self):
        px = derive_params(-1, 1, 8)
        pw = derive_params(-1, 1, 8)
        p_out = derive_params(-2, 2, 8)
        x = np.zeros(4)
        w = np.zeros((3, 4))
        bias_real = np.array([0.5, -0.25, 1.0])
        bias = np.round(bias_real / (px.scale * pw.scale)).astype(np.int64)
        qt = self._qlinear(quantize_tensor(x, px), quantize_tensor(w, pw), p_out, bias=bias)
        np.testing.assert_allclose(qt.dequantize(), bias_real, atol=p_out.scale)


class TestExactGemv:
    def test_matches_int64_matmul(self):
        rng = np.random.default_rng(42)
        w = quantize_tensor(rng.normal(0.0, 0.3, size=(24, 10)), derive_params(-1, 1, 8))
        p_in = derive_params(-3.0, 2.0, 8)
        bias = rng.integers(-(2**20), 2**20, size=24).astype(np.int32)
        gemv = ExactGemv(w, p_in, bias)
        assert not gemv.per_call_check
        codes = rng.integers(0, 256, size=(7, 10)).astype(np.uint8)
        want = (codes.astype(np.int64) - p_in.zero_point) @ w.centered().T + bias
        np.testing.assert_array_equal(gemv(codes), want)
        np.testing.assert_array_equal(gemv(codes[3]), want[3])

    @pytest.mark.parametrize("extra,dtype", [(0, np.float32), (1, np.float64)])
    def test_float32_below_two_to_the_24(self, extra, dtype):
        # float32 holds every integer below 2^24: each row sums
        # 258 * 255 * 255 + 765 = 2^24 - 1, plus extra, and the input grid's
        # zero point 255 makes code 0 the most negative
        w = QTensor(np.full((3, 258), 255, dtype=np.uint8), QuantParams(8, 1 / 255, 0))
        p_in = QuantParams(8, 0.01, 255)
        bias = np.array([765 + extra, -765 - extra, 0], dtype=np.int32)
        gemv = ExactGemv(w, p_in, bias)
        assert gemv.bound == 2**24 - 1 + extra
        assert gemv.w.dtype == gemv.zero.dtype == gemv.bias.dtype == dtype
        rng = np.random.default_rng(42)
        codes = np.vstack([
            np.zeros(258), np.full(258, 255), np.full(258, 254),
            rng.integers(0, 256, size=(5, 258)),
        ]).astype(np.uint8)
        want = (codes.astype(np.int64) - 255) @ w.centered().T + bias
        assert want.min() == -(2**24 - 1 + extra)
        for q in (codes, codes.astype(np.int64)):
            got = gemv(q)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(gemv(codes[0]), want[0])

    def test_float64_below_two_to_the_53(self):
        # a bias of 2^53 - 1 has an exact float64; a magnitude of 2^53 is refused
        w = QTensor(np.zeros((2, 3), dtype=np.uint8), QuantParams(8, 1.0, 0))
        gemv = ExactGemv(w, P_UNIT, np.array([2**53 - 1, 0], dtype=np.int64))
        assert gemv.w.dtype == gemv.bias.dtype == np.float64 and gemv.per_call_check
        with pytest.raises(FxOverflow, match="matmul accumulator"):
            ExactGemv(w, P_UNIT, np.array([0, -(2**53)], dtype=np.int64))

    def test_unproven_int32_bound_checks_each_call(self):
        w = QTensor(np.full((2, 200), 255, dtype=np.uint8), QuantParams(8, 1 / 255, 0))
        p_in = QuantParams(16, 1 / 65535, 0)
        gemv = ExactGemv(w, p_in)
        assert gemv.per_call_check and gemv.bound == 2**31 - 1
        small = np.full(200, 10, dtype=np.uint16)
        assert gemv(small).tolist() == [200 * 255 * 10] * 2
        with pytest.raises(FxOverflow):
            gemv(np.full(200, 65535, dtype=np.uint16))
