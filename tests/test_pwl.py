"""Piecewise-linear activation tables: construction, reduction, evaluation."""

import bisect

import numpy as np
import pytest

from irnn.pwl import (
    ACTIVATIONS,
    activation_registry,
    build_full,
    eval_float,
    eval_int,
    from_points,
    reduce,
)
from irnn.quant import dequantize, derive_params, quantize


def _params_for(name, bits=8):
    fn, (lo, hi) = activation_registry(name)
    in_p = derive_params(lo, hi, bits)
    if name == "sigmoid" or name == "exp":
        out_p = derive_params(0.0, 1.0, 8)
    elif name == "tanh" or name == "cos":
        out_p = derive_params(-1.0, 1.0, 8)
    else:
        grid = fn(np.linspace(lo, hi, 4097))
        out_p = derive_params(min(float(grid.min()), 0.0), max(float(grid.max()), 0.0), 8)
    return fn, in_p, out_p


class TestRegistry:
    def test_known_names(self):
        for name in ("sigmoid", "tanh", "exp", "cos", "gelu"):
            fn, (lo, hi) = activation_registry(name)
            assert lo < hi
            assert np.isfinite(fn(np.array([lo, hi]))).all()

    def test_conventional_ranges(self):
        assert activation_registry("tanh")[1] == (-8.0, 8.0)
        assert activation_registry("exp")[1] == (-10.0, 0.0)
        lo, hi = activation_registry("cos")[1]
        assert lo == pytest.approx(-np.pi) and hi == pytest.approx(np.pi)

    def test_tanh_saturates_outside_clip(self):
        # |tanh| is within 1e-6 of 1 beyond the clip bound
        assert 1.0 - abs(np.tanh(8.0)) < 1e-6

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown activation"):
            activation_registry("swish")


class TestBuildFull:
    def test_full_grid_is_lut(self):
        # one knot per code: integer eval must equal the quantized LUT
        fn, in_p, out_p = _params_for("tanh")
        table = build_full(fn, in_p, out_p)
        assert table.pieces == 255
        codes = np.arange(256)
        lut = quantize(fn(dequantize(codes, in_p)), out_p)
        np.testing.assert_array_equal(eval_int(table, codes), lut)

    def test_identity_slopes_are_one(self):
        in_p = derive_params(-1, 1, 8)
        out_p = derive_params(-1, 1, 8)
        table = build_full(lambda x: x, in_p, out_p)
        np.testing.assert_allclose(table.slopes, 1.0, rtol=1e-9)

    def test_sigmoid_intercept_at_origin(self):
        fn, in_p, out_p = _params_for("sigmoid")
        table = build_full(fn, in_p, out_p)
        k0 = np.flatnonzero(table.q_knots == in_p.zero_point)[0]
        assert table.knots[k0] == 0.0
        assert table.intercepts[k0] == 0.5

    def test_nonfinite_rejected(self):
        in_p = derive_params(-1, 1, 8)
        out_p = derive_params(-1, 1, 8)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="nonfinite-activation"):
                build_full(lambda x: np.log(x), in_p, out_p)


class TestReduce:
    def test_noop_budget(self):
        fn, in_p, out_p = _params_for("tanh")
        table = build_full(fn, in_p, out_p)
        assert reduce(table, 255) is table
        assert reduce(table, 400) is table

    def test_linear_collapses_to_one_piece(self):
        in_p = derive_params(-1, 1, 8)
        table = build_full(lambda x: x, in_p, derive_params(-1, 1, 8))
        small = reduce(table, 1)
        assert small.pieces == 1
        xs = dequantize(np.arange(256), in_p)
        np.testing.assert_allclose(eval_float(small, xs), xs, atol=1e-12)

    def test_most_similar_pair_merges_first(self):
        # slopes 1.0 / 1.01 / 5.0: the knot between the first two goes
        in_p = derive_params(0, 3, 8)
        out_p = derive_params(0, 8, 8)
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        ys = np.array([0.0, 1.0, 2.01, 7.01])
        table = from_points(xs, ys, in_p, out_p)
        two = reduce(table, 2)
        np.testing.assert_allclose(two.knots, [0.0, 2.0, 3.0])
        np.testing.assert_allclose(two.intercepts, [0.0, 2.01])

    def test_budget_sweep_error_nonincreasing(self):
        fn, in_p, out_p = _params_for("tanh")
        table = build_full(fn, in_p, out_p)
        grid = dequantize(np.arange(256), in_p)
        truth = fn(grid)
        errs = []
        for budget in (4, 8, 16, 32):
            g = eval_float(reduce(table, budget), grid)
            errs.append(np.abs(g - truth).max())
        assert errs == sorted(errs, reverse=True)

    def test_knots_stay_subset_of_grid(self):
        fn, in_p, out_p = _params_for("cos")
        table = build_full(fn, in_p, out_p)
        small = reduce(table, 7)
        assert small.pieces == 7
        assert set(small.q_knots.tolist()) <= set(table.q_knots.tolist())
        assert small.q_knots[0] == 0 and small.q_knots[-1] == in_p.qmax

    def test_deterministic(self):
        fn, in_p, out_p = _params_for("gelu")
        t1 = reduce(build_full(fn, in_p, out_p), 12)
        t2 = reduce(build_full(fn, in_p, out_p), 12)
        np.testing.assert_array_equal(t1.q_knots, t2.q_knots)
        np.testing.assert_array_equal(t1.fx_slopes, t2.fx_slopes)

    def test_invalid_budget(self):
        fn, in_p, out_p = _params_for("tanh")
        table = build_full(fn, in_p, out_p)
        with pytest.raises(ValueError, match="invalid-budget"):
            reduce(table, 0)


class TestEvalFloat:
    def test_knot_exactness(self):
        fn, in_p, out_p = _params_for("sigmoid")
        table = reduce(build_full(fn, in_p, out_p), 16)
        for k in table.knots:
            assert eval_float(table, float(k)) == pytest.approx(
                float(fn(np.float64(k))), abs=1e-12
            )

    def test_midpoint_interpolates(self):
        fn, in_p, out_p = _params_for("tanh")
        table = reduce(build_full(fn, in_p, out_p), 8)
        for i in range(table.pieces):
            mid = 0.5 * (table.knots[i] + table.knots[i + 1])
            left = eval_float(table, float(table.knots[i]))
            right = float(
                table.slopes[i] * (table.knots[i + 1] - table.knots[i])
                + table.intercepts[i]
            )
            assert eval_float(table, mid) == pytest.approx(0.5 * (left + right))

    def test_matches_linear_scan_oracle(self):
        fn, in_p, out_p = _params_for("cos")
        table = reduce(build_full(fn, in_p, out_p), 23)
        rng = np.random.default_rng(42)
        xs = rng.uniform(in_p.min, in_p.max, size=1000)
        for x in xs[:200]:
            # brute-force piece lookup
            i = 0
            while i < table.pieces - 1 and x >= table.knots[i + 1]:
                i += 1
            want = table.slopes[i] * (x - table.knots[i]) + table.intercepts[i]
            assert eval_float(table, float(x)) == pytest.approx(want, abs=1e-12)

    def test_out_of_range_clamps(self):
        fn, in_p, out_p = _params_for("tanh")
        table = reduce(build_full(fn, in_p, out_p), 16)
        assert eval_float(table, -50.0) == eval_float(table, float(table.knots[0]))
        assert eval_float(table, 50.0) == eval_float(table, float(table.knots[-1]))


class TestEvalInt:
    def test_full_grid_lut_all_named_activations(self):
        for name in ACTIVATIONS:
            fn, in_p, out_p = _params_for(name)
            table = build_full(fn, in_p, out_p)
            codes = np.arange(in_p.qmax + 1)
            lut = quantize(fn(dequantize(codes, in_p)), out_p)
            np.testing.assert_array_equal(eval_int(table, codes), lut, err_msg=name)

    def test_knots_within_one_code_of_float_path(self):
        fn, in_p, out_p = _params_for("sigmoid")
        table = reduce(build_full(fn, in_p, out_p), 16)
        for qk, k in zip(table.q_knots, table.knots):
            want = quantize(float(fn(np.float64(k))), out_p)
            assert abs(eval_int(table, int(qk)) - want) <= 1

    def test_composed_error_bound(self):
        fn, in_p, out_p = _params_for("tanh")
        table = reduce(build_full(fn, in_p, out_p), 16)
        codes = np.arange(256)
        xs = dequantize(codes, in_p)
        grid_err = np.abs(eval_float(table, xs) - fn(xs)).max()
        got = dequantize(eval_int(table, codes), out_p)
        assert np.abs(got - fn(xs)).max() <= out_p.scale / 2 + grid_err + 1e-9

    def test_scalar_in_scalar_out(self):
        fn, in_p, out_p = _params_for("tanh")
        table = build_full(fn, in_p, out_p)
        assert isinstance(eval_int(table, 128), int)

    def test_sixteen_bit_input_grid(self):
        fn, (lo, hi) = activation_registry("exp")
        in_p = derive_params(lo, hi, 16)
        out_p = derive_params(0.0, 1.0, 8)
        table = reduce(build_full(fn, in_p, out_p), 64)
        assert table.pieces == 64
        codes = np.linspace(0, in_p.qmax, 997).astype(np.int64)
        xs = dequantize(codes, in_p)
        grid_err = np.abs(eval_float(table, xs) - fn(xs)).max()
        got = dequantize(eval_int(table, codes), out_p)
        assert np.abs(got - fn(xs)).max() <= out_p.scale / 2 + grid_err + 1e-9


def _formula(t, q: int) -> int:
    """The fixed-point piece formula at one code, in Python big ints."""
    k = [int(v) for v in t.q_knots]
    qc = min(max(q, k[0]), k[-1])
    i = min(max(bisect.bisect_right(k, qc) - 1, 0), t.pieces - 1)
    acc = int(t.fx_slopes[i]) * (qc - k[i]) + int(t.fx_intercepts[i])
    mag, rem = divmod(abs(acc), 2**t.fraction_bits)
    if 2 * rem >= 2**t.fraction_bits:
        mag += 1
    out = (mag if acc >= 0 else -mag) + t.out_params.zero_point
    return min(max(out, t.out_params.qmin), t.out_params.qmax)


class TestLut:
    def _tables(self):
        sig, in8, out8 = _params_for("sigmoid")
        tanh, _, tanh_out = _params_for("tanh")
        in16 = derive_params(-8.0, 8.0, 16)
        # knots strictly inside the grid: codes beyond them clamp
        partial = from_points(
            dequantize(np.array([40, 90, 200]), in8),
            sig(dequantize(np.array([40, 90, 200]), in8)),
            in8,
            out8,
        )
        return {
            "sigmoid-8": reduce(build_full(sig, in8, out8), 16),
            "tanh-16": reduce(build_full(tanh, in16, tanh_out), 32),
            "partial-8": partial,
        }

    def test_lut_is_the_formula_at_every_code(self):
        for name, t in self._tables().items():
            codes = range(t.in_params.qmax + 1)
            assert t.lut.dtype == t.out_params.dtype, name
            assert t.lut.tolist() == [_formula(t, q) for q in codes], name

    def test_eval_int_clamps_any_integer(self):
        t = self._tables()["partial-8"]
        qs = np.array([-(2**40), -1, 0, 40, 41, 200, 255, 256, 2**40])
        assert eval_int(t, qs).tolist() == [_formula(t, int(q)) for q in qs]

    def test_lut_is_read_only(self):
        t = self._tables()["sigmoid-8"]
        with pytest.raises(ValueError):
            t.lut[0] = 1

    def test_lut_covering_a_wider_grid(self):
        t = self._tables()["sigmoid-8"]
        wide = t.lut_covering(derive_params(-8.0, 8.0, 16))
        assert len(wide) == 2**16
        np.testing.assert_array_equal(wide[:256], t.lut)
        assert (wide[256:] == t.lut[-1]).all()
        assert t.lut_covering(t.in_params) is t.lut
