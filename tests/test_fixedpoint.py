"""Fixed-point raws, rounding primitives and the compiled Rescale."""

from fractions import Fraction

import numpy as np
import pytest
from bigint_ref import round_div as _ref_round_div

from irnn.fixedpoint import (
    REQUANT_FRACTION_BITS,
    FxOverflow,
    Quotient,
    Rescale,
    format_table,
    fx_apply,
    requant_multiplier,
    round_half_away,
    rounded_div,
    rounded_shift,
    saturate,
    to_fixed,
)

# Golden rows: (scaling, precision, signed lo, signed hi, unsigned lo, unsigned hi)
# for an 8-bit mantissa across power-of-two scalings.
FORMAT_TABLE_8BIT = [
    (2.0, 2.0, -256.0, 254.0, 0.0, 510.0),
    (1.0, 1.0, -128.0, 127.0, 0.0, 255.0),
    (0.5, 0.5, -64.0, 63.5, 0.0, 127.5),
    (0.25, 0.25, -32.0, 31.75, 0.0, 63.75),
    (0.125, 0.125, -16.0, 15.875, 0.0, 31.875),
    (0.0625, 0.0625, -8.0, 7.9375, 0.0, 15.9375),
    (0.03125, 0.03125, -4.0, 3.96875, 0.0, 7.96875),
    (0.015625, 0.015625, -2.0, 1.984375, 0.0, 3.984375),
    (0.0078125, 0.0078125, -1.0, 0.9921875, 0.0, 1.9921875),
    (0.00390625, 0.00390625, -0.5, 0.49609375, 0.0, 0.99609375),
]


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_half_away(2.5) == 3
        assert round_half_away(-2.5) == -3
        assert round_half_away(2.4) == 2
        assert round_half_away(-2.4) == -2
        assert round_half_away(0.0) == 0

    def test_array_input(self):
        out = round_half_away(np.array([0.5, -0.5, 1.49, -1.51]))
        np.testing.assert_array_equal(out, [1, -1, 1, -2])

    def test_scalar_path_matches_array_path(self):
        # halves, their float neighbours and magnitudes up to 2^62, as
        # Python floats, numpy scalars, 0-d arrays and ints
        rng = np.random.default_rng(42)
        halves = np.arange(-300, 300) + 0.5
        xs = np.concatenate([
            halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf),
            rng.normal(0.0, 1.0, 200) * 2.0 ** rng.integers(0, 62, 200), [0.0, -0.0],
        ])
        want = round_half_away(xs).tolist()
        assert [round_half_away(float(x)) for x in xs] == want
        assert [round_half_away(x) for x in xs] == want
        assert [round_half_away(np.asarray(x)) for x in xs[:50]] == want[:50]
        small = np.float32(2.5), np.float32(-0.49999997), 7, -(2**40)
        assert [round_half_away(x) for x in small] == [3, 0, 7, -(2**40)]

    def test_float64_edges(self):
        # x + 0.5 rounds before any truncation at 2^52 + 1 (to 2^52 + 2) and
        # at the largest double below a half (to 1); neither is a tie
        edges = {2.0**52 + 1: 2**52 + 1, 0.49999999999999994: 0}
        for x, want in edges.items():
            for sign in (1, -1):
                assert round_half_away(sign * x) == sign * want
                assert round_half_away(np.array([sign * x])).tolist() == [sign * want]

    def test_rounded_shift_matches_true_division(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            f = int(rng.integers(1, 40))
            acc = int(rng.integers(-(2**50), 2**50))
            got = rounded_shift(acc, f)
            want = round_half_away(acc / 2.0**f)
            assert abs(got - want) <= 1  # float oracle itself rounds
        # exact half cases, both signs
        assert rounded_shift(3, 1) == 2
        assert rounded_shift(-3, 1) == -2
        assert rounded_shift(2, 1) == 1

    def test_rounded_div_ties_away(self):
        assert rounded_div(5, 2) == 3
        assert rounded_div(-5, 2) == -3
        assert rounded_div(7, 3) == 2
        assert rounded_div(8, 3) == 3
        np.testing.assert_array_equal(
            rounded_div(np.array([5, -5, 4]), 2), [3, -3, 2]
        )

    def test_rounded_div_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rounded_div(1, 0)


class TestFixedPointScalar:
    """to_fixed: a real multiplier as a plain int raw at f fraction bits."""

    def test_to_fixed_simple(self):
        assert to_fixed(0.5, 4) == 8
        assert to_fixed(0.0078125, 7) == 1
        assert type(to_fixed(0.3, 30)) is int

    def test_round_trip_bound(self):
        # conversion error is at most half a resolution step
        rng = np.random.default_rng(42)
        for _ in range(500):
            f = int(rng.integers(0, 40))
            m = float(rng.uniform(-4, 4))
            raw = to_fixed(m, f)
            assert abs(raw * 2.0**-f - m) <= 2.0 ** -(f + 1)

    def test_requant_scale_round_trip(self):
        s = 0.0392
        raw = to_fixed(s, 30)
        assert raw == round(s * 2**30)
        assert abs(raw * 2.0**-30 - s) <= 2.0**-30

    def test_negative_fraction_bits_rejected(self):
        with pytest.raises(ValueError):
            to_fixed(0.5, -1)

    def test_to_fixed_overflow(self):
        with pytest.raises(FxOverflow):
            to_fixed(1e300, 30)


class TestRequantMultiplier:
    def test_normalized_mantissa(self):
        # raw mantissa always lands in (2^29, 2^30]; the exponent moves
        # into f instead
        for m in (0.0039, 0.4968, 0.7153, 1.0, 3.7, 2**-12):
            raw, f = requant_multiplier(m)
            assert 2**29 < raw <= 2**30
            assert abs(raw * 2.0**-f - m) / m <= 2.0**-29

    def test_zero_multiplier(self):
        assert requant_multiplier(0.0) == (0, REQUANT_FRACTION_BITS)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            requant_multiplier(-0.5)

    def test_huge_multiplier_rejected(self):
        with pytest.raises(FxOverflow):
            requant_multiplier(2.0**40)


class TestFxApply:
    def test_identity_multiplier(self):
        assert fx_apply(2**10, 10, 37, zero_out=5) == 42
        np.testing.assert_array_equal(
            fx_apply(2**10, 10, np.array([1, -2, 0]), zero_out=0), [1, -2, 0]
        )

    def test_mask_rounding_halves(self):
        # raw/2^1 = 0.5 multiplier: products 2 and 3 exercise the mask bit
        assert fx_apply(1, 1, 2) == 1  # 1.0 exactly
        assert fx_apply(1, 1, 3) == 2  # 1.5 rounds away from zero
        assert fx_apply(1, 1, -3) == -2

    def test_against_float_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            m = float(rng.uniform(2**-16, 4.0))
            q = int(rng.integers(-(2**16), 2**16))
            raw, f = requant_multiplier(m)
            want = round_half_away(m * q) + 7
            assert abs(fx_apply(raw, f, q, zero_out=7) - want) <= 1

    def test_odd_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            raw, f = requant_multiplier(float(rng.uniform(0.01, 2.0)))
            q = int(rng.integers(0, 2**15))
            plus = fx_apply(raw, f, q, 100) - 100
            minus = fx_apply(raw, f, -q, 100) - 100
            assert plus == -minus

    def test_power_of_two_is_exact_shift(self):
        raw, f = requant_multiplier(2.0**-3)
        for q in range(-64, 65, 8):
            assert fx_apply(raw, f, q) == q // 8

    def test_overflow_guard(self):
        with pytest.raises(FxOverflow):
            fx_apply(2**40, 30, 2**40)


class TestFormatTable:
    def test_golden_rows(self):
        rows = format_table(8)
        assert len(rows) == len(FORMAT_TABLE_8BIT)
        for row, want in zip(rows, FORMAT_TABLE_8BIT):
            s, prec, slo, shi, ulo, uhi = want
            assert row["scaling"] == s
            assert row["precision"] == prec
            assert row["signed"] == (slo, shi)
            assert row["unsigned"] == (ulo, uhi)

    def test_specific_rows(self):
        rows = {r["scaling"]: r for r in format_table(8)}
        assert rows[2.0]["signed"] == (-256.0, 254.0)
        assert rows[1.0]["signed"] == (-128.0, 127.0)
        assert rows[2.0**-7]["signed"] == (-1.0, 0.9921875)
        assert rows[2.0**-8]["unsigned"] == (0.0, 0.99609375)


def _admitted(f: int) -> int:
    """Largest |acc| the compiled bounds let reach rounded_shift at f."""
    return 2**63 - 1 - 2 ** (f - 1)


class TestRoundingProperties:
    """Shift, division and multiplier rounding against big-int references."""

    def _accumulators(self, rng, f: int) -> list:
        top = _admitted(f)
        vals = [0, 1, -1, top, -top, top - 1, -(top - 1)]
        # exact ties and their neighbours: k * 2^f + 2^(f-1) + {-1, 0, 1}
        kmax = (top - 2 ** (f - 1)) >> f
        for k in rng.integers(0, kmax, size=20, endpoint=True).tolist():
            tie = (k << f) + (1 << (f - 1))
            for v in (tie - 1, tie, tie + 1):
                if v <= top:
                    vals += [v, -v]
        # magnitudes spread over every scale up to the admitted maximum
        for bits in rng.integers(1, 64, size=60).tolist():
            v = int(rng.integers(0, min(2**bits, top), endpoint=True))
            vals += [v, -v]
        return vals

    def test_rounded_shift_matches_big_int(self):
        rng = np.random.default_rng(42)
        for f in range(1, 63):
            vals = self._accumulators(rng, f)
            want = [_ref_round_div(v, 2**f) for v in vals]
            assert [rounded_shift(v, f) for v in vals] == want, f
            got = rounded_shift(np.array(vals, dtype=np.int64), f)
            assert got.tolist() == want, f

    def test_rounded_shift_no_fraction_and_past_int64(self):
        # f = 0 returns acc as it is; past 63 fraction bits every int64
        # magnitude below 2^63 is under half a step and rounds to zero
        vals = [0, 1, -1, 5, -5, 2**62 + 3, 2**63 - 1, -(2**63 - 1)]
        arr = np.array(vals, dtype=np.int64)
        assert [rounded_shift(v, 0) for v in vals] == vals
        assert rounded_shift(arr, 0).tolist() == vals
        for f in (64, 65, 100):
            want = [_ref_round_div(v, 2**f) for v in vals]
            assert want == [0] * len(vals)
            assert [rounded_shift(v, f) for v in vals] == want, f
            got = rounded_shift(arr, f)
            assert got.dtype == np.int64 and got.tolist() == want, f

    def test_rounded_shift_past_64_bits_is_exact(self):
        # a Python int of any size rounds by the same add and shift; an int64
        # array reaches half a step at f = 64 only at -2^63, a tie
        int64_vals = [0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63 - 1), -(2**63)]
        for f in (64, 65, 70, 200):
            half = 2 ** (f - 1)
            ties = [half, 3 * half, 5 * half + 2**f * 7]
            vals = int64_vals + [s * v for v in (2**63, 2**70, *ties) for s in (1, -1)]
            vals += [s * (v + d) for v in ties for d in (-1, 1) for s in (1, -1)]
            want = [_ref_round_div(v, 2**f) for v in vals]
            assert [rounded_shift(v, f) for v in vals] == want, f
            got = rounded_shift(np.array(int64_vals, dtype=np.int64), f)
            want64 = [_ref_round_div(v, 2**f) for v in int64_vals]
            assert got.dtype == np.int64 and got.tolist() == want64, f
        assert rounded_shift(2**70, 64) == 64
        assert rounded_shift(-(2**63), 64) == -1
        assert rounded_shift(np.array([-(2**63)], dtype=np.int64), 64).tolist() == [-1]

    def test_rounded_div_matches_big_int(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            den = int(rng.integers(1, 2**40))
            top = 2**63 - 1 - den // 2
            nums = [den // 2, -(den // 2), den // 2 + den, top, -top]
            nums += [
                int(v) * s
                for v in rng.integers(0, top, size=20, endpoint=True)
                for s in (1, -1)
            ]
            want = [_ref_round_div(n, den) for n in nums]
            assert [rounded_div(n, den) for n in nums] == want
            assert rounded_div(np.array(nums, dtype=np.int64), den).tolist() == want

    def test_rounded_div_row_divisors(self):
        rng = np.random.default_rng(42)
        num = rng.integers(-(2**50), 2**50, size=(6, 9))
        den = rng.integers(1, 2**20, size=(6, 1))
        got = rounded_div(num, den)
        want = [
            [_ref_round_div(int(n), int(d[0])) for n in row]
            for row, d in zip(num, den)
        ]
        assert got.tolist() == want
        with pytest.raises(ValueError):
            rounded_div(num, np.zeros((6, 1), dtype=np.int64))

    def test_fx_apply_matches_big_int(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            f = int(rng.integers(1, 63))
            raw = int(rng.integers(1, 2**31)) * int(rng.choice([1, -1]))
            limit = _admitted(f) // abs(raw)
            qs = [limit, -limit] + [
                int(v) for v in rng.integers(-limit, limit, size=20, endpoint=True)
            ]
            want = [_ref_round_div(raw * q, 2**f) + 3 for q in qs]
            assert [fx_apply(raw, f, q, 3) for q in qs] == want
            assert fx_apply(raw, f, np.array(qs, dtype=np.int64), 3).tolist() == want
            # one step past what the rounding add leaves room for
            with pytest.raises(FxOverflow):
                fx_apply(raw, f, np.array([limit + 1], dtype=np.int64))


class TestRescale:
    def test_constant_bound_checked_once(self):
        with pytest.raises(FxOverflow):
            Rescale((2**40,), 30, bounds=(2**23,))
        op = Rescale((2**40,), 30, bounds=(2**22 - 1,))
        assert op(2**22 - 1) == _ref_round_div(2**40 * (2**22 - 1), 2**30)

    def test_wrappers_bound_their_own_operand(self):
        # a rescale always has bounds; requantize and fx_apply take them from
        # the operand they are given, so an overflowing one still raises
        from irnn.quant import derive_params, requantize

        with pytest.raises(TypeError):
            Rescale((2**40,), 30)
        p_out = derive_params(-(2**34), 2**34, 32)
        # a multiplier of 1024: fx_apply's raw 2^40 at f = 30 overflows past
        # |q| = 2^23 - 1, requantize's normalized raw 2^30 at f = 20 past 2^33 - 1
        in_scale = 1024 * p_out.scale
        for q in (np.array([5, -7]), 5):
            want = np.array(q) * 1024 + p_out.zero_point
            assert np.array_equal(requantize(q, in_scale, p_out), want)
            assert np.array_equal(fx_apply(2**40, 30, q), np.array(q) * 1024)
        for q in (np.array([2**33]), np.array([-(2**63)]), -(2**33)):
            with pytest.raises(FxOverflow):
                requantize(q, in_scale, p_out)
        for q in (np.array([2**23]), np.array([-(2**63)]), -(2**23)):
            with pytest.raises(FxOverflow):
                fx_apply(2**40, 30, q)
        assert requantize(2**33 - 1, in_scale, p_out) == p_out.qmax
        assert fx_apply(2**40, 30, 2**23 - 1) == (2**23 - 1) * 1024

    def test_two_terms_round_once_and_saturate(self):
        # 0.5 * a + 0.25 * b, one rounding, into [0, 255] around zero 128
        op = Rescale((1, 1), 1, zero=128, lo=0, hi=255, bounds=(1000, 1000))
        a = np.array([1, 3, -3, 500, -500])
        b = np.array([0, 0, 0, 500, -500])
        want = [128 + _ref_round_div(x + y, 2) for x, y in zip(a.tolist(), b.tolist())]
        assert op(a, b).tolist() == [min(max(v, 0), 255) for v in want]
        assert op.finish_in_place(op.term(0, a) + op.term(1, b)).tolist() == op(a, b).tolist()

    def test_one_bound_per_term(self):
        # a missing bound left its term out of the overflow proof: this one
        # wrapped int64 and returned [1]
        with pytest.raises(ValueError):
            Rescale((2**30, 2**30), 30, bounds=(5,))(np.array([1]), np.array([2**40]))
        raw = np.array([3, 3, 5], dtype=np.int64)
        for bounds in ((np.array([1, 2]),), (4,), (np.array([1, 2, 3]), 4)):
            with pytest.raises(ValueError):
                Rescale((raw,), 8, bounds=bounds)
        with pytest.raises(ValueError):
            Rescale((3,), 8, bounds=(np.array([4]),))
        with pytest.raises(ValueError):
            Rescale((3, 5), 8, bounds=(4, -1))
        op = Rescale((2**30, 2**30), 30, bounds=(5, 5))
        assert op(np.array([1]), np.array([5])).tolist() == [6]

    def test_saturate_scalar_and_array(self):
        assert saturate(300, 0, 255) == 255
        assert saturate(-4, 0, 255) == 0
        x = np.array([-4, 7, 300], dtype=np.int64)
        assert saturate(x, 0, 255).tolist() == [0, 7, 255]


class TestInPlaceFinish:
    """Rescale.finish_in_place's one-array rounding kernel, on a copy and
    through __call__, against big-int references."""

    def test_matches_big_int_and_leaves_acc_alone(self):
        rng = np.random.default_rng(42)
        accumulators = TestRoundingProperties()._accumulators
        for f in range(1, 63):
            vals = accumulators(rng, f)
            acc = np.array(vals, dtype=np.int64)
            before = acc.copy()
            rounded = [_ref_round_div(v, 2**f) for v in vals]
            # no saturation and no zero: the bare rounding, both paths
            bound = max(map(abs, vals))
            op = Rescale((1,), f, bounds=(bound,))
            # vals holds exact ties, so this is the sign-fixing kernel
            assert not op.tie_free, f
            assert op.finish_in_place(acc.copy()).tolist() == rounded, f
            assert op(acc).tolist() == rounded, f
            assert [op(v) for v in vals] == rounded, f
            # zero point and saturation, in place on the fresh array
            lo, hi = sorted(int(v) for v in rng.integers(-(2**40), 2**40, size=2))
            zero = int(rng.integers(-(2**20), 2**20))
            op = Rescale((1,), f, zero, lo, hi, bounds=(bound,))
            assert not op.tie_free, f
            want = [min(max(r + zero, lo), hi) for r in rounded]
            assert op.finish_in_place(acc.copy()).tolist() == want, f
            assert op(acc).tolist() == want, f
            assert [op(v) for v in vals] == want, f
            np.testing.assert_array_equal(acc, before)

    def test_zero_fraction_bits_copies(self):
        acc = np.array([-7, 0, 9], dtype=np.int64)
        out = Rescale((1,), 0, 0, -5, 5, bounds=(9,))(acc)
        assert out.tolist() == [-5, 0, 5]
        assert acc.tolist() == [-7, 0, 9]


class TestClipUfunc:
    """saturate and finish_in_place clip with one call of the clip ufunc; in
    place on int64 arrays they equal np.maximum then np.minimum."""

    @staticmethod
    def _max_min(x, lo, hi):
        out = x.copy()
        np.maximum(out, lo, out=out)
        return np.minimum(out, hi, out=out)

    def test_saturate_bounds_of_every_kind(self):
        rng = np.random.default_rng(42)
        x = rng.integers(-(2**40), 2**40, size=64)
        lo_el = rng.integers(-(2**40), 0, size=64)
        hi_el = rng.integers(0, 2**40, size=64)
        for lo, hi in (
            (-(2**20), 2**20),
            (np.asarray(-(2**20), dtype=np.int64), np.asarray(2**20, dtype=np.int64)),
            (0, np.asarray(2**39, dtype=np.int64)),
            (lo_el, hi_el),
            (lo_el[None, :], hi_el[None, :]),
        ):
            a = np.array(x) if np.ndim(lo) < 2 else np.array(x)[None, :].repeat(3, axis=0)
            want = self._max_min(a, lo, hi)
            out = saturate(a, lo, hi)
            assert out is a
            np.testing.assert_array_equal(out, want)
            # the clip bites on both sides
            assert (want != np.broadcast_to(x, want.shape)).any(axis=-1).all()
        assert saturate(300, np.int64(0), np.int64(255)) == 255

    def test_finish_in_place_scalar_and_zero_d_bounds(self):
        rng = np.random.default_rng(42)
        t = rng.integers(-(2**30), 2**30, size=200)
        op = Rescale((12345,), 17, 9, -(2**20), 2**20, bounds=(2**30,))
        bare = op.unsaturated().finish_in_place(op.term(0, t))
        want = self._max_min(bare, -(2**20), 2**20)
        assert (want != bare).sum() > 10
        acc = op.term(0, t)
        out = op.finish_in_place(acc)
        assert out is acc
        np.testing.assert_array_equal(out, want)
        # the bound 0-d constants
        assert all(v.ndim == 0 and v.dtype == np.int64 for v in op._arr[2:])

    def test_finish_in_place_per_element_bounds(self):
        # as in the cell's stacked ij_fc rescale: one lo, hi and raw per
        # element of the stacked operand
        rng = np.random.default_rng(42)
        parts = [
            (Rescale((raw,), f, 0, lo, hi, bounds=(2**14,)), 16)
            for raw, f, lo, hi in ((3001, 9, -300, 200), (-77, 4, -1000, 1500), (5, 1, -9, 9))
        ]
        op = Rescale.stack(parts)
        assert op.lo.shape == op.hi.shape == (48,)
        t = rng.integers(-(2**14), 2**14 + 1, size=(5, 48))
        bare = op.unsaturated().finish_in_place(op.term(0, t))
        want = self._max_min(bare, op.lo, op.hi)
        assert (want != bare).any() and (want == bare).any()
        np.testing.assert_array_equal(op.finish_in_place(op.term(0, t)), want)


class TestFoldedFinish:
    """The two-term call op(t0, t1) on a broadcast row and column, as the
    attention score table forms its sums, against finish_in_place on the
    summed accumulator and big ints, on a certified rescale and on one whose
    raws are rich in trailing zeros, so that it keeps the sign fix."""

    CERTIFIED = ((794568949, 869730877), 20, (300, 200))
    RICH = ((3 << 10, 5 << 12), 14, (300, 200))

    def _check(self, op: Rescale, t0, t1):
        acc = op.term(0, t0) + op.term(1, t1)
        want = _ref_rescaled(acc, op)
        before = [t0.copy(), t1.copy()]
        np.testing.assert_array_equal(op.finish_in_place(acc.copy()), want)
        np.testing.assert_array_equal(op(t0, t1), want)
        for a, b in zip((t0, t1), before):
            np.testing.assert_array_equal(a, b)
        return acc

    def test_every_half_and_the_bounds(self):
        for (raws, f, bounds), tie_free in ((self.CERTIFIED, True), (self.RICH, False)):
            for zero, lo, hi in ((0, None, None), (3001, None, None), (-517, -(2**9), 2**9)):
                op = Rescale(raws, f, zero, lo, hi, bounds=bounds)
                assert op.tie_free is tie_free
                # every operand pair of the box: ±bounds and, where any
                # exists, every exact half; term 0 is the broadcast row
                a, b = bounds
                t0 = np.arange(-a, a + 1, dtype=np.int64)
                t1 = np.arange(-b, b + 1, dtype=np.int64)[:, None]
                acc = self._check(op, t0, t1)
                assert _has_tie(acc, f) is not tie_free

    def test_seeded_random_sample(self):
        rng = np.random.default_rng(42)
        kinds = {True: 0, False: 0}
        for _ in range(300):
            raws = [_random_raw(rng) for _ in range(2)]
            f = int(rng.integers(1, 30))
            bounds = [int(2 ** rng.uniform(0, 12)) for _ in range(2)]
            zero = int(rng.integers(-(2**16), 2**16))
            clip = sorted(int(v) for v in rng.integers(-(2**10), 2**10, size=2))
            op = Rescale(raws, f, zero, *(clip if rng.random() < 0.5 else (None, None)),
                         bounds=bounds)
            t0 = rng.integers(-bounds[0], bounds[0] + 1, size=16)
            t1 = rng.integers(-bounds[1], bounds[1] + 1, size=(24, 16))
            t0[:2], t1[:2, :2] = (-bounds[0], bounds[0]), [[-bounds[1]], [bounds[1]]]
            self._check(op, t0, t1)
            kinds[op.tie_free] += 1
        assert min(kinds.values()) >= 50, kinds

    def test_headroom_for_the_constant(self):
        # the plain finish adds only the rounding half before the shift: at
        # f = 1 an accumulator up to INT64_MAX - 1 - 2|zero| rounds exactly
        for zero in (5, 2**40, -(2**40)):
            room = (1 << 63) - 1 - abs(1 + 2 * zero)
            op = Rescale((1,), 1, zero, bounds=(room,))
            t = np.array([-room, -room + 1, -1, 0, 1, room - 1, room], dtype=np.int64)
            want = [_ref_round_div(int(x), 2) + zero for x in t]
            assert op.finish_in_place(op.term(0, t)).tolist() == want
        # and the zero point joins after the shift, so it needs no headroom
        # in the accumulator: 2 << 62 would be 2^63
        op = Rescale((1,), 62, 2, bounds=(1,))
        assert op(np.array([-1, 0, 1])).tolist() == [2, 2, 2]


class TestPythonIntPath:
    """Rescale on Python ints, in plain int arithmetic, against its int64-array
    path (__call__ and finish_in_place) and big ints, bare, with a zero point
    and with a clip that bites, on the tie-free and the sign-fix kernel."""

    def _check(self, raws, f, bounds, operands, rng) -> bool:
        """operands: term tuples of Python ints, each within bounds; returns
        whether the rescale is tie-free."""
        zero = int(rng.integers(-(2**20), 2**20))
        bare, shifted = Rescale(raws, f, bounds=bounds), Rescale(raws, f, zero, bounds=bounds)
        accs = [sum(r * t for r, t in zip(raws, ts)) for ts in operands]
        rounded = [_ref_round_div(a, 2**f) + zero for a in accs]
        distinct = sorted(set(rounded))
        lo, hi = distinct[1], distinct[-2]
        clipped = Rescale(raws, f, zero, lo, hi, bounds=bounds)
        cols = [np.array(col, dtype=np.int64) for col in zip(*operands)]
        for op in (bare, shifted, clipped):
            assert op.tie_free == bare.tie_free
            array = op(*cols).tolist()
            assert op.finish_in_place(np.array(accs, dtype=np.int64)).tolist() == array
            ints = [op(*ts) for ts in operands]
            assert all(type(v) is int for v in ints)
            assert ints == array
            want = [_ref_round_div(a, 2**f) + op.zero for a in accs]
            if op.lo is not None:
                want = [min(max(v, lo), hi) for v in want]
            assert array == want
        # the clip bites on both sides
        assert min(rounded) < lo <= hi < max(rounded)
        return bare.tie_free

    def test_one_term_every_half_and_the_bounds(self):
        # raw = 2^(f-1): every odd operand is an exact half, of either sign
        rng = np.random.default_rng(42)
        for f in range(1, 63):
            raw = 1 << (f - 1)
            bound = min(9, (2**63 - 1 - raw) // raw)
            operands = [(t,) for t in range(-bound, bound + 1)]
            assert not self._check((raw,), f, (bound,), operands, rng), f

    def test_two_terms_every_half_in_the_box(self):
        # raws 2^(f-1) and 3 * 2^(f-1): a + 3b odd is an exact half
        rng = np.random.default_rng(42)
        box = [(a, b) for a in range(-4, 5) for b in range(-3, 4)]
        for f in range(1, 61):
            half = 1 << (f - 1)
            assert not self._check((half, 3 * half), f, (4, 3), box, rng), f

    def test_tie_free_at_the_bounds(self):
        # an odd raw times operands below 2^(f-1) never lands on a half,
        # and a second raw that is a multiple of 2^f moves no residue
        rng = np.random.default_rng(42)
        for f in range(2, 58):
            bound = (1 << (f - 1)) - 1
            headroom = 2**63 - 1 - (1 << (f - 1)) - (3 << f) * 5
            raw = (min(int(rng.integers(1, 2**40)), headroom // bound) - 1) | 1
            mids = rng.integers(-bound, bound, size=30, endpoint=True).tolist()
            ends = [-bound, bound, 1 - bound, bound - 1, 0, 1, -1]
            assert self._check((raw,), f, (bound,), [(t,) for t in ends + mids], rng), f
            pairs = [(t, u) for t in ends + mids[:5] for u in (-5, 0, 5)]
            assert self._check((raw, 3 << f), f, (bound, 5), pairs, rng), f

    def test_zero_fraction_bits(self):
        rng = np.random.default_rng(42)
        box = [(a, b) for a in range(-5, 6) for b in range(-5, 6)]
        assert self._check((3,), 0, (5,), [(t,) for t in range(-5, 6)], rng)
        assert self._check((-7, 2), 0, (5, 5), box, rng)

    def test_numpy_scalar_operands(self):
        op = Rescale((3, 5), 2, 7, 0, 20, bounds=(9, 9))
        for a, b in ((-9, 9), (3, -2), (9, 9), (-9, -9)):
            got = op(np.int64(a), np.int64(b))
            want = min(max(_ref_round_div(3 * a + 5 * b, 4) + 7, 0), 20)
            assert type(got) is int and got == op(a, b) == want


class TestCenteredRescale:
    def test_equals_uncentered_minus_zero(self):
        rng = np.random.default_rng(42)
        acc = np.arange(-(2**17), 2**17 + 1, dtype=np.int64)
        for _ in range(50):
            f = int(rng.integers(1, 12))
            qmax = int(rng.choice([255, 65535]))
            zero = int(rng.integers(0, qmax, endpoint=True))
            raw = int(rng.integers(1, 2**12))
            op = Rescale((raw,), f, zero, 0, qmax, bounds=(2**17,))
            centered = op.centered()
            assert (centered.zero, centered.lo, centered.hi) == (0, -zero, qmax - zero)
            assert (op.zero, op.lo, op.hi) == (zero, 0, qmax)
            np.testing.assert_array_equal(centered(acc), op(acc) - zero)
            assert [centered(int(v)) for v in acc[::997]] == (op(acc[::997]) - zero).tolist()

    def test_cell_rescales(self):
        """Every centered site of a compiled cell equals the uncentered
        rescale that requant_multiplier gives, minus Z: on every operand its
        bound admits, or on 2^20 of them, both ends included, where the
        bound passes 2^20.  fc and ij are the two blocks of the cell's
        stacked rescale."""
        from irnn.quant import max_centered
        from irnn.rnn import CellConfig, calibrate_lstm_cell

        def plain_rescale(m, p_out, bound):
            # the reference, from requant_multiplier directly
            raw, f = requant_multiplier(m)
            return Rescale((raw,), f, p_out.zero_point, p_out.qmin,
                           p_out.qmax, bounds=(bound,))

        rng = np.random.default_rng(7)
        n = m = 8
        wx = rng.normal(0.0, 0.3, size=(4 * m, n))
        wh = rng.normal(0.0, 0.3, size=(4 * m, m))
        bias = rng.normal(0.0, 0.1, size=4 * m)
        seqs = rng.normal(0.0, 1.0, size=(3, 10, n))
        for bits in (8, 16):
            cell = calibrate_lstm_cell(wx, wh, bias, seqs, CellConfig(bits, bits, True))
            p = cell.sites
            p_sig = cell.tables["sigmoid"].out_params
            p_tanh = cell.tables["tanh_gate"].out_params
            pairs = {
                out: (
                    centered,
                    plain_rescale(p[src].scale * w.params.scale / p[out].scale, p[out], gemv.bound),
                    gemv.bound,
                )
                for out, src, w, centered, gemv in (
                    ("xprod", "x", cell.weights.wx, cell._xprod, cell._gemv_x),
                    ("hprod", "h", cell.weights.wh, cell._hprod, cell._gemv_h),
                )
            }
            for site, k, pb, bound in (("fc", 1, p["c"], 255 * 2**bits), ("ij", 0, p_tanh, 255 * 255)):
                pairs[site] = (
                    _block(cell._ij_fc, k, m),
                    plain_rescale(p_sig.scale * pb.scale / p[site].scale, p[site],
                                  max_centered(p_sig) * max_centered(pb)),
                    bound,
                )
            for site, (centered, plain, bound) in pairs.items():
                if bound <= 2**20:
                    ops = np.arange(-bound, bound + 1, dtype=np.int64)
                else:
                    ops = rng.integers(-bound, bound, size=2**20, endpoint=True)
                    ops[:2] = -bound, bound
                z = p[site].zero_point
                np.testing.assert_array_equal(centered(ops), plain(ops) - z, err_msg=site)


def _block(stacked: Rescale, k: int, m: int):
    """Block k of a rescale stacked from m-element blocks, as a rescale of
    operands for that block alone: they fill its rows, the other blocks 0."""

    def run(ops):
        rows = -(-len(ops) // m)
        stacked_ops = np.zeros((rows, len(stacked.raws[0])), dtype=np.int64)
        flat = np.zeros(rows * m, dtype=np.int64)
        flat[: len(ops)] = ops
        stacked_ops[:, k * m : (k + 1) * m] = flat.reshape(rows, m)
        return stacked(stacked_ops)[:, k * m : (k + 1) * m].ravel()[: len(ops)]

    return run


class TestStackedRescale:
    """Rescale.stack against the separate rescales it stacks."""

    @staticmethod
    def _parts(pa, pb, pc, pd, pe):
        from irnn.quant import max_centered, qmul_rescale

        return (
            (qmul_rescale(pa, pb, pc).centered(), max_centered(pa) * max_centered(pb)),
            (qmul_rescale(pa, pd, pe).centered(), max_centered(pa) * max_centered(pd)),
        )

    def test_equals_separate_rescales(self):
        """The lstm cell's ij/fc pair: every admitted operand at 8 bits, and
        2^20 of them, both ends included, at 16 bits; plus random grids, on
        which the two fraction-bit counts differ by as much as 18."""
        from irnn.quant import derive_params

        rng = np.random.default_rng(42)
        p_sig, p_tanh = derive_params(0.0, 1.0, 8), derive_params(-1.0, 1.0, 8)
        cases = []
        for bits in (8, 16):
            p_c = derive_params(-3.1, 2.7, bits)
            cases.append((p_sig, p_tanh, derive_params(-0.9, 1.0, bits), p_c,
                          derive_params(-2.9, 2.6, bits)))
        for _ in range(20):
            bits = int(rng.choice([8, 16]))
            grid = lambda lo, hi: derive_params(-lo, hi, bits)
            spans = 2.0 ** rng.uniform(-10, 10, size=4)
            cases.append((p_sig, p_tanh, grid(*spans[:2]), grid(2.0, 3.0), grid(*spans[2:])))
        m = 5
        for case in cases:
            (ij, ij_bound), (fc, fc_bound) = self._parts(*case)
            stacked = Rescale.stack(((ij, m), (fc, m)))
            # every element keeps its own part's fraction bits
            assert stacked.f.tolist() == [ij.f] * m + [fc.f] * m
            for k, (op, bound) in enumerate(((ij, ij_bound), (fc, fc_bound))):
                if bound <= 2**20:
                    ops = np.arange(-bound, bound + 1, dtype=np.int64)
                else:
                    ops = rng.integers(-bound, bound, size=2**20, endpoint=True)
                    ops[:2] = -bound, bound
                np.testing.assert_array_equal(_block(stacked, k, m)(ops), op(ops))

    def test_exact_rounding_at_ties(self):
        # raw * t = (j + 1/2) * 2^f exactly: each element rounds the tie
        # away from zero on both signs at its own f, as its part does
        for g in range(1, 20):
            for k in (1, 7, 30):
                low = Rescale((1,), g, 0, -(2**40), 2**40, bounds=(2**30,))
                high = Rescale((1,), g + k, 0, -(2**40), 2**40, bounds=(2**20,))
                stacked = Rescale.stack(((low, 1), (high, 1)))
                assert stacked.f.tolist() == [g, g + k]
                assert stacked.half.tolist() == [1 << (g - 1), 1 << (g + k - 1)]
                for col, op in enumerate((low, high)):
                    ties = np.array([(2 * j + 1) << (op.f - 1) for j in range(-4, 4)],
                                    dtype=np.int64)
                    # the ties within the part's bound, both neighbours too
                    ties = ties[np.abs(ties) < op.bounds[0]]
                    for t in (ties - 1, ties, ties + 1):
                        operand = np.zeros((len(t), 2), dtype=np.int64)
                        operand[:, col] = t
                        np.testing.assert_array_equal(stacked(operand)[:, col], op(t))
                        np.testing.assert_array_equal(stacked(operand)[:, 1 - col], 0)

    def test_parts_that_would_overflow_when_lifted_stack(self):
        # each part fits on its own, and lifting the 8-fraction-bit raw by
        # 40 bits to the other's f would not: the stack keeps each part's
        # f, so it is built, and each block equals its part over every
        # operand the part's bound admits
        wide = Rescale((2**20,), 8, 0, -255, 255, bounds=(2**20,))
        deep = Rescale((3,), 48, 0, -255, 255, bounds=(2**20,))
        stacked = Rescale.stack(((wide, 4), (deep, 4)))
        assert stacked.f.tolist() == [8] * 4 + [48] * 4
        ops = np.arange(-(2**20), 2**20 + 1, dtype=np.int64)
        for k, op in enumerate((wide, deep)):
            np.testing.assert_array_equal(_block(stacked, k, 4)(ops), op(ops))

    def test_quiet_j_gate_cell(self):
        """An lstm whose j gate is 10^4 times quieter puts the fc part's
        fraction bits 20 above ij's, where one lifted f overflowed int64:
        the cell builds, and each block of its ij/fc stack equals that
        part's own rescale over every operand the part's bound admits."""
        from test_graph import _arrays

        from irnn.cli import build_model
        from irnn.graph import FloatModel
        from irnn.pwl import TANH_GRID, UNIT_GRID
        from irnn.quant import max_centered, qmul_rescale
        from irnn.rnn import CellConfig

        rng = np.random.default_rng(42)
        arrays = _arrays("lstm", rng)
        m = arrays["wh"].shape[1]
        for key in ("wx", "wh", "bias"):
            arrays[key][2 * m : 3 * m] *= 1e-4
        model = build_model(FloatModel("lstm", arrays), rng.normal(0.0, 1.0, size=(4, 8, 8)),
                            CellConfig(16, 16))
        cell = model.cells["main"]
        fs = []
        for k, (site, pb) in enumerate((("ij", TANH_GRID), ("fc", cell.sites["c"]))):
            part = qmul_rescale(UNIT_GRID, pb, cell.sites[site]).centered()
            fs.append(part.f)
            bound = max_centered(UNIT_GRID) * max_centered(pb)
            block = _block(cell._ij_fc, k, m)
            for lo in range(-bound, bound + 1, 2**20):
                ops = np.arange(lo, min(lo + 2**20, bound + 1), dtype=np.int64)
                np.testing.assert_array_equal(block(ops), part(ops), err_msg=site)
        assert fs == [17, 37]

    def test_constants_and_output_are_int64(self):
        # the per-element f and half are array shift counts, and numpy 1.x
        # and 2.x promote mixed integer operands differently (NEP 50): every
        # constant of a stacked rescale, of its variants and its output on
        # int64 operands stays int64
        parts = [(Rescale((raw,), f, 0, -(2**15), 2**15, bounds=(2**20,)), 3)
                 for raw, f in ((-(2**40) + 1, 60), (77, 9), (1, 0))]
        op = Rescale.stack(parts)
        for variant in (op, op.unsaturated(), op.centered(), op.with_bounds(-5, 5, 2)):
            consts = (*variant.raws, variant.f, variant.half, *variant.bounds)
            assert all(v.dtype == np.int64 for v in consts)
            t = np.arange(-(2**20), 2**20 + 1, 2**15, dtype=np.int64)[:, None].repeat(9, axis=1)
            out = variant(t)
            assert out.dtype == np.int64
            assert all(v.dtype == np.int64 for v in variant._arr if v is not None)
        assert op.lo.dtype == op.hi.dtype == np.int64
        want = np.concatenate([part(t[:, :3]) for part, _ in parts], axis=1)
        np.testing.assert_array_equal(op(t), want)

    @staticmethod
    def _per_element(raw, bound, f):
        """The reference: the derivation once run on a stacked term's
        per-element arrays, over every element's (raw, bound, f) triple;
        returns (tie_free, fits int64)."""
        from irnn.fixedpoint import _tie_free

        triples = set(zip(raw.tolist(), bound.tolist(), f.tolist()))
        fits = all(abs(r) * b + (1 << max(g - 1, 0)) <= 2**63 - 1 for r, b, g in triples)
        return all(_tie_free(g, ((r, b),)) for r, b, g in triples), fits

    def test_proof_from_parts_equals_per_element_derivation(self):
        """Every stacked rescale of the golden configs' cells (ij/fc, and the
        decoder's hprod/query), plus random stacks that refuse the
        certificate as often as they grant it: the proof read from the
        parts' pairs equals the per-element derivation."""
        from test_golden import CONFIGS, SEED, SEQS, N, T, _float_model

        from irnn.cli import build_model
        from irnn.rnn import CellConfig

        ops = []
        for kind in ("lstm", "bilstm", "encdec"):
            for cfg in CONFIGS.values():
                rng = np.random.default_rng(SEED)
                fm = _float_model(kind, rng)
                model = build_model(fm, rng.normal(0.0, 1.0, size=(SEQS, T, N)), CellConfig(**cfg))
                ops += [cell._ij_fc for cell in model.cells.values()]
                if model.attention is not None:
                    ops.append(model.cells["dec"]._hprod)
        assert len(ops) == 18
        rng = np.random.default_rng(42)
        for _ in range(300):
            parts = []
            for _ in range(int(rng.integers(1, 4))):
                bound = int(rng.integers(0, 61))
                part = Rescale((_random_raw(rng),), int(rng.integers(3, 15)), 0, -9, 9,
                               bounds=(bound,))
                parts.append((part, int(rng.integers(1, 4))))
            ops.append(Rescale.stack(parts))
        verdicts = set()
        for op in ops:
            (raw,), (bound,) = op.raws, op.bounds
            assert (op.tie_free, True) == self._per_element(raw, bound, op.f)
            verdicts.add(op.tie_free)
        assert verdicts == {True, False}
        # each part fits alone, and so does every element at its own f, by
        # the reference too; lifted to one f, the first part would not
        wide = Rescale((2**20,), 8, 0, -255, 255, bounds=(2**20,))
        deep = Rescale((3,), 48, 0, -255, 255, bounds=(2**20,))
        op = Rescale.stack(((wide, 4), (deep, 4)))
        (raw,), (bound,) = op.raws, op.bounds
        assert (op.tie_free, True) == self._per_element(raw, bound, op.f)
        lifted = np.repeat(np.array([2**60, 3], dtype=np.int64), 4)
        assert not self._per_element(lifted, bound, np.full(8, 48))[1]

    def test_rejects_uncentered_or_unsaturated_parts(self):
        op = Rescale((3,), 8, 0, -10, 10, bounds=(10,))
        bad_parts = (
            Rescale((3,), 8, 1, -10, 10, bounds=(10,)),
            Rescale((3,), 8, bounds=(10,)),
            Rescale((1, 2), 8, 0, -1, 1, bounds=(10, 10)),
        )
        for bad in bad_parts:
            with pytest.raises(ValueError):
                Rescale.stack(((op, 2), (bad, 2)))


class TestClippedGather:
    def test_equals_saturate_then_take(self):
        rng = np.random.default_rng(42)
        for qmax, extra in ((255, 0), (255, 40), (65535, 0)):
            # a table longer than the grid it serves is cut to the grid first
            lut = rng.integers(0, 256, size=qmax + 1 + extra).astype(np.uint8)
            codes = np.concatenate([
                np.arange(-300, 0), np.arange(0, qmax + 1, max(1, qmax // 1000)),
                np.arange(qmax - 5, qmax + 300), [-(2**40), 2**40],
            ]).astype(np.int64)
            want = lut.take(saturate(codes.copy(), 0, qmax))
            np.testing.assert_array_equal(lut[: qmax + 1].take(codes, mode="clip"), want)
            np.testing.assert_array_equal(
                Rescale((1,), 0, 0, 0, qmax, bounds=(2**40,)).unsaturated()(codes), codes
            )


_F = REQUANT_FRACTION_BITS
_WIDE = (-(2**63), 2**63 - 1)  # saturation bounds that clip nothing


def _quotient_ref(q: Quotient, nums, den, zero=0, lo=_WIDE[0], hi=_WIDE[1]) -> list:
    """Quotient q on nums over den, in Python big ints."""
    return [min(max(_ref_round_div(q.raw * v, den << _F) + zero, lo), hi) for v in nums]


def _at_limit(m: float, num_bound: int, den_bound: int, zero=0, lo=_WIDE[0],
              hi=_WIDE[1]) -> Quotient:
    """The Quotient of m built for num_bound and den_bound, which must be
    the largest numerator bound it admits: built one numerator past it, it
    raises FxOverflow."""
    with pytest.raises(FxOverflow, match="division numerator would overflow int64"):
        Quotient(m, zero, lo, hi, num_bound=num_bound + 1, den_bound=den_bound)
    return Quotient(m, zero, lo, hi, num_bound=num_bound, den_bound=den_bound)


def _ties(rng, den: int, top: int, raw: int = 1, size: int = 10) -> list:
    """Numerators whose raw * num is an exact half of D = den << f away
    from a multiple of it, one either side, of both signs, |num| <= top.
    raw must be a power of two no larger than D / 2."""
    step = (den << _F) // raw  # num = (k + 1/2) * step is a tie
    ks = [0, 1, top // step - 1] + rng.integers(0, top // step - 1, size=size).tolist()
    return [s * (k * step + step // 2 + d) for k in ks for d in (-1, 0, 1) for s in (1, -1)]


class TestEvenDivision:
    """Quotient divides raw * num by the even D = den << f, rounding half
    away from zero; it is checked against Python big ints on the divisors
    that MadNorm and the attention context meet."""

    def test_matches_rounded_div_and_big_int(self):
        # raw 1, so num itself is the scaled numerator: every tie is in reach
        rng = np.random.default_rng(42)
        # D itself must fit: 2^33 << 30 is 2^63
        assert Quotient(2.0**-_F, 0, *_WIDE, num_bound=0, den_bound=2**33 - 1).raw == 1
        with pytest.raises(FxOverflow):
            Quotient(2.0**-_F, 0, *_WIDE, num_bound=0, den_bound=2**33)
        for den in [1, 2, 3, 255] + rng.integers(1, 2**10, size=100).tolist():
            top = 2**63 - 1 - (den << (_F - 1))
            q = _at_limit(2.0**-_F, top, den)
            nums = [0, 1, -1, top, -top] + _ties(rng, den, top)
            nums += [int(v) * s for v in rng.integers(0, top, size=20) for s in (1, -1)]
            want = _quotient_ref(q, nums, den)
            arr = np.array(nums, dtype=np.int64)
            assert rounded_div(arr, den << _F).tolist() == want
            assert q(arr, den).tolist() == want, den

    def test_every_madnorm_divisor(self):
        # every q_d in 1..255, with the raw 1 ties and with the raws of
        # multipliers near the top, each at +-its proven bound
        rng = np.random.default_rng(42)
        for m in (2.0**-_F, 1.0, 0.75, 2.0**17 / 3, 987.654321):
            bound = (2**63 - 1 - (255 << (_F - 1))) // to_fixed(m, _F)
            q = _at_limit(m, bound, 255)
            extra = rng.integers(-bound, bound, size=20, endpoint=True).tolist()
            for den in range(1, 256):
                nums = [0, 1, -1, bound, -bound, bound - 1, 1 - bound] + extra
                if q.raw == 1:
                    nums += _ties(rng, den, bound, size=3)
                got = q(np.array(nums, dtype=np.int64), den)
                assert got.tolist() == _quotient_ref(q, nums, den), (q.raw, den)

    def test_attention_denominators_at_the_longest_source(self):
        # the context multiplier 1/8 (raw 2^27) over T states: numerators
        # up to T * 2^16 and denominators up to T * 255, at the largest T
        # that fits admits; every output saturates to an 8-bit grid at Z 128
        rng = np.random.default_rng(42)
        T = 1_032_506
        top = T * 2**16
        q = Quotient(0.125, 128, 0, 255, num_bound=top, den_bound=T * 255)
        wide = Quotient(0.125, 128, *_WIDE, num_bound=top, den_bound=T * 255)
        assert q.raw == 2**27
        with pytest.raises(FxOverflow):
            Quotient(0.125, 128, 0, 255, num_bound=(T + 1) * 2**16, den_bound=(T + 1) * 255)
        dens = [1, 2, 255, T, T * 255 - 1, T * 255]
        for den in dens + rng.integers(1, T * 255, size=40).tolist():
            nums = [0, 1, -1, top, -top] + _ties(rng, den, top, raw=2**27, size=3)
            nums += rng.integers(-top, top, size=10, endpoint=True).tolist()
            arr = np.array(nums, dtype=np.int64)
            assert wide(arr.copy(), den).tolist() == _quotient_ref(wide, nums, den, 128), den
            assert q(arr, den).tolist() == _quotient_ref(q, nums, den, 128, 0, 255), den

    def test_broadcast_divisors(self):
        # a batched MadNorm divides each row of [N x h] by its own q_d, an
        # [N x 1] column, at that grid's saturation bounds
        rng = np.random.default_rng(42)
        den = np.array([[1], [2], [3], [255], [128], [77]], dtype=np.int64)
        ties = np.array([_ties(rng, int(d[0]), 2**40, size=0) for d in den])
        # 127.5 and -128.5 steps of each row's D: ties just past hi and lo
        edge = (den << _F) * np.array([127, -128]) + (den << (_F - 1)) * np.array([1, -1])
        num = np.hstack([ties, edge, rng.integers(-(2**40), 2**40, size=(6, 9))])
        q = Quotient(2.0**-_F, 0, -128, 127, num_bound=int(np.abs(num).max()), den_bound=255)
        want = [_quotient_ref(q, row.tolist(), int(d[0]), 0, -128, 127)
                for row, d in zip(num, den)]
        assert q(num.copy(), den).tolist() == want
        assert [w[18:20] for w in want] == [[127, -128]] * 6

    def test_call_divides_in_place(self):
        q = Quotient(0.5, 3, -50, 50, num_bound=1000, den_bound=2)
        num = np.array([7, -7, 1000], dtype=np.int64)
        out = q(num, 2)
        assert out is num
        assert out.tolist() == [5, 1, 50]

    def test_column_divisors_at_every_madnorm_divisor(self):
        # a q_d column takes the float64 kernel: every q_d in 1..255 as one
        # [255 x 1] column, each row at +-its proven bound, its neighbours,
        # the raw 1 ties of its own divisor and shared random numerators
        rng = np.random.default_rng(42)
        den = np.arange(1, 256, dtype=np.int64)[:, None]
        for m in (2.0**-_F, 1.0, 0.75, 2.0**17 / 3, 987.654321):
            bound = (2**63 - 1 - (255 << (_F - 1))) // to_fixed(m, _F)
            q = _at_limit(m, bound, 255)
            extra = rng.integers(-bound, bound, size=20, endpoint=True).tolist()
            rows = [[0, 1, -1, bound, -bound, bound - 1, 1 - bound] + extra
                    + (_ties(rng, d, bound, size=3) if q.raw == 1 else [])
                    for d in range(1, 256)]
            out = q(np.array(rows, dtype=np.int64), den)
            assert out.dtype == np.int64
            want = [_quotient_ref(q, row, d) for d, row in enumerate(rows, 1)]
            assert out.tolist() == want, q.raw

    def test_column_divisors_at_the_largest_shifted_numerator(self):
        # raw 1 at +-the largest numerator each divisor admits, each row
        # through a quotient built at that limit, as a [1 x 1] column:
        # after the rounding add and the shift by f, num = top over den = 1
        # reaches 2^33 - 1, the largest shifted numerator the 2^33 bound
        # admits, and den = 2^33 - 1 is the largest divisor whose D fits
        rng = np.random.default_rng(42)
        dens = [1, 2, 3, 255, 2**32 - 1, 2**32, 2**33 - 2, 2**33 - 1]
        dens += rng.integers(1, 2**33, size=24).tolist()
        for den in dens:
            top = 2**63 - 1 - (den << (_F - 1))
            q = _at_limit(2.0**-_F, top, den)
            # the first tie and the last below top, their neighbours, both signs
            half = den << (_F - 1)
            last = (top - half) // (2 * half) * 2 * half + half
            ties = [s * (t + e) for t in (half, last) for e in (-1, 0, 1) for s in (1, -1)]
            row = [top, -top, top - 1, 1 - top, 0, 1, -1] + ties
            if den == 1:
                assert (top + (1 << (_F - 1))) >> _F == 2**33 - 1
            out = q(np.array([row], dtype=np.int64), np.array([[den]], dtype=np.int64))
            assert out.dtype == np.int64
            assert out.tolist() == [_quotient_ref(q, row, den)], den


class TestQuotientTieCertificate:
    """A Quotient built with the bound of its numerators skips the sign fix
    when 1 + v2(raw) + floor(log2(bound)) < f, since a tie needs
    2 * raw * num = odd * den * 2^f.  Checked by brute force over every
    8-bit centered numerator (bound 128, floor(log2) = 7) and every q_d in
    1..255, on both kernels."""

    BOUND = 128
    NUMS = list(range(-BOUND, BOUND + 1))

    @classmethod
    def _ties(cls, raw: int) -> list:
        """(num, q_d) pairs whose raw * num is an exact half of D away from
        a multiple of it, in Python big ints."""
        return [(v, d) for d in range(1, 256) for v in cls.NUMS
                if (raw * v) % (d << _F) == d << (_F - 1)]

    def _check_both_kernels(self, q: Quotient):
        for d in range(1, 256):
            got = q(np.array(self.NUMS, dtype=np.int64), d)
            assert got.tolist() == _quotient_ref(q, self.NUMS, d), (q.raw, d)
        cols = np.arange(1, 256, dtype=np.int64)[:, None]
        got = q(np.tile(np.array(self.NUMS, dtype=np.int64), (255, 1)), cols)
        assert got.tolist() == [_quotient_ref(q, self.NUMS, d) for d in range(1, 256)]

    @pytest.mark.parametrize("raw", [1, 3 << 2, -(5 << 17), (2**21 + 1) << 21, 7 << 21])
    def test_certified_raws_meet_no_tie(self, raw):
        # v2(raw) = 21 is the largest that 1 + v2 + 7 < 30 admits
        q = Quotient(raw * 2.0**-_F, 0, *_WIDE, num_bound=self.BOUND, den_bound=255)
        assert q.raw == raw and q.tie_free
        assert self._ties(raw) == []
        self._check_both_kernels(q)

    @pytest.mark.parametrize("raw", [1 << 22, 3 << 22, -(7 << 22), 1 << 30])
    def test_refused_raws_keep_the_sign_fix(self, raw):
        # v2(raw) = 22 is the first that 1 + v2 + 7 < 30 refuses; raw 2^30
        # is m = 1.0.  Each meets ties, negative ones among them, and the
        # sign fix rounds them away from zero
        q = Quotient(raw * 2.0**-_F, 0, *_WIDE, num_bound=self.BOUND, den_bound=255)
        ties = self._ties(raw)
        assert any(v < 0 for v, _ in ties) and any(v > 0 for v, _ in ties)
        self._check_both_kernels(q)
        assert q.raw == raw and not q.tie_free

    def test_larger_bound_lowers_the_threshold(self):
        # a larger bound moves the threshold down by its log2, built or
        # bounded: bounded() certifies from its own bound, not the first
        for raw, top in ((1, 2**29 - 1), (4, 2**27 - 1)):
            q = Quotient(raw * 2.0**-_F, 0, *_WIDE, num_bound=top, den_bound=255)
            assert q.tie_free
            assert not Quotient(raw * 2.0**-_F, 0, *_WIDE, num_bound=top + 1,
                                den_bound=255).tie_free
            assert not q.bounded(top + 1, 255).tie_free
            assert q.bounded(top + 1, 255).bounded(top, 255).tie_free
            assert q.bounded(1, 1).tie_free


class TestQuotientProof:
    """A Quotient proves at construction that D and raw * num plus the
    rounding add D/2 fit int64 for every num and den within its bounds;
    bounded() proves the same division for other bounds."""

    def test_built_past_int64_raises(self):
        # raw 2^30 (m = 1.0) and den 255: raw * num + 255 * 2^29 <= 2^63 - 1
        top = (2**63 - 1 - (255 << (_F - 1))) >> _F
        q = Quotient(1.0, 0, *_WIDE, num_bound=top, den_bound=255)
        for num_bound, den_bound in ((top + 1, 255), (0, 2**33), (2**62, 1)):
            with pytest.raises(FxOverflow, match="division numerator would overflow int64"):
                Quotient(1.0, 0, *_WIDE, num_bound=num_bound, den_bound=den_bound)
            with pytest.raises(FxOverflow, match="division numerator would overflow int64"):
                q.bounded(num_bound, den_bound)
        with pytest.raises(FxOverflow, match="^context accumulator would overflow int64$"):
            Quotient(1.0, 0, *_WIDE, num_bound=top + 1, den_bound=255,
                     name="context accumulator")

    def test_bounded_keeps_the_division(self):
        # the same raw, name and constants, so the same codes
        q = Quotient(0.75, 3, -50, 50, num_bound=2**20, den_bound=255, name="x")
        wide = q.bounded(2**30, 2**20)
        assert (wide.raw, wide.name, wide._arr) == (q.raw, q.name, q._arr)
        with pytest.raises(FxOverflow, match="^x would overflow int64$"):
            q.bounded(2**63 // q.raw + 1, 1)
        num = np.arange(-(2**20), 2**20 + 1, 4097, dtype=np.int64)
        for den in (1, 7, 255):
            assert wide(num.copy(), den).tolist() == q(num.copy(), den).tolist()
            assert q(num.copy(), den).tolist() == _quotient_ref(q, num.tolist(), den, 3, -50, 50)


def _ref_round(x: float) -> int:
    """A float rounded half away from zero, exactly, via its rational value."""
    r = Fraction(x)
    return _ref_round_div(r.numerator, r.denominator)


class TestQaddDiffBigInt:
    def test_matches_big_int(self):
        from irnn.quant import derive_params, qadd_diff

        rng = np.random.default_rng(42)
        f = 30
        for _ in range(60):
            bits = [int(b) for b in rng.choice([8, 16], size=3)]
            pa, pb, pc = (
                derive_params(-float(rng.uniform(0.01, 8)), float(rng.uniform(0.01, 8)), b)
                for b in bits
            )
            raw_a = _ref_round(pa.scale / pc.scale * 2**f)
            raw_b = _ref_round(pb.scale / pc.scale * 2**f)
            qa = rng.integers(0, pa.qmax, size=300, endpoint=True)
            qb = rng.integers(0, pb.qmax, size=300, endpoint=True)
            qa[:4] = [0, pa.qmax, 0, pa.qmax]
            qb[:4] = [0, pb.qmax, pb.qmax, 0]
            want = [
                min(max(_ref_round_div(raw_a * (a - pa.zero_point)
                                       + raw_b * (b - pb.zero_point), 2**f)
                        + pc.zero_point, 0), pc.qmax)
                for a, b in zip(qa.tolist(), qb.tolist())
            ]
            got = qadd_diff(qa.astype(pa.dtype), pa, qb.astype(pb.dtype), pb, pc)
            assert got.tolist() == want
            assert [qadd_diff(int(a), pa, int(b), pb, pc) for a, b in zip(qa[:20], qb[:20])] == want[:20]


def _random_raw(rng) -> int:
    """An odd 1-8 bit magnitude times 2^(0..4), either sign."""
    odd = int(rng.integers(0, 2**7)) * 2 + 1
    return (odd << int(rng.integers(0, 5))) * int(rng.choice([1, -1]))


def _box(bounds):
    """Every operand tuple with |t_k| <= bounds[k], one int64 column each."""
    grids = np.meshgrid(*(np.arange(-b, b + 1, dtype=np.int64) for b in bounds))
    return [g.ravel() for g in grids]


def _ref_rescaled(acc, op: Rescale):
    """The big-int reference of op on accumulators acc, per distinct
    (value, f): a stacked op has one f per element of the last axis."""
    keys = list(zip(acc.ravel().tolist(), np.broadcast_to(op.f, acc.shape).ravel().tolist()))
    memo = {(v, f): _ref_round_div(v, 2**f) + op.zero for v, f in set(keys)}
    out = np.array([memo[key] for key in keys], dtype=np.int64).reshape(acc.shape)
    return out if op.lo is None else np.clip(out, op.lo, op.hi)


def _has_tie(acc, f: int) -> bool:
    return bool(np.any(acc % 2**f == 2 ** (f - 1)))


class TestTieCertificate:
    """Rescale.tie_free against brute force over whole operand boxes."""

    def _check(self, op: Rescale, acc, terms):
        """The certificate is exact, and both kernels match big ints."""
        assert op.tie_free == (not _has_tie(acc, op.f))
        want = _ref_rescaled(acc, op)
        np.testing.assert_array_equal(op(*terms), want)
        summed = op.term(0, terms[0])
        if len(terms) == 2:
            summed = summed + op.term(1, terms[1])
        np.testing.assert_array_equal(op.finish_in_place(summed), want)
        # the variants keep the certificate
        for variant in (op.unsaturated(), op.with_bounds(-(2**20), 2**20, 3)):
            assert variant.tie_free == op.tie_free

    def test_brute_force_soundness(self):
        rng = np.random.default_rng(42)
        certified = {"one": 0, "two": 0, "stacked": 0}
        refused = dict.fromkeys(certified, 0)
        for i in range(2000):
            kind = ("one", "two", "stacked")[i % 3]
            f = int(rng.integers(3, 15))
            lo, hi = sorted(int(v) for v in rng.integers(-(2**12), 2**12, size=2))
            if kind == "stacked":
                parts = []
                for _ in range(int(rng.integers(1, 4))):
                    bound = int(rng.integers(0, 61))
                    part_f = int(rng.integers(3, 15))
                    part = Rescale((_random_raw(rng),), part_f, 0, lo, hi, bounds=(bound,))
                    parts.append((part, 1))
                op = Rescale.stack(parts)
                bounds = [part.bounds[0] for part, _ in parts]
                # column j runs over -bounds[j]..bounds[j], padded with 0
                rows = 2 * max(bounds) + 1
                terms = (np.stack([
                    np.pad(np.arange(-b, b + 1, dtype=np.int64), (0, rows - 2 * b - 1))
                    for b in bounds
                ], axis=1),)
                acc = op.raws[0] * terms[0]
            else:
                n = 1 if kind == "one" else 2
                raws = [_random_raw(rng) for _ in range(n)]
                bounds = [int(b) for b in rng.integers(0, 61, size=n)]
                zero = int(rng.integers(-100, 100))
                op = Rescale(raws, f, zero, lo, hi, bounds=bounds)
                terms = tuple(_box(bounds))
                acc = sum(r * t for r, t in zip(raws, terms))
            self._check(op, acc, terms)
            (certified if op.tie_free else refused)[kind] += 1
        # every kind of rescale both certifies and refuses often
        assert min(certified.values()) >= 100 and min(refused.values()) >= 100, (
            certified, refused)

    def test_refusal_keeps_the_sign_fix(self):
        # 2^29 * -1 is exactly -0.5 at f = 30: a tie within the bound
        op = Rescale((1 << 29,), 30, bounds=(5,))
        assert not op.tie_free
        t = np.array([-5, -3, -1, 0, 1, 3, 5], dtype=np.int64)
        want = [-3, -2, -1, 0, 1, 2, 3]
        assert op(t).tolist() == want
        assert op.finish_in_place(op.term(0, t)).tolist() == want
        # one code less and no tie is in reach
        assert Rescale((1 << 29,), 30, bounds=(0,)).tie_free
        assert Rescale((1 << 28,), 30, bounds=(1,)).tie_free
        assert not Rescale((1 << 28,), 30, bounds=(2,)).tie_free

    def test_wide_two_term_boxes(self):
        """At 16-bit bounds, against a scan of the smaller operand's codes
        that solves for the other one with a modular inverse."""

        def scan(ra, rb, A, B, f):
            b = np.arange(-B, B + 1, dtype=np.int64)
            rest = (2 ** (f - 1) - rb * b) % 2**f
            p = (ra & -ra).bit_length() - 1
            ok = rest % 2**p == 0
            a = (rest >> p) * pow(ra >> p, -1, 2 ** (f - p)) % 2 ** (f - p)
            return not np.any(ok & (np.minimum(a, 2 ** (f - p) - a) <= A))

        rng = np.random.default_rng(42)
        verdicts = set()
        for _ in range(40):
            f = 30
            raws = [int(rng.integers(1, 2**20)) << int(rng.integers(0, 5)) for _ in range(2)]
            raws = [r * int(rng.choice([1, -1])) for r in raws]
            bounds = [int(rng.integers(1, 2**15)) for _ in range(2)]
            op = Rescale(raws, f, bounds=bounds)
            small = int(np.argmin(bounds))
            want = scan(raws[1 - small], raws[small], bounds[1 - small], bounds[small], f)
            assert op.tie_free == want, (raws, bounds)
            verdicts.add(want)
        assert verdicts == {True, False}
        # a + 3b reaches 2^29 only once a's bound does
        top = 2**29 - 3 * 4096
        assert Rescale((1, 3), 30, bounds=(top - 1, 4096)).tie_free
        assert not Rescale((1, 3), 30, bounds=(top, 4096)).tie_free
        # raws that are multiples of 2^f never move the residue, nor does a
        # term whose bound is 0
        assert Rescale((1 << 30, 3 << 31), 30, bounds=(2**20, 2**20)).tie_free
        assert Rescale((1, 1), 30, bounds=(5, 0)).tie_free


def _cell_rescales(cell) -> dict:
    """Every compiled rescale of an IntLstmCell, MadNorm plans included."""
    out = {k.lstrip("_"): v for k, v in vars(cell).items() if isinstance(v, Rescale)}
    for branch in ("norm_x", "norm_h"):
        plan = getattr(cell, "_" + branch)
        if plan is not None:
            out.update({f"{branch}.{k}": getattr(plan, k) for k in ("mean", "center", "dev")})
    return out


class TestStreamingFastPath:
    """The streaming benchmark configurations, rebuilt from seeded float
    weights: n = m = 64 and 32 pieces, an 8-bit encdec with attention and a
    16-bit MadNorm lstm.  Every one-term rescale they run is certified, so
    none of them falls back to the sign fix."""

    N = M = 64

    def _weights(self, rng, prefix, context=None):
        n, m = self.N, self.M
        arrays = {
            prefix + "wx": rng.normal(0.0, 0.3, size=(4 * m, n)),
            prefix + "wh": rng.normal(0.0, 0.3, size=(4 * m, m)),
            prefix + "bias": rng.normal(0.0, 0.1, size=4 * m),
        }
        if context is not None:
            arrays[prefix + "ws"] = rng.normal(0.0, 0.3, size=(4 * m, context))
        return arrays

    def _build(self, kind, cfg):
        from irnn import model_io as mio
        from irnn.cli import build_model

        rng = np.random.default_rng(5)
        if kind == "lstm":
            arrays = self._weights(rng, "")
        else:
            m = self.M
            arrays = {
                **self._weights(rng, "enc_"),
                **self._weights(rng, "dec_", context=m),
                "att_wq": rng.normal(0.0, 0.4, size=(m, m)),
                "att_wk": rng.normal(0.0, 0.4, size=(m, m)),
                "att_v": rng.normal(0.0, 0.4, size=m),
            }
        fm = mio.FloatModel(kind, {k: v.astype(np.float32) for k, v in arrays.items()})
        calib = rng.normal(0.0, 1.0, size=(4, 16, self.N))
        return build_model(fm, calib, cfg)

    def test_one_term_rescales_are_certified(self):
        from irnn.rnn import CellConfig

        encdec = self._build("encdec", CellConfig(8, 8, False, 32))
        lstm = self._build("lstm", CellConfig(16, 16, True, 32))
        ops = {}
        for name, model in (("encdec", encdec), ("lstm", lstm)):
            for stage, cell in model.cells.items():
                ops.update({f"{name}.{stage}.{k}": v for k, v in _cell_rescales(cell).items()})
        plan = encdec.attention
        ops.update({f"encdec.att.{k.lstrip('_')}": v
                    for k, v in vars(plan).items() if isinstance(v, Rescale)})
        one_term = {k for k, v in ops.items() if len(v.raws) == 1}
        for site in ("xprod", "hprod", "ij_fc", "h"):
            assert {f"encdec.enc.{site}", f"encdec.dec.{site}", f"lstm.main.{site}"} <= one_term
        for site in ("kproj", "qproj", "e", "to_exp"):
            assert f"encdec.att.{site}" in one_term
        assert {f"lstm.main.norm_x.{k}" for k in ("mean", "dev")} <= one_term
        assert [k for k in sorted(one_term) if not ops[k].tie_free] == []
        # so do the 8-bit model's two-term rescales, here as at the
        # benchmark's seed: about 2^17 accumulators against 2^30 residues
        # leave a tie unlikely; the 16-bit cell's c may have one
        two_term = [k for k, v in ops.items() if k.startswith("encdec") and len(v.raws) == 2]
        assert len(two_term) == 6 and all(ops[k].tie_free for k in two_term)
