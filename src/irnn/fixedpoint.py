"""Q-format fixed-point scalars and shift/mask rounding.

Requantization multipliers (ratios of quantization scales) are stored as
(raw, fraction_bits) integer pairs.  A Rescale is compiled from them once;
applying it to an integer accumulator is a 64-bit multiply followed by a
rounded right shift, so the inference path never touches floating point.

Rounding is round-to-nearest with ties away from zero: one add of half a
step (less one for negative values) before an arithmetic right shift,
which numpy and Python both define as a floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FixedPointScalar",
    "FxOverflow",
    "REQUANT_FRACTION_BITS",
    "Rescale",
    "format_table",
    "fx_apply",
    "requant_multiplier",
    "round_half_away",
    "rounded_div",
    "rounded_div_even",
    "rounded_shift",
    "saturate",
    "to_fixed",
]

# Default fraction bits for requantization multipliers; chosen so that an
# int32-range raw mantissa times a 16-bit-operand accumulator stays well
# inside int64.
REQUANT_FRACTION_BITS = 30

_INT64_MAX = 2**63 - 1
# acc >> 63 is -1 where acc < 0, else 0
_SIGN_SHIFT = np.asarray(63, dtype=np.int64)


class FxOverflow(OverflowError):
    """A fixed-point mantissa or product does not fit its integer width."""


def round_half_away(x):
    """Round to nearest integer, ties away from zero.

    Accepts scalars or arrays; returns a Python int for scalar input and an
    int64 array otherwise.
    """
    arr = np.asarray(x, dtype=np.float64)
    # floor(x + 0.5) where x >= 0, else ceil(x - 0.5): the same adds, and
    # truncation is floor above zero and ceil below
    out = np.trunc(arr + np.copysign(0.5, arr))
    if np.ndim(x) == 0:
        return int(out)
    return out.astype(np.int64)


def rounded_shift(acc, f: int):
    """acc / 2^f rounded half away from zero, as one add and one shift.

    Adding 2^(f-1), less one when acc is negative, before the arithmetic
    (floor) shift rounds ties away from zero on both signs.  An int64 array
    needs headroom for the add: |acc| <= INT64_MAX - 2^(f-1), which every
    Rescale bound leaves.
    """
    if f < 0:
        raise ValueError("fraction_bits must be >= 0")
    if f == 0:
        return acc
    if f > 63:
        # The entire product is fractional; int64 magnitudes stay below
        # 2^(f-1), so everything rounds to zero.
        return acc * 0
    if isinstance(acc, np.ndarray):
        acc = acc.astype(np.int64, copy=False)
        return (acc - (acc < 0) + (1 << (f - 1))) >> f
    acc = int(acc)
    return (acc - (acc < 0) + (1 << (f - 1))) >> f


def rounded_div(num, den):
    """num / den rounded half away from zero.

    den is a positive int, or an integer array of positive divisors that
    broadcasts against num.
    """
    if np.any(np.asarray(den) <= 0):
        raise ValueError("divisor must be positive")
    if isinstance(num, np.ndarray) or isinstance(den, np.ndarray):
        num = np.asarray(num).astype(np.int64)
        mag = (np.abs(num) + den // 2) // den
        return np.where(num >= 0, mag, -mag)
    num = int(num)
    mag = (abs(num) + den // 2) // den
    return mag if num >= 0 else -mag


def rounded_div_even(num, den):
    """num / den rounded half away from zero, for an even positive den.

    (num - (num < 0) + den/2) // den: for num = -a < 0 it is
    ceil((-a - den/2) / den) = -floor((a + den/2) / den) because den/2 is an
    integer.  num is an int64 array, which is not written, or an int."""
    out = num >> 63
    out += num
    out += den // 2
    out //= den
    return out


def saturate(x, lo: int, hi: int):
    """Clip integer codes to [lo, hi]; an int64 array is clipped in place."""
    if isinstance(x, np.ndarray):
        np.maximum(x, lo, out=x)
        return np.minimum(x, hi, out=x)
    return min(max(int(x), lo), hi)


@dataclass(frozen=True)
class FixedPointScalar:
    """A real number stored as raw * 2^-fraction_bits (Q-format)."""

    raw: int
    fraction_bits: int
    integral_bits: int
    signed: bool = True

    def __post_init__(self):
        if self.fraction_bits < 0:
            raise ValueError("fraction_bits must be >= 0")
        if self.integral_bits < 0:
            raise ValueError("integral_bits must be >= 0")
        # raw fits Q(i.f) when its magnitude needs at most i + f bits;
        # comparing bit lengths never builds 2**(i + f) itself
        raw = int(self.raw)
        mag = ~raw if raw < 0 and self.signed else raw
        if mag < 0 or mag.bit_length() > self.integral_bits + self.fraction_bits:
            raise FxOverflow(
                f"raw {self.raw} does not fit Q{self.integral_bits}."
                f"{self.fraction_bits} ({'signed' if self.signed else 'unsigned'})"
            )

    @property
    def value(self) -> float:
        return self.raw * 2.0**-self.fraction_bits

    @property
    def resolution(self) -> float:
        return 2.0**-self.fraction_bits

    @property
    def range(self) -> tuple[float, float]:
        """Representable (low, high) of this Q-format."""
        hi = 2.0**self.integral_bits - 2.0**-self.fraction_bits
        lo = -(2.0**self.integral_bits) if self.signed else 0.0
        return (lo, hi)


def to_fixed(m: float, f: int, signed: bool = True) -> FixedPointScalar:
    """Convert a real multiplier to fixed point with f fraction bits."""
    if f < 0:
        raise ValueError("fraction_bits must be >= 0")
    if not math.isfinite(m):
        raise ValueError("multiplier must be finite")
    v = m * 2.0**f
    if not math.isfinite(v) or abs(v) > _INT64_MAX:
        raise FxOverflow(f"mantissa for {m!r} overflows int64 at f={f}")
    raw = round_half_away(v)
    if not signed and raw < 0:
        raise FxOverflow("negative multiplier in unsigned format")
    integral_bits = max(0, int(abs(raw)).bit_length() - f)
    return FixedPointScalar(raw, f, integral_bits, signed)


def requant_multiplier(m: float) -> FixedPointScalar:
    """Fixed-point form of a nonnegative requantization multiplier.

    Normalizes m = m_hat * 2^e with m_hat in (0.5, 1] and folds the exponent
    into fraction_bits, so the mantissa always carries REQUANT_FRACTION_BITS
    significant fraction bits regardless of the multiplier's magnitude.
    """
    if m < 0:
        raise ValueError("requantization multipliers are ratios of positive scales")
    if m == 0.0:
        return FixedPointScalar(0, REQUANT_FRACTION_BITS, 0)
    e = math.ceil(math.log2(m))
    # log2 can land on the wrong side of a power of two; nudge until
    # m * 2^-e is in (0.5, 1].
    while m * 2.0**-e > 1.0:
        e += 1
    while m * 2.0**-e <= 0.5:
        e -= 1
    f = REQUANT_FRACTION_BITS - e
    if f < 0:
        raise FxOverflow(f"multiplier {m!r} too large for fixed-point form")
    f = min(f, 62)
    return to_fixed(m, f)


class Rescale:
    """A compiled fixed-point rescale, the one integer requantization step.

    Computes saturate(round(sum_k raws[k] * terms[k] / 2^f) + zero, lo, hi)
    over one int64 accumulator with a single rounding, half away from zero.
    One term is a requantization multiplier; two terms add operands that
    live on different grids.  Real scale ratios become `raws` once, when
    the rescale is built; applying it is integer-only.  Terms are Python
    ints or int64 arrays of centered values.

    `bounds` holds the largest |term| each operand can take.  They are
    checked here, once: the accumulator plus the rounding add must fit
    int64, else FxOverflow.  With lo and hi omitted nothing saturates.
    A stacked rescale (see stack) has one term whose raw, bound, lo and hi
    are int64 arrays, one entry per operand element.  A rescale is not
    changed after construction; with_bounds makes a variant.
    """

    __slots__ = ("raws", "f", "zero", "lo", "hi", "bounds", "_arr")

    def __init__(self, raws, f: int, zero: int = 0, lo=None, hi=None, *, bounds):
        if not 1 <= len(raws) <= 2:
            raise ValueError("a rescale combines one or two terms")
        if f < 0:
            raise ValueError("fraction_bits must be >= 0")
        self.raws = tuple(r if isinstance(r, np.ndarray) else int(r) for r in raws)
        self.f = f
        self.zero = int(zero)
        self.lo, self.hi = lo, hi
        self.bounds = tuple(bounds)
        self._require_fit()
        self._arr = None  # see _array_constants

    def _array_constants(self) -> tuple:
        """The int64-array path's constants (raws, half, f, zero, lo, hi) as
        0-d arrays, which ufuncs take without converting a Python int on
        every call; () where f is outside 1..63 or a constant is past int64.

        Built on the first array call, so a rescale that only seeds a
        variant (centered, with_bounds, stack) never builds them; threads
        that race here build equal tuples."""
        if self._arr is None:
            arr, f = (), self.f
            if 0 < f < 64:
                try:
                    consts = (*self.raws, 1 << (f - 1), f, self.zero or None, self.lo, self.hi)
                    arr = tuple(
                        None if v is None else np.asarray(v, dtype=np.int64) for v in consts
                    )
                except OverflowError:
                    pass
            self._arr = arr
        return self._arr

    def _require_fit(self) -> None:
        # in Python ints, so a product past int64 cannot wrap
        total = 0
        for raw, bound in zip(self.raws, self.bounds):
            if isinstance(raw, np.ndarray):
                # a stacked term: each element's raw with that element's
                # bound, over the few distinct pairs
                total += max(abs(r) * b for r, b in set(zip(raw.tolist(), bound.tolist())))
            else:
                total += abs(raw) * int(bound)
        if total + (1 << max(self.f - 1, 0)) > _INT64_MAX:
            raise FxOverflow("rescale accumulator would overflow int64")

    def term(self, k: int, t):
        """Operand k scaled into the accumulator (for hoisting a term)."""
        if isinstance(t, np.ndarray):
            arr = self._array_constants()
            if arr:
                return arr[k] * t
        return self.raws[k] * t

    def finish(self, acc):
        """Round an accumulator of summed terms, add zero, saturate.

        An int64 array is rounded in place in one fresh array, never in acc;
        acc >> 63 is -1 where acc < 0, which makes it rounded_shift."""
        arr = self._arr if self._arr is not None else self._array_constants()
        if arr and isinstance(acc, np.ndarray) and acc.dtype == np.int64:
            *_, half, f, zero, lo, hi = arr
            out = acc >> _SIGN_SHIFT
            out += acc
            out += half
            out >>= f
            if zero is not None:
                out += zero
            if lo is None:
                return out
            np.maximum(out, lo, out=out)
            return np.minimum(out, hi, out=out)
        out = rounded_shift(acc, self.f) + self.zero
        if self.lo is None:
            return out
        return saturate(out, self.lo, self.hi)

    def with_bounds(self, lo, hi, zero: int | None = None) -> Rescale:
        """The same multiply and rounding with other saturation bounds and,
        given, another zero point."""
        zero = self.zero if zero is None else zero
        return Rescale(self.raws, self.f, zero, lo, hi, bounds=self.bounds)

    def centered(self) -> Rescale:
        """This rescale minus its zero point, exactly and with no add for it:
        saturate(r + z, lo, hi) - z == saturate(r, lo - z, hi - z)."""
        return self.with_bounds(self.lo - self.zero, self.hi - self.zero, 0)

    def unsaturated(self) -> Rescale:
        """This rescale without its final clip, for a caller that clips
        anyway: a LUT gather lut[:hi + 1].take(x, mode="clip") with lo == 0
        is the saturation."""
        return self.with_bounds(None, None)

    @classmethod
    def stack(cls, parts) -> Rescale:
        """One rescale of a stacked operand, from (rescale, length, bound) parts.

        Each part is a one-term, centered, saturating rescale applied to the
        next `length` elements, whose magnitudes are at most `bound`.  Every
        raw is lifted to the largest fraction-bit count f, which changes no
        rounding: with g = f - k >= 1, A = raw * t + 2^(g-1) and s = 1 where
        raw * t < 0, else 0, (raw << k) * t rounds to
        floor((A - s / 2^k) / 2^g) and raw * t to floor((A - s) / 2^g), and
        the two agree because no multiple of 2^g lies strictly between A - 1
        and A.  (With g = 0 both give raw * t.)  The lifted accumulators
        plus the rounding add must fit int64, else FxOverflow.
        """
        f = max(r.f for r, _, _ in parts)
        raws = []
        for r, _, _ in parts:
            if len(r.raws) != 1 or r.zero or r.lo is None:
                raise ValueError("stacked parts are one-term, centered, saturating rescales")
            raws.append(r.raws[0] << (f - r.f))
            if abs(raws[-1]) > _INT64_MAX:
                raise FxOverflow("stacked rescale accumulator would overflow int64")
        sizes = [n for _, n, _ in parts]

        def per_element(values):
            return np.repeat(np.array(values, dtype=np.int64), sizes)

        return cls(
            (per_element(raws),), f, 0,
            per_element([r.lo for r, _, _ in parts]),
            per_element([r.hi for r, _, _ in parts]),
            bounds=(per_element([bound for _, _, bound in parts]),),
        )

    def __call__(self, *terms):
        acc = self.term(0, terms[0])
        if len(terms) == 2:
            acc = acc + self.term(1, terms[1])
        return self.finish(acc)


def fx_apply(fx: FixedPointScalar, q, zero_out: int = 0):
    """round(fx.value * q) + zero_out, in integer arithmetic.

    q may be a Python int or an integer ndarray; the result has the same
    kind.  The product raw * q must fit int64, else FxOverflow.
    """
    if isinstance(q, np.ndarray):
        q = q.astype(np.int64)
        # not np.abs, which leaves INT64_MIN negative
        bound = max(-int(q.min(initial=0)), int(q.max(initial=0)))
        return Rescale((fx.raw,), fx.fraction_bits, zero_out, bounds=(bound,))(q)
    return int(Rescale((fx.raw,), fx.fraction_bits, zero_out, bounds=(abs(int(q)),))(int(q)))


def format_table(bitwidth: int = 8) -> list[dict]:
    """Representable ranges of b-bit mantissas over power-of-two scalings.

    One row per scaling factor 2^1 down to 2^-(bitwidth), giving the value
    resolution and the (low, high) representable values for signed and
    unsigned mantissas.
    """
    if bitwidth < 2:
        raise ValueError("bitwidth must be >= 2")
    rows = []
    for e in range(1, -(bitwidth + 1), -1):
        s = 2.0**e
        signed_lo = -(2 ** (bitwidth - 1)) * s
        signed_hi = (2 ** (bitwidth - 1) - 1) * s
        unsigned_hi = (2**bitwidth - 1) * s
        rows.append(
            {
                "scaling": s,
                "precision": s,
                "signed": (signed_lo, signed_hi),
                "unsigned": (0.0, unsigned_hi),
            }
        )
    return rows
