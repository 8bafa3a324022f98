"""Fixed-point constants and shift/mask rounding.

A requantization multiplier (a ratio of quantization scales) is a plain
int raw at f fraction bits, m ~ raw * 2^-f: to_fixed gives the raw at a
given f, and requant_multiplier the pair (raw, f) with a normalized raw.
quant.rescale compiles a Rescale from them once; applying it to an integer
accumulator is a 64-bit multiply followed by a rounded right shift, so the
inference path never touches floating point.  A Quotient, compiled the same
way, is the one rounded division.

Rounding is round-to-nearest with ties away from zero, by an add before
an arithmetic right shift, which numpy and Python both define as a floor.
Adding half a step rounds every accumulator but a negative exact half
(acc = (j + 1/2) * 2^f, j < 0) the right way, and that one needs one less
to round away from zero.  A Rescale certifies at construction, from its
raws, fraction bits and operand bounds alone, whether any of its
accumulators can be an exact half (see _tie_free).  A certified rescale
rounds int64 arrays as (acc + half) >> f; every other one keeps the sign
fix, (acc + (acc >> 63) + half) >> f.  Both give the same codes.  Python
ints always take the sign fix, which costs next to nothing there.  A
Quotient is proven and certifies its ties the same way, from its bounds.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "FxOverflow",
    "Quotient",
    "REQUANT_FRACTION_BITS",
    "Rescale",
    "format_table",
    "fx_apply",
    "requant_multiplier",
    "round_half_away",
    "rounded_div",
    "rounded_shift",
    "saturate",
    "to_fixed",
]

# Default fraction bits for requantization multipliers; chosen so that an
# int32-range raw mantissa times a 16-bit-operand accumulator stays well
# inside int64.
REQUANT_FRACTION_BITS = 30

_INT32_MAX = 2**31 - 1
_INT64_MAX = 2**63 - 1
# acc >> 63 is -1 where acc < 0, else 0
_SIGN_SHIFT = np.asarray(63, dtype=np.int64)
# a Quotient's shifts by f - 1 and f on its float64 path
_HALF_SHIFT = np.asarray(REQUANT_FRACTION_BITS - 1, dtype=np.int64)
_FRACTION_SHIFT = np.asarray(REQUANT_FRACTION_BITS, dtype=np.int64)
try:  # the clip ufunc, min(max(x, lo), hi) in one call
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip


class FxOverflow(OverflowError):
    """A fixed-point mantissa or product does not fit its integer width."""


def round_half_away(x):
    """Round to nearest integer, ties away from zero.

    Accepts scalars or arrays; returns a Python int for scalar input and an
    int64 array otherwise.
    """
    # trunc(x), plus one away from zero where the remainder r = x - trunc(x)
    # is at least a half, i.e. where trunc(2r) is +-1.  r and 2r are exact in
    # float64, so nothing rounds before the truncation, as x + 0.5 does at
    # 2^52 + 1 and just below 0.5.  A scalar takes the same steps in Python
    # floats, without numpy's per-call overhead.
    if np.ndim(x) == 0:
        v = float(x)
        t = int(v)
        return t + int(2.0 * (v - t))
    arr = np.asarray(x, dtype=np.float64)
    t = np.trunc(arr)
    return (t + np.trunc(2.0 * (arr - t))).astype(np.int64)


def rounded_shift(acc, f: int):
    """acc / 2^f rounded half away from zero, as one add and one shift.

    Adding 2^(f-1), less one when acc is negative, before the arithmetic
    (floor) shift rounds ties away from zero on both signs.  A Python int
    takes that formula for every f.  An int64 array needs headroom for the
    add: |acc| <= INT64_MAX - 2^(f-1), which every Rescale bound leaves.
    """
    if f < 0:
        raise ValueError("fraction_bits must be >= 0")
    if f == 0:
        return acc
    if not isinstance(acc, np.ndarray):
        acc = int(acc)
        return (acc - (acc < 0) + (1 << (f - 1))) >> f
    acc = acc.astype(np.int64, copy=False)
    if f > 63:
        # every int64 lies within 2^63 <= 2^(f-1) of zero, so all round to
        # zero but -2^63 at f = 64, a tie, which rounds away to -1
        return -(acc == -(2**63)).astype(np.int64) if f == 64 else acc * 0
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


def _trailing_zeros(x: int) -> int:
    return (x & -x).bit_length() - 1


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum(floor((a * j + b) / m) for j in range(n)), for a, b >= 0 and
    m >= 1, in O(log m) steps: Euclid's algorithm on (a, m)."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _tie_free(f: int, terms) -> bool:
    """True when no sum of raw * t over the (raw, bound) terms, with each
    |t| <= bound, is congruent to 2^(f-1) mod 2^f: an exact half step.

    A term whose raw is a multiple of 2^f, or whose bound is 0, never moves
    the residue.  With one term left, raw = r * 2^p (r odd, p < f), the
    product is a tie exactly when t is an odd multiple of 2^(f-1-p), so
    bound < 2^(f-1-p) certifies it.  With two, ra * a + rb * b, the larger
    bound A is solved for at every code b of the smaller one: ra * a =
    2^(f-1) - rb * b (mod 2^f) needs 2^p to divide the right side, which
    holds for b = s * k, |k| <= K = B // s, s = 2^max(p - p_b, 0), and then
    fixes a modulo M = 2^(f-p) at r^-1 * (2^(f-1-p) - (rb * s / 2^p) * k).
    That a is in reach when its centered residue is at most A, that is
    when (a + A) mod M <= 2A, which every a is once 2A >= M.  The codes k
    whose (a + A) mod M, linear in k, exceeds 2A are counted with two floor
    sums rather than scanned, so the cost does not grow with the bounds;
    the rescale is tie-free when that is all 2K + 1 of them.
    """
    terms = [(r, b) for r, b in terms if b and r % (1 << f)]
    if not terms:
        return True
    if len(terms) == 1:
        (raw, bound), = terms
        return bound < 1 << (f - 1 - _trailing_zeros(raw))
    (ra, A), (rb, B) = terms if terms[0][1] >= terms[1][1] else terms[::-1]
    p = _trailing_zeros(ra)
    s = 1 << max(p - _trailing_zeros(rb), 0)
    M = 1 << (f - p)
    if 2 * A >= M:
        return False
    inv = pow(ra >> p, -1, M)
    v = inv * (rb * s >> p) % M
    # (a + A) mod M over k = j - K for j in 0..2K is (start - v * j) mod M
    K = B // s
    start = ((inv << (f - 1 - p)) + A + v * K) % M
    n, step = 2 * K + 1, -v % M
    # floor((y + M - 1 - c) / M) - floor(y / M) is 1 where y mod M > c, else 0
    above = _floor_sum(n, M, step, start + M - 1 - 2 * A) - _floor_sum(n, M, step, start)
    return above == n


def saturate(x, lo, hi):
    """Clip integer codes to [lo, hi]; an int64 array is clipped in place by
    one clip ufunc call, to int, 0-d int64 or broadcasting array bounds."""
    if isinstance(x, np.ndarray):
        return _clip(x, lo, hi, out=x)
    return min(max(int(x), lo), hi)


def to_fixed(m: float, f: int) -> int:
    """The raw of a real multiplier at f fraction bits: m * 2^f rounded half
    away from zero, so |raw * 2^-f - m| <= 2^-(f+1).  FxOverflow past int64."""
    if f < 0:
        raise ValueError("fraction_bits must be >= 0")
    if not math.isfinite(m):
        raise ValueError("multiplier must be finite")
    v = m * 2.0**f
    if not math.isfinite(v) or abs(v) > _INT64_MAX:
        raise FxOverflow(f"mantissa for {m!r} overflows int64 at f={f}")
    return round_half_away(v)


def requant_multiplier(m: float) -> tuple[int, int]:
    """(raw, f) of a nonnegative requantization multiplier, m ~ raw * 2^-f.

    Normalizes m = m_hat * 2^e with m_hat in (0.5, 1] and folds the exponent
    into f, so the raw always carries REQUANT_FRACTION_BITS significant
    fraction bits regardless of the multiplier's magnitude.
    """
    if m < 0:
        raise ValueError("requantization multipliers are ratios of positive scales")
    if m == 0.0:
        return 0, REQUANT_FRACTION_BITS
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
    return to_fixed(m, f), f


class Rescale:
    """A compiled fixed-point rescale, the one integer requantization step.

    Computes saturate(round(sum_k raws[k] * terms[k] / 2^f) + zero, lo, hi)
    over one int64 accumulator with a single rounding, half away from zero.
    One term is a requantization multiplier; two terms add operands that
    live on different grids.  Real scale ratios become `raws` once, when
    the rescale is built; applying it is integer-only.  Terms are Python
    ints or int64 arrays of centered values.

    `bounds` holds the largest |term| each operand can take, one per term.
    They are checked here, once: the accumulator plus the rounding add must
    fit int64, else FxOverflow.  From them the rescale also certifies, once,
    whether any accumulator of its terms is an exact half step (tie_free);
    a certified one rounds arrays without the sign fix.  With lo and hi
    omitted nothing saturates.  A stacked rescale, which only stack makes,
    has one term whose raw, f, rounding half, bound, lo and hi are int64
    arrays, one entry per operand element.  A rescale is not changed after
    construction; with_bounds makes a variant.

    Calling it on arrays forms the accumulator in one fresh int64 array,
    the terms broadcasting against each other, and rounds it there, in
    place (finish_in_place), with the constants bound once as 0-d int64
    arrays on the first array call, and saturates it with one clip ufunc
    call.  Python-int operands take plain int arithmetic, which always
    keeps the sign fix.  quant.rescale compiles every rescale from real
    scales; this class takes raws already encoded.
    """

    __slots__ = ("raws", "f", "half", "zero", "lo", "hi", "bounds", "_tie_free", "_arr")

    def __init__(self, raws, f: int, zero: int = 0, lo=None, hi=None, *, bounds):
        if not 1 <= len(raws) <= 2:
            raise ValueError("a rescale combines one or two terms")
        if f < 0:
            raise ValueError("fraction_bits must be >= 0")
        if len(bounds) != len(raws):
            raise ValueError("a rescale needs one bound per term")
        try:
            self.raws = tuple(map(operator.index, raws))
            self.bounds = tuple(map(operator.index, bounds))
        except TypeError:
            raise ValueError("raws and bounds are integers; stack makes per-element ones") from None
        if min(self.bounds) < 0:
            raise ValueError("bounds are magnitudes, >= 0")
        self.f, self.half = f, (1 << f) >> 1
        self.zero = int(zero)
        self.lo, self.hi = lo, hi
        # in Python ints, so a product past int64 cannot wrap; this also
        # keeps f <= 63, so every shift below is an int64 shift
        total = sum(abs(raw) * bound for raw, bound in zip(self.raws, self.bounds))
        if total + (1 << max(f - 1, 0)) > _INT64_MAX:
            raise FxOverflow("rescale accumulator would overflow int64")
        self._tie_free = _tie_free(f, zip(self.raws, self.bounds))
        self._arr = None  # see _bind

    @property
    def tie_free(self) -> bool:
        """True when no accumulator of this rescale's terms within their
        bounds is an exact half step, so arrays round as (acc + half) >> f."""
        return self._tie_free

    def _bind(self) -> tuple:
        """The array path's constants (raw0, raw1, half, f, zero, lo, hi) as
        0-d int64 arrays (per-element ones for a stacked rescale), which
        ufuncs take without converting a Python int on every call, with
        None for a second raw, zero or bounds it lacks.

        Bound on the first array call, so a rescale that only seeds a
        variant (centered, with_bounds, stack) never binds them; threads
        that race here bind equal tuples, each whole."""
        raws = self.raws if len(self.raws) == 2 else (*self.raws, None)
        consts = (*raws, self.half, self.f, self.zero or None, self.lo, self.hi)
        arr = tuple(None if v is None else np.asarray(v, dtype=np.int64) for v in consts)
        self._arr = arr
        return arr

    def term(self, k: int, t):
        """Operand k scaled into the accumulator (for hoisting a term)."""
        if isinstance(t, np.ndarray):
            return (self._arr or self._bind())[k] * t
        return self.raws[k] * t

    def __call__(self, t0, t1=None):
        if isinstance(t0, np.ndarray) or isinstance(t1, np.ndarray):
            arr = self._arr or self._bind()
            if t1 is None:
                return self.finish_in_place(arr[0] * t0)
            # the terms may broadcast against each other
            return self.finish_in_place(arr[0] * t0 + arr[1] * t1)
        acc = self.raws[0] * int(t0)
        if t1 is not None:
            acc += self.raws[1] * int(t1)
        return self._finish_int(acc)

    def finish_in_place(self, acc: np.ndarray) -> np.ndarray:
        """Round an int64 array accumulator of this rescale's own terms, each
        within its bound (the tie certificate holds only for those), that the
        caller gives up: rounded, shifted by zero and saturated in place, and
        returned."""
        _, _, half, f, zero, lo, hi = self._arr or self._bind()
        if not self._tie_free:
            # x >> 63 is -1 where x < 0: one less for a negative half
            acc += acc >> _SIGN_SHIFT
        acc += half
        acc >>= f
        if zero is not None:
            acc += zero
        if lo is not None:
            _clip(acc, lo, hi, out=acc)
        return acc

    def _finish_int(self, acc: int) -> int:
        """finish_in_place on a Python int, in plain int arithmetic:
        rounded_shift's sign-fixed add and shift, which needs no tie
        certificate, then zero and the clip."""
        f = self.f
        if f:
            acc = (acc - (acc < 0) + self.half) >> f
        acc += self.zero
        lo = self.lo
        if lo is None:
            return acc
        if acc < lo:
            return lo
        hi = self.hi
        return hi if acc > hi else acc

    def with_bounds(self, lo, hi, zero: int | None = None) -> Rescale:
        """The same multiply and rounding with other saturation bounds and,
        given, another zero point.  The overflow proof and the tie
        certificate do not depend on either, so the variant keeps them."""
        out = object.__new__(Rescale)
        out.raws, out.f, out.half, out.bounds = self.raws, self.f, self.half, self.bounds
        out._tie_free = self._tie_free
        out.zero = self.zero if zero is None else int(zero)
        out.lo, out.hi, out._arr = lo, hi, None
        return out

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
        """One rescale of a stacked operand, from (rescale, length) parts.

        Each part is a one-term, centered, saturating rescale applied to the
        next `length` elements.  Every element keeps its part's raw, f,
        rounding half, lo, hi and bound, as int64 per-element arrays, so it
        rounds as its part alone does.  The parts' overflow proofs hold for
        their elements, so the stack needs none of its own, and it is
        tie-free when every part is.
        """
        for r, _ in parts:
            if len(r.raws) != 1 or r.zero or r.lo is None:
                raise ValueError("stacked parts are one-term, centered, saturating rescales")
        raw, f, half, lo, hi, bound = np.repeat(np.array(
            [(r.raws[0], r.f, r.half, r.lo, r.hi, r.bounds[0]) for r, _ in parts],
            dtype=np.int64).T, [n for _, n in parts], axis=1)
        out = object.__new__(cls)
        out.raws, out.f, out.half, out.zero = (raw,), f, half, 0
        out.lo, out.hi, out.bounds = lo, hi, (bound,)
        out._tie_free = all(r.tie_free for r, _ in parts)
        out._arr = None
        return out


class Quotient:
    """A compiled rounded division, the one integer division step.

    Computes saturate(round(m * num / den) + zero, lo, hi), rounded half
    away from zero.  m becomes raw = to_fixed(m, f) once, at
    f = REQUANT_FRACTION_BITS; then with D = den << f, which is even, the
    quotient is floor((raw * num - (num < 0) + D/2) / D).  num is an int64
    array that the caller gives up: scaled, divided, shifted by zero and
    clipped (one clip ufunc call) in place, and returned.  den is a positive
    int, or an int64 array of positive divisors that broadcasts against num.

    It is built with the largest |num| and den of every call, and proves
    there, once, that D and raw * num plus the rounding add D/2 fit int64
    (FxOverflow, naming `name`, otherwise), so every den and, shifted right
    by f = 30, every rounded numerator is below 2^33.  bounded() proves the
    same division for other bounds, in integers alone.

    The divisor's kind picks the kernel, and both give the same codes.  A
    Python-int den takes one int64 floor division by D.  An array den (a
    batched MadNorm's per-row q_d column) adds D/2 = den << (f - 1), shifts
    right by f and floors the float64 quotient by den, since
    floor(floor(x / 2^f) / den) == floor(x / D).  Both are below 2^33, so
    exact in float64, where floor(x / den) is then exact: a quotient that
    is not an integer lies at least 1/den from one and rounds by at most
    |x / den| * 2^-53 < 1/den.

    num_bound also certifies ties away: a tie is 2 * raw * num = odd * D,
    which needs 1 + v2(raw) + v2(num) >= f (v2 counts trailing zero bits),
    and v2(num) <= floor(log2(num_bound)).  A certified quotient skips the
    sign fix (num < 0), as a tie-free Rescale does."""

    __slots__ = ("raw", "name", "tie_free", "_arr")

    def __init__(self, m: float, zero: int, lo: int, hi: int, *, num_bound: int,
                 den_bound: int, name: str = "division numerator"):
        self.raw, self.name = to_fixed(m, REQUANT_FRACTION_BITS), name
        # raw, zero (None when 0) and the bounds as 0-d int64
        self._arr = tuple(None if v is None else np.asarray(v, dtype=np.int64)
                          for v in (self.raw, zero or None, lo, hi))
        self._prove(num_bound, den_bound)

    def bounded(self, num_bound: int, den_bound: int) -> Quotient:
        """This division proven and certified for other bounds; FxOverflow
        where they do not fit.  It shares the raw and the 0-d constants."""
        out = object.__new__(Quotient)
        out.raw, out.name, out._arr = self.raw, self.name, self._arr
        out._prove(num_bound, den_bound)
        return out

    def _prove(self, num_bound: int, den_bound: int) -> None:
        num_bound, den_bound = operator.index(num_bound), operator.index(den_bound)
        half = den_bound << (REQUANT_FRACTION_BITS - 1)
        if 2 * half > _INT64_MAX or abs(self.raw) * num_bound + half > _INT64_MAX:
            raise FxOverflow(f"{self.name} would overflow int64")
        # 1 + v2(raw) + floor(log2(num_bound)) < f
        self.tie_free = (_trailing_zeros(self.raw) + num_bound.bit_length()
                         < REQUANT_FRACTION_BITS)

    def __call__(self, num: np.ndarray, den) -> np.ndarray:
        raw, zero, lo, hi = self._arr
        num *= raw
        if not self.tie_free:
            num += num >> _SIGN_SHIFT  # one less where num < 0
        if isinstance(den, np.ndarray):
            num += den << _HALF_SHIFT
            num >>= _FRACTION_SHIFT
            np.floor(np.divide(num, den), out=num, casting="unsafe")
        else:
            den = den << REQUANT_FRACTION_BITS
            num += den >> 1
            num //= den
        if zero is not None:
            num += zero
        return _clip(num, lo, hi, out=num)


def _own_bound(q):
    """q as a Python int, or as an int64 array when it has dimensions, and
    its largest magnitude: the bound of a rescale that q alone feeds."""
    if isinstance(q, np.ndarray) and q.ndim:
        q = q.astype(np.int64)
        # not np.abs, which leaves INT64_MIN negative
        return q, max(-int(q.min(initial=0)), int(q.max(initial=0)))
    q = int(q)
    return q, abs(q)


def fx_apply(raw: int, f: int, q, zero_out: int = 0):
    """round(raw * 2^-f * q) + zero_out, in integer arithmetic.

    q may be a Python int or an integer ndarray; the result has the same
    kind.  The product raw * q must fit int64, else FxOverflow.
    """
    q, bound = _own_bound(q)
    return Rescale((raw,), f, zero_out, bounds=(bound,))(q)


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
