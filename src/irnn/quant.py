"""Affine quantization: parameters, tensors, and integer-only arithmetic.

A grid is (bitwidth b, scale S, zero point Z), and nothing else: real
values map to unsigned b-bit codes via

    q = clip(round(x / S) + Z, 0, 2^b - 1)        x ~ S * (q - Z)

derive_params picks S and Z for a calibrated range [min, max] (S = (max -
min) / (2^b - 1), Z = round(-min / S)); the range itself is not kept, since
min quantizes to code 0 and max to the top code.  Zero is always
representable (code Z exactly).  The arithmetic primitives
(qmul, qadd_same, qadd_diff, requantize) combine codes from different
parameter sets using fixed-point multipliers so the hot path is
integer-only; each op performs a single final rounding.  Each is a thin
wrapper that compiles a Rescale from the parameter sets, then applies it;
the model code compiles the same Rescales once per stage and replays them.
rescale() is the one place where a ratio of real scales becomes a
fixed-point raw, a plain int at a number of fraction bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fixedpoint import (
    _INT32_MAX,
    REQUANT_FRACTION_BITS,
    FxOverflow,
    Rescale,
    _own_bound,
    requant_multiplier,
    round_half_away,
    to_fixed,
)

__all__ = [
    "ExactGemv",
    "Observer",
    "QTensor",
    "QuantParams",
    "STORAGE_DTYPES",
    "dequantize",
    "derive_params",
    "max_centered",
    "qadd_diff",
    "qadd_same",
    "qmul",
    "qmul_rescale",
    "quantize",
    "quantize_tensor",
    "quantize_weight",
    "requantize",
    "rescale",
]

STORAGE_DTYPES = {8: np.uint8, 16: np.uint16, 32: np.uint32}


def _is_int(v) -> bool:
    """An integer that is not a bool (bool is an int subclass)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class QuantParams:
    """The grid of one tensor: bitwidth, scale and zero point."""

    bitwidth: int
    scale: float
    zero_point: int

    def __post_init__(self):
        if not _is_int(self.bitwidth) or self.bitwidth not in STORAGE_DTYPES:
            raise ValueError(f"unsupported bitwidth {self.bitwidth!r}")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError("scale must be finite and positive")
        if not _is_int(self.zero_point) or not 0 <= self.zero_point <= self.qmax:
            raise ValueError("zero_point must be an integer in the storage range")

    @property
    def qmin(self) -> int:
        return 0

    @property
    def qmax(self) -> int:
        return 2**self.bitwidth - 1

    @property
    def dtype(self):
        return STORAGE_DTYPES[self.bitwidth]


def derive_params(rmin: float, rmax: float, bitwidth: int) -> QuantParams:
    """Compute scale and zero-point for the range [rmin, rmax]."""
    if bitwidth not in STORAGE_DTYPES:
        raise ValueError(f"unsupported bitwidth {bitwidth}")
    if not (np.isfinite(rmin) and np.isfinite(rmax)):
        raise ValueError("range bounds must be finite")
    if rmin > rmax:
        raise ValueError("degenerate-range: min exceeds max")
    if rmin > 0.0 or rmax < 0.0:
        raise ValueError("zero-excluded: range must contain 0")
    if rmin == rmax:
        # Only reachable for min == max == 0 (dead channel); pick the
        # identity grid so downstream arithmetic stays well-defined.
        return QuantParams(bitwidth, 1.0, 0)
    levels = 2**bitwidth - 1
    scale = (rmax - rmin) / levels
    if scale == 0.0:
        raise ValueError("degenerate-range: too narrow for a positive scale")
    zero_point = int(np.clip(round_half_away(-rmin / scale), 0, levels))
    return QuantParams(bitwidth, scale, zero_point)


def quantize(x, p: QuantParams):
    """Map real values to storage codes, saturating at 0 and qmax; the
    codes clip before the integer conversion, however far off x lies, so
    +-inf saturates.  NaN has no code: ValueError."""
    with np.errstate(over="ignore"):
        t = np.clip(np.asarray(x, dtype=np.float64) / p.scale, -p.zero_point, p.qmax - p.zero_point)
    nan = np.flatnonzero(np.isnan(t))
    if nan.size:
        raise ValueError(f"cannot quantize a non-finite input: NaN at flat index {nan[0]}")
    q = round_half_away(t) + p.zero_point
    return q if np.ndim(x) == 0 else q.astype(p.dtype)


def dequantize(q, p: QuantParams):
    """Real value represented by codes q."""
    if np.ndim(q) == 0:
        return p.scale * (int(q) - p.zero_point)
    return p.scale * (np.asarray(q).astype(np.float64) - p.zero_point)


def max_centered(p: QuantParams) -> int:
    """Largest |q - Z| over the codes of p."""
    return max(p.zero_point, p.qmax - p.zero_point)


def _centered(q, p: QuantParams):
    return np.asarray(q).astype(np.int64) - p.zero_point


def _store(out, p: QuantParams, scalar: bool):
    """Saturated int64 codes as p's storage dtype, or an int for scalars."""
    return int(out) if scalar else np.asarray(out).astype(p.dtype)


def rescale(p_out: QuantParams, *terms) -> Rescale:
    """The one compile step from real scales to a saturating Rescale into p_out.

    Each term is (ratio, bound): its operand's real scale over p_out's, and
    the operand's largest magnitude.  One term takes requant_multiplier's
    normalized mantissa; two terms take to_fixed(ratio, REQUANT_FRACTION_BITS)
    each, so both round once in one accumulator.  Reassociating a ratio's
    expression can change its raw, and so the codes."""
    ratios, bounds = zip(*terms)
    if len(terms) == 1:
        raw, f = requant_multiplier(ratios[0])
        raws = (raw,)
    else:
        f = REQUANT_FRACTION_BITS
        raws = tuple(to_fixed(r, f) for r in ratios)
    return Rescale(raws, f, p_out.zero_point, p_out.qmin, p_out.qmax, bounds=bounds)


def qmul_rescale(pa: QuantParams, pb: QuantParams, pc: QuantParams) -> Rescale:
    """Rescale of the centered product (q_a - Z_a)(q_b - Z_b) into pc."""
    return rescale(pc, (pa.scale * pb.scale / pc.scale, max_centered(pa) * max_centered(pb)))


def qmul(qa, pa: QuantParams, qb, pb: QuantParams, pc: QuantParams):
    """Elementwise product of two quantized values, requantized into pc.

    Integer form of S_a(q_a - Z_a) * S_b(q_b - Z_b) = S_c(q_c - Z_c): the
    centered cross terms accumulate exactly, then one fixed-point multiply
    by S_a S_b / S_c rounds into the output grid.
    """
    scalar = np.ndim(qa) == 0 and np.ndim(qb) == 0
    out = qmul_rescale(pa, pb, pc)(_centered(qa, pa) * _centered(qb, pb))
    return _store(out, pc, scalar)


def qadd_same(qa, qb, p_in: QuantParams, p_out: QuantParams):
    """Sum of two values sharing one parameter set, requantized into p_out."""
    scalar = np.ndim(qa) == 0 and np.ndim(qb) == 0
    op = rescale(p_out, (p_in.scale / p_out.scale, 2 * max_centered(p_in)))
    return _store(op(_centered(qa, p_in) + _centered(qb, p_in)), p_out, scalar)


def qadd_diff(qa, pa: QuantParams, qb, pb: QuantParams, pc: QuantParams):
    """Sum of two values with distinct parameter sets, rounded once (see rescale)."""
    scalar = np.ndim(qa) == 0 and np.ndim(qb) == 0
    op = rescale(pc, (pa.scale / pc.scale, max_centered(pa)),
                 (pb.scale / pc.scale, max_centered(pb)))
    return _store(op(_centered(qa, pa), _centered(qb, pb)), pc, scalar)


def requantize(acc, in_scale: float, p_out: QuantParams):
    """Map an integer accumulator holding values at in_scale into p_out.

    acc represents real values acc * in_scale (zero already centered out, as
    produced by matmuls over centered operands).  The rescale is bounded by
    acc itself: FxOverflow if its product with the multiplier would not fit
    int64.
    """
    scalar = np.ndim(acc) == 0 and not isinstance(acc, np.ndarray)
    acc, bound = _own_bound(acc if scalar else np.asarray(acc))
    return _store(rescale(p_out, (in_scale / p_out.scale, bound))(acc), p_out, scalar)


def _exact_dtype(bound: int, what: str):
    """The narrower float dtype that represents every integer up to bound
    in magnitude exactly: float32 below 2^24, float64 below 2^53;
    FxOverflow, naming what, at or above."""
    if bound >= 2**53:
        raise FxOverflow(f"{what} exceeds float64's exact integer range")
    return np.float32 if bound < 2**24 else np.float64


class ExactGemv:
    """Integer matmul of fixed 8-bit weights, run as an exact float product.

    Calling it maps codes [..., n] on the input grid to the int64
    accumulator (W - Z_w)(q - Z_in) [..., rows], plus an optional integer
    bias.  Every partial sum is an integer no larger than `bound` (row sums
    of |W - Z_w| times the largest centered input code, plus |bias|), so
    BLAS computes it exactly in float32 when bound < 2^24 and in float64
    when bound < 2^53; the weights, zero point and bias take the narrowest
    of the two that the bound proves.  The int32 accumulator contract is
    checked here when the bound proves it, else on every call; `bound` is
    what callers may assume about the result, and `scale` is the real value
    of one accumulator unit, S_in * S_w.
    """

    __slots__ = ("w", "zero", "bias", "bound", "per_call_check", "scale")

    def __init__(self, qw: QTensor, p_in: QuantParams, bias=None):
        w = np.atleast_2d(qw.centered())
        rows = np.abs(w).sum(axis=1) * max_centered(p_in)
        if bias is not None:
            rows = rows + np.abs(bias.astype(np.int64))
        bound = int(rows.max(initial=0))
        dtype = _exact_dtype(bound, "matmul accumulator")
        self.w = w.T.astype(dtype)
        self.w.flags.writeable = False
        # a 0-d array: ufuncs take it without converting a Python int per call
        self.zero = np.asarray(p_in.zero_point, dtype=dtype)
        self.bias = None if bias is None else bias.astype(dtype)
        self.per_call_check = bound > _INT32_MAX
        self.bound = min(bound, _INT32_MAX)
        self.scale = p_in.scale * qw.params.scale

    @classmethod
    def stack(cls, parts) -> ExactGemv:
        """One GEMV whose accumulator stacks those of parts, unbiased GEMVs
        of one input grid: [..., n] codes to [..., rows_1 + rows_2 + ...].
        Each column keeps its part's bound, so the stack is exact in the
        widest of the parts' dtypes; its bound is their largest.  Its
        blocks live at their parts' scales, so it has no single scale, and
        its accumulator takes a stacked rescale (Rescale.stack)."""
        if any(g.bias is not None for g in parts) or len({float(g.zero) for g in parts}) != 1:
            raise ValueError("stacked GEMVs are unbiased and read one input grid")
        dtype = np.result_type(*(g.w for g in parts))
        out = object.__new__(cls)
        out.w = np.concatenate([g.w for g in parts], axis=1, dtype=dtype)
        out.w.flags.writeable = False
        out.zero = np.asarray(parts[0].zero, dtype=dtype)
        out.bias, out.scale = None, None
        out.bound = max(g.bound for g in parts)
        out.per_call_check = any(g.per_call_check for g in parts)
        return out

    def rescale(self, p_out: QuantParams) -> Rescale:
        """The rescale of this product's accumulator into p_out."""
        return rescale(p_out, (self.scale / p_out.scale, self.bound))

    def __call__(self, q):
        acc = np.subtract(q, self.zero, dtype=self.w.dtype) @ self.w
        if self.bias is not None:
            acc += self.bias
        if self.per_call_check and acc.size and np.abs(acc).max() > _INT32_MAX:
            raise FxOverflow("matmul accumulator exceeded int32 range")
        return acc.astype(np.int64)


@dataclass(frozen=True)
class QTensor:
    """Integer codes plus the parameters that give them meaning."""

    data: np.ndarray
    params: QuantParams

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data))
        if self.data.dtype != self.params.dtype:
            raise ValueError(
                f"dtype-mismatch: {self.data.dtype} stored against "
                f"{self.params.bitwidth}-bit params"
            )

    @property
    def shape(self):
        return self.data.shape

    def centered(self) -> np.ndarray:
        """Codes minus zero-point, widened for accumulation."""
        return self.data.astype(np.int64) - self.params.zero_point

    def dequantize(self) -> np.ndarray:
        return dequantize(self.data, self.params)


def _read_only(a):
    """A read-only copy of an array or of a QTensor's codes; None stays None."""
    if isinstance(a, QTensor):
        return QTensor(_read_only(a.data), a.params)
    if a is not None:
        a = np.array(a)
        a.flags.writeable = False
    return a


def quantize_tensor(x, p: QuantParams) -> QTensor:
    return QTensor(quantize(np.asarray(x, dtype=np.float64), p), p)


def _gemv_rows(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Float w @ x for every row of x [..., n]: one BLAS gemv per row, so
    each row has the bits of w @ row.  A GEMM over the rows [N x n] @ w.T
    rounds differently; a 1-D x takes the plain product."""
    if x.ndim == 1:
        return w @ x
    return np.matmul(x[..., None, :], w.T)[..., 0, :]


@dataclass
class Observer:
    """Running min/max of everything shown to one tensor site; one
    observation of a batch equals one of each of its parts.  An observer
    shown nothing (min inf, max -inf) finalizes to the identity grid."""

    running_min: float = float("inf")
    running_max: float = float("-inf")

    def observe(self, batch) -> "Observer":
        arr = np.asarray(batch, dtype=np.float64)
        if arr.size == 0:
            return self
        # a NaN anywhere makes both NaN, an inf makes one of them inf
        lo, hi = float(arr.min()), float(arr.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("non-finite value in calibration batch")
        self.running_min = min(self.running_min, lo)
        self.running_max = max(self.running_max, hi)
        return self

    def finalize(self, bitwidth: int) -> QuantParams:
        """Derive parameters, forcing zero into the observed range."""
        return derive_params(
            min(self.running_min, 0.0), max(self.running_max, 0.0), bitwidth
        )


def _observe(observers: dict | None, key: str, value) -> None:
    """Show value to the Observer of site key in observers, made on first
    use; nothing when observers is None."""
    if observers is None:
        return
    obs = observers.get(key)
    if obs is None:
        obs = observers[key] = Observer()
    obs.observe(value)


def quantize_weight(w) -> QTensor:
    """8-bit codes for a float weight tensor over its own min/max range."""
    w = np.asarray(w, dtype=np.float64)
    return quantize_tensor(w, Observer().observe(w.ravel()).finalize(8))
