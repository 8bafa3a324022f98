"""Mean-absolute-deviation normalization.

y = (x - mu) / d with d = mean(|x - mu|): same shape as LayerNorm but the
scale statistic needs no square or square root, which keeps the integer
path cheap.  The integer implementation computes four intermediates
(mu, centered x, d, y), each quantized, rounded once and saturated, with a
max(q_d, 1) guard making the final division total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fixedpoint import FxOverflow, Quotient
from .quant import QTensor, QuantParams, max_centered, rescale

__all__ = [
    "GAUSSIAN_MAD_RATIO",
    "MadNormPlan",
    "NormStats",
    "compute_stats",
    "concentration_check",
    "layernorm_ref",
    "madnorm_int",
    "madnorm_ref",
    "scale_convergence_check",
]

# E|X - mu| / sigma for a Gaussian: sqrt(2/pi)
GAUSSIAN_MAD_RATIO = math.sqrt(2.0 / math.pi)

_LAYERNORM_EPS = 1e-5


@dataclass(frozen=True)
class NormStats:
    """Per-vector normalization statistics."""

    mu: float
    d: float
    sigma_std: float
    H: int


def compute_stats(x) -> NormStats:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("expected a nonempty 1-D vector")
    mu = float(x.mean())
    return NormStats(
        mu=mu,
        d=float(np.abs(x - mu).mean()),
        sigma_std=float(x.std()),
        H=x.size,
    )


def layernorm_ref(x) -> np.ndarray:
    """Standardize across the hidden dimension: (x - mu) / sigma."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean()
    sigma = x.std()
    return (x - mu) / (sigma + _LAYERNORM_EPS)


def madnorm_ref(x) -> np.ndarray:
    """Normalize every row of x [..., h] by its mean absolute deviation; a
    row of zero deviation gives zeros."""
    return _madnorm_parts(np.asarray(x, dtype=np.float64))[3]


def _madnorm_parts(x: np.ndarray):
    """(mu, x - mu, d, y) of MadNorm over every row of float64 x [..., h].
    Each statistic reduces the last axis one row at a time, so every row
    has the bits of its own 1-D normalization."""
    h = x.shape[-1]
    # x.mean() is this sum over h; the ufunc reductions skip its overhead
    mu = np.add.reduce(x, axis=-1, keepdims=True) / h
    centered = x - mu
    d = np.add.reduce(np.abs(centered), axis=-1, keepdims=True) / h
    # constant rows leave only roundoff in the deviation; they give zeros
    flat = d <= 1e-12 * np.maximum.reduce(np.abs(x), axis=-1, keepdims=True, initial=1.0)
    return mu, centered, d, np.divide(centered, d, out=np.zeros_like(centered), where=~flat)


class MadNormPlan:
    """Integer MadNorm compiled for one input grid, four site grids and width h.

    Four steps, each one rounded saturated tensor: the mean (sum folded
    into one fixed-point multiplier with the 1/h factor), the centered
    values (two-term rescale in one accumulator), the mean absolute
    deviation, and the normalized output via rounded integer division
    guarded by max(q_d, 1).  Calling the plan normalizes every row of
    centered input codes [..., h] independently and returns centered codes
    (minus Z_y) on p_y's grid.

    The mean and centered values are centered too (Rescale.centered), so
    the centering step negates the mean's multiplier.  One row's mean and
    deviation are Python ints; a batch's are [..., 1] columns.  The
    centered values are rounded in the array their product allocated, and
    divided there by the output Quotient, so the input is never written.
    The deviation saturates at 1, which is max(q_d, 1), so every divisor
    is positive; the division's int64 headroom over every centered value
    and every q_d is proven here, once (Quotient.fits)."""

    def __init__(
        self,
        px: QuantParams,
        p_mu: QuantParams,
        p_xhat: QuantParams,
        p_d: QuantParams,
        p_y: QuantParams,
        h: int,
    ):
        if p_d.zero_point != 0:
            raise ValueError("deviation params must put zero at code 0")
        self.mean = rescale(p_mu, (px.scale / (p_mu.scale * h), h * max_centered(px))).centered()
        # centered values: S_x(q_x - Z_x) - S_mu(q_mu - Z_mu), one rounding
        self.center = rescale(p_xhat, (px.scale / p_xhat.scale, max_centered(px)),
                              (-p_mu.scale / p_xhat.scale, max_centered(p_mu))).centered()
        self.dev = rescale(
            p_d, (p_xhat.scale / (p_d.scale * h), h * max_centered(p_xhat))
        ).with_bounds(1, p_d.qmax)
        self.norm = Quotient(p_xhat.scale / (p_y.scale * p_d.scale), 0,
                             p_y.qmin - p_y.zero_point, p_y.qmax - p_y.zero_point)
        if not self.norm.fits(max_centered(p_xhat), p_d.qmax):
            raise FxOverflow("normalization numerator would overflow int64")

    def __call__(self, xc: np.ndarray) -> np.ndarray:
        xhat = self.center.term(0, xc)
        xhat += self.center.term(1, self.mean(_row_sums(xc)))
        xhat = self.center.finish_in_place(xhat)
        return self.norm(xhat, self.dev(_row_sums(np.abs(xhat))))


def _row_sums(a: np.ndarray):
    """The sums of int64 a over its last axis: a Python int for one row,
    else [..., 1], which broadcasts back along the row."""
    if a.ndim == 1:
        return int(np.add.reduce(a))
    return np.add.reduce(a, axis=-1, keepdims=True)


def madnorm_int(
    qx: QTensor,
    p_mu: QuantParams,
    p_xhat: QuantParams,
    p_d: QuantParams,
    p_y: QuantParams,
) -> QTensor:
    """Integer-only MadNorm over a 1-D quantized vector (see MadNormPlan)."""
    if qx.data.ndim != 1:
        raise ValueError("madnorm_int expects a 1-D vector")
    plan = MadNormPlan(qx.params, p_mu, p_xhat, p_d, p_y, qx.data.size)
    return QTensor((plan(qx.centered()) + p_y.zero_point).astype(p_y.dtype), p_y)


def scale_convergence_check(sampler, n: int, mean: float, rng=None) -> float:
    """Empirical mean absolute deviation around the true mean.

    sampler(rng, n) draws n i.i.d. samples; the return value estimates
    E|X - mean| and converges to it almost surely as n grows.
    """
    if rng is None:
        rng = np.random.default_rng(42)
    xs = np.asarray(sampler(rng, n), dtype=np.float64)
    return float(np.abs(xs - mean).mean())


def concentration_check(
    sampler, k: float, n: int, mean: float, mad: float, rng=None
) -> bool:
    """Empirical test of P(|X - mean| / mad < k) >= 1 - 1/k.

    Allows a 3/sqrt(n) Monte Carlo margin below the bound.
    """
    if k <= 1.0:
        raise ValueError("k must exceed 1")
    if rng is None:
        rng = np.random.default_rng(42)
    xs = np.asarray(sampler(rng, n), dtype=np.float64)
    freq = float((np.abs(xs - mean) / mad < k).mean())
    return freq >= 1.0 - 1.0 / k - 3.0 / math.sqrt(n)
