"""Python big-int references of the integer stages, for exactness tests.

Every intermediate is a Python int, so nothing wraps and nothing rounds
but the one division each stage defines.  The inputs are grids
(QuantParams) and the fixed-point multipliers that the compile step
derives from them (requant_multiplier, to_fixed); no compiled Rescale,
Quotient or plan is used.
"""

from irnn.fixedpoint import REQUANT_FRACTION_BITS, requant_multiplier, to_fixed


def round_div(num: int, den: int) -> int:
    """num / den for a positive den, rounded half away from zero."""
    q, r = divmod(abs(num), den)
    q += 2 * r >= den
    return q if num >= 0 else -q


def clip_code(v: int, p) -> int:
    """v saturated to the codes of grid p."""
    return min(max(v, p.qmin), p.qmax)


def requant(acc: int, m: float, p) -> int:
    """acc times the requantization multiplier m, rounded once, plus Z_p,
    saturated on p."""
    raw, f = requant_multiplier(m)
    return clip_code(round_div(raw * acc, 1 << f) + p.zero_point, p)


def two_term(a: int, scale_a: float, b: int, scale_b: float, p) -> int:
    """S_a * a + S_b * b on grid p with one rounding: both raws at
    REQUANT_FRACTION_BITS in one accumulator."""
    f = REQUANT_FRACTION_BITS
    acc = to_fixed(scale_a / p.scale, f) * a + to_fixed(scale_b / p.scale, f) * b
    return clip_code(round_div(acc, 1 << f) + p.zero_point, p)


def madnorm_codes(row, px, p_mu, p_xhat, p_d, p_y) -> list:
    """MadNorm of one row of centered codes, in the uncentered four-step
    form: mean, centering, deviation, division by max(q_d, 1)."""
    f, h = REQUANT_FRACTION_BITS, len(row)
    q_mu = requant(sum(row), px.scale / (p_mu.scale * h), p_mu)
    xhat = [
        two_term(x, px.scale, p_mu.zero_point - q_mu, p_mu.scale, p_xhat) - p_xhat.zero_point
        for x in row
    ]
    q_d = requant(sum(map(abs, xhat)), p_xhat.scale / (p_d.scale * h), p_d)
    raw_y = to_fixed(p_xhat.scale / (p_y.scale * p_d.scale), f)
    return [
        clip_code(round_div(raw_y * v, max(q_d, 1) << f) + p_y.zero_point, p_y) for v in xhat
    ]
