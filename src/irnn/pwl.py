"""Quantization-aware piecewise-linear approximation of scalar activations.

A fit starts from one knot per quantized input code (the full table,
equivalent to a look-up table of the quantized activation) and thins it by
greedily removing the shared knot of the most similar adjacent slope pair
until a piece budget is met.  fit is the one walk over the input grid: it
runs the merge on the grid's knots and values and builds only the reduced
table; build_full is fit keeping every piece, and reduce thins a built
table.  A stage's tables are fit by fit_tables and checked and held,
read-only, by checked_tables.  Knots always stay on the input grid and
intercepts always equal the true function value at their knot, so
surviving grid points evaluate exactly.  The greedy merge runs in numpy
rounds, each of which removes a batch of knots proven to be the merge's
next removals.  A round looks only at a window, the survivors whose cost is
at most a threshold theta.  Each round rebuilds the window from the live
costs, with theta at the end of the bucket of costs that holds the 512th
smallest, so the certificate runs on about what a round removes, not on
every survivor.

Integer evaluation uses fixed-point slopes/intercepts sharing one fraction
count, accumulated in int64 with a single final rounding.  A table turns
that evaluation into an exact look-up table over its (at most 16-bit)
input grid when it is constructed, so integer evaluation afterwards is a
single gather.  Each piece's output is monotone, so the table is a series
of runs of equal codes; where runs are few against codes, each run's first
code is found by one exact integer division, and otherwise every code is
evaluated.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .fixedpoint import FxOverflow, round_half_away, rounded_shift, saturate
from .quant import QuantParams, dequantize, derive_params

__all__ = [
    "ACTIVATIONS",
    "PwlTable",
    "TANH_GRID",
    "UNIT_GRID",
    "activation_registry",
    "build_full",
    "checked_tables",
    "eval_float",
    "eval_int",
    "fit",
    "fit_tables",
    "from_points",
    "reduce",
]

TABLE_FRACTION_BITS = 30

_erf = np.frompyfunc(math.erf, 1, 1)


def _sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    pos = 1.0 / (1.0 + np.exp(-np.clip(x, 0, None)))
    ex = np.exp(np.clip(x, None, 0))
    return np.where(x >= 0, pos, ex / (1.0 + ex))


def _gelu(x):
    x = np.asarray(x, dtype=np.float64)
    # _erf gives an object array, or a Python float for a 0-d x
    return 0.5 * x * (1.0 + np.asarray(_erf(x / math.sqrt(2.0)), dtype=np.float64))


# name -> (function, conventional clip range)
ACTIVATIONS = {
    "sigmoid": (_sigmoid, (-8.0, 8.0)),
    "tanh": (lambda x: np.tanh(np.asarray(x, dtype=np.float64)), (-8.0, 8.0)),
    "exp": (lambda x: np.exp(np.asarray(x, dtype=np.float64)), (-10.0, 0.0)),
    "cos": (lambda x: np.cos(np.asarray(x, dtype=np.float64)), (-math.pi, math.pi)),
    "gelu": (_gelu, (-2.0, 2.0)),
}


def activation_registry(name: str):
    """Return (function, default clip range) for a named activation."""
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; choices: {sorted(ACTIVATIONS)}"
        ) from None


# the fixed 8-bit output grids: [0, 1] for the sigmoid and exp tables,
# [-1, 1] for the tanh tables
UNIT_GRID = derive_params(0.0, 1.0, 8)
TANH_GRID = derive_params(-1.0, 1.0, 8)


@dataclass(frozen=True, eq=False)
class PwlTable:
    """Piecewise-linear approximation pinned to a quantized input grid.

    A table is its knot codes q_knots (strictly increasing codes of the
    input grid in_params, at most 16-bit), its values (f at each knot) and
    its output grid out_params.  Everything else is derived here, at
    construction, so a table rebuilt from those four is the same table:
      - knots, the real inputs at the knot codes;
      - piece i covers [knots[i], knots[i+1]) with g(x) = slopes[i] *
        (x - knots[i]) + intercepts[i] and intercepts[i] = values[i];
      - fx_slopes and fx_intercepts, the fixed-point slopes and intercepts
        with TABLE_FRACTION_BITS fraction bits, in the output grid's units;
      - lut[q], the integer evaluation at every input code q; _lut builds
        it from its runs of equal outputs where they are few.
    Every array is read-only, q_knots and values copies of the caller's.
    FxOverflow if the fixed-point constants would overflow int64.
    """

    q_knots: np.ndarray
    values: np.ndarray
    in_params: QuantParams
    out_params: QuantParams
    knots: np.ndarray = field(init=False, repr=False)
    slopes: np.ndarray = field(init=False, repr=False)
    intercepts: np.ndarray = field(init=False, repr=False)
    fx_slopes: np.ndarray = field(init=False, repr=False)
    fx_intercepts: np.ndarray = field(init=False, repr=False)
    lut: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        q_knots = np.array(self.q_knots, dtype=np.int64)
        values = np.array(self.values, dtype=np.float64)
        p_in, p_out = self.in_params, self.out_params
        if p_in.bitwidth > 16:
            raise ValueError("look-up tables are limited to 16-bit input grids")
        if q_knots.ndim != 1 or values.shape != q_knots.shape or len(q_knots) < 2:
            raise ValueError("a table needs at least two knots, each with one value")
        if (q_knots[1:] <= q_knots[:-1]).any():
            raise ValueError("knots must be strictly increasing")
        if q_knots[0] < 0 or q_knots[-1] > p_in.qmax:
            raise ValueError("knot outside the input storage range")
        if not np.isfinite(values).all():
            raise ValueError("nonfinite-activation: f(k) not finite at some knot")
        knots = dequantize(q_knots, p_in)
        intercepts = values[:-1]
        scale = 2.0**TABLE_FRACTION_BITS
        # a slope or constant that overflows float64 is caught below
        with np.errstate(over="ignore", invalid="ignore"):
            slopes = (values[1:] - values[:-1]) / (knots[1:] - knots[:-1])
            fx = (slopes * (p_in.scale / p_out.scale) * scale, intercepts / p_out.scale * scale)
        # one constant past 2^62 (or inf or NaN) breaks the bound below
        # on its own; ruling it out first keeps the int64 casts defined
        if not all(np.abs(v).max() <= 2.0**62 for v in fx):
            raise FxOverflow("fixed-point table constants would overflow int64")
        fx_slopes, fx_intercepts = (round_half_away(v) for v in fx)
        bound = int(np.abs(fx_slopes).max()) * (p_in.qmax + 1) + int(
            np.abs(fx_intercepts).max()
        )
        if bound > 2**62:
            raise FxOverflow("fixed-point table constants would overflow int64")
        derived = dict(
            q_knots=q_knots, values=values, knots=knots, slopes=slopes,
            intercepts=intercepts, fx_slopes=fx_slopes, fx_intercepts=fx_intercepts,
        )
        for name, value in derived.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        lut = _lut(self)
        lut.flags.writeable = False
        object.__setattr__(self, "lut", lut)

    @property
    def pieces(self) -> int:
        return len(self.slopes)


# building a LUT from its runs costs about as much as evaluating _RUN_SETUP
# codes, plus _RUN_COST codes per run; a table whose runs cost more than its
# codes is evaluated code by code
_RUN_SETUP, _RUN_COST = 2048, 8

# codes per block of _expand: its int64 temporaries (120 KiB) stay in cache
# and below the 128 KiB from which glibc's malloc maps each request afresh
_EXPAND_BLOCK = 15 * 1024


def _lut(t: PwlTable) -> np.ndarray:
    """The output code at every input code.

    Codes between two knots take the lower knot's piece, the last knot takes
    the last piece, and codes outside the knot span clamp to its ends.  A
    piece is linear, and rounding and saturation are monotone, so a piece's
    outputs step monotonically from its value at its first code to its
    value at its last: one run of equal codes per output value in between.
    A table with few runs for its codes is built from where each run starts
    (_runs); any other evaluates every code (_expand).
    """
    codes = t.in_params.qmax + 1
    if _RUN_SETUP + _RUN_COST * t.pieces >= codes:  # a piece has one run or more
        return _expand(t)
    first, runs = _piece_runs(t)
    if _RUN_SETUP + _RUN_COST * int(runs.sum()) >= codes:
        return _expand(t)
    return _runs(t, first, runs)


def _piece_runs(t: PwlTable) -> tuple[np.ndarray, np.ndarray]:
    """Each piece's output at its first code, and its number of runs."""
    b = t.fx_intercepts
    # each piece's last code, from its first; the last piece ends on a knot
    last = np.diff(t.q_knots)
    last[:-1] -= 1
    p = t.out_params
    ends = rounded_shift(np.concatenate((b, t.fx_slopes * last + b)), TABLE_FRACTION_BITS)
    ends = saturate(ends + p.zero_point, p.qmin, p.qmax)
    first = ends[: t.pieces]
    return first, np.abs(ends[t.pieces :] - first) + 1


def _runs(t: PwlTable, first: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """The LUT as one repeat of run values over run lengths.

    first[i] is piece i's output at its first code and runs[i] its number
    of output values.  Let sign be -1 on a falling piece and +1 otherwise,
    and w = sign * (output - zero point).  Rounding half away from zero is
    odd, so sign * acc rounds to w or more exactly when sign * acc >= A(w),
    where A(w) = T + (T < 0) and T = w * 2^F - 2^(F-1).  The run of w thus
    starts at the first code q with |s| * (q - k_i) >= A(w) - sign * b_i,
    which one exact ceiling division gives.  Past a piece's first run, A(w)
    lies between the accumulators at the piece's first and last codes, so
    the difference stays within the table's 2^62 bound.
    """
    s = t.fx_slopes
    sign = np.where(s < 0, -1, 1)
    head = np.cumsum(runs) - runs  # each piece's first run
    # per run, from its piece: w at the piece's first run less that run's
    # index, sign, sign * b + 2^(F-1), |s| (a flat piece has one run and
    # divides nothing) and the first code
    w, sign, bh, mag, k = np.repeat(
        np.array((
            sign * (first - t.out_params.zero_point) - head,
            sign,
            sign * t.fx_intercepts + 2 ** (TABLE_FRACTION_BITS - 1),
            np.abs(s) + (s == 0),
            t.q_knots[:-1],
        )),
        runs,
        axis=1,
    )
    w += np.arange(len(w))
    # sign * b - A(w); T < 0 exactly when w <= 0
    gap = bh - w * 2**TABLE_FRACTION_BITS - (w <= 0)
    gap[head] = 0  # a piece's first run starts at its first code, not at A(w)
    bounds = np.empty(len(w) + 1, dtype=np.int64)
    np.subtract(k, gap // mag, out=bounds[:-1])
    # the first run takes the codes below the first knot, the last those
    # above the last
    bounds[0], bounds[-1] = 0, t.in_params.qmax + 1
    vals = sign * w + t.out_params.zero_point
    return np.repeat(vals.astype(t.out_params.dtype), np.diff(bounds))


def _expand(t: PwlTable) -> np.ndarray:
    """_lut by evaluating every input code, block by block."""
    k = t.q_knots
    # s * (q - k_i) + b_i regrouped as s * q + (b_i - s * k_i); the table's
    # 2^62 bound on |s| * 2^bits + |b| keeps both forms within int64
    offsets = t.fx_intercepts - t.fx_slopes * k[:-1]
    # piece i covers codes [edges[i], edges[i + 1])
    edges = np.append(k[:-1], k[-1] + 1)
    pieces = np.arange(len(k) - 1)
    p = t.out_params
    lut = np.empty(t.in_params.qmax + 1, dtype=p.dtype)
    lo, hi = int(k[0]), int(k[-1]) + 1
    for start in range(lo, hi, _EXPAND_BLOCK):
        end = min(start + _EXPAND_BLOCK, hi)
        idx = np.repeat(pieces, np.diff(np.clip(edges, start, end)))
        acc = t.fx_slopes.take(idx) * np.arange(start, end) + offsets.take(idx)
        acc = rounded_shift(acc, TABLE_FRACTION_BITS) + p.zero_point
        lut[start:end] = saturate(acc, p.qmin, p.qmax)
    lut[:lo] = lut[lo]
    lut[hi:] = lut[hi - 1]
    return lut


def build_full(fn, in_params: QuantParams, out_params: QuantParams) -> PwlTable:
    """Table with one knot per input code: 2^b - 1 pieces, LUT-equivalent;
    fit with a budget that keeps every piece."""
    return fit(fn, in_params, out_params, in_params.qmax)


def fit(fn, in_params: QuantParams, out_params: QuantParams, pieces: int) -> PwlTable:
    """reduce(build_full(fn, in_params, out_params), pieces), bit for bit,
    by the one grid walk: the merge runs on fn at every input code, and
    only the reduced table is built.  It refuses, with the same errors,
    what the pair refuses: a grid wider than 16 bits, a value of fn that
    is not finite at some code, and fewer than one piece.

    One difference: the full table's own FxOverflow.  fit proves only the
    reduced table's constants, so a steep step into a fine output grid
    (over a 16-bit grid into QuantParams(8, 2^-20, 0), say) makes the pair
    raise and fit return.  Where out_params's range holds every value of fn
    on the grid, the full table's bound is at most about (2^b_out - 1) *
    (2^b_in + 1) * 2^30, within 2^62 up to 16 bits, and the two agree; the
    engine's tables, with 8-bit outputs, stay below 2^54.
    """
    if in_params.bitwidth > 16:
        raise ValueError("full grid limited to 16-bit inputs")
    grid = np.arange(in_params.qmax + 1, dtype=np.int64)
    xs = dequantize(grid, in_params)
    values = np.asarray(fn(xs), dtype=np.float64)
    if values.shape != grid.shape or not np.isfinite(values).all():
        # the full table refuses these before it derives anything
        PwlTable(grid, values, in_params, out_params)
    keep = _kept(xs, values, pieces)
    if keep is not None:
        grid, values = grid[keep], values[keep]
    return PwlTable(grid, values, in_params, out_params)


def fit_tables(grids: Mapping, pieces: int) -> dict:
    """A stage's tables: a fit on each name's (input, output) grids of the
    activation the name's first word names ("tanh" for "tanh_gate")."""
    return {
        name: fit(activation_registry(name.partition("_")[0])[0], p_in, p_out, pieces)
        for name, (p_in, p_out) in grids.items()
    }


def checked_tables(tables: Mapping, grids: Mapping) -> Mapping:
    """tables as a read-only mapping in the order of grids, a stage's
    table_grids, which must name every table and each one's (input,
    output) grids; ValueError naming a missing, extra or misplaced one."""
    for name in sorted(tables.keys() | grids.keys()):
        t, g = tables.get(name), grids.get(name)
        if t is None or g is None or (t.in_params, t.out_params) != g:
            why = "missing" if t is None else "extra" if g is None else "not on its grids"
            raise ValueError(f"table-grid-mismatch: the {name!r} table is {why}")
    return MappingProxyType({name: tables[name] for name in grids})


def from_points(xs, ys, in_params: QuantParams, out_params: QuantParams) -> PwlTable:
    """Table through explicit (x, f(x)) samples; xs must sit on the grid,
    and the knots are the grid points they sit on."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    q = round_half_away(xs / in_params.scale) + in_params.zero_point
    q = np.asarray(q, dtype=np.int64)
    if np.any(q < 0) or np.any(q > in_params.qmax):
        raise ValueError("knot outside the input storage range")
    back = dequantize(q, in_params)
    if not np.allclose(back, xs, rtol=0.0, atol=1e-9 * max(1.0, np.abs(xs).max())):
        raise ValueError("knots must be members of the quantized input grid")
    return PwlTable(q, ys, in_params, out_params)


def reduce(t: PwlTable, pieces: int) -> PwlTable:
    """Greedy Algorithm-1 knot removal down to a piece budget.

    Repeatedly removes the interior knot shared by the two adjacent pieces
    whose slopes differ least (ties: lowest knot index), recomputing the
    merged slope from the surviving endpoint knots.
    """
    keep = _kept(t.knots, t.values, pieces)
    if keep is None:
        return t
    return PwlTable(t.q_knots[keep], t.values[keep], t.in_params, t.out_params)


def _kept(ks: np.ndarray, ys: np.ndarray, pieces: int) -> np.ndarray | None:
    """Indices of the knots that a budget of pieces keeps; None when the
    budget holds every piece, so every knot stays."""
    if pieces < 1:
        raise ValueError("invalid-budget: pieces must be >= 1")
    if pieces >= len(ks) - 1:
        return None
    return _surviving_knots(ks, ys, pieces)


# A cost's bucket is its float64 bits shifted right by _BUCKET_SHIFT: costs
# are not negative, so buckets order like costs, two to a binade.  Each round
# rebuilds its window from the live costs: every knot up to the end of the
# bucket that holds the _WINDOW_MIN-th smallest cost.
_BUCKET_SHIFT, _WINDOW_MIN = 51, 512
# inf's bucket, the last
_INF_BUCKET = int(np.array(np.inf).view(np.int64)) >> _BUCKET_SHIFT

# a round that certifies fewer knots than this hands its window to
# _scalar_merge, which pops them for less than another round costs
_SCALAR_BELOW = 32


def _surviving_knots(ks: np.ndarray, ys: np.ndarray, pieces: int) -> np.ndarray:
    """Indices of the knots the greedy merge keeps.

    The merge removes, one at a time, the surviving interior knot with the
    smallest key (cost, index), where cost = |slope(prev, j) - slope(j, next)|
    over its surviving neighbours and slope(i, j) = (y_j - y_i) / (k_j - k_i)
    in float64; numpy's IEEE subtract, divide and abs give the scalar bits.

    It runs in rounds, each over a window rebuilt from the live costs: the
    survivors whose cost is at most a threshold theta (_theta).  Every other
    survivor has a key above theta, so the merge pops the whole window, as
    it stands after each removal, before anything else.  Each round removes
    at once the batch that _certified proves to be the merge's next pops; a
    round that certifies too few hands the window to _scalar_merge, which
    pops it dry.  A removal changes only its neighbours' keys (_Path.remove).

    A NaN cost (a slope overflowed) leaves the keys unordered; then
    _scalar_merge pops every survivor, with theta inf.
    """
    todo = len(ks) - 1 - pieces
    # slopes that overflow give inf and NaN silently, as Python floats do
    with np.errstate(over="ignore", invalid="ignore"):
        path = _Path(ks, ys)
        while todo > 0:
            live = path.live()
            cost = path.cost[live]
            if np.isnan(cost).any():
                path.remove(_scalar_merge(path, live, todo, np.inf))
                break
            theta = _theta(cost)
            window = live[cost <= theta]
            gone = _certified(path, window)[:todo]
            if len(gone) < min(todo, _SCALAR_BELOW):
                gone = _scalar_merge(path, window, todo, theta)
            todo -= len(gone)
            path.remove(gone)
    return np.flatnonzero(path.alive)


def _theta(cost: np.ndarray) -> float:
    """A round's theta over the live costs: the largest float in the bucket
    that holds the _WINDOW_MIN-th smallest cost, so the window holds at
    least _WINDOW_MIN knots.  inf when there are no more than _WINDOW_MIN
    costs or that bucket is inf's, so the window holds every survivor.

    Two other rules made the 16-bit workload tables slower, by up to four
    times: a window of exactly the _WINDOW_MIN smallest costs took five
    times the rounds, and one of the costs up to twice the _WINDOW_MIN-th
    handed twice the knots to _scalar_merge.
    """
    if len(cost) <= _WINDOW_MIN:
        return np.inf
    kth = np.partition(cost, _WINDOW_MIN - 1)[_WINDOW_MIN - 1]
    top = int(kth.view(np.int64)) >> _BUCKET_SHIFT
    if top >= _INF_BUCKET:
        return np.inf
    # the largest float below the next bucket's smallest
    return float(np.int64(((top + 1) << _BUCKET_SHIFT) - 1).view(np.float64))


class _Path:
    """The surviving knots as a linked path, with their slopes and keys.

    prev and nxt link the survivors by knot index, right[j] is the slope
    from j to nxt[j] and cost[j] = |right[prev[j]] - right[j]| is the cost
    of interior knot j; the end knots have no cost.
    """

    def __init__(self, k: np.ndarray, y: np.ndarray):
        n = len(k)
        self.k = np.ascontiguousarray(k, dtype=np.float64)
        self.y = np.ascontiguousarray(y, dtype=np.float64)
        self.prev = np.arange(-1, n - 1, dtype=np.int64)
        self.nxt = np.arange(1, n + 1, dtype=np.int64)
        self.alive = np.ones(n, dtype=bool)
        self.right = np.zeros(n)
        self.right[:-1] = np.diff(self.y) / np.diff(self.k)
        self.cost = np.zeros(n)
        self.cost[1:-1] = np.abs(self.right[:-2] - self.right[1:-1])
        self.last = n - 1

    def slope(self, i, j):
        return (self.y[j] - self.y[i]) / (self.k[j] - self.k[i])

    def live(self) -> np.ndarray:
        """The surviving interior knots, in index order."""
        return np.flatnonzero(self.alive[1:-1]) + 1

    def remove(self, gone) -> None:
        """Unlink the knots gone and recompute their neighbours' costs.
        Removing a set leaves the same path in any order, so each run of
        gone knots adjacent on the path is unlinked at once, from the
        survivors on its two sides."""
        prev, nxt = self.prev, self.nxt
        g = np.sort(gone)
        self.alive[g] = False
        joined = nxt[g[:-1]] == g[1:]
        lo = prev[g[np.concatenate(([True], ~joined))]]
        hi = nxt[g[np.concatenate((~joined, [True]))]]
        nxt[lo], prev[hi] = hi, lo
        self.right[lo] = self.slope(lo, hi)
        near = np.concatenate((lo, hi))
        near = near[(near > 0) & (near < self.last)]
        self.cost[near] = np.abs(self.right[prev[near]] - self.right[near])


def _certified(path: _Path, window: np.ndarray) -> np.ndarray:
    """Indices of window knots that are the merge's next pops, in pop order.

    window holds the surviving interior knots of cost at most theta, in
    index order, and none of their costs is NaN.  Equal costs order by
    index, so the keys are distinct.

    The result is the longer of two runs, each proven to be the next pops.

    The zero-cost run.  A knot of cost 0 is neutral if the slope across it
    equals the slopes on its two sides.  Removing a neutral knot leaves its
    neighbours' slopes, so every key, as it was.  So the merge pops the
    knots of cost 0 in index order for as long as each is neutral when its
    turn comes, that is with the zero-cost knots just left of it gone: the
    run is those pops, up to and including the first knot that is not
    neutral.  The knots inside a flat stretch of y are all neutral, so a
    flat tail goes in one round.

    The prefix of A, the greedy independent set in key order on the path
    of interior knots: a knot is in A iff no neighbour with a smaller key
    is.  Valleys are in, knots on a monotone run alternate from its valley,
    and a peak is in iff both its neighbours are out.  Removing a knot of A gives each interior neighbour a new key.
    That key is charged to the removal if the neighbour's other neighbour
    stays or goes later; if both neighbours go, the key left by both
    removals is charged to the later one.

    With b_1, b_2, ... the knots of A in key order, the prefix is the
    longest b_1..b_k in which every cost charged to b_1..b_{k-1} is
    strictly greater than cost(b_k).  Proof that the merge pops b_1..b_k
    next, in order: say it has popped b_1..b_{i-1}, i <= k.  Neither
    neighbour of b_i is in A, so b_i still has its round key.  Any other
    surviving knot x either
      - has a removed neighbour, and its key is a key charged to some b_j,
        j < i, so it exceeds cost(b_k) >= cost(b_i); or
      - still has its round key.  If x is in A, x = b_j with j > i.  If not,
        x has a neighbour in A with a smaller key; had x's key been below
        b_i's, that neighbour would be some b_j, j < i, already removed.
    So b_i holds the smallest key and is popped next.

    Only the window is looked at, and the prefix is the same as over every
    survivor, cut at theta.  A survivor outside the window has a cost above
    theta, so a key above every window knot's, and it is never the smaller
    neighbour of a window knot.  So A's members in the window are the
    greedy independent set of the window's own path segments, and they are
    A's key-order prefix up to theta.  A knot of A outside the window goes
    after a window knot of A two away from it, so that knot's charge is its
    neighbour's key with the outside knot still standing, as over every
    survivor.  Every knot of cost 0 is in the window, so the zero-cost run
    is the same too.
    """
    prev, nxt, right = path.prev, path.nxt, path.right
    c = path.cost[window]
    z = window[c == 0]
    if len(z):
        # each zero-cost knot's left neighbour once the zero-cost knots just
        # left of it on the path have gone
        head = np.ones(len(z), dtype=bool)
        head[1:] = nxt[z[:-1]] != z[1:]
        lo = prev[z[np.maximum.accumulate(np.where(head, np.arange(len(z)), 0))]]
        across = path.slope(lo, nxt[z])
        neutral = (path.slope(lo, z) == across) & (across == right[z])
        z = z[: len(z) if neutral.all() else np.argmin(neutral) + 1]

    n = len(c)
    hi = nxt[window]
    # neighbours on the path that are both in the window
    joined = hi[:-1] == window[1:]
    up = c[:-1] <= c[1:]  # key(i) < key(i + 1)
    i = np.arange(n)
    lower_left = np.concatenate(([False], joined & up))
    lower_right = np.concatenate((joined & ~up, [False]))
    start = np.maximum.accumulate(np.where(lower_left, 0, i))
    end = np.minimum.accumulate(np.where(lower_right, n - 1, i)[::-1])[::-1]
    take = (np.where(lower_left, i - start, end - i) & 1) == 0
    peak = np.flatnonzero(lower_left & lower_right)
    take[peak] = ~(take[peak - 1] | take[peak + 1])
    (a,) = np.nonzero(take)

    p, cost, hi = window[a], c[a], hi[a]
    lo = prev[p]
    # the slope across p once it goes
    ms = path.slope(lo, hi)
    # p's neighbours keep their outer slopes unless a knot of A two away
    # goes first; the end knots have no key, so their charge is inf
    outer_left = right[prev[lo]]
    outer_right = right[hi]
    pair = hi[:-1] == lo[1:]
    left_first = cost[:-1] <= cost[1:]
    later = pair & left_first
    outer_left[1:][later] = ms[:-1][later]
    later = pair & ~left_first
    outer_right[:-1][later] = ms[1:][later]
    to_left = np.where(lo == 0, np.inf, np.abs(outer_left - ms))
    to_right = np.where(hi == path.last, np.inf, np.abs(ms - outer_right))
    charge = np.minimum(to_left, to_right)

    order = np.argsort(cost, kind="stable")
    floor = np.minimum.accumulate(charge[order])
    # a NaN charge fails the comparison, so it ends the prefix
    short = np.flatnonzero(~(floor[:-1] > cost[order[1:]]))
    p = p[order[: short[0] + 1 if len(short) else len(p)]]
    # both are runs of the next pops; the longer certifies more
    return p if len(p) >= len(z) else z


def _scalar_merge(path: _Path, window: np.ndarray, need: int, theta) -> list:
    """Indices the merge removes next, popped one at a time from the window.

    Only the window's knots enter the heap: those with cost at most theta.
    Every other knot has a key above theta, and a new key above theta is
    not pushed, so the heap minimum is always the merge's next removal until
    the heap runs dry.  With theta inf every survivor is in the heap; that
    also holds when some cost is NaN and the keys have no order.
    """
    heap = list(zip(path.cost[window].tolist(), window.tolist(), [0] * len(window)))
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    # memoryviews index to Python floats and ints; the links are copies
    kv, yv = memoryview(path.k), memoryview(path.y)
    prev, nxt = memoryview(path.prev.copy()), memoryview(path.nxt.copy())
    stamp = memoryview(np.zeros(len(kv), dtype=np.int32))
    last, theta = path.last, float(theta)
    gone = []
    while heap and len(gone) < need:
        _, j, s = pop(heap)
        if s != stamp[j]:
            continue
        gone.append(j)
        lo, hi = prev[j], nxt[j]
        nxt[lo], prev[hi] = hi, lo
        # each neighbour's new cost, with the slope across j shared
        mid = (yv[hi] - yv[lo]) / (kv[hi] - kv[lo])
        if lo > 0:
            i = prev[lo]
            c = abs((yv[lo] - yv[i]) / (kv[lo] - kv[i]) - mid)
            stamp[lo] += 1
            if not c > theta:
                push(heap, (c, lo, stamp[lo]))
        if hi < last:
            i = nxt[hi]
            c = abs(mid - (yv[i] - yv[hi]) / (kv[i] - kv[hi]))
            stamp[hi] += 1
            if not c > theta:
                push(heap, (c, hi, stamp[hi]))
    return gone


def _piece_index(sorted_knots, x):
    idx = np.searchsorted(sorted_knots, x, side="right") - 1
    return np.clip(idx, 0, len(sorted_knots) - 2)


def eval_float(t: PwlTable, x):
    """Evaluate the approximation; inputs clamp to the knot span."""
    arr = np.clip(np.asarray(x, dtype=np.float64), t.knots[0], t.knots[-1])
    idx = _piece_index(t.knots, arr)
    out = t.slopes[idx] * (arr - t.knots[idx]) + t.intercepts[idx]
    if np.ndim(x) == 0:
        return float(out)
    return out


def eval_int(t: PwlTable, qx):
    """Integer-only evaluation: a gather from the table's exact LUT."""
    q = np.clip(np.asarray(qx, dtype=np.int64), 0, t.in_params.qmax)
    out = t.lut[q]
    if np.ndim(qx) == 0:
        return int(out)
    return out
