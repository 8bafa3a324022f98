"""LSTM cells: float reference and integer-only implementations.

The integer cell composes the quantized matmul, fixed-point requantization,
piecewise-linear activations and (optionally) integer MadNorm into a single
step function.  Weight matrices hold the four gates stacked as rows in the
fixed order (i, f, j, o); hidden states are always 8-bit while the cell
state may be 8- or 16-bit.

Calibration runs the float reference once over representative sequences,
stepping them together, with a min/max observer attached to every
intermediate tensor site, then freezes one QuantParams set per site.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping
from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType

import numpy as np

from .fixedpoint import _INT32_MAX, FxOverflow, Rescale, round_half_away, saturate
from .madnorm import MadNormPlan, _madnorm_parts
from .pwl import TANH_GRID, UNIT_GRID, checked_tables, fit_tables
from .quant import (
    ExactGemv,
    Observer,
    QTensor,
    QuantParams,
    _gemv_rows,
    _observe,
    _read_only,
    dequantize,
    derive_params,
    max_centered,
    qmul_rescale,
    quantize_weight,
    rescale,
)

__all__ = [
    "CellConfig",
    "IntLstmCell",
    "LstmWeights",
    "calibrate_lstm_cell",
    "freeze_cell",
    "lstm_run_ref",
    "lstm_step_ref",
]

# tensor sites normalized per MadNorm branch: mu, centered, deviation, output
_MN_SITES = tuple(
    f"mn{branch}_{part}" for branch in ("x", "h") for part in ("mu", "xhat", "d", "y")
)


@dataclass(frozen=True)
class CellConfig:
    """Bitwidth and approximation knobs fixed at build time."""

    cell_bits: int = 8
    preact_bits: int = 8
    use_madnorm: bool = False
    pwl_pieces: int = 32

    def __post_init__(self):
        if self.cell_bits not in (8, 16):
            raise ValueError("cell_bits must be 8 or 16")
        if self.preact_bits not in (8, 16):
            raise ValueError("preact_bits must be 8 or 16")
        if self.pwl_pieces < 1:
            raise ValueError("pwl_pieces must be >= 1")


@dataclass(frozen=True)
class LstmWeights:
    """Quantized gate weights: wx [4m x n], wh [4m x m], stacked (i, f, j, o).

    bias is int32 at scale S_x * S_wx (folded into the input-branch matmul
    accumulator).  ws, when present, projects an external context vector
    into the gate pre-activations.  The codes and bias are read-only copies.
    """

    wx: QTensor
    wh: QTensor
    bias: np.ndarray | None = None
    ws: QTensor | None = None

    def __post_init__(self):
        for name, w in (("wx", self.wx), ("wh", self.wh), ("ws", self.ws)):
            if w is not None and w.params.bitwidth != 8:
                raise ValueError(f"{name} must be 8-bit")
        for name in ("wx", "wh", "ws", "bias"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        four_m, _ = self.wx.shape
        if four_m % 4:
            raise ValueError("gate rows must stack four equal blocks")
        m = four_m // 4
        if self.wh.shape != (four_m, m):
            raise ValueError("wh shape disagrees with wx gate stacking")
        if self.bias is not None and self.bias.shape != (four_m,):
            raise ValueError("bias length must be 4m")
        if self.ws is not None and self.ws.shape[0] != four_m:
            raise ValueError("ws rows must be 4m")

    @property
    def hidden_size(self) -> int:
        return self.wx.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.wx.shape[1]


def _madnorm_observed(observers, branch, pre):
    """MadNorm of gate products pre [..., 4m], observing its four sites."""
    parts = _madnorm_parts(pre)
    if observers is not None:
        for part, value in zip(("mu", "xhat", "d", "y"), parts):
            _observe(observers, f"mn{branch}_{part}", value)
    return parts[3]


def lstm_step_ref(
    x,
    h,
    c,
    wx,
    wh,
    bias=None,
    *,
    ws=None,
    s=None,
    use_madnorm: bool = False,
    observers: dict | None = None,
):
    """One float LSTM step on every row of x [..., n] from states h and c
    [..., m]; returns (h', c') [..., m].

    Gates stack as (i, f, j, o); the cell update is
    c' = sigmoid(f) * c + sigmoid(i) * tanh(j) and h' = sigmoid(o) * tanh(c').
    With use_madnorm the two matmul products are normalized separately
    before the gate sum and the bias joins after normalization.  Rows are
    independent: each row's products are one gemv and its MadNorm reduces
    its own row, so a row has the bits of a 1-D step on it, and an observer
    sees the batch as it would each row.  It sees the sites the step
    computes; whoever supplies x and s observes them.
    """
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    wx = np.asarray(wx, dtype=np.float64)
    wh = np.asarray(wh, dtype=np.float64)
    four_m = wx.shape[0]
    if four_m % 4 or wh.shape != (four_m, four_m // 4):
        raise ValueError("weight shapes disagree")
    m = four_m // 4
    if x.shape[-1:] != wx.shape[1:] or h.shape != x.shape[:-1] + (m,) or c.shape != h.shape:
        raise ValueError("input/state shapes disagree")

    gx = _gemv_rows(wx, x)
    if bias is not None and not use_madnorm:
        gx = gx + bias
    gh = _gemv_rows(wh, h)
    _observe(observers, "xprod", gx)
    _observe(observers, "hprod", gh)
    if use_madnorm:
        total = _madnorm_observed(observers, "x", gx) + _madnorm_observed(observers, "h", gh)
        if bias is not None:
            total = total + bias
    else:
        total = gx + gh
    _observe(observers, "sum1", total)
    if ws is not None:
        s = np.asarray(s, dtype=np.float64)
        total = total + _gemv_rows(np.asarray(ws, dtype=np.float64), s)
        _observe(observers, "preact", total)

    # elementwise, so one sigmoid over all four gates has each gate's bits
    sig = 1.0 / (1.0 + np.exp(-total))
    fc = sig[..., m : 2 * m] * c
    ij = sig[..., :m] * np.tanh(total[..., 2 * m : 3 * m])
    _observe(observers, "fc", fc)
    _observe(observers, "ij", ij)
    c1 = fc + ij
    h1 = sig[..., 3 * m :] * np.tanh(c1)
    _observe(observers, "c", c1)
    _observe(observers, "h", h1)
    return h1, c1


def lstm_run_ref(
    xs,
    wx,
    wh,
    bias=None,
    *,
    ws=None,
    context=None,
    use_madnorm: bool = False,
    observers: dict | None = None,
) -> np.ndarray:
    """Float reference over sequences xs [..., T, n] from zero state;
    returns [..., T, m].  Every sequence steps together, each with the bits
    of its own run (see lstm_step_ref, which observes no input).

    context(t, h), for a cell with ws, returns step t's context vectors
    [..., m_s] from the hidden states h [..., m] before that step.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim < 2:
        raise ValueError("expected [..., T x n] input sequences")
    m = np.asarray(wx).shape[0] // 4
    h = np.zeros(xs.shape[:-2] + (m,))
    c = np.zeros_like(h)
    out = np.empty(xs.shape[:-1] + (m,))
    # a gate below -709 overflows exp(-v) to inf, where the sigmoid is 0
    # exactly; the flag is set aside once per run, not once per step
    with np.errstate(over="ignore"):
        for t in range(xs.shape[-2]):
            s = None if context is None else context(t, h)
            h, c = lstm_step_ref(
                xs[..., t, :], h, c, wx, wh, bias,
                ws=ws, s=s, use_madnorm=use_madnorm, observers=observers,
            )
            out[..., t, :] = h
    return out


class IntLstmCell:
    """Integer-only LSTM cell, compiled once into integer constants and LUTs.

    sites maps tensor-site names to calibrated QuantParams: x, h, c, xprod,
    hprod, sum1, fc, ij, plus preact and s for context-fed cells.  A cell
    normalizes its gate products (MadNorm) exactly when sites holds the
    mn{x,h}_{mu,xhat,d,y} group, all eight of them; a site it does not read
    is refused (ValueError).  tables maps the names of table_grids to the
    PWL tables the cell runs, each on its grids there, and nothing else
    (pwl.checked_tables; see freeze_cell).

    Construction derives every rescale from the sites, compiles the exact
    GEMV operands and the LUTs, and proves the constant overflow bounds, so
    a step is only GEMVs, adds, shifts, saturations and gathers on plain
    code arrays, with no per-step check.  The inputs cannot be assigned,
    the sites and tables are read-only mappings, the weights' and tables'
    arrays read-only copies, and nothing compiled changes afterwards, so
    one cell may step many sequences on many threads.

    A context-fed cell that attends can carry the attention query
    (with_query, AttentionPlan.carrier): a copy whose one h GEMV and one
    rescale give both its hprod codes and the centered query codes that
    its run() hands the context callback.  An encoder-decoder model holds
    that copy as its decoder, derived once when it is assembled.
    """

    weights = property(attrgetter("_weights"))
    sites = property(attrgetter("_sites"))
    tables = property(attrgetter("_tables"))
    use_madnorm = property(attrgetter("_use_madnorm"))
    hidden_size = property(attrgetter("_weights.hidden_size"))
    input_size = property(attrgetter("_weights.input_size"))

    def __init__(self, weights: LstmWeights, sites: Mapping, tables: Mapping):
        required = {"x", "h", "c", "xprod", "hprod", "sum1", "fc", "ij"}
        if weights.ws is not None:
            required |= {"s", "preact"}
        self._use_madnorm = not sites.keys().isdisjoint(_MN_SITES)
        if self._use_madnorm:
            required |= set(_MN_SITES)
        missing = sorted(required - sites.keys())
        if missing:
            raise KeyError(f"uncalibrated-tensor: {', '.join(missing)}")
        if extra := sorted(sites.keys() - required):
            raise ValueError(f"unread-site: the cell reads no {', '.join(extra)}")
        if sites["h"].bitwidth != 8:
            raise ValueError("hidden state must be 8-bit")
        self._weights = weights
        self._sites = MappingProxyType(dict(sites))
        self._tables = checked_tables(tables, self.table_grids(self._sites))
        self._compile()

    @staticmethod
    def table_grids(sites: Mapping) -> dict:
        """(input grid, output grid) of each table, by name: the gate sigmoid
        and tanh read preact where the sites hold it (a context-fed cell's
        do), else sum1, tanh(c) reads c, and the outputs are fixed grids."""
        p_gate = sites["preact" if "preact" in sites else "sum1"]
        return {
            "sigmoid": (p_gate, UNIT_GRID),
            "tanh_gate": (p_gate, TANH_GRID),
            "tanh_cell": (sites["c"], TANH_GRID),
        }

    def _compile(self) -> None:
        p, w, m = self.sites, self.weights, self.hidden_size
        self._m = m
        bias_acc = None
        self._bias_codes = None
        if w.bias is not None:
            if self.use_madnorm:
                # normalization is shift-invariant, so the bias only
                # survives if it joins after the per-branch norms
                self._bias_codes = round_half_away(
                    w.bias.astype(np.float64) * p["x"].scale * w.wx.params.scale
                    / p["sum1"].scale
                )
            else:
                bias_acc = w.bias
        self._gemv_x = ExactGemv(w.wx, p["x"], bias_acc)
        self._gemv_h = ExactGemv(w.wh, p["h"])
        # xprod, hprod, fc and ij feed only centered operands (Rescale.centered)
        self._xprod = self._gemv_x.rescale(p["xprod"]).centered()
        self._hprod = self._gemv_h.rescale(p["hprod"]).centered()
        # the plain h projection, which a query-carrying copy stacks on
        self._h_proj = self._gemv_h, self._hprod

        self._norm_x = self._norm_h = None
        pa, pb = p["xprod"], p["hprod"]
        if self.use_madnorm:
            self._norm_x = MadNormPlan(
                pa, p["mnx_mu"], p["mnx_xhat"], p["mnx_d"], p["mnx_y"], 4 * m
            )
            self._norm_h = MadNormPlan(
                pb, p["mnh_mu"], p["mnh_xhat"], p["mnh_d"], p["mnh_y"], 4 * m
            )
            pa, pb = p["mnx_y"], p["mnh_y"]
        self._sum1 = rescale(p["sum1"], (pa.scale / p["sum1"].scale, max_centered(pa)),
                             (pb.scale / p["sum1"].scale, max_centered(pb)))

        # The last gate rescale feeds only the LUT gathers, which clip their
        # indices to the grid, so it does not saturate; an earlier one keeps
        # its saturation.  The context rescale reads centered sum1 codes.
        self._gemv_s = self._context = None
        if w.ws is not None:
            self._gemv_s = ExactGemv(w.ws, p["s"])
            # the context accumulator joins at scale S_s * S_ws
            self._context = rescale(
                p["preact"], (p["sum1"].scale / p["preact"].scale, max_centered(p["sum1"])),
                (p["s"].scale * w.ws.params.scale / p["preact"].scale, self._gemv_s.bound),
            ).unsaturated()
            self._sum1 = self._sum1.centered()
        elif self._bias_codes is None:
            self._sum1 = self._sum1.unsaturated()

        # in table_grids order; the LUTs span their input grids, so a
        # clipped index is a saturated code
        luts = [t.lut for t in self.tables.values()]
        self._sig_lut, self._tanh_gate_lut, self._tanh_cell_lut = luts
        p_sig, p_tanh = UNIT_GRID, TANH_GRID
        # a 0-d array, which ufuncs take without converting a Python int;
        # the sigmoid codes need none, UNIT_GRID's zero point being 0
        self._z_tanh_cell = np.asarray(p_tanh.zero_point, dtype=np.int64)
        # the zero points of the stacked operand [tanh(j), c]
        self._z_jc = np.repeat(
            np.array([p_tanh.zero_point, p["c"].zero_point], dtype=np.int64), m
        )
        # ij and fc as one rescale of the stacked products [si * tj, sf * c]
        self._ij_fc = Rescale.stack([(qmul_rescale(p_sig, pb, p[site]).centered(), m)
                                     for site, pb in (("ij", p_tanh), ("fc", p["c"]))])
        self._c = rescale(p["c"], (p["fc"].scale / p["c"].scale, max_centered(p["fc"])),
                          (p["ij"].scale / p["c"].scale, max_centered(p["ij"])))
        self._h = qmul_rescale(p_sig, p_tanh, p["h"])
        self._h_dtype, self._c_dtype = p["h"].dtype, p["c"].dtype

    def input_branch(self, xs: np.ndarray) -> np.ndarray:
        """The h-independent part of the gate sum for [T x n] x codes: Wx x +
        bias, its xprod requantization and (with MadNorm) the x-branch
        normalization, as the x operand of the gate-sum rescale, int64
        [T x 4m].  run() computes it for the whole sequence in one matmul;
        step() takes one row of it."""
        xa = self._xprod(self._gemv_x(xs))
        if self._norm_x is not None:
            xa = self._norm_x(xa)
        return self._sum1.term(0, xa)

    def with_query(self, gemv_q: ExactGemv, qproj: Rescale) -> IntLstmCell:
        """A copy of this context-fed cell whose h projection also carries
        an attention query: gemv_q, a GEMV of the cell's h grid, and qproj,
        its centered one-term saturating rescale (AttentionPlan.carrier
        passes the plan's), stacked under the plain h projection
        (ExactGemv.stack, Rescale.stack: each element keeps its part's
        constants), so a carrier's copy carries one query.  Each step of its
        run() projects h once and hands context() the centered query codes."""
        if self._gemv_s is None:
            raise ValueError("a query rides only on a context-fed cell")
        gemv_h, hprod = self._h_proj
        out = copy.copy(self)
        out._hprod = Rescale.stack([(hprod, 4 * self._m), (qproj, gemv_q.w.shape[1])])
        out._gemv_h = ExactGemv.stack([gemv_h, gemv_q])
        return out

    def step(self, xb: np.ndarray, hb: np.ndarray, c: np.ndarray, s=None):
        """One timestep on code arrays: xb is this step's input_branch() row,
        hb the hprod codes of the state's h, the first 4m of the h
        projection that run() makes, c the state's cell codes and s (for a
        context-fed cell) the context codes; returns (h', c').  Nothing is
        checked: run() checks its input once, and the cell's own outputs
        are on its grids by construction.

        The inputs are only read.  The gate sum and both gate products are
        formed in fresh arrays and worked on in place there, each rescale
        rounds in the array its product allocated, and the sigmoid codes
        are taken as centered, since UNIT_GRID puts zero at code 0."""
        if self._norm_h is not None:
            hb = self._norm_h(hb)
        gates = self._sum1.term(1, hb)
        gates += xb
        gates = self._sum1.finish_in_place(gates)
        if self._bias_codes is not None:
            gates += self._bias_codes
            if self._gemv_s is not None:
                gates = saturate(gates, self._sum1.lo, self._sum1.hi)
        if self._gemv_s is not None:
            gates = self._context(gates, self._gemv_s(s))

        m = self._m
        sig = self._sig_lut.take(gates, mode="clip")
        jc = np.concatenate(
            (self._tanh_gate_lut.take(gates[2 * m : 3 * m], mode="clip"), c), dtype=np.int64
        )
        jc -= self._z_jc
        jc *= sig[: 2 * m]
        ij_fc = self._ij_fc(jc)
        q_c1 = self._c(ij_fc[m:], ij_fc[:m])
        tc = np.subtract(self._tanh_cell_lut.take(q_c1), self._z_tanh_cell, dtype=np.int64)
        tc *= sig[3 * m :]
        q_h1 = self._h(tc)
        return q_h1.astype(self._h_dtype), q_c1.astype(self._c_dtype)

    def run(self, qxs: QTensor, context=None) -> QTensor:
        """Drive the cell over a [T x n] input from zero state; returns all
        hidden states.  The input's grid and length and the context wiring
        are checked once, the input branch runs once over the sequence, and
        step() runs once per timestep on code arrays.  Each step projects
        the hidden-state codes h once, and hands step() the hprod rows.
        context(t, q), for a context-fed cell only, returns step t's
        context codes from q, the rest of that projection: the centered
        query codes of a query-carrying cell (with_query), and an empty
        array for any other."""
        if qxs.params != self.sites["x"]:
            raise ValueError("uncalibrated-tensor: x params differ from calibration")
        if qxs.data.ndim != 2 or qxs.data.shape[0] < 1:
            raise ValueError("expected a [T x n] input sequence with T >= 1")
        if (context is None) != (self._gemv_s is None):
            raise ValueError("context input does not match cell wiring")
        xb, m, ph = self.input_branch(qxs.data), self.hidden_size, self.sites["h"]
        h, c = (np.full(m, p.zero_point, dtype=p.dtype) for p in (ph, self.sites["c"]))
        out, rows = np.empty((len(xb), m), dtype=ph.dtype), 4 * m
        for t in range(len(xb)):
            hq = self._hprod(self._gemv_h(h))
            s = None if context is None else context(t, hq[rows:])
            h, c = self.step(xb[t], hq[:rows], c, s)
            out[t] = h
        return QTensor(out, ph)


def _bits_for(site: str, cfg: CellConfig) -> int:
    if site in ("fc", "ij", "c"):
        return cfg.cell_bits
    if site in ("xprod", "hprod", "sum1", "preact"):
        return cfg.preact_bits
    return 8


def _product_grid(pa: QuantParams, pb: QuantParams, bitwidth: int) -> QuantParams:
    """The grid of every product of a real on grid pa and one on grid pb."""
    ends = [dequantize(q, p) for p in (pa, pb) for q in (p.qmin, p.qmax)]
    corners = [a * b for a in ends[:2] for b in ends[2:]]
    return derive_params(min(corners), max(corners), bitwidth)


def freeze_cell(observers: dict, wx, wh, bias, cfg: CellConfig, ws=None) -> IntLstmCell:
    """Freeze observed tensor sites, quantize the weights, build the tables.

    observers maps site names to the Observers of a float run (see
    lstm_step_ref); bias, when given, becomes int32 codes at S_x * S_wx.
    The activation tables are reduced PWL fits over the gate and cell grids.
    """
    sites = {k: o.finalize(_bits_for(k, cfg)) for k, o in observers.items()}
    # fc = sigmoid(f) * c is only ever 0 in a one-step run from zero state;
    # a site seen at a single point takes the grid its operands can reach
    fc = observers["fc"]
    if fc.running_min == fc.running_max:
        sites["fc"] = _product_grid(sites["c"], UNIT_GRID, _bits_for("fc", cfg))
    qwx = quantize_weight(wx)
    qwh = quantize_weight(wh)
    qws = quantize_weight(ws) if ws is not None else None
    bias_i32 = None
    if bias is not None:
        # checked before rounding; an inf or nan code (the scales underflow) too
        with np.errstate(all="ignore"):
            codes = np.asarray(bias, dtype=np.float64) / (sites["x"].scale * qwx.params.scale)
        if not np.abs(codes).max(initial=0) < _INT32_MAX + 0.5:
            raise FxOverflow("bias codes exceed int32 range")
        bias_i32 = round_half_away(codes).astype(np.int32)
    weights = LstmWeights(qwx, qwh, bias_i32, ws=qws)
    tables = fit_tables(IntLstmCell.table_grids(sites), cfg.pwl_pieces)
    return IntLstmCell(weights, sites, tables)


def calibrate_lstm_cell(
    wx, wh, bias, seqs, cfg: CellConfig, ws=None, s_seqs=None
) -> IntLstmCell:
    """Observe one float run over calibration sequences, then freeze the cell.

    seqs is [..., T x n], every sequence stepping together; s_seqs, given
    exactly when ws is (the cell takes a context input), is [..., T' x m_s],
    T' >= T, with the same leading axes; ValueError otherwise, before the
    run.  The run observes what it computes, and this function observes
    seqs as x and the context rows the run reads, s_seqs[..., :T, :], as s.
    """
    observers: dict[str, Observer] = {}
    seqs = np.asarray(seqs, dtype=np.float64)
    if (ws is None) != (s_seqs is None):
        raise ValueError("ws and s_seqs come together: a context-fed cell needs both")
    if s_seqs is not None:
        s_seqs = np.asarray(s_seqs, dtype=np.float64)
        if min(s_seqs.ndim, seqs.ndim) < 2 or s_seqs.shape[:-2] != seqs.shape[:-2]:
            raise ValueError(f"s_seqs {s_seqs.shape} needs the leading axes of seqs {seqs.shape}")
        if s_seqs.shape[-2] < seqs.shape[-2]:
            raise ValueError(f"s_seqs has {s_seqs.shape[-2]} rows, fewer than the "
                             f"{seqs.shape[-2]} steps of seqs")
    lstm_run_ref(
        seqs, wx, wh, bias,
        ws=ws, context=None if s_seqs is None else lambda t, h: s_seqs[..., t, :],
        use_madnorm=cfg.use_madnorm, observers=observers,
    )
    _observe(observers, "x", seqs)
    if s_seqs is not None:
        _observe(observers, "s", s_seqs[..., : seqs.shape[-2], :])
    return freeze_cell(observers, wx, wh, bias, cfg, ws=ws)
