"""LSTM cells: float reference and integer-only implementations.

The integer cell composes the quantized matmul, fixed-point requantization,
piecewise-linear activations and (optionally) integer MadNorm into a single
step function.  Weight matrices hold the four gates stacked as rows in the
fixed order (i, f, j, o); hidden states are always 8-bit while the cell
state may be 8- or 16-bit.

Calibration runs the float reference over representative sequences with a
min/max observer attached to every intermediate tensor site, then freezes
one QuantParams set per site.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .fixedpoint import FxOverflow, requant_multiplier, round_half_away, saturate
from .madnorm import MadNormPlan, compute_stats, madnorm_ref
from .pwl import activation_registry, build_full, reduce
from .quant import (
    ExactGemv,
    Observer,
    QTensor,
    QuantParams,
    derive_params,
    max_centered,
    qmul_rescale,
    quantize_weight,
    requant_rescale,
    sum_rescale,
)

__all__ = [
    "GATE_ORDER",
    "CellConfig",
    "IntLstmCell",
    "LstmState",
    "LstmWeights",
    "TABLE_NAMES",
    "calibrate_lstm_cell",
    "freeze_cell",
    "lstm_run_ref",
    "lstm_step_ref",
]

GATE_ORDER = ("i", "f", "j", "o")

# a cell's PWL tables: the gate sigmoids, the j-gate tanh and tanh(c)
TABLE_NAMES = ("sigmoid", "tanh_gate", "tanh_cell")

_INT32_MAX = 2**31 - 1

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


@dataclass
class LstmWeights:
    """Quantized gate weights: wx [4m x n], wh [4m x m], stacked (i, f, j, o).

    bias is int32 at scale S_x * S_wx (folded into the input-branch matmul
    accumulator).  ws, when present, projects an external context vector
    into the gate pre-activations.
    """

    wx: QTensor
    wh: QTensor
    bias: np.ndarray | None = None
    ws: QTensor | None = None
    gate_order: tuple = GATE_ORDER

    def __post_init__(self):
        if self.gate_order != GATE_ORDER:
            raise ValueError(f"gate order is fixed as {GATE_ORDER}")
        for name, w in (("wx", self.wx), ("wh", self.wh), ("ws", self.ws)):
            if w is not None and w.params.bitwidth != 8:
                raise ValueError(f"{name} must be 8-bit")
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


@dataclass
class LstmState:
    h: QTensor
    c: QTensor

    def __post_init__(self):
        if self.h.params.bitwidth != 8:
            raise ValueError("hidden state must be 8-bit")


def _observe(observers, key, value):
    if observers is None:
        return
    observers.setdefault(key, Observer()).observe(np.atleast_1d(value))


def _observe_madnorm(observers, branch, pre):
    if observers is None:
        return
    st = compute_stats(pre)
    _observe(observers, f"mn{branch}_mu", st.mu)
    _observe(observers, f"mn{branch}_xhat", pre - st.mu)
    _observe(observers, f"mn{branch}_d", st.d)
    _observe(observers, f"mn{branch}_y", madnorm_ref(pre))


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
    """One float LSTM step; returns (h', c').

    Gates stack as (i, f, j, o); the cell update is
    c' = sigmoid(f) * c + sigmoid(i) * tanh(j) and h' = sigmoid(o) * tanh(c').
    With use_madnorm the two matmul products are normalized separately
    before the gate sum and the bias joins after normalization.
    """
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    _observe(observers, "x", x)
    if s is not None:
        _observe(observers, "s", s)
    wx = np.asarray(wx, dtype=np.float64)
    wh = np.asarray(wh, dtype=np.float64)
    four_m = wx.shape[0]
    if four_m % 4 or wh.shape != (four_m, four_m // 4):
        raise ValueError("weight shapes disagree")
    m = four_m // 4
    if x.shape != (wx.shape[1],) or h.shape != (m,) or c.shape != (m,):
        raise ValueError("input/state shapes disagree")

    gx = wx @ x
    gh = wh @ h
    _observe(observers, "xprod", gx if use_madnorm or bias is None else gx + bias)
    _observe(observers, "hprod", gh)
    if use_madnorm:
        _observe_madnorm(observers, "x", gx)
        _observe_madnorm(observers, "h", gh)
        total = madnorm_ref(gx) + madnorm_ref(gh)
        if bias is not None:
            total = total + bias
    else:
        if bias is not None:
            gx = gx + bias
        total = gx + gh
    _observe(observers, "sum1", total)
    if ws is not None:
        total = total + np.asarray(ws, dtype=np.float64) @ np.asarray(s, dtype=np.float64)
        _observe(observers, "preact", total)

    gi, gf, gj, go = (total[k * m : (k + 1) * m] for k in range(4))
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    fc = sig(gf) * c
    ij = sig(gi) * np.tanh(gj)
    _observe(observers, "fc", fc)
    _observe(observers, "ij", ij)
    c1 = fc + ij
    h1 = sig(go) * np.tanh(c1)
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
    """Float reference over a [T x n] sequence from zero state; returns [T x m].

    context(t, h), for a cell with ws, returns step t's context vector from
    the hidden state h before that step.
    """
    xs = np.asarray(xs, dtype=np.float64)
    m = np.asarray(wx).shape[0] // 4
    h = np.zeros(m)
    c = np.zeros(m)
    out = np.empty((xs.shape[0], m))
    for t in range(xs.shape[0]):
        s = None if context is None else context(t, h)
        h, c = lstm_step_ref(
            xs[t], h, c, wx, wh, bias,
            ws=ws, s=s, use_madnorm=use_madnorm, observers=observers,
        )
        out[t] = h
    return out


class IntLstmCell:
    """Integer-only LSTM cell, compiled once into integer constants and LUTs.

    sites maps tensor-site names to calibrated QuantParams: x, h, c, xprod,
    hprod, sum1, fc, ij, plus preact and s for context-fed cells and the
    mn{x,h}_{mu,xhat,d,y} group for MadNorm cells.  tables maps TABLE_NAMES
    to the PWL tables the cell runs (see freeze_cell).

    Construction derives every rescale from the sites (the xprod and hprod
    multipliers included), compiles the exact GEMV operands and the LUTs,
    and proves the constant overflow bounds, so a step is only GEMVs, adds,
    shifts, saturations and gathers.  The sites are read-only and nothing
    compiled changes afterwards, so one cell may step many sequences on
    many threads.
    """

    def __init__(self, weights: LstmWeights, cfg: CellConfig, sites: Mapping, tables: dict):
        required = {"x", "h", "c", "xprod", "hprod", "sum1", "fc", "ij"}
        if weights.ws is not None:
            required |= {"s", "preact"}
        if cfg.use_madnorm:
            required |= set(_MN_SITES)
        missing = sorted(required - sites.keys())
        if missing:
            raise KeyError(f"uncalibrated-tensor: {', '.join(missing)}")
        self.weights = weights
        self.cfg = cfg
        self.sites = MappingProxyType(dict(sites))
        self.tables = dict(tables)
        self._compile(self.sites["preact" if weights.ws is not None else "sum1"])

    def _compile(self, p_gate: QuantParams) -> None:
        p, w, m = self.sites, self.weights, self.hidden_size
        bias_acc = None
        self._bias_codes = None
        if w.bias is not None:
            if self.cfg.use_madnorm:
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
        # save() writes these two; load() checks the stored pair against them
        self.multipliers = {
            out: requant_multiplier(p[src].scale * wt.params.scale / p[out].scale)
            for out, src, wt in (("xprod", "x", w.wx), ("hprod", "h", w.wh))
        }
        self._xprod = requant_rescale(self.multipliers["xprod"], p["xprod"], self._gemv_x.bound)
        self._hprod = requant_rescale(self.multipliers["hprod"], p["hprod"], self._gemv_h.bound)

        self._norm_x = self._norm_h = None
        pa, pb = p["xprod"], p["hprod"]
        if self.cfg.use_madnorm:
            self._norm_x = MadNormPlan(
                pa, p["mnx_mu"], p["mnx_xhat"], p["mnx_d"], p["mnx_y"], 4 * m
            )
            self._norm_h = MadNormPlan(
                pb, p["mnh_mu"], p["mnh_xhat"], p["mnh_d"], p["mnh_y"], 4 * m
            )
            pa, pb = p["mnx_y"], p["mnh_y"]
        self._z_xbranch, self._z_hbranch = pa.zero_point, pb.zero_point
        self._sum1 = sum_rescale(
            pa.scale, pb.scale, p["sum1"], (max_centered(pa), max_centered(pb))
        )

        self._gemv_s = self._context = None
        if w.ws is not None:
            self._gemv_s = ExactGemv(w.ws, p["s"])
            # the context accumulator joins at scale S_s * S_ws
            self._context = sum_rescale(
                p["sum1"].scale,
                p["s"].scale * w.ws.params.scale,
                p["preact"],
                (max_centered(p["sum1"]), self._gemv_s.bound),
            )

        sig, tanh_gate, tanh_cell = (self.tables[k] for k in TABLE_NAMES)
        p_sig, p_tanh = sig.out_params, tanh_gate.out_params
        self._sig_lut = sig.lut_covering(p_gate)
        self._tanh_gate_lut = tanh_gate.lut_covering(p_gate)
        self._tanh_cell_lut = tanh_cell.lut_covering(p["c"])
        self._z_sig, self._z_tanh = p_sig.zero_point, p_tanh.zero_point
        self._z_tanh_cell = tanh_cell.out_params.zero_point
        self._fc = qmul_rescale(p_sig, p["c"], p["fc"])
        self._ij = qmul_rescale(p_sig, p_tanh, p["ij"])
        self._c = sum_rescale(
            p["fc"].scale, p["ij"].scale, p["c"], (max_centered(p["fc"]), max_centered(p["ij"]))
        )
        self._h = qmul_rescale(p_sig, tanh_cell.out_params, p["h"])

    @property
    def hidden_size(self) -> int:
        return self.weights.hidden_size

    @property
    def input_size(self) -> int:
        return self.weights.input_size

    def initial_state(self) -> LstmState:
        """Zero state: every code sits at its zero-point."""
        ph, pc = self.sites["h"], self.sites["c"]
        m = self.hidden_size
        return LstmState(
            QTensor(np.full(m, ph.zero_point, dtype=ph.dtype), ph),
            QTensor(np.full(m, pc.zero_point, dtype=pc.dtype), pc),
        )

    def _require(self, qt: QTensor, site: str):
        expected = self.sites[site]
        if qt.params is not expected and qt.params != expected:
            raise ValueError(f"uncalibrated-tensor: {site} params differ from calibration")

    def input_branch(self, qxs: QTensor) -> np.ndarray:
        """The h-independent part of the gate sum for [T x n] inputs.

        Wx x + bias, its xprod requantization and (with MadNorm) the
        x-branch normalization, as the x operand of the gate-sum rescale:
        int64 [T x 4m], one row per step.  run() computes it for the whole
        sequence in one matmul; step() takes one row of it.
        """
        self._require(qxs, "x")
        xa = self._xprod(self._gemv_x(qxs.data)) - self.sites["xprod"].zero_point
        if self._norm_x is not None:
            xa = self._norm_x(xa) - self._z_xbranch
        return self._sum1.term(0, xa)

    def step(
        self,
        qx: QTensor | None,
        state: LstmState,
        qs: QTensor | None = None,
        *,
        xb: np.ndarray | None = None,
    ) -> LstmState:
        """One timestep; xb, when given, is this step's input_branch() row
        and stands in for qx (which may then be None)."""
        p = self.sites
        self._require(state.h, "h")
        self._require(state.c, "c")
        if (qs is None) != (self._gemv_s is None):
            raise ValueError("context input does not match cell wiring")
        if xb is None:
            xb = self.input_branch(QTensor(qx.data[None], qx.params))[0]

        hb = self._hprod(self._gemv_h(state.h.data)) - p["hprod"].zero_point
        if self._norm_h is not None:
            hb = self._norm_h(hb) - self._z_hbranch
        gates = self._sum1.finish(xb + self._sum1.term(1, hb))
        if self._bias_codes is not None:
            gates = saturate(gates + self._bias_codes, p["sum1"].qmin, p["sum1"].qmax)
        if self._gemv_s is not None:
            self._require(qs, "s")
            gates = self._context(gates - p["sum1"].zero_point, self._gemv_s(qs.data))

        m = self.hidden_size
        sig = np.subtract(self._sig_lut.take(gates), self._z_sig, dtype=np.int64)
        tj = np.subtract(
            self._tanh_gate_lut.take(gates[2 * m : 3 * m]), self._z_tanh, dtype=np.int64
        )
        c_old = np.subtract(state.c.data, p["c"].zero_point, dtype=np.int64)
        q_fc = self._fc(sig[m : 2 * m] * c_old)
        q_ij = self._ij(sig[:m] * tj)
        q_c1 = self._c(q_fc - p["fc"].zero_point, q_ij - p["ij"].zero_point)
        tc = np.subtract(self._tanh_cell_lut.take(q_c1), self._z_tanh_cell, dtype=np.int64)
        q_h1 = self._h(sig[3 * m :] * tc)
        ph, pc = p["h"], p["c"]
        return LstmState(QTensor(q_h1.astype(ph.dtype), ph), QTensor(q_c1.astype(pc.dtype), pc))

    def run(self, qxs: QTensor, context=None) -> QTensor:
        """Drive the cell over a [T x n] input from zero state; returns all
        hidden states.

        context(t, h), for a context-fed cell, returns step t's context
        codes from the hidden state h before that step.  The input branch
        runs once over the whole sequence; only the h-branch is left inside
        the recurrence.
        """
        if qxs.data.ndim != 2 or qxs.data.shape[0] < 1:
            raise ValueError("expected a [T x n] input sequence with T >= 1")
        xb = self.input_branch(qxs)
        ph = self.sites["h"]
        state = self.initial_state()
        out = np.empty((qxs.data.shape[0], self.hidden_size), dtype=ph.dtype)
        for t in range(qxs.data.shape[0]):
            qs = None if context is None else context(t, state.h)
            state = self.step(None, state, qs, xb=xb[t])
            out[t] = state.h.data
        return QTensor(out, ph)


def _bits_for(site: str, cfg: CellConfig) -> int:
    if site in ("fc", "ij", "c"):
        return cfg.cell_bits
    if site in ("xprod", "hprod", "sum1", "preact"):
        return cfg.preact_bits
    return 8


def freeze_cell(observers: dict, wx, wh, bias, cfg: CellConfig, ws=None) -> IntLstmCell:
    """Freeze observed tensor sites, quantize the weights, build the tables.

    observers maps site names to the Observers of a float run (see
    lstm_step_ref); bias, when given, becomes int32 codes at S_x * S_wx.
    The activation tables are reduced PWL fits over the gate and cell grids.
    """
    sites = {k: o.finalize(_bits_for(k, cfg)) for k, o in observers.items()}
    qwx = quantize_weight(wx)
    qwh = quantize_weight(wh)
    qws = quantize_weight(ws) if ws is not None else None
    bias_i32 = None
    if bias is not None:
        codes = round_half_away(
            np.asarray(bias, dtype=np.float64)
            / (sites["x"].scale * qwx.params.scale)
        )
        if int(np.abs(codes).max(initial=0)) > _INT32_MAX:
            raise FxOverflow("bias codes exceed int32 range")
        bias_i32 = codes.astype(np.int32)
    weights = LstmWeights(qwx, qwh, bias_i32, ws=qws)
    p_gate = sites["preact" if ws is not None else "sum1"]
    p_sig = derive_params(0.0, 1.0, 8)
    p_tanh = derive_params(-1.0, 1.0, 8)
    sigmoid_fn, _ = activation_registry("sigmoid")
    tanh_fn, _ = activation_registry("tanh")
    tables = {
        "sigmoid": reduce(build_full(sigmoid_fn, p_gate, p_sig), cfg.pwl_pieces),
        "tanh_gate": reduce(build_full(tanh_fn, p_gate, p_tanh), cfg.pwl_pieces),
        "tanh_cell": reduce(build_full(tanh_fn, sites["c"], p_tanh), cfg.pwl_pieces),
    }
    return IntLstmCell(weights, cfg, sites, tables)


def calibrate_lstm_cell(
    wx, wh, bias, seqs, cfg: CellConfig, ws=None, s_seqs=None
) -> IntLstmCell:
    """Observe a float run over calibration sequences, then freeze the cell.

    seqs is [N x T x n] (or a list of [T x n] arrays); s_seqs, when the cell
    takes a context input, matches its leading shape.
    """
    seqs = np.asarray(seqs, dtype=np.float64)
    if seqs.ndim == 2:
        seqs = seqs[None]
    observers: dict[str, Observer] = {}
    for idx, xs in enumerate(seqs):
        lstm_run_ref(
            xs, wx, wh, bias,
            ws=ws, context=None if s_seqs is None else lambda t, h: s_seqs[idx][t],
            use_madnorm=cfg.use_madnorm, observers=observers,
        )
    return freeze_cell(observers, wx, wh, bias, cfg, ws=ws)
