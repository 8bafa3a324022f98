"""Additive (Bahdanau) attention: float reference and integer-only path.

Alignment scores e_i = v' tanh(Wq h_dec + Wk h_enc_i) feed a softmax whose
integer form shifts by the row maximum (exact in the integer domain), maps
the shifted scores through an exp PWL table on [-R, 0], and keeps the
denominator as an unreduced 32-bit sum.  The context vector is a weighted
sum divided once per element by that denominator, so no per-weight division
or reciprocal approximation is involved.

An AttentionPlan compiles the stage once: requantization rescales, exact
GEMV operands, the tables' LUTs and a score table that composes the
query-key sum with the tanh LUT for every pair of 8-bit codes.  The
module-level functions compile a plan (or the part they need) and run it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType

import numpy as np

from .fixedpoint import FxOverflow, Quotient, Rescale, round_half_away, saturate
from .pwl import TANH_GRID, UNIT_GRID, PwlTable, checked_tables, fit_tables
from .quant import (
    ExactGemv,
    Observer,
    QTensor,
    QuantParams,
    _exact_dtype,
    _gemv_rows,
    _observe,
    _read_only,
    derive_params,
    max_centered,
    quantize_weight,
    rescale,
)

__all__ = [
    "EXP_DOMAIN",
    "EXP_GRID",
    "AttentionIntermediates",
    "AttentionPlan",
    "AttentionSource",
    "AttentionWeights",
    "attention_int",
    "attention_intermediates",
    "attention_ref",
    "calibrate_attention",
    "freeze_attention",
    "integer_softmax_weights",
    "project_keys",
]

# exp approximation domain for shifted alignments; scores below -10 clamp
# to exp(-10) ~ 0
EXP_DOMAIN = (-10.0, 0.0)
# the exp table's fixed 16-bit input grid over EXP_DOMAIN
EXP_GRID = derive_params(*EXP_DOMAIN, 16)


@dataclass(frozen=True)
class AttentionWeights:
    """Projection weights plus calibrated params for every tensor site.

    sites: hdec, henc, qproj, kproj, sumqk, e, s (eshift and the table
    output grids are fixed analytically), kept as a read-only mapping.
    In an encoder-decoder model hdec, henc and s are tied to the decoder's
    h, the encoder's h and the decoder's s, and stored once, with the cells.
    The weights' codes are read-only copies.
    """

    wq: QTensor
    wk: QTensor
    v: QTensor
    sites: Mapping

    def __post_init__(self):
        object.__setattr__(self, "sites", MappingProxyType(dict(self.sites)))
        for name in ("wq", "wk", "v"):
            if getattr(self, name).params.bitwidth != 8:
                raise ValueError(f"{name} must be 8-bit")
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        if self.v.data.ndim != 1:
            raise ValueError("v must be a vector")
        m_att = self.v.data.size
        if self.wq.shape[0] != m_att or self.wk.shape[0] != m_att:
            raise ValueError("projection rows must match v's length")


@dataclass
class AttentionIntermediates:
    query_proj: QTensor
    keys_proj: QTensor
    sum_qk: QTensor
    e: QTensor
    exp_e: QTensor
    denom: int
    s: QTensor


def attention_ref(h_dec, H_enc, wq, wk, v, observers: dict | None = None):
    """Float additive attention of decoder states h_dec [..., m_dec] over
    encoder states H_enc [..., T, m_enc]; returns (context s [..., m_enc],
    weights alpha [..., T]).  Rows are independent, and each has the bits
    of a call on it alone."""
    H_enc = np.asarray(H_enc, dtype=np.float64)
    return _attend_ref(h_dec, H_enc, _keys_ref(H_enc, wk, observers), wq, v, observers)


def _keys_ref(H_enc: np.ndarray, wk, observers: dict | None) -> np.ndarray:
    """The float keys H_enc @ wk.T [..., T, m_att] of float64 encoder states
    [..., T, m_enc], observed as kproj; computed once per source."""
    if H_enc.ndim < 2 or H_enc.shape[-2] < 1:
        raise ValueError("encoder states must be [..., T x m_enc] with T >= 1")
    keys = H_enc @ np.asarray(wk, dtype=np.float64).T
    _observe(observers, "kproj", keys)
    return keys


def _attend_ref(h_dec, H_enc, keys, wq, v, observers: dict | None, work=None):
    """attention_ref's step against a source's keys (see _keys_ref).  The
    query is one gemv per row and the softmax reduces each row's last axis.
    The query-key sums and then their tanh are formed in work, a float64
    array of the keys' shape that a caller stepping one source many times
    hands every step; None makes one for this call."""
    qp = _gemv_rows(np.asarray(wq, dtype=np.float64), np.asarray(h_dec, dtype=np.float64))
    sums = np.add(qp[..., None, :], keys, out=work)
    _observe(observers, "qproj", qp)
    _observe(observers, "sumqk", sums)
    e = np.tanh(sums, out=sums) @ np.asarray(v, dtype=np.float64)
    w = np.exp(e - e.max(axis=-1, keepdims=True))
    alpha = w / w.sum(axis=-1, keepdims=True)
    s = (alpha[..., None, :] @ H_enc)[..., 0, :]
    _observe(observers, "e", e)
    _observe(observers, "s", s)
    return s, alpha


def project_keys(q_Henc: QTensor, w: AttentionWeights) -> QTensor:
    """Encoder-side projection Wk @ h_enc_i for all i, as [m_att x T] codes.

    AttentionPlan.source computes the same keys, centered, once per source.
    """
    if q_Henc.params != w.sites["henc"]:
        raise ValueError("uncalibrated-tensor: henc params differ from calibration")
    gemv, p_k = ExactGemv(w.wk, q_Henc.params), w.sites["kproj"]
    return QTensor(gemv.rescale(p_k)(gemv(q_Henc.data)).T.astype(p_k.dtype), p_k)


def _exp_stage(p_e: QuantParams, exp_table: PwlTable) -> Rescale:
    """The rescale of max-shifted alignment codes, which lie in [-qmax_e,
    0], onto the exp table's input grid, unsaturated for the clipped gather.
    Every softmax sum holds the exp code of the shifted maximum, at shifted
    code 0; ValueError unless that code is at least 1, which proves every
    denominator positive."""
    p_in = exp_table.in_params
    to_table = rescale(p_in, (p_e.scale / p_in.scale, p_e.qmax)).unsaturated()
    if exp_table.lut.take(to_table(0), mode="clip") < 1:
        raise ValueError("softmax-denominator: the exp table maps the shifted maximum to 0")
    return to_table


def _softmax(q_e, to_table: Rescale, exp_lut: np.ndarray):
    """Max-shifted exp weights and their sum, positive by _exp_stage;
    exp_lut covers the table grid, so the clipped gather saturates the
    unsaturated to_table."""
    q_e = np.asarray(q_e)
    shifted = np.subtract(q_e, np.maximum.reduce(q_e, axis=None), dtype=np.int64)
    q_exp = exp_lut.take(to_table(shifted), mode="clip")
    return q_exp, int(np.add.reduce(q_exp, axis=None, dtype=np.int64))


def integer_softmax_weights(q_e, p_e: QuantParams, exp_table: PwlTable):
    """Shift alignments by their max and exponentiate; returns (q_exp, denom).

    The shift happens on integer codes, so any constant offset of q_e
    cancels exactly.  The maximal element takes the exp code at shifted
    code 0, so the denominator is at least that code, proven to be at
    least 1 for the table given (ValueError otherwise).
    """
    return _softmax(q_e, _exp_stage(p_e, exp_table), exp_table.lut)


def _degrade_denominator(denom: int, bits: int, t_enc: int, exp_bits: int) -> int:
    """Affine-requantize a recorded denominator to `bits` over [0, T * exp_max].

    A diagnostic applied to AttentionIntermediates.denom: it models storing
    the softmax denominator at a narrow bitwidth instead of the full 32-bit
    sum.  The grid step is proportional to T, so concentrated attention
    (small denominators) loses the most.
    """
    step = t_enc * (2**exp_bits - 1) / (2**bits - 1)
    code = min(2**bits - 1, round_half_away(denom / step))
    return max(1, round_half_away(code * step))


@dataclass(frozen=True)
class AttentionSource:
    """The per-source terms of an attention stage (AttentionPlan.source).

    keys is the centered key projection K - Z_k, int64 [T x m_att];
    offsets holds, for key i and column j, the flat index j * 256 + K of its
    code in the [m_att x 256] score-table rows that a step gathers for its
    query, int64 [T x m_att]; henc is the centered encoder states
    [T x m_enc], the context matmul's operand, float32 when source() proves
    that product below 2^24, else float64.
    """

    keys: np.ndarray
    offsets: np.ndarray
    henc: np.ndarray


class AttentionPlan:
    """One attention stage compiled into integer constants, GEMV operands and LUTs.

    Built once from the weights and the "exp" and "tanh" tables, which it
    checks and holds as a cell does (pwl.checked_tables); nothing changes
    after construction, so one plan serves any number of threads.
    source() computes the per-source terms once per encoder sequence,
    context() runs one decoder step on codes against them and
    intermediates() runs the same step with every intermediate recorded.
    Both project the decoder codes with the plan's own query GEMV and
    rescale (_gemv_q, _qproj), then run the step kernel (_step), which
    takes centered query codes.  An encoder-decoder model stacks those two
    under the decoder's h projection instead (IntLstmCell.with_query) and
    feeds the kernel the query codes that projection carries.  The qproj
    and kproj grids must be 8-bit, so that the score table holds 2^16
    codes; ValueError otherwise, before any table is built.
    """

    weights = property(attrgetter("_weights"))
    tables = property(attrgetter("_tables"))

    def __init__(self, weights: AttentionWeights, tables: Mapping):
        w, sites = weights, weights.sites
        self._weights, self._tables = weights, checked_tables(tables, self.table_grids(sites))
        p_q, p_k, p_sum = sites["qproj"], sites["kproj"], sites["sumqk"]
        if p_q.bitwidth != 8 or p_k.bitwidth != 8:
            raise ValueError("score-table: the qproj and kproj grids must be 8-bit")
        self._gemv_k = ExactGemv(w.wk, sites["henc"])
        self._gemv_q = ExactGemv(w.wq, sites["hdec"])
        # kproj, qproj, e and the shifted e feed only centered operands or
        # clipped gathers, so they come out centered or unsaturated
        self._kproj = self._gemv_k.rescale(p_k).centered()
        self._qproj = self._gemv_q.rescale(p_q).centered()
        self._sumqk = rescale(p_sum, (p_q.scale / p_sum.scale, max_centered(p_q)),
                              (p_k.scale / p_sum.scale, max_centered(p_k))).unsaturated()
        # the tanh code of every (query code Q, key code K) pair, at row
        # (Q - Z_q) mod 256 and column K, so a step's centered query codes
        # index its rows directly: the sumqk rescale of the broadcast query
        # column and key row, then the clipped tanh gather, whose LUT spans
        # the sumqk grid, so a clipped index is a saturated code
        codes = np.arange(256, dtype=np.int64)
        q_rows = (codes + p_q.zero_point) % 256 - p_q.zero_point
        q_sum = self._sumqk(q_rows[:, None], codes - p_k.zero_point)
        self._score = self.tables["tanh"].lut.take(q_sum, mode="clip")
        self._score.flags.writeable = False
        self._gemv_e = ExactGemv(w.v, TANH_GRID)
        self._e = self._gemv_e.rescale(sites["e"]).centered()
        self._to_exp = _exp_stage(sites["e"], self.tables["exp"])
        self._exp_lut = self.tables["exp"].lut
        p_s = sites["s"]
        self._ctx = Quotient(sites["henc"].scale / p_s.scale, p_s.zero_point, p_s.qmin, p_s.qmax)

    @staticmethod
    def table_grids(sites: Mapping) -> dict:
        """(input grid, output grid) of the exp and tanh tables: exp maps the
        fixed EXP_GRID to [0, 1], so zero is output code 0, and tanh reads
        the sumqk site."""
        return {"exp": (EXP_GRID, UNIT_GRID), "tanh": (sites["sumqk"], TANH_GRID)}

    def source(self, q_Henc: QTensor) -> AttentionSource:
        """The per-source terms for [T x m_enc] encoder states, computed once
        for every decoder step against them.

        Proves, for T states, that the weighted sum is exact in float64,
        and in float32 below 2^24, and that the context Quotient fits int64
        over it and every denominator up to T times the top exp code;
        FxOverflow otherwise, before the keys are projected or any step runs.
        """
        sites = self.weights.sites
        p_h = sites["henc"]
        if q_Henc.params != p_h:
            raise ValueError("uncalibrated-tensor: henc params differ from calibration")
        T = q_Henc.data.shape[0]
        num_bound = T * 2 ** (UNIT_GRID.bitwidth + p_h.bitwidth)
        dtype = _exact_dtype(num_bound, "context accumulator")
        if not self._ctx.fits(num_bound, T * UNIT_GRID.qmax):
            raise FxOverflow("context accumulator would overflow int64")
        keys = self._kproj(self._gemv_k(q_Henc.data))
        offsets = keys + (np.arange(keys.shape[1]) * 256 + sites["kproj"].zero_point)
        henc = np.subtract(q_Henc.data, p_h.zero_point, dtype=dtype)
        return AttentionSource(keys, offsets, henc)

    def context(self, hdec: np.ndarray, src: AttentionSource) -> np.ndarray:
        """One decoder step's context codes (s grid) from decoder codes (hdec
        grid) against a source's terms, unchecked: the tie table proves both."""
        return self._step(self._qproj(self._gemv_q(hdec)), src)

    def intermediates(self, q_hdec: QTensor, q_Henc: QTensor) -> AttentionIntermediates:
        """Integer attention with every intermediate exposed."""
        sites = self.weights.sites
        if q_hdec.params != sites["hdec"]:
            raise ValueError("uncalibrated-tensor: hdec params differ from calibration")
        src, p_k = self.source(q_Henc), sites["kproj"]
        rec = {"keys_proj": QTensor((src.keys.T + p_k.zero_point).astype(p_k.dtype), p_k)}
        q_qp = self._qproj(self._gemv_q(q_hdec.data))
        rec["s"] = QTensor(self._step(q_qp, src, rec), sites["s"])
        return AttentionIntermediates(**rec)

    def _step(self, q_qp, src, rec=None):
        """The step kernel on centered query codes q_qp (qproj grid minus
        Z_q), from _qproj(_gemv_q(hdec)) or from a decoder whose h
        projection carries the query (IntLstmCell.with_query); with rec a
        dict, it records the intermediates.  The query codes gather their
        score-table rows (a wrapping take, since row r holds the centered
        code r mod 256), and each score is one gather from those, at the
        key's offset."""
        sites = self.weights.sites
        p_s = sites["s"]

        rows = self._score.take(q_qp, axis=0, mode="wrap")
        q_e = self._e(self._gemv_e(rows.take(src.offsets))[:, 0])
        q_exp, denom = _softmax(q_e, self._to_exp, self._exp_lut)

        # weighted context: one rounded division per output element; every
        # partial sum is an integer below 2^53, and below 2^24 where henc is
        # float32 (source() proves it), so the product is exact
        num = (q_exp.astype(src.henc.dtype) @ src.henc).astype(np.int64)
        q_s = self._ctx(num, denom).astype(p_s.dtype)

        if rec is not None:
            p_q, p_sum, p_e = sites["qproj"], sites["sumqk"], sites["e"]
            rec["query_proj"] = QTensor((q_qp + p_q.zero_point).astype(p_q.dtype), p_q)
            sat = saturate(self._sumqk(q_qp, src.keys).T.copy(), p_sum.qmin, p_sum.qmax)
            rec["sum_qk"] = QTensor(sat.astype(p_sum.dtype), p_sum)
            rec["e"] = QTensor((q_e + p_e.zero_point).astype(p_e.dtype), p_e)
            rec["exp_e"] = QTensor(q_exp, self.tables["exp"].out_params)
            rec["denom"] = denom
        return q_s


def attention_intermediates(
    q_hdec: QTensor,
    q_Henc: QTensor,
    w: AttentionWeights,
    exp_table: PwlTable,
    tanh_table: PwlTable,
) -> AttentionIntermediates:
    """Integer attention with every intermediate exposed (see AttentionPlan)."""
    plan = AttentionPlan(w, {"exp": exp_table, "tanh": tanh_table})
    return plan.intermediates(q_hdec, q_Henc)


def attention_int(
    q_hdec: QTensor,
    q_Henc: QTensor,
    w: AttentionWeights,
    exp_table: PwlTable,
    tanh_table: PwlTable,
):
    """Integer attention; returns (context QTensor, exp-weight QTensor)."""
    inter = attention_intermediates(q_hdec, q_Henc, w, exp_table, tanh_table)
    return inter.s, inter.exp_e


def freeze_attention(observers: dict, wq, wk, v, pieces: int = 32) -> AttentionPlan:
    """Freeze observed attention sites, quantize the weights, fit the tables
    and compile the plan, as rnn.freeze_cell does a cell.

    observers holds attention_ref's sites (qproj, kproj, sumqk, e, s) and
    those of the hidden states the stage reads (hdec, henc).
    """
    sixteen = {"sumqk", "e"}
    sites = {k: o.finalize(16 if k in sixteen else 8) for k, o in observers.items()}
    weights = AttentionWeights(
        quantize_weight(wq), quantize_weight(wk), quantize_weight(v), sites
    )
    return AttentionPlan(weights, fit_tables(AttentionPlan.table_grids(sites), pieces))


def calibrate_attention(wq, wk, v, hdec_samples, henc_samples, pieces: int = 32):
    """Observe one float attention pass over all samples, then freeze (see
    freeze_attention).

    hdec_samples is [N x m_dec]; henc_samples is [N x T x m_enc]; the
    hidden-state params are derived from them.  Returns (AttentionWeights,
    exp_table, tanh_table), the frozen plan's weights and tables.
    """
    hdec_samples = np.asarray(hdec_samples, dtype=np.float64)
    henc_samples = np.asarray(henc_samples, dtype=np.float64)
    observers = {
        "hdec": Observer().observe(hdec_samples),
        "henc": Observer().observe(henc_samples),
    }
    attention_ref(hdec_samples, henc_samples, wq, wk, v, observers=observers)
    plan = freeze_attention(observers, wq, wk, v, pieces)
    return plan.weights, plan.tables["exp"], plan.tables["tanh"]
