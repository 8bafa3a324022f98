"""Additive (Bahdanau) attention: float reference and integer-only path.

Alignment scores e_i = v' tanh(Wq h_dec + Wk h_enc_i) feed a softmax whose
integer form shifts by the row maximum (exact in the integer domain), maps
the shifted scores through an exp PWL table on [-R, 0], and keeps the
denominator as an unreduced 32-bit sum.  The context vector is a weighted
sum divided once per element by that denominator, so no per-weight division
or reciprocal approximation is involved.

An AttentionPlan compiles the stage once: requantization rescales, exact
GEMV operands and the tables' LUTs.  The module-level functions compile a
plan (or the part they need) and run it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .fixedpoint import (
    REQUANT_FRACTION_BITS,
    FxOverflow,
    Rescale,
    requant_multiplier,
    round_half_away,
    rounded_div,
    saturate,
    to_fixed,
)
from .pwl import PwlTable, activation_registry, build_full, reduce
from .quant import (
    ExactGemv,
    Observer,
    QTensor,
    QuantParams,
    derive_params,
    max_centered,
    quantize_weight,
    requant_rescale,
    sum_rescale,
)

__all__ = [
    "EXP_DOMAIN",
    "AttentionIntermediates",
    "AttentionPlan",
    "AttentionWeights",
    "attach_context",
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

_INT64_MAX = 2**63 - 1
# float64 represents every integer of smaller magnitude exactly
_F64_EXACT = 2**53


@dataclass
class AttentionWeights:
    """Projection weights plus calibrated params for every tensor site.

    sites: hdec, henc, qproj, kproj, sumqk, e, s (eshift and the table
    output grids are fixed analytically), kept as a read-only mapping.
    """

    wq: QTensor
    wk: QTensor
    v: QTensor
    sites: Mapping

    def __post_init__(self):
        self.sites = MappingProxyType(dict(self.sites))
        for name, w in (("wq", self.wq), ("wk", self.wk), ("v", self.v)):
            if w.params.bitwidth != 8:
                raise ValueError(f"{name} must be 8-bit")
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
    """Float additive attention; returns (context s, weights alpha)."""
    h_dec = np.asarray(h_dec, dtype=np.float64)
    H_enc = np.asarray(H_enc, dtype=np.float64)
    if H_enc.ndim != 2 or H_enc.shape[0] < 1:
        raise ValueError("encoder states must be [T x m_enc] with T >= 1")
    qp = np.asarray(wq, dtype=np.float64) @ h_dec
    K = H_enc @ np.asarray(wk, dtype=np.float64).T
    sums = qp[None, :] + K
    e = np.tanh(sums) @ np.asarray(v, dtype=np.float64)
    shifted = e - e.max()
    w = np.exp(shifted)
    alpha = w / w.sum()
    s = alpha @ H_enc
    if observers is not None:
        for key, val in (
            ("qproj", qp), ("kproj", K), ("sumqk", sums), ("e", e), ("s", s),
        ):
            observers.setdefault(key, Observer()).observe(val)
    return s, alpha


def _key_projection(w: AttentionWeights) -> tuple[ExactGemv, Rescale]:
    sites = w.sites
    gemv = ExactGemv(w.wk, sites["henc"])
    fx = requant_multiplier(sites["henc"].scale * w.wk.params.scale / sites["kproj"].scale)
    return gemv, requant_rescale(fx, sites["kproj"], gemv.bound)


def _project(q_Henc: QTensor, sites: dict, gemv: ExactGemv, rescale: Rescale):
    p_k = sites["kproj"]
    if q_Henc.params != sites["henc"]:
        raise ValueError("uncalibrated-tensor: henc params differ from calibration")
    return QTensor(rescale(gemv(q_Henc.data)).T.astype(p_k.dtype), p_k)


def project_keys(q_Henc: QTensor, w: AttentionWeights) -> QTensor:
    """Encoder-side projection Wk @ h_enc_i for all i, as [m_att x T] codes.

    Depends only on the encoder states, so callers decoding many steps
    against one source sequence compute it once.
    """
    return _project(q_Henc, w.sites, *_key_projection(w))


def _softmax_rescale(p_e: QuantParams, p_in: QuantParams, bound=None) -> Rescale:
    """Rescale of max-shifted alignment codes onto the exp table's input grid."""
    return requant_rescale(requant_multiplier(p_e.scale / p_in.scale), p_in, bound)


def _softmax(q_e, to_table: Rescale, exp_lut: np.ndarray):
    q_e = np.asarray(q_e)
    shifted = q_e.astype(np.int64) - int(q_e.max())
    q_exp = exp_lut.take(to_table(shifted))
    denom = int(q_exp.sum(dtype=np.int64))
    if denom <= 0:
        raise AssertionError("softmax denominator must be positive")
    return q_exp, denom


def integer_softmax_weights(q_e, p_e: QuantParams, exp_table: PwlTable):
    """Shift alignments by their max and exponentiate; returns (q_exp, denom).

    The shift happens on integer codes, so any constant offset of q_e
    cancels exactly.  The maximal element lands on the table's top knot,
    whose value quantizes to the top output code; the denominator is
    therefore at least 2^b - 1 > 0.
    """
    return _softmax(q_e, _softmax_rescale(p_e, exp_table.in_params), exp_table.lut)


def _degrade_denominator(denom: int, bits: int, t_enc: int, exp_bits: int) -> int:
    """Affine-requantize the denominator to `bits` over [0, T * exp_max].

    Diagnostic only: models storing the softmax denominator at a narrow
    bitwidth instead of the full 32-bit sum.  The grid step is proportional
    to T, so concentrated attention (small denominators) loses the most.
    """
    step = t_enc * (2**exp_bits - 1) / (2**bits - 1)
    code = min(2**bits - 1, round_half_away(denom / step))
    return max(1, round_half_away(code * step))


class AttentionPlan:
    """One attention stage compiled into integer constants, GEMV operands and LUTs.

    Built once from the weights and the two tables, which it keeps under
    those names; nothing changes after construction, so one plan serves any
    number of threads.  keys() is the per-source key projection and
    intermediates() one decoder step.
    """

    def __init__(self, weights: AttentionWeights, exp_table: PwlTable, tanh_table: PwlTable):
        w, sites = weights, weights.sites
        if exp_table.out_params.zero_point != 0:
            raise ValueError("exp output grid must put zero at code 0")
        self.weights, self.exp_table, self.tanh_table = weights, exp_table, tanh_table
        self._keys = _key_projection(w)
        p_q, p_k = sites["qproj"], sites["kproj"]
        self._gemv_q = ExactGemv(w.wq, sites["hdec"])
        self._qproj = requant_rescale(
            requant_multiplier(sites["hdec"].scale * w.wq.params.scale / p_q.scale),
            p_q,
            self._gemv_q.bound,
        )
        self._sumqk = sum_rescale(
            p_q.scale, p_k.scale, sites["sumqk"], (max_centered(p_q), max_centered(p_k))
        )
        p_tanh = tanh_table.out_params
        self._gemv_e = ExactGemv(w.v, p_tanh)
        self._e = requant_rescale(
            requant_multiplier(w.v.params.scale * p_tanh.scale / sites["e"].scale),
            sites["e"],
            self._gemv_e.bound,
        )
        self._tanh_lut = tanh_table.lut_covering(sites["sumqk"])
        self._to_exp = _softmax_rescale(sites["e"], exp_table.in_params, sites["e"].qmax)
        self._ctx_raw = to_fixed(
            sites["henc"].scale / sites["s"].scale, REQUANT_FRACTION_BITS
        ).raw

    def keys(self, q_Henc: QTensor) -> QTensor:
        """project_keys with the compiled projection."""
        return _project(q_Henc, self.weights.sites, *self._keys)

    def intermediates(
        self,
        q_hdec: QTensor,
        q_Henc: QTensor,
        keys: QTensor | None = None,
        denom_bits: int | None = None,
    ) -> AttentionIntermediates:
        """Integer attention with every intermediate exposed.

        denom_bits degrades the 32-bit softmax denominator to the given
        width before the final division; diagnostic only.
        """
        sites = self.weights.sites
        if q_hdec.params != sites["hdec"]:
            raise ValueError("uncalibrated-tensor: hdec params differ from calibration")
        if keys is None:
            keys = self.keys(q_Henc)
        T = q_Henc.data.shape[0]
        p_q, p_k, p_sum, p_e = sites["qproj"], sites["kproj"], sites["sumqk"], sites["e"]

        q_qp = self._qproj(self._gemv_q(q_hdec.data))
        q_sum = self._sumqk(
            (q_qp - p_q.zero_point)[:, None],
            np.subtract(keys.data, p_k.zero_point, dtype=np.int64),
        )
        q_tanh = self._tanh_lut.take(q_sum)
        q_e = self._e(self._gemv_e(q_tanh.T)[:, 0])
        q_exp, denom = _softmax(q_e, self._to_exp, self.exp_table.lut)

        exp_bits = self.exp_table.out_params.bitwidth
        div_denom = denom
        if denom_bits:
            div_denom = _degrade_denominator(denom, denom_bits, T, exp_bits)

        # weighted context: one rounded division per output element
        p_h, p_s = sites["henc"], sites["s"]
        num_bound = T * 2 ** (exp_bits + p_h.bitwidth)
        if abs(self._ctx_raw) * num_bound > _INT64_MAX or num_bound >= _F64_EXACT:
            raise FxOverflow("context accumulator would overflow int64")
        # every partial sum is an integer below 2^53, so float64 is exact
        num = q_exp.astype(np.float64) @ np.subtract(
            q_Henc.data, p_h.zero_point, dtype=np.float64
        )
        q_s = rounded_div(self._ctx_raw * num.astype(np.int64), div_denom << REQUANT_FRACTION_BITS)
        q_s = saturate(q_s + p_s.zero_point, p_s.qmin, p_s.qmax).astype(p_s.dtype)

        return AttentionIntermediates(
            query_proj=QTensor(q_qp.astype(p_q.dtype), p_q),
            keys_proj=keys,
            sum_qk=QTensor(q_sum.astype(p_sum.dtype), p_sum),
            e=QTensor(q_e.astype(p_e.dtype), p_e),
            exp_e=QTensor(q_exp, self.exp_table.out_params),
            denom=denom,
            s=QTensor(q_s, p_s),
        )


def attention_intermediates(
    q_hdec: QTensor,
    q_Henc: QTensor,
    w: AttentionWeights,
    exp_table: PwlTable,
    tanh_table: PwlTable,
    keys: QTensor | None = None,
    denom_bits: int | None = None,
) -> AttentionIntermediates:
    """Integer attention with every intermediate exposed (see AttentionPlan).

    denom_bits degrades the 32-bit softmax denominator to the given width
    before the final division; diagnostic only.
    """
    plan = AttentionPlan(w, exp_table, tanh_table)
    return plan.intermediates(q_hdec, q_Henc, keys=keys, denom_bits=denom_bits)


def attention_int(
    q_hdec: QTensor,
    q_Henc: QTensor,
    w: AttentionWeights,
    exp_table: PwlTable,
    tanh_table: PwlTable,
    keys: QTensor | None = None,
    denom_bits: int | None = None,
):
    """Integer attention; returns (context QTensor, exp-weight QTensor)."""
    inter = attention_intermediates(
        q_hdec, q_Henc, w, exp_table, tanh_table, keys=keys, denom_bits=denom_bits
    )
    return inter.s, inter.exp_e


def attach_context(
    gates: QTensor, ws: QTensor, s: QTensor, p_out: QuantParams | None = None
) -> QTensor:
    """Add the context projection Ws @ s into gate pre-activations.

    Both the rescaled gates and the projection accumulator share one wide
    fixed-point accumulator, so the sum rounds once.  With p_out omitted the
    result stays on the gate grid and a zero projection passes codes
    through bit-exactly.  An IntLstmCell fed a context compiles the same
    two-term rescale once.
    """
    if ws.shape[0] != gates.data.shape[-1] and ws.shape[0] != gates.data.shape[0]:
        raise ValueError("projection rows disagree with gate width")
    if ws.shape[1] != s.data.shape[0]:
        raise ValueError("projection columns disagree with context width")
    p_g = gates.params
    p_out = p_g if p_out is None else p_out
    gemv = ExactGemv(ws, s.params)
    op = sum_rescale(
        p_g.scale, s.params.scale * ws.params.scale, p_out, (max_centered(p_g), gemv.bound)
    )
    out = op(gates.centered(), gemv(s.data))
    return QTensor(out.astype(p_out.dtype), p_out)


def freeze_attention(
    observers: dict, wq, wk, v, p_hdec: QuantParams, p_henc: QuantParams, pieces: int = 32
):
    """Freeze observed attention sites; quantize the weights; build the tables.

    observers holds attention_ref's sites (qproj, kproj, sumqk, e, s);
    p_hdec and p_henc are the params of the hidden states the stage reads.
    Returns (AttentionWeights, exp_table, tanh_table).
    """
    sixteen = {"sumqk", "e"}
    sites = {k: o.finalize(16 if k in sixteen else 8) for k, o in observers.items()}
    sites["hdec"], sites["henc"] = p_hdec, p_henc
    weights = AttentionWeights(
        quantize_weight(wq), quantize_weight(wk), quantize_weight(v), sites
    )
    p_eshift = derive_params(EXP_DOMAIN[0], EXP_DOMAIN[1], 16)
    p_expout = derive_params(0.0, 1.0, 8)
    p_tanhout = derive_params(-1.0, 1.0, 8)
    exp_fn, _ = activation_registry("exp")
    tanh_fn, _ = activation_registry("tanh")
    exp_table = reduce(build_full(exp_fn, p_eshift, p_expout), pieces)
    tanh_table = reduce(build_full(tanh_fn, sites["sumqk"], p_tanhout), pieces)
    return weights, exp_table, tanh_table


def calibrate_attention(
    wq,
    wk,
    v,
    hdec_samples,
    henc_samples,
    pieces: int = 32,
    p_hdec: QuantParams | None = None,
    p_henc: QuantParams | None = None,
):
    """Observe float attention over samples, then freeze (see freeze_attention).

    hdec_samples is [N x m_dec]; henc_samples is [N x T x m_enc].  Existing
    hidden-state params may be passed in; otherwise they are derived from
    the samples.  Returns (AttentionWeights, exp_table, tanh_table).
    """
    hdec_samples = np.asarray(hdec_samples, dtype=np.float64)
    henc_samples = np.asarray(henc_samples, dtype=np.float64)
    observers: dict[str, Observer] = {}
    for h_dec, H_enc in zip(hdec_samples, henc_samples):
        attention_ref(h_dec, H_enc, wq, wk, v, observers=observers)
    if p_hdec is None:
        p_hdec = Observer().observe(hdec_samples.ravel()).finalize(8)
    if p_henc is None:
        p_henc = Observer().observe(henc_samples.ravel()).finalize(8)
    return freeze_attention(observers, wq, wk, v, p_hdec, p_henc, pieces)
