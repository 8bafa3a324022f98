"""Model graphs: the one definition of each model kind.

A kind (lstm, bilstm, encdec) fixes which cells a model has, in container
order, the key prefix of each cell in float-model archives and the float
keys it needs; its first cell sets the input width.  Each kind has one
float run and one integer run.  The float run is the float64 oracle;
calibration is the same run with min/max observers attached, followed by
a freeze of every cell and of the attention stage.

encdec is a toy graph that teacher-forces the decoder with the source
sequence: the encoder consumes x_t, the decoder consumes the same x_t plus
the attention context over all encoder states.  The context params are
observed once and shared, so the attention output feeds the decoder
without requantization.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionPlan, attention_ref, freeze_attention
from .quant import dequantize, quantize_tensor
from .rnn import CellConfig, IntLstmCell, freeze_cell, lstm_run_ref

__all__ = [
    "GRAPHS",
    "FloatModel",
    "GraphError",
    "IrnnModel",
    "calibrate",
    "export_float",
    "graph_for",
    "infer_kind",
    "run_batch",
    "run_int",
    "run_ref",
]


class GraphError(ValueError):
    """A model or an input the graph cannot run."""


def _cell_int(cell: IntLstmCell, xs, context=None) -> np.ndarray:
    return cell.run(quantize_tensor(xs, cell.sites["x"]), context).dequantize()


class _Graph:
    """One model kind.

    cells maps each cell name, in container order, to its float-archive key
    prefix; extra_keys are the float keys beyond each cell's wx and wh.
    float_run() takes float64 weights, each cell's MadNorm flag and observer
    dicts by cell name (and "att"), any of which may be absent; freeze()
    turns the observers into (cells, attention plan or None).
    """

    cells: dict
    extra_keys: tuple = ()

    @property
    def input_cell(self) -> str:
        return next(iter(self.cells))

    def required_keys(self) -> tuple:
        keys = tuple(p + k for p in self.cells.values() for k in ("wx", "wh"))
        return keys + self.extra_keys

    def _cell_ref(self, a, name, xs, madnorm, observers, ws=None, context=None) -> np.ndarray:
        p = self.cells[name]
        return lstm_run_ref(
            xs, a[p + "wx"], a[p + "wh"], a.get(p + "bias"), ws=ws, context=context,
            use_madnorm=madnorm[name], observers=observers.get(name),
        )

    def _freeze(self, a, name, observers, cfg, ws=None) -> IntLstmCell:
        p = self.cells[name]
        return freeze_cell(
            observers[name], a[p + "wx"], a[p + "wh"], a.get(p + "bias"), cfg, ws=ws
        )


class _Lstm(_Graph):
    cells = {"main": ""}

    def float_run(self, a, xs, madnorm, observers):
        h = self._cell_ref(a, "main", xs, madnorm, observers)
        return {"main": h, "out": h}

    def int_run(self, model, xs):
        h = _cell_int(model.cells["main"], xs)
        return {"main": h, "out": h}

    def freeze(self, a, observers, cfg):
        return {"main": self._freeze(a, "main", observers, cfg)}, None


class _Bilstm(_Graph):
    """Forward and backward cells; the output concatenates their hidden
    states, with the backward half time-reversed back."""

    cells = {"fwd": "fwd_", "bwd": "bwd_"}

    def float_run(self, a, xs, madnorm, observers):
        hf = self._cell_ref(a, "fwd", xs, madnorm, observers)
        hb = self._cell_ref(a, "bwd", xs[::-1], madnorm, observers)[::-1]
        return {"fwd": hf, "bwd": hb, "out": np.concatenate([hf, hb], axis=1)}

    def int_run(self, model, xs):
        # each direction quantizes its input with its own x params
        fwd, bwd = model.cells["fwd"], model.cells["bwd"]
        if fwd.sites["h"] != bwd.sites["h"]:
            raise GraphError("concat-params-mismatch: fwd/bwd hidden params differ")
        hf = _cell_int(fwd, xs)
        hb = _cell_int(bwd, np.ascontiguousarray(xs[::-1]))[::-1]
        return {"fwd": hf, "bwd": hb, "out": np.concatenate([hf, hb], axis=1)}

    def freeze(self, a, observers, cfg):
        # the two directions share x and h params, so their hidden states
        # concatenate without rescaling
        fwd, bwd = observers["fwd"], observers["bwd"]
        for key in ("x", "h"):
            fwd[key] = bwd[key] = fwd[key].merged(bwd[key])
        return {name: self._freeze(a, name, observers, cfg) for name in self.cells}, None


class _Encdec(_Graph):
    """Encoder, then the decoder, whose context callback attends over the
    encoder states from its hidden state and records the att trace."""

    cells = {"enc": "enc_", "dec": "dec_"}
    extra_keys = ("dec_ws", "att_wq", "att_wk", "att_v")

    def float_run(self, a, xs, madnorm, observers):
        H = self._cell_ref(a, "enc", xs, madnorm, observers)
        ctx = np.empty((xs.shape[0], H.shape[1]))

        def attend(t, h):
            ctx[t], _ = attention_ref(
                h, H, a["att_wq"], a["att_wk"], a["att_v"], observers=observers.get("att")
            )
            return ctx[t]

        out = self._cell_ref(a, "dec", xs, madnorm, observers, a["dec_ws"], attend)
        return {"enc": H, "att": ctx, "dec": out, "out": out}

    def int_run(self, model, xs):
        enc, att = model.cells["enc"], model.attention
        H = enc.run(quantize_tensor(xs, enc.sites["x"]))
        src = att.source(H)
        p_s = att.weights.sites["s"]
        ctx = np.empty((xs.shape[0], H.data.shape[1]), dtype=p_s.dtype)

        def attend(t, h):
            s = att.context(h, src)
            ctx[t] = s.data
            return s

        out = _cell_int(model.cells["dec"], xs, attend)
        return {"enc": H.dequantize(), "att": dequantize(ctx, p_s), "dec": out, "out": out}

    def freeze(self, a, observers, cfg):
        enc = self._freeze(a, "enc", observers, cfg)
        dec = self._freeze(a, "dec", observers, cfg, ws=a["dec_ws"])
        aw, exp_table, tanh_table = freeze_attention(
            observers["att"], a["att_wq"], a["att_wk"], a["att_v"],
            p_hdec=dec.sites["h"], p_henc=enc.sites["h"], pieces=cfg.pwl_pieces,
        )
        # the decoder and the attention stage observed the same context stream
        assert aw.sites["s"] == dec.sites["s"]
        return {"enc": enc, "dec": dec}, AttentionPlan(aw, exp_table, tanh_table)


GRAPHS = {"lstm": _Lstm(), "bilstm": _Bilstm(), "encdec": _Encdec()}


def graph_for(kind: str) -> _Graph:
    """The graph of a model kind; GraphError for an unknown one."""
    if kind not in GRAPHS:
        raise GraphError(f"unknown model kind {kind!r}")
    return GRAPHS[kind]


def infer_kind(keys) -> str:
    """The kind whose input cell's wx key a float archive holds."""
    for kind, g in GRAPHS.items():
        if g.cells[g.input_cell] + "wx" in keys:
            return kind
    raise GraphError("float model archive has no recognizable weight keys")


@dataclass
class IrnnModel:
    """A fully calibrated integer model: named cells plus optional attention."""

    kind: str
    cells: dict
    attention: AttentionPlan | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = tuple(graph_for(self.kind).cells)
        if tuple(sorted(self.cells)) != tuple(sorted(expected)):
            raise GraphError(f"{self.kind} model needs cells {expected}")
        if (self.attention is not None) != (self.kind == "encdec"):
            raise GraphError("attention is present exactly for encdec models")

    @property
    def input_cell(self) -> IntLstmCell:
        """The cell that reads the model input."""
        return self.cells[GRAPHS[self.kind].input_cell]

    def num_params(self) -> int:
        total = 0
        for cell in self.cells.values():
            w = cell.weights
            total += w.wx.data.size + w.wh.data.size
            if w.bias is not None:
                total += w.bias.size
            if w.ws is not None:
                total += w.ws.data.size
        if self.attention is not None:
            aw = self.attention.weights
            total += aw.wq.data.size + aw.wk.data.size + aw.v.data.size
        return total


@dataclass
class FloatModel:
    """Float weights keyed by the archive naming convention.

    lstm: wx, wh[, bias]; bilstm: fwd_/bwd_ prefixes; encdec: enc_/dec_
    prefixes plus dec_ws and att_wq/att_wk/att_v.
    """

    kind: str
    arrays: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        missing = sorted(set(graph_for(self.kind).required_keys()) - set(self.arrays))
        if missing:
            raise GraphError(f"float model missing keys: {', '.join(missing)}")


def _float64(arrays: dict) -> dict:
    return {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}


def calibrate(fm: FloatModel, seqs, cfg: CellConfig) -> IrnnModel:
    """Run the float graph over [N x T x n] sequences with observers
    attached, then freeze the cells and the attention stage."""
    seqs = np.asarray(seqs, dtype=np.float64)
    if seqs.ndim != 3:
        raise GraphError("calibration sequences must be [N x T x n]")
    g = graph_for(fm.kind)
    a = _float64(fm.arrays)
    for name, prefix in g.cells.items():
        n_in = a[prefix + "wx"].shape[1]
        if seqs.shape[2] != n_in:
            raise GraphError(
                f"dimension mismatch: {name} cell expects {n_in} features, "
                f"data has {seqs.shape[2]}"
            )
    observers = {name: {} for name in (*g.cells, "att")}
    madnorm = dict.fromkeys(g.cells, cfg.use_madnorm)
    for xs in seqs:
        g.float_run(a, xs, madnorm, observers)
    cells, attention = g.freeze(a, observers, cfg)
    return IrnnModel(fm.kind, cells, attention=attention)


def run_ref(fm: FloatModel, xs) -> dict:
    """Float64 oracle on one [T x n] sequence; the traces of run_int.

    Each cell normalizes where fm.meta["cells"] says its integer twin does.
    """
    g = graph_for(fm.kind)
    cell_meta = fm.meta.get("cells", {})
    madnorm = {
        name: bool(cell_meta.get(name, {}).get("use_madnorm", False)) for name in g.cells
    }
    return g.float_run(_float64(fm.arrays), np.asarray(xs, dtype=np.float64), madnorm, {})


def run_int(model: IrnnModel, xs) -> dict:
    """Integer inference on one [T x n] sequence; dequantized traces."""
    return GRAPHS[model.kind].int_run(model, xs)


def run_batch(run, model, seqs, threads: int = 1) -> dict:
    """run(model, xs) over [N x T x n] sequences, stacked per trace.

    Sequences are independent, so any thread count gives bitwise-identical
    results.
    """
    seqs = np.asarray(seqs, dtype=np.float64)
    if threads <= 1:
        results = [run(model, xs) for xs in seqs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda xs: run(model, xs), seqs))
    return {k: np.stack([r[k] for r in results]) for k in results[0]}


def export_float(model: IrnnModel) -> FloatModel:
    """Dequantize every weight into a float32 reference model.

    meta["cells"] records each cell's use_madnorm flag; the float
    reference must normalize wherever the integer model does.
    """
    arrays = {}
    cell_meta = {}
    for name, prefix in GRAPHS[model.kind].cells.items():
        cell = model.cells[name]
        cell_meta[name] = {"use_madnorm": cell.use_madnorm}
        w = cell.weights
        arrays[prefix + "wx"] = w.wx.dequantize().astype(np.float32)
        arrays[prefix + "wh"] = w.wh.dequantize().astype(np.float32)
        if w.bias is not None:
            scale = cell.sites["x"].scale * w.wx.params.scale
            arrays[prefix + "bias"] = (w.bias.astype(np.float64) * scale).astype(
                np.float32
            )
        if w.ws is not None:
            arrays[prefix + "ws"] = w.ws.dequantize().astype(np.float32)
    if model.attention is not None:
        aw = model.attention.weights
        for key in ("wq", "wk", "v"):
            arrays["att_" + key] = getattr(aw, key).dequantize().astype(np.float32)
    meta = dict(model.meta)
    meta["cells"] = cell_meta
    return FloatModel(kind=model.kind, arrays=arrays, meta=meta)
