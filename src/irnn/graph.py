"""Model graphs: the one definition of each model kind.

A kind (lstm, bilstm, encdec) fixes which cells a model has, in container
order, the key prefix of each cell in float-model archives and the float
keys it needs; its first cell sets the input width.  Each kind has one
float run and one integer run.  The float run is the float64 oracle;
calibration is the same run with min/max observers attached, followed by
a freeze of every cell and of the attention stage.

A kind also lists its ties: a site of one stage (a cell, or "att") that
holds another stage's grid, because the same codes pass between them
unrescaled.  The freeze gives the two one observer, an IrnnModel refuses
them differing, and the container stores the grid once.

encdec is a toy graph that teacher-forces the decoder with the source
sequence: the encoder consumes x_t, the decoder consumes the same x_t plus
the attention context over all encoder states.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionPlan, _attend_ref, _keys_ref, freeze_attention
from .quant import QTensor, dequantize, quantize_tensor
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


class _Graph:
    """One model kind.

    cells maps each cell name, in container order, to its float-archive key
    prefix; extra_keys are the float keys beyond each cell's wx and wh;
    ties maps each tied (stage, site) to the (stage, site) whose grid it
    takes.  Every cell reads the model input.  float_run() takes float64
    weights, inputs [..., T, n], each cell's MadNorm flag and observer dicts
    by cell name (and "att"), any of which may be absent; it steps every
    sequence together, each with the bits of a run on it alone.  freeze()
    turns the observers into (cells, attention plan or None).  int_run()
    takes one sequence's codes on the input cell's x grid.
    """

    cells: dict
    extra_keys: tuple = ()
    ties: dict = {}

    @property
    def input_cell(self) -> str:
        return next(iter(self.cells))

    def required_keys(self) -> tuple:
        keys = tuple(p + k for p in self.cells.values() for k in ("wx", "wh"))
        return keys + self.extra_keys

    def layout(self, shapes: dict) -> dict:
        """The shape of each float array, from the shapes of the required
        ones: a cell's wh is [4m x m], its wx [4m x n] and its bias [4m],
        with m the columns of its wh and n those of the input cell's wx,
        since every cell reads the model input (calibrate checks n)."""
        n = _last(shapes[self.cells[self.input_cell] + "wx"])
        out = {}
        for p in self.cells.values():
            m = _last(shapes[p + "wh"])
            out.update({p + "wh": (4 * m, m), p + "wx": (4 * m, n), p + "bias": (4 * m,)})
        return out

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

    def _tie(self, observers) -> None:
        """Give each tied site and its source one observer, which saw both."""
        for (stage, site), (src, src_site) in self.ties.items():
            obs = observers[src][src_site]
            if site in observers[stage]:
                obs = obs.merged(observers[stage][site])
            observers[src][src_site] = observers[stage][site] = obs

    def freeze(self, a, observers, cfg):
        self._tie(observers)
        return {name: self._freeze(a, name, observers, cfg) for name in self.cells}, None


def _last(shape: tuple) -> int:
    return shape[-1] if shape else 0


class _Lstm(_Graph):
    cells = {"main": ""}

    def float_run(self, a, xs, madnorm, observers):
        h = self._cell_ref(a, "main", xs, madnorm, observers)
        return {"main": h, "out": h}

    def int_run(self, model, qxs):
        h = model.cells["main"].run(qxs).dequantize()
        return {"main": h, "out": h}


class _Bilstm(_Graph):
    """Forward and backward cells; the output concatenates their hidden
    states, with the backward half time-reversed back."""

    cells = {"fwd": "fwd_", "bwd": "bwd_"}
    ties = {("bwd", "x"): ("fwd", "x"), ("bwd", "h"): ("fwd", "h")}

    def float_run(self, a, xs, madnorm, observers):
        hf = self._cell_ref(a, "fwd", xs, madnorm, observers)
        hb = self._cell_ref(a, "bwd", xs[..., ::-1, :], madnorm, observers)[..., ::-1, :]
        return {"fwd": hf, "bwd": hb, "out": np.concatenate([hf, hb], axis=-1)}

    def int_run(self, model, qxs):
        hf = model.cells["fwd"].run(qxs).dequantize()
        hb = model.cells["bwd"].run(QTensor(qxs.data[::-1], qxs.params)).dequantize()[::-1]
        return {"fwd": hf, "bwd": hb, "out": np.concatenate([hf, hb], axis=1)}


class _Encdec(_Graph):
    """Encoder, then the decoder, whose context callback attends over the
    encoder states from its hidden state and records the att trace."""

    cells = {"enc": "enc_", "dec": "dec_"}
    extra_keys = ("dec_ws", "att_wq", "att_wk", "att_v")
    ties = {
        ("dec", "x"): ("enc", "x"),
        ("att", "hdec"): ("dec", "h"),
        ("att", "henc"): ("enc", "h"),
        ("att", "s"): ("dec", "s"),
    }

    def layout(self, shapes):
        """The cells' layout, plus dec_ws [4m_dec x m_enc], att_wq [m_att x
        m_dec], att_wk [m_att x m_enc] and att_v [m_att]."""
        m_enc, m_dec, m_att = (_last(shapes[k]) for k in ("enc_wh", "dec_wh", "att_v"))
        return super().layout(shapes) | {"dec_ws": (4 * m_dec, m_enc), "att_wq": (m_att, m_dec),
                                         "att_wk": (m_att, m_enc), "att_v": (m_att,)}

    def float_run(self, a, xs, madnorm, observers):
        H = self._cell_ref(a, "enc", xs, madnorm, observers)
        # the keys are projected once per source, as AttentionPlan.source does
        keys = _keys_ref(H, a["att_wk"], observers.get("att"))
        ctx = np.empty(H.shape)

        def attend(t, h):
            ctx[..., t, :], _ = _attend_ref(
                h, H, keys, a["att_wq"], a["att_v"], observers.get("att")
            )
            return ctx[..., t, :]

        out = self._cell_ref(a, "dec", xs, madnorm, observers, a["dec_ws"], attend)
        return {"enc": H, "att": ctx, "dec": out, "out": out}

    def int_run(self, model, qxs):
        att = model.attention
        H = model.cells["enc"].run(qxs)
        src = att.source(H)
        p_s = att.weights.sites["s"]
        ctx = np.empty((qxs.data.shape[0], H.data.shape[1]), dtype=p_s.dtype)

        def attend(t, h):
            ctx[t] = att.context(h, src)
            return ctx[t]

        out = model.cells["dec"].run(qxs, attend).dequantize()
        return {"enc": H.dequantize(), "att": dequantize(ctx, p_s), "dec": out, "out": out}

    def freeze(self, a, observers, cfg):
        self._tie(observers)
        enc = self._freeze(a, "enc", observers, cfg)
        dec = self._freeze(a, "dec", observers, cfg, ws=a["dec_ws"])
        aw, exp_table, tanh_table = freeze_attention(
            observers["att"], a["att_wq"], a["att_wk"], a["att_v"], cfg.pwl_pieces
        )
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
        self.check_ties()

    def sites(self, stage: str):
        """The sites of a cell, or of the attention stage for "att"."""
        return self.attention.weights.sites if stage == "att" else self.cells[stage].sites

    def check_ties(self) -> None:
        """GraphError unless every tied site holds its source's grid."""
        for (stage, site), (src, src_site) in GRAPHS[self.kind].ties.items():
            if self.sites(stage)[site] != self.sites(src)[src_site]:
                raise GraphError(
                    f"tied-site-mismatch: {stage}.{site} differs from {src}.{src_site}"
                )

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
        g = graph_for(self.kind)
        missing = sorted(set(g.required_keys()) - set(self.arrays))
        if missing:
            raise GraphError(f"float model missing keys: {', '.join(missing)}")
        shapes = {k: np.shape(v) for k, v in self.arrays.items()}
        for key, want in g.layout(shapes).items():
            if key in shapes and (shapes[key] != want or 0 in want):
                raise GraphError(f"float-model-shape: {key} is {shapes[key]}; the "
                                 f"{self.kind} layout gives {want}, with no empty axis")


def _float64(arrays: dict) -> dict:
    return {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}


def calibrate(fm: FloatModel, seqs, cfg: CellConfig) -> IrnnModel:
    """Run the float graph once over [N x T x n] sequences, every sequence
    stepping together, with observers attached; then freeze the cells and
    the attention stage."""
    seqs = np.asarray(seqs, dtype=np.float64)
    if seqs.ndim != 3:
        raise GraphError("calibration sequences must be [N x T x n]")
    g = graph_for(fm.kind)
    a = _float64(fm.arrays)
    n_in = a[g.cells[g.input_cell] + "wx"].shape[1]
    if seqs.shape[2] != n_in:
        raise GraphError(
            f"dimension mismatch: {g.input_cell} cell expects {n_in} features, "
            f"data has {seqs.shape[2]}"
        )
    observers = {name: {} for name in (*g.cells, "att")}
    # weights near float64's limit overflow the run, in one row or another
    # of the batch; the observers refuse the first non-finite site value
    with np.errstate(over="ignore", invalid="ignore"):
        g.float_run(a, seqs, dict.fromkeys(g.cells, cfg.use_madnorm), observers)
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
    """Integer inference on one [T x n] sequence; dequantized traces.  The
    input quantizes once: every cell that reads it has the same x grid."""
    qxs = quantize_tensor(xs, model.input_cell.sites["x"])
    return GRAPHS[model.kind].int_run(model, qxs)


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
