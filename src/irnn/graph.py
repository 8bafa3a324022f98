"""Model graphs: the one definition of each model kind.

A kind (lstm, bilstm, encdec) is one table entry: which cells a model
has, in run and container order, the key prefix of each cell in
float-model archives, the cells that read the input time-reversed and the
cell whose context attends over another's states.  Its first cell sets the
input width.  One interpreter runs that wiring on two backends: the float
cells, which are the float64 oracle, and the integer cells.  Calibration is
the float run with min/max observers attached, followed by a freeze of
every cell and of the attention stage.

A kind also lists its ties: a site of one stage (a cell, or "att") that
holds another stage's grid, because the same codes pass between them
unrescaled.  Calibration gives the two one observer, an IrnnModel refuses
them differing, and the container stores the grid once.

encdec is a toy graph that teacher-forces the decoder with the source
sequence: the encoder consumes x_t, the decoder consumes the same x_t plus
the attention context over all encoder states.
"""

from __future__ import annotations

from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .attention import AttentionPlan, _attend_ref, _keys_ref, freeze_attention
from .quant import Observer, QTensor, _observe, dequantize, quantize_tensor
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


@dataclass(frozen=True)
class _Graph:
    """One model kind, as data.

    cells maps each cell name, in run and container order, to its
    float-archive key prefix; every cell reads the model input.  The cells
    in reverse read it time-reversed, and their states are reversed back.
    attend, if set, is (cell, source): that cell's context (ws) attends over
    the source cell's states through the att_ weights.  ties maps each tied
    (stage, site) to the (stage, site) whose grid it takes.  The output
    concatenates the states of every cell that nothing attends over.

    float_run() takes float64 weights, inputs [..., T, n], each cell's
    MadNorm flag and observer dicts by cell name (and "att"), any of which
    may be absent; it steps every sequence together, each with the bits of
    a run on it alone.  A stage observes the values it computes, and the
    run its input, as the input cell's x.  freeze() turns the dicts of observers() into (cells,
    attention plan or None).  int_run() runs a model's cells on one
    sequence's codes on the input cell's x grid.  Both are _run.
    """

    cells: dict
    reverse: tuple = ()
    attend: tuple = ()
    ties: dict = field(default_factory=dict)

    @property
    def input_cell(self) -> str:
        return next(iter(self.cells))

    def _ws(self, a, name):
        """Cell name's context weights; None unless it attends."""
        return a[self.cells[name] + "ws"] if self.attend and name == self.attend[0] else None

    def required_keys(self) -> tuple:
        keys = tuple(p + k for p in self.cells.values() for k in ("wx", "wh"))
        if self.attend:
            keys += (self.cells[self.attend[0]] + "ws", "att_wq", "att_wk", "att_v")
        return keys

    def layout(self, shapes: dict) -> dict:
        """The shape of each float array, from the shapes of the required
        ones: a cell's wh is [4m x m], its wx [4m x n] and its bias [4m],
        with m the columns of its wh and n those of the input cell's wx,
        since every cell reads the model input (calibrate checks n).  The
        attending cell's ws is [4m x m_src], with m_src its source's m, and
        att_wq, att_wk and att_v are [m_att x m], [m_att x m_src] and [m_att]."""
        n = _last(shapes[self.cells[self.input_cell] + "wx"])
        m = {name: _last(shapes[p + "wh"]) for name, p in self.cells.items()}
        out = {}
        for name, p in self.cells.items():
            out |= {p + "wh": (4 * m[name], m[name]), p + "wx": (4 * m[name], n),
                    p + "bias": (4 * m[name],)}
        if self.attend:
            (dec, enc), m_att = self.attend, _last(shapes["att_v"])
            out |= {self.cells[dec] + "ws": (4 * m[dec], m[enc]), "att_wq": (m_att, m[dec]),
                    "att_wk": (m_att, m[enc]), "att_v": (m_att,)}
        return out

    def observers(self) -> dict:
        """Empty observer dicts by cell name and "att", each tied site
        holding its source's Observer, so that freeze gives both one grid."""
        observers = {name: {} for name in (*self.cells, "att")}
        for (stage, site), (src, src_site) in self.ties.items():
            observers[stage][site] = observers[src].setdefault(src_site, Observer())
        return observers

    def freeze(self, a, observers, cfg):
        """Freeze the weights a and a float run's observers() dicts."""
        cells = {
            name: freeze_cell(observers[name], a[p + "wx"], a[p + "wh"], a.get(p + "bias"), cfg,
                              ws=self._ws(a, name))
            for name, p in self.cells.items()
        }
        if not self.attend:
            return cells, None
        return cells, freeze_attention(
            observers["att"], a["att_wq"], a["att_wk"], a["att_v"], cfg.pwl_pieces
        )

    def _run(self, xs, cell, attention, trace) -> dict:
        """The wiring over one backend's input xs [..., T, n]; the traces.

        cell(name, xs, context) runs a cell from zero state and returns its
        states [..., T, m].  attention(H) takes the source's states and
        returns (step, ctx): step(a) is one decoder step's context, and ctx
        the [..., T, m_src] array to hold every step's.  a is what the
        attending cell's run hands its context callback: the float backend's
        h before the step, and the integer backend's centered query codes,
        which its decoder's h projection carries (IntLstmCell.with_query).
        The callback stores each step's context in ctx and returns that
        step's own array.  trace(stage, v) gives the float64 values of a
        cell's states, or of ctx for "att".
        """
        states, traces = {}, {}
        for name in self.cells:
            rev, context, ctx = name in self.reverse, None, None
            if self.attend and name == self.attend[0]:
                step, ctx = attention(states[self.attend[1]])

                def context(t, a):
                    ctx[..., t, :] = s = step(a)
                    return s

            h = cell(name, xs[..., ::-1, :] if rev else xs, context)
            # the source's step state (its keys, a float work array) dies
            # here, not while the output below is formed
            step = context = None
            states[name] = h[..., ::-1, :] if rev else h
            traces[name] = trace(name, states[name])
            if ctx is not None:
                traces["att"] = trace("att", ctx)
        kept = [traces[name] for name in self.cells if name not in self.attend[1:]]
        traces["out"] = np.concatenate(kept, axis=-1)
        return traces

    def float_run(self, a, xs, madnorm, observers):
        _observe(observers.get(self.input_cell), "x", xs)

        def cell(name, xs, context):
            p = self.cells[name]
            return lstm_run_ref(
                xs, a[p + "wx"], a[p + "wh"], a.get(p + "bias"), ws=self._ws(a, name),
                context=context, use_madnorm=madnorm[name], observers=observers.get(name),
            )

        def attention(H):
            # the keys are projected once per source, as AttentionPlan.source
            # does, and every step forms its sums and their tanh in one work array
            obs, wq, v = observers.get("att"), a["att_wq"], a["att_v"]
            keys = _keys_ref(H, a["att_wk"], obs)
            work = np.empty_like(keys)
            return lambda h: _attend_ref(h, H, keys, wq, v, obs, work)[0], np.empty(H.shape)

        return self._run(xs, cell, attention, lambda stage, v: v)

    def int_run(self, model, qxs):
        att = model.attention

        def cell(name, xs, context):
            return model.cells[name].run(QTensor(xs, qxs.params), context).data

        def attention(H):
            src = att.source(QTensor(H, att.weights.sites["henc"]))
            return lambda q: att._step(q, src), np.empty(H.shape, att.weights.sites["s"].dtype)

        def trace(stage, codes):
            return dequantize(codes, model.sites(stage)["s" if stage == "att" else "h"])

        return self._run(qxs.data, cell, attention, trace)


def _last(shape: tuple) -> int:
    return shape[-1] if shape else 0


GRAPHS = {
    "lstm": _Graph({"main": ""}),
    "bilstm": _Graph({"fwd": "fwd_", "bwd": "bwd_"}, reverse=("bwd",),
                     ties={("bwd", "x"): ("fwd", "x"), ("bwd", "h"): ("fwd", "h")}),
    "encdec": _Graph({"enc": "enc_", "dec": "dec_"}, attend=("dec", "enc"), ties={
        ("dec", "x"): ("enc", "x"),
        ("att", "hdec"): ("dec", "h"),
        ("att", "henc"): ("enc", "h"),
        ("att", "s"): ("dec", "s"),
    }),
}


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


@dataclass(frozen=True)
class IrnnModel:
    """A fully calibrated integer model: named cells plus optional attention.

    Assembly (build or load) checks the wiring and the tied grids once, and
    a model is not changed afterwards: its fields cannot be assigned and
    cells is a read-only mapping, so dataclasses.replace assembles a new
    model, checked again.  An attending cell without context weights (ws)
    and a tied site absent or off its source's grid are refused (GraphError).

    The attending cell in cells carries the plan's query rows under its h
    projection (IntLstmCell.with_query), derived here from the cell given:
    one GEMV and one rescale give the decoder's hprod and the attention's
    centered query codes.  The tie of att.hdec to its h proves that both
    read one grid.
    """

    kind: str
    cells: Mapping
    attention: AttentionPlan | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        g = graph_for(self.kind)
        object.__setattr__(self, "cells", MappingProxyType(dict(self.cells)))
        if tuple(sorted(self.cells)) != tuple(sorted(g.cells)):
            raise GraphError(f"{self.kind} model needs cells {tuple(g.cells)}")
        if (self.attention is not None) != bool(g.attend):
            raise GraphError(f"a {self.kind} model {'needs an' if g.attend else 'has no'} attention stage")
        if g.attend and self.cells[g.attend[0]].weights.ws is None:
            raise GraphError(f"the {g.attend[0]} cell attends but has no context weights (ws)")
        for (stage, site), (src, src_site) in g.ties.items():
            grid, src_grid = self.sites(stage).get(site), self.sites(src).get(src_site)
            if grid is None or src_grid is None:
                raise GraphError(f"tied-site-missing: {stage}.{site} or {src}.{src_site} is absent")
            if grid != src_grid:
                raise GraphError(f"tied-site-mismatch: {stage}.{site} differs from {src}.{src_site}")
        if g.attend:
            att, dec = self.attention, g.attend[0]
            carrier = self.cells[dec].with_query(att._gemv_q, att._qproj)
            object.__setattr__(self, "cells", MappingProxyType({**self.cells, dec: carrier}))

    def sites(self, stage: str):
        """The sites of a cell, or of the attention stage for "att"."""
        return self.attention.weights.sites if stage == "att" else self.cells[stage].sites

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
    observers = g.observers()
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
    """run(model, xs) over [N x T x n] sequences, stacked per trace;
    GraphError for N = 0, which has no traces to stack.

    Sequences are independent, so any thread count gives bitwise-identical
    results.
    """
    seqs = np.asarray(seqs, dtype=np.float64)
    if len(seqs) == 0:
        raise GraphError("run_batch needs at least one sequence")
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
