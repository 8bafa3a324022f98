"""Binary model container (.irnn) plus float-model and calibration loaders.

Layout: a 16-byte header (magic, u32 format version, u64 manifest length),
a JSON manifest with sorted keys, then 64-byte-aligned little-endian blobs.
Every blob carries a CRC32, a dtype tag and a shape in the manifest and is
addressed by a byte offset relative to the blob section, so editing the
manifest never invalidates offsets.

Format 3 stores each fact once.  The manifest holds each cell's weight
params, bias flag and tensor sites, the attention stage's weight params
and sites, the model kind and its free-form meta (a JSON object).  A
grid (params) is its bitwidth, scale and zero point.  A site the graph
ties to another stage's (graph._Graph.ties) is stored once, with its
source, and filled in at load.  The blobs hold the weights, the int32
bias and, per PWL table, its knot codes (in its input grid's storage
dtype) and its knot values (float64).  Everything else is derived at
load, by the same code that derives it at build: a table's grids come
from its stage's sites (IntLstmCell.table_grids,
AttentionPlan.table_grids), its slopes, fixed-point constants and LUT from
its knots, and every rescale from the sites.  So a loaded model replays
inference bit-for-bit.  Each blob is read at the dtype and rank its
reader expects; any other tag, a shape that disagrees with its byte count,
a blob no reader takes, a stored copy of a tied site and a missing,
extra or mistyped manifest field fail the load.  Which cells a model kind
has, which sites it ties and which keys its float archive holds is the
graph module's; this module only (de)serializes.
"""

from __future__ import annotations

import io
import json
import struct
import zlib

import numpy as np

from .attention import AttentionPlan, AttentionWeights
from .graph import FloatModel, IrnnModel, export_float, graph_for, infer_kind
from .pwl import PwlTable
from .quant import QTensor, QuantParams
from .rnn import IntLstmCell, LstmWeights

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "FloatModel",
    "IrnnModel",
    "export_float",
    "load",
    "load_calibration",
    "load_file",
    "load_float",
    "save",
    "save_calibration",
    "save_file",
    "save_float",
]

MAGIC = b"IRNN"
FORMAT_VERSION = 3

_ALIGN = 64
_HEADER = struct.Struct("<4sIQ")

# manifest dtype tag -> little-endian numpy dtype
_DTYPES = {
    tag: np.dtype(le)
    for tag, le in (
        ("uint8", "<u1"), ("uint16", "<u2"), ("uint32", "<u4"), ("int32", "<i4"), ("float64", "<f8")
    )
}
# scalar type a reader asks for -> its tag
_TAGS = {dt.type: tag for tag, dt in _DTYPES.items()}


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _params_to_json(p: QuantParams) -> dict:
    return {"bitwidth": int(p.bitwidth), "scale": float(p.scale), "zero_point": int(p.zero_point)}


def _params_from_json(d: dict) -> QuantParams:
    # a missing or extra key is a TypeError
    return QuantParams(**d)


class _BlobWriter:
    """Blobs in the order added: their manifest entries and the payload."""

    def __init__(self):
        self.entries, self.payload = {}, bytearray()

    def add(self, name: str, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr)
        tag = str(arr.dtype)
        if tag not in _DTYPES:
            raise ValueError(f"unserializable dtype {tag} for blob {name!r}")
        raw = arr.astype(_DTYPES[tag]).tobytes()
        self.entries[name] = {
            "offset": len(self.payload),
            "nbytes": len(raw),
            "crc32": zlib.crc32(raw) & 0xFFFFFFFF,
            "dtype": tag,
            "shape": list(arr.shape),
        }
        self.payload += raw.ljust(_align(len(raw)), b"\x00")


def _add_stage(w: _BlobWriter, prefix: str, weights: dict, sites: dict, tables: dict) -> dict:
    """A stage's manifest entry: its weights' params (None for an absent
    weight) and its stored sites; the weight and table blobs go to w."""
    entry = {"sites": sites}
    for k, qt in weights.items():
        entry[k] = None if qt is None else _params_to_json(qt.params)
        if qt is not None:
            w.add(f"{prefix}/{k}", qt.data)
    for name, t in tables.items():
        w.add(f"{prefix}/tables/{name}/q_knots", t.q_knots.astype(t.in_params.dtype))
        w.add(f"{prefix}/tables/{name}/values", t.values)
    return entry


def _weights_from(entry: dict, prefix: str, blob, ranks: dict) -> dict:
    """A stage's stored weights by name, each a blob of the rank given."""
    weights = {}
    for k, ndim in ranks.items():
        if entry[k] is not None:
            p = _params_from_json(entry[k])
            weights[k] = QTensor(blob(f"{prefix}/{k}", p.dtype, ndim), p)
    return weights


def _tables_from(prefix: str, blob, grids: dict) -> dict:
    """A stage's tables by name, each on its (input, output) grids."""
    tables = {}
    for name, (p_in, p_out) in grids.items():
        q_knots = blob(f"{prefix}/tables/{name}/q_knots", p_in.dtype, 1)
        values = blob(f"{prefix}/tables/{name}/values", np.float64, 1)
        tables[name] = PwlTable(q_knots, values, p_in, p_out)
    return tables


def save(model: IrnnModel) -> bytes:
    """Serialize to bytes; identical models produce identical bytes.  A
    tied site is stored once, with its source: GraphError if they differ."""
    model.check_ties()
    ties = graph_for(model.kind).ties

    def stored(stage: str) -> dict:
        items = model.sites(stage).items()
        return {k: _params_to_json(v) for k, v in items if (stage, k) not in ties}

    writer = _BlobWriter()
    cells_entry = {}
    for name in graph_for(model.kind).cells:
        cell, w = model.cells[name], model.cells[name].weights
        weights = {"wx": w.wx, "wh": w.wh, "ws": w.ws}
        entry = _add_stage(writer, f"cells/{name}", weights, stored(name), cell.tables)
        cells_entry[name] = {**entry, "has_bias": w.bias is not None}
        if w.bias is not None:
            writer.add(f"cells/{name}/bias", w.bias)
    att_entry = None
    if model.attention is not None:
        plan, aw = model.attention, model.attention.weights
        weights = {"wq": aw.wq, "wk": aw.wk, "v": aw.v}
        tables = {"exp": plan.exp_table, "tanh": plan.tanh_table}
        att_entry = _add_stage(writer, "att", weights, stored("att"), tables)

    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "cells": cells_entry,
        "attention": att_entry,
        "meta": model.meta,
        "blobs": writer.entries,
    }
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, len(body))
    pad = _align(_HEADER.size + len(body)) - _HEADER.size - len(body)
    return header + body + b"\x00" * pad + bytes(writer.payload)


def _model_from(manifest: dict, blob) -> IrnnModel:
    kind, meta = manifest["kind"], manifest["meta"]
    if not isinstance(meta, dict):
        raise ValueError("malformed manifest: meta is not an object")
    g = graph_for(kind)
    entries = {name: manifest["cells"][name] for name in g.cells}
    if manifest["attention"] is not None:
        entries["att"] = manifest["attention"]
    sites = {
        stage: {k: _params_from_json(v) for k, v in entry["sites"].items()}
        for stage, entry in entries.items()
    }
    for (stage, site), (src, src_site) in g.ties.items():
        if stage in sites:
            if site in sites[stage]:
                raise ValueError(f"tied site stored twice: {stage}.{site} is {src}.{src_site}")
            sites[stage][site] = sites[src][src_site]
    cells = {}
    for name in g.cells:
        prefix, entry = f"cells/{name}", entries[name]
        w = _weights_from(entry, prefix, blob, {"wx": 2, "wh": 2, "ws": 2})
        if not isinstance(entry["has_bias"], bool):
            raise ValueError(f"malformed manifest: {name}.has_bias is not a boolean")
        bias = blob(f"{prefix}/bias", np.int32, 1) if entry["has_bias"] else None
        grids = IntLstmCell.table_grids(sites[name], "ws" in w)
        cells[name] = IntLstmCell(
            LstmWeights(bias=bias, **w), sites[name], _tables_from(prefix, blob, grids)
        )
    attention = None
    if "att" in entries:
        w = _weights_from(entries["att"], "att", blob, {"wq": 2, "wk": 2, "v": 1})
        t = _tables_from("att", blob, AttentionPlan.table_grids(sites["att"]))
        attention = AttentionPlan(AttentionWeights(sites=sites["att"], **w), t["exp"], t["tanh"])
    return IrnnModel(kind=kind, cells=cells, attention=attention, meta=meta)


def load(data: bytes) -> IrnnModel:
    """Parse bytes produced by save(); inference replays bit-identically.

    A malformed container, a missing or mistyped manifest field or a blob
    of another dtype or rank than its reader expects included, raises
    ValueError, and so does a stored scale whose multipliers overflow
    their fixed-point form when the cells are compiled.
    """
    if len(data) < _HEADER.size:
        raise ValueError("truncated container: missing header")
    magic, version, mlen = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ValueError("bad magic: not an .irnn payload")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported-version: {version} (this build reads {FORMAT_VERSION})"
        )
    if _HEADER.size + mlen > len(data):
        raise ValueError("truncated container: manifest exceeds payload")
    manifest = json.loads(data[_HEADER.size : _HEADER.size + mlen].decode("utf-8"))
    section = _align(_HEADER.size + mlen)
    read = set()

    def blob(name: str, dtype, ndim: int) -> np.ndarray:
        """Blob `name`, which must be tagged as the scalar type dtype and
        have rank ndim."""
        entry = manifest["blobs"].get(name)
        if entry is None:
            raise ValueError(f"dangling tensor reference: {name!r}")
        read.add(name)
        tag, shape = _TAGS[dtype], entry["shape"]
        if entry["dtype"] != tag:
            raise ValueError(f"dtype-mismatch: blob {name!r} is not {tag}")
        # a shape that disagrees with nbytes fails the reshape below
        if len(shape) != ndim or any(type(d) is not int or d < 0 for d in shape):
            raise ValueError(f"shape-mismatch: blob {name!r} is not a rank-{ndim} shape")
        start = section + entry["offset"]
        raw = data[start : start + entry["nbytes"]]
        if len(raw) != entry["nbytes"]:
            raise ValueError(f"checksum-mismatch: blob {name!r} truncated")
        if zlib.crc32(raw) & 0xFFFFFFFF != entry["crc32"]:
            raise ValueError(f"checksum-mismatch: blob {name!r}")
        return np.frombuffer(raw, dtype=_DTYPES[tag]).reshape(shape).copy()

    try:
        if manifest.get("format_version") != version:
            raise ValueError("manifest format_version disagrees with header")
        model = _model_from(manifest, blob)
        # a blob no reader takes is a fact the model does not hold, such as a
        # bias beside has_bias: false
        unread = sorted(manifest["blobs"].keys() - read)
        if unread:
            raise ValueError(f"unreferenced blob: {unread[0]!r}")
        return model
    except (AttributeError, KeyError, TypeError, OverflowError) as e:
        what = f"missing {e.args[0]}" if isinstance(e, KeyError) else e
        raise ValueError(f"malformed manifest: {what}") from e


def save_file(model: IrnnModel, path) -> None:
    with open(path, "wb") as f:
        f.write(save(model))


def load_file(path) -> IrnnModel:
    with open(path, "rb") as f:
        return load(f.read())


def save_float(fm: FloatModel) -> bytes:
    """Archive a float model as an uncompressed .npz payload."""
    buf = io.BytesIO()
    np.savez(
        buf,
        kind=np.array(fm.kind),
        meta_json=np.array(json.dumps(fm.meta, sort_keys=True)),
        **fm.arrays,
    )
    return buf.getvalue()


def load_float(src) -> FloatModel:
    """Read a float model from an .npz path or the bytes of one; non-finite
    weights are rejected."""
    if isinstance(src, (bytes, bytearray)):
        src = io.BytesIO(bytes(src))
    with np.load(src) as archive:
        arrays = {k: np.asarray(archive[k]) for k in archive.files}
    kind = str(arrays.pop("kind")) if "kind" in arrays else infer_kind(arrays)
    meta = json.loads(str(arrays.pop("meta_json"))) if "meta_json" in arrays else {}
    if not all(np.isfinite(v.astype(np.float64)).all() for v in arrays.values()):
        raise ValueError("float model holds non-finite weights")
    # FloatModel checks the kind and the keys it requires
    return FloatModel(kind=kind, arrays=arrays, meta=meta)


def _read_raw(path) -> np.ndarray:
    with open(path, "rb") as f:
        head = f.read(4)
        if len(head) < 4:
            raise ValueError("raw tensor header truncated")
        (ndim,) = struct.unpack("<I", head)
        if not 1 <= ndim <= 4:
            raise ValueError(f"raw tensor rank {ndim} out of range")
        dim_bytes = f.read(8 * ndim)
        if len(dim_bytes) < 8 * ndim:
            raise ValueError("raw tensor header truncated")
        dims = struct.unpack(f"<{ndim}Q", dim_bytes)
        payload = f.read()
    count = int(np.prod(dims))
    arr = np.frombuffer(payload, dtype="<f4")
    if arr.size != count:
        raise ValueError("raw tensor length disagrees with header")
    return arr.reshape(dims).astype(np.float64)


def _write_raw(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    with open(path, "wb") as f:
        f.write(struct.pack("<I", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(arr.tobytes())


def load_calibration(path) -> np.ndarray:
    """Read sequences as [N x T x n] float64.

    CSV files hold one sequence (rows are timesteps); anything else is the
    raw format: u32 rank, u64 dims, little-endian float32 payload, rank 2
    ([T x n]) or 3 ([N x T x n]).  Non-finite values and data without a
    sequence or a timestep are rejected.
    """
    if str(path).lower().endswith(".csv"):
        arr = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    else:
        arr = _read_raw(path)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3:
        raise ValueError("calibration data must be [T x n] or [N x T x n]")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError("data holds no sequences or no timesteps")
    if not np.isfinite(arr).all():
        raise ValueError("data holds non-finite values")
    return arr


def save_calibration(path, arr: np.ndarray) -> None:
    """Write sequences; .csv takes one [T x n] sequence, else raw format."""
    arr = np.asarray(arr, dtype=np.float64)
    if str(path).lower().endswith(".csv"):
        if arr.ndim == 3:
            if arr.shape[0] != 1:
                raise ValueError("CSV holds a single sequence")
            arr = arr[0]
        np.savetxt(path, arr, delimiter=",", fmt="%.17g")
    else:
        _write_raw(path, arr)
