"""Binary model container (.irnn) plus float-model and calibration loaders.

Format 4: a 20-byte header (magic, u32 format version, u32 CRC32, u64
manifest length), a sorted-key JSON manifest, zero padding to 64 bytes,
then the little-endian blobs in sorted name order, each zero-padded to 64
bytes.  The CRC32 covers every byte after its own field, so a tool that
edits a container re-saves it.  A blob's manifest entry is its dtype tag
and shape; its size and offset follow from the entries before it, and a
payload of any other length is refused.

Each fact is stored once.  The manifest holds each stage's weight params
and the sites it does not tie to another stage's (graph._Graph.ties; load
fills a tied site in from its source), the model kind and its meta (a JSON
object).  A grid is its bitwidth, scale and zero point.  The blobs hold
the weights, each cell's int32 bias (a cell has a bias exactly when that
blob is stored) and, per PWL table, its knot codes (at its input grid's
storage dtype) and values (float64).  Everything else is derived at load
by the code that derives it at build: a table's grids from its stage's
sites (IntLstmCell.table_grids, AttentionPlan.table_grids; the stage
checks its tables against them, pwl.checked_tables), its slopes,
fixed-point constants and LUT from its knots, every rescale from the
sites.  A stage holds its tables and arrays read-only, so a loaded model
replays inference bit-for-bit and saves as it was loaded.  A blob of
another dtype or rank than its reader expects, a blob no reader takes, a
stored tied site and a missing, extra or mistyped manifest field fail the
load.  Which cells a kind has, which sites it ties and which keys its
float archive holds is the graph module's; this module only (de)serializes.
"""

from __future__ import annotations

import io
import json
import math
import struct
import zipfile
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
FORMAT_VERSION = 4

_ALIGN = 64
_HEADER = struct.Struct("<4sIIQ")
# the CRC32 covers every byte from the manifest length on
_CHECKED = struct.calcsize("<4sII")

# manifest dtype tag -> little-endian numpy dtype
_DTYPES = {
    tag: np.dtype(le)
    for tag, le in (
        ("uint8", "<u1"), ("uint16", "<u2"), ("uint32", "<u4"), ("int32", "<i4"), ("float64", "<f8")
    )
}


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _params_to_json(p: QuantParams) -> dict:
    return {"bitwidth": int(p.bitwidth), "scale": float(p.scale), "zero_point": int(p.zero_point)}


def _params_from_json(d: dict) -> QuantParams:
    # a missing or extra key is a TypeError
    return QuantParams(**d)


def _add_stage(blobs: dict, prefix: str, stage, weights: tuple, sites: dict) -> dict:
    """A stage's manifest entry: its named weights' params (None for an
    absent weight) and its stored sites; weight and table arrays go to blobs."""
    entry = {"sites": sites}
    for k in weights:
        qt = getattr(stage.weights, k)
        entry[k] = None if qt is None else _params_to_json(qt.params)
        if qt is not None:
            blobs[f"{prefix}/{k}"] = qt.data
    for name, t in stage.tables.items():
        blobs[f"{prefix}/tables/{name}/q_knots"] = t.q_knots.astype(t.in_params.dtype)
        blobs[f"{prefix}/tables/{name}/values"] = t.values
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


def _blob_bytes(name: str, arr: np.ndarray) -> bytes:
    """arr's little-endian bytes, zero-padded to the alignment."""
    if str(arr.dtype) not in _DTYPES:
        raise ValueError(f"unserializable dtype {arr.dtype} for blob {name!r}")
    raw = np.ascontiguousarray(arr, dtype=_DTYPES[str(arr.dtype)]).tobytes()
    return raw.ljust(_align(len(raw)), b"\x00")


def save(model: IrnnModel) -> bytes:
    """Serialize to bytes; identical models produce identical bytes.  A
    tied site is stored once, with its source: GraphError if they differ."""
    model.check_ties()
    ties = graph_for(model.kind).ties

    def stored(stage: str) -> dict:
        items = model.sites(stage).items()
        return {k: _params_to_json(v) for k, v in items if (stage, k) not in ties}

    blobs, cells_entry = {}, {}
    for name in graph_for(model.kind).cells:
        cell = model.cells[name]
        weights = ("wx", "wh", "ws")
        cells_entry[name] = _add_stage(blobs, f"cells/{name}", cell, weights, stored(name))
        if cell.weights.bias is not None:
            blobs[f"cells/{name}/bias"] = cell.weights.bias
    att_entry = None
    if model.attention is not None:
        att_entry = _add_stage(blobs, "att", model.attention, ("wq", "wk", "v"), stored("att"))

    manifest = {
        "kind": model.kind,
        "cells": cells_entry,
        "attention": att_entry,
        "meta": model.meta,
        "blobs": {k: {"dtype": str(a.dtype), "shape": list(a.shape)} for k, a in blobs.items()},
    }
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    pad = b"\x00" * (_align(_HEADER.size + len(body)) - _HEADER.size - len(body))
    payload = b"".join(_blob_bytes(name, blobs[name]) for name in sorted(blobs))
    out = bytearray(_HEADER.pack(MAGIC, FORMAT_VERSION, 0, len(body)) + body + pad + payload)
    struct.pack_into("<I", out, _CHECKED - 4, zlib.crc32(memoryview(out)[_CHECKED:]))
    return bytes(out)


def _unpack(entries: dict, data: bytes, start: int) -> dict:
    """Every blob by name, read in name order from byte start on, as a view
    of data (the stages keep copies); their dtypes and shapes must account
    for every byte up to the end."""
    layout = []
    for name in sorted(entries):
        entry = entries[name]
        if entry.keys() != {"dtype", "shape"}:
            raise ValueError(f"malformed manifest: blob {name!r} is not a dtype and a shape")
        tag, shape = entry["dtype"], entry["shape"]
        if tag not in _DTYPES:
            raise ValueError(f"dtype-mismatch: blob {name!r} has unknown dtype {tag!r}")
        if type(shape) is not list or any(type(d) is not int or d < 0 for d in shape):
            raise ValueError(f"shape-mismatch: blob {name!r} has no valid shape")
        layout.append((name, _DTYPES[tag], shape, start))
        start += _align(math.prod(shape) * _DTYPES[tag].itemsize)
    if start != len(data):
        raise ValueError(
            f"payload-length-mismatch: {len(data)} bytes, blob dtypes and shapes give {start}"
        )
    return {
        name: np.frombuffer(data, dt, math.prod(shape), offset).reshape(shape)
        for name, dt, shape, offset in layout
    }


def _model_from(manifest: dict, blob) -> dict:
    """The IrnnModel fields a manifest describes, every blob read by blob."""
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
    cells, blobs = {}, manifest["blobs"]
    for name in g.cells:
        prefix, entry = f"cells/{name}", entries[name]
        w = _weights_from(entry, prefix, blob, {"wx": 2, "wh": 2, "ws": 2})
        bias = blob(f"{prefix}/bias", np.int32, 1) if f"{prefix}/bias" in blobs else None
        grids = IntLstmCell.table_grids(sites[name], "ws" in w)
        cells[name] = IntLstmCell(
            LstmWeights(bias=bias, **w), sites[name], _tables_from(prefix, blob, grids)
        )
    attention = None
    if "att" in entries:
        w = _weights_from(entries["att"], "att", blob, {"wq": 2, "wk": 2, "v": 1})
        tables = _tables_from("att", blob, AttentionPlan.table_grids(sites["att"]))
        attention = AttentionPlan(AttentionWeights(sites=sites["att"], **w), tables)
    return {"kind": kind, "cells": cells, "attention": attention, "meta": meta}


def _json(text: str, what: str):
    """json.loads, with JSON nested too deeply to parse as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError as e:
        raise ValueError(f"malformed {what}: nested too deeply") from e


def load(data: bytes) -> IrnnModel:
    """Parse bytes produced by save(); inference replays bit-identically.

    Raises ValueError for a malformed container: a bad magic, another
    format version, a CRC32 that disagrees with the bytes, a payload whose
    length the blobs' dtypes and shapes do not give, a manifest nested too
    deeply to parse, a missing or mistyped manifest field, a blob of
    another dtype or rank than its reader expects, or a stored scale whose
    multipliers overflow their fixed-point form when the cells are
    compiled.
    """
    if len(data) < _HEADER.size:
        raise ValueError("truncated container: missing header")
    magic, version, crc, mlen = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ValueError("bad magic: not an .irnn payload")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported-version: {version} (this build reads {FORMAT_VERSION})")
    if zlib.crc32(memoryview(data)[_CHECKED:]) != crc:
        raise ValueError("checksum-mismatch: the container's bytes disagree with its CRC32")
    if _HEADER.size + mlen > len(data):
        raise ValueError("truncated container: manifest exceeds payload")
    manifest = _json(data[_HEADER.size : _HEADER.size + mlen].decode("utf-8"), "manifest")
    try:
        # each reader takes its blob out, so any left over were read by none
        unread = _unpack(manifest["blobs"], data, _align(_HEADER.size + mlen))

        def blob(name: str, dtype, ndim: int) -> np.ndarray:
            """Blob `name`, which must hold scalar type dtype at rank ndim."""
            if name not in unread:
                raise ValueError(f"dangling tensor reference: {name!r}")
            arr = unread.pop(name)
            if arr.dtype.type is not dtype:
                raise ValueError(f"dtype-mismatch: blob {name!r} is not {np.dtype(dtype).name}")
            if arr.ndim != ndim:
                raise ValueError(f"shape-mismatch: blob {name!r} is not a rank-{ndim} shape")
            return arr

        fields = _model_from(manifest, blob)
        # a blob no reader takes is a fact the model does not hold, such as a
        # context weight beside ws: null
        if unread:
            raise ValueError(f"unreferenced blob: {min(unread)!r}")
        return IrnnModel(**fields)
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
    """Read a float model from an .npz path or the bytes of one; a corrupt
    archive, a meta_json that is not a JSON object and weights that are not
    finite real numbers are rejected."""
    with io.BytesIO(bytes(src)) if isinstance(src, (bytes, bytearray)) else open(src, "rb") as f:
        try:
            archive = np.load(f)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("float model is not an .npz archive")
            arrays = {k: np.asarray(archive[k]) for k in archive.files}
        except (zipfile.BadZipFile, EOFError, NotImplementedError) as e:
            raise ValueError(f"float model archive is corrupt: {e}") from e
    kind = str(arrays.pop("kind")) if "kind" in arrays else infer_kind(arrays)
    meta = _json(str(arrays.pop("meta_json")), "meta") if "meta_json" in arrays else {}
    if not isinstance(meta, dict):
        raise ValueError("malformed meta: meta_json is not a JSON object")
    if not all(v.dtype.kind in "biuf" and np.isfinite(v).all() for v in arrays.values()):
        raise ValueError("float model holds non-finite or non-real weights")
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
    arr = np.frombuffer(payload, dtype="<f4")
    if arr.size != math.prod(dims):
        raise ValueError("raw tensor length disagrees with header")
    # widening a signalling NaN sets the invalid flag; load_calibration refuses NaNs
    with np.errstate(invalid="ignore"):
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
    ([T x n]) or 3 ([N x T x n]).  Values that are not finite float32 values
    and data without a sequence or a timestep are rejected.
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
    if not (np.abs(arr) <= np.finfo(np.float32).max).all():
        raise ValueError("data holds non-finite values or values beyond float32's range")
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
