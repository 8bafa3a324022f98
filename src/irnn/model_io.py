"""Binary model container (.irnn) plus float-model and calibration loaders.

Layout: a 16-byte header (magic, u32 format version, u64 manifest length),
a JSON manifest with sorted keys, then 64-byte-aligned little-endian blobs.
Every blob carries a CRC32 in the manifest and is addressed by a byte
offset relative to the blob section, so editing the manifest never
invalidates offsets.

The manifest stores every quantization parameter set and every PWL table,
plus each cell's two matmul requantization multipliers (raw/fraction-bit
integer pairs).  Loading only deserializes: the cells and the attention
stage compile from the stored sites and tables, without rebuilding any
table, so a loaded model replays inference bit-for-bit.  The stored
multipliers are not trusted; a pair that disagrees with the one the sites
derive fails the load, as does a manifest with a missing or mistyped field.
Which cells a model kind has, and which keys its float archive holds, is
the graph module's; this module only (de)serializes.
"""

from __future__ import annotations

import io
import json
import struct
import zlib

import numpy as np

from .attention import AttentionPlan, AttentionWeights
from .fixedpoint import FixedPointScalar
from .graph import FloatModel, IrnnModel, export_float, graph_for, infer_kind
from .pwl import PwlTable
from .quant import QTensor, QuantParams
from .rnn import TABLE_NAMES, CellConfig, IntLstmCell, LstmWeights

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
FORMAT_VERSION = 1

_ALIGN = 64
_HEADER = struct.Struct("<4sIQ")

# manifest dtype tag -> little-endian numpy dtype
_DTYPES = {
    "uint8": "<u1",
    "uint16": "<u2",
    "uint32": "<u4",
    "int32": "<i4",
    "int64": "<i8",
    "float32": "<f4",
    "float64": "<f8",
}


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _params_to_json(p: QuantParams) -> dict:
    return {
        "min": float(p.min),
        "max": float(p.max),
        "bitwidth": int(p.bitwidth),
        "scale": float(p.scale),
        "zero_point": int(p.zero_point),
    }


def _params_from_json(d: dict) -> QuantParams:
    return QuantParams(d["min"], d["max"], d["bitwidth"], d["scale"], d["zero_point"])


def _fx_to_json(fx: FixedPointScalar) -> dict:
    return {
        "raw": int(fx.raw),
        "fraction_bits": int(fx.fraction_bits),
        "integral_bits": int(fx.integral_bits),
        "signed": bool(fx.signed),
    }


def _fx_from_json(d: dict) -> FixedPointScalar:
    return FixedPointScalar(d["raw"], d["fraction_bits"], d["integral_bits"], d["signed"])


class _BlobWriter:
    def __init__(self):
        self.order = []
        self.payload = {}

    def add(self, name: str, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr)
        tag = str(arr.dtype)
        if tag not in _DTYPES:
            raise ValueError(f"unserializable dtype {tag} for blob {name!r}")
        self.order.append((name, arr.astype(_DTYPES[tag]), tag))

    def table(self) -> tuple[dict, bytes]:
        entries = {}
        chunks = []
        offset = 0
        for name, arr, tag in self.order:
            raw = arr.tobytes()
            entries[name] = {
                "offset": offset,
                "nbytes": len(raw),
                "crc32": zlib.crc32(raw) & 0xFFFFFFFF,
                "dtype": tag,
                "shape": list(arr.shape),
            }
            chunks.append(raw)
            padded = _align(len(raw))
            chunks.append(b"\x00" * (padded - len(raw)))
            offset += padded
        return entries, b"".join(chunks)


def _add_table(w: _BlobWriter, prefix: str, t: PwlTable) -> dict:
    w.add(f"{prefix}/knots", t.knots)
    w.add(f"{prefix}/slopes", t.slopes)
    w.add(f"{prefix}/intercepts", t.intercepts)
    w.add(f"{prefix}/q_knots", t.q_knots)
    w.add(f"{prefix}/fx_slopes", t.fx_slopes)
    w.add(f"{prefix}/fx_intercepts", t.fx_intercepts)
    return {
        "in_params": _params_to_json(t.in_params),
        "out_params": _params_to_json(t.out_params),
        "fraction_bits": int(t.fraction_bits),
        "pieces": int(t.pieces),
    }


def _table_from(entry: dict, prefix: str, blob) -> PwlTable:
    return PwlTable(
        knots=blob(f"{prefix}/knots"),
        slopes=blob(f"{prefix}/slopes"),
        intercepts=blob(f"{prefix}/intercepts"),
        q_knots=blob(f"{prefix}/q_knots"),
        in_params=_params_from_json(entry["in_params"]),
        out_params=_params_from_json(entry["out_params"]),
        fx_slopes=blob(f"{prefix}/fx_slopes"),
        fx_intercepts=blob(f"{prefix}/fx_intercepts"),
        fraction_bits=entry["fraction_bits"],
    )


def _add_cell(w: _BlobWriter, name: str, cell: IntLstmCell) -> dict:
    weights, cfg = cell.weights, cell.cfg
    prefix = f"cells/{name}"
    w.add(f"{prefix}/wx", weights.wx.data)
    w.add(f"{prefix}/wh", weights.wh.data)
    entry = {
        "wx": _params_to_json(weights.wx.params),
        "wh": _params_to_json(weights.wh.params),
        "ws": None,
        "has_bias": weights.bias is not None,
        "cfg": {
            "cell_bits": cfg.cell_bits,
            "preact_bits": cfg.preact_bits,
            "use_madnorm": cfg.use_madnorm,
            "pwl_pieces": cfg.pwl_pieces,
        },
        "sites": {k: _params_to_json(v) for k, v in cell.sites.items()},
        "fx_xprod": _fx_to_json(cell.multipliers["xprod"]),
        "fx_hprod": _fx_to_json(cell.multipliers["hprod"]),
        "tables": {
            name: _add_table(w, f"{prefix}/tables/{name}", cell.tables[name])
            for name in TABLE_NAMES
        },
    }
    if weights.bias is not None:
        w.add(f"{prefix}/bias", weights.bias)
    if weights.ws is not None:
        w.add(f"{prefix}/ws", weights.ws.data)
        entry["ws"] = _params_to_json(weights.ws.params)
    return entry


def _cell_from(entry: dict, name: str, blob) -> IntLstmCell:
    prefix = f"cells/{name}"
    wx = QTensor(blob(f"{prefix}/wx"), _params_from_json(entry["wx"]))
    wh = QTensor(blob(f"{prefix}/wh"), _params_from_json(entry["wh"]))
    bias = blob(f"{prefix}/bias") if entry["has_bias"] else None
    ws = None
    if entry["ws"] is not None:
        ws = QTensor(blob(f"{prefix}/ws"), _params_from_json(entry["ws"]))
    weights = LstmWeights(wx, wh, bias, ws=ws)
    cfg = CellConfig(**entry["cfg"])
    sites = {k: _params_from_json(v) for k, v in entry["sites"].items()}
    # the stored tables are authoritative: the cell compiles from them
    # instead of rebuilding, so replay cannot drift from the save
    tables = {
        name: _table_from(entry["tables"][name], f"{prefix}/tables/{name}", blob)
        for name in TABLE_NAMES
    }
    cell = IntLstmCell(weights, cfg, sites, tables)
    for site, fx in cell.multipliers.items():
        if _fx_from_json(entry[f"fx_{site}"]) != fx:
            raise ValueError(f"multiplier-mismatch: {name} fx_{site} disagrees with its sites")
    return cell


def save(model: IrnnModel) -> bytes:
    """Serialize to bytes; identical models produce identical bytes."""
    writer = _BlobWriter()
    cells_entry = {}
    for name in graph_for(model.kind).cells:
        cells_entry[name] = _add_cell(writer, name, model.cells[name])
    att_entry = None
    if model.attention is not None:
        aw = model.attention.weights
        writer.add("att/wq", aw.wq.data)
        writer.add("att/wk", aw.wk.data)
        writer.add("att/v", aw.v.data)
        att_entry = {
            "wq": _params_to_json(aw.wq.params),
            "wk": _params_to_json(aw.wk.params),
            "v": _params_to_json(aw.v.params),
            "sites": {k: _params_to_json(v) for k, v in aw.sites.items()},
            "exp_table": _add_table(writer, "att/tables/exp", model.attention.exp_table),
            "tanh_table": _add_table(writer, "att/tables/tanh", model.attention.tanh_table),
        }

    blob_table, payload = writer.table()
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "cells": cells_entry,
        "attention": att_entry,
        "meta": model.meta,
        "blobs": blob_table,
    }
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, len(body))
    pad = _align(_HEADER.size + len(body)) - _HEADER.size - len(body)
    return header + body + b"\x00" * pad + payload


def _model_from(manifest: dict, blob) -> IrnnModel:
    kind = manifest["kind"]
    cells = {
        name: _cell_from(manifest["cells"][name], name, blob)
        for name in graph_for(kind).cells
    }
    attention = None
    if manifest["attention"] is not None:
        a = manifest["attention"]
        weights = AttentionWeights(
            QTensor(blob("att/wq"), _params_from_json(a["wq"])),
            QTensor(blob("att/wk"), _params_from_json(a["wk"])),
            QTensor(blob("att/v"), _params_from_json(a["v"])),
            {k: _params_from_json(v) for k, v in a["sites"].items()},
        )
        attention = AttentionPlan(
            weights,
            _table_from(a["exp_table"], "att/tables/exp", blob),
            _table_from(a["tanh_table"], "att/tables/tanh", blob),
        )
    return IrnnModel(kind=kind, cells=cells, attention=attention, meta=manifest["meta"])


def load(data: bytes) -> IrnnModel:
    """Parse bytes produced by save(); inference replays bit-identically.

    A malformed container, a missing or mistyped manifest field included,
    raises ValueError.
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

    def blob(name: str) -> np.ndarray:
        entry = manifest["blobs"].get(name)
        if entry is None:
            raise ValueError(f"dangling tensor reference: {name!r}")
        start = section + entry["offset"]
        raw = data[start : start + entry["nbytes"]]
        if len(raw) != entry["nbytes"]:
            raise ValueError(f"checksum-mismatch: blob {name!r} truncated")
        if zlib.crc32(raw) & 0xFFFFFFFF != entry["crc32"]:
            raise ValueError(f"checksum-mismatch: blob {name!r}")
        if entry["dtype"] not in _DTYPES:
            raise ValueError(f"unknown blob dtype {entry['dtype']!r}")
        arr = np.frombuffer(raw, dtype=_DTYPES[entry["dtype"]])
        return arr.reshape(entry["shape"]).copy()

    try:
        if manifest.get("format_version") != version:
            raise ValueError("manifest format_version disagrees with header")
        return _model_from(manifest, blob)
    except (AttributeError, KeyError, TypeError) as e:
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
    ([T x n]) or 3 ([N x T x n]).  Non-finite values are rejected.
    """
    if str(path).lower().endswith(".csv"):
        arr = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    else:
        arr = _read_raw(path)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3:
        raise ValueError("calibration data must be [T x n] or [N x T x n]")
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
