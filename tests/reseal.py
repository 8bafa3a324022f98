"""Edit the bytes of an .irnn container in tests and reseal them.

The container's CRC32 covers everything after its own field, so an edit
that is meant to reach the loader's field checks has to recompute it.
"""

import json
import math
import struct
import zlib

import numpy as np

HEADER = struct.Struct("<4sIIQ")  # magic, format version, CRC32, manifest length


def _align64(n):
    return (n + 63) // 64 * 64


def manifest_of(data: bytes) -> dict:
    mlen = HEADER.unpack_from(data)[3]
    return json.loads(data[HEADER.size : HEADER.size + mlen])


def payload_of(data: bytes) -> bytes:
    """The blob bytes, from the first 64-byte boundary after the manifest."""
    return data[_align64(HEADER.size + HEADER.unpack_from(data)[3]) :]


def reseal(data: bytes, edit=None, payload=None) -> bytes:
    """data with edit(manifest) applied to its manifest in place and its
    blob bytes replaced by payload(old blob bytes), under a fresh CRC32;
    the magic and the format version are kept."""
    manifest = manifest_of(data)
    if edit is not None:
        edit(manifest)
    blobs = payload_of(data) if payload is None else payload(payload_of(data))
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    return with_manifest(data, body, blobs)


def with_manifest(data: bytes, body: bytes, blobs: bytes | None = None) -> bytes:
    """data with its manifest's bytes replaced by body, which need not be
    valid JSON, and its blob bytes by blobs (kept if None), under a fresh
    CRC32; the magic and the format version are kept."""
    magic, version, _, _ = HEADER.unpack_from(data)
    blobs = payload_of(data) if blobs is None else blobs
    pad = b"\0" * (_align64(HEADER.size + len(body)) - HEADER.size - len(body))
    checked = struct.pack("<Q", len(body)) + body + pad + blobs
    return struct.pack("<4sII", magic, version, zlib.crc32(checked)) + checked


def unsealed(data: bytes, edit) -> bytes:
    """data with edit(manifest) applied but its CRC32 left as it was."""
    edited = reseal(data, edit)
    return edited[:8] + data[8:12] + edited[12:]


def blob_zeroed(data: bytes, name: str) -> bytes:
    """data with the bytes of blob `name` set to zero, under a fresh CRC32;
    the blobs lie in name order, each padded to 64 bytes."""
    blobs, start = manifest_of(data)["blobs"], 0
    for key in sorted(blobs):
        size = math.prod(blobs[key]["shape"]) * np.dtype(blobs[key]["dtype"]).itemsize
        if key == name:
            return reseal(data, payload=lambda p: p[:start] + bytes(size) + p[start + size :])
        start += _align64(size)
    raise KeyError(name)
