"""Binary field snapshots with a byte-exact round trip.

Layout: 8-byte magic "LAEALAB1", a little-endian uint32 header length, the
UTF-8 JSON header (domain spec, nx, ny, alpha, t, ordered field names), then
each field as row-major little-endian binary64.  Nothing follows the last
field; a reader rejects trailing bytes.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"LAEALAB1"


class SnapshotError(IOError):
    pass


def write_snapshot(path: str, domain: dict, nx: int, ny: int, alpha: float,
                   t: float, fields: dict) -> None:
    names = list(fields.keys())
    header = {
        "domain": domain,
        "nx": int(nx),
        "ny": int(ny),
        "alpha": float(alpha),
        "t": float(t),
        "fields": names,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in names:
            arr = np.ascontiguousarray(fields[name], dtype="<f8")
            if arr.shape != (nx, ny):
                raise SnapshotError(f"field {name}: shape {arr.shape} != ({nx},{ny})")
            fh.write(arr.tobytes(order="C"))


def read_snapshot(path: str):
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise SnapshotError(f"bad magic {magic!r}; not a lab snapshot")
        raw_len = fh.read(4)
        if len(raw_len) < 4:
            raise SnapshotError("truncated header length")
        (hlen,) = struct.unpack("<I", raw_len)
        blob = fh.read(hlen)
        if len(blob) < hlen:
            raise SnapshotError("truncated header")
        header = json.loads(blob.decode("utf-8"))
        nx, ny = header["nx"], header["ny"]
        fields = {}
        for name in header["fields"]:
            data = fh.read(8 * nx * ny)
            if len(data) < 8 * nx * ny:
                raise SnapshotError(f"truncated field {name}")
            fields[name] = np.frombuffer(data, dtype="<f8").reshape(nx, ny).copy()
        if fh.read(1):
            raise SnapshotError("trailing bytes after the last field")
        return header, fields
