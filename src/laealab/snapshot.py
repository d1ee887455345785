"""Binary field snapshots with a byte-exact round trip.

Layout: 8-byte magic "LAEALAB1", a little-endian uint32 header length, the
UTF-8 JSON header (domain spec, nx, ny, alpha, t, ordered field names), then
each field as row-major little-endian binary64.  Nothing follows the last
field; a reader rejects trailing bytes.

save() and resume() pair a snapshot with a problem: resume() returns the
stored state only if the header's grid, alpha and domain are the problem's.
The domain entry carries the SHA-256 of the metric's phi samples, so a
snapshot of a curved problem does not resume onto a flat one.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys

import numpy as np

from . import dynamics as dy
from .fields import VectorField

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


def _header(blob: bytes) -> dict:
    """The decoded header; SnapshotError unless it is a JSON object with
    domain, alpha, a finite number t, positive integers nx and ny, and a list
    of field names."""
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as e:                   # UnicodeDecodeError, JSONDecodeError
        raise SnapshotError(f"header is not JSON: {e}") from None
    if not (isinstance(header, dict) and {"domain", "alpha", "t"} <= header.keys()):
        raise SnapshotError("header is not a JSON object with domain, alpha and t")
    for key in ("nx", "ny"):
        if not (type(header.get(key)) is int and header[key] > 0):   # bool is no size
            raise SnapshotError(f"header {key} {header.get(key)!r} is not a positive integer")
    t = header["t"]
    if not (type(t) in (int, float) and abs(t) <= sys.float_info.max):   # nor NaN, nor bool
        raise SnapshotError(f"header t {t!r} is not a finite number")
    names = header.get("fields")
    if not (isinstance(names, list) and all(isinstance(x, str) for x in names)):
        raise SnapshotError(f"header fields {names!r} is not a list of names")
    return header


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
        header = _header(blob)
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


def _domain(problem: dy.LaeProblem) -> dict:
    """The header's domain entry for a problem: kind, extents, the SHA-256 of
    phi as little-endian binary64, wall roles."""
    grid = problem.geo.grid
    phi = np.ascontiguousarray(problem.geo.metric.phi, dtype="<f8")
    domain = {"kind": "torus" if grid.periodic_y else "channel",
              "Lx": grid.Lx, "Ly": grid.Ly,
              "phi_sha256": hashlib.sha256(phi.tobytes()).hexdigest()}
    if problem.bc.has_boundary:
        domain["wall_roles"] = dict(problem.bc.wall_conditions)
    return domain


def save(problem: dy.LaeProblem, state: dy.State, path: str) -> None:
    """Write state with the problem's grid, alpha and domain in the header."""
    grid = problem.geo.grid
    write_snapshot(path, _domain(problem), grid.nx, grid.ny, problem.cfg.alpha,
                   state.t, {"u1": state.u.c1.data, "u2": state.u.c2.data})


def resume(problem: dy.LaeProblem, path: str) -> dy.State:
    """The state stored at path; SnapshotError unless it belongs to problem."""
    header, fields = read_snapshot(path)
    grid = problem.geo.grid
    expected = {"nx": grid.nx, "ny": grid.ny, "alpha": problem.cfg.alpha,
                "domain": _domain(problem)}
    for key, want in expected.items():
        if header[key] != want:
            raise SnapshotError(f"snapshot {key} {header[key]!r} != problem's {want!r}")
    if set(fields) != {"u1", "u2"}:
        raise SnapshotError(f"snapshot fields {sorted(fields)} are not u1, u2")
    return dy.State(VectorField.from_arrays(grid, fields["u1"], fields["u2"]),
                    header["t"])
