"""Span tracing of laealab's layers from outside the package.

``Tracer.install`` wraps the public functions and public methods (plus
``__init__``) of each layer module in place, and re-points every
``from .x import name`` alias in the package at the wrapper, so calls made
anywhere in laealab open a span.  ``scipy.sparse.linalg.splu`` is wrapped as
well: its span carries the L+U nonzeros, and the factorized matrix is hashed
(outside the timed interval) so rebuilt factorizations can be told apart from
distinct ones.

Spans are (name id, parent index, start, end, argument) rows kept in compact
arrays; a span's argument is the point count of an interpolation call or the
fill of a factorization.  Nothing in laealab is edited: ``uninstall`` puts the
original objects back.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("geometry", "elliptic", "calculus", "dynamics", "material",
          "interp", "poisson", "suites")
SPLU = "elliptic.splu"


def matrix_digest(A) -> str:
    """SHA-256 of a sparse matrix's shape and CSC arrays."""
    C = A.tocsc(copy=True)        # sorting must not touch the program's matrix
    C.sort_indices()
    h = hashlib.sha256(repr(C.shape).encode())
    for arr in (C.indptr, C.indices, C.data):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.arg = array("d")
        self.digests: list[str] = []      # one per factorization built
        self._stack = [-1]
        self._restore: list = []

    # -- recording ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str, arg: float = 0.0) -> int:
        idx = len(self.nid)
        self.nid.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.arg.append(arg)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.t1[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, size_arg: int | None = None):
        nid = self.name_id(name)
        nid_a, par_a, t0_a, t1_a, arg_a = (self.nid, self.parent, self.t0,
                                           self.t1, self.arg)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(nid_a)
            nid_a.append(nid)
            par_a.append(stack[-1])
            arg_a.append(0.0 if size_arg is None else np.size(args[size_arg]))
            t1_a.append(0.0)
            t0_a.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1_a[idx] = perf_counter()
                t0_a[idx] = start
                stack.pop()

        return traced

    def _wrap_splu(self, splu):
        tracer = self

        @functools.wraps(splu)
        def traced_splu(A, *args, **kwargs):
            digest = matrix_digest(A)
            idx = tracer.open(SPLU)
            try:
                lu = splu(A, *args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.digests.append(digest)
            tracer.arg[idx] = lu.L.nnz + lu.U.nnz
            return lu

        return traced_splu

    # -- installation -----------------------------------------------------------

    def install(self, package: str = "laealab"):
        """Wrap the layers' public entry points; returns self for chaining."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    w = self.wrap(obj, f"{layer}.{name}")
                    originals[id(obj)] = w
                    self._set(mod, name, w)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # point every from-import alias inside the package at its wrapper
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                w = originals.get(id(obj))
                if w is not None and obj is not w:
                    self._set(mod, name, w)
        spla = importlib.import_module("scipy.sparse.linalg")
        self._set(spla, "splu", self._wrap_splu(spla.splu))
        return self

    def _wrap_class(self, layer: str, cls):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(val):
                # interpolation spans record the number of query points
                size_arg = 1 if layer == "interp" and attr.startswith("eval") else None
                self._set(cls, attr, self.wrap(val, name, size_arg))
            elif isinstance(val, (classmethod, staticmethod)):
                self._set(cls, attr, type(val)(self.wrap(val.__func__, name)))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- export -------------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "nid": np.frombuffer(self.nid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
            "arg": np.frombuffer(self.arg, dtype=np.float64).copy(),
        }
