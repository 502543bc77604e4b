"""In-memory span tracer for the magnonchain layers, installed from outside.

The tracer wraps every public function of the package modules (the
layers), plus ``Hamiltonian.matvec``, ``Hamiltonian.eigensystem`` and
``Trajectory.state`` on their classes, and restores every patched
attribute on ``uninstall``.  A function is also bound under other names
in other modules (``from .magnon import diagonalize_magnons``,
``load_couplings as import_couplings``); every binding of the same
function object is patched, so those calls are counted too.  No line of
the package is changed.

Each call records a span (id, parent id, trace id, name, start, end,
self time, raised).  Self time is the span's duration minus the time of
its child spans, so the self times of all spans plus the time outside any
span add up to the traced wall time.  The trace id is the index of the
top-level call (one ``cli.main`` job).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "ionchain", "magnon", "dynamics", "entanglement", "bounds", "analysis", "io")

#: Methods wrapped on their class: (module, class, method); spans are
#: named ``<module>.<method>``.
METHODS = (("dynamics", "Hamiltonian", "matvec"),
           ("dynamics", "Hamiltonian", "eigensystem"),
           ("dynamics", "Trajectory", "state"))

MATVEC = "dynamics.matvec"
EIGENSYSTEM = "dynamics.eigensystem"
OBSERVABLES = ("dynamics.magnetisation", "dynamics.two_point_correlations", "dynamics.state")


class _Frame:
    __slots__ = ("id", "child_time", "children")

    def __init__(self, span_id: int):
        self.id = span_id
        self.child_time = 0.0
        self.children: set[str] = set()


class Tracer:
    """Wraps the layers of ``package`` while installed; see the module docstring."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[_Frame] = []
        self._ids = itertools.count()
        self._traces = itertools.count()
        self._trace_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [getattr(self.package, name) for name in LAYERS]
        wrappers = {}                               # id(original) -> wrapper
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for mod in (self.package, *modules):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(mod, name, wrappers[id(obj)])
        for layer, cls_name, method in METHODS:
            cls = getattr(getattr(self.package, layer), cls_name)
            original = cls.__dict__[method]
            self._patch(cls, method, self._wrap(f"{layer}.{method}", original))

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def restored(self) -> bool:
        """True when no attribute of the package still holds a wrapper."""
        for mod in (self.package, *(getattr(self.package, n) for n in LAYERS)):
            if any(getattr(v, "__perfbench_wrapper__", False) for v in vars(mod).values()):
                return False
        for layer, cls_name, method in METHODS:
            cls = getattr(getattr(self.package, layer), cls_name)
            if getattr(cls.__dict__[method], "__perfbench_wrapper__", False):
                return False
        return True

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        ids = self._ids
        on_exit = _ON_EXIT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                self._trace_id = next(self._traces)
            frame = _Frame(next(ids))
            stack.append(frame)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_time = duration - frame.child_time
                if parent is not None:
                    parent.child_time += duration
                    parent.children.add(name)
                spans.append((frame.id, parent.id if parent else None, self._trace_id,
                              name, start, end, self_time, raised))
                if on_exit is not None:
                    on_exit(self.counters, frame, self_time, args,
                            None if raised else result)
            return result

        traced.__perfbench_wrapper__ = True
        return traced

    def clear(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def write_spans(self, path: Path, pass_index: int) -> None:
        """Append this pass's spans as NDJSON arrays (pass, id, parent, trace,
        name, start, end, self, raised)."""
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps([pass_index, *span]) + "\n")

    # -- aggregation -------------------------------------------------------

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-name, per-layer and whole-trace figures of the spans recorded
        since the last ``clear``, for a traced pass that took ``wall_s``."""
        out: dict[str, float] = defaultdict(float)
        covered = 0.0
        for _, parent, _, name, start, end, self_time, raised in self.spans:
            layer = name.split(".", 1)[0]
            out[f"{name}.s"] += self_time
            out[f"{name}.calls"] += 1
            out[f"{name}.failures"] += raised
            out[f"{layer}.s"] += self_time
            if parent is None:
                covered += end - start
        out.update(self.counters)
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - covered
        return dict(out)


# -- per-span extras -----------------------------------------------------------


def _evolve(counters, frame, self_time, args, result):
    if MATVEC in frame.children:
        kind = "krylov"
    elif EIGENSYSTEM in frame.children:
        kind = "dense"
    else:
        kind = "other"
    counters[f"dynamics.evolve.{kind}.s"] += self_time


def _hamiltonian(counters, frame, self_time, args, result):
    if result is not None:
        counters["dynamics.hamiltonian.nnz"] += result._matrix.nnz


def _matvec(counters, frame, self_time, args, result):
    # computed, not measured: matrix data + indices + indptr, input and output vectors
    if result is not None:
        m = args[0]._matrix
        counters["dynamics.matvec.bytes_computed"] += (
            m.data.nbytes + m.indices.nbytes + m.indptr.nbytes + args[1].nbytes + result.nbytes)


def _file_bytes(metric):
    def hook(counters, frame, self_time, args, result):
        if result is not None:
            counters[metric] += Path(result).stat().st_size
    return hook


_ON_EXIT = {
    "dynamics.evolve": _evolve,
    "dynamics.build_hamiltonian": _hamiltonian,
    MATVEC: _matvec,
    "io.write_table": _file_bytes("io.write_table.bytes"),
    "io.write_ndjson": _file_bytes("io.write_ndjson.bytes"),
}
