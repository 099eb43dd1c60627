"""Outside-in tracing of framedprod: self time and calls of each public function.

Nothing in ``src/`` knows about this file.  ``traced(tracer)`` replaces each
traced function in every ``framedprod`` module namespace that holds it, so a
call is seen whichever module makes it (``assemble.tripod_partition``, the
``trace_faces`` that ``cut`` imported, the ``verify`` functions that
``decompose`` reaches through ``framedprod.verify``), and puts every original
binding back on exit.

A call's self time is its duration minus the time of the traced calls it
made.  Totals are kept per phase (setup, certify or check).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

# defining module -> traced public functions; layer name is "<module>.<function>"
TRACED = {
    "embedding": ("parse_embedding", "trace_faces", "bfs_structure", "euler_genus"),
    "frame": ("close_frame",),
    "cut": ("build_Z", "cut_along", "attach_apex", "build_Tplus"),
    "tripods": ("triangulate_long_faces", "tripod_partition", "project_partition"),
    "assemble": ("decompose", "block_layering", "product_mapping",
                 "serialize_certificate", "parse_certificate"),
    "verify": ("verify_certificate", "rebuild_closure", "check_containment",
               "check_tree_decomposition", "check_planarity", "rebuild_bfs",
               "check_part_structure"),
    "frontends": ("parse_labelled_map", "map_to_frame", "parse_oneplanar",
                  "oneplanar_to_frame"),
    "generators": ("gen_framed", "gen_oneplanar", "gen_plane_triangulation",
                   "gen_toroidal_grid", "gen_labelled_map"),
}


class Tracer:
    """Self times, call counts and structural counters of one process.

    ``phase`` is set by the caller before each stage.  Totals are keyed by
    ``(phase, name)``.
    """

    def __init__(self):
        self.phase = "setup"
        self.reset()

    def reset(self):
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self._open = []          # [layer, seconds of the traced calls it made]

    def snapshot(self) -> dict:
        """Totals so far as plain dicts."""
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}

    def count(self, name, value):
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def count_min(self, name, value):
        key = (self.phase, name)
        self.counts[key] = min(self.counts.get(key, value), value)

    def inside(self, layer) -> bool:
        """True while a call of ``layer`` is running."""
        return any(frame[0] == layer for frame in self._open)

    def call(self, layer, fn, args, kwargs):
        frame = [layer, 0.0]
        self._open.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._open.pop()
            if self._open:
                self._open[-1][1] += duration
            key = (self.phase, layer)
            self.self_s[key] = self.self_s.get(key, 0.0) + duration - frame[1]
            self.calls[key] = self.calls.get(key, 0) + 1
        observe = OBSERVERS.get(layer)
        if observe is not None:
            observe(self, result)
        return result


# -- structural counters read from returned objects --------------------------

def _faces(tr, fs):
    tr.count("embedding.trace_faces_calls", 1)
    tr.count("embedding.faces", fs.f)
    if tr.inside("assemble.decompose"):
        tr.count("assemble.decompose_trace_faces_calls", 1)
    if tr.inside("frontends.map_to_frame"):
        tr.count("frontends.map_to_frame_trace_faces_calls", 1)


def _cells(tr, world):
    tr.count("tripods.cells", world.num_cells)


def _parts(tr, hpr):
    tr.count("tripods.parts", len(hpr.parts))
    for part in hpr.parts:
        if part.kind == "tripod":
            tr.count(f"tripods.legs_{len(part.legs)}", 1)
            tr.count("tripods.absorbed", len(part.absorbed))
    # the fallback is slated to become a contract violation; read it only
    # while the result still carries it
    tr.count("tripods.fallback_steps", getattr(hpr, "fallback_steps", 0))


def _z_paths(tr, cut_system):
    tr.count("cut.z_paths", len(cut_system.paths))


def _slack(tr, cert):
    tr.count_min("assemble.ell_slack_min", cert.bound - cert.ell)


def _verified(tr, fails):
    tr.count("verify.verify_certificate_calls", 1)


OBSERVERS = {
    "embedding.trace_faces": _faces,
    "tripods.triangulate_long_faces": _cells,
    "tripods.tripod_partition": _parts,
    "cut.build_Z": _z_paths,
    "assemble.decompose": _slack,
    "verify.verify_certificate": _verified,
}


def traced_functions() -> dict:
    """Original function object -> layer name, for every traced function
    the installed library still defines."""
    out = {}
    for mod_name, names in TRACED.items():
        mod = importlib.import_module(f"framedprod.{mod_name}")
        for name in names:
            fn = getattr(mod, name, None)
            if fn is not None:
                out[fn] = f"{mod_name}.{name}"
    return out


def bindings() -> list:
    """(module, attribute, layer) for every namespace slot holding a traced
    function, across all loaded ``framedprod`` modules."""
    targets = traced_functions()
    out = []
    for mod_name in sorted(sys.modules):
        if mod_name != "framedprod" and not mod_name.startswith("framedprod."):
            continue
        mod = sys.modules[mod_name]
        for attr, value in sorted(vars(mod).items()):
            if inspect.isfunction(value) and value in targets:
                out.append((mod, attr, targets[value]))
    return out


def _wrapper(tracer, layer, fn):
    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        return tracer.call(layer, fn, args, kwargs)
    return traced_call


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every traced function through ``tracer`` inside the block."""
    slots = bindings()
    wrappers = {}
    originals = []
    try:
        for mod, attr, layer in slots:
            fn = getattr(mod, attr)
            if fn not in wrappers:
                wrappers[fn] = _wrapper(tracer, layer, fn)
            originals.append((mod, attr, fn))
            setattr(mod, attr, wrappers[fn])
        yield tracer
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)
