"""Per-layer spans and counts for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`instrument`
wraps the public functions and methods of each ``sl3shear`` module and
restores them on exit.  A wrapped function is replaced in *every*
``sl3shear`` namespace that binds it (``sl3shear``,
``sl3shear.tropical``, ``sl3shear.verify``, ...), otherwise calls made
inside the library would bypass the wrapper.  Methods are replaced on
their class, which every call site shares.

Spans are aggregated in memory as they close: per span name the number
of calls and the self time (span time minus the time of the spans opened
inside it).
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Aggregated span statistics and counters of one traced run."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self._child_time = []  # one slot per open span

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, on_result=None, refusals=()):
        """``fn`` wrapped in a span called ``name``.  ``on_result`` sees
        each return value; an exception in ``refusals`` is counted under
        ``<name>.refused`` and re-raised."""
        child_time = self._child_time

        def traced(*args, **kwargs):
            child_time.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except refusals:
                self.count(name + ".refused")
                raise
            finally:
                dt = perf_counter() - t0
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += dt
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dt - inner
            if on_result is not None:
                on_result(result)
            return result

        return traced


def _corner_entries(pic):
    return sum(len(stack) for stack in pic.corners.values())


def _targets(tracer):
    """(span name, module, attribute path, result hook, refusals) for
    every instrumented entry point."""
    surface = importlib.import_module("sl3shear.surface")
    tropical = importlib.import_module("sl3shear.tropical")

    def travelers(result):
        tracer.count("reconstruct.travelers", len(result[1]))

    def picture(result):
        tracer.count("laminations.corner_entries", _corner_entries(result))

    def pinned_picture(result):
        picture(result.underlying)

    def io_bytes(result):
        if isinstance(result, str):
            tracer.count("io.bytes", len(result.encode("utf-8")))

    return [
        ("surface.build", "sl3shear.surface", "build", None, ()),
        ("surface.flip_edge", "sl3shear.surface", "IdealTriangulation.flip_edge", None,
         (surface.FlipCreatesSelfFolded,)),
        ("surface.glue_boundary", "sl3shear.surface", "IdealTriangulation.glue_boundary", None, ()),
        ("seeds.index_set", "sl3shear.seeds", "Sl3IndexSet.__init__", None, ()),
        ("seeds.exchange_matrix", "sl3shear.seeds", "exchange_matrix", None, ()),
        ("seeds.mutate_matrix", "sl3shear.seeds", "mutate_matrix", None, ()),
        ("tropical.apply_flip", "sl3shear.tropical", "apply_flip", None, ()),
        ("tropical.flip_x_closed_form", "sl3shear.tropical", "flip_x_closed_form", None,
         (tropical.BadLabeling,)),
        ("tropical.ensemble", "sl3shear.tropical", "ensemble", None, ()),
        ("tropical.dynkin_cluster", "sl3shear.tropical", "dynkin_cluster", None, ()),
        ("laminations.validate", "sl3shear.laminations", "GlobalPicture.validate", None, ()),
        ("laminations.shear_unfrozen", "sl3shear.laminations", "shear_unfrozen", None, ()),
        ("laminations.shear_frozen", "sl3shear.laminations", "shear_frozen", None, ()),
        ("reconstruct.trace", "sl3shear.reconstruct", "trace_coordinates", travelers, ()),
        ("reconstruct.reconstruct", "sl3shear.reconstruct", "reconstruct", picture, ()),
        ("reconstruct.traveler_trace", "sl3shear.reconstruct", "traveler_trace", None, ()),
        ("glue.glue_laminations", "sl3shear.glue", "glue_laminations", pinned_picture, ()),
        ("io.encode", "sl3shear.io", "pinned_to_obj", None, ()),
        ("io.encode", "sl3shear.io", "dump", io_bytes, ()),
        ("io.decode", "sl3shear.io", "load", None, ()),
        ("io.decode", "sl3shear.io", "pinned_from_obj", None, ()),
    ]


@contextmanager
def instrument(tracer):
    """Install span wrappers around the library's entry points for the
    duration of the ``with`` block."""
    restore = []
    try:
        for name, module_name, path, hook, refusals in _targets(tracer):
            # import_module, not ``import a.b as m``: the package re-exports
            # functions under their module's name (sl3shear.reconstruct)
            module = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original, hook, refusals)
            if owner is module:
                for ns in _library_namespaces():
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)
                            restore.append((ns, key, original))
            else:
                setattr(owner, attr, wrapper)
                restore.append((owner, attr, original))
        yield tracer
    finally:
        for ns, key, original in reversed(restore):
            setattr(ns, key, original)


def _library_namespaces():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "sl3shear" or name.startswith("sl3shear."))
    ]
