"""The benchmark's tracer against the library: every name that
``benchmarks/tracing.py`` wraps must exist, so renaming one fails here
rather than only in a traced benchmark run."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import sl3shear
from sl3shear import seeds, tropical
from sl3shear.surface import MarkedSurfaceSpec, build

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_resolves_every_traced_name_and_restores_them():
    tracing = _tracing()
    originals = (seeds.mutate_matrix, tropical.apply_flip, sl3shear.apply_flip)
    tri = build(MarkedSurfaceSpec.polygon(5))
    e = tri.interior_edges[0]
    x = tropical.TropicalPoint("X", {("tri", tri.triangles[0]): Fraction(1, 2)}, tri=tri)
    with tracing.instrument(tracing.Tracer()) as tracer:
        assert seeds.mutate_matrix is not originals[0]
        sl3shear.apply_flip(x, tri, e)
        tropical.dynkin_cluster_by_mutation(x, tri)
        sl3shear.exchange_matrix(tri)
    assert (seeds.mutate_matrix, tropical.apply_flip, sl3shear.apply_flip) == originals
    assert tracer.calls["tropical.apply_flip"] == 1
    assert tracer.calls["seeds.exchange_matrix"] == 1
    # a cold flip plan runs the flip's four mutations on its flip quiver;
    # the Dynkin composite reads its face columns off the triangle quivers
    assert tracer.calls["seeds.mutate_matrix"] == 4
