"""Flips and the ensemble map against the global exchange matrix.

``apply_flip`` mutates only the quadrilateral of the flipped edge and
``ensemble`` folds the elementary triangle quiver against the point; both
must agree exactly with the reference built from the whole matrix, on
seeded flip walks over surfaces with punctures, two boundary components
and identified quadrilateral sides.  On the same walks a restricted
X-point flips to the unfrozen part of the unrestricted flip.
"""

import random
import sys
from fractions import Fraction

import pytest

from sl3shear.seeds import Sl3IndexSet, exchange_matrix, extended_matrix, flip_mutation_sequence
from sl3shear.surface import FlipCreatesSelfFolded, MarkedSurfaceSpec, build
from sl3shear.tropical import (
    BadLabeling,
    TropicalPoint,
    apply_flip,
    apply_steps,
    ensemble,
    flip_x_closed_form,
)

F = Fraction

SURFACES = {
    "polygon24": MarkedSurfaceSpec.polygon(24),
    "punctured8_2": MarkedSurfaceSpec.punctured_polygon(8, 2),
    "punctured3_3": MarkedSurfaceSpec.punctured_polygon(3, 3),
    "annulus3_3": MarkedSurfaceSpec.annulus(3, 3),
    "annulus1_1": MarkedSurfaceSpec.annulus(1, 1),
    "torus": MarkedSurfaceSpec.once_punctured_torus(),
}
STEPS = 10


def _random_coords(rng, indices):
    # about a third of the entries are zero, so sparse supports show up
    out = {}
    for i in indices:
        if rng.random() < 0.65:
            out[i] = F(rng.randint(-20, 20), rng.randint(1, 8))
    return out


def _walk(name):
    """(triangulation, flipped edge) pairs of a seeded random flip walk."""
    rng = random.Random(f"locality:{name}")
    tri = build(SURFACES[name])
    taken = 0
    while taken < STEPS:
        e = rng.choice(tri.interior_edges)
        try:
            t2, _ = tri.flip_edge(e)
        except FlipCreatesSelfFolded:
            continue
        yield rng, tri, e
        tri = t2
        taken += 1


def _reference_flip(p, tri, e):
    steps, t2, _ = flip_mutation_sequence(tri, e)
    _, eps = exchange_matrix(tri)
    q, _ = apply_steps(p, eps, steps, tri_after=t2)
    return q


def _reference_ensemble(a, tri):
    _, ext = extended_matrix(tri)
    out = {}
    for (i, j), v in ext.entries.items():
        out[i] = out.get(i, F(0)) + v * a[j]
    return TropicalPoint("X", out, tri=tri)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_apply_flip_matches_global_reference(name):
    for rng, tri, e in _walk(name):
        iset = Sl3IndexSet(tri)
        points = [
            TropicalPoint("X", _random_coords(rng, iset.all), tri=tri),
            TropicalPoint("X", _random_coords(rng, iset.unfrozen), tri=tri, restricted=True),
            TropicalPoint("A", _random_coords(rng, iset.all), tri=tri),
        ]
        for p in points:
            q = apply_flip(p, tri, e)
            ref = _reference_flip(p, tri, e)
            assert q == ref
            assert q.tri.tri_sides == ref.tri.tri_sides
            assert all(q.tri.slots(e2) == ref.tri.slots(e2) for e2 in ref.tri.edges)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_ensemble_matches_extended_matrix_product(name):
    for rng, tri, _ in _walk(name):
        iset = Sl3IndexSet(tri)
        for _ in range(3):
            a = TropicalPoint("A", _random_coords(rng, iset.all), tri=tri)
            assert ensemble(a, tri) == _reference_ensemble(a, tri)


def test_flip_and_ensemble_never_build_the_global_matrix(monkeypatch):
    tri = build(MarkedSurfaceSpec.polygon(48))
    rng = random.Random("locality:polygon48")
    iset = Sl3IndexSet(tri)
    e = tri.interior_edges[len(tri.interior_edges) // 2]
    x = TropicalPoint("X", _random_coords(rng, iset.all), tri=tri)
    a = TropicalPoint("A", _random_coords(rng, iset.all), tri=tri)
    want = (_reference_flip(x, tri, e), _reference_flip(a, tri, e), _reference_ensemble(a, tri))

    def refuse(*args, **kwargs):
        raise AssertionError("the global matrix was built")

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "sl3shear" or mod_name.startswith("sl3shear."):
            for attr in ("exchange_matrix", "extended_matrix", "m_matrix"):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, refuse)
    got = (apply_flip(x, tri, e), apply_flip(a, tri, e), ensemble(a, tri))
    assert got == want


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_restricted_flip_is_the_unfrozen_part(name):
    for rng, tri, e in _walk(name):
        iset = Sl3IndexSet(tri)
        coords = _random_coords(rng, iset.unfrozen)
        r = TropicalPoint("X", coords, tri=tri, restricted=True)
        full = apply_flip(TropicalPoint("X", coords, tri=tri), tri, e)
        frozen = Sl3IndexSet(full.tri).frozen
        want = {i: v for i, v in full.coords.items() if i not in frozen}
        assert apply_flip(r, tri, e).coords == want
        try:
            closed = flip_x_closed_form(r, tri, e)
        except BadLabeling:
            continue
        assert closed.coords == want
