"""Flips and the ensemble map against the global exchange matrix.

``apply_flip`` mutates only the quadrilateral of the flipped edge and
``ensemble`` folds the elementary triangle quiver against the point; both
must agree exactly with the reference built from the whole matrix, on
seeded flip walks over surfaces with punctures, two boundary components
and identified quadrilateral sides, and the ensemble map keeps no table
in any triangulation's memo.  On the same walks a restricted X-point
flips to the unfrozen part of the unrestricted flip, the flipped
triangulation edited in place equals one built from scratch, and the
integer Dynkin fold equals its mutation sequence.
"""

import gc
import random
import sys
import weakref
from fractions import Fraction

import pytest

import mutation_reference as ref
from surface_reference import canonical_form
from sl3shear.seeds import Sl3IndexSet, flip_plan
from sl3shear.surface import FlipCreatesSelfFolded, IdealTriangulation, MarkedSurfaceSpec, build
from sl3shear.tropical import (
    TropicalPoint,
    apply_flip,
    dynkin_cluster,
    dynkin_cluster_by_mutation,
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


def _walk(name, steps=STEPS):
    """(triangulation, flipped edge) pairs of a seeded random flip walk."""
    rng = random.Random(f"locality:{name}")
    tri = build(SURFACES[name])
    taken = 0
    while taken < steps:
        e = rng.choice(tri.interior_edges)
        try:
            t2, _ = tri.flip_edge(e)
        except FlipCreatesSelfFolded:
            continue
        yield rng, tri, e
        tri = t2
        taken += 1


def _reference_flip(p, tri, e):
    """The paper's flip sequence run on ``p`` and the dense exchange
    matrix of ``tri`` by the reference rules."""
    t2, _ = tri.flip_edge(e)
    coords = ref.apply_steps(tri, p.kind, p.coords, ref.flip_sequence(tri, e), p.restricted)
    return TropicalPoint(p.kind, coords, tri=t2, restricted=p.restricted)


def _reference_ensemble(a, tri):
    return TropicalPoint("X", ref.ensemble(ref.extended_matrix(tri), a.coords), tri=tri)


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


def _refuse_in_library(monkeypatch, attrs, what):
    """Patch each of ``attrs`` to raise in every ``sl3shear`` module that
    binds it."""

    def refuse(*args, **kwargs):
        raise AssertionError(what)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "sl3shear" or mod_name.startswith("sl3shear."):
            for attr in attrs:
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, refuse)


def test_flip_and_ensemble_never_build_the_global_matrix(monkeypatch):
    tri = build(MarkedSurfaceSpec.polygon(48))
    rng = random.Random("locality:polygon48")
    iset = Sl3IndexSet(tri)
    e = tri.interior_edges[len(tri.interior_edges) // 2]
    x = TropicalPoint("X", _random_coords(rng, iset.all), tri=tri)
    a = TropicalPoint("A", _random_coords(rng, iset.all), tri=tri)
    want = (
        _reference_flip(x, tri, e),
        _reference_flip(a, tri, e),
        _reference_ensemble(a, tri),
        dynkin_cluster(x, tri),
    )
    _refuse_in_library(monkeypatch, ("exchange_matrix", "m_matrix"), "the global matrix was built")
    got = [apply_flip(x, tri, e), apply_flip(a, tri, e), ensemble(a, tri)]
    # a flip plan mutates its local quiver, so matrix mutation is refused
    # only around the Dynkin composite, which needs none
    with monkeypatch.context() as m:
        _refuse_in_library(m, ("mutate_matrix",), "a matrix was mutated")
        got.append(dynkin_cluster_by_mutation(x, tri))
    assert tuple(got) == want


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
        assert flip_x_closed_form(r, tri, e).coords == want


def _fresh_flip(tri, e):
    """The flip at ``e`` built from scratch: the two new triangles, every
    edge's left slot moved with its side, and everything else derived by
    the constructor."""
    (tl, il), (tr, ir) = tri.slots(e)
    g, f = tri.tri_sides[tl][(il + 1) % 3], tri.tri_sides[tl][(il + 2) % 3]
    h, k = tri.tri_sides[tr][(ir + 1) % 3], tri.tri_sides[tr][(ir + 2) % 3]
    tri_sides = dict(tri.tri_sides)
    tri_sides[tl] = (e, k, g)
    tri_sides[tr] = (f, h, e)
    role = {
        (tl, (il + 1) % 3): (tl, 2),
        (tl, (il + 2) % 3): (tr, 0),
        (tr, (ir + 1) % 3): (tr, 1),
        (tr, (ir + 2) % 3): (tl, 1),
    }
    slot_l = {x: role.get(tri.slots(x)[0], tri.slots(x)[0]) for x in tri.edges}
    slot_l[e] = (tl, 0)
    return IdealTriangulation(tri_sides, slot_l=slot_l)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_local_flip_equals_fresh_build(name):
    for _, tri, e in _walk(name, steps=40):
        t2, _ = tri.flip_edge(e)
        ref = _fresh_flip(tri, e)
        assert t2.tri_sides == ref.tri_sides
        assert all(t2.slots(x) == ref.slots(x) for x in ref.edges)
        corners = [(t, i) for t in ref.triangles for i in range(3)]
        assert [t2.corner_vertex(*c) for c in corners] == [ref.corner_vertex(*c) for c in corners]
        assert list(t2.vertices.items()) == list(ref.vertices.items())
        assert all(t2.corners_at_vertex(v) == ref.corners_at_vertex(v) for v in ref.vertices)
        assert [t2.edge_endpoints(x) for x in ref.edges] == [ref.edge_endpoints(x) for x in ref.edges]
        for attr in ("triangles", "edges", "interior_edges", "boundary_intervals"):
            assert getattr(t2, attr) == getattr(ref, attr)
        assert canonical_form(t2) == canonical_form(ref)
        assert t2.validate() == []


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_flips_are_memoized_and_refusals_are_not(name):
    rng = random.Random(f"memo:{name}")
    tri = build(SURFACES[name])
    refused = 0
    for _ in range(40):
        e = rng.choice(tri.interior_edges)
        try:
            flip = tri.flip_edge(e)
        except FlipCreatesSelfFolded:
            refused += 1
            assert ("flip", e) not in tri.memo
            with pytest.raises(FlipCreatesSelfFolded):
                apply_flip(TropicalPoint("X", {}, tri=tri), tri, e)
            assert ("flip", e) not in tri.memo and ("flip plan", e) not in tri.memo
            continue
        again = tri.flip_edge(e)
        assert again is flip
        assert again[0] is flip[0] and again[1] is flip[1]
        plan = flip_plan(tri, e)
        assert plan.tri is flip[0] and plan.corr is flip[1]
        assert flip_plan(tri, e) is plan
        tri = flip[0]
    # the punctured walks also try flips that would fold a triangle
    assert (refused > 0) == name.startswith("punctured")


def test_refused_flip_is_not_memoized():
    tri = build(MarkedSurfaceSpec.punctured_polygon(2, 1))
    for _ in range(2):
        with pytest.raises(FlipCreatesSelfFolded):
            tri.flip_edge("r0")
        assert ("flip", "r0") not in tri.memo


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_memo_does_not_keep_old_triangulations_alive(name):
    """Reference counting alone frees the walk's first triangulation: no
    memoized value refers back to the triangulation that holds it."""
    rng = random.Random(f"weakref:{name}")
    tri = build(SURFACES[name])
    labels = Sl3IndexSet(tri).all  # a flip keeps every index label
    first = weakref.ref(tri)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        taken = 0
        while taken < 50:
            e = rng.choice(tri.interior_edges)
            a = TropicalPoint("A", _random_coords(rng, labels), tri=tri)
            x = ensemble(a, tri)
            try:
                q = apply_flip(x, tri, e)
            except FlipCreatesSelfFolded:
                continue
            apply_flip(a, tri, e)
            flip_x_closed_form(x, tri, e)
            dynkin_cluster(q, q.tri)
            tri = q.tri
            taken += 1
        assert first() is None
    finally:
        if was_enabled:
            gc.enable()


# what a triangulation's memo may hold: its flips and flip plans per edge
MEMO_KINDS = {"flip", "flip plan"}


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_flipped_ensemble_equals_fresh_build_and_keeps_no_table(name):
    """The ensemble map of a flipped point equals the dense eps + m
    reference on the flip built from scratch, and it leaves nothing in
    the memo of any triangulation along the walk."""
    walked = []
    for rng, tri, e in _walk(name, steps=20):
        iset = Sl3IndexSet(tri)
        a = TropicalPoint("A", _random_coords(rng, iset.all), tri=tri)
        before = dict(tri.memo)
        ensemble(a, tri)
        assert tri.memo == before
        a2 = apply_flip(a, tri, e)
        before = dict(a2.tri.memo)
        assert ensemble(a2, a2.tri) == _reference_ensemble(a2, _fresh_flip(tri, e))
        assert a2.tri.memo == before
        walked += [tri, a2.tri]
    for t in walked:
        assert "extended columns" not in t.memo
        assert {k if isinstance(k, str) else k[0] for k in t.memo} <= MEMO_KINDS


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_dynkin_fold_equals_mutation_sequence_after_flips(name):
    for rng, tri, e in _walk(name):
        t2, _ = tri.flip_edge(e)
        iset = Sl3IndexSet(t2)
        for _ in range(3):
            p = TropicalPoint("X", _random_coords(rng, iset.all), tri=t2)
            q = dynkin_cluster(p, t2)
            assert q == dynkin_cluster_by_mutation(p, t2)
            assert dynkin_cluster(q, t2) == p
