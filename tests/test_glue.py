import random
from fractions import Fraction

import pytest

from sl3shear.glue import (
    ShiftElement,
    UnknownInterval,
    glue_coordinates,
    glue_laminations,
    shift_action,
)
from sl3shear.laminations import (
    Component,
    ComponentSum,
    GlobalPicture,
    Honeycomb,
    PinnedLamination,
    elementary_lamination,
    shear_frozen,
    shear_unfrozen,
)
from sl3shear.reconstruct import identifier_relations, reconstruct
from sl3shear.seeds import Sl3IndexSet
from sl3shear.surface import MarkedSurfaceSpec, SameEdge, build
from sl3shear.tropical import TropicalPoint, apply_flip, ensemble
from sl3shear.verify import (
    _glued_expectation,
    random_pinned_two_triangles,
    two_triangle_fixture,
)

F = Fraction


def test_glue_coordinates_examples():
    assert glue_coordinates((F(1), F(0)), (F(0), F(2))) == (F(3), F(0))
    assert glue_coordinates((F(0), F(0)), (F(0), F(0))) == (F(0), F(0))


def test_shift_examples(two_triangles):
    pl = PinnedLamination(GlobalPicture(two_triangles), {})
    out = shift_action(pl, "a2", "b0", ShiftElement(F(1), F(0)))
    assert out.delta["a2"] == (F(1), F(0))
    assert out.delta["b0"] == (F(0), F(-1))
    same = shift_action(pl, "a2", "b0", ShiftElement(F(0), F(0)))
    assert same.delta.get("a2", (F(0), F(0))) == (F(0), F(0))
    with pytest.raises(UnknownInterval):
        shift_action(pl, "a2", "nope", ShiftElement(F(1), F(1)))
    glued = glue_laminations(pl, "a2", "b0")
    with pytest.raises(UnknownInterval):
        shift_action(glued, "a2", "a0", ShiftElement(F(1), F(1)))


def test_glue_empty_triangles(two_triangles):
    pl = PinnedLamination(GlobalPicture(two_triangles), {})
    glued = glue_laminations(pl, "a2", "b0")
    assert shear_frozen(glued).coords == {}
    assert glued.tri.is_interior("a2")


def test_glue_same_edge_rejected(two_triangles):
    pl = PinnedLamination(GlobalPicture(two_triangles), {})
    with pytest.raises(SameEdge):
        glue_laminations(pl, "a2", "a2")


def test_glue_tau_plus_with_empty(two_triangles):
    pic = GlobalPicture(two_triangles, {"T0": Honeycomb("sink", 1)})
    pl = PinnedLamination(pic, {})
    x = shear_frozen(pl)
    glued = glue_laminations(pl, "a2", "b0")
    assert dict(shear_frozen(glued).coords) == _glued_expectation(x, "a2", "b0")


def test_glue_elementary_patterns(two_triangles):
    # left frozen elementary glued with an empty right gives the interior
    # elementary pattern; glued with the matching right elementary the
    # contributions add
    left = elementary_lamination(two_triangles, ("edge", "a2", 1))
    glued = glue_laminations(left, "a2", "b0")
    assert dict(shear_frozen(glued).coords) == {("edge", "a2", 1): F(-1)}
    both = PinnedLamination(
        GlobalPicture(two_triangles), {"a2": (F(-1), F(0)), "b0": (F(0), F(-1))}
    )
    glued2 = glue_laminations(both, "a2", "b0")
    assert dict(shear_frozen(glued2).coords) == {("edge", "a2", 1): F(-2)}


def test_amalgamation_random(two_triangles):
    rng = random.Random(11)
    for _ in range(120):
        pl = random_pinned_two_triangles(rng)
        x = shear_frozen(pl)
        glued = glue_laminations(pl, "a2", "b0")
        assert dict(shear_frozen(glued).coords) == _glued_expectation(x, "a2", "b0")


def test_shift_invariance_random(two_triangles):
    rng = random.Random(12)
    for _ in range(60):
        pl = random_pinned_two_triangles(rng, integral=bool(rng.getrandbits(1)))
        mu = ShiftElement(F(rng.randint(-9, 9), rng.randint(1, 3)), F(rng.randint(-9, 9), rng.randint(1, 3)))
        g1 = glue_laminations(pl, "a2", "b0")
        g2 = glue_laminations(shift_action(pl, "a2", "b0", mu), "a2", "b0")
        assert shear_frozen(g1) == shear_frozen(g2)


def test_glue_forming_annulus_and_puncture(polygon4):
    from sl3shear.reconstruct import reconstruct
    from sl3shear.laminations import add_peripheral_chain

    rng = random.Random(13)
    iset = Sl3IndexSet(polygon4)
    for el, er in (("b0", "b2"), ("b1", "b2")):
        for _ in range(60):
            coords = {i: F(rng.randint(-3, 3)) for i in iset.unfrozen}
            x = TropicalPoint("X", coords, tri=polygon4, restricted=True)
            pic = reconstruct(x, polygon4)
            for _ in range(rng.randint(0, 2)):
                pic = add_peripheral_chain(
                    pic, rng.choice(sorted(polygon4.vertices)), rng.choice(["cw", "ccw"])
                )
            delta = {
                e: (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
                for e in polygon4.boundary_intervals
            }
            pl = PinnedLamination(pic, delta)
            xf = shear_frozen(pl)
            glued = glue_laminations(pl, el, er)
            assert dict(shear_frozen(glued).coords) == _glued_expectation(xf, el, er)


def test_flip_glue_commutation(polygon4):
    """Flipping an edge inside one glued piece commutes with gluing, at
    the coordinate level (the amalgamation commutes with the cluster
    transformations)."""
    from sl3shear.surface import MarkedSurfaceSpec, build

    rng = random.Random(14)
    spec = MarkedSurfaceSpec.table(
        [
            ("T1", ("e0", "e1", "dd")),
            ("T2", ("dd", "e2", "e3")),
            ("T3", ("f0", "f1", "f2")),
        ]
    )
    sigma = build(spec)
    glued_surface, _ = sigma.glue_boundary("e3", "f0")
    iset = Sl3IndexSet(sigma)

    def amalgamate(p, tri_from, tri_to):
        coords = {}
        for i, v in p.coords.items():
            if i[0] == "edge" and i[1] == "f0":
                continue
            coords[i] = coords.get(i, F(0)) + v
        for s in (1, 2):
            add = p[("edge", "f0", 3 - s)]
            if add:
                coords[("edge", "e3", s)] = coords.get(("edge", "e3", s), F(0)) + add
        coords = {i: v for i, v in coords.items() if v}
        return TropicalPoint("X", coords, tri=tri_to, restricted=False)

    for _ in range(80):
        coords = {i: F(rng.randint(-8, 8), rng.randint(1, 4)) for i in iset.all}
        p = TropicalPoint("X", coords, tri=sigma)
        route_a = apply_flip(amalgamate(p, sigma, glued_surface), glued_surface, "dd")
        q = apply_flip(p, sigma, "dd")
        glued_after_flip, _ = q.tri.glue_boundary("e3", "f0")
        route_b = amalgamate(q, q.tri, glued_after_flip)
        assert route_a.coords == route_b.coords


def test_glue_ensemble_compatibility(two_triangles):
    """Gluing the geometric-ensemble image matches the coordinate route."""
    rng = random.Random(15)
    from sl3shear.verify import realizable_component_sum
    from sl3shear.laminations import geometric_ensemble, coords_of_components
    from sl3shear.reconstruct import reconstruct

    tri = two_triangles
    for _ in range(40):
        s = realizable_component_sum(tri, rng)
        pl = geometric_ensemble(s)
        x = shear_frozen(pl)
        want = _glued_expectation(x, "a2", "b0")
        # realize the component sum as a picture to glue it
        unfrozen = {i: v for i, v in x.coords.items() if i[0] == "tri"}
        pic = reconstruct(
            TropicalPoint("X", unfrozen, tri=tri, restricted=True), tri
        )
        delta = {}
        for e in tri.boundary_intervals:
            (t, i), _ = tri.slots(e)
            m = (t, (i - 1) % 3)
            from sl3shear.tropical import pos

            dp = x[("edge", e, 1)] + pic.corner_arc_weight(m, "cw")
            dm = x[("edge", e, 2)] + pic.corner_arc_weight(m, "ccw") + pos(pic.face_value(t))
            if dp or dm:
                delta[e] = (dp, dm)
        pl_pic = PinnedLamination(pic, delta)
        assert shear_frozen(pl_pic) == x
        glued = glue_laminations(pl_pic, "a2", "b0")
        assert dict(shear_frozen(glued).coords) == want


def test_glue_annulus_into_torus(annulus11, torus):
    """Gluing the two boundary circles of the annulus yields the
    once-punctured torus; core loops (which hug the merged puncture but
    circle a handle) must survive while genuine peripherals are removed
    and spirals are resolved at the new puncture."""
    from sl3shear.reconstruct import reconstruct
    from sl3shear.laminations import add_peripheral_chain

    t2, _ = annulus11.glue_boundary("b1", "b3")
    assert t2.is_isomorphic(torus)
    rng = random.Random(61)
    iset = Sl3IndexSet(annulus11)
    for _ in range(100):
        coords = {i: F(rng.randint(-3, 3)) for i in iset.unfrozen}
        from sl3shear.tropical import TropicalPoint

        x = TropicalPoint("X", coords, tri=annulus11, restricted=True)
        pic = reconstruct(x, annulus11)
        for _ in range(rng.randint(0, 2)):
            pic = add_peripheral_chain(
                pic, rng.choice(sorted(annulus11.vertices)), rng.choice(["cw", "ccw"])
            )
        delta = {
            e: (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
            for e in annulus11.boundary_intervals
        }
        pl = PinnedLamination(pic, delta)
        xf = shear_frozen(pl)
        glued = glue_laminations(pl, "b1", "b3")
        assert dict(shear_frozen(glued).coords) == _glued_expectation(xf, "b1", "b3")


def _pentagon(p):
    return [
        (f"{p}1", (f"{p}b0", f"{p}b1", f"{p}d2")),
        (f"{p}2", (f"{p}d2", f"{p}b2", f"{p}d3")),
        (f"{p}3", (f"{p}d3", f"{p}b3", f"{p}b4")),
    ]


def test_pictures_need_no_pairing_table(monkeypatch):
    """Reconstruct, shear, trace, glue and shear again without reading a
    pairing table: every reader pairs index i with n - 1 - i."""

    def no_table(pic):
        raise AssertionError("a pairing table was read")

    # raising=False: a picture that assigns a table in __init__ has no
    # class attribute to replace; the assignment then fails instead
    monkeypatch.setattr(GlobalPicture, "pairings", property(no_table), raising=False)
    tri = build(MarkedSurfaceSpec.table(_pentagon("L") + _pentagon("R")))
    rng = random.Random(5)
    x = TropicalPoint(
        "X", {i: F(rng.randint(-6, 6)) for i in Sl3IndexSet(tri).unfrozen}, tri=tri, restricted=True
    )
    pic = reconstruct(x, tri)
    assert shear_unfrozen(pic) == x
    assert identifier_relations(pic, x) == []
    delta = {e: (F(rng.randint(-3, 3)), F(rng.randint(-3, 3))) for e in tri.boundary_intervals}
    pinned = PinnedLamination(pic, delta)
    glued = glue_laminations(pinned, "Lb1", "Rb3")
    assert shear_frozen(glued).coords == _glued_expectation(shear_frozen(pinned), "Lb1", "Rb3")
