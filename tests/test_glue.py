import importlib
import random
import sys
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
    GlobalPicture,
    Honeycomb,
    PinnedLamination,
    shear_frozen,
    shear_unfrozen,
)
from sl3shear.reconstruct import (
    LOOP,
    Traveler,
    Turn,
    elementary_lamination,
    identifier_relations,
    reconstruct,
    traveler_trace,
)
from sl3shear.seeds import Sl3IndexSet
from sl3shear.surface import MarkedSurfaceSpec, SameEdge, build
from sl3shear.tropical import TropicalPoint, apply_flip, ensemble
from sl3shear.verify import (
    _glued_expectation,
    random_pinned_two_triangles,
    two_triangle_fixture,
)
from surface_reference import is_isomorphic

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


@pytest.mark.parametrize(
    "spec, e_l, e_r, coords, delta",
    [
        # the smallest case: -e_{d3,2} on a pentagon, nothing pinned
        (MarkedSurfaceSpec.polygon(5), "b2", "b0", {("edge", "d3", 2): -1}, {}),
        (
            MarkedSurfaceSpec.polygon(5), "b2", "b0",
            {("edge", "d2", 1): 3, ("edge", "d2", 2): -2, ("edge", "d3", 1): 4,
             ("edge", "d3", 2): 4, ("tri", "T3"): -3},
            {"b0": (0, 3), "b1": (-2, 4), "b2": (0, -5), "b3": (1, -1), "b4": (-3, 3)},
        ),
        (MarkedSurfaceSpec.annulus(2, 2), "b2", "b5", {("edge", "d4", 1): -1}, {}),
    ],
    ids=["polygon5-smallest", "polygon5-pinned", "annulus22"],
)
def test_self_gluing_keeps_arcs_winding_both_ways(spec, e_l, e_r, coords, delta):
    """Self-gluing two intervals of one surface merges marked points; an
    arc whose turns all sit at a merged point but wind both ways is not
    peripheral, and dropping it broke the crosswise formula."""
    tri = build(spec)
    x = TropicalPoint("X", {i: F(v) for i, v in coords.items()}, tri=tri, restricted=True)
    pinned = PinnedLamination(
        reconstruct(x, tri), {e: (F(a), F(b)) for e, (a, b) in delta.items()}
    )
    glued = glue_laminations(pinned, e_l, e_r)
    assert shear_frozen(glued).coords == _glued_expectation(shear_frozen(pinned), e_l, e_r)


def _turn_at(vertex, orient):
    return Turn(None, orient, vertex, None, None)


def test_peripheral_needs_one_winding_around_one_vertex():
    boundary = ("boundary", None)
    one_way = [_turn_at("v0", "cw"), _turn_at("v0", "cw")]
    both_ways = [_turn_at("v0", "cw"), _turn_at("v0", "ccw")]
    two_points = [_turn_at("v0", "cw"), _turn_at("v1", "cw")]
    sink = ("sink", "T")
    for turns, peripheral in ((one_way, True), (both_ways, False), (two_points, False)):
        # a closed loop, and an arc from boundary to boundary
        assert Traveler(turns, LOOP, LOOP, ([], [])).peripheral is peripheral
        assert Traveler(turns, boundary, boundary, ([], [])).peripheral is peripheral
        # an arc with an end off the boundary never is
        assert not Traveler(turns, boundary, sink, ([], [])).peripheral
        assert not Traveler(turns, sink, boundary, ([], [])).peripheral


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
    from sl3shear.tropical import ensemble

    tri = two_triangles
    for _ in range(40):
        s = realizable_component_sum(tri, rng)
        pl = geometric_ensemble(s)
        x = shear_frozen(pl)
        assert x.coords == ensemble(coords_of_components(s), tri).coords
        want = _glued_expectation(x, "a2", "b0")
        glued = glue_laminations(pl, "a2", "b0")
        assert dict(shear_frozen(glued).coords) == want


def test_glue_annulus_into_torus(annulus11, torus):
    """Gluing the two boundary circles of the annulus yields the
    once-punctured torus; core loops (which hug the merged puncture but
    circle a handle) must survive while genuine peripherals are removed
    and spirals are resolved at the new puncture."""
    from sl3shear.reconstruct import reconstruct
    from sl3shear.laminations import add_peripheral_chain

    t2, _ = annulus11.glue_boundary("b1", "b3")
    assert is_isomorphic(t2, torus)
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


def test_visited_states_cover_every_turn(monkeypatch, polygon4, torus):
    """The component loop records a walk's crossings and its spiral
    end's state.  Every other state a turn continues from is the walk's
    next crossing (forward) or an incoming state (backward), which no
    seed is; checked on each walk of reconstruction, traveler tracing and
    gluing, told apart by the function that runs the component loop,
    spirals included."""
    module = importlib.import_module("sl3shear.reconstruct")
    original = module.walk
    callers = {"trace_coordinates", "traveler_trace", "glue_laminations"}
    seen = set()

    def checked(stepper, seed, forward):
        crossings, turns, end = original(stepper, seed, forward)
        if forward:
            spiral_states = {end[3]} if end[0] == "spiral" else set()
            assert {t.state for t in turns} <= set(crossings) | spiral_states
        else:
            assert all(t.state[1] == "in" for t in turns)
        frame = sys._getframe(1)
        while frame.f_code.co_name not in callers:
            frame = frame.f_back
        seen.add((frame.f_code.co_name, end[0] == "spiral"))
        return crossings, turns, end

    monkeypatch.setattr(module, "walk", checked)
    rng = random.Random(4)
    for tri in (polygon4, torus):
        iset = Sl3IndexSet(tri)
        for _ in range(12):
            x = TropicalPoint(
                "X", {i: F(rng.randint(-4, 4)) for i in iset.unfrozen}, tri=tri, restricted=True
            )
            pic = reconstruct(x, tri)
            assert identifier_relations(pic, x) == []
            if tri is polygon4:
                delta = {
                    e: (F(rng.randint(-3, 3)), F(rng.randint(-3, 3))) for e in tri.boundary_intervals
                }
                # b1 and b2 share a marked point, which becomes a puncture
                traveler_trace(glue_laminations(PinnedLamination(pic, delta), "b1", "b2").underlying)
    assert {name for name, _ in seen} == {"trace_coordinates", "traveler_trace", "glue_laminations"}
    assert ("trace_coordinates", True) in seen and ("glue_laminations", True) in seen
