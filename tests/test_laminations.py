import json
import random
from fractions import Fraction
from functools import cached_property

import pytest

from sl3shear import io as jio
from sl3shear.glue import glue_laminations
from sl3shear.laminations import (
    CarrierMismatch,
    Component,
    ComponentSum,
    CornerArc,
    GlobalPicture,
    Honeycomb,
    InvalidPicture,
    PinnedLamination,
    SpiralEnd,
    UnknownComponentKind,
    add_peripheral_chain,
    coords_of_components,
    geometric_ensemble,
    normalize_integral,
    shear_frozen,
    shear_unfrozen,
)
from sl3shear.reconstruct import (
    elementary_lamination,
    identifier_relations,
    reconstruct,
    reconstruct_pinned,
    traveler_trace,
)
from sl3shear.seeds import Sl3IndexSet, side_pair
from sl3shear.surface import MarkedSurfaceSpec, build
from sl3shear.tropical import TropicalPoint, dynkin_cluster, ensemble
from sl3shear.verify import _glued_expectation, random_pinned_two_triangles, realizable_component_sum

F = Fraction


def quad_corners(tri):
    """(t-corner of T_L, b-corner of T_L, t-corner of T_R, b-corner of T_R)
    of the unique interior edge."""
    e = tri.interior_edges[0]
    (tl, il), (tr, ir) = tri.slots(e)
    return {
        "e": e,
        "tl": tl,
        "tr": tr,
        "t_left": (tl, il % 3),
        "b_left": (tl, (il - 1) % 3),
        "t_right": (tr, (ir - 1) % 3),
        "b_right": (tr, ir % 3),
    }


def one_curve_picture(tri, kind, weight=F(1)):
    """The four curve components of the flip quadrilateral as pictures,
    at ``weight``."""
    q = quad_corners(tri)
    arcs = {
        "alpha+": [(q["t_left"], "ccw"), (q["b_right"], "cw")],
        "alpha+rev": [(q["t_left"], "cw"), (q["b_right"], "ccw")],
        "alpha-": [(q["b_left"], "cw"), (q["t_right"], "ccw")],
        "alpha-rev": [(q["b_left"], "ccw"), (q["t_right"], "cw")],
    }[kind]
    corners = {}
    for corner, orient in arcs:
        corners.setdefault(corner, []).append(CornerArc(orient))
    return GlobalPicture(tri, corners=corners, weight=weight)


def honeycomb_pattern_picture(tri, kind):
    q = quad_corners(tri)
    hcs = {
        "tau+L": ({q["tl"]: Honeycomb("sink", 1)}, [(q["t_right"], "cw")]),
        "tau+R": ({q["tl"]: Honeycomb("sink", 1)}, [(q["b_right"], "ccw")]),
        "tau-L": ({q["tl"]: Honeycomb("source", 1)}, [(q["t_right"], "ccw")]),
        "tau-R": ({q["tl"]: Honeycomb("source", 1)}, [(q["b_right"], "cw")]),
        "h": ({q["tl"]: Honeycomb("sink", 1), q["tr"]: Honeycomb("source", 1)}, []),
        "h-rev": ({q["tl"]: Honeycomb("source", 1), q["tr"]: Honeycomb("sink", 1)}, []),
    }
    honeycombs, arcs = hcs[kind]
    corners = {}
    for corner, orient in arcs:
        corners.setdefault(corner, []).append(CornerArc(orient))
    return GlobalPicture(tri, honeycombs, corners)


def drawn_x(s):
    """The X-coordinates of a component sum: the shear of its picture."""
    return shear_frozen(PinnedLamination(s.picture(), {}))


def test_empty_picture_shear(polygon4):
    assert shear_unfrozen(GlobalPicture(polygon4)).coords == {}


def test_single_curve_contribution(polygon4):
    q = quad_corners(polygon4)
    u = F(5, 3)
    pic = one_curve_picture(polygon4, "alpha+", u)
    x = shear_unfrozen(pic)
    assert dict(x.coords) == {("edge", q["e"], 1): u}


@pytest.mark.parametrize(
    "kind,entry",
    [("alpha+", ((1, 0))), ("alpha+rev", (0, 1)), ("alpha-", (-1, 0)), ("alpha-rev", (0, -1))],
)
def test_curve_corridors(polygon4, kind, entry):
    q = quad_corners(polygon4)
    x = shear_unfrozen(one_curve_picture(polygon4, kind))
    want = {}
    if entry[0]:
        want[("edge", q["e"], 1)] = F(entry[0])
    if entry[1]:
        want[("edge", q["e"], 2)] = F(entry[1])
    assert dict(x.coords) == want


def test_honeycomb_split_contributions(polygon4):
    """A sink of height n1+n2+n3 in T_L: n1 legs exit via the top of T_R,
    n2 bridge into a source, n3 exit via the bottom; the face counts the
    height, the bridged legs contribute only via the far face."""
    q = quad_corners(polygon4)
    n1, n2, n3 = 2, 1, 3
    corners = {
        q["t_right"]: [CornerArc("cw")] * n1,
        q["b_right"]: [CornerArc("ccw")] * n3,
    }
    pic = GlobalPicture(
        polygon4,
        {q["tl"]: Honeycomb("sink", n1 + n2 + n3), q["tr"]: Honeycomb("source", n2)},
        corners,
    )
    x = shear_unfrozen(pic)
    assert x[("tri", q["tl"])] == n1 + n2 + n3
    assert x[("tri", q["tr"])] == -n2
    assert x[("edge", q["e"], 2)] == -n1
    assert x[("edge", q["e"], 1)] == 0


def test_honeycomb_decomposition(polygon4):
    """x of the (n1, n2, n3) pattern equals n1 x(tau+L) + n2 x(h) + n3
    x(tau+R)."""
    q = quad_corners(polygon4)
    n1, n2, n3 = 2, 1, 3
    corners = {
        q["t_right"]: [CornerArc("cw")] * n1,
        q["b_right"]: [CornerArc("ccw")] * n3,
    }
    whole = shear_unfrozen(
        GlobalPicture(
            polygon4,
            {q["tl"]: Honeycomb("sink", n1 + n2 + n3), q["tr"]: Honeycomb("source", n2)},
            corners,
        )
    )
    parts = {}
    for kind, n in (("tau+L", n1), ("h", n2), ("tau+R", n3)):
        comp = drawn_x(ComponentSum(polygon4, [Component(kind, q["e"], F(n))]))
        for i, v in comp.coords.items():
            parts[i] = parts.get(i, F(0)) + v
    unfrozen = set(Sl3IndexSet(polygon4).unfrozen)
    assert {i: v for i, v in parts.items() if i in unfrozen} == dict(whole.coords)


@pytest.mark.parametrize(
    "kind", ["alpha+", "alpha+rev", "alpha-", "alpha-rev", "tau+L", "tau+R", "tau-L", "tau-R", "h", "h-rev"]
)
def test_rule_consistency_tables_vs_pictures(polygon4, kind):
    """The drawer places a quadrilateral component as the hand-drawn
    one-component picture, so the two have one shear (unfrozen part and,
    with zero pinnings, the frozen part too)."""
    q = quad_corners(polygon4)
    if kind.startswith("alpha"):
        pic = one_curve_picture(polygon4, kind)
    else:
        pic = honeycomb_pattern_picture(polygon4, kind)
    drawn = ComponentSum(polygon4, [Component(kind, q["e"])]).picture()
    assert drawn.corners == pic.corners
    assert drawn.honeycombs == pic.honeycombs
    full = shear_frozen(PinnedLamination(pic, {}))
    assert dict(full.coords) == dict(shear_frozen(PinnedLamination(drawn, {})).coords)


# The paper's X-coordinates of the components, the reference the drawn
# pictures are held to.  Triangle rows at corner 0 (terminal corner of
# side 0), as (face, ((p,q) of side 0, side 1, side 2)).  Quadrilateral
# rows as (E, TL, TR, h, k, g, f): E = (x_{E,1}, x_{E,2}); h, k are the
# other sides of the right triangle in ccw order after the diagonal, g, f
# those of the left triangle; side entries are (p, q) pairs in the
# traversal of the triangle containing them.
TRI_X = {
    "alpha": (0, ((0, 0), (0, -1), (0, 0))),
    "alpha-star": (0, ((0, 0), (-1, 0), (0, 0))),
    "tau+": (1, ((0, -1),) * 3),
    "tau-": (-1, ((0, 0),) * 3),
}
QUAD_X = {
    "alpha+":    ((1, 0), 0, 0, (-1, 0), (0, 0), (0, -1), (0, 0)),
    "alpha+rev": ((0, 1), 0, 0, (0, -1), (0, 0), (-1, 0), (0, 0)),
    "alpha-":    ((-1, 0), 0, 0, (0, 0), (0, 0), (0, 0), (0, 0)),
    "alpha-rev": ((0, -1), 0, 0, (0, 0), (0, 0), (0, 0), (0, 0)),
    "tau+L": ((0, -1), 1, 0, (0, 0), (0, 0), (0, -1), (0, -1)),
    "tau+R": ((0, 0), 1, 0, (0, -1), (0, 0), (0, -1), (0, -1)),
    "tau-L": ((0, 0), -1, 0, (0, 0), (0, 0), (0, 0), (0, 0)),
    "tau-R": ((1, 0), -1, 0, (-1, 0), (0, 0), (0, 0), (0, 0)),
    "h":     ((0, 0), 1, -1, (0, 0), (0, 0), (0, -1), (0, -1)),
    "h-rev": ((0, 0), -1, 1, (0, -1), (0, -1), (0, 0), (0, 0)),
}


# The paper's A-coordinates of the components, in the same row layout as
# TRI_X and QUAD_X.
T, TT = F(1, 3), F(2, 3)
TRI_A = {
    "alpha": (TT, ((TT, T), (T, TT), (0, 0))),
    "alpha-star": (T, ((T, TT), (TT, T), (0, 0))),
    "tau+": (1, ((T, TT),) * 3),
    "tau-": (1, ((TT, T),) * 3),
}
QUAD_A = {
    "alpha+":    ((TT, T), TT, T, (TT, T), (0, 0), (T, TT), (0, 0)),
    "alpha+rev": ((T, TT), T, TT, (T, TT), (0, 0), (TT, T), (0, 0)),
    "alpha-":    ((TT, T), T, TT, (0, 0), (TT, T), (0, 0), (T, TT)),
    "alpha-rev": ((T, TT), TT, T, (0, 0), (T, TT), (0, 0), (TT, T)),
    "tau+L": ((T, TT), 1, T, (0, 0), (T, TT), (T, TT), (T, TT)),
    "tau+R": ((T, TT), 1, TT, (T, TT), (0, 0), (T, TT), (T, TT)),
    "tau-L": ((TT, T), 1, TT, (0, 0), (TT, T), (TT, T), (TT, T)),
    "tau-R": ((TT, T), 1, T, (TT, T), (0, 0), (TT, T), (TT, T)),
    "h":     ((T, TT), 1, 1, (TT, T), (TT, T), (T, TT), (T, TT)),
    "h-rev": ((TT, T), 1, 1, (T, TT), (T, TT), (TT, T), (TT, T)),
}


def _row_coords(tri, values):
    """A table row as a coordinate map: ``values`` pairs a global index
    or a slot (whose side pair takes a (p, q) entry) with its value."""
    x = {}
    for where, v in values:
        pairs = zip(side_pair(tri, where), v) if isinstance(v, tuple) else [(where, v)]
        for i, vi in pairs:
            x[i] = x.get(i, F(0)) + vi
    return {i: F(v) for i, v in x.items() if v}


def _triangle_row(tri, t, row, corner):
    face, sides = row
    return _row_coords(tri, [(("tri", t), face)] + [((t, (corner + j) % 3), sides[j]) for j in range(3)])


def _quad_row(tri, e, row):
    (tl, il), (tr, ir) = tri.slots(e)
    ev, tlv, trv, hv, kv, gv, fv = row
    return _row_coords(tri, [
        (("edge", e, 1), ev[0]), (("edge", e, 2), ev[1]), (("tri", tl), tlv), (("tri", tr), trv),
        ((tr, (ir + 1) % 3), hv), ((tr, (ir + 2) % 3), kv),
        ((tl, (il + 1) % 3), gv), ((tl, (il + 2) % 3), fv),
    ])


@pytest.mark.parametrize("kind", sorted(TRI_X))
@pytest.mark.parametrize("corner", [0, 1, 2])
def test_drawn_triangle_components_meet_the_paper_rows(triangle, kind, corner):
    t = triangle.triangles[0]
    want = _triangle_row(triangle, t, TRI_X[kind], corner if kind.startswith("alpha") else 0)
    weight = F(3, 2)
    x = drawn_x(ComponentSum(triangle, [Component(kind, t, weight, corner=corner)]))
    assert dict(x.coords) == {i: weight * v for i, v in want.items()}


@pytest.mark.parametrize("kind", sorted(QUAD_X))
def test_drawn_quadrilateral_components_meet_the_paper_rows(polygon4, kind):
    e = polygon4.interior_edges[0]
    want = _quad_row(polygon4, e, QUAD_X[kind])
    weight = F(2, 5)
    x = drawn_x(ComponentSum(polygon4, [Component(kind, e, weight)]))
    assert dict(x.coords) == {i: weight * v for i, v in want.items()}


def test_components_meet_the_paper_a_rows(triangle, polygon4):
    """The A-coordinates of every triangle and quadrilateral kind are the
    paper's rows times the weight, exactly, for a Fraction and an int
    weight; a peripheral component's scale linearly in a signed weight;
    and a sum the drawer refuses still gets the sum of its parts."""

    def a_coords(tri, comps):
        a = coords_of_components(ComponentSum(tri, comps))
        assert all(type(v) is Fraction for v in a.coords.values())
        return dict(a.coords)

    t = triangle.triangles[0]
    e = polygon4.interior_edges[0]
    for weight in (F(3, 2), 2):
        for kind, row in TRI_A.items():
            for corner in range(3):
                want = _triangle_row(triangle, t, row, corner if kind.startswith("alpha") else 0)
                got = a_coords(triangle, [Component(kind, t, weight, corner=corner)])
                assert got == {i: weight * v for i, v in want.items()}, (kind, corner, weight)
        for kind, row in QUAD_A.items():
            want = _quad_row(polygon4, e, row)
            got = a_coords(polygon4, [Component(kind, e, weight)])
            assert got == {i: weight * v for i, v in want.items()}, (kind, weight)
    for m in sorted(polygon4.vertices):
        for kind in ("peripheral-cw", "peripheral-ccw"):
            two = a_coords(polygon4, [Component(kind, m, 2)])
            assert two
            assert a_coords(polygon4, [Component(kind, m, F(-3, 2))]) == {
                i: F(-3, 4) * v for i, v in two.items()
            }
    both = [Component("tau+", t, F(1, 2)), Component("tau-", t, 3)]
    parts = [a_coords(triangle, [c]) for c in both]
    assert a_coords(triangle, both) == {
        i: v for i in parts[0].keys() | parts[1].keys() if (v := parts[0].get(i, 0) + parts[1].get(i, 0))
    }
    with pytest.raises(InvalidPicture, match="sink and a source"):
        ComponentSum(triangle, both).picture()


@pytest.mark.parametrize("orient", ["cw", "ccw"])
def test_drawn_peripheral_components_meet_the_paper_rows(polygon4, orient):
    """A peripheral component is seen by the frozen coordinates alone:
    minus its weight at (E, 1) (cw) or (E, 2) (ccw) of the boundary
    interval E that starts at its marked point."""
    for m in sorted(polygon4.vertices):
        (e,) = [e for e in polygon4.boundary_intervals if polygon4.edge_endpoints(e)[0] == m]
        x = drawn_x(ComponentSum(polygon4, [Component(f"peripheral-{orient}", m, F(4, 3))]))
        assert dict(x.coords) == {("edge", e, 1 if orient == "cw" else 2): F(-4, 3)}


def test_arc_order_within_a_stack_leaves_the_shear(polygon4):
    """Corner arcs of different components sharing a stack may be put in
    any order: the picture stays valid and its shear does not move."""
    q = quad_corners(polygon4)
    m = polygon4.corner_vertex(*q["t_left"])
    s = ComponentSum(polygon4, [
        Component("alpha+", q["e"], F(1, 2)),
        Component("alpha+rev", q["e"], F(1)),
        Component("peripheral-cw", m, F(1, 3)),
        Component("peripheral-ccw", m, F(2, 3)),
    ])
    pic = s.picture()
    assert len({entry.orient for entry in pic.corner_stack(q["t_left"])}) == 2
    delta = {e: (F(1, 2), F(-1)) for e in polygon4.boundary_intervals}
    x = shear_frozen(PinnedLamination(pic, delta))
    rng = random.Random(14)
    for _ in range(30):
        corners = {}
        for c, stack in pic.corners.items():
            corners[c] = list(stack)
            rng.shuffle(corners[c])
        shuffled = GlobalPicture(polygon4, pic.honeycombs, corners, pic.weight)
        assert shuffled.validate() == []
        assert shear_frozen(PinnedLamination(shuffled, delta)) == x


def test_drawer_rejects_what_it_cannot_place(polygon4):
    e = polygon4.interior_edges[0]
    for weight in (F(0), F(-1, 2)):
        with pytest.raises(InvalidPicture, match="weight"):
            ComponentSum(polygon4, [Component("alpha+", e, weight)]).picture()
    with pytest.raises(InvalidPicture, match="sink and a source"):
        ComponentSum(polygon4, [Component("tau+L", e), Component("tau-L", e)]).picture()


def test_cable_draws_at_the_gcd_of_the_weights(polygon5):
    """Peripherals of weights 4 and 6 at one marked point share a factor
    in their numerators: the picture is drawn at weight 2, as 2 + 3
    copies, and its frozen shear is the sum of the two."""
    pic = GlobalPicture(polygon5)
    for weight in (4, 6):
        pic = add_peripheral_chain(pic, "v0", "cw", weight)
    assert pic.weight == 2
    assert dict(shear_frozen(PinnedLamination(pic, {})).coords) == {("edge", "b1", 1): -10}


def test_cable_refuses_a_zero_weight_beside_another(polygon5):
    pic = add_peripheral_chain(GlobalPicture(polygon5), "v0", "cw", 2)
    with pytest.raises(InvalidPicture, match="^non-positive weight 0$"):
        add_peripheral_chain(pic, "v0", "cw", 0)


@pytest.mark.parametrize("name", ["polygon5", "annulus11", "torus", "polygon7"])
def test_realizable_sums_draw_and_round_trip(name):
    """Every sum ``realizable_component_sum`` returns draws and validates,
    the ensemble map sends its A-coordinates to the shear of its picture, and
    that shear, pinnings included, comes back from reconstruct_pinned."""
    from sl3shear.verify import _fixtures

    tri = _fixtures().get(name) or build(MarkedSurfaceSpec.polygon(7))
    rng = random.Random(3)
    kinds = set()
    for _ in range(60):
        s = realizable_component_sum(tri, rng)
        kinds.update(c.kind for c in s)
        pic = s.picture()
        assert pic.validate() == []
        assert ensemble(coords_of_components(s), tri) == shear_frozen(PinnedLamination(pic, {}))
        delta = {e: (F(rng.randint(-3, 3)), F(rng.randint(-3, 3), 2)) for e in tri.boundary_intervals}
        x = shear_frozen(PinnedLamination(pic, delta))
        assert shear_frozen(reconstruct_pinned(x, tri)) == x
    assert kinds


@pytest.mark.parametrize("spec", [
    MarkedSurfaceSpec.polygon(5),
    MarkedSurfaceSpec.once_punctured_torus(),
    MarkedSurfaceSpec.annulus(1, 1),
    MarkedSurfaceSpec.annulus(2, 3),
    MarkedSurfaceSpec.punctured_polygon(3, 2),
], ids=["polygon5", "torus", "annulus11", "annulus23", "punctured-polygon32"])
def test_peripheral_a_table_matches_its_picture(spec):
    """The A-coordinates of a peripheral component map to the shear of its
    picture also where one triangle has two or three corners at the
    marked point, as on the torus and the annuli."""
    tri = build(spec)
    for v in sorted(tri.vertices):
        for kind in ("peripheral-cw", "peripheral-ccw"):
            s = ComponentSum(tri, [Component(kind, v, F(2))])
            assert ensemble(coords_of_components(s), tri) == shear_frozen(PinnedLamination(s.picture(), {}))


def test_frozen_coordinates_direct_substitution(triangle):
    t = triangle.triangles[0]
    e = triangle.boundary_intervals[0]
    pl = PinnedLamination(GlobalPicture(triangle), {e: (F(1), F(0))})
    x = shear_frozen(pl)
    assert x[("edge", e, 1)] == 1 and x[("edge", e, 2)] == 0


def test_frozen_coordinates_cw_arc(triangle):
    t = triangle.triangles[0]
    e = triangle.boundary_intervals[0]
    (slot, _) = triangle.slots(e)
    m = (slot[0], (slot[1] - 1) % 3)
    pic = GlobalPicture(triangle, corners={m: [CornerArc("cw")]})
    x = shear_frozen(PinnedLamination(pic, {}))
    assert x[("edge", e, 1)] == -1


def test_frozen_coordinates_face_term(triangle):
    t = triangle.triangles[0]
    pic = GlobalPicture(triangle, {t: Honeycomb("sink", 2)})
    x = shear_frozen(PinnedLamination(pic, {}))
    for e in triangle.boundary_intervals:
        assert x[("edge", e, 2)] == -2
        assert x[("edge", e, 1)] == 0


def test_component_tables_examples(triangle):
    t = triangle.triangles[0]
    pairs = [side_pair(triangle, (t, a)) for a in range(3)]
    order = [("tri", t), *pairs[1], *pairs[2], *pairs[0]]
    a = coords_of_components(ComponentSum(triangle, [Component("alpha", t, F(1), corner=0)]))
    assert [a[i] for i in order] == [F(2, 3), F(1, 3), F(2, 3), 0, 0, F(2, 3), F(1, 3)]
    x = drawn_x(ComponentSum(triangle, [Component("tau-", t, F(1))]))
    assert dict(x.coords) == {("tri", t): F(-1)}
    assert drawn_x(ComponentSum(triangle, [])).coords == {}


def test_component_tables_ensemble_relation(triangle, polygon4):
    from sl3shear.verify import component_table_cases

    for tri, comp in component_table_cases():
        s = ComponentSum(tri, [comp])
        a = coords_of_components(s)
        x = drawn_x(s)
        assert x.coords == ensemble(a, tri).coords, comp.kind


def test_unknown_component_kind(triangle):
    s = ComponentSum(triangle, [Component("nonsense", "T1", F(1))])
    with pytest.raises(UnknownComponentKind):
        s.picture()
    with pytest.raises(UnknownComponentKind):
        coords_of_components(s)


def test_quad_component_carrier_must_be_interior(polygon4):
    boundary = polygon4.boundary_intervals[0]
    for carrier in ("nope", boundary):
        s = ComponentSum(polygon4, [Component("alpha-", carrier, F(1))])
        with pytest.raises(CarrierMismatch):
            s.picture()
        with pytest.raises(CarrierMismatch):
            coords_of_components(s)


def test_geometric_ensemble_examples(triangle):
    t = triangle.triangles[0]
    s = ComponentSum(triangle, [Component("tau+", t, F(1))])
    pl = geometric_ensemble(s)
    assert pl.delta == {}
    x = shear_frozen(pl)
    pairs = [side_pair(triangle, (t, a)) for a in range(3)]
    order = [("tri", t), *pairs[1], *pairs[2], *pairs[0]]
    assert [x[i] for i in order] == [F(1), F(0), F(-1), F(0), F(-1), F(0), F(-1)]

    # one cw peripheral of weight 2 at a marked point
    m = sorted(triangle.vertices)[0]
    s2 = ComponentSum(triangle, [Component("peripheral-cw", m, F(2))])
    pl2 = geometric_ensemble(s2)
    hits = [e for e in triangle.boundary_intervals if triangle.edge_endpoints(e)[0] == m]
    assert len(hits) == 1
    assert pl2.delta[hits[0]] == (F(-2), F(0))
    assert pl2.underlying.corners == {} and pl2.underlying.honeycombs == {}


def test_geometric_ensemble_rejects_negative_weight(triangle):
    t = triangle.triangles[0]
    from sl3shear.laminations import NegativeNonPeripheralWeight

    s = ComponentSum(triangle, [Component("tau+", t, F(-1))])
    with pytest.raises(NegativeNonPeripheralWeight):
        geometric_ensemble(s)


def test_ensemble_relation_on_random_bounded(polygon4):
    rng = random.Random(4)
    for _ in range(50):
        s = realizable_component_sum(polygon4, rng)
        pl = geometric_ensemble(s)
        a = coords_of_components(s)
        want = ensemble(a, polygon4).coords
        assert dict(shear_frozen(pl).coords) == want


def test_dynkin_geometric_examples(triangle):
    t = triangle.triangles[0]
    pic = ComponentSum(triangle, [Component("tau+", t, F(1))]).picture()
    pic2 = pic.dynkin()
    assert pic2.honeycombs == ComponentSum(triangle, [Component("tau-", t, F(1))]).picture().honeycombs
    x = shear_frozen(PinnedLamination(pic2, {}))
    assert x[("tri", t)] == F(-1)
    pic3 = pic2.dynkin()
    assert pic3.honeycombs == pic.honeycombs and pic3.corners == pic.corners == {}


def test_dynkin_geometric_on_pictures(polygon4, torus):
    rng = random.Random(8)
    from sl3shear.reconstruct import reconstruct

    for tri in (polygon4, torus):
        iset = Sl3IndexSet(tri)
        for _ in range(30):
            coords = {i: F(rng.randint(-3, 3)) for i in iset.unfrozen}
            x = TropicalPoint("X", coords, tri=tri, restricted=True)
            pic = reconstruct(x, tri)
            flipped = pic.dynkin()
            assert flipped.validate() == []
            lhs = shear_unfrozen(flipped)
            rhs = dynkin_cluster(x, tri)
            rhs_unfrozen = {i: v for i, v in rhs.coords.items() if i in set(iset.unfrozen)}
            assert dict(lhs.coords) == rhs_unfrozen
            back = flipped.dynkin()
            assert shear_unfrozen(back) == x


def test_shear_builds_no_fraction(monkeypatch, polygon5, torus):
    """Shear reads each coordinate as an int count times the picture's one
    weight: on integral and rational reconstructions and on glued
    pictures it builds no Fraction, validation included, and returns the
    points it returns when Fractions may be built."""
    from sl3shear import laminations

    rng = random.Random("shear-ints")
    xs, pictures = [], []
    for tri in (polygon5, torus):
        iset = Sl3IndexSet(tri)
        for den in (1, 1, 2, 6):
            coords = {i: F(rng.randint(-6, 6), den) for i in iset.unfrozen}
            xs.append(TropicalPoint("X", coords, tri=tri, restricted=True))
            pictures.append(reconstruct(xs[-1], tri))
    for integral in (True, False, False):
        pictures.append(glue_laminations(random_pinned_two_triangles(rng, integral), "a2", "b0").underlying)
    assert {p.weight for p in pictures} >= {1, F(1, 2), F(1, 6)}
    want = [shear_unfrozen(p) for p in pictures]
    assert want[: len(xs)] == xs
    # fresh copies, so that their validation runs under the patch too
    fresh = [GlobalPicture(p.tri, p.honeycombs, p.corners, p.weight) for p in pictures]

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    with monkeypatch.context() as m:
        m.setattr(laminations, "Fraction", refuse)
        got = [shear_unfrozen(p) for p in fresh]
    assert got == want


def test_peripheral_neutrality(polygon5, torus):
    from sl3shear.reconstruct import reconstruct

    rng = random.Random(9)
    for tri in (polygon5, torus):
        iset = Sl3IndexSet(tri)
        for _ in range(20):
            coords = {i: F(rng.randint(-3, 3)) for i in iset.unfrozen}
            x = TropicalPoint("X", coords, tri=tri, restricted=True)
            pic = reconstruct(x, tri)
            v = rng.choice(sorted(tri.vertices))
            pic2 = add_peripheral_chain(pic, v, rng.choice(["cw", "ccw"]), F(rng.randint(1, 3)))
            assert shear_unfrozen(pic2) == x


def test_weighted_linearity(polygon4):
    q = quad_corners(polygon4)
    u = F(7, 2)
    one = coords_of_components(ComponentSum(polygon4, [Component("alpha+", q["e"], F(1))]))
    many = coords_of_components(ComponentSum(polygon4, [Component("alpha+", q["e"], u)]))
    assert {i: u * v for i, v in one.coords.items()} == dict(many.coords)


def test_normalize_integral_examples(polygon4):
    q = quad_corners(polygon4)
    pic = one_curve_picture(polygon4, "alpha+", F(1, 2))
    pic = add_peripheral_chain(pic, sorted(polygon4.vertices)[0], "cw", F(1, 3))
    u, scaled = normalize_integral(PinnedLamination(pic, {}))
    assert u == 6
    assert scaled.underlying.validate() == []
    x = shear_unfrozen(pic)
    y = shear_unfrozen(scaled.underlying)
    assert {i: 6 * v for i, v in x.coords.items()} == dict(y.coords)
    u2, same = normalize_integral(scaled)
    assert u2 == 1


def test_validation_catches_bad_pictures(polygon4):
    q = quad_corners(polygon4)
    # unbalanced pairing: an arc on one side of the interior edge only
    pic = GlobalPicture(polygon4, corners={q["t_left"]: [CornerArc("ccw")]})
    assert any("unbalanced" in d for d in pic.validate())
    # spiral tail at a non-puncture corner
    pic2 = GlobalPicture(
        polygon4, corners={q["t_left"]: [SpiralEnd("cw", False)]}
    )
    assert any("non-puncture" in d for d in pic2.validate())
    # a honeycomb of no known orientation
    t = q["t_left"][0]
    pic3 = GlobalPicture(polygon4, honeycombs={t: Honeycomb("up", 1)})
    assert f"bad honeycomb orientation in {t}" in pic3.validate()
    with pytest.raises(InvalidPicture):
        shear_unfrozen(pic)


def test_elementary_laminations_exhaustive(triangle, polygon4):
    for tri in (triangle, polygon4):
        iset = Sl3IndexSet(tri)
        for k in iset.all:
            pl = elementary_lamination(tri, k)
            assert dict(shear_frozen(pl).coords) == {k: F(-1)}


def test_elementary_lamination_face_shape(polygon4):
    e = polygon4.interior_edges[0]
    (tl, _), _ = polygon4.slots(e)
    pl = elementary_lamination(polygon4, ("tri", tl))
    pic = pl.underlying
    assert pic.honeycombs[tl].orient == "source"
    assert pic.honeycombs[tl].height == 1


def test_elementary_lamination_frozen_shape(polygon4):
    e = polygon4.boundary_intervals[0]
    pl = elementary_lamination(polygon4, ("edge", e, 1))
    assert pl.underlying.corners == {}
    assert pl.delta == {e: (F(-1), F(0))}


def test_elementary_lamination_refuses_an_unknown_index(polygon4):
    with pytest.raises(KeyError):
        elementary_lamination(polygon4, ("tri", "nope"))


def test_honeycomb_leg_split(polygon4):
    from sl3shear.laminations import honeycomb_leg_split

    q = quad_corners(polygon4)
    e = q["e"]
    (tl, il), (tr, ir) = polygon4.slots(e)
    n1, n2, n3 = 2, 1, 3
    corners = {
        q["t_right"]: [CornerArc("cw")] * n1,
        q["b_right"]: [CornerArc("ccw")] * n3,
    }
    pic = GlobalPicture(
        polygon4,
        {tl: Honeycomb("sink", n1 + n2 + n3), tr: Honeycomb("source", n2)},
        corners,
    )
    assert honeycomb_leg_split(pic, tl, il) == (n1, n2, n3)
    assert honeycomb_leg_split(pic, tr, ir) == (0, n2, 0)
    assert honeycomb_leg_split(pic, tl, (il + 1) % 3) is None  # boundary side


def test_normalize_pinned_component_sum(triangle):
    t = triangle.triangles[0]
    s = ComponentSum(triangle, [Component("alpha", t, F(2, 3), corner=0)])
    e = triangle.boundary_intervals[0]
    pl = PinnedLamination(s.picture(), {e: (F(1, 2), F(0))})
    u, scaled = normalize_integral(pl)
    assert u == 6
    assert scaled.delta[e] == (F(3), F(0))
    x = shear_frozen(pl)
    y = shear_frozen(scaled)
    assert {i: 6 * v for i, v in x.coords.items()} == dict(y.coords)


# -- strand structure derived once per picture -----------------------------


def _end_direction(entry, role):
    """Direction of a stack entry's end on the side where its corner is
    terminal (role 'A') or initial ('B'); None if it has no end there."""
    if isinstance(entry, CornerArc):
        into = (entry.orient == "cw") == (role == "A")
        return "in" if into else "out"
    if (entry.winding == "cw") != (role == "A"):
        return None
    return "out" if entry.outgoing else "in"


def _reference_strands(pic, slot, direction):
    """The zones (initial, legs, terminal) of a side, read off the corner
    stacks: the stack positions of the initial corner's ends deepest
    first, the honeycomb leg count, and the terminal corner's positions."""
    t, i = slot
    c0, c1 = (t, (i - 1) % 3), (t, i)
    initial = [
        p for p, entry in enumerate(pic.corners.get(c0, ()))
        if _end_direction(entry, "B") == direction
    ]
    hc = pic.honeycombs.get(t)
    legs = 0
    if hc is not None and (hc.orient == "sink") == (direction == "in"):
        legs = hc.height
    terminal = [
        p for p, entry in enumerate(pic.corners.get(c1, ()))
        if _end_direction(entry, "A") == direction
    ]
    return tuple(initial[::-1]), legs, tuple(terminal)


def _sides(tri):
    return [((t, i), d) for t in tri.triangles for i in range(3) for d in ("in", "out")]


def _two_pentagons():
    def pentagon(p):
        return [
            (f"{p}1", (f"{p}b0", f"{p}b1", f"{p}d2")),
            (f"{p}2", (f"{p}d2", f"{p}b2", f"{p}d3")),
            (f"{p}3", (f"{p}d3", f"{p}b3", f"{p}b4")),
        ]

    return build(MarkedSurfaceSpec.table(pentagon("L") + pentagon("R")))


def _seeded_pictures():
    """Reconstructed, glued and io-decoded pictures."""
    rng = random.Random("strand-cache")
    pictures = []
    for spec in (
        MarkedSurfaceSpec.polygon(5),
        MarkedSurfaceSpec.punctured_polygon(3, 1),
        MarkedSurfaceSpec.once_punctured_torus(),
    ):
        tri = build(spec)
        iset = Sl3IndexSet(tri)
        for _ in range(3):
            coords = {i: F(rng.randint(-4, 4)) for i in iset.unfrozen}
            pictures.append(reconstruct(TropicalPoint("X", coords, tri=tri, restricted=True), tri))
    for _ in range(4):
        glued = glue_laminations(random_pinned_two_triangles(rng), "a2", "b0")
        back = jio.pinned_from_obj(json.loads(jio.dump(jio.pinned_to_obj(glued))), glued.tri)
        pictures += [glued.underlying, back.underlying]
    return pictures


def test_cached_strand_structure_matches_corner_stacks():
    for pic in _seeded_pictures():
        for slot, d in _sides(pic.tri):
            zones = _reference_strands(pic, slot, d)
            initial, legs, terminal = zones
            n0, n = len(initial), len(initial) + legs + len(terminal)
            assert pic.strand_lists[(slot, d)] == zones
            assert pic.strand_lists[(slot, d)] == zones
            assert pic.strand_count(slot, d) == n
            for k in range(n):
                assert pic.strand_parameter(slot, d, k) == F(2 * (k - n0) + 1, 2)
        diags = pic.validate()
        assert diags == []
        diags.append("changed by the caller")
        assert pic.validate() == []


def test_invalid_pictures_keep_raising(polygon4):
    q = quad_corners(polygon4)
    bad = [
        GlobalPicture(polygon4, corners={q["t_left"]: [CornerArc("ccw")]}),
        GlobalPicture(polygon4, corners={q["t_left"]: [SpiralEnd("cw", False)]}),
    ]
    for pic in bad:
        diags = pic.validate()
        assert diags
        diags.clear()
        assert pic.validate()
        for _ in range(2):
            with pytest.raises(InvalidPicture):
                shear_unfrozen(pic)
            with pytest.raises(InvalidPicture):
                traveler_trace(pic)
            with pytest.raises(InvalidPicture):
                glue_laminations(PinnedLamination(pic, {}), "b0", "b2")


def test_amalgamation_derives_each_picture_once(monkeypatch):
    """One amalgamation op, as the benchmark runs it, checks each distinct
    picture once and derives the strand structure of each picture it
    walks or checks once."""
    tri = _two_pentagons()
    rng = random.Random("derive-once")
    iset = Sl3IndexSet(tri)
    x = TropicalPoint(
        "X", {i: F(rng.randint(-8, 8)) for i in iset.unfrozen}, tri=tri, restricted=True
    )
    delta = {e: (F(rng.randint(-4, 4)), F(rng.randint(-4, 4))) for e in tri.boundary_intervals}

    checked = []
    check = GlobalPicture._check

    def counting_check(pic):
        checked.append(pic)
        return check(pic)

    derived = []
    derive = GlobalPicture.strand_lists.func

    def counting_derive(pic):
        derived.append(pic)
        return derive(pic)

    strands = cached_property(counting_derive)
    strands.__set_name__(GlobalPicture, "strand_lists")
    monkeypatch.setattr(GlobalPicture, "_check", counting_check)
    monkeypatch.setattr(GlobalPicture, "strand_lists", strands)

    pic = reconstruct(x, tri)
    assert shear_unfrozen(pic) == x
    assert identifier_relations(pic, x) == []
    pinned = PinnedLamination(pic, delta)
    want = _glued_expectation(shear_frozen(pinned), "Lb1", "Rb3")
    glued = glue_laminations(pinned, "Lb1", "Rb3")
    glued_x = shear_frozen(glued)
    assert glued_x.coords == want
    text = jio.dump(jio.pinned_to_obj(glued))
    back = jio.pinned_from_obj(json.loads(text), glued.tri)
    assert shear_frozen(back) == glued_x
    monkeypatch.undo()

    assert len(checked) == len({id(p) for p in checked}) == 3
    # the one picture derived and never checked is the honeycomb picture
    # that reconstruction glues by the coordinate pins
    unchecked = [p for p in derived if all(p is not q for q in checked)]
    assert len(unchecked) == 1 and unchecked[0].corners == {}
    assert sorted(map(id, derived)) == sorted(map(id, checked + unchecked))
