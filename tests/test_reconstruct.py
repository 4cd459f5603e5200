import importlib
import json
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cached_property
from unittest import mock

import pytest

from sl3shear import io as jio
from sl3shear.cli import main
from sl3shear.glue import glue_laminations
from sl3shear.laminations import (
    CornerArc,
    GlobalPicture,
    Honeycomb,
    InvalidPicture,
    PictureTooLarge,
    add_peripheral_chain,
    boundary_weights,
    shear_frozen,
    shear_unfrozen,
    zone_sizes,
)
from sl3shear.reconstruct import (
    NonIntegralInput,
    TruncationTooShallow,
    _entries,
    _integral_point,
    _step_cap,
    build_picture,
    components,
    identifier_relations,
    reconstruct,
    reconstruct_pinned,
    roundtrip_check,
    trace_coordinates,
    traveler_trace,
    window_seeds,
)
from sl3shear.seeds import Sl3IndexSet
from sl3shear.surface import MarkedSurfaceSpec, build
from sl3shear.tropical import SeedMismatch, TropicalPoint, pos
from sl3shear.verify import random_pinned_two_triangles, realizable_component_sum

F = Fraction
# the module; the package binds the name ``reconstruct`` to the function
rec = importlib.import_module("sl3shear.reconstruct")


def xpoint(tri, mapping):
    return TropicalPoint("X", mapping, tri=tri, restricted=True)


def truncation(stepper, travelers, turns, weight=1):
    """The picture of traced travelers whose spiral tails make ``turns``
    full turns, written as reconstruction writes its own when
    ``SPIRAL_TURNS`` is ``turns``."""
    with mock.patch.object(rec, "SPIRAL_TURNS", turns):
        entries, _ = _entries(stepper, travelers, turns)
    return build_picture(stepper.surface, stepper.pic.honeycombs, entries, weight)


def quad_coords(tri, tl_v, tr_v, e1, e2):
    e = tri.interior_edges[0]
    (tl, _), (tr, _) = tri.slots(e)
    return xpoint(
        tri,
        {("tri", tl): F(tl_v), ("tri", tr): F(tr_v), ("edge", e, 1): F(e1), ("edge", e, 2): F(e2)},
    )


def test_paper_tuple_sink_case(polygon4):
    x = quad_coords(polygon4, 2, 3, -2, 1)
    pic = reconstruct(x, polygon4)
    e = polygon4.interior_edges[0]
    (tl, _), (tr, _) = polygon4.slots(e)
    assert pic.honeycombs[tl] == Honeycomb("sink", 2)
    assert pic.honeycombs[tr] == Honeycomb("sink", 3)
    assert shear_unfrozen(pic) == x


def test_paper_tuple_source_case(polygon4):
    x = quad_coords(polygon4, -2, -3, -2, 1)
    pic = reconstruct(x, polygon4)
    e = polygon4.interior_edges[0]
    (tl, _), (tr, _) = polygon4.slots(e)
    assert pic.honeycombs[tl] == Honeycomb("source", 2)
    assert pic.honeycombs[tr] == Honeycomb("source", 3)
    assert shear_unfrozen(pic) == x


def test_zero_reconstructs_empty(polygon4, torus):
    for tri in (polygon4, torus):
        pic = reconstruct(xpoint(tri, {}), tri)
        assert pic.honeycombs == {}
        assert pic.corners == {}


@pytest.mark.parametrize(
    "name,trials,rng_seed",
    [("polygon4", 120, 0), ("polygon5", 80, 1), ("annulus11", 80, 2), ("torus", 60, 3)],
)
def test_roundtrip_random(name, trials, rng_seed, request):
    tri = request.getfixturevalue(name)
    rng = random.Random(rng_seed)
    iset = Sl3IndexSet(tri)
    for _ in range(trials):
        coords = {i: F(rng.randint(-5, 5)) for i in iset.unfrozen}
        x = xpoint(tri, coords)
        rep = roundtrip_check(x, tri)
        assert rep["ok"] and rep["stable"], coords


@pytest.mark.parametrize(
    "point,names",
    [
        (lambda p4, p5: TropicalPoint("X", {("edge", "zz", 1): 5, ("tri", "T1"): 1}), "'zz'"),
        (lambda p4, p5: TropicalPoint("X", {("edge", "b0", 1): 5}, tri=p4), "'b0'"),
        (lambda p4, p5: TropicalPoint("A", {("tri", "T1"): 1}, tri=p4), "A-point"),
        (lambda p4, p5: xpoint(p5, {("tri", "T3"): 1, ("tri", "T1"): 2}), "'T3'"),
    ],
    ids=["unknown-edge", "frozen-index", "a-point", "other-surface"],
)
def test_reconstruction_refuses_what_it_would_drop(point, names, polygon4, polygon5):
    """A point that is not an X-point on the unfrozen indices of the
    triangulation is refused with one line naming what is wrong, not
    reconstructed without its stray coordinates."""
    x = point(polygon4, polygon5)
    for run in (reconstruct, roundtrip_check):
        with pytest.raises(SeedMismatch) as info:
            run(x, polygon4)
        assert names in str(info.value) and "\n" not in str(info.value)


def test_pinned_reconstruction_refuses_a_points_and_stray_indices(polygon4, polygon5):
    """reconstruct_pinned takes frozen coordinates, and refuses what
    reconstruct refuses on the rest: an A-point, or an index the
    triangulation lacks."""
    for x, names in (
        (TropicalPoint("X", {("edge", "zz", 1): 5, ("edge", "b0", 1): 1}, tri=polygon4), "'zz'"),
        (TropicalPoint("A", {("tri", "T1"): 1}, tri=polygon4), "A-point"),
        (TropicalPoint("X", {("tri", "T3"): 1, ("edge", "b0", 2): 1}, tri=polygon5), "'T3'"),
    ):
        with pytest.raises(SeedMismatch) as info:
            reconstruct_pinned(x, polygon4)
        assert names in str(info.value) and "\n" not in str(info.value)


def test_roundtrip_rational(polygon4):
    x = quad_coords(polygon4, F(1, 2), F(-3, 2), F(5, 2), F(-1, 2))
    rep = roundtrip_check(x, polygon4)
    assert rep["ok"] and rep["scale"] == 2


def test_reconstruct_rational_rescaled(polygon4):
    x = quad_coords(polygon4, F(1, 2), 0, 0, 0)
    pic = reconstruct(x, polygon4)
    assert shear_unfrozen(pic) == x
    with pytest.raises(NonIntegralInput):
        trace_coordinates(x, polygon4)


def test_trace_reduces_an_integral_point_held_over_a_larger_denominator(polygon4):
    """An integral point held over d = 2 is traced as its reduced point,
    under the step cap of the reduced ints; a point over 2 that is not
    integral is refused."""
    i = ("edge", "d2", 1)
    least = xpoint(polygon4, {i: F(2)})
    stepper, travelers = trace_coordinates(TropicalPoint.from_ints("X", 2, {i: 4}, polygon4, True), polygon4)
    want_stepper, want = trace_coordinates(least, polygon4)
    assert travelers and travelers == want
    assert stepper.step_cap == want_stepper.step_cap == _step_cap(least, polygon4) == 320
    with pytest.raises(NonIntegralInput) as info:
        trace_coordinates(TropicalPoint.from_ints("X", 2, {i: 3}, polygon4, True), polygon4)
    assert str(info.value) == "coordinates held over the denominator 2 are not integral"


def test_spiral_depth_independence(torus):
    rng = random.Random(5)
    iset = Sl3IndexSet(torus)
    for _ in range(25):
        coords = {i: F(rng.randint(-4, 4)) for i in iset.unfrozen}
        x = xpoint(torus, coords)
        stepper, travelers = trace_coordinates(x, torus)
        a, b = (truncation(stepper, travelers, n) for n in (2, 3))
        assert shear_unfrozen(a) == x
        assert shear_unfrozen(b) == x


def test_traveler_trace_classification(polygon4, torus):
    x = quad_coords(polygon4, 2, 3, -2, 1)
    pic = reconstruct(x, polygon4)
    travelers = traveler_trace(pic)
    kinds = sorted(t.kind for t in travelers)
    assert set(kinds) <= {"arc", "loop", "spiral"}
    assert all(t.kind == "arc" for t in travelers)  # no punctures here
    # punctured fixture: spirals appear
    iset = Sl3IndexSet(torus)
    xt = xpoint(torus, {i: F(v) for i, v in zip(iset.unfrozen, (1, -2, 0, 3, 1, 0, 2, -1))})
    pict = reconstruct(xt, torus)
    kinds = {t.kind for t in traveler_trace(pict)}
    assert "spiral" in kinds


def test_traveler_trace_peripheral_loop():
    tri = build(MarkedSurfaceSpec.punctured_polygon(3, 1))
    puncture = min(v for v, c in tri.vertices.items() if c == "puncture")
    pic = add_peripheral_chain(GlobalPicture(tri), puncture, "cw")
    travelers = traveler_trace(pic)
    assert len(travelers) == 1
    assert travelers[0].kind == "loop"
    assert travelers[0].peripheral
    assert len(travelers[0].route) == len(tri.interior_edges)


PERIPHERAL_SURFACES = pytest.mark.parametrize(
    "spec",
    [MarkedSurfaceSpec.polygon(4), MarkedSurfaceSpec.punctured_polygon(3, 1)],
    ids=["polygon4", "punctured3-1"],
)


@PERIPHERAL_SURFACES
def test_traveler_trace_peripheral_arc(spec):
    """A boundary-parallel arc around a special point is one peripheral
    arc, by the rule gluing drops peripherals by; the arcs of a
    reconstruction are not peripheral."""
    tri = build(spec)
    specials = sorted(v for v, c in tri.vertices.items() if c == "special")
    assert specials
    for v in specials:
        for orient in ("cw", "ccw"):
            (trav,) = traveler_trace(add_peripheral_chain(GlobalPicture(tri), v, orient))
            assert (trav.kind, trav.peripheral) == ("arc", True), (v, orient)
    rng = random.Random(5)
    iset = Sl3IndexSet(tri)
    arcs = 0
    for _ in range(20):
        x = xpoint(tri, {i: F(rng.randint(-4, 4)) for i in iset.unfrozen})
        for trav in traveler_trace(reconstruct(x, tri)):
            arcs += trav.kind == "arc"
            assert not trav.peripheral, x.coords
    assert arcs > 0


def _inverse_steps(stepper, margin=3):
    """Check that each step of ``stepper`` is its own inverse on every
    state of its picture's strand lists and ``margin`` added arcs beyond
    either end; returns the number of crossings and of turns checked."""
    crossed = turned = 0
    for slot, d in stepper.pic.strand_lists:
        for j in range(-margin, stepper.pic.strand_count(slot, d) + margin):
            s = (slot, d, j)
            far = stepper.cross(s)
            if far is not None:
                assert far[1] != d and stepper.cross(far) == s, s
                crossed += 1
            t = stepper.turn(s)
            if type(t) is rec.Turn:
                back = stepper.turn(t.state)
                assert type(back) is rec.Turn and back.state == s, s
                assert (back.place, back.orient, back.vertex, back.depth) == (t.place, t.orient, t.vertex, t.depth)
                turned += 1
    return crossed, turned


@pytest.mark.parametrize(
    "spec",
    [
        MarkedSurfaceSpec.polygon(4),
        MarkedSurfaceSpec.annulus(1, 1),
        MarkedSurfaceSpec.punctured_polygon(3, 2),
        MarkedSurfaceSpec.once_punctured_torus(),
    ],
    ids=["polygon4", "annulus11", "punctured3-2", "torus"],
)
def test_each_step_is_its_own_inverse(spec):
    """On the steppers of reconstructions, pinned by the coordinates, and
    of the stored pictures they build, with peripheral chains added, a
    crossing undoes a crossing and a turn undoes a turn, on the same arc."""
    tri = build(spec)
    iset = Sl3IndexSet(tri)
    rng = random.Random(13)
    counts = Counter()
    for _ in range(8):
        x = xpoint(tri, {i: F(rng.randint(-5, 5)) for i in iset.unfrozen})
        cap = _step_cap(x, tri)
        stepper, _ = trace_coordinates(x, tri)
        counts["pinned"] += sum(_inverse_steps(stepper))
        pic = add_peripheral_chain(reconstruct(x, tri), rng.choice(sorted(tri.vertices)), "cw")
        stored = rec._PictureStepper(pic, tri, {}, cap)
        crossed, turned = _inverse_steps(stored)
        counts["stored"] += turned
        counts["crossed"] += crossed
    assert counts["pinned"] and counts["stored"] and counts["crossed"]


def test_torus_loops_not_peripheral(torus):
    """The torus has one vertex, so every loop hugs it; a reconstructed
    loop still winds both ways and is never peripheral."""
    rng = random.Random(3)
    iset = Sl3IndexSet(torus)
    loops = 0
    for _ in range(60):
        coords = {i: F(rng.randint(-4, 4)) for i in iset.unfrozen}
        for trav in traveler_trace(reconstruct(xpoint(torus, coords), torus)):
            if trav.kind == "loop":
                loops += 1
                assert not trav.peripheral, coords
    assert loops > 0


def test_identifier_relations_examples(polygon4):
    x = quad_coords(polygon4, 2, 3, -2, 1)
    pic = reconstruct(x, polygon4)
    assert identifier_relations(pic, x) == []
    # verify the sums directly on a sample of travelers
    e = polygon4.interior_edges[0]
    (tl, _), (tr, _) = polygon4.slots(e)
    for trav in traveler_trace(pic):
        for (e2, k_out, k_in, sheet) in trav.identifiers:
            if sheet == "lr":
                assert k_out + k_in == x[("edge", e2, 1)] + pos(x[("tri", tr)])
            else:
                assert k_out + k_in == x[("edge", e2, 2)] + pos(x[("tri", tl)])


def test_identifier_relations_random(annulus11, torus):
    rng = random.Random(7)
    for tri in (annulus11, torus):
        iset = Sl3IndexSet(tri)
        for _ in range(40):
            coords = {i: F(rng.randint(-4, 4)) for i in iset.unfrozen}
            x = xpoint(tri, coords)
            pic = reconstruct(x, tri)
            assert identifier_relations(pic, x) == []


def _walked_relations(travelers, x):
    """The identifier relations as a strand walk reads them: one entry per
    crossing of every traced traveler that breaks the pinning rule."""
    bad = []
    for trav in travelers:
        for e, k_out, k_in, sheet in trav.identifiers:
            (tl, _), (tr, _) = x.tri.slots(e)
            if sheet == "lr":
                want = x[("edge", e, 1)] + pos(x[("tri", tr)])
            else:
                want = x[("edge", e, 2)] + pos(x[("tri", tl)])
            if k_out + k_in != want:
                bad.append((e, sheet, k_out, k_in, want))
    return bad


def test_identifier_relations_rational():
    """On a rational vector the strand counts are in units of the
    picture's weight 1/u, so every sheet sums to sigma once scaled by it;
    one coordinate moved by 1/u breaks the sheets it pins."""
    rng = random.Random(5)
    moved = 0
    for spec in (
        MarkedSurfaceSpec.polygon(5),
        MarkedSurfaceSpec.once_punctured_torus(),
        MarkedSurfaceSpec.annulus(1, 1),
        MarkedSurfaceSpec.punctured_polygon(3, 2),
    ):
        tri = build(spec)
        labels = Sl3IndexSet(tri).unfrozen
        for _ in range(6):
            coords = {i: F(rng.randint(-6, 6), rng.choice((2, 3))) for i in labels}
            x = xpoint(tri, coords)
            pic = reconstruct(x, tri)
            assert pic.weight != 1 and identifier_relations(pic, x) == []
            i = rng.choice([i for i in labels if i[0] == "edge"])
            y = xpoint(tri, {**coords, i: coords[i] + pic.weight})
            moved += len(identifier_relations(pic, y)) > 0
    assert moved == 24


def test_identifier_relations_match_the_walk(polygon5, annulus11, torus, two_pentagons):
    """The relations read from the zones are the walked ones as a
    multiset, also on x moved by one at one index, where they break."""
    rng = random.Random(11)
    violations = 0
    for tri in (polygon5, annulus11, torus, two_pentagons):
        labels = Sl3IndexSet(tri).unfrozen
        for _ in range(4):
            coords = {i: F(rng.randint(-4, 4)) for i in labels}
            pic = reconstruct(xpoint(tri, coords), tri)
            travelers = traveler_trace(pic)
            for i in labels:
                for step in (-1, 1):
                    y = xpoint(tri, {**coords, i: coords[i] + step})
                    got = identifier_relations(pic, y)
                    assert Counter(got) == Counter(_walked_relations(travelers, y)), (coords, i, step)
                    violations += len(got)
    assert violations > 0


def test_identifier_relations_walk_no_strand(torus, monkeypatch):
    x = xpoint(torus, dict(zip(Sl3IndexSet(torus).unfrozen, map(F, (1, -2, 0, 3, 1, 0, 2, -1)))))
    pic = reconstruct(x, torus)

    def refuse(*args):
        raise AssertionError("identifier_relations walked a strand")

    monkeypatch.setattr(rec, "walk", refuse)
    with pytest.raises(AssertionError):
        traveler_trace(pic)
    assert identifier_relations(pic, x) == []
    bad = identifier_relations(pic, xpoint(torus, {**x.coords, ("tri", "T1"): F(2)}))
    assert bad and all(k_out + k_in != want for _, _, k_out, k_in, want in bad)


def test_truncation_guard(torus, monkeypatch):
    iset = Sl3IndexSet(torus)
    coords = {i: F(3) for i in iset.unfrozen}
    monkeypatch.setattr(rec, "_step_cap", lambda x, tri: 3)
    with pytest.raises(TruncationTooShallow) as info:
        trace_coordinates(xpoint(torus, coords), torus)
    err = info.value
    assert (err.steps, err.cap) == (3, 3)
    # the stepper steps on the index j; the error reports psi = j + 1/2
    assert type(err.seed[2]) is Fraction and err.seed[2].denominator == 2
    assert err.seed is not None and str(err.seed) in str(err)
    assert "\n" not in str(err)


@pytest.mark.parametrize("name, caps", [
    ("polygon4", (256, 480, 1920)),
    ("polygon5", (336, 672, 2688)),
    ("annulus11", (256, 480, 2208)),
    ("torus", (256, 336, 1488)),
])
def test_step_cap_values(name, caps, request):
    """The step cap of fixed integral points on the criterion-2 fixtures:
    8 per edge times the largest quadrilateral mass plus 6, and at least
    256."""
    tri = request.getfixturevalue(name)
    labels = Sl3IndexSet(tri).unfrozen
    for scale, cap in zip((0, 1, 7), caps):
        x = xpoint(tri, {i: F((-1) ** n * (n % 5) * scale) for n, i in enumerate(labels)})
        assert _step_cap(x, tri) == cap


def _trace_by_key(x, tri):
    """Reference tracer on the reference stepper: walk every non-hugging
    seed and keep the first traveler per key, the least (slot, parameter)
    among its non-hugging crossings."""
    stepper = _FractionStepper(tri, x, _step_cap(x, tri))
    seen = {}
    for e in tri.interior_edges:
        sl, sr = tri.slots(e)
        for sheet, slot in (("lr", sl), ("rl", sr)):
            for k in stepper.seed_window(e, sheet):
                seed = (slot, "out", k)
                if stepper.crossing_hugs(seed):
                    continue
                (_, traveler), = components(stepper, [seed])
                key = min(
                    (str(s[0]), str(s[2]))
                    for s in traveler.crossings
                    if not stepper.crossing_hugs(s)
                )
                seen.setdefault(key, traveler)
    return stepper, list(seen.values())


TRACE_SURFACES = pytest.mark.parametrize(
    "spec",
    [
        MarkedSurfaceSpec.polygon(4),
        MarkedSurfaceSpec.polygon(5),
        MarkedSurfaceSpec.polygon(7),
        MarkedSurfaceSpec.annulus(1, 1),
        MarkedSurfaceSpec.annulus(2, 2),
        MarkedSurfaceSpec.punctured_polygon(3, 2),
        MarkedSurfaceSpec.once_punctured_torus(),
    ],
    ids=["polygon4", "polygon5", "polygon7", "annulus11", "annulus22", "punctured3-2", "torus"],
)


@TRACE_SURFACES
def test_trace_skips_visited_seeds_like_key_dedup(spec):
    """Skipping seeds crossed by an earlier traveler finds the travelers
    that deduplicating every walk by its key finds."""
    tri = build(spec)
    iset = Sl3IndexSet(tri)
    rng = random.Random(11)
    for _ in range(16):
        x = xpoint(tri, {i: F(rng.randint(-12, 12)) for i in iset.unfrozen})
        stepper, travelers = trace_coordinates(x, tri)
        ref_stepper, ref = _trace_by_key(x, tri)
        assert len(travelers) == len(ref)
        for turns in (2, 3):
            pic = truncation(stepper, travelers, turns)
            want = truncation(ref_stepper, ref, turns)
            assert (pic.corners, pic.honeycombs) == (want.corners, want.honeycombs)


def test_build_picture_refuses_colliding_places(polygon4):
    """Stacks are sorted by key, a stored entry's key (its position minus
    the stack length) before every added arc's (its virtual depth), and
    two entries at one (corner, key) raise."""
    corner = (polygon4.triangles[0], 0)
    cw, ccw = CornerArc("cw"), CornerArc("ccw")
    pic = build_picture(polygon4, {}, [((corner, 0), cw), ((corner, -1), ccw)], F(1, 2))
    assert pic.corner_stack(corner) == (ccw, cw) and pic.weight == F(1, 2)
    for key in (F(3), 0, -1):
        with pytest.raises(InvalidPicture, match="colliding stack ranks"):
            build_picture(polygon4, {}, [((corner, key), cw), ((corner, key), ccw)])


def test_reconstructed_pictures_validate(polygon5, torus):
    rng = random.Random(8)
    for tri in (polygon5, torus):
        iset = Sl3IndexSet(tri)
        for _ in range(20):
            coords = {i: F(rng.randint(-4, 4)) for i in iset.unfrozen}
            pic = reconstruct(xpoint(tri, coords), tri)
            assert pic.validate() == []


def _counted_boundary_weights(pic, e):
    """The pinning rule's weights at E as a stack count: the cw arcs, and
    the ccw arcs plus the sink height, at E's initial marked point in its
    triangle, times the picture's weight."""
    (t, i), _ = pic.tri.slots(e)
    orients = [x.orient for x in pic.corners.get((t, (i - 1) % 3), ()) if isinstance(x, CornerArc)]
    hc = pic.honeycombs.get(t)
    sink = hc.height if hc is not None and hc.orient == "sink" else 0
    return pic.weight * orients.count("cw"), pic.weight * (orients.count("ccw") + sink)


def test_full_pinned_vector_bijection(polygon4, triangle):
    """Any full coordinate vector is realized by reconstruct_pinned: the
    reconstruction of the unfrozen part, pinned by the stack count of the
    pinning rule; shear_frozen returns the vector exactly."""
    rng = random.Random(31)
    for tri in (polygon4, triangle):
        iset = Sl3IndexSet(tri)
        for _ in range(40):
            coords = {i: F(rng.randint(-4, 4)) for i in iset.all}
            pinned = reconstruct_pinned(TropicalPoint("X", coords, tri=tri), tri)
            pic = pinned.underlying
            assert pic.corners == reconstruct(xpoint(tri, {i: coords[i] for i in iset.unfrozen}), tri).corners
            delta = {}
            for e in tri.boundary_intervals:
                w = _counted_boundary_weights(pic, e)
                delta[e] = tuple(coords[("edge", e, s)] + w[s - 1] for s in (1, 2))
            assert pinned.delta == {e: d for e, d in delta.items() if any(d)}
            assert dict(shear_frozen(pinned).coords) == {i: v for i, v in coords.items() if v}


def _pinning_pictures(kind, rng):
    """Pictures of one kind on surfaces with boundary: reconstructions of
    integral or rational vectors, component sums, rational reconstructions
    with a peripheral chain of another weight, or two triangles with
    mixed weights before and after gluing."""
    if kind == "two-triangles":
        for _ in range(30):
            pl = random_pinned_two_triangles(rng, integral=bool(rng.getrandbits(1)))
            yield pl.underlying
            yield glue_laminations(pl, "a2", "b0").underlying
        return
    for spec in (
        MarkedSurfaceSpec.polygon(5),
        MarkedSurfaceSpec.annulus(1, 1),
        MarkedSurfaceSpec.annulus(2, 3),
        MarkedSurfaceSpec.punctured_polygon(3, 2),
    ):
        tri = build(spec)
        labels = Sl3IndexSet(tri).unfrozen
        for _ in range(8):
            if kind == "integral":
                yield reconstruct(xpoint(tri, {i: F(rng.randint(-4, 4)) for i in labels}), tri)
            elif kind == "component-sum":
                yield realizable_component_sum(tri, rng).picture()
            else:
                coords = {i: F(rng.randint(-6, 6), rng.randint(1, 3)) for i in labels}
                pic = reconstruct(xpoint(tri, coords), tri)
                if kind == "peripheral-chain":
                    v, orient = rng.choice(sorted(tri.vertices)), rng.choice(("cw", "ccw"))
                    pic = add_peripheral_chain(pic, v, orient, F(rng.randint(1, 4), rng.randint(1, 3)))
                yield pic


@pytest.mark.parametrize(
    "kind", ["integral", "rational", "component-sum", "peripheral-chain", "two-triangles"]
)
def test_boundary_weights_count_the_stack(kind):
    """boundary_weights, read off the zones, is the stack count of the
    pinning rule at every boundary interval."""
    rng = random.Random(23)
    nonzero = 0
    for pic in _pinning_pictures(kind, rng):
        for e in pic.tri.boundary_intervals:
            w = boundary_weights(pic, e)
            assert w == _counted_boundary_weights(pic, e), (kind, e)
            nonzero += any(w)
    assert nonzero > 0


@pytest.mark.parametrize("spec", [
    MarkedSurfaceSpec.polygon(5),
    MarkedSurfaceSpec.once_punctured_torus(),
    MarkedSurfaceSpec.annulus(2, 3),
    MarkedSurfaceSpec.punctured_polygon(4, 2),
], ids=["polygon5", "torus", "annulus23", "punctured-polygon42"])
def test_pinned_rational_round_trip(spec):
    """shear_frozen inverts reconstruct_pinned on rational vectors over
    every index, frozen ones included."""
    tri = build(spec)
    iset = Sl3IndexSet(tri)
    rng = random.Random(29)
    for _ in range(6):
        x = TropicalPoint("X", {i: F(rng.randint(-6, 6), rng.randint(1, 3)) for i in iset.all}, tri=tri)
        assert shear_frozen(reconstruct_pinned(x, tri)) == x


def test_roundtrip_broader_surfaces():
    from sl3shear.surface import MarkedSurfaceSpec, build

    rng = random.Random(33)
    for spec in (
        MarkedSurfaceSpec.polygon(7),
        MarkedSurfaceSpec.annulus(2, 2),
        MarkedSurfaceSpec.punctured_polygon(4, 1),
        MarkedSurfaceSpec.punctured_polygon(2, 2),
    ):
        tri = build(spec)
        iset = Sl3IndexSet(tri)
        for _ in range(25):
            coords = {i: F(rng.randint(-4, 4)) for i in iset.unfrozen}
            x = xpoint(tri, coords)
            rep = roundtrip_check(x, tri)
            assert rep["ok"] and rep["stable"]
            assert identifier_relations(rep["picture"], x) == []


class _FractionStepper:
    """A stepper on the implicit infinite picture of a coordinate vector,
    on Fraction parameters: the reference the library's stepper must
    reproduce.  Parameters are half-integers, and a crossing that hugs a
    corner is told by its parameters; an arc's place key is ``2 rank +
    (orient == "ccw")``.  ``pic`` holds the honeycombs."""

    def __init__(self, tri, x, step_cap):
        self.surface = tri
        self.x = x
        self.step_cap = step_cap
        self._faces = {t: x[("tri", t)] for t in tri.triangles}
        self.pic = GlobalPicture(tri, {
            t: Honeycomb("sink" if v > 0 else "source", int(abs(v)))
            for t, v in self._faces.items() if v
        })
        self._sigma = {}
        for e in tri.interior_edges:
            (tl, _), (tr, _) = tri.slots(e)
            self._sigma[(e, "lr")] = x[("edge", e, 1)] + pos(self._faces[tr])
            self._sigma[(e, "rl")] = x[("edge", e, 2)] + pos(self._faces[tl])

    def in_legs(self, t):
        return pos(self._faces[t])

    def out_legs(self, t):
        return pos(-self._faces[t])

    def sigma(self, e, sheet):
        return self._sigma[(e, sheet)]

    @staticmethod
    def shown(state):
        return state

    def _turn(self, state, corner, orient, depth, key):
        vertex = self.surface.corner_vertex(*corner)
        return rec.Turn(state, orient, vertex, depth, (corner, key))

    def cross(self, state):
        """An outgoing state crosses on the sheet of its own slot (lr from
        the left slot), an incoming one back on the sheet of the far slot."""
        slot, d, k = state
        e = self.surface.edge_at(slot)
        sl, sr = self.surface.slots(e)
        if sr is None:
            return None
        far = sr if slot == sl else sl
        sheet = "lr" if (slot == sl) == (d == "out") else "rl"
        return (far, "in" if d == "out" else "out", self.sigma(e, sheet) - k)

    def turn(self, state):
        """An incoming state turns through its triangle to an outgoing
        one, an outgoing state back to an incoming one."""
        (t, i), d, k = state
        if d == "in":
            a = self.in_legs(t)
            if k < 0:
                corner = (t, (i - 1) % 3)
                return self._turn((corner, "out", self.out_legs(t) - k), corner, "ccw", -k, -2 * k)
            if k < a:
                return ("sink", t)
            return self._turn(((t, (i + 1) % 3), "out", a - k), (t, i % 3), "cw", k, 2 * (k - a) - 1)
        b = self.out_legs(t)
        if k > b:
            return self._turn(((t, (i + 1) % 3), "in", b - k), (t, i % 3), "ccw", k, 2 * (k - b))
        if k > 0:
            return ("source", t)
        corner = (t, (i - 1) % 3)
        return self._turn((corner, "in", self.in_legs(t) - k), corner, "cw", -k, -2 * k - 1)

    def seed_window(self, e, sheet):
        (tl, _), (tr, _) = self.surface.slots(e)
        sigma = self.sigma(e, sheet)
        if sheet == "lr":
            own_legs = self.out_legs(tl)
            far_coord = self.x[("edge", e, 1)]
        else:
            own_legs = self.out_legs(tr)
            far_coord = self.x[("edge", e, 2)]
        lo = min(F(0), far_coord)
        hi = max(own_legs, sigma)
        k = lo + F(1, 2)
        out = []
        while k < hi:
            out.append(k)
            k += 1
        return out

    def crossing_hugs(self, state):
        nxt = self.cross(state)
        if nxt is None:
            return False
        (t, _), _, k = state
        (t2, _), _, k2 = nxt
        return (k > self.out_legs(t) and k2 < 0) or (k < 0 and k2 > self.in_legs(t2))


def _recording(monkeypatch):
    """Record the travelers of every trace and every spiral tail walked;
    returns the list they are appended to, as lists of turns and ends."""
    seen = []
    trace, tail = rec.trace_coordinates, rec.spiral_tail

    def tracing(*args):
        stepper, travelers = trace(*args)
        for trav in travelers:
            seen.append((trav.turns, (trav.start, trav.end)))
        return stepper, travelers

    def tailing(stepper, end, turns):
        turns_walked = tail(stepper, end, turns)
        seen.append((turns_walked, ()))
        return turns_walked

    monkeypatch.setattr(rec, "trace_coordinates", tracing)
    monkeypatch.setattr(rec, "spiral_tail", tailing)
    return seen


def _grid_values(seen):
    """Every state parameter, depth and place key recorded."""
    for turns, ends in seen:
        for t in turns:
            yield from (t.state[2], t.depth, t.place[1])
        for end in ends:
            if end[0] in ("boundary", "spiral"):
                yield end[-1][2]


@TRACE_SURFACES
def test_tracer_stays_on_the_int_grid(spec, monkeypatch):
    """Tracing and spiral tails step on ints only, integral and rational
    vectors alike, and write the pictures the Fraction stepper writes."""
    tri = build(spec)
    iset = Sl3IndexSet(tri)
    rng = random.Random(17)
    integral = [{i: F(rng.randint(-12, 12)) for i in iset.unfrozen} for _ in range(6)]
    rational = [{i: F(rng.randint(-12, 12), rng.randint(1, 3)) for i in iset.unfrozen}
                for _ in range(3)]

    def pictures(trace):
        out = []
        for coords in integral:
            x = xpoint(tri, coords)
            stepper, travelers = trace(x, tri)
            out += [truncation(stepper, travelers, n) for n in (2, 3)]
        for coords in rational:
            u, xi = _integral_point(xpoint(tri, coords), tri)
            stepper, travelers = trace(xi, tri)
            out += [truncation(stepper, travelers, n, F(1, u)) for n in (2, 3)]
        return [(p.corners, p.honeycombs) for p in out]

    with monkeypatch.context() as m:
        seen = _recording(m)
        got = pictures(rec.trace_coordinates)
        for coords in integral:
            assert rec.roundtrip_check(xpoint(tri, coords), tri)["ok"]
    values = list(_grid_values(seen))
    assert values and {type(v) for v in values} == {int}
    assert got == pictures(_trace_by_key)


@TRACE_SURFACES
def test_window_is_the_non_hugging_set(spec):
    """On every pinned sheet of a reconstruction, the window of seeds
    holds exactly the parameters whose crossing does not hug a corner, as
    the reference stepper tells them; so a filter on hugging seeds would
    drop none, and a component missed by the window hugs everywhere."""
    tri = build(spec)
    iset = Sl3IndexSet(tri)
    rng = random.Random(29)
    # every window lies in [-12, 24]: its ends are min(0, x_E) and
    # max([-x_T]_+, x_E + [x_T']_+)
    margin = 8
    told = Counter()
    for _ in range(12):
        x = xpoint(tri, {i: F(rng.randint(-12, 12)) for i in iset.unfrozen})
        stepper, _ = trace_coordinates(x, tri)
        ref = _FractionStepper(tri, x, _step_cap(x, tri))
        for e in tri.interior_edges:
            for out_slot, in_slot in (tri.slots(e), tri.slots(e)[::-1]):
                window = {F(2 * j + 1, 2) for _, _, j in window_seeds(stepper, out_slot, in_slot)}
                for n in range(-12 - margin, 24 + margin):
                    k = n + F(1, 2)
                    hugs = ref.crossing_hugs((out_slot, "out", k))
                    assert (k in window) == (not hugs), (x.coords, e, out_slot, k)
                    told[hugs] += 1
    assert told[True] and told[False]


DEEPER_SURFACES = pytest.mark.parametrize(
    "spec",
    [
        MarkedSurfaceSpec.once_punctured_torus(),
        MarkedSurfaceSpec.punctured_polygon(3, 2),
        MarkedSurfaceSpec.punctured_polygon(8, 2),
    ],
    ids=["torus", "punctured3-2", "punctured8-2"],
)


def _spiral_vectors(tri, seed, count=12):
    """Integral vectors with entries in [-6, 6] whose trace has a spiral
    end, with the number of spiral ends of each."""
    iset = Sl3IndexSet(tri)
    rng = random.Random(seed)
    found = []
    for _ in range(count):
        x = xpoint(tri, {i: F(rng.randint(-6, 6)) for i in iset.unfrozen})
        _, travelers = trace_coordinates(x, tri)
        spirals = sum(end[0] == "spiral" for t in travelers for end in (t.start, t.end))
        if spirals:
            found.append((x, spirals))
    return found


@DEEPER_SURFACES
def test_roundtrip_reads_the_deeper_truncation_off_one_picture(spec, monkeypatch):
    """The zone sizes and shear that ``roundtrip_check`` reads for the
    truncation one tail turn deeper than its picture equal those of that
    truncation built as a picture of its own, with SPIRAL_TURNS + 1
    turns; its picture is the one reconstruction builds."""
    tri = build(spec)
    read = []
    shear = rec.zone_shear

    def recording_shear(pic, sizes):
        y = shear(pic, sizes)
        read.append((sizes, y))
        return y

    monkeypatch.setattr(rec, "zone_shear", recording_shear)
    vectors = _spiral_vectors(tri, 23)
    for x, _ in vectors:
        read.clear()
        rep = roundtrip_check(x, tri)
        assert rep["ok"] and rep["stable"]
        (sizes, y2), = read
        stepper, travelers = trace_coordinates(x, tri)
        deeper = truncation(stepper, travelers, rec.SPIRAL_TURNS + 1).require_valid()
        assert sizes == zone_sizes(deeper)
        assert y2 == shear_unfrozen(deeper) == x
        pic = truncation(stepper, travelers, rec.SPIRAL_TURNS)
        assert (rep["picture"].corners, rep["picture"].honeycombs) == (pic.corners, pic.honeycombs)
    assert vectors


def _planted_tail(monkeypatch, plant):
    """Make every spiral tail walked one turn past the written one pass
    through ``plant(tail, cut)``, ``cut`` the index of its marker turn."""
    walk_tail = rec.spiral_tail

    def planted(stepper, end, turns):
        tail = walk_tail(stepper, end, turns)
        if turns == rec.SPIRAL_TURNS + 1:
            per_turn = len(stepper.surface.corners_at_vertex(end[1]))
            assert per_turn > 1
            plant(tail, rec.SPIRAL_TURNS * per_turn)
        return tail

    monkeypatch.setattr(rec, "spiral_tail", planted)


@DEEPER_SURFACES
def test_roundtrip_refuses_a_deeper_turn_with_an_arc_dropped(spec, monkeypatch):
    """A tail whose turn past the written one lacks an arc unbalances a
    sheet or moves the shear: the round trip raises or is not stable."""
    tri = build(spec)
    vectors = _spiral_vectors(tri, 29)
    _planted_tail(monkeypatch, lambda tail, cut: tail.pop(cut + 1))
    for x, _ in vectors:
        try:
            rep = roundtrip_check(x, tri)
        except InvalidPicture as err:
            assert "one tail turn deeper" in str(err)
        else:
            assert not rep["stable"] and not rep["ok"]
    assert vectors


@DEEPER_SURFACES
@pytest.mark.parametrize("taken", ["in-picture", "in-turn"])
def test_roundtrip_refuses_a_deeper_turn_at_a_taken_place(spec, taken, monkeypatch):
    """A turn past the written tail at a place key the picture or an
    earlier turn past it already holds raises, as building the deeper
    truncation would."""
    tri = build(spec)
    vectors = _spiral_vectors(tri, 31)

    def plant(tail, cut):
        # the written tail's last arc, or the first turn past its marker
        other = tail[cut - 1] if taken == "in-picture" else tail[cut + 1]
        tail[cut + 2] = replace(tail[cut + 2], place=other.place)

    _planted_tail(monkeypatch, plant)
    for x, _ in vectors:
        with pytest.raises(InvalidPicture, match="colliding stack ranks"):
            roundtrip_check(x, tri)
    assert vectors


def test_roundtrip_checks_and_derives_one_picture(monkeypatch):
    """Each ``roundtrip_check`` call checks one picture, its
    reconstruction, and derives the strand structure of that picture and
    of the honeycomb picture whose gluing it traces, and of no other."""
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
    rng = random.Random("one-picture")
    spirals = 0
    for spec in (
        MarkedSurfaceSpec.polygon(4),
        MarkedSurfaceSpec.polygon(5),
        MarkedSurfaceSpec.annulus(1, 1),
        MarkedSurfaceSpec.once_punctured_torus(),
    ):
        tri = build(spec)
        iset = Sl3IndexSet(tri)
        for _ in range(6):
            x = xpoint(tri, {i: F(rng.randint(-5, 5)) for i in iset.unfrozen})
            checked.clear()
            derived.clear()
            rep = roundtrip_check(x, tri)
            assert rep["ok"] and rep["stable"]
            pic = rep["picture"]
            spirals += bool(pic.puncture_signs())
            assert len(checked) == 1 and checked[0] is pic
            others = [p for p in derived if p is not pic]
            assert len(derived) == 2 and len(others) == 1 and others[0].corners == {}
    assert spirals


def test_roundtrip_report_draws_the_reconstruction():
    """For a rational x the report's picture is ``reconstruct(x)``, at
    weight 1/u, byte for byte once encoded, and its shear is x."""
    rng = random.Random(37)
    scaled = 0
    for spec in (
        MarkedSurfaceSpec.polygon(5),
        MarkedSurfaceSpec.annulus(1, 1),
        MarkedSurfaceSpec.once_punctured_torus(),
        MarkedSurfaceSpec.punctured_polygon(3, 2),
    ):
        tri = build(spec)
        iset = Sl3IndexSet(tri)
        for _ in range(6):
            x = xpoint(tri, {i: F(rng.randint(-6, 6), rng.randint(1, 3)) for i in iset.unfrozen})
            rep = roundtrip_check(x, tri)
            assert rep["ok"] and rep["stable"] and rep["shear"] == x
            pic = rep["picture"]
            assert pic.weight == F(1, rep["scale"])
            assert jio.dump(jio.picture_to_obj(pic)) == jio.dump(jio.picture_to_obj(reconstruct(x, tri)))
            scaled += rep["scale"] > 1
    assert scaled


# distinct primes below 100: u, the lcm of the denominators, is about 10^15
_HUGE_DENOMINATORS = (97, 89, 83, 79, 73, 71, 67, 61)


def test_reconstruction_refuses_an_oversized_input_before_walking(torus, tmp_path, capsys, monkeypatch):
    """A torus vector with denominators up to 100 is traced as u x; the
    size bound refuses it with one line before any walk, allocating
    nothing large, and the CLI exits 1."""
    numerators = (-9, -31, 33, 5, -44, -41, 18, 7)
    coords = dict(zip(Sl3IndexSet(torus).unfrozen, map(Fraction, numerators, _HUGE_DENOMINATORS)))
    x = TropicalPoint("X", coords, tri=torus, restricted=True)

    def no_walk(*args):
        raise AssertionError("a strand was walked")

    reconstruct_module = importlib.import_module("sl3shear.reconstruct")
    with monkeypatch.context() as m:
        m.setattr(reconstruct_module, "walk", no_walk)
        tracemalloc.start()
        try:
            for run in (reconstruct, roundtrip_check):
                with pytest.raises(PictureTooLarge, match="over the limit of 1000000") as refused:
                    run(x, torus)
                assert refused.value.size > 10**12 and "\n" not in str(refused.value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 10**6, peak
    surf = tmp_path / "torus.json"
    main(["surface", "--spec", "once-punctured-torus", "--out", str(surf)])
    capsys.readouterr()
    arg = json.dumps({jio.index_to_str(i): jio.frac_to_str(v) for i, v in coords.items()})
    assert main(["reconstruct", "--surface", str(surf), "--coords", arg]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "over the limit" in err, err


@pytest.mark.parametrize("spec", [
    MarkedSurfaceSpec.polygon(5), MarkedSurfaceSpec.annulus(1, 1),
    MarkedSurfaceSpec.once_punctured_torus(), MarkedSurfaceSpec.punctured_polygon(3, 2),
], ids=["polygon5", "annulus11", "torus", "punctured32"])
def test_size_bound_never_exceeds_the_built_size(spec, monkeypatch):
    """The bound reconstruction refuses by is at most the corner entries
    plus honeycomb height of the picture it builds."""
    tri = build(spec)
    labels = Sl3IndexSet(tri).unfrozen
    reconstruct_module = importlib.import_module("sl3shear.reconstruct")
    rng = random.Random(str(spec))
    for _ in range(25):
        r = rng.choice([2, 6, 12])
        den = rng.choice([1, 1, 2, 3])
        x = TropicalPoint("X", {i: Fraction(rng.randint(-r, r), den) for i in labels}, tri=tri, restricted=True)
        u, xi = _integral_point(x, tri)
        with monkeypatch.context() as m:
            m.setattr(reconstruct_module, "MAX_PICTURE_SIZE", -1)
            with pytest.raises(PictureTooLarge) as bound:
                trace_coordinates(xi, tri)
        pic = reconstruct(x, tri)
        built = sum(h.height for h in pic.honeycombs.values()) + sum(map(len, pic.corners.values()))
        assert 0 <= bound.value.size <= built


@pytest.mark.parametrize("bound", ["_cabled", "build_picture", "bounded_window_seeds"])
def test_size_bounds_hold_at_the_limit(bound, torus, monkeypatch):
    """Each size bound passes a picture of exactly ``MAX_PICTURE_SIZE``,
    as its module reads it, and refuses one of one more."""
    x = xpoint(torus, dict(zip(Sl3IndexSet(torus).unfrozen, map(F, (-2, 3, 1, -1, 2, 0, 1, -3)))))
    pic = reconstruct(x, torus)
    stepper, travelers = trace_coordinates(x, torus)
    entries, _ = _entries(stepper, travelers, rec.SPIRAL_TURNS)
    sheets = [sheet for e in torus.interior_edges for sheet in (torus.slots(e), torus.slots(e)[::-1])]
    height = sum(h.height for h in pic.honeycombs.values())
    module, call = {
        "_cabled": (importlib.import_module("sl3shear.laminations"),
                    lambda: add_peripheral_chain(pic, "v0", "cw")),
        "build_picture": (rec, lambda: build_picture(torus, pic.honeycombs, entries)),
        "bounded_window_seeds": (rec, lambda: rec.bounded_window_seeds(stepper, sheets, height)),
    }[bound]
    with monkeypatch.context() as m:
        m.setattr(module, "MAX_PICTURE_SIZE", -1)
        with pytest.raises(PictureTooLarge) as refused:
            call()
    size = refused.value.size
    assert size > 0
    monkeypatch.setattr(module, "MAX_PICTURE_SIZE", size)
    call()
    monkeypatch.setattr(module, "MAX_PICTURE_SIZE", size - 1)
    with pytest.raises(PictureTooLarge, match=f"over the limit of {size - 1}$"):
        call()
