import random
from fractions import Fraction

import pytest

from sl3shear.laminations import (
    CornerArc,
    GlobalPicture,
    Honeycomb,
    add_peripheral_chain,
    shear_unfrozen,
)
from sl3shear.reconstruct import (
    NonIntegralInput,
    Traveler,
    TruncationTooShallow,
    _CoordStepper,
    _materialize,
    _step_cap,
    identifier_relations,
    reconstruct,
    roundtrip_check,
    strand_kind,
    trace_coordinates,
    traveler_trace,
    walk_both,
)
from sl3shear.seeds import Sl3IndexSet
from sl3shear.surface import MarkedSurfaceSpec, build
from sl3shear.tropical import TropicalPoint, pos

F = Fraction


def xpoint(tri, mapping):
    return TropicalPoint("X", mapping, tri=tri, restricted=True)


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


def test_roundtrip_rational(polygon4):
    x = quad_coords(polygon4, F(1, 2), F(-3, 2), F(5, 2), F(-1, 2))
    rep = roundtrip_check(x, polygon4)
    assert rep["ok"] and rep["scale"] == 2


def test_reconstruct_rational_rescaled(polygon4):
    x = quad_coords(polygon4, F(1, 2), 0, 0, 0)
    pic = reconstruct(x, polygon4)
    assert shear_unfrozen(pic) == x
    with pytest.raises(NonIntegralInput):
        reconstruct(x, polygon4, normalize=False)


def test_spiral_depth_independence(torus):
    rng = random.Random(5)
    iset = Sl3IndexSet(torus)
    for _ in range(25):
        coords = {i: F(rng.randint(-4, 4)) for i in iset.unfrozen}
        x = xpoint(torus, coords)
        a = reconstruct(x, torus, spiral_turns=2)
        b = reconstruct(x, torus, spiral_turns=3)
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
    puncture = tri.punctures()[0]
    pic = add_peripheral_chain(GlobalPicture(tri), puncture, "cw")
    travelers = traveler_trace(pic)
    assert len(travelers) == 1
    assert travelers[0].kind == "loop"
    assert travelers[0].peripheral
    assert len(travelers[0].route) == len(tri.interior_edges)


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


def test_truncation_guard(torus):
    iset = Sl3IndexSet(torus)
    coords = {i: F(3) for i in iset.unfrozen}
    with pytest.raises(TruncationTooShallow) as info:
        trace_coordinates(xpoint(torus, coords), torus, step_cap=3)
    err = info.value
    assert (err.steps, err.cap) == (3, 3)
    assert err.seed is not None and str(err.seed) in str(err)
    assert "\n" not in str(err)


def _trace_by_key(x, tri, step_cap):
    """Reference tracer: walk every non-hugging seed and keep the first
    traveler per key, the least (slot, parameter) among its non-hugging
    crossings."""
    stepper = _CoordStepper(tri, x, step_cap)
    seen = {}
    for e in tri.interior_edges:
        sl, sr = tri.slots(e)
        for sheet, slot in (("lr", sl), ("rl", sr)):
            for k in stepper.seed_window(e, sheet):
                seed = (slot, "out", k)
                if stepper.crossing_hugs(seed):
                    continue
                fw, bw = walk_both(stepper, seed)
                key = min(
                    (str(s[0]), str(s[2]))
                    for s in bw.crossings + fw.crossings
                    if not stepper.crossing_hugs(s)
                )
                turns = bw.turns[::-1] + fw.turns
                seen.setdefault(key, Traveler(strand_kind(fw, bw), turns, bw.end, fw.end))
    return stepper, list(seen.values())


@pytest.mark.parametrize(
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
def test_trace_skips_visited_seeds_like_key_dedup(spec):
    """Skipping seeds crossed by an earlier traveler finds the travelers
    that deduplicating every walk by its key finds."""
    tri = build(spec)
    iset = Sl3IndexSet(tri)
    rng = random.Random(11)
    for _ in range(16):
        x = xpoint(tri, {i: F(rng.randint(-12, 12)) for i in iset.unfrozen})
        cap = _step_cap(x, tri)
        stepper, travelers = trace_coordinates(x, tri, cap)
        ref_stepper, ref = _trace_by_key(x, tri, cap)
        assert len(travelers) == len(ref)
        for turns in (2, 3):
            pic = _materialize(stepper, travelers, turns)
            want = _materialize(ref_stepper, ref, turns)
            assert (pic.corners, pic.honeycombs) == (want.corners, want.honeycombs)


def test_reconstructed_pictures_validate(polygon5, torus):
    rng = random.Random(8)
    for tri in (polygon5, torus):
        iset = Sl3IndexSet(tri)
        for _ in range(20):
            coords = {i: F(rng.randint(-4, 4)) for i in iset.unfrozen}
            pic = reconstruct(xpoint(tri, coords), tri)
            assert pic.validate() == []


def test_full_pinned_vector_bijection(polygon4, triangle):
    """Any full coordinate vector is realized by reconstructing the
    unfrozen part and solving for the pinnings; shear_frozen returns the
    vector exactly."""
    from sl3shear.laminations import PinnedLamination, shear_frozen
    from sl3shear.tropical import pos as _pos

    rng = random.Random(31)
    for tri in (polygon4, triangle):
        iset = Sl3IndexSet(tri)
        for _ in range(40):
            coords = {i: F(rng.randint(-4, 4)) for i in iset.all}
            x = xpoint(tri, {i: coords[i] for i in iset.unfrozen})
            pic = reconstruct(x, tri)
            delta = {}
            for e in tri.boundary_intervals:
                (t, i), _ = tri.slots(e)
                m = (t, (i - 1) % 3)
                dp = coords[("edge", e, 1)] + pic.corner_arc_weight(m, "cw")
                dm = (
                    coords[("edge", e, 2)]
                    + pic.corner_arc_weight(m, "ccw")
                    + _pos(pic.face_value(t))
                )
                delta[e] = (dp, dm)
            full = shear_frozen(PinnedLamination(pic, delta))
            assert dict(full.coords) == {i: v for i, v in coords.items() if v}


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
