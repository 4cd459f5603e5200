"""The zone readers of a picture against a per-strand reference.

A side of a picture is stored as its zones (initial positions, leg
count, terminal positions), and readers classify a strand by its index.
The reference below is the per-strand form the zones replaced: one
record per strand end naming its origin and carrying the picture's
weight, and the shear summed one classified crossing at a time.  ``shear_unfrozen`` and
``honeycomb_leg_split`` must agree with it.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from sl3shear import io as jio
from sl3shear.glue import glue_laminations
from sl3shear.laminations import (
    CornerArc,
    SpiralEnd,
    add_peripheral_chain,
    honeycomb_leg_split,
    shear_unfrozen,
)
from sl3shear.reconstruct import reconstruct
from sl3shear.seeds import Sl3IndexSet
from sl3shear.surface import MarkedSurfaceSpec, build
from sl3shear.tropical import TropicalPoint
from sl3shear.verify import random_pinned_two_triangles

F = Fraction


@dataclass(frozen=True)
class StrandRef:
    """One strand end: ``origin`` is ``("corner", corner, pos)`` or
    ``("leg", j)``."""

    slot: tuple
    direction: str
    origin: tuple
    weight: Fraction


def _arc_end_direction(entry, role):
    """Direction of a stack entry's end on the side where its corner is
    terminal (role 'A') or initial ('B'); None if it has no end there."""
    if isinstance(entry, CornerArc):
        if entry.orient == "cw":
            return "in" if role == "A" else "out"
        return "out" if role == "A" else "in"
    assert isinstance(entry, SpiralEnd)
    if role != ("A" if entry.winding == "cw" else "B"):
        return None
    return "out" if entry.outgoing else "in"


def _strand_list(pic, slot, direction):
    t, i = slot
    c0, c1 = (t, (i - 1) % 3), (t, i)
    initial = [
        StrandRef(slot, direction, ("corner", c0, p), pic.weight)
        for p, entry in enumerate(pic.corner_stack(c0))
        if _arc_end_direction(entry, "B") == direction
    ]
    hc = pic.honeycombs.get(t)
    legs = []
    if hc is not None and (hc.orient == "sink") == (direction == "in"):
        legs = [StrandRef(slot, direction, ("leg", j), pic.weight) for j in range(hc.height)]
    terminal = [
        StrandRef(slot, direction, ("corner", c1, p), pic.weight)
        for p, entry in enumerate(pic.corner_stack(c1))
        if _arc_end_direction(entry, "A") == direction
    ]
    return (*reversed(initial), *legs, *terminal)


def _corner_class(ref):
    if ref.origin[0] == "leg":
        return "leg"
    t, i = ref.slot
    return "initial" if ref.origin[1] == (t, (i - 1) % 3) else "terminal"


def _crossing_contribution(x, e, lclass, rclass, travel, left_hc, right_hc, w):
    """Contribution of one paired crossing to (x_{E,1}, x_{E,2}); the
    left side's terminal corner is the right side's initial corner."""
    i1 = ("edge", e, 1)
    i2 = ("edge", e, 2)
    lc = {"initial": "b", "terminal": "t", "leg": "leg"}[lclass]
    rc = {"initial": "t", "terminal": "b", "leg": "leg"}[rclass]
    if lc == "leg" and rc == "leg":
        return
    if lc == "leg":
        if left_hc.orient == "sink" and rc == "t":
            x[i2] = x.get(i2, F(0)) - w
        elif left_hc.orient == "source" and rc == "b":
            x[i1] = x.get(i1, F(0)) + w
        return
    if rc == "leg":
        if right_hc.orient == "sink" and lc == "b":
            x[i1] = x.get(i1, F(0)) - w
        elif right_hc.orient == "source" and lc == "t":
            x[i2] = x.get(i2, F(0)) + w
        return
    if lc == rc:
        return
    target = i1 if travel == "lr" else i2
    sign = 1 if (lc, rc) == ("t", "b") else -1
    x[target] = x.get(target, F(0)) + sign * w


def _reference_shear(pic):
    tri = pic.tri
    x = {("tri", t): pic.weight * hc.height * (1 if hc.orient == "sink" else -1) for t, hc in pic.honeycombs.items()}
    for e in tri.interior_edges:
        sl, sr = tri.slots(e)
        l_hc = pic.honeycombs.get(sl[0])
        r_hc = pic.honeycombs.get(sr[0])
        for a, b in zip(_strand_list(pic, sl, "out"), reversed(_strand_list(pic, sr, "in"))):
            _crossing_contribution(
                x, e, _corner_class(a), _corner_class(b), "lr", l_hc, r_hc, a.weight
            )
        for a, b in zip(_strand_list(pic, sr, "out"), reversed(_strand_list(pic, sl, "in"))):
            _crossing_contribution(
                x, e, _corner_class(b), _corner_class(a), "rl", l_hc, r_hc, a.weight
            )
    return {i: v for i, v in x.items() if v}


def _reference_leg_split(pic, t, i):
    hc = pic.honeycombs.get(t)
    far_slot = pic.tri.other_slot((t, i))
    if hc is None or far_slot is None:
        return None
    direction, far_dir = ("in", "out") if hc.orient == "sink" else ("out", "in")
    counts = {"initial": 0, "leg": 0, "terminal": 0}
    mine = _strand_list(pic, (t, i), direction)
    far = _strand_list(pic, far_slot, far_dir)
    for ref, far_ref in zip(mine, reversed(far)):
        if ref.origin[0] == "leg":
            counts[_corner_class(far_ref)] += 1
    return (counts["initial"], counts["leg"], counts["terminal"])


def _pictures():
    """Rational reconstructions on five surfaces, each last one with a
    weight-3/2 peripheral chain cabled in, and rational two-triangle
    gluings; then the io-decoded copy of each, then the Dynkin image of
    each."""
    rng = random.Random("zones")
    pictures = []
    for spec in (
        MarkedSurfaceSpec.polygon(5),
        MarkedSurfaceSpec.punctured_polygon(3, 1),
        MarkedSurfaceSpec.punctured_polygon(4, 2),
        MarkedSurfaceSpec.annulus(1, 1),
        MarkedSurfaceSpec.once_punctured_torus(),
    ):
        tri = build(spec)
        unfrozen = Sl3IndexSet(tri).unfrozen
        for _ in range(3):
            coords = {i: F(rng.randint(-3, 3), rng.randint(1, 2)) for i in unfrozen}
            x = TropicalPoint("X", coords, tri=tri, restricted=True)
            pictures.append(reconstruct(x, tri))
        vertex = sorted(tri.vertices)[0]
        chained = add_peripheral_chain(pictures[-1], vertex, "ccw", F(3, 2))
        # weights 1/u (u = 1 or 2) and 3/2 are cabled at weight 1/2
        assert chained.weight == F(1, 2)
        pictures.append(chained)
    for _ in range(8):
        glued = glue_laminations(random_pinned_two_triangles(rng, integral=False), "a2", "b0")
        pictures.append(glued.underlying)
    decoded = [
        jio.picture_from_obj(json.loads(jio.dump(jio.picture_to_obj(p))), p.tri)
        for p in pictures
    ]
    pictures += decoded
    return pictures + [p.dynkin() for p in pictures]


def test_zone_readers_match_per_strand_reference():
    pictures = _pictures()
    for pic in pictures:
        assert shear_unfrozen(pic).coords == _reference_shear(pic)
        for t in pic.tri.triangles:
            for i in range(3):
                assert honeycomb_leg_split(pic, t, i) == _reference_leg_split(pic, t, i)
