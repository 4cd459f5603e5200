"""Gluing of pinned laminations along boundary intervals.

``glue_coordinates`` is the tropicalized amalgamation on coordinates:
the frozen coordinates of the glued intervals add crosswise.
``glue_laminations`` performs the geometric construction: infinite
alternating corner-arc collections are drawn around the endpoints of the
glued intervals, the strand sets across the new edge are paired by the
pinning read off the coweights delta, new peripheral components are
removed, and new spiralling ends (when a merged point becomes a
puncture) are truncated to sign markers.

This is the construction by which reconstruction glues the triangles'
honeycombs, and it runs through the same stepper of
:mod:`sl3shear.reconstruct`: the picture to be glued is walked on the
glued surface, its added arcs indexed past either end of a strand list,
with the pins of the two glued sides pairing parameter psi = j + 1/2
with sigma - psi.  The infinite added collections are never materialized
up front.

The gluing is local: a component that crosses no glued sheet is walked
on the glued surface as on the old one.  None of those is a removed
peripheral either: turns that all wind one way around a merged point
stay at one old marked point, whose corners run from one boundary
interval to another, one of them glued, so a component making only such
turns crosses a glued sheet.  So only the components crossing a glued
sheet are walked, seeded from the window of either sheet (the one
reconstruction uses) and from every crossing with a stored strand on
either side, and the survivors are written by the picture writer that
reconstruction uses, so only the added arcs they use enter the output
picture.  Components are disjoint, so every stored entry no walk visits
is copied, at the place key a walk would give it.  Corner stacks change
only at the merged points, so only an interval whose initial marked
point is merged has its coweight re-anchored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laminations import (
    PinnedLamination,
    boundary_weights,
    normalize_integral,
)
from .reconstruct import (
    SPIRAL_TURNS,
    _PictureStepper,
    bounded_window_seeds,
    build_picture,
    components,
    stack_entries,
)
from .surface import SameEdge, UnknownInterval


@dataclass(frozen=True)
class ShiftElement:
    """A coweight a*w1 + b*w2; the Dynkin involution swaps a and b."""

    a: Fraction
    b: Fraction

    def star(self):
        return ShiftElement(self.b, self.a)


def shift_action(pinned, e_l, e_r, mu):
    """Shift the pinnings of two boundary intervals by (mu, -mu*)."""
    tri = pinned.tri
    for e in (e_l, e_r):
        if not tri.has_edge(e) or tri.is_interior(e):
            raise UnknownInterval(e)
    delta = dict(pinned.delta)
    dp, dm = pinned.delta_at(e_l)
    delta[e_l] = (dp + Fraction(mu.a), dm + Fraction(mu.b))
    star = mu.star()
    dp, dm = pinned.delta_at(e_r)
    delta[e_r] = (dp - Fraction(star.a), dm - Fraction(star.b))
    return PinnedLamination(pinned.underlying, delta)


def glue_coordinates(xl_pair, xr_pair):
    """The frozen coordinates of the glued edge: x_{E,s} = x_{E_L,s} +
    x_{E_R,3-s}."""
    return (xl_pair[0] + xr_pair[1], xl_pair[1] + xr_pair[0])


def glue_laminations(pinned, e_l, e_r):
    """Glue a pinned lamination along two boundary intervals.

    The coweights of ``e_l`` and ``e_r`` turn into the strand-set pins.
    The walks are seeded from the window of both glued sheets and from
    every crossing of a glued sheet that has a stored strand on either
    side; every stored entry they do not visit is copied unchanged.  The
    coweights of the remaining intervals are re-anchored positionally:
    they shift by the net change of the corner-arc weight at their initial
    marked point, which is nonzero only at the merged points, where
    peripheral components disappear and glued curves may deposit new
    corner arcs; an interval starting elsewhere keeps its coweight.
    Rational inputs are glued as ``u`` times an integral lamination and
    written at weight 1/u.  Before any walk, a gluing whose windows
    force a picture over :data:`~sl3shear.laminations.MAX_PICTURE_SIZE`
    is refused with :class:`~sl3shear.laminations.PictureTooLarge`.
    """
    tri = pinned.tri
    if e_l == e_r:
        raise SameEdge(e_l)
    u, norm = normalize_integral(pinned)
    pic = norm.underlying.require_valid()
    t2, vertex_map = tri.glue_boundary(e_l, e_r)
    (sl, _), (sr, _) = tri.slots(e_l), tri.slots(e_r)
    dl, dr = (norm.delta_at(e) for e in (e_l, e_r))
    # an outgoing strand on the left side crosses on the left-to-right sheet
    pins = {slot: int(p) for slot, p in zip((sl, sr), glue_coordinates(dl, dr))}
    total = sum(pic.strand_count(*side) for side in pic.strand_lists)
    mass = abs(pins[sl]) + abs(pins[sr])
    stepper = _PictureStepper(pic, t2, pins, 4000 + 100 * (total + mass + 8) * max(1, len(tri.edges)))
    merged_ids = {vertex_map[v] for e in (e_l, e_r) for v in tri.edge_endpoints(e)}

    # the components crossing the new edge: from its bounded window, then
    # from every crossing of either sheet with a stored strand on one side
    height = sum(h.height for h in pic.honeycombs.values())
    window = bounded_window_seeds(stepper, ((sl, sr), (sr, sl)), height)
    in_window = set(window)
    seeds = list(window)
    for out_slot, in_slot in ((sl, sr), (sr, sl)):
        sigma = pins[out_slot] - 1
        seeds += [(out_slot, "out", j) for j in range(pic.strand_count(out_slot, "out"))]
        seeds += [(out_slot, "out", sigma - j) for j in range(pic.strand_count(in_slot, "in"))]

    # of the components not through the window, those that close up or
    # run boundary-to-boundary around a merged point, every turn winding
    # the same way, are the removed peripherals of the gluing
    # construction; every place walked is recorded, so that only the
    # stored entries of unwalked components are copied
    walked, entries = set(), []
    for seed, traveler in components(stepper, seeds):
        turns = traveler.turns
        if seed not in in_window and traveler.peripheral and turns[0].vertex in merged_ids:
            walked.update(t.place for t in turns)
            continue
        entries += stack_entries(stepper, traveler, SPIRAL_TURNS)[0]
    walked.update(place for place, _ in entries)
    for corner, stack in pic.corners.items():
        m = len(stack)
        entries += [
            ((corner, p - m), entry) for p, entry in enumerate(stack) if (corner, p - m) not in walked
        ]
    glued = build_picture(t2, pic.honeycombs, entries, Fraction(1, u)).require_valid()
    # re-anchor the coweights of the intervals starting at a merged
    # point; the honeycombs are kept, so only the corner-arc weights change
    delta = {}
    for e in t2.boundary_intervals:
        d = pinned.delta_at(e)
        if t2.edge_endpoints(e)[0] in merged_ids:
            old, new = boundary_weights(pinned.underlying, e), boundary_weights(glued, e)
            d = tuple(v + b - a for v, a, b in zip(d, old, new))
        if any(d):
            delta[e] = d
    return PinnedLamination(glued, delta)
