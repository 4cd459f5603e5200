"""Gluing of pinned laminations along boundary intervals.

``glue_coordinates`` is the tropicalized amalgamation on coordinates:
the frozen coordinates of the glued intervals add crosswise.
``glue_laminations`` performs the geometric construction: infinite
alternating corner-arc collections are drawn around the endpoints of the
glued intervals, the strand sets across the new edge are paired by the
pinning read off the coweights delta, new peripheral components are
removed, and new spiralling ends (when a merged point becomes a
puncture) are truncated to sign markers.

The infinite added collections are never materialized up front.  The
components are followed by the strand walker and the component loop
of :mod:`sl3shear.reconstruct`, through :class:`_GlueStepper`: it reuses
the explicit-picture stepper for the strands of the original picture and
adds "virtual" arcs, indexed past either end of a strand list, and the
pinned pairing across the new edge.  The surviving components are
written by the picture writer that reconstruction uses, so only the
virtual arcs they use enter the output picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laminations import (
    PinnedLamination,
    InvalidPicture,
    boundary_weights,
    normalize_integral,
)
from .reconstruct import (
    SPIRAL_TURNS,
    Traveler,
    Turn,
    _PictureStepper,
    build_picture,
    components,
    out_seeds,
    stack_entries,
    strand_kind,
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


class _GlueStepper(_PictureStepper):
    """Steps on the glued picture.  States are those of the input
    picture, extended by the infinite added collections: on a side whose
    strand list has n entries, the index j < 0 is the added arc r = -j-1
    deep beyond the initial corner's stack, and j >= n the one r = j-n
    deep beyond the terminal corner's.  At a corner the added arcs have
    virtual depths 2r and 2r+1, clockwise for even ones (the farthest arc
    from the marked point is clockwise); an added arc's place key is (1,
    virtual depth), after every stored entry of the corner.  Added arcs
    pair by the reversal, extended, across the old edges, and the two
    glued sides pair by the pins: psi' = sigma - psi on the half-integer
    parameter psi = j + 1/2."""

    def __init__(self, pic, e_l, e_r, delta, t2, vertex_map):
        super().__init__(pic.require_valid())
        self.surface = t2
        self.slot_l = pic.tri.slots(e_l)[0]
        self.slot_r = pic.tri.slots(e_r)[0]
        dl = delta.get(e_l, (Fraction(0), Fraction(0)))
        dr = delta.get(e_r, (Fraction(0), Fraction(0)))
        if any(v.denominator != 1 for v in (*dl, *dr)):
            raise InvalidPicture("gluing requires integral pinnings")
        self.sigma_lr = int(dl[0] + dr[1])
        self.sigma_rl = int(dl[1] + dr[0])
        # the pins pair the glued sides: (slot, direction) -> (far slot,
        # direction reached, sigma - 1); an outgoing strand on the left
        # side crosses on the left-to-right sheet
        self.over.update({
            (self.slot_l, "out"): (self.slot_r, "in", self.sigma_lr - 1),
            (self.slot_l, "in"): (self.slot_r, "out", self.sigma_rl - 1),
            (self.slot_r, "out"): (self.slot_l, "in", self.sigma_rl - 1),
            (self.slot_r, "in"): (self.slot_l, "out", self.sigma_lr - 1),
        })
        self.vertex_at = {c: vertex_map[v] for c, v in self.vertex_at.items()}
        total = sum(self.counts.values())
        mass = abs(self.sigma_lr) + abs(self.sigma_rl)
        self.step_cap = 4000 + 100 * (total + mass + 8) * max(1, len(pic.tri.edges))

    def _turn(self, state, to):
        slot, d, j = state
        n = self.counts[(slot, d)]
        if 0 <= j < n:
            return super()._turn(state, to)
        t, i = slot
        if j < 0:
            # at the initial corner, whose other side is the previous
            # one; there the arc lies past the terminal end
            r, corner = -j - 1, (t, (i - 1) % 3)
            depth, other = 2 * r + (d == "in"), corner
            nxt = (other, to, self.counts[(other, to)] + r)
        else:
            r, corner = j - n, (t, i % 3)
            depth, other = 2 * r + (d == "out"), (t, (i + 1) % 3)
            nxt = (other, to, -r - 1)
        orient = "cw" if depth % 2 == 0 else "ccw"
        return Turn(nxt, corner, orient, self.vertex_at[corner], depth, (corner, (1, depth)))


def _window_seeds(stepper):
    """Non-hugging crossings of the glued biangle, as outgoing states.

    A crossing hugs an endpoint of the new edge when both of its strands
    sit in the matching corner zones; outside a finite window of
    parameters every crossing hugs, so the window seeds every
    non-peripheral component that crosses the new edge."""
    seeds = []
    for out_slot, in_slot, sigma in (
        (stepper.slot_l, stepper.slot_r, stepper.sigma_lr),
        (stepper.slot_r, stepper.slot_l, stepper.sigma_rl),
    ):
        initial, legs, _ = stepper.lists[(out_slot, "out")]
        far_initial, far_legs, _ = stepper.lists[(in_slot, "in")]
        lo = min(len(initial), sigma - len(far_initial) - far_legs)
        hi = max(len(initial) + legs, sigma - len(far_initial))
        seeds.extend((out_slot, "out", j) for j in range(lo, hi))
    return seeds


def glue_laminations(pinned, e_l, e_r):
    """Glue a pinned lamination along two boundary intervals.

    The coweights of ``e_l`` and ``e_r`` turn into the strand-set pins.
    The coweights of the remaining intervals are re-anchored positionally:
    they shift by the net change of the corner-arc weight at their initial
    marked point (nonzero only at the merged points, where peripheral
    components disappear and glued curves may deposit new corner arcs).
    Rational inputs are glued as ``u`` times an integral lamination and
    written with weights 1/u.
    """
    tri = pinned.tri
    if e_l == e_r:
        raise SameEdge(e_l)
    u, norm = normalize_integral(pinned)
    pic = norm.underlying
    t2, res = tri.glue_boundary(e_l, e_r)
    stepper = _GlueStepper(pic, e_l, e_r, norm.delta, t2, res.vertex_map)
    merged_ids = {res.vertex_map[v] for e in (e_l, e_r) for v in tri.edge_endpoints(e)}

    # components crossing the new edge come first, including those made
    # entirely of added arcs (never peripheral: their window crossing
    # does not hug a corner); of the remaining original components, those
    # that close up or run boundary-to-boundary around a merged point,
    # every turn winding the same way, are the removed peripherals of the
    # gluing construction
    window = _window_seeds(stepper)
    in_window = set(window)
    entries = []
    for seed, fw, bw in components(stepper, window + out_seeds(pic)):
        peripheral = seed not in in_window and fw.peripheral_with(bw)
        if peripheral and (fw.turns or bw.turns)[0].vertex in merged_ids:
            continue
        traveler = Traveler(strand_kind(fw, bw), bw.turns[::-1] + fw.turns, bw.end, fw.end)
        entries += stack_entries(stepper, traveler, (SPIRAL_TURNS,))[0]
    glued = build_picture(t2, pic.honeycombs, entries, Fraction(1, u)).require_valid()
    # re-anchor the coweights of the remaining intervals; the honeycombs
    # are kept, so only the corner-arc weights change
    delta = {}
    for e in t2.boundary_intervals:
        old, new = boundary_weights(pinned.underlying, e), boundary_weights(glued, e)
        dp, dm = (d + b - a for d, a, b in zip(pinned.delta_at(e), old, new))
        if dp or dm:
            delta[e] = (dp, dm)
    return PinnedLamination(glued, delta)
