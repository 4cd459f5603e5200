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
components are followed by the strand walker of
:mod:`sl3shear.reconstruct`, through :class:`_GlueStepper`: it reuses the
explicit-picture stepper for the strands of the original picture and
adds "virtual" arcs, indexed past either end of a strand list, and the
pinned pairing across the new edge.  Only the virtual arcs actually used
by a surviving component are written into the output picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laminations import (
    CornerArc,
    GlobalPicture,
    PinnedLamination,
    InvalidPicture,
    normalize_integral,
)
from .reconstruct import Turn, _PictureStepper, _rescale_picture, spiral_tail, walk_both
from .surface import SameEdge, Sl3Error


class UnknownInterval(Sl3Error):
    pass


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
    dp, dm = pinned.delta_at(e_r)
    delta[e_r] = (dp - Fraction(mu.b), dm - Fraction(mu.a))
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
    from the marked point is clockwise); an arc's place is (corner,
    virtual depth).  Added arcs pair by the reversal, extended, across
    the old edges, and the two glued sides pair by the pins: psi' =
    sigma - psi on the half-integer parameter psi = j + 1/2."""

    def __init__(self, pic, e_l, e_r, delta, t2, vertex_map):
        diags = pic.validate()
        if diags:
            raise InvalidPicture("; ".join(diags))
        super().__init__(pic)
        self.surface = t2
        self.vertex_map = vertex_map
        self.slot_l = pic.tri.slots(e_l)[0]
        self.slot_r = pic.tri.slots(e_r)[0]
        dl = delta.get(e_l, (Fraction(0), Fraction(0)))
        dr = delta.get(e_r, (Fraction(0), Fraction(0)))
        if any(v.denominator != 1 for v in (*dl, *dr)):
            raise InvalidPicture("gluing requires integral pinnings")
        self.sigma_lr = int(dl[0] + dr[1])
        self.sigma_rl = int(dl[1] + dr[0])
        # (edge, direction reached) -> (far slot, sigma): an incoming
        # strand on the left side was paired on the right-to-left sheet
        self.pins = {
            (e_l, "in"): (self.slot_r, self.sigma_lr),
            (e_l, "out"): (self.slot_r, self.sigma_rl),
            (e_r, "in"): (self.slot_l, self.sigma_rl),
            (e_r, "out"): (self.slot_l, self.sigma_lr),
        }
        total = sum(len(v) for v in self.lists.values())
        mass = abs(self.sigma_lr) + abs(self.sigma_rl)
        self.step_cap = 4000 + 100 * (total + mass + 8) * max(1, len(pic.tri.edges))

    def vertex(self, corner):
        return self.vertex_map[self.pic.tri.corner_vertex(*corner)]

    def _n(self, slot, d):
        return len(self.lists[(slot, d)])

    def _cross(self, state, to):
        # the inherited reversal n - 1 - j also pairs the virtual indices
        pin = self.pins.get((self.pic.tri.edge_at(state[0]), to))
        if pin is None:
            return super()._cross(state, to)
        return (pin[0], to, pin[1] - 1 - state[2])

    def _turn(self, state, to):
        slot, d, j = state
        n = self._n(slot, d)
        if 0 <= j < n:
            return super()._turn(state, to)
        t, i = slot
        if j < 0:
            # at the initial corner, whose other side is the previous
            # one; there the arc lies past the terminal end
            r, corner = -j - 1, (t, (i - 1) % 3)
            depth, other = 2 * r + (d == "in"), corner
            nxt = (other, to, self._n(other, to) + r)
        else:
            r, corner = j - n, (t, i % 3)
            depth, other = 2 * r + (d == "out"), (t, (i + 1) % 3)
            nxt = (other, to, -r - 1)
        orient = "cw" if depth % 2 == 0 else "ccw"
        return Turn(nxt, corner, orient, self.vertex(corner), depth, (corner, depth))


def _zone_counts(stepper, slot, direction):
    """(initial, legs) counts of the original strand list."""
    classes = [stepper.pic.strand_corner_class(ref) for ref in stepper.lists[(slot, direction)]]
    return classes.count("initial"), classes.count("leg")


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
        p, q = _zone_counts(stepper, out_slot, "out")
        p2, q2 = _zone_counts(stepper, in_slot, "in")
        lo = min(p, sigma - p2 - q2)
        hi = max(p + q, sigma - p2)
        seeds.extend((out_slot, "out", j) for j in range(lo, hi))
    return seeds


def glue_laminations(pinned, e_l, e_r, spiral_turns=2):
    """Glue a pinned lamination along two boundary intervals.

    The coweights of ``e_l`` and ``e_r`` turn into the strand-set pins.
    The coweights of the remaining intervals are re-anchored positionally:
    they shift by the net change of the corner-arc weight at their initial
    marked point (nonzero only at the merged points, where peripheral
    components disappear and glued curves may deposit new corner arcs).
    Rational inputs are scaled integral first and rescaled back.
    """
    tri = pinned.tri
    if e_l == e_r:
        raise SameEdge(e_l)
    u, norm = normalize_integral(pinned)
    pic = norm.underlying
    if not isinstance(pic, GlobalPicture):
        raise InvalidPicture("picture-level gluing needs a GlobalPicture")
    t2, res = tri.glue_boundary(e_l, e_r)
    stepper = _GlueStepper(pic, e_l, e_r, norm.delta, t2, res.vertex_map)

    keep_orig = set()
    new_virts = {}
    markers = {}
    visited = set()
    merged_ids = {res.vertex_map[v] for e in (e_l, e_r) for v in tri.edge_endpoints(e)}

    def run(seed, drop_if_new_peripheral):
        if seed in visited:
            return
        fw, bw = walk_both(stepper, seed)
        turns = bw.turns + fw.turns
        for w in (fw, bw):
            visited.update(w.crossings)
            visited.update(t.state for t in w.turns)
        verts = {t.vertex for t in turns}
        if drop_if_new_peripheral and len(verts) == 1 and verts <= merged_ids:
            # a loop around a merged point is peripheral only if it winds
            # monotonically (every turn the same way); mixed turns circle
            # a handle instead
            if fw.peripheral or fw.end[0] == bw.end[0] == "boundary":
                return
        for w, forward in ((fw, True), (bw, False)):
            if w.end[0] == "marker":
                keep_orig.add(w.end[3])
            elif w.end[0] == "spiral":
                tail, marker, spiral_end = spiral_tail(stepper, w.end, forward, spiral_turns)
                turns += tail
                markers[marker.place] = spiral_end
        for t in turns:
            if t.depth is None:
                keep_orig.add(t.place)
            else:
                new_virts[t.place] = t.orient

    # components crossing the new edge, including those made entirely of
    # added arcs (they are never peripheral: their window crossing does
    # not hug a corner)
    for seed in _window_seeds(stepper):
        run(seed, drop_if_new_peripheral=False)
    # remaining original components; those that close up or run
    # boundary-to-boundary around a merged point are the removed
    # peripherals of the gluing construction
    for (slot, d), refs in sorted(stepper.lists.items(), key=lambda kv: str(kv[0])):
        if d != "out":
            continue
        for idx in range(len(refs)):
            run((slot, "out", idx), drop_if_new_peripheral=True)

    glued = _assemble(stepper, keep_orig, new_virts, markers)
    if u != 1:
        glued = _rescale_picture(glued, Fraction(1, u))
    # re-anchor the coweights of the remaining intervals
    orig_pic = pinned.underlying
    delta = {}
    for e in t2.boundary_intervals:
        (t, i), _ = t2.slots(e)
        m = (t, (i - 1) % 3)
        dp, dm = pinned.delta_at(e)
        dp += glued.corner_arc_weight(m, "cw") - orig_pic.corner_arc_weight(m, "cw")
        dm += glued.corner_arc_weight(m, "ccw") - orig_pic.corner_arc_weight(m, "ccw")
        if dp or dm:
            delta[e] = (dp, dm)
    return PinnedLamination(glued, delta)


def _assemble(stepper, keep_orig, new_virts, markers):
    """Build the glued picture from the surviving pieces."""
    pic = stepper.pic
    corners = {}
    for corner, stack in pic.corners.items():
        kept = [entry for p, entry in enumerate(stack) if (corner, p) in keep_orig]
        if kept:
            corners[corner] = kept
    deep = {}
    for (corner, depth), orient in new_virts.items():
        deep.setdefault(corner, []).append((depth, CornerArc(orient)))
    for (corner, depth), marker in markers.items():
        deep.setdefault(corner, []).append((depth, marker))
    for corner, entries in deep.items():
        entries.sort(key=lambda kv: kv[0])
        depths = [d for d, _ in entries]
        if len(set(depths)) != len(depths):
            raise InvalidPicture(f"colliding virtual depths at {corner}")
        corners.setdefault(corner, [])
        corners[corner] = list(corners.get(corner, [])) + [e for _, e in entries]
    honeycombs = dict(pic.honeycombs)
    glued = GlobalPicture(stepper.surface, honeycombs, corners)
    diags = glued.validate()
    if diags:
        raise InvalidPicture("; ".join(diags))
    return glued
