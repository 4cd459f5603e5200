"""Reconstruction of a good-position picture from shear coordinates, and
the strand walker shared by reconstruction, traveler tracing and gluing.

A strand alternately crosses a biangle and turns at a corner inside a
triangle.  :func:`walk` follows one strand through a *stepper*, which
supplies four operations on states ``(slot, direction, parameter)``:
``cross`` and ``turn`` and their inverses ``cross_back`` and
``turn_back``.  A crossing returns the state on the far side, or None on
the boundary; a turn returns a :class:`Turn`, or an end tuple such as
``("sink", t)``.  The walker owns the step cap, loop detection, the
spiral detector, the peripheral rule for closed loops and the spiral tail
writer :func:`spiral_tail`; the steppers only step.

The inverse map places a honeycomb of height |x_T| in every triangle and
infinite alternating corner-arc stacks at every corner, then pairs the
strand sets across each interior edge by the pinning rule

    n_L^+ = x_{E,1},  n_R^- = [x_{T_R}]_+,
    n_L^- = [x_{T_L}]_+,  n_R^+ = x_{E,2},

so that a strand at parameter t on one side is paired with the strand at
parameter (n_L + n_R) - t on the other.  :class:`_CoordStepper` walks this
infinite picture arithmetically on the parameters: the finitely many
crossings that do not hug a corner of their quadrilateral seed the trace,
so peripheral components never appear.  Only the surviving travelers are
materialized, with spiral tails truncated to a sign marker after
``spiral_turns`` extra turns.  :class:`_PictureStepper` walks the strand
lists of an explicit picture for :func:`traveler_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laminations import (
    CornerArc,
    GlobalPicture,
    Honeycomb,
    SpiralEnd,
    InvalidPicture,
    shear_unfrozen,
)
from .surface import Sl3Error
from .tropical import TropicalPoint, pos


class TruncationTooShallow(Sl3Error):
    """A walk ran out of steps.  ``seed`` is the state it started from,
    ``steps`` the number of steps it took and ``cap`` the number it was
    allowed."""

    def __init__(self, message, seed, steps, cap):
        self.seed, self.steps, self.cap = seed, steps, cap
        super().__init__(message)


class NonIntegralInput(Sl3Error):
    pass


HALF = Fraction(1, 2)
LOOP = ("loop",)
_REVERSED = {"cw": "ccw", "ccw": "cw"}


# -- the strand walker --------------------------------------------------------


@dataclass(slots=True)
class Turn:
    """One turn of a strand at a corner of a triangle.

    ``depth`` grows as the turn moves away from the triangle's interior
    into the corner; it is None for a turn on a fixed arc, which cannot
    be part of a spiral.  ``place`` tells the caller where the arc sits
    in its corner stack."""

    state: tuple  # the state the strand continues from
    corner: tuple
    orient: str  # orientation of the corner arc: 'cw' | 'ccw'
    vertex: str  # the marked point of the corner
    depth: object
    place: tuple


@dataclass
class Walk:
    crossings: list  # the out-states crossed, from the seed on
    turns: list  # in walk order
    end: tuple

    @property
    def peripheral(self):
        """A closed loop whose turns all wind the same way around one
        vertex."""
        return self.end == LOOP and len({(t.vertex, t.orient) for t in self.turns}) == 1


def walk(stepper, seed, forward):
    """Follow the strand through the out-state ``seed`` forward or backward.

    The end is ``LOOP`` when the strand closes up, ``("boundary", state)``
    where no crossing continues it, a stepper's end tuple, or
    ``("spiral", vertex, sign, state)`` once it spirals into a puncture:
    it revisits a (slot, direction) at strictly greater depth within a
    run of turns that all wind the same way around the puncture.  Such a
    run makes the one-turn return map a translation, so the spiral repeats
    forever; :func:`spiral_tail` continues it from ``state``."""
    cross, turn = (stepper.cross, stepper.turn) if forward else (stepper.cross_back, stepper.turn_back)
    vertices = stepper.surface.vertices
    crossings = []
    turns = []
    run_of, run = None, {}
    state = seed
    for _ in range(stepper.step_cap):
        crossings.append(state)
        # forward a step crosses and then turns, backward it turns back
        # and then crosses back
        at = cross(state) if forward else state
        if at is None:
            return Walk(crossings, turns, ("boundary", state))
        t = turn(at)
        if type(t) is not Turn:
            return Walk(crossings, turns, t)
        turns.append(t)
        if t.depth is None:
            run_of = None
        else:
            if run_of != (t.vertex, t.orient):
                run_of, run = (t.vertex, t.orient), {}
            key = at[:2]
            last = run.get(key)
            run[key] = t.depth
            if last is not None and t.depth > last and vertices[t.vertex] == "puncture":
                winding = t.orient if forward else _REVERSED[t.orient]
                sign = SpiralEnd(winding, not forward).sign
                return Walk(crossings, turns, ("spiral", t.vertex, sign, t.state))
        state = t.state if forward else cross(t.state)
        if state is None:
            return Walk(crossings, turns, ("boundary", t.state))
        if state == seed:
            return Walk(crossings, turns, LOOP)
    cap = stepper.step_cap
    raise TruncationTooShallow(f"walk from {seed} exceeded the step cap {cap}", seed, cap, cap)


def walk_both(stepper, seed):
    """The forward and the backward walk of the strand through ``seed``;
    a closed loop needs only the forward one."""
    fw = walk(stepper, seed, True)
    return fw, (Walk([], [], LOOP) if fw.end == LOOP else walk(stepper, seed, False))


def strand_kind(fw, bw):
    """'loop', 'spiral' (an end at a puncture) or 'arc'."""
    if fw.end == LOOP:
        return "loop"
    return "spiral" if {fw.end[0], bw.end[0]} & {"spiral", "marker"} else "arc"


def spiral_tail(stepper, end, forward, turns):
    """Write the tail of a detected spiral: ``turns`` more full turns
    around its puncture, then the turn that carries the sign marker.
    Returns (tail turns, marker turn, the SpiralEnd for the marker)."""
    _, vertex, _, state = end
    cross, turn = (stepper.cross, stepper.turn) if forward else (stepper.cross_back, stepper.turn_back)
    tail = []
    steps = turns * len(stepper.surface.corners_at_vertex(vertex)) + 1
    for _ in range(steps):
        at = cross(state)
        t = None if at is None else turn(at)
        if type(t) is not Turn or t.depth is None:
            raise TruncationTooShallow(
                f"spiral tail from {end[3]} left the winding zone after {len(tail)} of {steps} steps",
                end[3], len(tail), steps,
            )
        tail.append(t)
        state = t.state
    marker = tail.pop()
    winding = marker.orient if forward else _REVERSED[marker.orient]
    return tail, marker, SpiralEnd(winding, outgoing=not forward)


# -- coordinate tracing -------------------------------------------------------


class _CoordStepper:
    """Steps on the implicit infinite picture of a coordinate vector.
    Parameters are half-integers; an arc's place is (corner, orient, rank)
    with rank its position among the same-orientation arcs of the
    corner."""

    def __init__(self, tri, x, step_cap):
        self.surface = tri
        self.x = x
        self.step_cap = step_cap
        self._faces = {t: x[("tri", t)] for t in tri.triangles}
        self._sigma = {}
        for e in tri.interior_edges:
            (tl, _), (tr, _) = tri.slots(e)
            self._sigma[(e, "lr")] = x[("edge", e, 1)] + pos(self._faces[tr])
            self._sigma[(e, "rl")] = x[("edge", e, 2)] + pos(self._faces[tl])

    def face(self, t):
        return self._faces[t]

    def in_legs(self, t):
        return pos(self._faces[t])

    def out_legs(self, t):
        return pos(-self._faces[t])

    def sigma(self, e, sheet):
        return self._sigma[(e, sheet)]

    def _turn(self, state, corner, orient, depth, rank):
        vertex = self.surface.corner_vertex(*corner)
        return Turn(state, corner, orient, vertex, depth, (corner, orient, rank))

    def cross(self, state):
        slot, _, k = state
        e = self.surface.edge_at(slot)
        sl, sr = self.surface.slots(e)
        if sr is None:
            return None
        if slot == sl:
            return (sr, "in", self.sigma(e, "lr") - k)
        return (sl, "in", self.sigma(e, "rl") - k)

    def cross_back(self, state):
        slot, _, k = state
        e = self.surface.edge_at(slot)
        sl, sr = self.surface.slots(e)
        if sr is None:
            return None
        if slot == sr:
            return (sl, "out", self.sigma(e, "lr") - k)
        return (sr, "out", self.sigma(e, "rl") - k)

    def turn(self, state):
        (t, i), _, k = state
        a = self.in_legs(t)
        if k < 0:
            corner = (t, (i - 1) % 3)
            return self._turn((corner, "out", self.out_legs(t) - k), corner, "ccw", -k, -k - HALF)
        if k < a:
            return ("sink", t)
        return self._turn(((t, (i + 1) % 3), "out", a - k), (t, i % 3), "cw", k, k - a - HALF)

    def turn_back(self, state):
        (t, i), _, k = state
        b = self.out_legs(t)
        if k > b:
            return self._turn(((t, (i + 1) % 3), "in", b - k), (t, i % 3), "ccw", k, k - b - HALF)
        if k > 0:
            return ("source", t)
        corner = (t, (i - 1) % 3)
        return self._turn((corner, "in", self.in_legs(t) - k), corner, "cw", -k, -k - HALF)

    def seed_window(self, e, sheet):
        """Half-integer out-parameters on the (left for 'lr', right for
        'rl') side whose crossings do not hug a corner."""
        (tl, _), (tr, _) = self.surface.slots(e)
        sigma = self.sigma(e, sheet)
        if sheet == "lr":
            own_legs = self.out_legs(tl)
            far_coord = self.x[("edge", e, 1)]
        else:
            own_legs = self.out_legs(tr)
            far_coord = self.x[("edge", e, 2)]
        lo = min(Fraction(0), far_coord)
        hi = max(own_legs, sigma)
        k = lo + HALF
        out = []
        while k < hi:
            out.append(k)
            k += 1
        return out

    def crossing_hugs(self, state):
        """Whether the crossing leaving via ``state`` hugs a corner: both
        of its ends sit in matching corner zones."""
        nxt = self.cross(state)
        if nxt is None:
            return False
        (t, _), _, k = state
        (t2, _), _, k2 = nxt
        # the terminal corner of the out-side matches the initial corner
        # of the far side and vice versa
        return (k > self.out_legs(t) and k2 < 0) or (k < 0 and k2 > self.in_legs(t2))


@dataclass
class Traveler:
    """A traced curve.  ``start``/``end`` are the ends of its backward
    and forward walks."""

    kind: str  # 'arc' | 'loop' | 'spiral'
    turns: list
    start: tuple
    end: tuple


def trace_coordinates(x, tri, step_cap):
    """All non-peripheral travelers of the implicit infinite picture, in
    seed order.  A seed that an earlier traveler's walks already crossed
    belongs to that traveler and is skipped."""
    stepper = _CoordStepper(tri, x, step_cap)
    visited = set()
    travelers = []
    for e in tri.interior_edges:
        sl, sr = tri.slots(e)
        for sheet, slot in (("lr", sl), ("rl", sr)):
            for k in stepper.seed_window(e, sheet):
                seed = (slot, "out", k)
                if seed in visited or stepper.crossing_hugs(seed):
                    continue
                fw, bw = walk_both(stepper, seed)
                visited.update(bw.crossings)
                visited.update(fw.crossings)
                turns = bw.turns[::-1] + fw.turns
                travelers.append(Traveler(strand_kind(fw, bw), turns, bw.end, fw.end))
    return stepper, travelers


def reconstruct(x, tri, spiral_turns=2, normalize=True):
    """Build the good-position picture of an integral coordinate vector.

    Rational vectors are rejected with :class:`NonIntegralInput` when
    ``normalize`` is false; otherwise they are scaled integral first and
    the resulting picture rescaled back (weights 1/u).
    """
    from .seeds import Sl3IndexSet

    unfrozen = Sl3IndexSet(tri).unfrozen
    xr = TropicalPoint("X", {i: x[i] for i in unfrozen}, tri=tri, restricted=True)
    nonint = [i for i, v in xr.coords.items() if v.denominator != 1]
    if nonint:
        if not normalize:
            raise NonIntegralInput(nonint[0])
        from math import lcm

        u = lcm(*[xr[i].denominator for i in nonint])
        xs = TropicalPoint(
            "X", {i: v * u for i, v in xr.coords.items()}, tri=tri, restricted=True
        )
        pic = reconstruct(xs, tri, spiral_turns=spiral_turns)
        return _rescale_picture(pic, Fraction(1, u))
    stepper, travelers = trace_coordinates(xr, tri, _step_cap(xr, tri))
    pic = _materialize(stepper, travelers, spiral_turns)
    diags = pic.validate()
    if diags:
        raise InvalidPicture("; ".join(diags))
    return pic


def _step_cap(x, tri):
    """A bound on the steps of one walk, from the largest quadrilateral
    coordinate mass."""
    mass = 0
    for e in tri.interior_edges:
        (tl, _), (tr, _) = tri.slots(e)
        mass = max(mass, abs(x[("edge", e, 1)]) + abs(x[("edge", e, 2)])
                   + abs(x[("tri", tl)]) + abs(x[("tri", tr)]))
    return max(256, 8 * len(tri.edges) * (int(mass) + 6))


def _rescale_picture(pic, w):
    from dataclasses import replace as _r

    honeycombs = {t: Honeycomb(h.orient, h.height, h.weight * w) for t, h in pic.honeycombs.items()}
    corners = {
        c: tuple(_r(entry, weight=entry.weight * w) for entry in stack)
        for c, stack in pic.corners.items()
    }
    return GlobalPicture(pic.tri, honeycombs, corners)


def _materialize(stepper, travelers, spiral_turns):
    tri = stepper.surface
    honeycombs = {}
    for t in tri.triangles:
        v = stepper.face(t)
        if v > 0:
            honeycombs[t] = Honeycomb("sink", int(v))
        elif v < 0:
            honeycombs[t] = Honeycomb("source", int(-v))
    per_corner = {}

    def put(place, entry):
        corner, orient, rank = place
        key = 2 * rank + (0 if orient == "cw" else 1)
        per_corner.setdefault(corner, []).append((key, entry))

    for trav in travelers:
        for t in trav.turns:
            put(t.place, CornerArc(t.orient))
        for end, forward in ((trav.start, False), (trav.end, True)):
            if end is not None and end[0] == "spiral":
                tail, marker, spiral_end = spiral_tail(stepper, end, forward, spiral_turns)
                for t in tail:
                    put(t.place, CornerArc(t.orient))
                put(marker.place, spiral_end)
    corners = {}
    for c, items in per_corner.items():
        items.sort(key=lambda kv: kv[0])
        keys = [k for k, _ in items]
        if len(set(keys)) != len(keys):
            raise InvalidPicture(f"colliding stack ranks at corner {c}")
        corners[c] = tuple(entry for _, entry in items)
    return GlobalPicture(tri, honeycombs, corners)


# -- explicit-picture tracing ------------------------------------------------


@dataclass
class PictureTraveler:
    kind: str  # 'arc' | 'loop' | 'spiral'
    peripheral: bool
    route: tuple  # edge ids crossed, in forward order
    identifiers: tuple  # ((edge, k_out, k_in, sheet), ...) per crossing
    start: tuple
    end: tuple


class _PictureStepper:
    """Steps on the strand lists of an explicit picture; the parameter of
    a state is the strand's index in its list, and an arc's place is
    (corner, stack position).  A crossing pairs index j of a list of
    length n with index n - 1 - j on the far side.  A stored spiral marker
    ends a walk with ``("marker", vertex, sign, place)``."""

    def __init__(self, pic):
        self.pic = pic
        self.surface = pic.tri
        self.lists = pic.strand_lists
        self.arc_ends = {}
        for (slot, d), refs in self.lists.items():
            for idx, ref in enumerate(refs):
                if ref.origin[0] == "corner":
                    self.arc_ends.setdefault((ref.origin[1], ref.origin[2], d), []).append(
                        (slot, idx)
                    )
        self.step_cap = 1 + sum(len(refs) for refs in self.lists.values())

    def vertex(self, corner):
        return self.surface.corner_vertex(*corner)

    def cross(self, state):
        return self._cross(state, "in")

    def cross_back(self, state):
        return self._cross(state, "out")

    def _cross(self, state, to):
        slot, d, j = state
        far = self.pic.tri.other_slot(slot)
        return None if far is None else (far, to, len(self.lists[(slot, d)]) - 1 - j)

    def turn(self, state):
        return self._turn(state, "out")

    def turn_back(self, state):
        return self._turn(state, "in")

    def _turn(self, state, to):
        slot, d, idx = state
        ref = self.lists[(slot, d)][idx]
        if ref.origin[0] == "leg":
            return ("sink" if d == "in" else "source", slot[0])
        _, corner, p = ref.origin
        entry = self.pic.corner_stack(corner)[p]
        if isinstance(entry, SpiralEnd):
            return ("marker", self.vertex(corner), entry.sign, (corner, p))
        ends = self.arc_ends.get((corner, p, to), [])
        if len(ends) != 1:
            which = "an outgoing" if to == "out" else "an incoming"
            raise InvalidPicture(f"arc at {corner} lacks {which} end")
        (slot2, idx2), = ends
        return Turn((slot2, to, idx2), corner, entry.orient, self.vertex(corner), None, (corner, p))


def traveler_trace(pic):
    """Trace every curve of a picture, classifying its type and recording
    its route and biangle identifiers."""
    diags = pic.validate()
    if diags:
        raise InvalidPicture("; ".join(diags))
    tri = pic.tri
    stepper = _PictureStepper(pic)
    visited = set()
    travelers = []
    for (slot, d), refs in sorted(stepper.lists.items(), key=lambda kv: str(kv[0])):
        if d != "out":
            continue
        for idx in range(len(refs)):
            seed = (slot, "out", idx)
            if seed in visited:
                continue
            fw, bw = walk_both(stepper, seed)
            crossings = bw.crossings[:0:-1] + fw.crossings
            visited.update(crossings)
            route = []
            idents = []
            for out in crossings:
                e = tri.edge_at(out[0])
                route.append(e)
                far = stepper.cross(out)
                if far is None:
                    break
                sheet = "lr" if out[0] == tri.slots(e)[0] else "rl"
                k_out = pic.strand_parameter(out[0], "out", out[2])
                k_in = pic.strand_parameter(far[0], "in", far[2])
                idents.append((e, k_out, k_in, sheet))
            travelers.append(
                PictureTraveler(
                    strand_kind(fw, bw), fw.peripheral, tuple(route), tuple(idents), bw.end, fw.end
                )
            )
    return travelers


def identifier_relations(pic, x=None):
    """Check the traveler-identifier relations on every biangle crossing:
    k_out + k_in = x_{E,1} + [x_{T_R}]_+ on the left-to-right sheet and
    x_{E,2} + [x_{T_L}]_+ on the other.  Returns a list of violations."""
    if x is None:
        x = shear_unfrozen(pic)
    tri = pic.tri
    bad = []
    for trav in traveler_trace(pic):
        for (e, k_out, k_in, sheet) in trav.identifiers:
            (tl, _), (tr, _) = tri.slots(e)
            if sheet == "lr":
                want = x[("edge", e, 1)] + pos(x[("tri", tr)])
            else:
                want = x[("edge", e, 2)] + pos(x[("tri", tl)])
            if k_out + k_in != want:
                bad.append((e, sheet, k_out, k_in, want))
    return bad


def roundtrip_check(x, tri):
    """Verify shear(reconstruct(x)) == x exactly, and that one more
    spiral turn leaves the shear unchanged.

    The coordinates are traced once and materialized with two and with
    three tail turns.  Rational vectors are handled by positive
    rescaling.  Returns a dict report with the reconstructed picture
    included.
    """
    from math import lcm

    from .seeds import Sl3IndexSet

    coords = {i: Fraction(x[i]) for i in Sl3IndexSet(tri).unfrozen}

    u = lcm(*[v.denominator for v in coords.values()]) if coords else 1
    xi = TropicalPoint("X", {i: v * u for i, v in coords.items()}, tri=tri, restricted=True)
    stepper, travelers = trace_coordinates(xi, tri, _step_cap(xi, tri))
    pic = _materialize(stepper, travelers, 2)
    y = shear_unfrozen(pic)
    y2 = shear_unfrozen(_materialize(stepper, travelers, 3))
    report = {
        "ok": y == xi and y2 == xi,
        "stable": y == y2,
        "scale": u,
        "picture": pic,
        "shear": y,
    }
    return report
