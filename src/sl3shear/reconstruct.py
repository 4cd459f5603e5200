"""Reconstruction of a good-position picture from shear coordinates, and
the strand walker shared by reconstruction, traveler tracing and gluing.

A strand alternately crosses a biangle and turns at a corner inside a
triangle.  :func:`walk` follows one strand through a *stepper*, which
supplies four operations on states ``(slot, direction, parameter)``:
``cross`` and ``turn`` and their inverses ``cross_back`` and
``turn_back``, plus ``shown``, the form of a state that errors report.
A crossing returns the state on the far side, or None on the boundary; a
turn returns a :class:`Turn`, or an end tuple such as ``("sink", t)``.
The walker owns the step cap, loop detection, the spiral detector, the
peripheral rule for closed loops and boundary-to-boundary arcs
(:meth:`Walk.peripheral_with`) and the spiral tail walk
:func:`spiral_tail`; the steppers only step.

Reconstruction, traveler tracing and gluing share two more helpers.
:func:`components` walks the strand through each seed that no earlier
walk passed through.  A turn's ``place`` is ``(corner, key)`` in every
stepper, so :func:`stack_entries` lists the stack entries of any
component and :func:`build_picture` sorts them into corner stacks, at
weight 1/u for a vector or lamination scaled integral by u.  A tail of
fewer turns is a prefix of a longer one, so the round-trip check walks
each tail once and writes the pictures of two and of three turns.

The inverse map places a honeycomb of height |x_T| in every triangle and
infinite alternating corner-arc stacks at every corner, then pairs the
strand sets across each interior edge by the pinning rule

    n_L^+ = x_{E,1},  n_R^- = [x_{T_R}]_+,
    n_L^- = [x_{T_L}]_+,  n_R^+ = x_{E,2},

so that a strand at parameter t on one side is paired with the strand at
parameter (n_L + n_R) - t on the other.  :class:`_CoordStepper` walks this
infinite picture arithmetically on the parameters: the finitely many
crossings that do not hug a corner of their quadrilateral seed the trace,
so peripheral components never appear.  On an integral vector every
parameter is a half-integer, so the stepper works on the doubled grid of
odd ints ``2k`` and never leaves ``int``; a ``Fraction`` appears only in
the pictures it writes and in the seed a :class:`TruncationTooShallow`
reports.  Only the surviving travelers are materialized, with spiral
tails truncated to a sign marker after ``SPIRAL_TURNS`` extra turns.
:class:`_PictureStepper` walks the strand lists of an explicit picture
for :func:`traveler_trace`, which is what a caller runs for each
traveler's route and kind; the identifiers it also records per crossing
are not needed to check the identifier relations.

The traveler-identifier relations need no walk.  Across a biangle the
pinning pairs parameter t with sigma - t, so k_out + k_in is one
constant on every crossing of a sheet; on an explicit picture it is n -
a - b, read from the strand count n and the initial zone sizes a and b
of the two sides.  :func:`identifier_relations` checks that constant
once per sheet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .laminations import (
    CornerArc,
    GlobalPicture,
    Honeycomb,
    SpiralEnd,
    InvalidPicture,
    shear_unfrozen,
)
from .seeds import Sl3IndexSet
from .surface import Sl3Error
from .tropical import TropicalPoint, pos


class TruncationTooShallow(Sl3Error):
    """A walk ran out of steps.  ``seed`` is the state it started from
    (in a coordinate trace, with its half-integer parameter k), ``steps``
    the number of steps it took and ``cap`` the number it was allowed."""

    def __init__(self, message, seed, steps, cap):
        self.seed, self.steps, self.cap = seed, steps, cap
        super().__init__(message)


class NonIntegralInput(Sl3Error):
    pass


LOOP = ("loop",)
SPIRAL_TURNS = 2  # full turns a spiral tail makes before its sign marker
_REVERSED = {"cw": "ccw", "ccw": "cw"}
_REACHED = {"out": "in", "in": "out"}  # the direction a crossing reaches


# -- the strand walker --------------------------------------------------------


@dataclass(slots=True)
class Turn:
    """One turn of a strand at a corner of a triangle.

    ``depth`` grows as the turn moves away from the triangle's interior
    into the corner; it is None for a turn on a fixed arc, which cannot
    be part of a spiral.  ``place`` is ``(corner, key)``: the arc's
    corner and a key that orders it within the corner's stack."""

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

    def peripheral_with(self, back):
        """Whether the component of this forward walk is peripheral: it
        closes up, or runs from boundary to boundary (``back`` is the
        backward walk of its strand; a closed loop needs none), and every
        turn winds the same way around one vertex.  Turns that wind both
        ways circle a handle or a puncture instead."""
        if self.end == LOOP:
            turns = self.turns
        elif back is not None and self.end[0] == back.end[0] == "boundary":
            turns = self.turns + back.turns
        else:
            return False
        return len({(t.vertex, t.orient) for t in turns}) == 1


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
    cap, shown = stepper.step_cap, stepper.shown(seed)
    raise TruncationTooShallow(f"walk from {shown} exceeded the step cap {cap}", shown, cap, cap)


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
    """The turns of a detected spiral's tail: ``turns`` more full turns
    around its puncture, then the turn that carries the sign marker."""
    _, vertex, _, state = end
    cross, turn = (stepper.cross, stepper.turn) if forward else (stepper.cross_back, stepper.turn_back)
    tail = []
    steps = turns * len(stepper.surface.corners_at_vertex(vertex)) + 1
    for _ in range(steps):
        at = cross(state)
        t = None if at is None else turn(at)
        if type(t) is not Turn or t.depth is None:
            shown = stepper.shown(end[3])
            raise TruncationTooShallow(
                f"spiral tail from {shown} left the winding zone after {len(tail)} of {steps} steps",
                shown, len(tail), steps,
            )
        tail.append(t)
        state = t.state
    return tail


def components(stepper, seeds):
    """Walk the strand through each seed (an outgoing state) that no
    earlier walk passed through, yielding ``(seed, fw, bw)``.  A walk
    passes through its crossings and the states its turns continue from;
    of these, a forward turn's is the next crossing and a backward turn's
    is incoming, so only a spiral end's state is recorded besides."""
    visited = set()
    for seed in seeds:
        if seed in visited:
            continue
        fw, bw = walk_both(stepper, seed)
        for w in (fw, bw):
            visited.update(w.crossings)
            if w.end[0] == "spiral":
                visited.add(w.end[3])
        yield seed, fw, bw


def stack_entries(stepper, traveler, turn_counts):
    """The ``(place, entry)`` pairs one component writes, for each number
    of tail turns in ``turn_counts``: an arc per turn, the tail and sign
    marker of each spiral end, and the stored marker of each end at one.
    Each spiral tail is walked once, to the most turns: the tail of n
    turns is its first n full turns, and the turn after them carries the
    sign marker."""
    arcs = [(t.place, CornerArc(t.orient)) for t in traveler.turns]
    out = [list(arcs) for _ in turn_counts]
    for end, forward in ((traveler.start, False), (traveler.end, True)):
        if end[0] == "spiral":
            tail = spiral_tail(stepper, end, forward, max(turn_counts))
            per_turn = len(stepper.surface.corners_at_vertex(end[1]))
            for entries, n in zip(out, turn_counts):
                *wound, marker = tail[: n * per_turn + 1]
                winding = marker.orient if forward else _REVERSED[marker.orient]
                entries += [(t.place, CornerArc(t.orient)) for t in wound]
                entries.append((marker.place, SpiralEnd(winding, outgoing=not forward)))
        elif end[0] == "marker":
            for entries in out:
                entries.append(stepper.stored(end))
    return out


def build_picture(tri, honeycombs, entries, weight=1):
    """The picture with these honeycombs and ``(place, entry)`` stack
    entries, every weight set to ``weight``.  Each corner's stack is
    sorted by key; two entries at one place raise
    :class:`InvalidPicture`."""
    stacks = {}
    for (corner, key), entry in entries:
        stacks.setdefault(corner, []).append((key, entry))
    corners = {}
    for corner, items in stacks.items():
        items.sort(key=lambda kv: kv[0])
        if any(a[0] == b[0] for a, b in zip(items, items[1:])):
            raise InvalidPicture(f"colliding stack ranks at corner {corner}")
        corners[corner] = [entry for _, entry in items]
    if weight != 1:
        honeycombs = {t: replace(h, weight=weight) for t, h in honeycombs.items()}
        corners = {c: [replace(e, weight=weight) for e in stack] for c, stack in corners.items()}
    return GlobalPicture(tri, honeycombs, corners)


# -- coordinate tracing -------------------------------------------------------


class _CoordStepper:
    """Steps on the implicit infinite picture of an integral coordinate
    vector, on the doubled grid: every parameter k is a half-integer and
    is stored as the odd int ``K = 2k``, so tracing never leaves ``int``.
    A crossing maps K to ``2 sigma - K``; a turn compares K with 0 and
    with twice the leg counts ``a = [x_T]_+`` and ``b = [-x_T]_+``, and
    its depth is ``|K|``.  An arc's place key is ``2 rank + (orient ==
    "ccw")``, with rank its position among the same-orientation arcs of
    the corner, so the two orientations alternate; in K the keys are
    ``-K`` and ``K - 2a - 1`` forward, ``K - 2b`` and ``-K - 1``
    backward."""

    def __init__(self, tri, x, step_cap):
        self.surface = tri
        self.step_cap = step_cap
        self._x = {i: _integer(v) for i, v in x.coords.items()}
        self._faces = {t: self._x.get(("tri", t), 0) for t in tri.triangles}
        # (2a, 2b) per triangle
        self._legs = {t: (2 * max(v, 0), 2 * max(-v, 0)) for t, v in self._faces.items()}
        self._vertex = {(t, i): tri.corner_vertex(t, i) for t in tri.triangles for i in range(3)}
        # slot -> (far slot, 2 sigma) for crossing forward and backward
        self._over = {}
        self._back = {}
        for e in tri.interior_edges:
            sl, sr = tri.slots(e)
            lr = 2 * (self._x.get(("edge", e, 1), 0) + max(self._faces[sr[0]], 0))
            rl = 2 * (self._x.get(("edge", e, 2), 0) + max(self._faces[sl[0]], 0))
            self._over[sl], self._over[sr] = (sr, lr), (sl, rl)
            self._back[sr], self._back[sl] = (sl, lr), (sr, rl)

    def face(self, t):
        return self._faces[t]

    @staticmethod
    def shown(state):
        """A state as errors report it: with its parameter k = K/2."""
        slot, d, k = state
        return (slot, d, Fraction(k, 2))

    def _turn(self, state, corner, orient, depth, key):
        return Turn(state, corner, orient, self._vertex[corner], depth, (corner, key))

    def cross(self, state):
        slot, _, k = state
        far = self._over.get(slot)
        return None if far is None else (far[0], "in", far[1] - k)

    def cross_back(self, state):
        slot, _, k = state
        far = self._back.get(slot)
        return None if far is None else (far[0], "out", far[1] - k)

    def turn(self, state):
        (t, i), _, k = state
        a, b = self._legs[t]
        if k < 0:
            corner = (t, (i - 1) % 3)
            return self._turn((corner, "out", b - k), corner, "ccw", -k, -k)
        if k < a:
            return ("sink", t)
        return self._turn(((t, (i + 1) % 3), "out", a - k), (t, i), "cw", k, k - a - 1)

    def turn_back(self, state):
        (t, i), _, k = state
        a, b = self._legs[t]
        if k > b:
            return self._turn(((t, (i + 1) % 3), "in", b - k), (t, i), "ccw", k, k - b)
        if k > 0:
            return ("source", t)
        corner = (t, (i - 1) % 3)
        return self._turn((corner, "in", a - k), corner, "cw", -k, -k - 1)

    def seed_window(self, e, sheet):
        """The out-parameters K on the (left for 'lr', right for 'rl')
        side whose crossings do not hug a corner: 2k for the k in
        ``(min(0, x_far), max(b_own, sigma))``."""
        slot = self.surface.slots(e)[sheet == "rl"]
        far = self._x.get(("edge", e, 1 if sheet == "lr" else 2), 0)
        own = self._legs[slot[0]][1]
        return range(2 * min(0, far) + 1, max(own, self._over[slot][1]), 2)

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
        return (k > self._legs[t][1] and k2 < 0) or (k < 0 and k2 > self._legs[t2][0])


def _integer(v):
    """An integral rational as an int."""
    if v.denominator != 1:
        raise NonIntegralInput(v)
    return v.numerator


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
    seed order.  Hugging seeds are left out, and a seed that an earlier
    traveler's walks already crossed belongs to that traveler.  States,
    depths and place keys are the stepper's ints, on the doubled grid."""
    stepper = _CoordStepper(tri, x, step_cap)
    seeds = (
        (slot, "out", k)
        for e in tri.interior_edges
        for sheet, slot in zip(("lr", "rl"), tri.slots(e))
        for k in stepper.seed_window(e, sheet)
        if not stepper.crossing_hugs((slot, "out", k))
    )
    travelers = [
        Traveler(strand_kind(fw, bw), bw.turns[::-1] + fw.turns, bw.end, fw.end)
        for _, fw, bw in components(stepper, seeds)
    ]
    return stepper, travelers


def reconstruct(x, tri):
    """Build the good-position picture of a coordinate vector: the picture
    of ``u x``, ``u`` the lcm of the denominators, with weights 1/u."""
    u, xs = _integral_point(x, tri)
    stepper, travelers = trace_coordinates(xs, tri, _step_cap(xs, tri))
    return _pictures(stepper, travelers, (SPIRAL_TURNS,), Fraction(1, u))[0].require_valid()


def _integral_point(x, tri):
    """``(u, u x)`` on the unfrozen indices, ``u`` the least positive
    integer that makes every coordinate integral."""
    xr = TropicalPoint("X", {i: x[i] for i in Sl3IndexSet(tri).unfrozen}, tri=tri, restricted=True)
    u = lcm(*(v.denominator for v in xr.coords.values()))
    return u, (xr if u == 1 else xr.scale(u))


def _step_cap(x, tri):
    """A bound on the steps of one walk, from the largest quadrilateral
    coordinate mass."""
    mass = 0
    for e in tri.interior_edges:
        (tl, _), (tr, _) = tri.slots(e)
        mass = max(mass, abs(x[("edge", e, 1)]) + abs(x[("edge", e, 2)])
                   + abs(x[("tri", tl)]) + abs(x[("tri", tr)]))
    return max(256, 8 * len(tri.edges) * (int(mass) + 6))


def _pictures(stepper, travelers, turn_counts, weight=1):
    """The pictures of the traced travelers with each number of tail
    turns in ``turn_counts``, at ``weight``; each tail is walked once."""
    honeycombs = {}
    for t in stepper.surface.triangles:
        v = stepper.face(t)
        if v:
            honeycombs[t] = Honeycomb("sink" if v > 0 else "source", abs(v))
    entries = [[] for _ in turn_counts]
    for trav in travelers:
        for acc, more in zip(entries, stack_entries(stepper, trav, turn_counts)):
            acc += more
    return [build_picture(stepper.surface, honeycombs, e, weight) for e in entries]


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
    a state is the strand's index in its list, and the place key of the
    stack entry at position p is (0, p).  A crossing pairs index j of a
    list of length n with index n - 1 - j on the far side.  A stored
    spiral marker ends a walk with ``("marker", vertex, sign, (corner,
    p))``.

    Every step reads tables built once: ``over`` maps a side ``(slot,
    direction)`` to ``(far slot, far direction, n - 1)``, with no entry on
    a boundary side, and ``vertex_at`` maps a corner to its marked
    point."""

    def __init__(self, pic):
        self.pic = pic
        tri = self.surface = pic.tri
        self.lists = pic.strand_lists
        self.arc_ends = {}
        for ((t, i), d), (initial, legs, terminal) in self.lists.items():
            for corner, positions, first in (
                ((t, (i - 1) % 3), initial, 0),
                ((t, i), terminal, len(initial) + legs),
            ):
                for k, p in enumerate(positions, first):
                    self.arc_ends.setdefault((corner, p, d), []).append(((t, i), k))
        self.counts = {side: pic.strand_count(*side) for side in self.lists}
        self.step_cap = 1 + sum(self.counts.values())
        self.vertex_at = {(t, i): tri.corner_vertex(t, i) for t in tri.triangles for i in range(3)}
        self.over = {}
        for (slot, d), n in self.counts.items():
            far = tri.other_slot(slot)
            if far is not None:
                self.over[(slot, d)] = (far, _REACHED[d], n - 1)

    @staticmethod
    def shown(state):
        """A state as errors report it."""
        return state

    def stored(self, end):
        """``(place, entry)`` of the stored marker a walk ended at."""
        corner, p = end[3]
        return (corner, (0, p)), self.pic.corners[corner][p]

    def cross(self, state):
        """The state across the edge: forward from an outgoing state,
        backward from an incoming one."""
        slot, d, j = state
        over = self.over.get((slot, d))
        return None if over is None else (over[0], over[1], over[2] - j)

    cross_back = cross

    def turn(self, state):
        return self._turn(state, "out")

    def turn_back(self, state):
        return self._turn(state, "in")

    def _turn(self, state, to):
        (t, i), d, idx = state
        initial, legs, terminal = self.lists[((t, i), d)]
        if idx < len(initial):
            corner, p = (t, (i - 1) % 3), initial[idx]
        elif idx < len(initial) + legs:
            return ("sink" if d == "in" else "source", t)
        else:
            corner, p = (t, i), terminal[idx - len(initial) - legs]
        entry = self.pic.corners[corner][p]
        if isinstance(entry, SpiralEnd):
            return ("marker", self.vertex_at[corner], entry.sign, (corner, p))
        ends = self.arc_ends.get((corner, p, to), ())
        if len(ends) != 1:
            which = "an outgoing" if to == "out" else "an incoming"
            raise InvalidPicture(f"arc at {corner} lacks {which} end")
        (slot2, idx2), = ends
        place = (corner, (0, p))
        return Turn((slot2, to, idx2), corner, entry.orient, self.vertex_at[corner], None, place)


def out_seeds(pic):
    """Every outgoing state of a picture's strand lists, in a fixed order."""
    return [
        (slot, "out", idx)
        for slot, d in sorted(pic.strand_lists, key=str)
        if d == "out"
        for idx in range(pic.strand_count(slot, d))
    ]


def traveler_trace(pic):
    """Trace every curve of a picture, classifying its type and recording
    its route and biangle identifiers."""
    pic.require_valid()
    tri = pic.tri
    stepper = _PictureStepper(pic)
    travelers = []
    for _, fw, bw in components(stepper, out_seeds(pic)):
        crossings = bw.crossings[:0:-1] + fw.crossings
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
                strand_kind(fw, bw), fw.peripheral_with(None), tuple(route), tuple(idents), bw.end, fw.end
            )
        )
    return travelers


def identifier_relations(pic, x):
    """Check the traveler-identifier relations on every biangle crossing:
    k_out + k_in = x_{E,1} + [x_{T_R}]_+ on the left-to-right sheet and
    x_{E,2} + [x_{T_L}]_+ on the other.  Returns the violations, one
    ``(edge, sheet, k_out, k_in, want)`` per crossing that breaks them.

    The sum is one constant per sheet, read from the zones: out index j
    has k_out = j - a + 1/2 and meets in index n - 1 - j, which has k_in =
    n - 1 - j - b + 1/2, so every crossing sums to n - a - b, with n the
    strand count and a, b the initial zone sizes of the out and in sides.
    No strand is walked."""
    pic.require_valid()
    tri = pic.tri
    bad = []
    for e in tri.interior_edges:
        sl, sr = tri.slots(e)
        for sheet, out_slot, in_slot, want in (
            ("lr", sl, sr, x[("edge", e, 1)] + pos(x[("tri", sr[0])])),
            ("rl", sr, sl, x[("edge", e, 2)] + pos(x[("tri", sl[0])])),
        ):
            n = pic.strand_count(out_slot, "out")
            a = len(pic.strand_lists[(out_slot, "out")][0])
            b = len(pic.strand_lists[(in_slot, "in")][0])
            if n and n - a - b != want:
                bad += [
                    (e, sheet, pic.strand_parameter(out_slot, "out", j),
                     pic.strand_parameter(in_slot, "in", n - 1 - j), want)
                    for j in range(n)
                ]
    return bad


def roundtrip_check(x, tri):
    """Verify shear(reconstruct(x)) == x exactly, and that one more
    spiral turn leaves the shear unchanged.

    The coordinates are traced once, and each spiral tail is walked once
    to three turns; its first two turns and the marker on the turn after
    them give the picture with two.  Rational vectors are handled by
    positive rescaling.  Returns a dict report with the reconstructed
    picture included.
    """
    u, xi = _integral_point(x, tri)
    stepper, travelers = trace_coordinates(xi, tri, _step_cap(xi, tri))
    pic, deeper = _pictures(stepper, travelers, (SPIRAL_TURNS, SPIRAL_TURNS + 1))
    y = shear_unfrozen(pic)
    y2 = shear_unfrozen(deeper)
    return {"ok": y == xi and y2 == xi, "stable": y == y2, "scale": u, "picture": pic, "shear": y}
