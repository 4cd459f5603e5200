"""Reconstruction of a good-position picture from shear coordinates, and
the strand walker and stepper shared by reconstruction, traveler tracing
and gluing.

A strand alternately crosses a biangle and turns at a corner inside a
triangle.  :func:`walk` follows one strand through a *stepper*, which
supplies two steps on states ``(slot, direction, parameter)``, each its
own inverse, the state's direction picking the way it goes.  ``cross``
takes an outgoing state to the incoming one across a biangle and back,
or returns None on the boundary; ``turn`` takes an incoming state
through a triangle to an outgoing one and back, returning a
:class:`Turn` or an end tuple such as ``("sink", t)``.  ``shown`` gives
the form of a state that errors report.  The walker owns the step cap,
loop detection, the spiral detector and the spiral tail walk
:func:`spiral_tail`; the stepper only steps.  A walked component is one
:class:`Traveler`, which holds the peripheral rule for closed loops and
boundary-to-boundary arcs.

One stepper, :class:`_PictureStepper`, walks every picture: its strand
lists, extended past either end by the infinite alternating corner-arc
collections added at every corner, with the sides listed in its pins
paired by psi -> sigma - psi on the parameter psi = j + 1/2 of the
strand at index j, and every other interior side by the reversal.  Its
callers differ only in the picture, the pins and the step cap they give
it.  Reconstruction, traveler tracing and gluing share three more
helpers.  :func:`components` walks the strand through each seed that no
earlier walk passed through.  A turn's ``place`` is ``(corner, key)``,
so :func:`stack_entries` lists the stack entries of any component and
:func:`build_picture` sorts them into corner stacks, at weight 1/u for a
vector or lamination scaled integral by u, once it has counted them
against the picture size bound.  A tail of fewer turns is a
prefix of a longer one, so the round-trip check walks each tail one turn
deeper than it writes it and builds one picture: the truncation one turn
deeper differs from it only in the ends those turns add, so its zone
sizes, balance and shear are read without a second picture.
:func:`window_seeds` lists the crossings of a pinned sheet that do not
hug a corner, and :func:`bounded_window_seeds` those of several sheets,
once it has refused a picture too large to build.

Reconstruction is the gluing of the triangles' honeycombs by the
coordinate pins.  The inverse map places a honeycomb of height |x_T| in
every triangle, with no corner entries, and pairs the strand sets
across each interior edge by the pinning rule

    sigma_lr = x_{E,1} + [x_{T_R}]_+,  sigma_rl = x_{E,2} + [x_{T_L}]_+,

written once, in :func:`_pins`, so that the strand at parameter psi on
one side meets the strand at sigma - psi on the other.  The finitely many crossings of the windows
seed the trace, so peripheral components never appear.  On an integral
vector every state, depth and place key is an ``int``; a ``Fraction``
appears only in the pictures it writes and in the parameter a
:class:`TruncationTooShallow` reports.  Only the surviving travelers are
materialized, with spiral tails truncated to a sign marker after
``SPIRAL_TURNS`` extra turns.  :func:`traveler_trace` walks an explicit
picture with no pins and reports each traveler's kind, peripheral flag
and route; the identifiers it also records per crossing are not needed
to check the identifier relations.

The traveler-identifier relations need no walk.  Across a biangle the
pinning pairs parameter t with sigma - t, so k_out + k_in is one
constant on every crossing of a sheet; on an explicit picture it is n -
a - b, read from the strand count n and the initial zone sizes a and b
of the two sides, and sigma is the picture's weight times it.
:func:`identifier_relations` checks that constant once per sheet.
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
    MAX_PICTURE_SIZE,
    PictureTooLarge,
    PinnedLamination,
    boundary_weights,
    end_zones,
    entry_ends,
    shear_unfrozen,
    zone_shear,
    zone_sizes,
)
from .seeds import Sl3IndexSet
from .surface import Sl3Error
from .tropical import SeedMismatch, TropicalPoint, pos


class TruncationTooShallow(Sl3Error):
    """A walk ran out of steps.  ``seed`` is the state it started from,
    with its half-integer parameter psi = j + 1/2, ``steps`` the number
    of steps it took and ``cap`` the number it was allowed."""

    def __init__(self, message, seed, steps, cap):
        self.seed, self.steps, self.cap = seed, steps, cap
        super().__init__(message)


class NonIntegralInput(Sl3Error):
    pass


LOOP = ("loop",)
SPIRAL_TURNS = 2  # full turns a spiral tail makes before its sign marker
_REVERSED = {"cw": "ccw", "ccw": "cw"}
# direction -> (the direction a turn continues in, and the orientation and
# depth offset of the added arcs beyond the initial and the terminal
# corner), read by _PictureStepper.turn
_ADDED = {"in": ("out", ("ccw", -1), ("cw", 0)), "out": ("in", ("cw", -2), ("ccw", 1))}


# -- the strand walker --------------------------------------------------------


@dataclass(slots=True)
class Turn:
    """One turn of a strand at a corner of a triangle.

    ``depth`` grows as the turn moves away from the triangle's interior
    into the corner; it is None for a turn on a fixed arc, which cannot
    be part of a spiral.  ``place`` is ``(corner, key)``: the arc's
    corner and a key that orders it within the corner's stack."""

    state: tuple  # the state the strand continues from
    orient: str  # orientation of the corner arc: 'cw' | 'ccw'
    vertex: str  # the marked point of the corner
    depth: object
    place: tuple


@dataclass
class Traveler:
    """One walked component: its ``turns`` in forward order, the ends
    ``start`` and ``end`` of its backward and forward walks, and the
    crossings of both walks, each list from the seed on."""

    turns: list
    start: tuple
    end: tuple
    walked: tuple  # (backward crossings, forward crossings)

    @property
    def crossings(self):
        """The out-states it crosses, in forward order."""
        back, ahead = self.walked
        return back[:0:-1] + ahead

    @property
    def kind(self):
        """'loop', 'spiral' (an end at a puncture) or 'arc'."""
        if self.end == LOOP:
            return "loop"
        return "spiral" if {self.start[0], self.end[0]} & {"spiral", "marker"} else "arc"

    @property
    def peripheral(self):
        """Whether it closes up or runs from boundary to boundary, and
        every turn winds the same way around one vertex.  Turns that wind
        both ways circle a handle or a puncture instead."""
        if self.end != LOOP and not self.start[0] == self.end[0] == "boundary":
            return False
        return len({(t.vertex, t.orient) for t in self.turns}) == 1


def walk(stepper, seed, forward):
    """Follow the strand through the out-state ``seed`` forward or
    backward, returning ``(crossings, turns, end)``: the out-states
    crossed from the seed on, the turns in walk order, and the end.

    The end is ``LOOP`` when the strand closes up, ``("boundary", state)``
    where no crossing continues it, a stepper's end tuple, or
    ``("spiral", vertex, sign, state)`` once it spirals into a puncture:
    it revisits a (slot, direction) at strictly greater depth within a
    run of turns that all wind the same way around the puncture.  Such a
    run makes the one-turn return map a translation, so the spiral repeats
    forever; :func:`spiral_tail` continues it from ``state``."""
    cross, turn = stepper.cross, stepper.turn
    vertices = stepper.surface.vertices
    crossings = []
    turns = []
    run_of, run = None, {}
    state = seed
    for _ in range(stepper.step_cap):
        crossings.append(state)
        # forward a step crosses and then turns, backward it turns and
        # then crosses
        at = cross(state) if forward else state
        if at is None:
            return crossings, turns, ("boundary", state)
        t = turn(at)
        if type(t) is not Turn:
            return crossings, turns, t
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
                return crossings, turns, ("spiral", t.vertex, _marker(t, forward)[1].sign, t.state)
        state = t.state if forward else cross(t.state)
        if state is None:
            return crossings, turns, ("boundary", t.state)
        if state == seed:
            return crossings, turns, LOOP
    cap, shown = stepper.step_cap, stepper.shown(seed)
    raise TruncationTooShallow(f"walk from {shown} exceeded the step cap {cap}", shown, cap, cap)


def spiral_tail(stepper, end, turns):
    """The turns of a detected spiral's tail: ``turns`` more full turns
    around its puncture, then the turn that carries the sign marker.  The
    tail runs the way its walk ran, as the end's state says."""
    _, vertex, _, state = end
    tail = []
    steps = turns * len(stepper.surface.corners_at_vertex(vertex)) + 1
    for _ in range(steps):
        at = stepper.cross(state)
        t = None if at is None else stepper.turn(at)
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
    earlier walk passed through, yielding ``(seed, traveler)``.  A walk
    passes through its crossings and the states its turns continue from;
    of these, a forward turn's is the next crossing and a backward turn's
    is incoming, so only a spiral end's state is recorded besides.  A
    closed loop needs no backward walk."""
    visited = set()
    for seed in seeds:
        if seed in visited:
            continue
        ahead, turns, end = walk(stepper, seed, True)
        back, back_turns, start = ([], [], LOOP) if end == LOOP else walk(stepper, seed, False)
        visited.update(ahead)
        visited.update(back)
        for e in (start, end):
            if e[0] == "spiral":
                visited.add(e[3])
        yield seed, Traveler(back_turns[::-1] + turns, start, end, (back, ahead))


# an arc is immutable, so every turn of one orientation writes the same one
_ARCS = {orient: CornerArc(orient) for orient in ("cw", "ccw")}


def _arcs(turns):
    return [(t.place, _ARCS[t.orient]) for t in turns]


def _marker(turn, forward):
    """The ``(place, entry)`` of the sign marker a spiral end's tail
    carries on ``turn``."""
    winding = turn.orient if forward else _REVERSED[turn.orient]
    return turn.place, SpiralEnd(winding, outgoing=not forward)


def stack_entries(stepper, traveler, turns):
    """``(entries, deeper)`` for one component.  ``entries`` are the
    ``(place, entry)`` pairs it writes: an arc per turn, the tail and sign
    marker of each spiral end, and the stored marker of each end at one.
    Each spiral tail is walked once, ``turns`` full turns deep: the tail
    written is its first ``SPIRAL_TURNS`` full turns, with the sign marker
    on the turn after them.  ``deeper`` pairs each spiral end's marker
    with what the tail of ``turns`` full turns writes in its place: the
    arcs of the turns walked past the written tail, then the marker."""
    entries = _arcs(traveler.turns)
    deeper = []
    for end, forward in ((traveler.start, False), (traveler.end, True)):
        if end[0] == "spiral":
            tail = spiral_tail(stepper, end, turns)
            cut = SPIRAL_TURNS * len(stepper.surface.corners_at_vertex(end[1]))
            marker = _marker(tail[cut], forward)
            entries += _arcs(tail[:cut])
            entries.append(marker)
            deeper.append((marker, _arcs(tail[cut:-1]) + [_marker(tail[-1], forward)]))
        elif end[0] == "marker":
            entries.append(stepper.stored(end))
    return entries, deeper


def build_picture(tri, honeycombs, entries, weight=1):
    """The picture at ``weight`` with these honeycombs and ``(place,
    entry)`` stack entries.  Each corner's stack is sorted by key; two
    entries at one place raise :class:`InvalidPicture`, and over
    :data:`~sl3shear.laminations.MAX_PICTURE_SIZE` entries plus honeycomb
    height the picture is refused with :class:`PictureTooLarge` before
    sorting."""
    size = len(entries) + sum(h.height for h in honeycombs.values())
    if size > MAX_PICTURE_SIZE:
        raise PictureTooLarge(
            f"a picture of {size} corner entries plus honeycomb height is over the limit of "
            f"{MAX_PICTURE_SIZE}", size,
        )
    stacks = {}
    for (corner, key), entry in entries:
        stacks.setdefault(corner, []).append((key, entry))
    corners = {}
    for corner, items in stacks.items():
        items.sort(key=lambda kv: kv[0])
        if any(a[0] == b[0] for a, b in zip(items, items[1:])):
            raise InvalidPicture(f"colliding stack ranks at corner {corner}")
        corners[corner] = [entry for _, entry in items]
    return GlobalPicture(tri, honeycombs, corners, weight)


# -- the stepper -------------------------------------------------------------


class _PictureStepper:
    """Steps on a picture extended by the added arc collections at every
    corner, on the surface ``tri`` (which may identify sides the
    picture's own triangulation leaves apart).

    A state ``(slot, direction, j)`` is the strand at index j of its
    side's list, of length n; the index j < 0 is the added arc r = -j-1
    deep beyond the initial corner's stack, and j >= n the one r = j-n
    deep beyond the terminal corner's.  At a corner the added arcs have
    virtual depths 2r, clockwise, and 2r+1, counterclockwise (the
    farthest arc from the marked point is clockwise).  The place key of
    a stored entry at position p of a stack of length m is p - m, and an
    added arc's is its virtual depth, so added arcs sort after every
    stored entry of the corner.  A stored spiral marker ends a walk with
    ``("marker", vertex, sign, (corner, p))``.

    A crossing maps the parameter psi = j + 1/2 to sigma - psi: sigma is
    ``pins[slot]`` for an outgoing strand on a side listed in ``pins``,
    and the strand count n (the reversal, extended past either end) on
    every other interior side.  The zones and crossings are read from
    tables built once, keyed by direction and then slot, and a state's
    direction picks its step: a crossing takes an outgoing state to the
    far incoming one and an incoming state back, and a turn takes an
    incoming state through the triangle to an outgoing one and an
    outgoing state back.  Each step is its own inverse."""

    def __init__(self, pic, tri, pins, step_cap):
        self.pic = pic
        self.surface = tri
        self.pins = pins
        self.step_cap = step_cap
        lists = pic.strand_lists
        counts = {side: len(first) + legs + len(last) for side, (first, legs, last) in lists.items()}
        # (corner, stack position, direction) -> [(slot, index)] of the
        # strand ends a stored entry has on its two sides; a picture with
        # no corner entries, as a reconstruction's honeycombs, has none
        arc_ends = self._arc_ends = {}
        for (slot, d), (first, legs, last) in lists.items() if pic.corners else ():
            t, i = slot
            for j, p in enumerate(first):
                arc_ends.setdefault(((t, (i - 1) % 3), p, d), []).append((slot, j))
            for j, p in enumerate(last, len(first) + legs):
                arc_ends.setdefault((slot, p, d), []).append((slot, j))
        # direction -> slot -> zones of that side: (first leg, first
        # terminal, n, initial positions, terminal positions, previous
        # slot, next slot, strand count of the previous slot's side
        # reached, end on a leg, the direction's _ADDED)
        vertex = self._vertex = {}
        zones = self._zones = {"in": {}, "out": {}}
        for t in tri.triangles:
            for i in (0, 1, 2):
                slot, prev, nxt = (t, i), (t, (i - 1) % 3), (t, (i + 1) % 3)
                vertex[slot] = tri.corner_vertex(t, i)
                for d, to, end in (("in", "out", ("sink", t)), ("out", "in", ("source", t))):
                    first, legs, last = lists[(slot, d)]
                    zones[d][slot] = (len(first), len(first) + legs, counts[(slot, d)], first, last,
                                      prev, nxt, counts[(prev, to)], end, _ADDED[d])
        # direction -> slot -> (far slot, far direction, sigma - 1)
        far = self._far = {"in": {}, "out": {}}
        for e in tri.interior_edges:
            for a, b in (tri.slots(e), tri.slots(e)[::-1]):
                far["out"][a] = (b, "in", pins.get(a, counts[(a, "out")]) - 1)
                far["in"][b] = (a, "out", pins.get(a, counts[(b, "in")]) - 1)

    @staticmethod
    def shown(state):
        """A state as errors report it: with its parameter psi = j + 1/2."""
        slot, d, j = state
        return (slot, d, Fraction(2 * j + 1, 2))

    def stored(self, end):
        """``(place, entry)`` of the stored marker a walk ended at."""
        corner, p = end[3]
        stack = self.pic.corners[corner]
        return (corner, p - len(stack)), stack[p]

    def cross(self, state):
        slot, d, j = state
        to = self._far[d].get(slot)
        return None if to is None else (to[0], to[1], to[2] - j)

    def turn(self, state):
        slot, d, j = state
        n0, n1, n, first, last, prev, nxt, prev_n, end, added = self._zones[d][slot]
        to, (init, init_depth), (term, term_depth) = added
        if j < 0:
            depth = init_depth - 2 * j
            return Turn((prev, to, prev_n - j - 1), init, self._vertex[prev], depth, (prev, depth))
        if j >= n:
            depth = 2 * (j - n) + term_depth
            return Turn((nxt, to, n - j - 1), term, self._vertex[slot], depth, (slot, depth))
        if j < n0:
            return self._stored(prev, first[j], to)
        if j < n1:
            return end
        return self._stored(slot, last[j - n1], to)

    def _stored(self, corner, p, to):
        """The turn on the stored entry at position p of ``corner``'s
        stack, continuing in direction ``to``."""
        stack = self.pic.corners[corner]
        entry = stack[p]
        if isinstance(entry, SpiralEnd):
            return ("marker", self._vertex[corner], entry.sign, (corner, p))
        ends = self._arc_ends.get((corner, p, to), ())
        if len(ends) != 1:
            which = "an outgoing" if to == "out" else "an incoming"
            raise InvalidPicture(f"arc at {corner} lacks {which} end")
        (slot, j), = ends
        return Turn((slot, to, j), entry.orient, self._vertex[corner], None, (corner, p - len(stack)))


def window_seeds(stepper, out_slot, in_slot):
    """The crossings of the pinned sheet from ``out_slot`` to ``in_slot``
    that do not hug a corner, as outgoing states.

    A crossing hugs a corner when both of its strands sit in the
    matching corner zones; outside a finite window of indices every
    crossing hugs, so the window seeds every non-peripheral component
    that crosses the sheet."""
    return [(out_slot, "out", j) for j in range(*_window(stepper, out_slot, in_slot))]


def _window(stepper, out_slot, in_slot):
    """The bounds ``(lo, hi)`` of the indices j of :func:`window_seeds`."""
    n0, n1 = stepper._zones["out"][out_slot][:2]
    far0, far1 = stepper._zones["in"][in_slot][:2]
    sigma = stepper.pins[out_slot]
    return min(n0, sigma - far1), max(n1, sigma - far0)


def bounded_window_seeds(stepper, sheets, height):
    """The :func:`window_seeds` of the sheets ``(out_slot, in_slot)`` of a
    picture of honeycomb height ``height`` that keeps every window
    crossing, once it is shown to hold at most
    :data:`~sl3shear.laminations.MAX_PICTURE_SIZE` corner entries plus
    height; a larger one is refused with :class:`PictureTooLarge`.  It
    holds at least the height plus half the entry ends the windows force
    (an entry has at most two): each side of a sheet holds its window's
    length less its legs in entry ends."""
    ends = 0
    for out_slot, in_slot in sheets:
        lo, hi = _window(stepper, out_slot, in_slot)
        (n0, n1), (far0, far1) = stepper._zones["out"][out_slot][:2], stepper._zones["in"][in_slot][:2]
        ends += 2 * (hi - lo) - (n1 - n0) - (far1 - far0)
    size = height + (ends + 1) // 2
    if size > MAX_PICTURE_SIZE:
        raise PictureTooLarge(
            f"a picture of at least {size} corner entries plus honeycomb height is over the limit of "
            f"{MAX_PICTURE_SIZE}", size,
        )
    return [seed for out_slot, in_slot in sheets for seed in window_seeds(stepper, out_slot, in_slot)]


# -- coordinate tracing -------------------------------------------------------


def _integer(v):
    """An integral rational as an int."""
    if v.denominator != 1:
        raise NonIntegralInput(v)
    return v.numerator


def _pins(get, tri):
    """The coordinate pins ``{out_slot: sigma}`` of every interior edge,
    from the coordinate reader ``get``: sigma_lr = x_{E,1} + [x_{T_R}]_+
    at E's left slot and sigma_rl = x_{E,2} + [x_{T_L}]_+ at its right."""
    pins = {}
    for e in tri.interior_edges:
        sl, sr = tri.slots(e)
        pins[sl] = get(("edge", e, 1)) + pos(get(("tri", sr[0])))
        pins[sr] = get(("edge", e, 2)) + pos(get(("tri", sl[0])))
    return pins


def trace_coordinates(x, tri, step_cap):
    """All non-peripheral travelers of the honeycombs of an integral
    coordinate vector glued by its pins, in seed order.  A seed that an
    earlier traveler's walks already crossed belongs to that traveler.
    States, depths and place keys are ints.  An oversized picture is
    refused before any walk (:func:`bounded_window_seeds`)."""
    xs = {i: _integer(v) for i, v in x.coords.items()}
    faces = {t: xs.get(("tri", t), 0) for t in tri.triangles}
    honeycombs = {t: Honeycomb("sink" if v > 0 else "source", abs(v)) for t, v in faces.items() if v}
    pins = _pins(lambda i: xs.get(i, 0), tri)
    stepper = _PictureStepper(GlobalPicture(tri, honeycombs), tri, pins, step_cap)
    sheets = [sheet for e in tri.interior_edges for sheet in (tri.slots(e), tri.slots(e)[::-1])]
    seeds = bounded_window_seeds(stepper, sheets, sum(map(abs, faces.values())))
    return stepper, [traveler for _, traveler in components(stepper, seeds)]


def reconstruct(x, tri):
    """Build the good-position picture of a coordinate vector: the picture
    of ``u x``, ``u`` the lcm of the denominators, at weight 1/u."""
    u, xs = _integral_point(x, tri)
    stepper, travelers = trace_coordinates(xs, tri, _step_cap(xs, tri))
    entries, _ = _entries(stepper, travelers, SPIRAL_TURNS)
    return build_picture(tri, stepper.pic.honeycombs, entries, Fraction(1, u)).require_valid()


def reconstruct_pinned(x, tri):
    """The pinned lamination whose full shear coordinates are ``x``, the
    inverse of :func:`shear_frozen` on all indices: the reconstruction of
    the unfrozen part, pinned at each boundary interval E by delta_E =
    x_E + :func:`boundary_weights`, nonzero pins only.  A point that
    :func:`reconstruct` refuses on its non-frozen part is refused."""
    frozen = Sl3IndexSet(tri).frozen
    rest = {i: v for i, v in x.coords.items() if i not in frozen}
    pic = reconstruct(TropicalPoint(x.kind, rest, tri=tri), tri)
    delta = {}
    for e in tri.boundary_intervals:
        d = tuple(x[("edge", e, s)] + w for s, w in zip((1, 2), boundary_weights(pic, e)))
        if any(d):
            delta[e] = d
    return PinnedLamination(pic, delta)


def elementary_lamination(tri, k):
    """The pinned lamination whose shear coordinate vector is minus the
    unit vector at index ``k``."""
    if k not in Sl3IndexSet(tri):
        raise KeyError(k)
    return reconstruct_pinned(TropicalPoint("X", {k: -1}, tri=tri), tri)


def _integral_point(x, tri):
    """``(u, u x)`` on the unfrozen indices, ``u`` the least positive
    integer that makes every coordinate integral.  An A-point, or a point
    with a coordinate at a frozen index or at an index ``tri`` lacks,
    raises :class:`SeedMismatch`."""
    iset = Sl3IndexSet(tri)
    if x.kind != "X":
        raise SeedMismatch(f"X-point required, not an {x.kind}-point")
    stray = sorted((i for i in x.coords if i not in iset or i in iset.frozen), key=str)
    if stray:
        raise SeedMismatch(f"coordinates {stray[:3]} are not at unfrozen indices of the triangulation")
    xr = TropicalPoint("X", {i: x[i] for i in iset.unfrozen}, tri=tri, restricted=True)
    u, nums = xr._ints
    return u, (xr if u == 1 else TropicalPoint.from_ints("X", 1, nums, tri, restricted=True))


def _step_cap(x, tri):
    """A bound on the steps of one walk, from the largest quadrilateral
    coordinate mass."""
    mass = 0
    for e in tri.interior_edges:
        (tl, _), (tr, _) = tri.slots(e)
        mass = max(mass, abs(x[("edge", e, 1)]) + abs(x[("edge", e, 2)])
                   + abs(x[("tri", tl)]) + abs(x[("tri", tr)]))
    return max(256, 8 * len(tri.edges) * (int(mass) + 6))


def _entries(stepper, travelers, turns):
    """The stack entries of the traced travelers and the deeper tails of
    their spiral ends, each tail walked ``turns`` full turns deep (see
    :func:`stack_entries`)."""
    entries, deeper = [], []
    for trav in travelers:
        more, tails = stack_entries(stepper, trav, turns)
        entries += more
        deeper += tails
    return entries, deeper


def _deeper_sizes(pic, entries, deeper):
    """The zone sizes of the truncation whose spiral tails make one more
    full turn than those of ``pic``, the picture of ``entries``: each
    marker of ``deeper`` gives its place to the entries paired with it
    (see :func:`stack_entries`).  Raises :class:`InvalidPicture` where
    building that truncation would: at a place key taken twice, or at an
    unbalanced sheet."""
    tri = pic.tri
    zones = end_zones(tri)
    sizes = zone_sizes(pic)
    taken = {place for place, _ in entries}
    for (place, marker), more in deeper:
        taken.remove(place)
        for slot, d, zone in entry_ends(zones[place[0]], marker):
            sizes[(slot, d)][zone] -= 1
        for where, entry in more:
            if where in taken:
                raise InvalidPicture(f"colliding stack ranks at corner {where[0]}")
            taken.add(where)
            for slot, d, zone in entry_ends(zones[where[0]], entry):
                sizes[(slot, d)][zone] += 1
    for e in tri.interior_edges:
        for tag, out_slot, in_slot in zip(("lr", "rl"), tri.slots(e), tri.slots(e)[::-1]):
            if sum(sizes[(out_slot, "out")]) != sum(sizes[(in_slot, "in")]):
                raise InvalidPicture(f"unbalanced strand lists across {e} ({tag}) one tail turn deeper")
    return sizes


# -- explicit-picture tracing ------------------------------------------------


@dataclass
class PictureTraveler(Traveler):
    """A walked component with the edge ids it crosses, its ``route`` in
    forward order, and its biangle ``identifiers``, ``(edge, k_out, k_in,
    sheet)`` per crossing."""

    route: tuple
    identifiers: tuple


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
    stepper = _PictureStepper(pic, tri, {}, 1 + sum(pic.strand_count(*side) for side in pic.strand_lists))
    travelers = []
    for _, trav in components(stepper, out_seeds(pic)):
        route = []
        idents = []
        for out in trav.crossings:
            e = tri.edge_at(out[0])
            route.append(e)
            far = stepper.cross(out)
            if far is None:
                break
            sheet = "lr" if out[0] == tri.slots(e)[0] else "rl"
            k_out = pic.strand_parameter(out[0], "out", out[2])
            k_in = pic.strand_parameter(far[0], "in", far[2])
            idents.append((e, k_out, k_in, sheet))
        travelers.append(PictureTraveler(**vars(trav), route=tuple(route), identifiers=tuple(idents)))
    return travelers


def identifier_relations(pic, x):
    """Check the traveler-identifier relations on every biangle crossing:
    the picture's weight times k_out + k_in is sigma, the pin of
    :func:`_pins`.  Returns the violations, one ``(edge, sheet, k_out,
    k_in, want)`` per crossing that breaks them, with k_out and k_in the
    strand parameters, in units of the weight, and ``want`` the pin.

    The sum is one constant per sheet, read from the zones: out index j
    has k_out = j - a + 1/2 and meets in index n - 1 - j, which has k_in =
    n - 1 - j - b + 1/2, so every crossing sums to n - a - b, with n the
    strand count and a, b the initial zone sizes of the out and in sides.
    No strand is walked."""
    pic.require_valid()
    tri = pic.tri
    pins = _pins(x.__getitem__, tri)
    bad = []
    for e in tri.interior_edges:
        sl, sr = tri.slots(e)
        for sheet, out_slot, in_slot in (("lr", sl, sr), ("rl", sr, sl)):
            want = pins[out_slot]
            n = pic.strand_count(out_slot, "out")
            a = len(pic.strand_lists[(out_slot, "out")][0])
            b = len(pic.strand_lists[(in_slot, "in")][0])
            if n and pic.weight * (n - a - b) != want:
                bad += [
                    (e, sheet, pic.strand_parameter(out_slot, "out", j),
                     pic.strand_parameter(in_slot, "in", n - 1 - j), want)
                    for j in range(n)
                ]
    return bad


def roundtrip_check(x, tri):
    """Verify shear(reconstruct(x)) == x exactly, and that one more
    spiral turn leaves the shear unchanged.

    The coordinates are traced once, scaled integral by u, and each
    spiral tail is walked once, to one turn more than the picture keeps.
    One picture is built, validated and sheared: the reconstruction of
    x, at weight 1/u.  The truncation one turn deeper is not built: its
    zone sizes are the picture's plus the ends of the turns walked past
    each tail, and its shear is read off them.  Returns a dict report
    with the picture and its shear included.
    """
    u, xi = _integral_point(x, tri)
    stepper, travelers = trace_coordinates(xi, tri, _step_cap(xi, tri))
    entries, deeper = _entries(stepper, travelers, SPIRAL_TURNS + 1)
    pic = build_picture(tri, stepper.pic.honeycombs, entries, Fraction(1, u))
    y = shear_unfrozen(pic)
    # with no spiral tail the deeper truncation is the picture itself
    y2 = zone_shear(pic, _deeper_sizes(pic, entries, deeper)) if deeper else y
    want = TropicalPoint.from_ints("X", u, xi._ints[1], tri, restricted=True)
    return {"ok": y == want and y2 == want, "stable": y == y2, "scale": u, "picture": pic, "shear": y}
