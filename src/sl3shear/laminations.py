"""Concrete lamination pictures and their shear coordinates.

A :class:`GlobalPicture` stores a lamination in good position with
respect to a triangulation: at most one honeycomb per triangle, stacks of
corner arcs at the triangle corners, and truncated spiral tails at
puncture corners.  Spiralling ends are stored pre-resolved: a finite
corner-arc prefix plus a signed tail marker.

Strand pairings are implicit.  Across an interior edge the strand at
index ``i`` of an outgoing list meets the strand at index ``n - 1 - i`` of
the incoming list on the other side: the pinning rule pairs parameter
``t`` with ``sigma - t``, and the reversal is the only order-reversing
bijection between two lists of length ``n``.

A side's strands in one direction are stored as its zones ``(initial,
legs, terminal)``: the stack positions of its initial corner's ends, its
honeycomb leg count and the stack positions of its terminal corner's
ends.  A strand is its index in that order; its zone and stack entry
are read from the index.

Every strand carries the picture's one positive weight: a rational
lamination is an integral one scaled by 1/u.  Elements of several
weights enter through :func:`cable`, which draws each as parallel copies
at one common weight.

Corner conventions.  The corner ``(t, i)`` of triangle ``t`` sits at the
terminal endpoint of side ``i`` and the initial endpoint of side ``i+1``.
A ``cw`` arc at a corner runs from the side on which the corner is
terminal to the side on which it is initial; ``ccw`` is the reverse.  A
spiral tail winding ``cw`` (puncture sign ``+``) attaches to the side on
which its corner is terminal, a ``ccw`` tail (sign ``-``) to the side on
which it is initial.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm

from .seeds import ZERO
from .surface import Sl3Error
from .tropical import TropicalPoint


# the most corner entries plus honeycomb height of a picture that is
# cabled, drawn from a component sum or scaled (see _cabled), or that
# reconstruction or gluing is bound to build (see
# reconstruct.bounded_window_seeds)
MAX_PICTURE_SIZE = 10**6


class InvalidPicture(Sl3Error):
    pass


class PictureTooLarge(Sl3Error):
    """A picture over :data:`MAX_PICTURE_SIZE`.  ``size`` is its size in
    corner entries plus honeycomb height, or a lower bound on it."""

    def __init__(self, message, size):
        self.size = size
        super().__init__(message)


class UnknownComponentKind(Sl3Error):
    pass


class CarrierMismatch(Sl3Error):
    pass


class NegativeNonPeripheralWeight(Sl3Error):
    pass


@dataclass(frozen=True)
class Honeycomb:
    orient: str  # "sink" | "source"
    height: int


@dataclass(frozen=True)
class CornerArc:
    orient: str  # "cw" | "ccw"


@dataclass(frozen=True)
class SpiralEnd:
    winding: str  # "cw" (sign +) | "ccw" (sign -)
    outgoing: bool  # True if the curve leaves the puncture here

    @property
    def sign(self):
        return "+" if self.winding == "cw" else "-"


class GlobalPicture:
    """Good-position lamination data over an ideal triangulation.

    A picture is immutable once built: nothing writes to ``corners`` or
    ``honeycombs`` after ``__init__``.  So the strand structure they
    determine (the zone triple of every side, see :attr:`strand_lists`)
    and the validation diagnostics are derived once per picture, on
    first use, and every reader classifies a strand by its index.  No
    pairing is stored: across an edge, index ``i`` of a list of length
    ``n`` meets index ``n - 1 - i`` (see the module docstring).  Every
    strand carries the one ``weight``.
    """

    def __init__(self, tri, honeycombs=None, corners=None, weight=1):
        self.tri = tri
        self.honeycombs = {t: h for t, h in (honeycombs or {}).items() if h is not None}
        self.corners = {c: tuple(v) for c, v in (corners or {}).items() if v}
        self.weight = Fraction(weight)
        self._diags = None

    # -- derived strand structure ----------------------------------------

    def corner_stack(self, corner):
        return self.corners.get((corner[0], corner[1] % 3), ())

    @cached_property
    def strand_lists(self):
        """The zones ``(initial, legs, terminal)`` of every side, keyed
        by (slot, direction).  A side's strands run from its initial
        corner to its terminal corner: the initial corner's ends at the
        stack positions ``initial``, deepest first, then ``legs``
        honeycomb legs, then the terminal corner's ends at the stack
        positions ``terminal``.  So index ``i`` is initial when ``i <
        len(initial)``, a leg when ``i < len(initial) + legs``, and
        terminal otherwise.  Each corner stack is read once; read-only."""
        # (slot, direction, zone) -> stack positions
        ends = {}
        zones = end_zones(self.tri)
        for c, stack in self.corners.items():
            arcs = zones[c][0]
            for p, entry in enumerate(stack):
                keys = arcs[entry.orient == "cw"] if type(entry) is CornerArc else entry_ends(zones[c], entry)
                for key in keys:
                    ends.setdefault(key, []).append(p)
        sides = {}
        for t in self.tri.triangles:
            hc = self.honeycombs.get(t)
            legs = 0 if hc is None else max(hc.height, 0)
            # a sink's legs come in, a source's go out
            sink = hc is not None and hc.orient == "sink"
            by_dir = (("in", legs), ("out", 0)) if sink else (("in", 0), ("out", legs))
            for i in (0, 1, 2):
                slot = (t, i)
                for d, n in by_dir:
                    first, last = ends.get((slot, d, 0)), ends.get((slot, d, 2))
                    sides[(slot, d)] = (
                        tuple(reversed(first)) if first else (), n, tuple(last) if last else ()
                    )
        return sides

    def strand_count(self, slot, direction):
        """Number of strands on the side."""
        initial, legs, terminal = self.strand_lists[(slot, direction)]
        return len(initial) + legs + len(terminal)

    def strand_parameter(self, slot, direction, index):
        """Half-integer position of a strand in the edge parametrization
        anchored at its initial-corner block."""
        n0 = len(self.strand_lists[(slot, direction)][0])
        return Fraction(2 * (index - n0) + 1, 2)

    # -- readers -----------------------------------------------------------

    def puncture_signs(self):
        """List of (vertex, sign, weight) for each spiral tail."""
        out = []
        for (t, ci), stack in sorted(self.corners.items()):
            for entry in stack:
                if isinstance(entry, SpiralEnd):
                    out.append((self.tri.corner_vertex(t, ci), entry.sign, self.weight))
        return out

    # -- validation --------------------------------------------------------

    def validate(self):
        """The picture's diagnostics, empty when it is valid.  The checks
        run once per picture; every call returns a fresh list."""
        if self._diags is None:
            self._diags = tuple(self._check())
        return list(self._diags)

    def require_valid(self):
        """The picture itself; raises :class:`InvalidPicture` with every
        diagnostic when :meth:`validate` reports any."""
        diags = self.validate()
        if diags:
            raise InvalidPicture("; ".join(diags))
        return self

    def _check(self):
        diags = [] if self.weight > 0 else [f"non-positive picture weight {self.weight}"]
        for t, hc in self.honeycombs.items():
            if hc.height < 1:
                diags.append(f"honeycomb of height {hc.height} in {t}")
            if hc.orient not in ("sink", "source"):
                diags.append(f"bad honeycomb orientation in {t}")
        for (t, ci), stack in self.corners.items():
            if self.tri.vertices[self.tri.corner_vertex(t, ci)] != "puncture":
                bad = f"spiral tail at non-puncture corner {(t, ci)}"
                diags += [bad for e in stack if isinstance(e, SpiralEnd)]
        for e in self.tri.interior_edges:
            sl, sr = self.tri.slots(e)
            for tag, out_slot, in_slot in (("lr", sl, sr), ("rl", sr, sl)):
                if self.strand_count(out_slot, "out") != self.strand_count(in_slot, "in"):
                    diags.append(f"unbalanced strand lists across {e} ({tag})")
        return diags

    def dynkin(self):
        """Orientation reversal: arcs and honeycombs flip, tail windings
        (puncture signs) are kept; every strand changes direction, so the
        two sheets of each edge trade places."""
        honeycombs = {
            t: Honeycomb("source" if h.orient == "sink" else "sink", h.height)
            for t, h in self.honeycombs.items()
        }

        def reversed_entry(e):
            if isinstance(e, CornerArc):
                return CornerArc("ccw" if e.orient == "cw" else "cw")
            return replace(e, outgoing=not e.outgoing)

        corners = {c: [reversed_entry(e) for e in stack] for c, stack in self.corners.items()}
        return GlobalPicture(self.tri, honeycombs, corners, self.weight)

    def scaled(self, u):
        """The picture of ``u`` times the lamination at weight 1, ``u`` a
        positive integer making the weight integral: each strand is cabled
        into u * weight parallel copies, so heights multiply and each stack
        entry repeats in place.  A picture already at weight 1 is returned
        itself for ``u`` = 1."""
        n = self.weight * u
        if n.denominator != 1:
            raise InvalidPicture("scaling does not clear denominators")
        if n == 1 and self.weight == 1:
            return self
        honeycombs = {t: (h, n.numerator) for t, h in self.honeycombs.items()}
        corners = {c: [(e, n.numerator) for e in stack] for c, stack in self.corners.items()}
        return _cabled(self.tri, honeycombs, corners, 1)


def end_zones(tri):
    """Where the strand ends of the entries of each corner (t, i) of
    ``tri`` lie, as keys ``(slot, direction, zone)``: zone 2 (terminal)
    of the side of slot (t, i), on which the corner is terminal, or zone 0
    (initial) of the side of slot (t, i + 1), on which it is initial.
    Maps each corner to ``(arcs, tails)``: ``arcs[cw]`` holds the two ends
    of a ccw (``cw`` False) or a cw arc, which comes in on its terminal
    side and leaves on its initial one, and ``tails[cw][outgoing]`` the
    one end of a spiral end winding ccw or cw, which attaches to its
    initial or its terminal side.  Kept in ``tri.memo``."""
    zones = tri.memo.get("end zones")
    if zones is None:
        zones = tri.memo["end zones"] = {}
        for t in tri.triangles:
            for i in (0, 1, 2):
                c, nxt = (t, i), (t, (i + 1) % 3)
                zones[c] = (
                    (((c, "out", 2), (nxt, "in", 0)), ((c, "in", 2), (nxt, "out", 0))),
                    ((((nxt, "in", 0),), ((nxt, "out", 0),)), (((c, "in", 2),), ((c, "out", 2),))),
                )
    return zones


def entry_ends(zones, entry):
    """The ``(slot, direction, zone)`` of each strand end of a stack entry,
    from its corner's ``zones`` (see :func:`end_zones`)."""
    arcs, tails = zones
    if isinstance(entry, CornerArc):
        return arcs[entry.orient == "cw"]
    if isinstance(entry, SpiralEnd):
        return tails[entry.winding == "cw"][entry.outgoing]
    raise InvalidPicture(f"unknown stack entry {entry!r}")


def _cabled(tri, honeycombs, corners, weight):
    """The picture at ``weight`` of honeycombs ``{t: (h, m)}`` of m times
    h's height and stacks ``{corner: [(entry, m)]}`` repeating each entry
    m times in place; over :data:`MAX_PICTURE_SIZE` corner entries plus
    honeycomb height it raises :class:`PictureTooLarge` before building."""
    # counted as built: a height or repeat that is not positive draws nothing
    size = sum(max(h.height * m, 0) for h, m in honeycombs.values())
    size += sum(max(m, 0) for s in corners.values() for _, m in s)
    if size > MAX_PICTURE_SIZE:
        raise PictureTooLarge(f"a picture of {size} strands is over the limit of {MAX_PICTURE_SIZE}", size)
    return GlobalPicture(
        tri,
        {t: Honeycomb(h.orient, h.height * m) for t, (h, m) in honeycombs.items()},
        {c: [e for e, m in s for _ in range(m)] for c, s in corners.items()},
        weight,
    )


def cable(tri, honeycombs, corners):
    """The picture of weighted elements at the largest weight g dividing
    every weight w given, each element drawn as w / g parallel copies:
    ``honeycombs`` maps a triangle to ``(honeycomb, w)`` and ``corners``
    a corner to its runs ``(entry, w, n)`` of n equal entries.  A weight
    that is not positive raises :class:`InvalidPicture`; so do, when two
    distinct weights are given, the cabled picture's diagnostics and a
    copy paired across an edge with a copy of another weight, which
    cabling would hide.  The size limit is :func:`_cabled`'s."""
    weights = [w for _, w in honeycombs.values()] + [w for s in corners.values() for _, w, _ in s]
    one = weights[0] if weights else Fraction(1)
    if one > 0 and all(w is one or w == one for w in weights):
        # one weight: every element is one copy, and no pairing can differ
        return _cabled(
            tri,
            {t: (h, 1) for t, (h, _) in honeycombs.items()},
            {c: [(e, n) for e, _, n in s] for c, s in corners.items()},
            one,
        )
    if any(w.numerator <= 0 for w in weights):
        raise InvalidPicture(f"non-positive weight {min(weights)}")
    num, den = gcd(*(w.numerator for w in weights)), lcm(*(w.denominator for w in weights))

    def copies(w):
        return w.numerator // num * (den // w.denominator)

    pic = _cabled(
        tri,
        {t: (h, copies(w)) for t, (h, w) in honeycombs.items()},
        {c: [(e, n * copies(w)) for e, w, n in s] for c, s in corners.items()},
        Fraction(num or 1, den),
    )
    # each copy labelled with its element's weight: an element is w / g
    # labels w, so two sides' labels agree when their elements' weights do
    labels = {c: [w for _, w, n in s for _ in range(n * copies(w))] for c, s in corners.items()}

    def side(slot, direction):
        t, i = slot
        first, legs, last = pic.strand_lists[(slot, direction)]
        on_legs = [honeycombs.get(t, (None, None))[1]] * legs
        return [labels[(t, (i - 1) % 3)][p] for p in first] + on_legs + [labels[slot][p] for p in last]

    diags = pic.validate() or [
        f"paired strands across {e} ({tag}) have unequal weights"
        for e in tri.interior_edges
        for tag, out_slot, in_slot in zip(("lr", "rl"), tri.slots(e), tri.slots(e)[::-1])
        if side(out_slot, "out") != side(in_slot, "in")[::-1]
    ]
    if diags:
        raise InvalidPicture("; ".join(diags))
    return pic


def honeycomb_leg_split(pic, t, side_index):
    """The (n1, n2, n3) division of the honeycomb legs on one side of a
    triangle: legs whose far end turns left (continues past the far
    side's initial corner), runs into another honeycomb, or turns right.
    Read across the implicit reversal pairing; None on boundary sides or
    without a honeycomb."""
    hc = pic.honeycombs.get(t)
    if hc is None:
        return None
    slot = (t, side_index % 3)
    far_slot = pic.tri.other_slot(slot)
    if far_slot is None:
        return None
    direction, far_dir = ("in", "out") if hc.orient == "sink" else ("out", "in")
    initial, legs, _ = pic.strand_lists[(slot, direction)]
    lo, hi = len(initial), len(initial) + legs

    def meet(a, b):
        return max(0, min(hi, b) - max(lo, a))

    # index j meets far index n - 1 - j: the far terminal zone faces the
    # indices below c, its legs those below c + far_legs, its initial zone
    # the rest of the far length
    _, far_legs, far_terminal = pic.strand_lists[(far_slot, far_dir)]
    c = len(far_terminal)
    n1 = meet(c + far_legs, pic.strand_count(far_slot, far_dir))
    n2, n3 = meet(c, c + far_legs), meet(0, c)
    # the far side's initial corner is this side's terminal corner: a leg
    # landing there turned left
    return (n1, n2, n3)


def add_peripheral_chain(pic, vertex, orient, weight=1):
    """Add one boundary-parallel component of ``weight`` around a marked
    point: an arc in every triangle-corner at the vertex, at the deep end
    of each stack, cabled with the picture (see :func:`cable`).  The
    implicit reversal pairings take the new strands in."""
    w = pic.weight
    corners = {c: [(e, w, 1) for e in stack] for c, stack in pic.corners.items()}
    for c in pic.tri.corners_at_vertex(vertex):
        corners.setdefault(c, []).append((CornerArc(orient), Fraction(weight), 1))
    return cable(pic.tri, {t: (h, w) for t, h in pic.honeycombs.items()}, corners)


@dataclass(frozen=True)
class Component:
    """A weighted elementary component with a named carrier: a triangle
    for the ``TRIANGLE_KINDS``, whose ``ARC_KINDS`` take the corner from
    ``corner``; an interior edge for the ``QUADRILATERAL_KINDS``; a
    marked point for the ``PERIPHERAL_KINDS``.
    """

    kind: str
    carrier: str
    weight: Fraction = Fraction(1)
    corner: int = 0


class ComponentSum:
    def __init__(self, tri, components=()):
        self.tri = tri
        self.components = tuple(components)

    def __iter__(self):
        return iter(self.components)

    def picture(self):
        """The sum drawn as a picture at weight 1/u, u the lcm of the
        weight denominators: a component of weight w adds w u to the
        height of each of its honeycombs and w u arcs to each of its
        corner stacks, a stack holding its ccw arcs, then its cw arcs.
        Raises :class:`CarrierMismatch` or :class:`UnknownComponentKind`
        for a component off its carrier rule (see :func:`_carrier`), and
        :class:`InvalidPicture` for a weight that is not positive or for
        a sink and a source honeycomb in one triangle (and see
        :func:`_cabled` for the size limit)."""
        u = lcm(*(c.weight.denominator for c in self.components))
        orients, heights, arcs = {}, {}, {}
        for comp in self.components:
            where = f"component {comp.kind} at {comp.carrier}"
            if comp.weight <= 0:
                raise InvalidPicture(f"{where} has weight {comp.weight}")
            n = int(comp.weight * u)
            honeycombs, corner_arcs = _drawing(self.tri, comp)
            for t, orient in honeycombs:
                if orients.setdefault(t, orient) != orient:
                    raise InvalidPicture(f"{where} puts a sink and a source honeycomb in {t}")
                heights[t] = heights.get(t, 0) + n
            for key in corner_arcs:
                arcs[key] = arcs.get(key, 0) + n
        corners = {}
        for (c, orient), n in sorted(arcs.items()):
            corners.setdefault(c, []).append((CornerArc(orient), n))
        honeycombs = {t: (Honeycomb(orients[t], 1), h) for t, h in heights.items()}
        return _cabled(self.tri, honeycombs, corners, Fraction(1, u))


@dataclass(frozen=True)
class PinnedLamination:
    """A picture plus a rational coweight ``delta[E] = (delta_plus,
    delta_minus)`` per boundary interval."""

    underlying: GlobalPicture
    delta: dict

    @property
    def tri(self):
        return self.underlying.tri

    def delta_at(self, e):
        return self.delta.get(e, (Fraction(0), Fraction(0)))

    def dynkin(self):
        delta = {e: (dm, dp) for e, (dp, dm) in self.delta.items()}
        return PinnedLamination(self.underlying.dynkin(), delta)


# -- shear coordinates ------------------------------------------------------


def zone_sizes(pic):
    """The strand counts ``[initial, legs, terminal]`` of the zones of
    every side of a picture, keyed by (slot, direction) as its
    :attr:`~GlobalPicture.strand_lists` are."""
    return {side: [len(first), legs, len(last)] for side, (first, legs, last) in pic.strand_lists.items()}


def zone_shear(pic, sizes):
    """Shear coordinates on the unfrozen indices, as ints over the
    denominator of the picture's weight, of the picture's honeycombs with
    the zone sizes ``sizes`` (see :func:`zone_sizes`).  Shear reads only
    these counts: out index j of a sheet meets in index n - 1 - j, which
    is terminal when j < b, the in side's terminal zone size; a crossing
    adds the weight when the in end is terminal and the out end (j >= a,
    a the out side's initial zone size) is not initial, and subtracts it
    when the out end is initial and the in end is not terminal."""
    tri, w = pic.tri, pic.weight.numerator
    x = {("tri", t): (w if hc.orient == "sink" else -w) * hc.height for t, hc in pic.honeycombs.items()}
    for e in tri.interior_edges:
        sl, sr = tri.slots(e)
        for idx, out_slot, in_slot in ((("edge", e, 1), sl, sr), (("edge", e, 2), sr, sl)):
            a = sizes[(out_slot, "out")][0]
            b = sizes[(in_slot, "in")][2]
            if a != b:
                x[idx] = w * (b - a)
    return TropicalPoint.from_ints("X", pic.weight.denominator, x, tri, restricted=True)


def shear_unfrozen(pic):
    """Shear coordinates of a valid picture on the unfrozen indices, read
    off its zone sizes by :func:`zone_shear`."""
    pic.require_valid()
    return zone_shear(pic, zone_sizes(pic))


def _boundary_sizes(pic, e):
    """The strand counts behind :func:`boundary_weights` at ``e``."""
    slot, _ = pic.tri.slots(e)
    out, inc = pic.strand_lists[(slot, "out")], pic.strand_lists[(slot, "in")]
    return len(out[0]), len(inc[0]) + inc[1]


def boundary_weights(pic, e):
    """The pinning rule's weights ``(alpha^+, alpha^- + [x_T]_+)`` at the
    boundary interval E = ``e``, whose frozen coordinates are x_{E,1} =
    delta^+ - alpha^+ and x_{E,2} = delta^- - alpha^- - [x_T]_+.  alpha^+/-
    weigh the cw/ccw arcs at E's initial marked point, which is special and
    so holds no spiral end: they are the initial zones of E's outgoing and
    incoming sides, and [x_T]_+ the incoming legs, times the weight."""
    return tuple(pic.weight * n for n in _boundary_sizes(pic, e))


def shear_frozen(pinned):
    """Full shear coordinates of a pinned lamination: the unfrozen part
    ignores the pinning, and the frozen part is read by
    :func:`boundary_weights`.  All on int numerators over the lcm of the
    weight's and the pins' denominators."""
    under = pinned.underlying
    q, nums = shear_unfrozen(under)._ints
    pins = {e: pinned.delta_at(e) for e in under.tri.boundary_intervals}
    d = lcm(q, *(v.denominator for pair in pins.values() for v in pair))
    p = under.weight.numerator * (d // q)
    coords = {i: n * (d // q) for i, n in nums.items()}
    for e, delta in pins.items():
        for s, v, n in zip((1, 2), delta, _boundary_sizes(under, e)):
            c = v.numerator * (d // v.denominator) - p * n
            if c:
                coords[("edge", e, s)] = c
    return TropicalPoint.from_ints("X", d, coords, under.tri, restricted=False)


# -- component sums ---------------------------------------------------------

# The paper's kind families, each mapping a kind to how it is drawn on the
# slots of its carrier (see _carrier): honeycombs as (k, orient) and
# corner arcs as (k, offset, orient), the arc sitting at the corner
# (t, i + offset) of the k-th slot (t, i).  A triangle kind has the one
# slot (t, corner), where an arc kind's ``corner`` picks the corner and
# the others' is 0; a quadrilateral kind has the slots (T_L, i_L) and
# (T_R, i_R) of its edge, so offsets 0 and -1 are the top and bottom
# corners of T_L and the bottom and top corners of T_R
ARC_KINDS = {
    "alpha": ((), ((0, 0, "ccw"),)),
    "alpha-star": ((), ((0, 0, "cw"),)),
}
TRIANGLE_KINDS = {
    **ARC_KINDS,
    "tau+": (((0, "sink"),), ()),
    "tau-": (((0, "source"),), ()),
}
QUADRILATERAL_KINDS = {
    "alpha+": ((), ((0, 0, "ccw"), (1, 0, "cw"))),
    "alpha+rev": ((), ((0, 0, "cw"), (1, 0, "ccw"))),
    "alpha-": ((), ((0, -1, "cw"), (1, -1, "ccw"))),
    "alpha-rev": ((), ((0, -1, "ccw"), (1, -1, "cw"))),
    "tau+L": (((0, "sink"),), ((1, -1, "cw"),)),
    "tau+R": (((0, "sink"),), ((1, 0, "ccw"),)),
    "tau-L": (((0, "source"),), ((1, -1, "ccw"),)),
    "tau-R": (((0, "source"),), ((1, 0, "cw"),)),
    "h": (((0, "sink"), (1, "source")), ()),
    "h-rev": (((0, "source"), (1, "sink")), ()),
}
_DRAWN = {**TRIANGLE_KINDS, **QUADRILATERAL_KINDS}
# a peripheral kind is one arc of its orientation in every corner at its
# marked point, as in add_peripheral_chain
PERIPHERAL_KINDS = {"peripheral-cw": "cw", "peripheral-ccw": "ccw"}


def _carrier(tri, comp):
    """The carrier rule of :func:`_drawing`: the slots of a triangle or
    quadrilateral kind (see ``_DRAWN``), or the marked point of a
    peripheral kind.  Every side a component's arcs and honeycomb legs
    end on, other than its carrier edge, is a boundary interval."""
    kind, c = comp.kind, comp.carrier
    if kind in PERIPHERAL_KINDS:
        if c not in tri.vertices:
            raise CarrierMismatch(f"no marked point {c}")
        return c
    if kind not in _DRAWN:
        raise UnknownComponentKind(kind)
    if kind in TRIANGLE_KINDS:
        if c not in tri.tri_sides:
            raise CarrierMismatch(f"no triangle {c}")
        arc = kind in ARC_KINDS
        slots = ((c, comp.corner % 3 if arc else 0),)
        ends = [(c, (slots[0][1] + j) % 3) for j in range(2 if arc else 3)]
    else:
        if not tri.has_edge(c) or tri.is_boundary(c):
            raise CarrierMismatch(f"{c} is not an interior edge")
        slots = tri.slots(c)
        ends = [(t, (i + j) % 3) for t, i in slots[::-1] for j in (1, 2)]
    for slot in ends:
        if tri.is_interior(tri.edge_at(slot)):
            raise CarrierMismatch(f"component {kind} needs a boundary side at {slot}")
    return slots


def _drawing(tri, comp):
    """The honeycombs ``[(t, orient)]`` and corner arcs ``[(corner,
    orient)]`` of one component at unit weight."""
    frame = _carrier(tri, comp)
    if comp.kind in PERIPHERAL_KINDS:
        return (), [(c, PERIPHERAL_KINDS[comp.kind]) for c in tri.corners_at_vertex(frame)]
    honeycombs, arcs = _DRAWN[comp.kind]
    return (
        [(frame[k][0], orient) for k, orient in honeycombs],
        [((frame[k][0], (frame[k][1] + d) % 3), orient) for k, d, orient in arcs],
    )


def coords_of_components(s):
    """Weight-linear A-coordinates of a component sum, read off the
    drawing of each component (see :func:`_drawing`).  A strand that
    leaves a side adds (2/3, 1/3) to the side's (p, q) and one that
    enters adds (1/3, 2/3), each edge read at its left slot; a face gets
    1 per unit of honeycomb height, 2/3 per ccw arc and 1/3 per cw arc.
    Its X-coordinates are the shear coordinates of its picture,
    :meth:`ComponentSum.picture`."""
    tri = s.tri
    thirds = {}

    def add(i, n):
        thirds[i] = thirds.get(i, 0) + n

    for comp in s:
        w = comp.weight
        honeycombs, arcs = _drawing(tri, comp)
        # (slot, leaves): a sink's legs enter all three sides, a ccw arc
        # at (t, c) leaves on side c and enters on side c + 1
        ends = []
        for t, orient in honeycombs:
            add(("tri", t), 3 * w)
            ends += [((t, i), orient == "source") for i in range(3)]
        for (t, c), orient in arcs:
            add(("tri", t), (2 if orient == "ccw" else 1) * w)
            ends += [((t, c), orient == "ccw"), ((t, (c + 1) % 3), orient == "cw")]
        for slot, leaves in ends:
            e = tri.edge_at(slot)
            if slot == tri.slots(e)[0]:
                add(("edge", e, 1), (2 if leaves else 1) * w)
                add(("edge", e, 2), (1 if leaves else 2) * w)
    return TropicalPoint("A", {i: Fraction(n, 3) for i, n in thirds.items()}, tri=tri, restricted=False)


def geometric_ensemble(s):
    """Drop the peripheral components of a bounded lamination and turn
    their weights into pinnings, delta_E^+ minus the total cw peripheral
    weight at the initial marked point of E and delta_E^- the ccw total;
    the other components are drawn as its picture."""
    tri = s.tri
    rest = []
    delta = {}
    for comp in s:
        orient = PERIPHERAL_KINDS.get(comp.kind)
        if orient is None:
            if comp.weight <= 0:
                raise NegativeNonPeripheralWeight(comp)
            rest.append(comp)
        elif tri.vertices.get(comp.carrier) == "special":
            for e in tri.boundary_intervals:
                if tri.edge_endpoints(e)[0] == comp.carrier:
                    dp, dm = delta.get(e, (ZERO, ZERO))
                    if orient == "cw":
                        dp -= comp.weight
                    else:
                        dm -= comp.weight
                    delta[e] = (dp, dm)
    return PinnedLamination(ComponentSum(tri, rest).picture(), delta)


def normalize_integral(lam):
    """Clear denominators: returns ``(u, scaled)`` with ``u`` the lcm of
    the weight (and pinning) denominators and ``scaled`` the integral
    lamination ``u . lam`` realized with unit weights."""
    if isinstance(lam, PinnedLamination):
        u = lcm(lam.underlying.weight.denominator, *(d.denominator for ds in lam.delta.values() for d in ds))
        delta = {e: (dp * u, dm * u) for e, (dp, dm) in lam.delta.items()}
        return u, PinnedLamination(lam.underlying.scaled(u), delta)
    return lam.weight.denominator, lam.scaled(lam.weight.denominator)
