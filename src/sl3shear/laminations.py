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
from math import lcm

from .seeds import Sl3IndexSet
from .surface import Sl3Error
from .tropical import TropicalPoint, pos


class InvalidPicture(Sl3Error):
    pass


class UnknownComponentKind(Sl3Error):
    pass


class CarrierMismatch(Sl3Error):
    pass


class NegativeNonPeripheralWeight(Sl3Error):
    pass


@dataclass(frozen=True)
class Honeycomb:
    """A honeycomb web; ``weight`` is 1 on integral pictures and only
    differs after rescaling a lamination by a rational factor."""

    orient: str  # "sink" | "source"
    height: int
    weight: Fraction = Fraction(1)

    def face_value(self):
        v = Fraction(self.height) * self.weight
        return v if self.orient == "sink" else -v


@dataclass(frozen=True)
class CornerArc:
    orient: str  # "cw" | "ccw"
    weight: Fraction = Fraction(1)


@dataclass(frozen=True)
class SpiralEnd:
    winding: str  # "cw" (sign +) | "ccw" (sign -)
    outgoing: bool  # True if the curve leaves the puncture here
    weight: Fraction = Fraction(1)

    @property
    def sign(self):
        return "+" if self.winding == "cw" else "-"


@dataclass(frozen=True)
class StrandRef:
    """One strand end on a side of a triangle.

    ``origin`` is ``("corner", corner, pos)`` for an end of the stack
    entry at ``pos`` in the corner's stack, or ``("leg", j)`` for the
    ``j``-th honeycomb leg on the side.
    """

    slot: tuple
    direction: str  # "in" | "out" relative to the triangle
    origin: tuple
    weight: Fraction


def _arc_end_direction(entry, role):
    """Direction of the strand end of a stack entry on side role
    'A' (corner terminal there) or 'B' (corner initial there); None if
    the entry has no end on that side."""
    if isinstance(entry, CornerArc):
        if entry.orient == "cw":
            return "in" if role == "A" else "out"
        return "out" if role == "A" else "in"
    if isinstance(entry, SpiralEnd):
        wanted = "A" if entry.winding == "cw" else "B"
        if role != wanted:
            return None
        return "out" if entry.outgoing else "in"
    raise InvalidPicture(f"unknown stack entry {entry!r}")


class GlobalPicture:
    """Good-position lamination data over an ideal triangulation.

    A picture is immutable once built: nothing writes to ``corners`` or
    ``honeycombs`` after ``__init__``.  So the strand structure they
    determine (the ordered strand ends of every side, the initial-zone
    size of each list) and the validation diagnostics are derived once
    per picture, on first use, and every reader looks them up.  No
    pairing is stored: across an edge, index ``i`` of a list of length
    ``n`` meets index ``n - 1 - i`` (see the module docstring).
    """

    def __init__(self, tri, honeycombs=None, corners=None):
        self.tri = tri
        self.honeycombs = {t: h for t, h in (honeycombs or {}).items() if h is not None}
        self.corners = {c: tuple(v) for c, v in (corners or {}).items() if v}
        self._diags = None

    # -- derived strand structure ----------------------------------------

    def corner_stack(self, corner):
        return self.corners.get((corner[0], corner[1] % 3), ())

    @cached_property
    def _strands(self):
        """``(lists, zones)`` keyed by (slot, direction): the tuple of
        strand ends on the side, from its initial corner to its terminal
        corner, and the number of them coming from the initial corner."""
        lists = {}
        zones = {}
        for t in self.tri.triangles:
            hc = self.honeycombs.get(t)
            for i in range(3):
                slot = (t, i)
                c0 = (t, (i - 1) % 3)
                c1 = (t, i)
                for direction in ("in", "out"):
                    initial = [
                        StrandRef(slot, direction, ("corner", c0, p), entry.weight)
                        for p, entry in enumerate(self.corner_stack(c0))
                        if _arc_end_direction(entry, "B") == direction
                    ]
                    legs = []
                    if hc is not None and ((hc.orient == "sink") == (direction == "in")):
                        legs = [
                            StrandRef(slot, direction, ("leg", j), hc.weight)
                            for j in range(hc.height)
                        ]
                    terminal = [
                        StrandRef(slot, direction, ("corner", c1, p), entry.weight)
                        for p, entry in enumerate(self.corner_stack(c1))
                        if _arc_end_direction(entry, "A") == direction
                    ]
                    lists[(slot, direction)] = (*reversed(initial), *legs, *terminal)
                    zones[(slot, direction)] = len(initial)
        return lists, zones

    @property
    def strand_lists(self):
        """Every strand list, keyed by (slot, direction); read-only."""
        return self._strands[0]

    def strand_list(self, slot, direction):
        """Ordered strand ends on a side, from its initial corner to its
        terminal corner."""
        return self._strands[0][(slot, direction)]

    def initial_zone_size(self, slot, direction):
        """Number of strands on the side coming from its initial corner."""
        return self._strands[1][(slot, direction)]

    def strand_parameter(self, slot, direction, index):
        """Half-integer position of a strand in the edge parametrization
        anchored at its initial-corner block."""
        n0 = self.initial_zone_size(slot, direction)
        return Fraction(2 * (index - n0) + 1, 2)

    @cached_property
    def pairings(self):
        """``(lr, rl)`` per interior edge: the ``(out index, in index)``
        pairs of the strands leaving the left and the right side, which
        are the reversals ``(i, n - 1 - i)``.  Derived from the list
        lengths for the JSON io and the diagram; nothing else reads it."""
        pairings = {}
        for e in self.tri.interior_edges:
            lengths = [len(self.strand_list(slot, "out")) for slot in self.tri.slots(e)]
            pairings[e] = tuple(tuple((i, n - 1 - i) for i in range(n)) for n in lengths)
        return pairings

    # -- classification helpers ------------------------------------------

    def strand_corner_class(self, ref):
        """'initial', 'terminal' or 'leg': position of a strand's origin
        relative to its side."""
        if ref.origin[0] == "leg":
            return "leg"
        t, i = ref.slot
        corner = ref.origin[1]
        if corner == (t, (i - 1) % 3):
            return "initial"
        return "terminal"

    def face_value(self, t):
        hc = self.honeycombs.get(t)
        return hc.face_value() if hc is not None else Fraction(0)

    def corner_arc_weight(self, corner, orient):
        return sum(
            (entry.weight for entry in self.corner_stack(corner)
             if isinstance(entry, CornerArc) and entry.orient == orient),
            Fraction(0),
        )

    def puncture_signs(self):
        """List of (vertex, sign, weight) for each spiral tail."""
        out = []
        for (t, ci), stack in sorted(self.corners.items()):
            for entry in stack:
                if isinstance(entry, SpiralEnd):
                    out.append((self.tri.corner_vertex(t, ci), entry.sign, entry.weight))
        return out

    # -- validation --------------------------------------------------------

    def validate(self):
        """The picture's diagnostics, empty when it is valid.  The checks
        run once per picture; every call returns a fresh list."""
        if self._diags is None:
            self._diags = tuple(self._check())
        return list(self._diags)

    def _check(self):
        diags = []
        for t, hc in self.honeycombs.items():
            if hc.height < 1:
                diags.append(f"honeycomb of height {hc.height} in {t}")
            if hc.orient not in ("sink", "source"):
                diags.append(f"bad honeycomb orientation in {t}")
        for (t, ci), stack in self.corners.items():
            v = self.tri.corner_vertex(t, ci)
            for entry in stack:
                if entry.weight <= 0:
                    diags.append(f"non-positive weight at corner {(t, ci)}")
                if isinstance(entry, SpiralEnd) and self.tri.vertices[v] != "puncture":
                    diags.append(f"spiral tail at non-puncture corner {(t, ci)}")
        for e in self.tri.interior_edges:
            sl, sr = self.tri.slots(e)
            for tag, out_slot, in_slot in (("lr", sl, sr), ("rl", sr, sl)):
                outs = self.strand_list(out_slot, "out")
                ins = self.strand_list(in_slot, "in")
                if len(outs) != len(ins):
                    diags.append(f"unbalanced strand lists across {e} ({tag})")
                    continue
                diags.extend(
                    f"paired strands across {e} ({tag}) have unequal weights"
                    for a, b in zip(outs, reversed(ins))
                    if a.weight != b.weight
                )
        return diags

    def dynkin(self):
        """Orientation reversal: arcs and honeycombs flip, tail windings
        (puncture signs) are kept; every strand changes direction, so the
        two sheets of each edge trade places."""
        honeycombs = {
            t: Honeycomb("source" if h.orient == "sink" else "sink", h.height, h.weight)
            for t, h in self.honeycombs.items()
        }
        corners = {}
        for c, stack in self.corners.items():
            new = []
            for entry in stack:
                if isinstance(entry, CornerArc):
                    new.append(CornerArc("ccw" if entry.orient == "cw" else "cw", entry.weight))
                else:
                    new.append(replace(entry, outgoing=not entry.outgoing))
            corners[c] = tuple(new)
        return GlobalPicture(self.tri, honeycombs, corners)

    def scaled(self, u):
        """The picture of ``u`` times the lamination, ``u`` a positive
        integer making all weights integral: heights multiply, weighted
        arcs are cabled into unit-weight parallel copies.

        With ``u`` = 1 and every weight already 1 the picture itself is
        returned: cabling would rebuild the same stacks, and the pairings
        are implicit."""
        u = Fraction(u)
        if u == 1 and all(h.weight == 1 for h in self.honeycombs.values()) and all(
            entry.weight == 1 for stack in self.corners.values() for entry in stack
        ):
            return self
        honeycombs = {}
        for t, h in self.honeycombs.items():
            w = h.weight * u
            if w.denominator != 1:
                raise InvalidPicture("scaling does not clear denominators")
            honeycombs[t] = Honeycomb(h.orient, int(w) * h.height)
        corners = {}
        for c, stack in self.corners.items():
            new = []
            for entry in stack:
                w = entry.weight * u
                if w.denominator != 1:
                    raise InvalidPicture("scaling does not clear denominators")
                if isinstance(entry, CornerArc):
                    new.extend([CornerArc(entry.orient, Fraction(1))] * int(w))
                else:
                    new.extend([replace(entry, weight=Fraction(1))] * int(w))
            corners[c] = tuple(new)
        return GlobalPicture(self.tri, honeycombs, corners)


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
    mine = pic.strand_list(slot, direction)
    far = pic.strand_list(far_slot, far_dir)
    counts = {"initial": 0, "leg": 0, "terminal": 0}
    for ref, far_ref in zip(mine, reversed(far)):
        if ref.origin[0] == "leg":
            counts[pic.strand_corner_class(far_ref)] += 1
    # the far side's initial corner is this side's terminal corner: a leg
    # landing there turned left
    return (counts["initial"], counts["leg"], counts["terminal"])


def add_peripheral_chain(pic, vertex, orient, weight=Fraction(1)):
    """Add one boundary-parallel component around a marked point: an arc
    in every triangle-corner at the vertex, at the deep end of each
    stack.  The implicit reversal pairings take the new strands in."""
    corners = {c: list(v) for c, v in pic.corners.items()}
    for (t, ci) in pic.tri.corners_at_vertex(vertex):
        corners.setdefault((t, ci), []).append(CornerArc(orient, Fraction(weight)))
    return GlobalPicture(pic.tri, pic.honeycombs, corners)


@dataclass(frozen=True)
class Component:
    """A weighted elementary component with a named carrier.

    Triangle-carried kinds: ``alpha`` (counterclockwise corner arc),
    ``alpha-star`` (clockwise), ``tau+`` (sink honeycomb), ``tau-``
    (source); ``corner`` selects the corner for the arc kinds.
    Quadrilateral kinds carried by an interior edge: ``alpha+``,
    ``alpha+rev``, ``alpha-``, ``alpha-rev``, ``tau+L``, ``tau+R``,
    ``tau-L``, ``tau-R``, ``h``, ``h-rev``.  Peripheral kinds carried by a
    marked point: ``peripheral-cw``, ``peripheral-ccw``.
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

    def dynkin(self):
        flip = {
            "alpha": "alpha-star", "alpha-star": "alpha",
            "tau+": "tau-", "tau-": "tau+",
            "alpha+": "alpha+rev", "alpha+rev": "alpha+",
            "alpha-": "alpha-rev", "alpha-rev": "alpha-",
            "tau+L": "tau-L", "tau-L": "tau+L",
            "tau+R": "tau-R", "tau-R": "tau+R",
            "h": "h-rev", "h-rev": "h",
            "peripheral-cw": "peripheral-ccw", "peripheral-ccw": "peripheral-cw",
        }
        return ComponentSum(
            self.tri,
            [replace(c, kind=flip[c.kind]) for c in self.components],
        )


@dataclass(frozen=True)
class PinnedLamination:
    """A lamination (picture or component sum) plus a rational coweight
    ``delta[E] = (delta_plus, delta_minus)`` per boundary interval."""

    underlying: object
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


def _crossing_contribution(x, e, lclass, rclass, travel, left_hc, right_hc, w):
    """Contribution of one paired crossing to (x_{E,1}, x_{E,2}).

    ``lclass``/``rclass`` are 'initial'/'terminal'/'leg' relative to the
    left/right side; the left side's terminal corner and the right side's
    initial corner are the same point of the quadrilateral (and likewise
    initial/terminal).  ``travel`` is 'lr' or 'rl'.
    """
    i1 = ("edge", e, 1)
    i2 = ("edge", e, 2)
    lc = {"initial": "b", "terminal": "t", "leg": "leg"}[lclass]
    rc = {"initial": "t", "terminal": "b", "leg": "leg"}[rclass]
    if lc == "leg" and rc == "leg":
        return
    if lc == "leg":
        if left_hc.orient == "sink" and rc == "t":
            x[i2] = x.get(i2, Fraction(0)) - w
        elif left_hc.orient == "source" and rc == "b":
            x[i1] = x.get(i1, Fraction(0)) + w
        return
    if rc == "leg":
        if right_hc.orient == "sink" and lc == "b":
            x[i1] = x.get(i1, Fraction(0)) - w
        elif right_hc.orient == "source" and lc == "t":
            x[i2] = x.get(i2, Fraction(0)) + w
        return
    if lc == rc:
        return
    target = i1 if travel == "lr" else i2
    sign = 1 if (lc, rc) == ("t", "b") else -1
    x[target] = x.get(target, Fraction(0)) + sign * w


def shear_unfrozen(pic):
    """Shear coordinates of a picture on the unfrozen indices."""
    diags = pic.validate()
    if diags:
        raise InvalidPicture("; ".join(diags))
    tri = pic.tri
    x = {}
    for t, hc in pic.honeycombs.items():
        v = hc.face_value()
        if v:
            x[("tri", t)] = v
    cls = pic.strand_corner_class
    for e in tri.interior_edges:
        sl, sr = tri.slots(e)
        l_hc = pic.honeycombs.get(sl[0])
        r_hc = pic.honeycombs.get(sr[0])
        # each outgoing list meets the reversed incoming list
        for a, b in zip(pic.strand_list(sl, "out"), reversed(pic.strand_list(sr, "in"))):
            _crossing_contribution(x, e, cls(a), cls(b), "lr", l_hc, r_hc, a.weight)
        for a, b in zip(pic.strand_list(sr, "out"), reversed(pic.strand_list(sl, "in"))):
            _crossing_contribution(x, e, cls(b), cls(a), "rl", l_hc, r_hc, a.weight)
    x = {i: v for i, v in x.items() if v}
    return TropicalPoint("X", x, tri=tri, restricted=True)


def shear_frozen(pinned):
    """Full shear coordinates of a pinned lamination.

    The unfrozen part ignores the pinning; for each boundary interval E
    with initial marked point m and adjacent triangle T: x_{E,1} =
    delta^+ - alpha^+ and x_{E,2} = delta^- - alpha^- - [x_T]_+, where
    alpha^+/- are the total weights of the cw/ccw corner arcs at m in T.
    """
    under = pinned.underlying
    if isinstance(under, ComponentSum):
        base = coords_of_components(under, "X")
        coords = dict(base.coords)
        for e in under.tri.boundary_intervals:
            dp, dm = pinned.delta_at(e)
            for idx, d in ((("edge", e, 1), dp), (("edge", e, 2), dm)):
                v = coords.get(idx, Fraction(0)) + d
                if v:
                    coords[idx] = v
                else:
                    coords.pop(idx, None)
        return TropicalPoint("X", coords, tri=under.tri, restricted=False)
    pic = under
    base = shear_unfrozen(pic)
    coords = dict(base.coords)
    tri = pic.tri
    for e in tri.boundary_intervals:
        (t, i), _ = tri.slots(e)
        m = (t, (i - 1) % 3)
        dp, dm = pinned.delta_at(e)
        x1 = dp - pic.corner_arc_weight(m, "cw")
        x2 = dm - pic.corner_arc_weight(m, "ccw") - pos(pic.face_value(t))
        if x1:
            coords[("edge", e, 1)] = x1
        if x2:
            coords[("edge", e, 2)] = x2
    return TropicalPoint("X", coords, tri=tri, restricted=False)


# -- component coordinate tables --------------------------------------------

F = Fraction
_T = F(1, 3)
_TT = F(2, 3)

# triangle tables at corner 0 (terminal corner of side 0), as
# (face, ((p,q) of side 0, side 1, side 2))
_TRI_A = {
    "alpha": (_TT, ((_TT, _T), (_T, _TT), (0, 0))),
    "alpha-star": (_T, ((_T, _TT), (_TT, _T), (0, 0))),
    "tau+": (F(1), ((_T, _TT),) * 3),
    "tau-": (F(1), ((_TT, _T),) * 3),
}
_TRI_X = {
    "alpha": (F(0), ((0, 0), (0, -1), (0, 0))),
    "alpha-star": (F(0), ((0, 0), (-1, 0), (0, 0))),
    "tau+": (F(1), ((0, -1),) * 3),
    "tau-": (F(-1), ((0, 0),) * 3),
}

# quadrilateral tables, keyed (E, TL, TR, h, k, g, f): E = (x_{E,1},
# x_{E,2}); h, k are the other sides of the right triangle in ccw order
# after the diagonal, g, f those of the left triangle; side entries are
# (p, q) pairs in the traversal of the triangle containing them.
_QUAD_A = {
    "alpha+":    ((_TT, _T), _TT, _T, (_TT, _T), (0, 0), (_T, _TT), (0, 0)),
    "alpha+rev": ((_T, _TT), _T, _TT, (_T, _TT), (0, 0), (_TT, _T), (0, 0)),
    "alpha-":    ((_TT, _T), _T, _TT, (0, 0), (_TT, _T), (0, 0), (_T, _TT)),
    "alpha-rev": ((_T, _TT), _TT, _T, (0, 0), (_T, _TT), (0, 0), (_TT, _T)),
    "tau+L": ((_T, _TT), F(1), _T, (0, 0), (_T, _TT), (_T, _TT), (_T, _TT)),
    "tau+R": ((_T, _TT), F(1), _TT, (_T, _TT), (0, 0), (_T, _TT), (_T, _TT)),
    "tau-L": ((_TT, _T), F(1), _TT, (0, 0), (_TT, _T), (_TT, _T), (_TT, _T)),
    "tau-R": ((_TT, _T), F(1), _T, (_TT, _T), (0, 0), (_TT, _T), (_TT, _T)),
    "h":     ((_T, _TT), F(1), F(1), (_TT, _T), (_TT, _T), (_T, _TT), (_T, _TT)),
    "h-rev": ((_TT, _T), F(1), F(1), (_T, _TT), (_T, _TT), (_TT, _T), (_TT, _T)),
}
_QUAD_X = {
    "alpha+":    ((1, 0), 0, 0, (-1, 0), (0, 0), (0, -1), (0, 0)),
    "alpha+rev": ((0, 1), 0, 0, (0, -1), (0, 0), (-1, 0), (0, 0)),
    "alpha-":    ((-1, 0), 0, 0, (0, 0), (0, 0), (0, 0), (0, 0)),
    "alpha-rev": ((0, -1), 0, 0, (0, 0), (0, 0), (0, 0), (0, 0)),
    "tau+L": ((0, -1), 1, 0, (0, 0), (0, 0), (0, -1), (0, -1)),
    "tau+R": ((0, 0), 1, 0, (0, -1), (0, 0), (0, -1), (0, -1)),
    "tau-L": ((0, 0), -1, 0, (0, 0), (0, 0), (0, 0), (0, 0)),
    "tau-R": ((1, 0), -1, 0, (-1, 0), (0, 0), (0, 0), (0, 0)),
    "h":     ((0, 0), 1, -1, (0, 0), (0, 0), (0, -1), (0, -1)),
    "h-rev": ((0, 0), -1, 1, (0, -1), (0, -1), (0, 0), (0, 0)),
}


def _add_coord(acc, idx, v):
    v = Fraction(v)
    if not v:
        return
    acc[idx] = acc.get(idx, Fraction(0)) + v
    if not acc[idx]:
        del acc[idx]


def _require_boundary(tri, slots, kind):
    for slot in slots:
        if tri.is_interior(tri.edge_at(slot)):
            raise CarrierMismatch(f"component {kind} needs a boundary side at {slot}")


def _triangle_component_coords(acc, tri, iset, comp, table):
    t = comp.carrier
    if t not in tri.tri_sides:
        raise CarrierMismatch(f"no triangle {t}")
    face, sides = table[comp.kind]
    c = comp.corner if comp.kind in ("alpha", "alpha-star") else 0
    if comp.kind in ("alpha", "alpha-star"):
        _require_boundary(tri, [(t, c % 3), (t, (c + 1) % 3)], comp.kind)
    else:
        _require_boundary(tri, [(t, a) for a in range(3)], comp.kind)
    w = comp.weight
    _add_coord(acc, ("tri", t), w * face)
    for j in range(3):
        p, q = iset.side_pair((t, (c + j) % 3))
        vp, vq = sides[j]
        _add_coord(acc, p, w * vp)
        _add_coord(acc, q, w * vq)


def _quad_component_coords(acc, tri, iset, comp, table):
    e = comp.carrier
    if not tri.has_edge(e) or tri.is_boundary(e):
        raise CarrierMismatch(f"{e} is not an interior edge")
    (tl, il), (tr, ir) = tri.slots(e)
    ev, tlv, trv, hv, kv, gv, fv = table[comp.kind]
    w = comp.weight
    _add_coord(acc, ("edge", e, 1), w * Fraction(ev[0]))
    _add_coord(acc, ("edge", e, 2), w * Fraction(ev[1]))
    _add_coord(acc, ("tri", tl), w * Fraction(tlv))
    _add_coord(acc, ("tri", tr), w * Fraction(trv))
    outer = [
        ((tr, (ir + 1) % 3), hv),
        ((tr, (ir + 2) % 3), kv),
        ((tl, (il + 1) % 3), gv),
        ((tl, (il + 2) % 3), fv),
    ]
    _require_boundary(tri, [slot for slot, _ in outer], comp.kind)
    for slot, (vp, vq) in outer:
        p, q = iset.side_pair(slot)
        _add_coord(acc, p, w * Fraction(vp))
        _add_coord(acc, q, w * Fraction(vq))


def _peripheral_coords(acc, tri, iset, comp, kind):
    m = comp.carrier
    if m not in tri.vertices:
        raise CarrierMismatch(f"no marked point {m}")
    orient = "ccw" if comp.kind.endswith("-ccw") else "cw"
    if kind == "X":
        # all edge crossings hug m; only the frozen coordinates see it
        if tri.vertices[m] == "special":
            for e in tri.boundary_intervals:
                if tri.edge_endpoints(e)[0] == m:
                    s = 1 if orient == "cw" else 2
                    _add_coord(acc, ("edge", e, s), -comp.weight)
        return
    # A-side: one corner arc per triangle-corner at m; each interior edge
    # at m receives equal contributions from its two sides, counted once
    arc_kind = "alpha-star" if orient == "cw" else "alpha"
    per_side = {}
    for (t, ci) in tri.corners_at_vertex(m):
        face, sides = _TRI_A[arc_kind]
        _add_coord(acc, ("tri", t), comp.weight * face)
        for j in range(3):
            slot = (t, (ci + j) % 3)
            p, q = iset.side_pair(slot)
            vp, vq = sides[j]
            if vp or vq:
                per_side.setdefault(tri.edge_at(slot), {})[slot] = (
                    comp.weight * vp,
                    comp.weight * vq,
                )
    for e, by_slot in per_side.items():
        slots = sorted(by_slot)
        vals = [by_slot[s] for s in slots]
        if len(vals) == 2:
            # the two sides see the same pair of global indices in
            # opposite order; check consistency and count once
            pa, qa = iset.side_pair(slots[0])
            pb, qb = iset.side_pair(slots[1])
            if {pa: vals[0][0], qa: vals[0][1]} != {pb: vals[1][0], qb: vals[1][1]}:
                raise InvalidPicture(f"inconsistent peripheral contribution at {e}")
        p, q = iset.side_pair(slots[0])
        _add_coord(acc, p, vals[0][0])
        _add_coord(acc, q, vals[0][1])


def coords_of_components(s, kind):
    """Weight-linear X- or A-coordinates of a component sum, from the
    stored per-component tables."""
    if kind not in ("X", "A"):
        raise ValueError(kind)
    tri = s.tri
    iset = Sl3IndexSet(tri)
    acc = {}
    tri_table = _TRI_X if kind == "X" else _TRI_A
    quad_table = _QUAD_X if kind == "X" else _QUAD_A
    for comp in s:
        if comp.kind in tri_table:
            _triangle_component_coords(acc, tri, iset, comp, tri_table)
        elif comp.kind in quad_table:
            _quad_component_coords(acc, tri, iset, comp, quad_table)
        elif comp.kind in ("peripheral-cw", "peripheral-ccw"):
            _peripheral_coords(acc, tri, iset, comp, kind)
        else:
            raise UnknownComponentKind(comp.kind)
    return TropicalPoint(kind, acc, tri=tri, restricted=False)


def geometric_ensemble(s):
    """Drop the peripheral components of a bounded lamination and turn
    their weights into pinnings: delta_E^+ is minus the total cw
    peripheral weight at the initial marked point of E, delta_E^- the
    ccw total."""
    tri = s.tri
    rest = []
    delta = {}
    for comp in s:
        if comp.kind in ("peripheral-cw", "peripheral-ccw"):
            m = comp.carrier
            if tri.vertices.get(m) == "special":
                for e in tri.boundary_intervals:
                    if tri.edge_endpoints(e)[0] == m:
                        dp, dm = delta.get(e, (Fraction(0), Fraction(0)))
                        if comp.kind == "peripheral-cw":
                            dp -= comp.weight
                        else:
                            dm -= comp.weight
                        delta[e] = (dp, dm)
            continue
        if comp.weight <= 0:
            raise NegativeNonPeripheralWeight(comp)
        rest.append(comp)
    return PinnedLamination(ComponentSum(tri, rest), delta)


def normalize_integral(lam):
    """Clear denominators: returns ``(u, scaled)`` with ``u`` the lcm of
    the weight (and pinning) denominators and ``scaled`` the integral
    lamination ``u . lam`` realized with unit weights."""
    if isinstance(lam, PinnedLamination):
        dens = [_denominator_lcm(lam.underlying)]
        for dp, dm in lam.delta.values():
            dens.extend([dp.denominator, dm.denominator])
        u = lcm(*dens)
        under = _rescale(lam.underlying, u)
        delta = {e: (dp * u, dm * u) for e, (dp, dm) in lam.delta.items()}
        return u, PinnedLamination(under, delta)
    u = _denominator_lcm(lam)
    return u, _rescale(lam, u)


def _denominator_lcm(lam):
    if isinstance(lam, ComponentSum):
        dens = [c.weight.denominator for c in lam]
    else:
        dens = [
            entry.weight.denominator
            for stack in lam.corners.values()
            for entry in stack
        ] + [h.weight.denominator for h in lam.honeycombs.values()]
    return lcm(*dens) if dens else 1


def _rescale(lam, u):
    if isinstance(lam, ComponentSum):
        return ComponentSum(lam.tri, [replace(c, weight=c.weight * u) for c in lam])
    return lam.scaled(u)


def elementary_lamination(tri, k):
    """The pinned lamination whose shear coordinate vector is minus the
    unit vector at index ``k``: a reconstructed one-component picture for
    unfrozen indices, a pure pinning for frozen ones."""
    from .reconstruct import reconstruct

    iset = Sl3IndexSet(tri)
    if k not in iset:
        raise KeyError(k)
    if iset.is_frozen(k):
        _, e, s = k
        dp = Fraction(-1) if s == 1 else Fraction(0)
        dm = Fraction(-1) if s == 2 else Fraction(0)
        return PinnedLamination(GlobalPicture(tri), {e: (dp, dm)})
    x = TropicalPoint("X", {k: Fraction(-1)}, tri=tri, restricted=True)
    pic = reconstruct(x, tri)
    delta = {}
    for e in tri.boundary_intervals:
        (t, i), _ = tri.slots(e)
        m = (t, (i - 1) % 3)
        dp = pic.corner_arc_weight(m, "cw")
        dm = pic.corner_arc_weight(m, "ccw") + pos(pic.face_value(t))
        if dp or dm:
            delta[e] = (dp, dm)
    return PinnedLamination(pic, delta)
