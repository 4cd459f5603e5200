"""JSON interchange for the public types.

Exact rationals are serialized as "p/q" strings (plain integers as "p")
so no precision is ever lost.  Triangulations serialize their gluing
table; seed indices use the string forms "t:<tri>" and "e:<edge>:<1|2>".

A picture's corner stacks are written as runs: consecutive equal entries
become one entry object with ``"count": n``, written only when n > 1.
Strand pairings are implicit (the reversal, see
:mod:`sl3shear.laminations`) and are not written.  The older unary
format, one object per entry plus the ``"pairings"`` of every interior
edge, is still read: an entry without ``count`` is a run of one, and
given pairings are checked, before cabling, against the reversal.

Every entry object and honeycomb carries a ``"weight"``; the encoder
writes the picture's one weight on each, and a document of several
weights is cabled when read (:func:`sl3shear.laminations.cable`).

Every document is written by :func:`dump` in one layout: one line, with
sorted keys and no spaces, which ``json``'s C encoder writes.  ``python3
-m json.tool`` indents a document for reading.  :func:`load` refuses an
object that repeats a key.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import groupby

from .laminations import (
    ComponentSum,
    Component,
    CornerArc,
    Honeycomb,
    InvalidPicture,
    PinnedLamination,
    SpiralEnd,
    cable,
    honeycomb_leg_split,
)
from .seeds import matrix_entries
from .surface import IdealTriangulation


def frac_to_str(v):
    if type(v) is not Fraction:
        v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def index_to_str(i):
    if i[0] == "tri":
        return f"t:{i[1]}"
    return f"e:{i[1]}:{i[2]}"


def index_from_str(s):
    """The index that :func:`index_to_str` writes as ``s``; any other
    string raises ValueError."""
    kind, _, rest = s.partition(":")
    if kind == "t" and rest:
        return ("tri", rest)
    name, _, side = rest.rpartition(":")
    if kind == "e" and name and side in ("1", "2"):
        return ("edge", name, int(side))
    raise ValueError(f"not an index: {s!r}")


# -- triangulations ----------------------------------------------------------


def triangulation_to_obj(tri):
    triangles = [
        {"id": t, "sides": list(tri.tri_sides[t])} for t in tri.triangles
    ]
    edges = []
    for e in tri.edges:
        kind = "boundary" if tri.is_boundary(e) else "interior"
        edges.append({"id": e, "kind": kind, "orientation": list(tri.edge_endpoints(e))})
    vertices = [{"id": v, "class": c} for v, c in sorted(tri.vertices.items())]
    slot_l = {e: list(tri.slots(e)[0]) for e in tri.edges}
    return {
        "triangles": triangles,
        "edges": edges,
        "vertices": vertices,
        "left_slots": slot_l,
    }


def triangulation_from_obj(obj):
    """Decode a triangulation from its gluing table, ``triangles`` and the
    optional ``left_slots``.  The fields :func:`triangulation_to_obj`
    derives from the table, each edge's ``kind`` and ``orientation`` and
    each vertex's ``class``, may be left out; a given one that disagrees
    with the table, a left slot, edge or vertex the table lacks, or a
    table that breaks an invariant of :meth:`IdealTriangulation.validate`
    raises ValueError naming it."""
    tri_sides = {t["id"]: tuple(t["sides"]) for t in obj["triangles"]}
    slot_l = None
    if "left_slots" in obj:
        slot_l = {e: tuple(v) for e, v in obj["left_slots"].items()}
    tri = IdealTriangulation(tri_sides, slot_l=slot_l)
    diags = tri.validate()
    if diags:
        raise ValueError(f"invalid surface: {'; '.join(diags)}")
    for e in slot_l or ():
        if not tri.has_edge(e):
            raise ValueError(f"left_slots.{e}: the surface has no edge {e!r}")
    derived = triangulation_to_obj(tri)
    for key, what in (("edges", "edge"), ("vertices", "vertex")):
        table = {d["id"]: d for d in derived[key]}
        for given in obj.get(key, []):
            have = table.get(given["id"])
            if have is None:
                raise ValueError(f"{key}: the surface has no {what} {given['id']!r}")
            for field, v in have.items():
                if given.get(field, v) != v:
                    raise ValueError(
                        f"{what} {given['id']} declared {field} {given[field]!r} but the table gives {v!r}"
                    )
    return tri


# -- matrices ----------------------------------------------------------------


def exchange_matrix_to_obj(eps):
    indices = [index_to_str(i) for i in eps.indices]
    entries = []
    order = {i: n for n, i in enumerate(eps.indices)}
    for (i, j), v in sorted(matrix_entries(eps.columns).items(), key=lambda kv: (order[kv[0][0]], order[kv[0][1]])):
        if order[i] < order[j]:
            entries.append([index_to_str(i), index_to_str(j), frac_to_str(v)])
    return {
        "indices": indices,
        "frozen": sorted(index_to_str(i) for i in eps.frozen),
        "entries": entries,
    }


# -- tropical points ---------------------------------------------------------


def tropical_point_to_obj(p):
    return {
        "kind": p.kind,
        "restricted": p.restricted,
        "coords": {index_to_str(i): frac_to_str(v) for i, v in sorted(p.coords.items())},
    }


# -- pictures ----------------------------------------------------------------


def _entry_to_obj(entry, weight):
    if isinstance(entry, CornerArc):
        return {"type": "arc", "orient": entry.orient, "weight": weight}
    return {"type": "end", "sign": entry.sign, "outgoing": entry.outgoing, "weight": weight}


def _one_of(value, allowed, where):
    if value not in allowed:
        raise ValueError(f"{where} is {value!r}, not one of {', '.join(allowed)}")
    return value


def exact_rational(value, where):
    """An exact rational, written as a "p/q" string or an int; a bool or a
    float is refused, as is anything else.  ``where`` names the value in
    the ``ValueError``."""
    if type(value) in (str, int):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{where} is {value!r}, not an exact rational")


def _run_from_obj(obj, where, read_weight, kinds):
    """A run ``(entry, weight, count)``; the count is 1 when absent.
    ``kinds`` maps the kind fields ``(type, orient, sign, outgoing)`` of
    the runs already decoded in the document to their shared entry; a
    run of a new kind is checked field by field, and its entry added.
    Only a bool or an absent ``outgoing`` is looked up, since 1 == True,
    and a field that does not hash takes the checked path."""
    key = (obj["type"], obj.get("orient"), obj.get("sign"), obj.get("outgoing"))
    if key[3] is not None and key[3] is not True and key[3] is not False:
        key = None
    try:
        entry = kinds.get(key)
    except TypeError:
        key = entry = None
    if entry is not None:
        weight = read_weight(obj["weight"], f"{where}.weight")
    else:
        kind = _one_of(obj["type"], ("arc", "end"), f"{where}.type")
        weight = read_weight(obj["weight"], f"{where}.weight")
        if kind == "arc":
            entry = CornerArc(_one_of(obj["orient"], ("cw", "ccw"), f"{where}.orient"))
        else:
            sign = _one_of(obj["sign"], ("+", "-"), f"{where}.sign")
            if type(obj["outgoing"]) is not bool:
                raise ValueError(f"{where}.outgoing is {obj['outgoing']!r}, not true or false")
            entry = SpiralEnd("cw" if sign == "+" else "ccw", obj["outgoing"])
        if key is not None:
            kinds[key] = entry
    n = obj.get("count", 1)
    if type(n) is not int or n < 1:
        raise ValueError(f"{where}.count is {n!r}, not a positive int")
    return entry, weight, n


def _runs_to_obj(stack, weight):
    """A corner stack as runs: each maximal block of equal entries is one
    entry object, with ``"count"`` when the block has more than one."""
    runs = []
    for entry, block in groupby(stack):
        obj = _entry_to_obj(entry, weight)
        n = sum(1 for _ in block)
        if n > 1:
            obj["count"] = n
        runs.append(obj)
    return runs


def _reversal_pairs(pic, e):
    """The ``(lr, rl)`` pair lists of the strands leaving the left and the
    right side of ``e``: the implicit pairing ``[i, n - 1 - i]``."""
    counts = (pic.strand_count(slot, "out") for slot in pic.tri.slots(e))
    return [[[i, n - 1 - i] for i in range(n)] for n in counts]


def picture_to_obj(pic):
    weight = frac_to_str(pic.weight)
    triangles = {}
    for t in pic.tri.triangles:
        entry = {}
        hc = pic.honeycombs.get(t)
        if hc is not None:
            entry["honeycomb"] = {"orient": hc.orient, "height": hc.height, "weight": weight}
            legs = {pic.tri.edge_at((t, i)): list(ns) for i in range(3) if (ns := honeycomb_leg_split(pic, t, i))}
            if legs:
                entry["honeycomb"]["legs"] = legs
        corners = {str(c): _runs_to_obj(s, weight) for c in range(3) if (s := pic.corner_stack((t, c)))}
        if corners:
            entry["corners"] = corners
        triangles[t] = entry
    signs = [{"vertex": v, "sign": s, "weight": weight} for v, s, _ in pic.puncture_signs()]
    return {"triangles": triangles, "puncture_signs": signs}


def picture_from_obj(obj, tri):
    """Decode a picture whose corner stacks are lists of runs (an entry
    without ``count`` is a run of one, so a unary stack reads as it is).
    A field of the wrong type or outside the format raises ValueError
    naming it: a triangle the surface lacks, a corner other than 0, 1 or
    2, an unknown entry type, orientation or sign, a height that is not an
    int, a weight that is not an exact rational, an ``outgoing`` that is
    not a bool and a ``count`` that is not a positive int.  The runs are
    cabled at one weight (:func:`~sl3shear.laminations.cable` says what
    that refuses); another picture rule, such as a positive height, is
    left to the picture's checks.  Pairings are implicit; when
    ``"pairings"`` are given, each interior edge's pairs (an edge left
    out has none) must list the reversal of the strands as written, one
    per entry, in any order, or :class:`InvalidPicture` is raised."""
    honeycombs, corners, parsed, kinds = {}, {}, {}, {}

    def read_weight(value, where):
        # a document repeats its weight strings: each is parsed once
        if type(value) not in (str, int) or value not in parsed:
            parsed[value] = exact_rational(value, where)
        return parsed[value]

    for t, entry in obj.get("triangles", {}).items():
        where = f"triangles.{t}"
        if t not in tri.tri_sides:
            raise ValueError(f"{where}: the surface has no triangle {t!r}")
        hc = entry.get("honeycomb")
        if hc:
            if type(hc["height"]) is not int:
                raise ValueError(f"{where}.honeycomb.height is {hc['height']!r}, not an int")
            orient = _one_of(hc["orient"], ("sink", "source"), f"{where}.honeycomb.orient")
            weight = read_weight(hc.get("weight", "1"), f"{where}.honeycomb.weight")
            honeycombs[t] = (Honeycomb(orient, hc["height"]), weight)
        for c_s, runs in entry.get("corners", {}).items():
            _one_of(c_s, ("0", "1", "2"), f"{where}.corners key")
            corners[(t, int(c_s))] = [
                _run_from_obj(x, f"{where}.corners.{c_s}[{p}]", read_weight, kinds)
                for p, x in enumerate(runs)
            ]
    given = obj.get("pairings")
    if given:
        ones = {c: [(e, 1, n) for e, _, n in s] for c, s in corners.items()}
        drawn = cable(tri, {t: (h, 1) for t, (h, _) in honeycombs.items()}, ones)
        for e in tri.interior_edges:
            v = given.get(e, {"lr": [], "rl": []})
            for tag, pairs in zip(("lr", "rl"), _reversal_pairs(drawn, e)):
                if sorted(list(p) for p in v[tag]) != pairs:
                    raise InvalidPicture(f"pairing across {e} ({tag}) is not the reversal")
    return cable(tri, honeycombs, corners)


def components_from_obj(obj, tri):
    """Decode a component sum; a weight that is not an exact rational or
    a corner other than the int 0, 1 or 2 raises ValueError naming it."""
    comps = []
    for n, c in enumerate(obj):
        corner = c.get("corner", 0)
        if type(corner) is not int or corner not in (0, 1, 2):
            raise ValueError(f"components[{n}].corner is {corner!r}, not one of 0, 1, 2")
        weight = exact_rational(c["weight"], f"components[{n}].weight")
        comps.append(Component(c["kind"], c["carrier"], weight, corner))
    return ComponentSum(tri, comps)


def pinned_to_obj(pl):
    return {
        "picture": picture_to_obj(pl.underlying),
        "delta": {e: [frac_to_str(dp), frac_to_str(dm)] for e, (dp, dm) in sorted(pl.delta.items())},
    }


def pinned_from_obj(obj, tri):
    """Decode a pinned lamination; a ``"components"`` document is drawn as
    its picture.  A document with both ``"components"`` and ``"picture"``,
    a pinning on an edge that is not a boundary interval of ``tri``, or
    one that is not a list of two exact rationals raises ValueError
    naming it."""
    if "components" in obj and "picture" in obj:
        raise ValueError('a lamination is given as "components" or as "picture", not both')
    if "components" in obj:
        under = components_from_obj(obj["components"], tri).picture()
    else:
        under = picture_from_obj(obj.get("picture", {}), tri)
    delta = {}
    for e, v in obj.get("delta", {}).items():
        where = f"delta.{e}"
        if not (tri.has_edge(e) and tri.is_boundary(e)):
            raise ValueError(f"{where}: {e!r} is not a boundary interval of the surface")
        if type(v) is not list or len(v) != 2:
            raise ValueError(f"{where} is {v!r}, not a list of two")
        delta[e] = (exact_rational(v[0], f"{where}[0]"), exact_rational(v[1], f"{where}[1]"))
    return PinnedLamination(under, delta)


def dump(obj):
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _unique_keys(pairs):
    """A JSON object as a dict; an object that repeats a key is refused,
    where ``json`` would keep the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def load(fp):
    return json.load(fp, object_pairs_hook=_unique_keys)
