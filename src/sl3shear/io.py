"""JSON interchange for the public types.

Exact rationals are serialized as "p/q" strings (plain integers as "p")
so no precision is ever lost.  Triangulations serialize their gluing
table; seed indices use the string forms "t:<tri>" and "e:<edge>:<1|2>".
"""

from __future__ import annotations

import json
from fractions import Fraction

from .laminations import (
    ComponentSum,
    Component,
    CornerArc,
    GlobalPicture,
    Honeycomb,
    InvalidPicture,
    PinnedLamination,
    SpiralEnd,
)
from .seeds import ExchangeMatrix, RationalMatrix
from .surface import IdealTriangulation
from .tropical import TropicalPoint


def frac_to_str(v):
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def frac_from_str(s):
    return Fraction(s)


def index_to_str(i):
    if i[0] == "tri":
        return f"t:{i[1]}"
    return f"e:{i[1]}:{i[2]}"


def index_from_str(s):
    parts = s.split(":")
    if parts[0] == "t":
        return ("tri", parts[1])
    return ("edge", parts[1], int(parts[2]))


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
    tri_sides = {t["id"]: tuple(t["sides"]) for t in obj["triangles"]}
    slot_l = None
    if "left_slots" in obj:
        slot_l = {e: tuple(v) for e, v in obj["left_slots"].items()}
    tri = IdealTriangulation(tri_sides, slot_l=slot_l)
    wanted = {e["id"]: e["kind"] for e in obj.get("edges", [])}
    for e, kind in wanted.items():
        have = "boundary" if tri.is_boundary(e) else "interior"
        if have != kind:
            raise ValueError(f"edge {e} declared {kind} but glued as {have}")
    return tri


# -- matrices ----------------------------------------------------------------


def exchange_matrix_to_obj(eps):
    indices = [index_to_str(i) for i in eps.indices]
    entries = []
    order = {i: n for n, i in enumerate(eps.indices)}
    for (i, j), v in sorted(eps.matrix.entries.items(), key=lambda kv: (order[kv[0][0]], order[kv[0][1]])):
        if order[i] < order[j]:
            entries.append([index_to_str(i), index_to_str(j), frac_to_str(v)])
    return {
        "indices": indices,
        "frozen": sorted(index_to_str(i) for i in eps.frozen),
        "entries": entries,
    }


def exchange_matrix_from_obj(obj):
    indices = [index_from_str(s) for s in obj["indices"]]
    m = RationalMatrix(indices)
    for i_s, j_s, v_s in obj["entries"]:
        i, j = index_from_str(i_s), index_from_str(j_s)
        v = frac_from_str(v_s)
        m[i, j] = v
        m[j, i] = -v
    frozen = frozenset(index_from_str(s) for s in obj["frozen"])
    return ExchangeMatrix(m, frozen)


# -- tropical points ---------------------------------------------------------


def tropical_point_to_obj(p):
    return {
        "kind": p.kind,
        "restricted": p.restricted,
        "coords": {index_to_str(i): frac_to_str(v) for i, v in sorted(p.coords.items())},
    }


def tropical_point_from_obj(obj, tri=None):
    coords = {index_from_str(k): frac_from_str(v) for k, v in obj["coords"].items()}
    return TropicalPoint(obj["kind"], coords, tri=tri, restricted=obj.get("restricted", False))


# -- pictures ----------------------------------------------------------------


def _entry_to_obj(entry):
    if isinstance(entry, CornerArc):
        return {"type": "arc", "orient": entry.orient, "weight": frac_to_str(entry.weight)}
    return {
        "type": "end",
        "sign": entry.sign,
        "outgoing": entry.outgoing,
        "weight": frac_to_str(entry.weight),
    }


def _entry_from_obj(obj):
    if obj["type"] == "arc":
        return CornerArc(obj["orient"], frac_from_str(obj["weight"]))
    winding = "cw" if obj["sign"] == "+" else "ccw"
    return SpiralEnd(winding, obj["outgoing"], frac_from_str(obj["weight"]))


def picture_to_obj(pic):
    from .laminations import honeycomb_leg_split

    triangles = {}
    for t in pic.tri.triangles:
        entry = {}
        hc = pic.honeycombs.get(t)
        if hc is not None:
            entry["honeycomb"] = {
                "orient": hc.orient,
                "height": hc.height,
                "weight": frac_to_str(hc.weight),
            }
            legs = {}
            for i in range(3):
                split = honeycomb_leg_split(pic, t, i)
                if split is not None:
                    legs[pic.tri.edge_at((t, i))] = list(split)
            if legs:
                entry["honeycomb"]["legs"] = legs
        corners = {}
        for c in range(3):
            stack = pic.corner_stack((t, c))
            if stack:
                corners[str(c)] = [_entry_to_obj(x) for x in stack]
        if corners:
            entry["corners"] = corners
        triangles[t] = entry
    pairings = {
        e: {"lr": [list(p) for p in lr], "rl": [list(p) for p in rl]}
        for e, (lr, rl) in sorted(pic.pairings.items())
    }
    signs = [
        {"vertex": v, "sign": s, "weight": frac_to_str(w)}
        for v, s, w in pic.puncture_signs()
    ]
    return {"triangles": triangles, "pairings": pairings, "puncture_signs": signs}


def picture_from_obj(obj, tri):
    """Decode a picture.  Its pairings are implicit; when ``"pairings"``
    are given, each interior edge's pairs (an edge left out has none) must
    list the reversal, in any order, or :class:`InvalidPicture` is
    raised."""
    honeycombs = {}
    corners = {}
    for t, entry in obj.get("triangles", {}).items():
        hc = entry.get("honeycomb")
        if hc:
            honeycombs[t] = Honeycomb(
                hc["orient"], hc["height"], frac_from_str(hc.get("weight", "1"))
            )
        for c_s, stack in entry.get("corners", {}).items():
            corners[(t, int(c_s))] = [_entry_from_obj(x) for x in stack]
    pic = GlobalPicture(tri, honeycombs, corners)
    given = obj.get("pairings")
    if given:
        for e in tri.interior_edges:
            v = given.get(e, {"lr": [], "rl": []})
            for tag, pairs in zip(("lr", "rl"), pic.pairings[e]):
                if sorted(tuple(p) for p in v[tag]) != list(pairs):
                    raise InvalidPicture(f"pairing across {e} ({tag}) is not the reversal")
    return pic


def components_to_obj(s):
    return [
        {
            "kind": c.kind,
            "carrier": c.carrier,
            "weight": frac_to_str(c.weight),
            "corner": c.corner,
        }
        for c in s
    ]


def components_from_obj(obj, tri):
    comps = [
        Component(c["kind"], c["carrier"], frac_from_str(c["weight"]), c.get("corner", 0))
        for c in obj
    ]
    return ComponentSum(tri, comps)


def pinned_to_obj(pl):
    under = pl.underlying
    if isinstance(under, ComponentSum):
        body = {"components": components_to_obj(under)}
    else:
        body = {"picture": picture_to_obj(under)}
    body["delta"] = {
        e: [frac_to_str(dp), frac_to_str(dm)] for e, (dp, dm) in sorted(pl.delta.items())
    }
    return body


def pinned_from_obj(obj, tri):
    if "components" in obj:
        under = components_from_obj(obj["components"], tri)
    else:
        under = picture_from_obj(obj.get("picture", {}), tri)
    delta = {
        e: (frac_from_str(v[0]), frac_from_str(v[1]))
        for e, v in obj.get("delta", {}).items()
    }
    return PinnedLamination(under, delta)


def dump(obj, fp=None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if fp is None:
        return text
    fp.write(text)
    fp.write("\n")
    return None


def load(fp):
    return json.load(fp)
