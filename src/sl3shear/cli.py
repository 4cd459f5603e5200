"""Batch command-line interface.

Subcommands: surface, seed, shear, flip, dynkin, ensemble, reconstruct,
glue, diagram, verify.  JSON documents are written on one line, with
sorted keys and no spaces (sl3shear.io.dump); python3 -m json.tool
indents them for reading.  All randomized commands take --seed;
identical invocations produce byte-identical output in that layout.
Exit codes: 0 success, 1 domain error or failed verification, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as jio
from .laminations import shear_frozen
from .reconstruct import reconstruct, roundtrip_check
from .seeds import Sl3IndexSet, exchange_matrix, m_matrix, matrix_entries
from .surface import MarkedSurfaceSpec, Sl3Error, build
from .tropical import TropicalPoint, apply_flip, dynkin_cluster, ensemble
from .glue import glue_laminations
from .verify import SUITES, run_suites


class UsageError(Exception):
    """Malformed command-line input."""


_SPECS = {
    "polygon": (MarkedSurfaceSpec.polygon, 1),
    "punctured-polygon": (MarkedSurfaceSpec.punctured_polygon, 2),
    "annulus": (MarkedSurfaceSpec.annulus, 2),
    "once-punctured-torus": (MarkedSurfaceSpec.once_punctured_torus, 0),
}


def _parse_spec(text):
    kind, *parts = text.split(":")
    family, arity = _SPECS.get(kind, (None, -1))
    try:
        args = [int(p) for p in parts]
    except ValueError:
        args = None
    if family is None or args is None or len(args) != arity:
        raise UsageError(f"bad surface spec {text!r}")
    return family(*args)


def _load(path, decode):
    """Decode the JSON document at ``path``.  A file that cannot be read
    or a malformed document is a usage error; a domain error of the
    decoded data stays an :class:`Sl3Error`."""
    try:
        with open(path) as fp:
            return decode(jio.load(fp))
    except Sl3Error:
        raise
    except (OSError, ValueError, KeyError, TypeError, AttributeError, IndexError,
            ZeroDivisionError, RecursionError) as exc:
        raise UsageError(f"cannot read {path}: {type(exc).__name__}: {exc}") from None


def _load_surface(path):
    return _load(path, jio.triangulation_from_obj)


def _load_lamination(path, tri):
    return _load(path, lambda obj: jio.pinned_from_obj(obj, tri))


def _emit(obj, out):
    text = jio.dump(obj)
    if out:
        with open(out, "w") as fp:
            fp.write(text)
            fp.write("\n")
    else:
        print(text)


def _excerpt(text):
    """``text`` quoted for an error line: its repr, cut to 80 characters
    and followed by its length when longer."""
    quoted = repr(text)
    return quoted if len(quoted) <= 80 else f"{quoted[:80]}... ({len(text)} characters)"


def _coords_arg(tri, text):
    """Parse a coordinate map; accepts canonical index keys t:/e: and,
    when the surface has a unique interior edge, the aliases T_L, T_R,
    E1, E2 for its quadrilateral.  Two keys naming one index, the same
    key twice included, are refused."""
    try:
        # an object as its (key, value) pairs, so a repeated key shows
        raw = json.loads(text, object_pairs_hook=tuple)
    except (ValueError, RecursionError):
        raise UsageError(f"coordinates are not JSON: {_excerpt(text)}") from None
    if not isinstance(raw, tuple):
        raise UsageError(f"coordinates are not a JSON object: {_excerpt(text)}")
    known = set(Sl3IndexSet(tri).all)
    coords, keys = {}, {}
    aliases = {}
    if len(tri.interior_edges) == 1:
        e = tri.interior_edges[0]
        (tl, _), (tr, _) = tri.slots(e)
        aliases = {
            "T_L": ("tri", tl),
            "T_R": ("tri", tr),
            "E1": ("edge", e, 1),
            "E2": ("edge", e, 2),
        }
    for key, val in raw:
        idx = aliases.get(key)
        if idx is None:
            try:
                idx = jio.index_from_str(key)
            except ValueError:
                idx = None
        if idx not in known:
            raise UsageError(f"unknown coordinate {key!r}")
        if idx in keys:
            raise UsageError(f"coordinates {keys[idx]!r} and {key!r} name one index")
        keys[idx] = key
        try:
            coords[idx] = jio.exact_rational(val, f"coordinate {key!r}")
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return coords


def cmd_surface(args):
    tri = build(_parse_spec(args.spec))
    _emit(jio.triangulation_to_obj(tri), args.out)
    return 0


def cmd_seed(args):
    tri = _load_surface(args.surface)
    iset, eps = exchange_matrix(tri)
    obj = jio.exchange_matrix_to_obj(eps)
    obj["m_entries"] = [
        [jio.index_to_str(i), jio.index_to_str(j), jio.frac_to_str(v)]
        for (i, j), v in sorted(matrix_entries(m_matrix(tri)).items(), key=str)
        if jio.index_to_str(i) <= jio.index_to_str(j)
    ]
    _emit(obj, args.out)
    return 0


def cmd_shear(args):
    tri = _load_surface(args.surface)
    pl = _load_lamination(args.lamination, tri)
    x = shear_frozen(pl)
    _emit({"coords": jio.tropical_point_to_obj(x)["coords"]}, args.out)
    return 0


def cmd_flip(args):
    tri = _load_surface(args.surface)
    if args.edge not in tri.edges:
        raise UsageError(f"unknown edge {args.edge!r}")
    t2, corr = tri.flip_edge(args.edge)
    obj = {"surface": jio.triangulation_to_obj(t2)}
    obj["index_map"] = {jio.index_to_str(i): jio.index_to_str(corr[i]) for i in Sl3IndexSet(tri).all}
    if args.coords:
        coords = _coords_arg(tri, args.coords)
        p = TropicalPoint(args.kind, coords, tri=tri, restricted=False)
        q = apply_flip(p, tri, args.edge)
        obj["coords"] = jio.tropical_point_to_obj(q)["coords"]
    _emit(obj, args.out)
    return 0


def cmd_dynkin(args):
    tri = _load_surface(args.surface)
    coords = _coords_arg(tri, args.coords)
    p = TropicalPoint("X", coords, tri=tri)
    q = dynkin_cluster(p, tri)
    _emit({"coords": jio.tropical_point_to_obj(q)["coords"]}, args.out)
    return 0


def cmd_ensemble(args):
    tri = _load_surface(args.surface)
    coords = _coords_arg(tri, args.acoords)
    a = TropicalPoint("A", coords, tri=tri)
    x = ensemble(a, tri)
    _emit({"coords": jio.tropical_point_to_obj(x)["coords"]}, args.out)
    return 0


def cmd_reconstruct(args):
    tri = _load_surface(args.surface)
    coords = _coords_arg(tri, args.coords)
    iset = Sl3IndexSet(tri)
    for i in coords:
        if i in iset.frozen:
            raise UsageError(f"frozen coordinate {jio.index_to_str(i)}: reconstruct takes unfrozen ones")
    x = TropicalPoint("X", coords, tri=tri, restricted=True)
    if args.check:
        rep = roundtrip_check(x, tri)
        obj = jio.picture_to_obj(rep["picture"])
        obj["roundtrip"] = {"ok": rep["ok"], "stable": rep["stable"]}
    else:
        obj = jio.picture_to_obj(reconstruct(x, tri))
    _emit(obj, args.out)
    return 0


def cmd_glue(args):
    tri = _load_surface(args.surface)
    pl = _load_lamination(args.lamination, tri)
    for e in (args.left, args.right):
        if e not in tri.edges:
            raise UsageError(f"unknown edge {e!r}")
    glued = glue_laminations(pl, args.left, args.right)
    obj = {
        "surface": jio.triangulation_to_obj(glued.tri),
        "lamination": jio.pinned_to_obj(glued),
        "coords": jio.tropical_point_to_obj(shear_frozen(glued))["coords"],
    }
    _emit(obj, args.out)
    return 0


def emit_diagram(pic):
    """Deterministic textual rendering of a picture."""
    tri, weight = pic.tri, jio.frac_to_str(pic.weight)
    lines = [f"picture on {len(tri.triangles)} triangles / {len(tri.edges)} edges"]
    for t in tri.triangles:
        lines.append(f"triangle {t}: sides {', '.join(tri.tri_sides[t])}")
        hc = pic.honeycombs.get(t)
        if hc is not None:
            w = "" if pic.weight == 1 else f" (weight {weight})"
            lines.append(f"  {hc.orient} honeycomb h={hc.height}{w}")
        for c in range(3):
            stack = pic.corner_stack((t, c))
            if not stack:
                continue
            parts = []
            for entry in stack:
                if hasattr(entry, "orient"):
                    parts.append(f"{entry.orient} arc w={weight}")
                else:
                    parts.append(f"spiral end {entry.sign}")
            lines.append(f"  corner {c} (at {tri.corner_vertex(t, c)}): " + "; ".join(parts))
    for e in tri.interior_edges:
        lr, rl = (pic.strand_count(slot, "out") for slot in tri.slots(e))
        lines.append(f"edge {e}: {lr} left-to-right and {rl} right-to-left strands")
    return "\n".join(lines) + "\n"


def cmd_diagram(args):
    tri = _load_surface(args.surface)
    text = emit_diagram(_load_lamination(args.lamination, tri).underlying)
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args):
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, not {args.trials}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, args.trials, args.seed)
    ok = True
    for r in results:
        print(r.line())
        ok = ok and r.ok
    print("verification:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def make_parser():
    ap = argparse.ArgumentParser(prog="sl3shear", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surface", help="build a canonical triangulation")
    p.add_argument("--spec", required=True, help="polygon:K, punctured-polygon:K:P, annulus:M1:M2, once-punctured-torus")
    p.add_argument("--out")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("seed", help="exchange matrix and m-matrix of a surface")
    p.add_argument("--surface", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_seed)

    p = sub.add_parser("shear", help="shear coordinates of a pinned lamination")
    p.add_argument("--surface", required=True)
    p.add_argument("--lamination", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_shear)

    p = sub.add_parser("flip", help="flip an interior edge, optionally transporting coordinates")
    p.add_argument("--surface", required=True)
    p.add_argument("--edge", required=True)
    p.add_argument("--coords")
    p.add_argument("--kind", choices=["X", "A"], default="X")
    p.add_argument("--out")
    p.set_defaults(func=cmd_flip)

    p = sub.add_parser("dynkin", help="apply the Dynkin involution to X-coordinates")
    p.add_argument("--surface", required=True)
    p.add_argument("--coords", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dynkin)

    p = sub.add_parser("ensemble", help="apply the extended ensemble map to A-coordinates")
    p.add_argument("--surface", required=True)
    p.add_argument("--acoords", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("reconstruct", help="build the picture of an unfrozen coordinate vector")
    p.add_argument("--surface", required=True)
    p.add_argument("--coords", required=True)
    p.add_argument("--check", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("glue", help="glue a pinned lamination along two boundary intervals")
    p.add_argument("--surface", required=True)
    p.add_argument("--lamination", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("diagram", help="textual rendering of a picture")
    p.add_argument("--surface", required=True)
    p.add_argument("--lamination", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("verify", help="run the randomized property suites")
    p.add_argument("--suite", default="all", choices=["all"] + sorted(SUITES))
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None):
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Sl3Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
