import copy
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sl3shear import io as jio
from sl3shear.cli import main
from sl3shear.laminations import (
    GlobalPicture,
    Honeycomb,
    InvalidPicture,
    PinnedLamination,
    shear_frozen,
    shear_unfrozen,
)
from sl3shear.reconstruct import reconstruct
from sl3shear.seeds import Sl3IndexSet
from sl3shear.surface import FlipCreatesSelfFolded, MarkedSurfaceSpec, build
from sl3shear.tropical import TropicalPoint
from sl3shear.verify import run_suites

F = Fraction

# the package source for child interpreters, which do not see pytest's
# pythonpath setting
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


def tropical_point_from_obj(obj, tri=None):
    """The inverse of :func:`sl3shear.io.tropical_point_to_obj`, with
    every value read exactly."""
    coords = {
        jio.index_from_str(k): jio.exact_rational(v, f"coords[{k!r}]") for k, v in obj["coords"].items()
    }
    return TropicalPoint(obj["kind"], coords, tri=tri, restricted=obj.get("restricted", False))


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_surface_command(tmp_path, capsys):
    out = tmp_path / "p4.json"
    code, _ = run_cli(["surface", "--spec", "polygon:4", "--out", str(out)], capsys)
    assert code == 0
    obj = json.loads(out.read_text())
    assert len(obj["triangles"]) == 2
    tri = jio.triangulation_from_obj(obj)
    assert tri.validate() == []


def _surface_misfits(p4):
    """Surface documents whose derived fields disagree with the gluing
    table of the polygon(4) document ``p4``, by error-table name."""
    return {
        "{left_slot_zz}": {**p4, "left_slots": {**p4["left_slots"], "zz": ["T1", 0]}},
        "{b0_reversed}": {**p4, "edges": [
            {**e, "orientation": e["orientation"][::-1]} if e["id"] == "b0" else e for e in p4["edges"]
        ]},
        "{v0_puncture}": {**p4, "vertices": [
            {**v, "class": "puncture"} if v["id"] == "v0" else v for v in p4["vertices"]
        ]},
        "{edge_zz}": {**p4, "edges": p4["edges"] + [{"id": "zz"}]},
        "{vertex_v9}": {**p4, "vertices": p4["vertices"] + [{"id": "v9"}]},
    }


@pytest.mark.parametrize(
    "name,match",
    [
        ("{left_slot_zz}", "left_slots.zz: the surface has no edge"),
        ("{b0_reversed}", "edge b0 declared orientation"),
        ("{v0_puncture}", "vertex v0 declared class 'puncture'"),
        ("{edge_zz}", "edges: the surface has no edge 'zz'"),
        ("{vertex_v9}", "vertices: the surface has no vertex 'v9'"),
    ],
)
def test_surface_fields_must_match_the_table(name, match, polygon4):
    doc = _surface_misfits(jio.triangulation_to_obj(polygon4))[name]
    with pytest.raises(ValueError, match=re.escape(match)):
        jio.triangulation_from_obj(doc)


def test_surface_derived_fields_may_be_left_out(polygon4):
    obj = jio.triangulation_to_obj(polygon4)
    tri = jio.triangulation_from_obj({"triangles": obj["triangles"], "left_slots": obj["left_slots"]})
    assert jio.triangulation_to_obj(tri) == obj


@pytest.mark.parametrize(
    "spec",
    [
        MarkedSurfaceSpec.once_punctured_torus(),
        MarkedSurfaceSpec.annulus(1, 1),
        MarkedSurfaceSpec.annulus(2, 3),
        MarkedSurfaceSpec.punctured_polygon(4, 2),
    ],
)
def test_surface_documents_along_flip_walks_decode(spec):
    """No derived field the encoder writes is refused: along a flip walk,
    each document decodes to a triangulation that encodes to it again."""
    rng = random.Random(5)
    tri = build(spec)
    for _ in range(40):
        obj = jio.triangulation_to_obj(tri)
        assert jio.triangulation_to_obj(jio.triangulation_from_obj(obj)) == obj
        try:
            tri = tri.flip_edge(rng.choice(tri.interior_edges))[0]
        except FlipCreatesSelfFolded:
            pass


def test_lamination_is_components_or_picture(polygon4):
    doc = {"components": [_alpha()], "picture": {}}
    with pytest.raises(ValueError, match='"components" or as "picture"'):
        jio.pinned_from_obj(doc, polygon4)


def test_surface_roundtrip_all_fixtures(tmp_path):
    for spec in ("polygon:5", "punctured-polygon:3:1", "annulus:2:1", "once-punctured-torus"):
        code = main(["surface", "--spec", spec, "--out", str(tmp_path / "s.json")])
        assert code == 0
        obj = json.loads((tmp_path / "s.json").read_text())
        tri = jio.triangulation_from_obj(obj)
        assert jio.triangulation_to_obj(tri) == obj


def test_reconstruct_command_paper_tuple(tmp_path, capsys):
    surf = tmp_path / "p4.json"
    main(["surface", "--spec", "polygon:4", "--out", str(surf)])
    code, out = run_cli(
        [
            "reconstruct",
            "--surface", str(surf),
            "--coords", '{"T_L":"2","T_R":"3","E1":"-2","E2":"1"}',
            "--check",
        ],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["roundtrip"] == {"ok": True, "stable": True}
    heights = sorted(
        t["honeycomb"]["height"] for t in obj["triangles"].values() if "honeycomb" in t
    )
    assert heights == [2, 3]


def test_shear_command(tmp_path, capsys):
    surf = tmp_path / "tri.json"
    main(["surface", "--spec", "polygon:3", "--out", str(surf)])
    tri = jio.triangulation_from_obj(json.loads(surf.read_text()))
    pic = GlobalPicture(tri, {tri.triangles[0]: Honeycomb("sink", 1)})
    lam = tmp_path / "lam.json"
    lam.write_text(jio.dump(jio.pinned_to_obj(PinnedLamination(pic, {}))))
    code, out = run_cli(
        ["shear", "--surface", str(surf), "--lamination", str(lam)], capsys
    )
    assert code == 0
    coords = json.loads(out)["coords"]
    assert coords["t:T1"] == "1"
    assert sum(1 for v in coords.values() if v == "-1") == 3


def test_glue_command(tmp_path, capsys):
    surf = tmp_path / "two.json"
    tri = build(
        MarkedSurfaceSpec.table([("T0", ("a0", "a1", "a2")), ("T1", ("b0", "b1", "b2"))])
    )
    surf.write_text(jio.dump(jio.triangulation_to_obj(tri)))
    lam = tmp_path / "lam.json"
    pl = PinnedLamination(GlobalPicture(tri, {"T0": Honeycomb("sink", 1)}), {})
    lam.write_text(jio.dump(jio.pinned_to_obj(pl)))
    code, out = run_cli(
        ["glue", "--surface", str(surf), "--lamination", str(lam), "--left", "a2", "--right", "b0"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["coords"]["t:T0"] == "1"


def test_flip_and_dynkin_commands(tmp_path, capsys):
    surf = tmp_path / "p4.json"
    main(["surface", "--spec", "polygon:4", "--out", str(surf)])
    code, out = run_cli(
        ["flip", "--surface", str(surf), "--edge", "d2", "--coords", '{"E1":"1"}'],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert "coords" in obj and "index_map" in obj
    code, out = run_cli(
        ["dynkin", "--surface", str(surf), "--coords", '{"T_L":"1"}'], capsys
    )
    assert code == 0


@pytest.mark.parametrize("value", ['"1/2"', "3", '"-3"'])
def test_exact_coordinates_accepted(value, tmp_path, capsys):
    """A "p/q" string and a JSON int are read exactly, as the picture
    decoder reads weights."""
    surf = tmp_path / "p4.json"
    main(["surface", "--spec", "polygon:4", "--out", str(surf)])
    capsys.readouterr()
    code, out = run_cli(["dynkin", "--surface", str(surf), "--coords", f'{{"T_L":{value}}}'], capsys)
    assert code == 0
    want = F(json.loads(value))
    assert {F(v) for v in json.loads(out)["coords"].values()} == {want, -want}


@pytest.mark.parametrize("value", [0.1, True, 1.5, None, [1]])
def test_tropical_point_decoder_refuses_inexact(polygon4, value):
    doc = {"kind": "X", "coords": {"t:T1": value}}
    with pytest.raises(ValueError, match=re.escape("coords['t:T1']")):
        tropical_point_from_obj(doc, tri=polygon4)


def test_error_exit_code(tmp_path, capsys):
    surf = tmp_path / "p4.json"
    main(["surface", "--spec", "polygon:4", "--out", str(surf)])
    code = main(["flip", "--surface", str(surf), "--edge", "b0"])
    assert code == 1


def _pic(t, **fields):
    return {"picture": {"triangles": {t: fields}}}


def _arc(**fields):
    return {"type": "arc", "orient": "cw", "weight": "1", **fields}


def _end(**fields):
    return {"type": "end", "sign": "+", "outgoing": True, "weight": "1", **fields}


# run counts that are not positive ints, by the name of their error-table case
_BAD_COUNTS = {"0": 0, "neg": -1, "true": True, "float": 1.5, "str": "2"}


def _alpha(**fields):
    return {"kind": "alpha", "carrier": "T1", "weight": "1", "corner": 0, **fields}


@pytest.mark.parametrize(
    "argv,code",
    [
        # malformed input: usage errors
        (["surface", "--spec", "polygon:x"], 2),
        (["surface", "--spec", "polygon"], 2),
        (["surface", "--spec", "klein-bottle:3"], 2),
        (["flip", "--surface", "{surf}", "--edge", "zz"], 2),
        (["dynkin", "--surface", "{surf}", "--coords", '{"Q":"1"}'], 2),
        (["dynkin", "--surface", "{surf}", "--coords", '{"T_L":"1/0"}'], 2),
        (["dynkin", "--surface", "{surf}", "--coords", '{"T_L":"one"}'], 2),
        (["dynkin", "--surface", "{surf}", "--coords", '{"e:zz:1":"2"}'], 2),
        (["dynkin", "--surface", "{surf}", "--coords", "[1, 2]"], 2),
        (["ensemble", "--surface", "{surf}", "--acoords", "{"], 2),
        (["reconstruct", "--surface", "{surf}", "--coords", '{"e:b0:1":"3"}'], 2),
        # domain errors
        (["surface", "--spec", "polygon:2"], 1),
        (["flip", "--surface", "{surf}", "--edge", "b0"], 1),
        (["shear", "--surface", "{surf}", "--lamination", "{bad_carrier}"], 1),
        # malformed or missing documents: usage errors
        (["shear", "--surface", "{surf}", "--lamination", "{no_lr}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{bare_arc}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{list_lam}"], 2),
        (["shear", "--surface", "{bad_surf}", "--lamination", "{no_lr}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{missing}"], 2),
        # picture fields of the wrong type or outside the format: usage errors
        (["shear", "--surface", "{surf}", "--lamination", "{no_such_triangle}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{arc_orient_up}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{corner_7}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{entry_blob}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{height_str}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{sign_star}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{outgoing_int}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{honeycomb_up}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{weight_float}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{delta_div0}"], 2),
        # well-typed pictures that break a picture rule: domain errors
        (["shear", "--surface", "{surf}", "--lamination", "{height_0}"], 1),
        (["shear", "--surface", "{surf}", "--lamination", "{weight_neg}"], 1),
        (["shear", "--surface", "{surf}", "--lamination", "{honeycomb_weight_neg}"], 1),
        # pinnings and components of the wrong type or outside the format
        (["shear", "--surface", "{surf}", "--lamination", "{delta_unknown_edge}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{delta_interior_edge}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{delta_str}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{delta_three}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{delta_float}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{component_weight_float}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{component_corner_str}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{component_corner_3}"], 2),
        # gluing at an interior edge is a domain error, at an unknown name
        # a usage error
        (["glue", "--surface", "{surf}", "--lamination", "{empty}", "--left", "d2", "--right", "b0"], 1),
        (["glue", "--surface", "{surf}", "--lamination", "{empty}", "--left", "zz", "--right", "b0"], 2),
        # a surface document that breaks a triangulation invariant
        (["seed", "--surface", "{self_folded}"], 2),
        (["reconstruct", "--surface", "{self_folded}", "--coords", '{"e:a:1":"1"}'], 2),
        # JSON floats and bools are not exact rationals
        (["dynkin", "--surface", "{surf}", "--coords", '{"T_L":0.1}'], 2),
        (["dynkin", "--surface", "{surf}", "--coords", '{"T_L":true}'], 2),
        (["flip", "--surface", "{surf}", "--edge", "d2", "--coords", '{"E1":1.0}'], 2),
        # a run count that is not a positive int
        (["shear", "--surface", "{surf}", "--lamination", "{count_0}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{count_neg}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{count_true}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{count_float}"], 2),
        (["shear", "--surface", "{surf}", "--lamination", "{count_str}"], 2),
        # component sums that cannot be drawn: domain errors
        (["shear", "--surface", "{surf}", "--lamination", "{component_weight_0}"], 1),
        (["shear", "--surface", "{surf}", "--lamination", "{component_weight_neg}"], 1),
        (["shear", "--surface", "{surf}", "--lamination", "{sink_and_source}"], 1),
        (["diagram", "--surface", "{surf}", "--lamination", "{sink_and_source}"], 1),
        # coordinate keys other than the ones index_to_str writes, and two
        # keys naming one index
        (["dynkin", "--surface", "{surf}", "--coords", '{"e:d2:1:junk":1}'], 2),
        (["dynkin", "--surface", "{surf}", "--coords", '{"e:d2:01":1}'], 2),
        (["dynkin", "--surface", "{surf}", "--coords", '{"e:d2: 1":1}'], 2),
        (["dynkin", "--surface", "{surf}", "--coords", '{"t:T1:zz":2}'], 2),
        (["dynkin", "--surface", "{surf}", "--coords", '{"e:d2:1":1,"e:d2:+1":2}'], 2),
        (["dynkin", "--surface", "{surf}", "--coords", '{"E1":1,"e:d2:1":5}'], 2),
        (["dynkin", "--surface", "{surf}", "--coords", '{"E1":1,"E1":2}'], 2),
        # a trial count below 1
        (["verify", "--suite", "flip", "--trials", "0"], 2),
        (["verify", "--suite", "flip", "--trials", "-3"], 2),
        # a document that repeats a key, which json would read as its last
        # value
        (["shear", "--surface", "{surf}", "--lamination", "{delta_repeated}"], 2),
        # a lamination given both as components and as a picture, and
        # surface fields that disagree with the gluing table
        (["shear", "--surface", "{surf}", "--lamination", "{components_and_picture}"], 2),
        (["seed", "--surface", "{left_slot_zz}"], 2),
        (["seed", "--surface", "{b0_reversed}"], 2),
        (["seed", "--surface", "{v0_puncture}"], 2),
        # a declared edge or vertex the table lacks
        (["seed", "--surface", "{edge_zz}"], 2),
        (["seed", "--surface", "{vertex_v9}"], 2),
        # specs of a family outside the conditions its surfaces meet
        (["surface", "--spec", "polygon:1"], 1),
        (["surface", "--spec", "punctured-polygon:3:0"], 1),
        (["surface", "--spec", "punctured-polygon:0:2"], 1),
        (["surface", "--spec", "annulus:0:1"], 1),
    ],
)
def test_cli_error_table(argv, code, tmp_path, capsys):
    """Every error exits with its documented code and one stderr line."""
    surf = tmp_path / "p4.json"
    main(["surface", "--spec", "polygon:4", "--out", str(surf)])
    bad_carrier = tmp_path / "bad.json"
    bad_carrier.write_text(
        json.dumps({"components": [{"kind": "alpha", "carrier": "nope", "weight": "1"}]})
    )
    p4 = json.loads(surf.read_text())
    malformed = {
        "{no_lr}": {"picture": {"pairings": {"d2": {"rl": []}}}},
        "{bare_arc}": {"picture": {"triangles": {"T1": {"corners": {"0": [{"type": "arc"}]}}}}},
        "{list_lam}": [1, 2],
        "{bad_surf}": {"triangles": [{"id": "T1"}]},
        "{no_such_triangle}": _pic("T9", honeycomb={"orient": "sink", "height": 2}),
        "{arc_orient_up}": _pic("T1", corners={"0": [_arc(orient="up")]}),
        "{corner_7}": _pic("T1", corners={"7": [_arc()]}),
        "{entry_blob}": _pic("T1", corners={"0": [_end(type="blob")]}),
        "{height_str}": _pic("T1", honeycomb={"orient": "sink", "height": "2"}),
        "{sign_star}": _pic("T1", corners={"0": [_end(sign="*")]}),
        "{outgoing_int}": _pic("T1", corners={"0": [_end(outgoing=1)]}),
        "{honeycomb_up}": _pic("T1", honeycomb={"orient": "up", "height": 2}),
        "{weight_float}": _pic("T1", corners={"0": [_arc(weight=0.5)]}),
        "{delta_div0}": {"picture": {}, "delta": {"b0": ["1/0", "0"]}},
        "{height_0}": _pic("T1", honeycomb={"orient": "sink", "height": 0}),
        "{weight_neg}": _pic("T1", corners={"0": [_arc(weight="-1")]}),
        # balanced across the diagonal, so only the weights are wrong
        "{honeycomb_weight_neg}": {"picture": {"triangles": {
            "T1": {"honeycomb": {"orient": "sink", "height": 1, "weight": "-1"}},
            "T2": {"honeycomb": {"orient": "source", "height": 1, "weight": "-1"}},
        }}},
        "{delta_unknown_edge}": {"picture": {}, "delta": {"zz": ["1", "0"]}},
        "{delta_interior_edge}": {"picture": {}, "delta": {"d2": ["5", "5"]}},
        "{delta_str}": {"picture": {}, "delta": {"b0": "12"}},
        "{delta_three}": {"picture": {}, "delta": {"b0": ["1", "0", "0"]}},
        "{delta_float}": {"picture": {}, "delta": {"b0": [1.5, "0"]}},
        "{component_weight_float}": {"components": [_alpha(weight=0.5)]},
        "{component_corner_str}": {"components": [_alpha(corner="1")]},
        "{component_corner_3}": {"components": [_alpha(corner=3)]},
        "{component_weight_0}": {"components": [_alpha(weight="0")]},
        "{component_weight_neg}": {"components": [_alpha(weight="-1/2")]},
        "{sink_and_source}": {"components": [
            {"kind": "tau+L", "carrier": "d2", "weight": "1"},
            {"kind": "tau-L", "carrier": "d2", "weight": "1"},
        ]},
        "{empty}": {"picture": {}},
        **{f"{{count_{name}}}": _pic("T1", corners={"0": [_arc(count=n)]})
           for name, n in _BAD_COUNTS.items()},
        "{self_folded}": {"triangles": [
            {"id": "T0", "sides": ["a", "a", "b"]}, {"id": "T1", "sides": ["b", "c", "d"]},
        ]},
        # written as it stands: a dict cannot repeat a key
        "{delta_repeated}": '{"picture": {}, "delta": {"b0": ["1", "0"], "b0": ["5", "0"]}}',
        "{components_and_picture}": {
            "components": [_alpha()], **_pic("T1", honeycomb={"orient": "sink", "height": 3}),
        },
        **_surface_misfits(p4),
    }
    for name, doc in malformed.items():
        (tmp_path / f"{name[1:-1]}.json").write_text(doc if isinstance(doc, str) else json.dumps(doc))
    capsys.readouterr()
    paths = {"{surf}": str(surf), "{bad_carrier}": str(bad_carrier)}
    paths.update({name: str(tmp_path / f"{name[1:-1]}.json") for name in malformed})
    paths["{missing}"] = str(tmp_path / "missing.json")
    argv = [paths.get(a, a) for a in argv]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_determinism_same_argv_same_bytes(tmp_path):
    cmd = [
        sys.executable, "-m", "sl3shear.cli",
        "verify", "--suite", "flip", "--trials", "5", "--seed", "3",
    ]
    a = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV)
    b = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_module_entry_point_matches_cli_module():
    args = ["surface", "--spec", "polygon:4"]
    run = {"capture_output": True, "env": CHILD_ENV}
    pkg = subprocess.run([sys.executable, "-m", "sl3shear", *args], **run)
    cli = subprocess.run([sys.executable, "-m", "sl3shear.cli", *args], **run)
    assert pkg.returncode == 0
    assert pkg.stdout and pkg.stdout == cli.stdout


def test_verify_exit_codes(capsys):
    assert main(["verify", "--suite", "elementary", "--trials", "1", "--seed", "0"]) == 0


@pytest.mark.parametrize("trials", [0, -3])
def test_run_suites_refuses_trials_below_one(trials):
    """The library refuses a trial count below 1, as the CLI does,
    rather than running one trial per suite and reporting PASS."""
    with pytest.raises(ValueError, match="at least 1"):
        run_suites(["flip", "amalgamation"], trials, 7)


def test_diagram_command(tmp_path, capsys):
    surf = tmp_path / "p4.json"
    main(["surface", "--spec", "polygon:4", "--out", str(surf)])
    tri = jio.triangulation_from_obj(json.loads(surf.read_text()))

    e = tri.interior_edges[0]
    (tl, _), (tr, _) = tri.slots(e)
    x = TropicalPoint(
        "X",
        {("tri", tl): F(2), ("tri", tr): F(3), ("edge", e, 1): F(-2), ("edge", e, 2): F(1)},
        tri=tri,
        restricted=True,
    )
    pic = reconstruct(x, tri)
    lam = tmp_path / "lam.json"
    lam.write_text(jio.dump(jio.pinned_to_obj(PinnedLamination(pic, {}))))
    out = tmp_path / "diagram.txt"
    code = main(
        ["diagram", "--surface", str(surf), "--lamination", str(lam), "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert "sink honeycomb h=2" in text
    assert "sink honeycomb h=3" in text
    # empty picture: header only
    lam2 = tmp_path / "empty.json"
    lam2.write_text(jio.dump(jio.pinned_to_obj(PinnedLamination(GlobalPicture(tri), {}))))
    code = main(
        ["diagram", "--surface", str(surf), "--lamination", str(lam2), "--out", str(out)]
    )
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if l.strip()]
    assert lines[0].startswith("picture on")


def test_diagram_shows_each_spiral_end(torus, tmp_path, capsys):
    """A reconstructed once-punctured torus spirals into its puncture:
    the diagram shows one ``spiral end`` per spiral tail, with the tail's
    sign."""
    surf, lam = tmp_path / "torus.json", tmp_path / "lam.json"
    main(["surface", "--spec", "once-punctured-torus", "--out", str(surf)])
    iset = Sl3IndexSet(torus)
    coords = dict(zip(iset.unfrozen, map(F, (1, -2, 0, 3, 1, 0, 2, -1))))
    x = TropicalPoint("X", coords, tri=torus, restricted=True)
    pic = reconstruct(x, torus)
    signs = sorted(sign for _, sign, _ in pic.puncture_signs())
    assert signs
    lam.write_text(jio.dump(jio.pinned_to_obj(PinnedLamination(pic, {}))))
    code, out = run_cli(["diagram", "--surface", str(surf), "--lamination", str(lam)], capsys)
    assert code == 0
    assert sorted(re.findall(r"spiral end ([+-])", out)) == signs


# alpha+ of weight 2/3 across d2 of polygon(4), pinned at b1
_ALPHA_PLUS_DOC = {
    "components": [{"kind": "alpha+", "carrier": "d2", "weight": "2/3"}],
    "delta": {"b1": ["1/2", "-1"]},
}


def test_diagram_draws_component_documents(tmp_path, capsys):
    surf = tmp_path / "p4.json"
    main(["surface", "--spec", "polygon:4", "--out", str(surf)])
    lam = tmp_path / "lam.json"
    lam.write_text(json.dumps(_ALPHA_PLUS_DOC))
    code, out = run_cli(["diagram", "--surface", str(surf), "--lamination", str(lam)], capsys)
    assert code == 0
    assert out.splitlines()[1:] == [
        "triangle T1: sides b0, b1, d2",
        "  corner 2 (at v2): cw arc w=1/3; cw arc w=1/3",
        "triangle T2: sides d2, b2, b3",
        "  corner 0 (at v1): ccw arc w=1/3; ccw arc w=1/3",
        "edge d2: 2 left-to-right and 0 right-to-left strands",
    ]


def test_glue_draws_component_documents(tmp_path, capsys):
    from sl3shear.laminations import shear_frozen
    from sl3shear.verify import _glued_expectation

    surf = tmp_path / "p4.json"
    main(["surface", "--spec", "polygon:4", "--out", str(surf)])
    tri = jio.triangulation_from_obj(json.loads(surf.read_text()))
    lam = tmp_path / "lam.json"
    lam.write_text(json.dumps(_ALPHA_PLUS_DOC))
    code, out = run_cli(
        ["glue", "--surface", str(surf), "--lamination", str(lam), "--left", "b0", "--right", "b2"],
        capsys,
    )
    assert code == 0
    want = _glued_expectation(shear_frozen(jio.pinned_from_obj(_ALPHA_PLUS_DOC, tri)), "b0", "b2")
    got = json.loads(out)["coords"]
    assert want and got == {jio.index_to_str(i): jio.frac_to_str(v) for i, v in want.items()}


def test_picture_json_roundtrip(polygon4, torus):
    import random


    rng = random.Random(21)
    for tri in (polygon4, torus):
        iset = Sl3IndexSet(tri)
        for _ in range(10):
            coords = {i: F(rng.randint(-3, 3)) for i in iset.unfrozen}
            pic = reconstruct(TropicalPoint("X", coords, tri=tri, restricted=True), tri)
            obj = jio.picture_to_obj(pic)
            back = jio.picture_from_obj(obj, tri)
            assert back.honeycombs == pic.honeycombs
            assert back.corners == pic.corners
            assert back.strand_lists == pic.strand_lists


@pytest.mark.parametrize("count", list(_BAD_COUNTS.values()), ids=list(_BAD_COUNTS))
def test_run_count_must_be_a_positive_int(polygon4, count):
    doc = _pic("T1", corners={"0": [_arc(), _arc(orient="ccw", count=count)]})
    with pytest.raises(ValueError, match=re.escape("triangles.T1.corners.0[1].count")):
        jio.picture_from_obj(doc["picture"], polygon4)


def test_mixed_stack_is_written_as_runs(torus):
    """Equal consecutive entries become one run; an arc and a spiral end,
    two orientations or two ``outgoing`` values do not merge.  Every run
    carries the picture's weight.  The runs decode back to the same
    stack, the runs of each of the five kinds one shared entry."""
    from sl3shear.laminations import CornerArc, SpiralEnd

    t = torus.triangles[0]
    stack = [
        CornerArc("cw"), CornerArc("cw"), CornerArc("ccw"),
        SpiralEnd("cw", True), SpiralEnd("cw", True), SpiralEnd("cw", False),
        SpiralEnd("ccw", False), SpiralEnd("ccw", False),
        CornerArc("ccw"), CornerArc("ccw"), CornerArc("ccw"),
    ]
    pic = GlobalPicture(torus, {}, {(t, 0): stack}, F(1, 2))
    obj = jio.picture_to_obj(pic)
    half = {"weight": "1/2"}
    assert obj["triangles"][t]["corners"]["0"] == [
        _arc(count=2, **half), _arc(orient="ccw", **half),
        _end(count=2, **half), _end(outgoing=False, **half),
        _end(sign="-", outgoing=False, count=2, **half),
        _arc(orient="ccw", count=3, **half),
    ]
    back = jio.picture_from_obj(json.loads(jio.dump(obj)), torus)
    assert (back.corners, back.weight) == (pic.corners, pic.weight)
    assert len({id(x) for x in back.corner_stack((t, 0))}) == 5


@pytest.mark.parametrize("bad, message", [
    (_end(outgoing=1), r"corners\.0\[1\]\.outgoing is 1, not true or false"),
    (_end(outgoing=1.0), r"corners\.0\[1\]\.outgoing is 1\.0, not true or false"),
    (_arc(orient=["cw"]), r"corners\.0\[1\]\.orient is \['cw'\], not one of cw, ccw"),
    (_end(weight=True), r"corners\.0\[1\]\.weight is True, not an exact rational"),
], ids=["outgoing-int", "outgoing-float", "orient-list", "weight-bool"])
def test_decoded_kinds_refuse_what_the_checked_path_refuses(bad, message, torus):
    """A run whose kind fields are those of a kind already decoded shares
    its entry; a field that only compares equal to a decoded one (1 or 1.0
    for true) or cannot be looked up takes the checked path, and the
    weight of a shared kind is still checked."""
    t = torus.triangles[0]
    good = {"triangles": {t: {"corners": {"0": [_end(), _arc(), _end(count=2)], "1": [_arc()]}}}}
    pic = jio.picture_from_obj(good, torus)
    first, arc, *ends = pic.corner_stack((t, 0))
    assert all(e is first for e in ends) and pic.corner_stack((t, 1))[0] is arc
    doc = {"triangles": {t: {"corners": {"0": [_end(), bad]}}}}
    with pytest.raises(ValueError, match=message):
        jio.picture_from_obj(doc, torus)


def test_picture_decoder_checks_pairings(polygon4, tmp_path, capsys):
    """Given pairings must list the reversal, in any order; a file
    without them decodes to the same picture.  The encoder writes none,
    so the pairs are built here from the strand counts, as the unary
    format wrote them."""

    e = polygon4.interior_edges[0]
    x = {("edge", e, 1): F(3), ("edge", e, 2): F(-1)}
    pic = reconstruct(TropicalPoint("X", x, tri=polygon4, restricted=True), polygon4)
    obj = jio.pinned_to_obj(PinnedLamination(pic, {}))
    assert "pairings" not in obj["picture"]
    counts = {f: [pic.strand_count(slot, "out") for slot in polygon4.slots(f)]
              for f in polygon4.interior_edges}
    given = copy.deepcopy(obj)
    given["picture"]["pairings"] = {
        f: {tag: [[i, n - 1 - i] for i in range(n)] for tag, n in zip(("lr", "rl"), ns)}
        for f, ns in counts.items()
    }
    assert len(given["picture"]["pairings"][e]["lr"]) >= 2

    permuted = copy.deepcopy(given)
    permuted["picture"]["pairings"][e]["lr"].reverse()
    bare = copy.deepcopy(given)
    del bare["picture"]["pairings"]
    for variant in (given, permuted, bare):
        back = jio.pinned_from_obj(variant, polygon4).underlying
        assert (back.honeycombs, back.corners) == (pic.honeycombs, pic.corners)
        assert jio.pinned_to_obj(PinnedLamination(back, {})) == obj

    swapped = copy.deepcopy(given)
    pairs = swapped["picture"]["pairings"][e]["lr"]
    pairs[0][1], pairs[1][1] = pairs[1][1], pairs[0][1]
    with pytest.raises(InvalidPicture):
        jio.pinned_from_obj(swapped, polygon4)
    surf = tmp_path / "p4.json"
    main(["surface", "--spec", "polygon:4", "--out", str(surf)])
    lam = tmp_path / "swapped.json"
    lam.write_text(json.dumps(swapped))
    capsys.readouterr()
    assert main(["shear", "--surface", str(surf), "--lamination", str(lam)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize(
    "doc,field",
    [
        (_pic("T9", honeycomb={"orient": "sink", "height": 2}), "triangles.T9"),
        (_pic("T1", honeycomb={"orient": "up", "height": 2}), "honeycomb.orient"),
        (_pic("T1", honeycomb={"orient": "sink", "height": "2"}), "honeycomb.height"),
        (_pic("T1", honeycomb={"orient": "sink", "height": True}), "honeycomb.height"),
        (_pic("T1", corners={"7": [_arc()]}), "corners key"),
        (_pic("T1", corners={"0": [_arc(), _arc(orient="up")]}), "corners.0[1].orient"),
        (_pic("T1", corners={"0": [_arc(weight="1/0")]}), "corners.0[0].weight"),
        (_pic("T1", corners={"0": [_end(type="blob")]}), "corners.0[0].type"),
        (_pic("T1", corners={"0": [_end(sign="*")]}), "corners.0[0].sign"),
        (_pic("T1", corners={"0": [_end(outgoing="yes")]}), "corners.0[0].outgoing"),
    ],
)
def test_picture_decoder_names_bad_field(polygon4, doc, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        jio.picture_from_obj(doc["picture"], polygon4)


@pytest.mark.parametrize("weight", ["1/0", 1.5, True, "x"])
def test_picture_decoder_refuses_bad_weight_after_good_ones(polygon4, weight):
    """A bad weight is refused even where good ones of equal value were
    decoded before it."""
    doc = _pic("T1", honeycomb={"orient": "sink", "height": 1, "weight": 1},
               corners={"0": [_arc(), _arc(weight=1), _arc(weight=weight)]})
    with pytest.raises(ValueError, match=re.escape("corners.0[2].weight")):
        jio.picture_from_obj(doc["picture"], polygon4)
    doc = _pic("T1", corners={"0": [_arc()]}, honeycomb={"orient": "sink", "height": 1, "weight": weight})
    with pytest.raises(ValueError, match=re.escape("honeycomb.weight")):
        jio.picture_from_obj(doc["picture"], polygon4)


def test_picture_decoder_shares_one_weight_per_string(polygon4):
    """A mixed-weight document decodes to its cabled picture at the
    common weight: each element of weight w is w / g parallel copies of
    itself, in place, and a honeycomb's height is multiplied by w / g."""
    from sl3shear.laminations import CornerArc

    stack = [_arc(weight="1/3"), _arc(orient="ccw", weight="1/3"), _arc(weight="2/3"), _arc(orient="ccw", weight=4)]
    doc = {"picture": {"triangles": {
        "T1": {"honeycomb": {"orient": "source", "height": 2, "weight": "2/3"}, "corners": {"0": stack}},
        "T2": {"honeycomb": {"orient": "sink", "height": 2, "weight": "2/3"}},
    }}}
    pic = jio.picture_from_obj(doc["picture"], polygon4)
    cw, ccw = CornerArc("cw"), CornerArc("ccw")
    assert pic.weight == F(1, 3)
    assert pic.corners == {("T1", 0): (cw, ccw, cw, cw) + (ccw,) * 12}
    assert {t: h.height for t, h in pic.honeycombs.items()} == {"T1": 4, "T2": 4}
    assert shear_unfrozen(pic) == TropicalPoint("X", {("tri", "T1"): F(-4, 3), ("tri", "T2"): F(4, 3)},
                                                tri=polygon4, restricted=True)


# balanced across d2 on both sheets, but the strand of weight 1 leaving T1
# on the lr sheet meets one of weight 2: cabled into unit strands, the
# picture would pair cleanly, so the mismatch must be refused first
UNEQUAL_WEIGHTS_DOC = {"picture": {"triangles": {
    "T1": {"corners": {
        "0": [_arc(orient="cw"), _arc(orient="ccw", weight="2")],
        "1": [_arc(orient="ccw"), _arc(orient="ccw", weight="2")],
    }},
    "T2": {"corners": {
        "0": [_arc(orient="ccw")],
        "1": [_arc(orient="ccw"), _arc(orient="ccw", weight="2")],
        "2": [_arc(orient="cw", weight="2")],
    }},
}}}


def test_paired_strands_of_unequal_weights_are_refused(polygon4, tmp_path, capsys):
    """A document whose paired strands across an edge carry different
    weights is refused by the library and by ``shear``, with one line."""
    for decode_and_shear in (
        lambda: shear_unfrozen(jio.picture_from_obj(UNEQUAL_WEIGHTS_DOC["picture"], polygon4)),
        lambda: shear_frozen(jio.pinned_from_obj(UNEQUAL_WEIGHTS_DOC, polygon4)),
    ):
        with pytest.raises(InvalidPicture, match="unequal weights"):
            decode_and_shear()
    surf = tmp_path / "p4.json"
    main(["surface", "--spec", "polygon:4", "--out", str(surf)])
    lam = tmp_path / "unequal.json"
    lam.write_text(json.dumps(UNEQUAL_WEIGHTS_DOC))
    capsys.readouterr()
    assert main(["shear", "--surface", str(surf), "--lamination", str(lam)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "unequal weights" in err, err


# documents of a few dozen bytes that ask for 10^12 strands, one for each
# path that expands a picture, by the command that reads them through it
_HUGE = 10**12
OVERSIZED_DOCS = {
    "weights": ("shear", _pic("T1", corners={"0": [_arc(), _arc(weight=f"1/{_HUGE}")]})),
    "count": ("shear", _pic("T1", corners={"0": [_arc(count=_HUGE)]})),
    "height": ("shear", _pic("T1", honeycomb={"orient": "sink", "height": _HUGE})),
    "component": ("shear", {"components": [_alpha(weight=str(_HUGE))]}),
    "scaling": ("glue", {**_pic("T1", corners={"0": [_arc()]}), "delta": {"b0": [f"1/{_HUGE}", "0"]}}),
    # a negative height builds no legs, so it must not cancel the entries
    "negative-height": ("shear", _pic("T1", honeycomb={"orient": "sink", "height": -_HUGE},
                                      corners={"0": [_arc(count=_HUGE)]})),
    "negative-height-scaled": ("glue", {**_pic("T1", honeycomb={"orient": "sink", "height": -1},
                                               corners={"0": [_arc()]}), "delta": {"b0": [f"1/{_HUGE}", "0"]}}),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED_DOCS))
def test_oversized_pictures_are_refused_before_they_are_built(name, polygon4, tmp_path, capsys):
    """Cabling mixed weights, expanding run counts and honeycomb heights,
    drawing a component sum and scaling before gluing each check
    ``MAX_PICTURE_SIZE`` before they build a stack; past it the library
    raises ``PictureTooLarge`` and the CLI exits 1 with one line."""
    from sl3shear.glue import glue_laminations
    from sl3shear.laminations import MAX_PICTURE_SIZE, PictureTooLarge

    command, doc = OVERSIZED_DOCS[name]
    with pytest.raises(PictureTooLarge, match=f"over the limit of {MAX_PICTURE_SIZE}"):
        pl = jio.pinned_from_obj(doc, polygon4)
        glue_laminations(pl, "b0", "b2")
    surf = tmp_path / "p4.json"
    main(["surface", "--spec", "polygon:4", "--out", str(surf)])
    lam = tmp_path / "huge.json"
    lam.write_text(json.dumps(doc))
    assert len(lam.read_text()) < 200
    capsys.readouterr()
    argv = [command, "--surface", str(surf), "--lamination", str(lam)]
    assert main(argv + (["--left", "b0", "--right", "b2"] if command == "glue" else [])) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "over the limit" in err, err


@pytest.mark.parametrize("command", ["seed", "shear", "dynkin"])
def test_deeply_nested_json_is_malformed_input(command, tmp_path, capsys):
    """JSON nested too deep to parse, in a surface file, a lamination file
    or a coordinate argument, is malformed input: one error line and exit
    2, not a traceback."""
    surf = tmp_path / "p4.json"
    main(["surface", "--spec", "polygon:4", "--out", str(surf)])
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    capsys.readouterr()
    argv = {
        "seed": ["seed", "--surface", str(deep)],
        "shear": ["shear", "--surface", str(surf), "--lamination", str(deep)],
        "dynkin": ["dynkin", "--surface", str(surf), "--coords", "[" * 50_000],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err[:200]


@pytest.mark.parametrize("text", ["[" * 50_000, "[" + "1," * 50_000 + "1]"], ids=["not-json", "not-an-object"])
def test_a_long_malformed_coords_argument_is_echoed_cut(text, tmp_path, capsys):
    """A coordinate argument that is not JSON, or not a JSON object, is
    echoed cut to its first characters and its length: one error line of
    under 200 characters and exit 2."""
    surf = tmp_path / "p4.json"
    main(["surface", "--spec", "polygon:4", "--out", str(surf)])
    capsys.readouterr()
    assert main(["dynkin", "--surface", str(surf), "--coords", text]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and len(err) < 200, err[:300]
    assert f"({len(text)} characters)" in err


def test_tropical_point_json_roundtrip(polygon4):
    p_obj = {"kind": "X", "restricted": False, "coords": {"e:d2:1": "-7/3", "t:T1": "2"}}
    p = tropical_point_from_obj(p_obj, tri=polygon4)
    assert jio.tropical_point_to_obj(p) == p_obj


def test_pinned_json_roundtrip(polygon4):
    from fractions import Fraction as F

    from sl3shear.laminations import Component, ComponentSum

    e = polygon4.interior_edges[0]
    pic = reconstruct(
        TropicalPoint("X", {("edge", e, 1): F(2)}, tri=polygon4, restricted=True),
        polygon4,
    )
    pl = PinnedLamination(pic, {"b0": (F(1, 2), F(-3))})
    obj = jio.pinned_to_obj(pl)
    back = jio.pinned_from_obj(obj, polygon4)
    assert back.delta == pl.delta
    assert back.underlying.corners == pic.corners
    # a component document decodes to the picture of its sum, which
    # round-trips as a picture
    s = ComponentSum(polygon4, [Component("alpha+", e, F(2, 3))])
    obj2 = {"components": [{"kind": "alpha+", "carrier": e, "weight": "2/3"}],
            "delta": {"b1": ["0", "5"]}}
    back2 = jio.pinned_from_obj(obj2, polygon4)
    assert back2.delta == {"b1": (F(0), F(5))}
    assert back2.underlying.corners == s.picture().corners
    back3 = jio.pinned_from_obj(jio.pinned_to_obj(back2), polygon4)
    assert back3.delta == back2.delta
    assert back3.underlying.corners == back2.underlying.corners
