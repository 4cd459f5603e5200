import copy
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from sl3shear import io as jio
from sl3shear.cli import main
from sl3shear.laminations import GlobalPicture, Honeycomb, InvalidPicture, PinnedLamination
from sl3shear.surface import MarkedSurfaceSpec, build

F = Fraction


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


def test_error_exit_code(tmp_path, capsys):
    surf = tmp_path / "p4.json"
    main(["surface", "--spec", "polygon:4", "--out", str(surf)])
    code = main(["flip", "--surface", str(surf), "--edge", "b0"])
    assert code == 1


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
    capsys.readouterr()
    paths = {"{surf}": str(surf), "{bad_carrier}": str(bad_carrier)}
    argv = [paths.get(a, a) for a in argv]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_determinism_same_argv_same_bytes(tmp_path):
    cmd = [
        sys.executable, "-m", "sl3shear.cli",
        "verify", "--suite", "flip", "--trials", "5", "--seed", "3",
    ]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_module_entry_point_matches_cli_module():
    args = ["surface", "--spec", "polygon:4"]
    pkg = subprocess.run([sys.executable, "-m", "sl3shear", *args], capture_output=True)
    cli = subprocess.run([sys.executable, "-m", "sl3shear.cli", *args], capture_output=True)
    assert pkg.returncode == 0
    assert pkg.stdout and pkg.stdout == cli.stdout


def test_verify_exit_codes(capsys):
    assert main(["verify", "--suite", "elementary", "--trials", "1", "--seed", "0"]) == 0


def test_diagram_command(tmp_path, capsys):
    surf = tmp_path / "p4.json"
    main(["surface", "--spec", "polygon:4", "--out", str(surf)])
    tri = jio.triangulation_from_obj(json.loads(surf.read_text()))
    from sl3shear.reconstruct import reconstruct
    from sl3shear.tropical import TropicalPoint

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


def test_picture_json_roundtrip(polygon4, torus):
    import random

    from sl3shear.reconstruct import reconstruct
    from sl3shear.seeds import Sl3IndexSet
    from sl3shear.tropical import TropicalPoint

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
            assert back.pairings == pic.pairings


def test_picture_decoder_checks_pairings(polygon4, tmp_path, capsys):
    """Given pairings must list the reversal, in any order; a file
    without them decodes to the same picture."""
    from sl3shear.reconstruct import reconstruct
    from sl3shear.tropical import TropicalPoint

    e = polygon4.interior_edges[0]
    x = {("edge", e, 1): F(3), ("edge", e, 2): F(-1)}
    pic = reconstruct(TropicalPoint("X", x, tri=polygon4, restricted=True), polygon4)
    obj = jio.pinned_to_obj(PinnedLamination(pic, {}))
    assert len(obj["picture"]["pairings"][e]["lr"]) >= 2

    permuted = copy.deepcopy(obj)
    permuted["picture"]["pairings"][e]["lr"].reverse()
    bare = copy.deepcopy(obj)
    del bare["picture"]["pairings"]
    for variant in (permuted, bare):
        back = jio.pinned_from_obj(variant, polygon4).underlying
        assert (back.honeycombs, back.corners) == (pic.honeycombs, pic.corners)
        assert jio.pinned_to_obj(PinnedLamination(back, {})) == obj

    swapped = copy.deepcopy(obj)
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


def test_tropical_point_json_roundtrip(polygon4):
    p_obj = {"kind": "X", "restricted": False, "coords": {"e:d2:1": "-7/3", "t:T1": "2"}}
    p = jio.tropical_point_from_obj(p_obj, tri=polygon4)
    assert jio.tropical_point_to_obj(p) == p_obj


def test_pinned_json_roundtrip(polygon4):
    from fractions import Fraction as F

    from sl3shear.laminations import Component, ComponentSum, PinnedLamination
    from sl3shear.reconstruct import reconstruct
    from sl3shear.tropical import TropicalPoint

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
    s = ComponentSum(polygon4, [Component("alpha+", e, F(2, 3))])
    pl2 = PinnedLamination(s, {"b1": (F(0), F(5))})
    obj2 = jio.pinned_to_obj(pl2)
    back2 = jio.pinned_from_obj(obj2, polygon4)
    assert back2.delta == pl2.delta
    assert list(back2.underlying) == list(s)
