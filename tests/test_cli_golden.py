"""Golden digests of the stdout of the seed-side CLI commands.

For each surface below, ``sl3shear seed`` runs once, ``flip`` runs with
X- and with A-coordinates at every interior edge, and ``ensemble``,
``dynkin`` and ``reconstruct --check`` run once, all on fixed rational
coordinates.  Each component-sum document below runs through ``shear``
and ``diagram`` on polygon(4), and through ``glue`` along three pairs of
its boundary intervals.  The exit code and stdout of every call are
hashed per (surface, command), so a change of representation inside
``seeds``, ``tropical``, ``reconstruct`` or ``glue`` must leave the bytes
as they are.  The stdout of ``sl3shear verify --suite all --trials 200
--seed 7`` is pinned the same way.

To print the digests of the current tree, run
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from sl3shear import io as jio
from sl3shear.cli import main
from sl3shear.seeds import Sl3IndexSet
from sl3shear.surface import MarkedSurfaceSpec, build

SURFACES = {
    "polygon:8": MarkedSurfaceSpec.polygon(8),
    "punctured-polygon:3:2": MarkedSurfaceSpec.punctured_polygon(3, 2),
    "annulus:2:1": MarkedSurfaceSpec.annulus(2, 1),
    "once-punctured-torus": MarkedSurfaceSpec.once_punctured_torus(),
}

GOLDEN = {
    "polygon:8/seed": "61d2fd1e4ee1e233af975f8067e8507b06f45d5f125f11a0a622d615ea17235b",
    "polygon:8/flip": "98454ec95a67ba2153bdcb385aaf407528b16435d1affdc5441d4017e42d8d66",
    "polygon:8/ensemble": "8d91620b3d77df6ee4a106fee181c19d5e66b51d0da9fcd2a6ca3983603d2600",
    "polygon:8/dynkin": "2653f4750e3c68123af7acdaf1dc2a995e4c54521a95ce636278fb72cfb4b78e",
    "polygon:8/reconstruct": "2b22fb3cd5fbd3c5fac8b0672d6d9fefd3c60eb0c9897d96e35bbbe736d999c0",
    "punctured-polygon:3:2/seed": "52a4edc0e8308aed20ad65b5d8c893c931a0a688fd90020696e748fb805c0cc3",
    "punctured-polygon:3:2/flip": "4399da9b73998756e99d3dd8cb57e009a4ddb799a43c43d33843fa2feca13ba5",
    "punctured-polygon:3:2/ensemble": "5de41b0f5b8ea7393f2690a80e8eca64ac7de08b8dc6b01ce461213c9fbc099c",
    "punctured-polygon:3:2/dynkin": "7f7b1ae15124412b23ff6e18cd1a1cdbe2a0216aa4abc9f22d7d52700799655e",
    "punctured-polygon:3:2/reconstruct": "55832a41fc86b9cd18148daa23bcb4dbbefc4c4eb4173fee8c33521070fe0d99",
    "annulus:2:1/seed": "4c54f3cb6b093fe6d4c76ea30ccab06933dbd095dbfb787c09a9d6a2f73ac20d",
    "annulus:2:1/flip": "b487a805c79ca83bd8ac41f18345bf79c662d4f1ce53fbb959b48aca8b11d62b",
    "annulus:2:1/ensemble": "568fdf44007314045d60d4e463ce38edb4837d351e8348c85a42000c7a53c7b0",
    "annulus:2:1/dynkin": "738d00285350e3f971d444566b472dad707e139940b052a888917e79f221ac0d",
    "annulus:2:1/reconstruct": "1dd89aa67ec26d5de813ca979bd3b3d436337ad5c21cd98eeecb3014dcf8fdf6",
    "once-punctured-torus/seed": "a6443d91b9452965cc755cfec5d944bb27d6b2faeb5df586625cf9e8bb5d1a2e",
    "once-punctured-torus/flip": "eb35668d565ed825bb1b5882e3179062f128c7dedca7022ef9737063d51fa890",
    "once-punctured-torus/ensemble": "acd7d135f59c35b822829806627950c686250c60337e51aee60c783c3af2748f",
    "once-punctured-torus/dynkin": "e1c171dc495f3f21895e3f8412c5a2e21e36a22d852d3d44986a1039d3f42948",
    "once-punctured-torus/reconstruct": "bb55a8690e0e688465ec0f916547caacbce574b05da9799f9319350b63b61832",
    "polygon:4/shear/alpha+-pinned": "15470d3cb0b0f848a6712ceaf70e0b429bc94c080e6d90c7e44603622ae8bf8e",
    "polygon:4/diagram/alpha+-pinned": "45a348b11502448a36f048a6ef8c384c2e9ca9983f90911b5a04155cb2d47605",
    "polygon:4/glue/alpha+-pinned": "e72a019bd0ec1990f062c5da00cd60e150ef345936726b51be48e75d5bd0730f",
    "polygon:4/shear/tau+L-alpha": "1eed12be673b58ca0a95eefadbbb7458c4979603081aae79f82a97bdee87b9f8",
    "polygon:4/diagram/tau+L-alpha": "49561bed4c98148cd40934c826cbecb68b4bbc4c4c1f2b2131116a61c8be69d6",
    "polygon:4/glue/tau+L-alpha": "1efc0f59dc9bf4390be72a42ba256d2bcddb530fb7bcfb8ca7c5cad7bb570be4",
    "polygon:4/shear/peripheral-cw": "9a1b94423bd4f4dfc4c3262ce8029c202fb86865b110867dab3c6b0b1dd1d861",
    "polygon:4/diagram/peripheral-cw": "ce6c6418bb69a0964465d5bfd20f295b4c45fa527bec33ac17d2fb5c5ec9467e",
    "polygon:4/glue/peripheral-cw": "72673928c77ccbc023d81cab9bd7b5951dd6831cff284edf5166d6a59d0fa2af",
}

# the pairs of polygon(4) intervals each document is glued along: b1 and
# b2 share the marked point that the gluing turns into a puncture
GLUE_PAIRS = (("b1", "b2"), ("b0", "b2"), ("b3", "b1"))

# component-sum documents on polygon(4), whose interior edge is d2, whose
# triangle T1 has the boundary sides b0 and b1 at its corner 0, and whose
# marked point v0 is the initial endpoint of b1
COMPONENT_DOCS = {
    "alpha+-pinned": {
        "components": [{"kind": "alpha+", "carrier": "d2", "weight": "2/3"}],
        "delta": {"b1": ["1/2", "-1"], "b3": ["0", "2"]},
    },
    "tau+L-alpha": {
        "components": [
            {"kind": "tau+L", "carrier": "d2", "weight": "1"},
            {"kind": "alpha", "carrier": "T1", "weight": "1", "corner": 0},
        ],
    },
    "peripheral-cw": {
        "components": [{"kind": "peripheral-cw", "carrier": "v0", "weight": "2"}],
    },
}


VERIFY_ARGV = ["verify", "--suite", "all", "--trials", "200", "--seed", "7"]
VERIFY_GOLDEN = "cb60efaff2b666d2eb50ffd9aa4460c603345e78229aaa19b611dd4d94f99eb4"


def _coords(tri, salt, indices=None):
    """Fixed rational coordinates at every index of ``indices`` (all of
    the triangulation's by default), some of them zero."""
    return json.dumps({
        jio.index_to_str(i): jio.frac_to_str(Fraction((7 * n + salt) % 11 - 5, 1 + (n + salt) % 3))
        for n, i in enumerate(indices or Sl3IndexSet(tri).all)
    })


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"{' '.join(argv[:1] + argv[3:])}\nexit {code}\n{out.getvalue()}"


def outputs(workdir, run=_run):
    """``"<surface>/<command>" -> [record, ...]`` for every CLI call of
    the corpus, each record holding the arguments, exit code and stdout
    as ``run`` returns them."""
    parts = {}
    for name, spec in SURFACES.items():
        tri = build(spec)
        surf = str(Path(workdir) / "surface.json")
        with open(surf, "w") as fp:
            fp.write(jio.dump(jio.triangulation_to_obj(tri)))
        parts[f"{name}/seed"] = [run(["seed", "--surface", surf])]
        parts[f"{name}/flip"] = [
            run(["flip", "--surface", surf, "--edge", e, "--kind", kind,
                 "--coords", _coords(tri, salt)])
            for e in tri.interior_edges
            for kind, salt in (("X", 0), ("A", 4))
        ]
        parts[f"{name}/ensemble"] = [run(["ensemble", "--surface", surf, "--acoords", _coords(tri, 2)])]
        parts[f"{name}/dynkin"] = [run(["dynkin", "--surface", surf, "--coords", _coords(tri, 5)])]
        unfrozen = _coords(tri, 3, Sl3IndexSet(tri).unfrozen)
        parts[f"{name}/reconstruct"] = [
            run(["reconstruct", "--surface", surf, "--coords", unfrozen, "--check"])
        ]
    surf = str(Path(workdir) / "polygon4.json")
    with open(surf, "w") as fp:
        fp.write(jio.dump(jio.triangulation_to_obj(build(MarkedSurfaceSpec.polygon(4)))))
    for name, doc in COMPONENT_DOCS.items():
        lam = str(Path(workdir) / f"{name}.json")
        with open(lam, "w") as fp:
            fp.write(jio.dump(doc))
        for command, extra in [("shear", []), ("diagram", [])] + [
            ("glue", ["--left", left, "--right", right]) for left, right in GLUE_PAIRS
        ]:
            record = run([command, "--surface", surf, "--lamination", lam, *extra])
            parts.setdefault(f"polygon:4/{command}/{name}", []).append(
                record.replace(str(workdir), "<dir>")
            )
    return parts


def digests():
    with tempfile.TemporaryDirectory() as workdir:
        return {
            name: hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
            for name, records in outputs(workdir).items()
        }


def verify_digest():
    """The sha256 of the stdout of :data:`VERIFY_ARGV`; its exit code
    must be 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(VERIFY_ARGV) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_cli_golden_digests():
    assert digests() == GOLDEN


def test_json_commands_print_one_line_of_the_built_document(monkeypatch, tmp_path):
    """Every call of the corpus that succeeds and emits JSON prints
    exactly one line plus its newline, and that line decodes to the
    document ``sl3shear.io.dump`` was given."""
    dump, built, checked = jio.dump, [], set()

    def recording_dump(obj):
        built.append(obj)
        return dump(obj)

    def run(argv):
        built.clear()
        record = _run(argv)
        _, code, stdout = record.split("\n", 2)
        if argv[0] != "diagram" and code == "exit 0":
            assert len(built) == 1 and stdout.endswith("\n") and stdout.count("\n") == 1, record
            assert json.loads(stdout) == built[0], record
            checked.add(argv[0])
        return record

    monkeypatch.setattr(jio, "dump", recording_dump)
    outputs(tmp_path, run)
    assert checked == {"seed", "flip", "ensemble", "dynkin", "reconstruct", "shear", "glue"}


def test_verify_stdout_digest():
    assert verify_digest() == VERIFY_GOLDEN


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f'    "{name}": "{digest}",')
    print(f'VERIFY_GOLDEN = "{verify_digest()}"')
