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
    "polygon:8/seed": "fbc0d91f0b6776eaaf1f265c9f6063f34920ce6292852cfc4c2aa1728753087c",
    "polygon:8/flip": "f8fb1cfeab1d7c3f6adb00ee75baedf4c0a926e616218dfd0dac1b6968fe57c4",
    "polygon:8/ensemble": "b98e32bc3eb20ecf0f1a54bf5964e91ab4e1eca4b011624ad68aeb52e77f4235",
    "polygon:8/dynkin": "e39ca113a7b48f3c1a938f31c7ae629c446af757f625518917bcc35825da5a0a",
    "polygon:8/reconstruct": "7827dc871f253a5db976d9c5e4fb2611d90a35a711ae8302617e86ec765ab2db",
    "punctured-polygon:3:2/seed": "de9599bc8461176070bff3f02b805f906a4e3e083dee08c47c4e70dec697aac9",
    "punctured-polygon:3:2/flip": "efc8466303d6c9057b69fd34a2f931693c223cc51c4114879b06b001632d91ef",
    "punctured-polygon:3:2/ensemble": "4d8eff0f72d915248215f624454731dd75651d8e8598ddb01f523b8e33ce8c49",
    "punctured-polygon:3:2/dynkin": "121ddbe6b9150ca4b2aa2bf1b4c1dc9536fad436a713ee6fa797bdb1154d22a5",
    "punctured-polygon:3:2/reconstruct": "6ff1cbbf0ede9e7b93a67f6d22771f379e7b36530276c1905c193ad9a14a5004",
    "annulus:2:1/seed": "6bfd1a080f4129ffd57eb6f9d1a5f4cca7a1d8c39fdaca8384f5e66f3001975e",
    "annulus:2:1/flip": "93270fa65dc37ffafa75d0d51d9067ff480c345761fccf6ebbbd89f3dabd7e69",
    "annulus:2:1/ensemble": "1b8ecd9930e1b945724019461d8447709503febf9d0f3e0f228fad147008f334",
    "annulus:2:1/dynkin": "3895a22b65c086c55bd24aea0a3f52b41e1683925c46421b45a61259deb5f094",
    "annulus:2:1/reconstruct": "c04d8a4a068102adfbd3ee9f3635e33dbc618dfe507ecd1476ebeed82b3967f1",
    "once-punctured-torus/seed": "155df0f91e3ed20b65cf6ef19b333919b7d62823bd8cf919d23ca43fb20ff68f",
    "once-punctured-torus/flip": "96bed47a11f8daef5b239cff5613b85108e9a62fc0d3a407a6a58f85ea631fa3",
    "once-punctured-torus/ensemble": "43762815f8a79afdda379de234576b800b863ba6d97ec5c8ca873ef21324d48f",
    "once-punctured-torus/dynkin": "97c47ebc6225e1e7136c69c9a8331cdf7055f5641f8294ddc5271fe4a90635da",
    "once-punctured-torus/reconstruct": "bd234e3b74bc081030fbb85a1fc69561048aecba245313d43f5ee49aacd348bc",
    "polygon:4/shear/alpha+-pinned": "b6b06d363f71c976f119b9c5babe220d188dc50619cd97907605d3a4611eab83",
    "polygon:4/diagram/alpha+-pinned": "45a348b11502448a36f048a6ef8c384c2e9ca9983f90911b5a04155cb2d47605",
    "polygon:4/glue/alpha+-pinned": "4031a637db046456f4e325cafb08aaa43ab324f230464650c178a656cdbe56d0",
    "polygon:4/shear/tau+L-alpha": "f4f2058e4ee806815ec988f30db687707b04946e8fbe4fe2f00d6f855358f4d2",
    "polygon:4/diagram/tau+L-alpha": "49561bed4c98148cd40934c826cbecb68b4bbc4c4c1f2b2131116a61c8be69d6",
    "polygon:4/glue/tau+L-alpha": "d7f630f43219117c8165edb438ed28eddb6cb53ede3b2036937f6a17bb484253",
    "polygon:4/shear/peripheral-cw": "6f2c9751606b88407e3f08ba7e8cb681087a3e219adbfd34a0d0cbea17c8c25e",
    "polygon:4/diagram/peripheral-cw": "ce6c6418bb69a0964465d5bfd20f295b4c45fa527bec33ac17d2fb5c5ec9467e",
    "polygon:4/glue/peripheral-cw": "38b7763be608291c976f341e8f26d0a91f8a9129051ebc71adfe386e99a007ee",
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


def outputs(workdir):
    """``"<surface>/<command>" -> [record, ...]`` for every CLI call of
    the corpus, each record holding the arguments, exit code and stdout."""
    parts = {}
    for name, spec in SURFACES.items():
        tri = build(spec)
        surf = str(Path(workdir) / "surface.json")
        with open(surf, "w") as fp:
            fp.write(jio.dump(jio.triangulation_to_obj(tri)))
        parts[f"{name}/seed"] = [_run(["seed", "--surface", surf])]
        parts[f"{name}/flip"] = [
            _run(["flip", "--surface", surf, "--edge", e, "--kind", kind,
                  "--coords", _coords(tri, salt)])
            for e in tri.interior_edges
            for kind, salt in (("X", 0), ("A", 4))
        ]
        parts[f"{name}/ensemble"] = [_run(["ensemble", "--surface", surf, "--acoords", _coords(tri, 2)])]
        parts[f"{name}/dynkin"] = [_run(["dynkin", "--surface", surf, "--coords", _coords(tri, 5)])]
        unfrozen = _coords(tri, 3, Sl3IndexSet(tri).unfrozen)
        parts[f"{name}/reconstruct"] = [
            _run(["reconstruct", "--surface", surf, "--coords", unfrozen, "--check"])
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
            record = _run([command, "--surface", surf, "--lamination", lam, *extra])
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


def test_verify_stdout_digest():
    assert verify_digest() == VERIFY_GOLDEN


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f'    "{name}": "{digest}",')
    print(f'VERIFY_GOLDEN = "{verify_digest()}"')
