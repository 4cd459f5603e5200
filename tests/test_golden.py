"""Golden digests of the pictures that reconstruction and gluing produce.

A small seeded corpus is run through ``reconstruct``, ``glue_laminations``
and ``traveler_trace``; each part is serialized through ``sl3shear.io``
and hashed.  A refactor of the strand walkers must leave every digest
unchanged.  ``peripheral`` flags are left out of the traveler records on
purpose: they are checked by their own tests.

``LEGACY_GOLDEN`` holds the digests of the picture parts in the unary
format that ``sl3shear.io`` wrote before run-length corner stacks
(``tests/legacy_io.py`` writes it), so the pictures themselves stay
pinned across the format change, and every legacy document must still
decode to its picture.

``INDENTED_GOLDEN`` and ``INDENTED_LEGACY_GOLDEN`` hold the digests of
the same texts in the layout ``sl3shear.io`` wrote before its one-line
layout (``indent=2``, sorted keys): re-indenting today's texts gives
them, so that layout change moved bytes and no document.

To print the digests of the current tree, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

import legacy_io
from sl3shear import io as jio
from sl3shear.glue import glue_laminations
from sl3shear.laminations import PinnedLamination, add_peripheral_chain
from sl3shear.reconstruct import reconstruct, traveler_trace
from sl3shear.seeds import Sl3IndexSet
from sl3shear.surface import MarkedSurfaceSpec, build
from sl3shear.tropical import TropicalPoint
from sl3shear.verify import random_pinned_two_triangles

F = Fraction

GOLDEN = {
    "reconstruct": "fe1b1bf6ce4cd15ef058b4b35cda7d1957719155c152e949c35755705f1680ed",
    "glue-two-triangles": "763d90a341b1737325e4dce7e87a4f69101d51867b29d16d805bb97a782a3cf2",
    "glue-two-pentagons": "ac76ac83e4903fe5ca6f593e11cd747fcc1fcdd4fed76fae49834f51f750ee76",
    "glue-puncture-forming": "b08829220c3782ea9c0c06924387abbcbe3aad5712f3e7f523dbcac999278e76",
    "travelers": "67d41d2fddcf1618c514afd59ef7aaf26516e9ac5d1032aec5103e0671fc5c26",
}

LEGACY_GOLDEN = {
    "reconstruct": "327bf65d45b37d5f3f5b0818909d9e109548c553451569a4d5da78be9723c9c3",
    "glue-two-triangles": "5f987935df94806ffaac84e5ae871effc272e4d9a7c09abd31eaefea7ab06a40",
    "glue-two-pentagons": "61fab2759521f699fb717d23d8a52aff9651e154e5a1aa22e0b5aaace98bfb22",
    "glue-puncture-forming": "89b69017a1f8cabad780c177e39b0c19b6cef46e723400c86bb1e75c07e57d9a",
}

INDENTED_GOLDEN = {
    "reconstruct": "368c87962706ee48bafe1b90e23f98a6f235fcf9a407bf5e3191e989354c0c6f",
    "glue-two-triangles": "e33533d0d3a61f58e43c6b2765b7e36918cb6905504b4caf4a2b6583ce8ea413",
    "glue-two-pentagons": "a378d09370af16bd56e44f59b5c1ea6cd0f4a6188af6b0c14b2573232c179277",
    "glue-puncture-forming": "04349c1ec111e586bdf90646be1c079c7a35b9076de11a7bc29194b11aa660dc",
    "travelers": "0b895ba40411ade832fc302699b311a9e1a9636681fe8ceb98939fbb8bdeff85",
}

INDENTED_LEGACY_GOLDEN = {
    "reconstruct": "5da4be6517f8be074b640a381d4763118ba143952833375750ad0dd94904a150",
    "glue-two-triangles": "4672841262112ae47f31bc90d0341fd7f77565408ee78c845193b32d581a6268",
    "glue-two-pentagons": "bbe0671201347f1db758bccca6bffa8381b6d8d18bd8a18ebb47ce9dbf908e2f",
    "glue-puncture-forming": "f78f24d120ca36e606e968db3895344b179a7213ffef19e7b0aeca8692069995",
}


def _pentagon(p):
    return [
        (f"{p}1", (f"{p}b0", f"{p}b1", f"{p}d2")),
        (f"{p}2", (f"{p}d2", f"{p}b2", f"{p}d3")),
        (f"{p}3", (f"{p}d3", f"{p}b3", f"{p}b4")),
    ]


def _random_x(rng, tri, entry_range):
    coords = {i: F(rng.randint(-entry_range, entry_range)) for i in Sl3IndexSet(tri).unfrozen}
    return TropicalPoint("X", coords, tri=tri, restricted=True)


def _random_delta(rng, tri, pin_range):
    return {
        e: (F(rng.randint(-pin_range, pin_range)), F(rng.randint(-pin_range, pin_range)))
        for e in tri.boundary_intervals
    }


def _with_peripherals(rng, pic):
    for _ in range(rng.randint(0, 2)):
        pic = add_peripheral_chain(
            pic, rng.choice(sorted(pic.tri.vertices)), rng.choice(["cw", "ccw"])
        )
    return pic


def _traveler_records(pic):
    return [
        [t.kind, list(t.route), [[e, str(k_out), str(k_in), s] for e, k_out, k_in, s in t.identifiers]]
        for t in traveler_trace(pic)
    ]


def documents(writer=jio):
    """``(name, obj, pic)`` for every document of the corpus, in order:
    its part, its JSON object as ``writer`` encodes it (``sl3shear.io``
    or ``legacy_io``) and the picture that object encodes."""
    rng = random.Random(2024)
    docs = []

    def add(name, obj, pic):
        docs.append((name, obj, pic))

    for spec in (
        MarkedSurfaceSpec.polygon(4),
        MarkedSurfaceSpec.polygon(5),
        MarkedSurfaceSpec.annulus(1, 1),
        MarkedSurfaceSpec.once_punctured_torus(),
    ):
        tri = build(spec)
        for _ in range(12):
            pic = reconstruct(_random_x(rng, tri, 4), tri)
            add("reconstruct", writer.picture_to_obj(pic), pic)

    for _ in range(20):
        glued = glue_laminations(random_pinned_two_triangles(rng), "a2", "b0")
        add("glue-two-triangles", writer.pinned_to_obj(glued), glued.underlying)

    pentagons = build(MarkedSurfaceSpec.table(_pentagon("L") + _pentagon("R")))
    left = [e for e in pentagons.boundary_intervals if e.startswith("L")]
    right = [e for e in pentagons.boundary_intervals if e.startswith("R")]
    for _ in range(6):
        pic = reconstruct(_random_x(rng, pentagons, 8), pentagons)
        pinned = PinnedLamination(pic, _random_delta(rng, pentagons, 5))
        glued = glue_laminations(pinned, rng.choice(left), rng.choice(right))
        add("glue-two-pentagons", writer.pinned_to_obj(glued), glued.underlying)

    polygon4 = build(MarkedSurfaceSpec.polygon(4))
    annulus = build(MarkedSurfaceSpec.annulus(1, 1))
    for tri, e_l, e_r in (
        (polygon4, "b0", "b2"),
        (polygon4, "b1", "b2"),
        (annulus, "b1", "b3"),
    ):
        for _ in range(10):
            pic = _with_peripherals(rng, reconstruct(_random_x(rng, tri, 3), tri))
            pinned = PinnedLamination(pic, _random_delta(rng, tri, 3))
            glued = glue_laminations(pinned, e_l, e_r)
            add("glue-puncture-forming", writer.pinned_to_obj(glued), glued.underlying)

    return docs


def corpus(writer=jio):
    """name -> the JSON texts of that part of the corpus, as ``writer``
    encodes it; the travelers only with ``sl3shear.io``."""
    docs = documents(writer)
    parts = {name: [] for name in LEGACY_GOLDEN}
    for name, obj, _ in docs:
        parts[name].append(jio.dump(obj))
    if writer is jio:
        parts["travelers"] = [jio.dump(_traveler_records(pic)) for _, _, pic in docs]
    return parts


def indented(text):
    """A JSON text in the layout ``sl3shear.io`` wrote before its
    one-line layout."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True)


def digests(writer=jio, layout=None):
    """name -> the sha256 of that part's texts joined by newlines, each
    text first rewritten by ``layout`` when one is given."""
    return {
        name: hashlib.sha256("\n".join(map(layout, texts) if layout else texts).encode("utf-8")).hexdigest()
        for name, texts in corpus(writer).items()
    }


def test_golden_digests():
    assert digests() == GOLDEN


def test_legacy_writer_reproduces_the_unary_digests():
    assert digests(legacy_io) == LEGACY_GOLDEN


def test_only_the_layout_moved():
    """Re-indented, the texts of both corpora give the digests pinned in
    the indented layout: the one-line layout changed bytes, not
    documents."""
    assert digests(jio, indented) == INDENTED_GOLDEN
    assert digests(legacy_io, indented) == INDENTED_LEGACY_GOLDEN


def _decodes_to_its_pictures(writer):
    for name, obj, pic in documents(writer):
        obj = json.loads(jio.dump(obj))
        back = jio.picture_from_obj(obj.get("picture", obj), pic.tri)
        assert (back.honeycombs, back.corners, back.weight) == (pic.honeycombs, pic.corners, pic.weight), name


def test_corpus_decodes_to_its_pictures():
    """Every picture of the corpus decodes from its JSON text to the
    same honeycombs, corner stacks and weight."""
    _decodes_to_its_pictures(jio)


def test_legacy_corpus_decodes_to_its_pictures():
    """So does every text of the corpus in the unary format."""
    _decodes_to_its_pictures(legacy_io)


def test_legacy_mixed_weights_check_pairings_before_cabling():
    """A unary document of several weights lists its pairings over its
    strands as written, one per entry: they are checked before the
    entries are cabled, and the document decodes to the cabled picture.
    Here a weight-1 peripheral chain is added to a picture of weight 1/2,
    so each chain arc is cabled into two strands."""
    from sl3shear.laminations import InvalidPicture

    tri = build(MarkedSurfaceSpec.polygon(4))
    e = tri.interior_edges[0]
    x = {("edge", e, 1): F(3, 2), ("edge", e, 2): F(-1, 2)}
    half = reconstruct(TropicalPoint("X", x, tri=tri, restricted=True), tri)
    assert half.weight == F(1, 2)
    v = max(sorted(tri.vertices), key=lambda w: len(tri.corners_at_vertex(w)))
    assert len(tri.corners_at_vertex(v)) >= 2
    # written at the picture's own weight, each chain arc is one entry
    obj = json.loads(jio.dump(legacy_io.picture_to_obj(add_peripheral_chain(half, v, "cw", half.weight))))
    for t, ci in tri.corners_at_vertex(v):
        obj["triangles"][t]["corners"][str(ci)][-1]["weight"] = "1"
    want = add_peripheral_chain(half, v, "cw", 1)
    back = jio.picture_from_obj(obj, tri)
    assert (back.honeycombs, back.corners, back.weight) == (want.honeycombs, want.corners, F(1, 2))
    bare = {k: w for k, w in obj.items() if k != "pairings"}
    assert jio.picture_from_obj(bare, tri).corners == want.corners

    pairs = obj["pairings"][e]["lr"]
    assert len(pairs) >= 2
    pairs[0][1], pairs[1][1] = pairs[1][1], pairs[0][1]
    with pytest.raises(InvalidPicture, match="not the reversal"):
        jio.picture_from_obj(obj, tri)


def test_runs_shrink_the_glued_pentagons():
    """The run-length text of the ``glue-two-pentagons`` part is at most
    45% of the unary text (43.2% when this gate was set: the stacks of
    these small pictures alternate cw and ccw arcs, which no run joins).
    Both texts are measured in the indented layout the gate was set on;
    in the one-line layout the ratio is 51.4%, since indentation was a
    larger share of the unary text."""
    size = {w: len("\n".join(map(indented, corpus(w)["glue-two-pentagons"]))) for w in (jio, legacy_io)}
    assert size[jio] <= 0.45 * size[legacy_io], size


if __name__ == "__main__":
    for writer in (jio, legacy_io):
        for layout in (None, indented):
            print(writer.__name__ + (" indented" if layout else ""))
            for name, digest in digests(writer, layout).items():
                print(f'    "{name}": "{digest}",')
