"""Gluing walks only what the gluing touches.

``glue_laminations`` seeds its walks from the window of the glued
sheets and from every crossing of a glued sheet with a stored strand,
and copies every other stored entry.  ``glue_reference`` keeps the
gluing that walks every component; the two must write the same bytes
and refuse the same inputs.
"""

import importlib
import importlib.util
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import glue_reference
from sl3shear import io
from sl3shear.cli import main
from sl3shear.glue import glue_laminations
from sl3shear.laminations import (
    GlobalPicture,
    PictureTooLarge,
    PinnedLamination,
    add_peripheral_chain,
    boundary_weights,
)
from sl3shear.reconstruct import reconstruct
from sl3shear.seeds import Sl3IndexSet
from sl3shear.surface import MarkedSurfaceSpec, Sl3Error, build
from sl3shear.tropical import TropicalPoint
from sl3shear.verify import two_triangle_fixture

F = Fraction
WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
SURFACES = {
    "polygon5": MarkedSurfaceSpec.polygon(5),
    "polygon6": MarkedSurfaceSpec.polygon(6),
    "polygon8": MarkedSurfaceSpec.polygon(8),
    "annulus22": MarkedSurfaceSpec.annulus(2, 2),
    "punctured42": MarkedSurfaceSpec.punctured_polygon(4, 2),
}


def _two_copies(tri):
    """Two disjoint copies L and R of a triangulation, as one table."""
    return build(MarkedSurfaceSpec.table([
        (f"{p}{t}", tuple(f"{p}{e}" for e in sides)) for p in "LR" for t, sides in tri.tri_sides.items()
    ]))


def _random_pinned(tri, rng, entries=4):
    """A reconstructed lamination of a rational vector, with up to two
    peripheral chains of rational weight and rational pins."""
    den = rng.choice([1, 1, 2, 3])
    coords = {i: F(rng.randint(-entries, entries), den) for i in Sl3IndexSet(tri).unfrozen}
    pic = reconstruct(TropicalPoint("X", coords, tri=tri, restricted=True), tri)
    for _ in range(rng.randint(0, 2)):
        weight = F(rng.randint(1, 3), rng.choice([1, 2]))
        pic = add_peripheral_chain(pic, rng.choice(sorted(tri.vertices)), rng.choice(["cw", "ccw"]), weight)
    delta = {
        e: (F(rng.randint(-4, 4), rng.choice([1, 2])), F(rng.randint(-4, 4), rng.choice([1, 3])))
        for e in tri.boundary_intervals
        if rng.random() < 0.7
    }
    return PinnedLamination(pic, delta)


def _outcome(glue, pinned, e_l, e_r):
    """The encoded glued lamination, or the class of the refusal."""
    try:
        return io.dump(io.pinned_to_obj(glue(pinned, e_l, e_r)))
    except Sl3Error as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(SURFACES))
@pytest.mark.parametrize("copies", ["self", "cross"])
def test_glue_matches_the_walk_everything_reference(name, copies):
    """At every ordered pair of intervals of one surface (self-gluing) or
    of two disjoint copies, one interval on each (cross-gluing), the local
    gluing writes the reference's bytes or raises the reference's
    exception class."""
    tri = build(SURFACES[name])
    intervals = tri.boundary_intervals
    pairs = [(a, b) for a in intervals for b in intervals if a != b]
    if copies == "cross":
        tri = _two_copies(tri)
        pairs = [(f"L{a}", f"R{b}") for a in intervals for b in intervals]
        pairs += [(b, a) for a, b in pairs]
    rng = random.Random(f"{name}:{copies}")
    glued = 0
    for e_l, e_r in pairs:
        pinned = _random_pinned(tri, rng, entries=3)
        want = _outcome(glue_reference.glue_laminations, pinned, e_l, e_r)
        assert _outcome(glue_laminations, pinned, e_l, e_r) == want, (e_l, e_r)
        glued += isinstance(want, str)
    assert glued > 0


def _recording(monkeypatch, module, walked):
    """Wrap ``module.components`` so that each walked component is
    appended to ``walked`` as ``(stepper, seed, traveler)``."""
    original = module.components

    def recorded(stepper, seeds):
        for seed, traveler in original(stepper, seeds):
            walked.append((stepper, seed, traveler))
            yield seed, traveler

    monkeypatch.setattr(module, "components", recorded)


def test_every_walked_component_crosses_a_glued_sheet(monkeypatch, polygon4, annulus11):
    """A walked component crosses a glued sheet, from the window or
    elsewhere; none is walked only for turning at a merged marked point."""
    glue_module = importlib.import_module("sl3shear.glue")
    rng = random.Random(31)
    checked = 0
    for tri, e_l, e_r in ((polygon4, "b0", "b2"), (polygon4, "b1", "b2"), (annulus11, "b1", "b3"),
                          (_two_copies(polygon4), "Lb1", "Rb3")):
        for _ in range(15):
            walked = []
            _recording(monkeypatch, glue_module, walked)
            glue_laminations(_random_pinned(tri, rng), e_l, e_r)
            for stepper, seed, traveler in walked:
                assert any(s[0] in stepper.pins for s in traveler.crossings), seed
                checked += 1
    assert checked > 100


def _amalgamate_pool(n):
    """The first ``n`` inputs of the seed-1 ``amalgamate`` benchmark
    pool, pinned: ``(pinned, e_l, e_r)``."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    modules = ("surface", "seeds", "tropical", "laminations", "reconstruct", "glue", "verify", "io")
    lib = SimpleNamespace(**{m: importlib.import_module(f"sl3shear.{m}") for m in modules})
    w = workloads.Amalgamate(lib, 1)
    out = []
    for values, pins, e_l, e_r in w.pool[:n]:
        x = TropicalPoint("X", dict(zip(w.labels, values)), tri=w.tri, restricted=True)
        delta = {e: (F(pins[2 * k]), F(pins[2 * k + 1])) for k, e in enumerate(w.intervals)}
        out.append((PinnedLamination(reconstruct(x, w.tri), delta), e_l, e_r))
    return out


def test_local_gluing_walks_under_a_third_of_the_components(monkeypatch):
    """On the seed-1 ``amalgamate`` pool the reference walks about 195
    components per glue and the local gluing about 60, writing the same
    pictures."""
    glue_module = importlib.import_module("sl3shear.glue")
    local, everything = [], []
    _recording(monkeypatch, glue_module, local)
    _recording(monkeypatch, glue_reference, everything)
    cases = _amalgamate_pool(40)
    for pinned, e_l, e_r in cases:
        assert io.pinned_to_obj(glue_laminations(pinned, e_l, e_r)) == io.pinned_to_obj(
            glue_reference.glue_laminations(pinned, e_l, e_r)
        )
    per_glue = len(local) / len(cases), len(everything) / len(cases)
    assert per_glue[1] > 150 and per_glue[0] < per_glue[1] / 3, per_glue


def test_coweights_away_from_the_merged_points_pass_through(polygon5):
    """An interval whose initial marked point is not merged keeps its
    coweight, and its boundary weights are those of the unglued picture."""
    tri = _two_copies(polygon5)
    rng = random.Random(32)
    kept = 0
    for e_l, e_r in (("Lb1", "Rb3"), ("Lb0", "Rb0"), ("Lb2", "Lb4")):
        t2, vertex_map = tri.glue_boundary(e_l, e_r)
        merged = {vertex_map[v] for e in (e_l, e_r) for v in tri.edge_endpoints(e)}
        for _ in range(10):
            pinned = _random_pinned(tri, rng)
            glued = glue_laminations(pinned, e_l, e_r)
            for e in t2.boundary_intervals:
                if t2.edge_endpoints(e)[0] not in merged:
                    assert glued.delta_at(e) == pinned.delta_at(e)
                    assert boundary_weights(glued.underlying, e) == boundary_weights(pinned.underlying, e)
                    kept += 1
    assert kept > 100


def _size(pic):
    """Corner entries plus honeycomb height, as ``MAX_PICTURE_SIZE`` counts."""
    return sum(h.height for h in pic.honeycombs.values()) + sum(map(len, pic.corners.values()))


@pytest.mark.parametrize("name", sorted(SURFACES))
@pytest.mark.parametrize("copies", ["self", "cross"])
def test_glue_size_bound_never_exceeds_the_built_size(name, copies, monkeypatch):
    """The bound gluing refuses by is at most the corner entries plus
    honeycomb height of the picture it builds, on the gluings the
    reference comparison makes."""
    reconstruct_module = importlib.import_module("sl3shear.reconstruct")
    tri = build(SURFACES[name])
    intervals = tri.boundary_intervals
    pairs = [(a, b) for a in intervals for b in intervals if a != b]
    if copies == "cross":
        tri = _two_copies(tri)
        pairs = [(f"L{a}", f"R{b}") for a in intervals for b in intervals]
        pairs += [(b, a) for a, b in pairs]
    rng = random.Random(f"{name}:{copies}")
    checked = 0
    for e_l, e_r in pairs:
        pinned = _random_pinned(tri, rng, entries=3)
        try:
            glued = glue_laminations(pinned, e_l, e_r)
        except Sl3Error:
            continue
        with monkeypatch.context() as m:
            m.setattr(reconstruct_module, "MAX_PICTURE_SIZE", -1)
            with pytest.raises(PictureTooLarge) as bound:
                glue_laminations(pinned, e_l, e_r)
        assert 0 <= bound.value.size <= _size(glued.underlying), (e_l, e_r)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("coweight", [10**7, -10**7])
def test_oversized_gluing_is_refused_before_walking(coweight, monkeypatch, tmp_path, capsys):
    """An empty picture pinned at a coweight of 10^7 would glue into at
    least 10^7 corner entries; the window bound refuses it with one line
    before any walk, allocating nothing large, and the CLI exits 1."""
    tri = two_triangle_fixture()
    pinned = PinnedLamination(GlobalPicture(tri), {"a2": (F(coweight), F(0))})

    def no_walk(*args):
        raise AssertionError("a strand was walked")

    with monkeypatch.context() as m:
        m.setattr(importlib.import_module("sl3shear.glue"), "components", no_walk)
        tracemalloc.start()
        try:
            with pytest.raises(PictureTooLarge, match="over the limit of 1000000") as refused:
                glue_laminations(pinned, "a2", "b0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert refused.value.size >= 10**7 and "\n" not in str(refused.value)
    assert peak < 10**6, peak
    surf, lam = tmp_path / "tri.json", tmp_path / "lam.json"
    surf.write_text(io.dump(io.triangulation_to_obj(tri)))
    lam.write_text(io.dump(io.pinned_to_obj(pinned)))
    argv = ["glue", "--surface", str(surf), "--lamination", str(lam), "--left", "a2", "--right", "b0"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "over the limit" in err, err


def test_glued_picture_past_the_bound_is_refused_as_built(monkeypatch):
    """An empty two-triangle picture pinned at coweight c glues into 2c
    corner entries while the window bound counts c: with the limit
    between the two, the bound passes and the built picture is refused
    by its own count."""
    tri = two_triangle_fixture()
    pinned = PinnedLamination(GlobalPicture(tri), {"a2": (F(1000), F(0))})
    assert _size(glue_laminations(pinned, "a2", "b0").underlying) == 2000
    monkeypatch.setattr(importlib.import_module("sl3shear.reconstruct"), "MAX_PICTURE_SIZE", 1500)
    with pytest.raises(PictureTooLarge, match="over the limit of 1500") as refused:
        glue_laminations(pinned, "a2", "b0")
    assert refused.value.size == 2000
