"""Acceptance criteria, one test per criterion.

Every check is exact (tolerance zero); each test prints a PASS line with
its trial counts when it succeeds.  Criteria and trial counts:

1. flip equivalence, >= 1000 rational points per fixture, each flipped
   at every interior edge of four fixtures: square, pentagon,
   annulus(1,1), once-punctured torus;
2. round trip shear o reconstruct = id, >= 500 integral vectors on each
   of square, pentagon, annulus(1,1), once-punctured torus, stable
   under one more spiral turn;
3. ensemble relation X = (eps+m) A for every component table, with the
   two pinned rows of the triangle tables;
4. ensemble-flip commutation, >= 300 rational A-points;
5. Dynkin coherence: closed form = mutation composite (>= 500 points per
   fixture), involution, and geometric equivariance on component sums;
6. amalgamation: >= 200 picture-level gluings match the crosswise sums,
   >= 100 random shifts leave the result unchanged;
7. principal locus: >= 200 embeddings per fixture, fixed by Dynkin and
   preserved by all flips;
8. elementary laminations hit exactly minus the unit vectors;
9. traveler identifiers satisfy the biangle relations on reconstructed
   fixtures.
"""

import random
import time
from fractions import Fraction

from sl3shear.verify import (
    amalgamation_suite,
    dynkin_suite,
    elementary_suite,
    ensemble_flip_suite,
    ensemble_single_mutation_report,
    ensemble_table_suite,
    flip_equivalence_suite,
    principal_suite,
    roundtrip_suite,
    traveler_suite,
)

SEED = 20260810


def _report(result, budget=None, elapsed=None):
    extra = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\n{result.line()}{extra}")
    assert result.ok, result.detail
    if budget is not None and elapsed is not None:
        assert elapsed < budget, f"runtime {elapsed:.1f}s over budget {budget}s"


def test_criterion_1_flip_equivalence():
    t0 = time.time()
    res = flip_equivalence_suite(trials=1000, seed=SEED)
    _report(res, budget=5.0, elapsed=time.time() - t0)


def test_criterion_2_round_trip():
    t0 = time.time()
    res = roundtrip_suite(trials=500, seed=SEED, entry_range=5)
    _report(res, budget=30.0, elapsed=time.time() - t0)


def test_criterion_3_ensemble_tables():
    _report(ensemble_table_suite())


def test_criterion_4_ensemble_flip_commutation():
    res = ensemble_flip_suite(trials=300, seed=SEED)
    _report(res)


def test_criterion_5_dynkin_coherence():
    res = dynkin_suite(trials=500, seed=SEED)
    _report(res)


def test_criterion_6_amalgamation():
    res = amalgamation_suite(trials=200, shift_trials=100, seed=SEED)
    _report(res)


def test_criterion_7_principal_locus():
    res = principal_suite(trials=200, seed=SEED)
    _report(res)


def test_criterion_8_elementary_laminations():
    _report(elementary_suite())


def test_criterion_9_traveler_identifiers():
    res = traveler_suite(trials=125, seed=SEED)
    _report(res)


def test_single_mutation_commutation_diagnostic():
    # gated: m sits on frozen x frozen entries, which the mutation rule
    # updates without reading them, so ensemble and mutation commute
    res = ensemble_single_mutation_report(trials=200, seed=SEED)
    print(f"\n{res.line()}")
    assert res.ok, res.detail


def test_single_mutation_gate_catches_a_wrong_mutation(monkeypatch, capsys):
    """A wrong ``mutate_x`` fails the report, and ``verify`` exits 1."""
    import sl3shear.verify as verify
    from sl3shear.cli import main
    from sl3shear.tropical import TropicalPoint

    right = verify.mutate_x

    def wrong(p, eps, k):
        q = right(p, eps, k)
        return TropicalPoint(q.kind, {**q.coords, k: q[k] + 1}, tri=q.tri, restricted=q.restricted)

    monkeypatch.setattr(verify, "mutate_x", wrong)
    res = ensemble_single_mutation_report(trials=20, seed=SEED)
    assert not res.ok and res.line().startswith("FAIL"), res.line()
    assert main(["verify", "--suite", "elementary", "--trials", "1", "--seed", "0"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2].startswith("FAIL  ensemble-single-mutation") and out[-1] == "verification: FAIL"


def test_roundtrip_counterexample_reproduces(monkeypatch, tmp_path, capsys):
    """A planted wrong round-trip check fails the suite, and its detail
    names the first failing fixture with coordinates, written by
    ``sl3shear.io.dump``, on which ``reconstruct --check`` reports
    ``ok: false`` under the same check."""
    import json
    import re

    import sl3shear.cli as cli
    import sl3shear.io as jio
    import sl3shear.verify as verify
    from sl3shear.cli import main

    right = verify.roundtrip_check

    def wrong(x, tri):
        # wrong only on punctured surfaces (of the four fixtures, the
        # torus), for entries summing to 1 mod 3
        rep = right(x, tri)
        bad = "puncture" in tri.vertices.values() and sum(x.coords.values()) % 3 == 1
        return {**rep, "ok": rep["ok"] and not bad}

    monkeypatch.setattr(verify, "roundtrip_check", wrong)
    res = roundtrip_suite(trials=10, seed=SEED)
    assert not res.ok and res.line().startswith("FAIL  round-trip: 40 integral vectors"), res.line()
    found = re.search(r"; first on (\S+) \(--spec (\S+)\): --coords '(.*)'$", res.detail)
    assert found, res.detail
    name, spec, coords = found.groups()
    assert (name, spec) == ("torus", "once-punctured-torus")
    # written by the one JSON writer, in its layout
    assert coords == jio.dump(json.loads(coords))

    surf = tmp_path / "surface.json"
    assert main(["surface", "--spec", spec, "--out", str(surf)]) == 0
    argv = ["reconstruct", "--surface", str(surf), "--coords", coords, "--check"]
    for check, ok in ((right, True), (wrong, False)):
        monkeypatch.setattr(cli, "roundtrip_check", check)
        capsys.readouterr()
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["roundtrip"]["ok"] is ok
