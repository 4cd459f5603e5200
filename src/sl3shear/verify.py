"""Randomized property suites: the shipping form of the acceptance
criteria.  Every suite is deterministic given its seed and checks exact
equality of rationals; there are no tolerances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .surface import MarkedSurfaceSpec, build
from .seeds import (
    Sl3IndexSet,
    exchange_matrix,
    m_matrix,
    matrix_entries,
    mutate_matrix,
    side_pair,
)
from .tropical import (
    TropicalPoint,
    apply_flip,
    dynkin_cluster,
    dynkin_cluster_by_mutation,
    ensemble,
    flip_x_closed_form,
    mutate_a,
    mutate_x,
    principal_embed,
)
from .laminations import (
    ARC_KINDS,
    PERIPHERAL_KINDS,
    QUADRILATERAL_KINDS,
    TRIANGLE_KINDS,
    CarrierMismatch,
    Component,
    ComponentSum,
    CornerArc,
    Honeycomb,
    InvalidPicture,
    PinnedLamination,
    cable,
    coords_of_components,
    shear_frozen,
)
from .io import dump, tropical_point_to_obj
from .reconstruct import elementary_lamination, identifier_relations, reconstruct, roundtrip_check
from .glue import ShiftElement, glue_coordinates, glue_laminations, shift_action


@dataclass
class SuiteResult:
    name: str
    ok: bool
    detail: str

    def line(self):
        return f"{'PASS' if self.ok else 'FAIL'}  {self.name}: {self.detail}"


# each fixture's surface and the CLI --spec that builds it, so that a
# counterexample names a call that reproduces it
_FIXTURES = {
    "triangle": (MarkedSurfaceSpec.polygon(3), "polygon:3"),
    "polygon4": (MarkedSurfaceSpec.polygon(4), "polygon:4"),
    "polygon5": (MarkedSurfaceSpec.polygon(5), "polygon:5"),
    "annulus11": (MarkedSurfaceSpec.annulus(1, 1), "annulus:1:1"),
    "torus": (MarkedSurfaceSpec.once_punctured_torus(), "once-punctured-torus"),
}


def _fixtures():
    return {name: build(spec) for name, (spec, _) in _FIXTURES.items()}


def _trials(names, trials):
    """Yield ``(name, tri, iset)`` ``trials`` times per named fixture,
    one fixture after another."""
    fx = _fixtures()
    for name in names:
        tri = fx[name]
        iset = Sl3IndexSet(tri)
        for _ in range(trials):
            yield name, tri, iset


def _random_rational(rng, num=20, den=8):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _random_x(rng, iset, num=20, den=8):
    return {i: _random_rational(rng, num, den) for i in iset.all}


def flip_equivalence_suite(trials=1000, seed=0):
    """Criterion 1: the 4-mutation flip composite equals the closed-form
    map exactly, with rational points, at every interior edge of
    polygon(4), polygon(5), annulus(1,1) and the once-punctured torus:
    ``trials`` points per fixture, each flipped at every interior edge."""
    rng = random.Random(seed)
    flips = fails = 0
    for _, tri, iset in _trials(("polygon4", "polygon5", "annulus11", "torus"), trials):
        p = TropicalPoint("X", _random_x(rng, iset), tri=tri)
        for e in tri.interior_edges:
            flips += 1
            fails += apply_flip(p, tri, e) != flip_x_closed_form(p, tri, e)
    return SuiteResult(
        "flip-equivalence", fails == 0,
        f"{flips} flips of rational points at every interior edge of 4 fixtures, {fails} mismatches",
    )


def roundtrip_suite(trials=500, seed=0, entry_range=6):
    """Criterion 2: shear(reconstruct(x)) == x, stable under one more
    spiral turn, on polygon(4), polygon(5), annulus(1,1) and the
    once-punctured torus."""
    rng = random.Random(seed)
    fails = []
    total = 0
    for name, tri, iset in _trials(("polygon4", "polygon5", "annulus11", "torus"), trials):
        coords = {i: Fraction(rng.randint(-entry_range, entry_range)) for i in iset.unfrozen}
        x = TropicalPoint("X", coords, tri=tri, restricted=True)
        rep = roundtrip_check(x, tri)
        total += 1
        if not (rep["ok"] and rep["stable"]):
            fails.append((name, x))
    detail = f"{total} integral vectors on 4 fixtures, {len(fails)} failures"
    if fails:
        name, x = fails[0]
        coords = dump(tropical_point_to_obj(x)["coords"])
        detail += f"; first on {name} (--spec {_FIXTURES[name][1]}): --coords '{coords}'"
    return SuiteResult("round-trip", not fails, detail)


def component_table_cases():
    fx = _fixtures()
    tri3, tri4 = fx["triangle"], fx["polygon4"]
    t3 = tri3.triangles[0]
    e4 = tri4.interior_edges[0]
    cases = []
    for kind in TRIANGLE_KINDS:
        for c in range(3) if kind in ARC_KINDS else (0,):
            cases.append((tri3, Component(kind, t3, Fraction(1), corner=c)))
    for kind in QUADRILATERAL_KINDS:
        cases.append((tri4, Component(kind, e4, Fraction(1))))
    for tri in (tri3, tri4):
        for v in sorted(tri.vertices):
            for kind in PERIPHERAL_KINDS:
                cases.append((tri, Component(kind, v, Fraction(1))))
    return cases


def _drawn_shear(s):
    """The X-coordinates of a component sum: the shear of its picture."""
    return shear_frozen(PinnedLamination(s.picture(), {}))


def ensemble_table_suite():
    """Criterion 3: the shear X of every component's picture and the A
    read off its drawing satisfy X = (eps + m) . A entry-exactly, and
    the paper's alpha and tau+ rows come out as (0,0,-1,0,0,0,0) and
    (1,0,-1,0,-1,0,-1)."""
    cases = component_table_cases()
    fails = []
    for tri, comp in cases:
        s = ComponentSum(tri, [comp])
        if _drawn_shear(s).coords != ensemble(coords_of_components(s), tri).coords:
            fails.append(comp.kind)
    tri3 = _fixtures()["triangle"]
    t3 = tri3.triangles[0]
    alpha = _drawn_shear(ComponentSum(tri3, [Component("alpha", t3, Fraction(1), corner=0)]))
    tau = _drawn_shear(ComponentSum(tri3, [Component("tau+", t3, Fraction(1))]))
    pairs = [side_pair(tri3, (t3, a)) for a in range(3)]
    order = [("tri", t3), pairs[1][0], pairs[1][1], pairs[2][0], pairs[2][1], pairs[0][0], pairs[0][1]]
    alpha_row = tuple(alpha[i] for i in order)
    tau_row = tuple(tau[i] for i in order)
    if alpha_row != (0, 0, -1, 0, 0, 0, 0):
        fails.append(f"alpha row {alpha_row}")
    if tau_row != (1, 0, -1, 0, -1, 0, -1):
        fails.append(f"tau+ row {tau_row}")
    n = len(cases) + 2
    return SuiteResult(
        "ensemble-tables", not fails, f"{n} table checks, failures: {fails or 'none'}"
    )


def ensemble_flip_suite(trials=300, seed=0):
    """Criterion 4: ensemble o (A-flip) == (X-flip) o ensemble on
    polygon(4), exactly."""
    rng = random.Random(seed)
    tri = _fixtures()["polygon4"]
    iset = Sl3IndexSet(tri)
    e = tri.interior_edges[0]
    fails = 0
    for _ in range(trials):
        a = TropicalPoint("A", _random_x(rng, iset), tri=tri)
        a2 = apply_flip(a, tri, e)
        lhs = ensemble(a2, a2.tri)
        rhs = apply_flip(ensemble(a, tri), tri, e)
        if lhs != rhs:
            fails += 1
    return SuiteResult(
        "ensemble-flip-commutation", fails == 0, f"{trials} rational A-points, {fails} mismatches"
    )


def ensemble_single_mutation_report(trials=200, seed=0):
    """The ensemble commutes with single arbitrary mutations when the
    frozen m-matrix is held fixed: m sits on frozen x frozen entries,
    which mutation updates without reading them.  Fails on any mismatch."""
    rng = random.Random(seed)
    tri = _fixtures()["polygon4"]
    iset, eps = exchange_matrix(tri)
    mm = m_matrix(tri)
    fails = 0
    for _ in range(trials):
        a = TropicalPoint("A", _random_x(rng, iset, num=10, den=4), tri=tri)
        k = rng.choice(iset.unfrozen)
        a2 = mutate_a(a, eps, k)
        lhs = {}
        for columns in (mutate_matrix(eps, k).columns, mm):
            for (i, j), v in matrix_entries(columns).items():
                if a2[j]:
                    lhs[i] = lhs.get(i, Fraction(0)) + v * a2[j]
        lhs = {k2: v for k2, v in lhs.items() if v}
        x0 = ensemble(a, tri)
        rhs = mutate_x(x0, eps, k)
        if lhs != dict(rhs.coords):
            fails += 1
    return SuiteResult(
        "ensemble-single-mutation (diagnostic)",
        fails == 0,
        f"{trials} single mutations, {fails} mismatches observed",
    )


def realizable_component_sum(tri, rng):
    """A random component sum that the drawer places: a candidate is kept
    only when the sum with it still draws, so its carrier rule holds and
    the honeycomb orientations within each triangle agree.  Peripheral
    components, which draw on every surface, are drawn alongside."""
    comps = []
    guard = 0
    while len(comps) < 3 and guard < 150:
        guard += 1
        if tri.interior_edges and rng.random() < 0.6:
            e = rng.choice(tri.interior_edges)
            comp = Component(rng.choice(list(QUADRILATERAL_KINDS)), e)
        else:
            t = rng.choice(tri.triangles)
            kind = rng.choice(list(TRIANGLE_KINDS))
            comp = Component(kind, t, corner=rng.randint(0, 2) if kind in ARC_KINDS else 0)
        try:
            ComponentSum(tri, comps + [comp]).picture()
        except (CarrierMismatch, InvalidPicture):
            pass
        else:
            comps.append(replace(comp, weight=Fraction(rng.randint(1, 3))))
        if rng.random() < 0.3:
            v = rng.choice(sorted(tri.vertices))
            comps.append(
                Component(rng.choice(list(PERIPHERAL_KINDS)), v, Fraction(rng.randint(1, 2)))
            )
    return ComponentSum(tri, comps)


def dynkin_suite(trials=500, seed=0):
    """Criterion 5: the closed-form Dynkin action equals the mutation
    composite, squares to the identity, and intertwines the geometric
    orientation reversal on component fixtures."""
    rng = random.Random(seed)
    fx = _fixtures()
    fails = []
    for name, tri, iset in _trials(("triangle", "polygon4", "annulus11", "torus"), trials):
        p = TropicalPoint("X", _random_x(rng, iset, num=12, den=6), tri=tri)
        q = dynkin_cluster(p, tri)
        if q != dynkin_cluster_by_mutation(p, tri):
            fails.append((name, "closed-vs-sequence"))
        if dynkin_cluster(q, tri) != p:
            fails.append((name, "involution"))
    for name in ("triangle", "polygon4"):
        tri = fx[name]
        for _ in range(200):
            s = realizable_component_sum(tri, rng)
            delta = {
                e: (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
                for e in tri.boundary_intervals
            }
            pl = PinnedLamination(s.picture(), delta)
            lhs = shear_frozen(pl.dynkin())
            rhs = dynkin_cluster(shear_frozen(pl), tri)
            if lhs != rhs:
                fails.append((name, "geometric"))
    return SuiteResult("dynkin-coherence", not fails, f"failures: {fails[:4] or 'none'}")


def two_triangle_fixture():
    return build(
        MarkedSurfaceSpec.table([("T0", ("a0", "a1", "a2")), ("T1", ("b0", "b1", "b2"))])
    )


def random_pinned_two_triangles(rng, integral=True):
    tri = two_triangle_fixture()
    honeycombs = {}
    corners = {}
    for t in tri.triangles:
        r = rng.randint(-3, 3)
        if r > 0:
            honeycombs[t] = (Honeycomb("sink", r), 1)
        elif r < 0:
            honeycombs[t] = (Honeycomb("source", -r), 1)
        for c in range(3):
            stack = []
            for _ in range(rng.randint(0, 3)):
                w = Fraction(rng.randint(1, 3)) if integral else Fraction(
                    rng.randint(1, 5), rng.randint(1, 3)
                )
                stack.append((CornerArc(rng.choice(["cw", "ccw"])), w, 1))
            if stack:
                corners[(t, c)] = stack
    pic = cable(tri, honeycombs, corners)
    delta = {}
    for e in tri.boundary_intervals:
        if integral:
            delta[e] = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        else:
            delta[e] = (
                Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
                Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
            )
    return PinnedLamination(pic, delta)


def _glued_expectation(x, e_l, e_r):
    want = {}
    e1, e2 = glue_coordinates(
        (x[("edge", e_l, 1)], x[("edge", e_l, 2)]),
        (x[("edge", e_r, 1)], x[("edge", e_r, 2)]),
    )
    if e1:
        want[("edge", e_l, 1)] = e1
    if e2:
        want[("edge", e_l, 2)] = e2
    for i, v in x.coords.items():
        if i[0] == "edge" and i[1] in (e_l, e_r):
            continue
        if v:
            want[i] = v
    return want


def amalgamation_suite(trials=200, shift_trials=100, seed=0):
    """Criterion 6: picture-level gluing of two triangles into the square
    satisfies the crosswise sum formula and is shift-invariant."""
    rng = random.Random(seed)
    fails = 0
    for _ in range(trials):
        pl = random_pinned_two_triangles(rng)
        x = shear_frozen(pl)
        glued = glue_laminations(pl, "a2", "b0")
        if dict(shear_frozen(glued).coords) != _glued_expectation(x, "a2", "b0"):
            fails += 1
    shift_fails = 0
    for _ in range(shift_trials):
        pl = random_pinned_two_triangles(rng, integral=bool(rng.getrandbits(1)))
        mu = ShiftElement(_random_rational(rng, 5, 3), _random_rational(rng, 5, 3))
        g1 = glue_laminations(pl, "a2", "b0")
        g2 = glue_laminations(shift_action(pl, "a2", "b0", mu), "a2", "b0")
        if shear_frozen(g1) != shear_frozen(g2):
            shift_fails += 1
    ok = fails == 0 and shift_fails == 0
    return SuiteResult(
        "amalgamation",
        ok,
        f"{trials} gluings ({fails} bad), {shift_trials} shifts ({shift_fails} bad)",
    )


def principal_suite(trials=200, seed=0):
    """Criterion 7: the embedded sl2 locus x_{E,1} = x_{E,2}, x_T = 0 is
    fixed by the Dynkin action and preserved by every flip."""
    rng = random.Random(seed)
    fails = []
    for name, tri, _ in _trials(_FIXTURES, trials):
        sl2 = {e: _random_rational(rng, 8, 4) for e in tri.edges}
        p = principal_embed(sl2, tri)
        for e in tri.edges:
            if p[("edge", e, 1)] != p[("edge", e, 2)]:
                fails.append((name, "locus"))
        if dynkin_cluster(p, tri) != p:
            fails.append((name, "dynkin-fixed"))
        for e in tri.interior_edges:
            q = apply_flip(p, tri, e)
            if any(q[("tri", t)] != 0 for t in q.tri.triangles) or any(
                q[("edge", e2, 1)] != q[("edge", e2, 2)] for e2 in q.tri.edges
            ):
                fails.append((name, f"flip {e}"))
    return SuiteResult("principal-locus", not fails, f"failures: {fails[:4] or 'none'}")


def elementary_suite():
    """Criterion 8: shear_frozen(elementary_lamination(k)) = -e_k for
    every index on the triangle and the square."""
    fx = _fixtures()
    fails = []
    for name in ("triangle", "polygon4"):
        tri = fx[name]
        iset = Sl3IndexSet(tri)
        for k in iset.all:
            pl = elementary_lamination(tri, k)
            x = shear_frozen(pl)
            if dict(x.coords) != {k: Fraction(-1)}:
                fails.append((name, k, dict(x.coords)))
    return SuiteResult("elementary-laminations", not fails, f"failures: {fails[:3] or 'none'}")


def traveler_suite(trials=100, seed=0):
    """Criterion 9: the identifier relations k_out + k_in = x_{E,1} +
    [x_{T_R}]_+ (and the mirrored sheet) on reconstructed fixtures."""
    rng = random.Random(seed)
    fails = 0
    total = 0
    for _, tri, iset in _trials(("polygon4", "polygon5", "annulus11", "torus"), trials):
        coords = {i: Fraction(rng.randint(-4, 4)) for i in iset.unfrozen}
        x = TropicalPoint("X", coords, tri=tri, restricted=True)
        pic = reconstruct(x, tri)
        total += 1
        if identifier_relations(pic, x):
            fails += 1
    return SuiteResult(
        "traveler-identifiers", fails == 0, f"{total} reconstructions, {fails} with violations"
    )


SUITES = {
    "flip": flip_equivalence_suite,
    "roundtrip": lambda trials, seed: roundtrip_suite(max(trials // 4, 1), seed),
    "ensemble-tables": lambda trials, seed: ensemble_table_suite(),
    "ensemble-flip": ensemble_flip_suite,
    "dynkin": lambda trials, seed: dynkin_suite(max(trials // 4, 1), seed),
    "amalgamation": lambda trials, seed: amalgamation_suite(trials, max(trials // 2, 1), seed),
    "principal": lambda trials, seed: principal_suite(max(trials // 4, 1), seed),
    "elementary": lambda trials, seed: elementary_suite(),
    "travelers": lambda trials, seed: traveler_suite(max(trials // 4, 1), seed),
}


def run_suites(names, trials, seed):
    """Run the named suites at ``trials`` trials each, scaled per suite,
    and the single-mutation report; a count below 1 is refused."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
    results = []
    for name in names:
        results.append(SUITES[name](trials, seed))
    results.append(ensemble_single_mutation_report(min(trials, 200), seed))
    return results
