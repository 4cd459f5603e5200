"""The benchmark workloads.

Each workload builds its surfaces and generates a pool of inputs from the
workload seed when it is constructed, before any timing starts; the
library only ever receives those inputs.  ``op(i)`` runs the ``i``-th
operation and checks its result exactly, raising :class:`Mismatch` when a
check fails.  Ops run in order from 0 and draw their inputs from the
pool in order, so a run with the same seed does the same work in the
same order.  Pools hold several times more inputs than a 35-second run
of the library as it stands consumes; a much faster library starts
reusing them.
"""

from __future__ import annotations

import hashlib
import io as _stdio
import random
from fractions import Fraction


class Mismatch(Exception):
    """An operation returned a result its exact check rejects."""


class Workload:
    name = ""
    cycle = 1  # ops per round-robin cycle over the workload's surfaces
    count_ops = 0  # ops after warm-up whose per-layer counts are reported

    def __init__(self, lib, seed):
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}")

    def _pool(self, size, entry):
        """``size`` inputs made by ``entry(rng, n)``.  The first ``cycle``,
        which the warm-up runs, come from a generator fixed for every
        seed, so set-up time does not depend on the seed."""
        warm_up = random.Random(f"{self.name}:warm-up")
        return [entry(warm_up if n < self.cycle else self.rng, n) for n in range(size)]

    def digest(self):
        """SHA-256 of the generated inputs."""
        return hashlib.sha256(repr(self.inputs()).encode("utf-8")).hexdigest()

    def inputs(self):
        raise NotImplementedError

    def op(self, i):
        raise NotImplementedError


class Roundtrip(Workload):
    """``roundtrip_check`` on integral vectors with entries in [-5, 5],
    round-robin over the four criterion-2 fixtures."""

    name = "roundtrip"
    cycle = 4
    count_ops = 100
    pool_size = 8192
    entry_range = 5

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        spec = lib.surface.MarkedSurfaceSpec
        self.specs = (spec.polygon(4), spec.polygon(5), spec.annulus(1, 1),
                      spec.once_punctured_torus())
        self.tris = [lib.surface.build(s) for s in self.specs]
        self.labels = [lib.seeds.Sl3IndexSet(t).unfrozen for t in self.tris]
        values = range(-self.entry_range, self.entry_range + 1)
        self.pool = self._pool(
            self.pool_size,
            lambda rng, n: tuple(rng.choices(values, k=len(self.labels[n % self.cycle]))),
        )

    def inputs(self):
        return (self.specs, self.labels, self.pool)

    def op(self, i):
        s = i % self.cycle
        tri = self.tris[s]
        coords = dict(zip(self.labels[s], self.pool[i % self.pool_size]))
        x = self.lib.tropical.TropicalPoint("X", coords, tri=tri, restricted=True)
        rep = self.lib.reconstruct.roundtrip_check(x, tri)
        if not (rep["ok"] and rep["stable"]):
            raise Mismatch(f"roundtrip_check failed on op {i}")
        if rep["shear"].coords != {k: v for k, v in coords.items() if v}:
            raise Mismatch(f"shear of the reconstruction differs from x on op {i}")


class FlipWalk(Workload):
    """One step of a seeded random flip walk per op, round-robin over
    three surfaces; a rational X-point and A-point are transported.

    Each surface draws (edge, X-point, A-point) candidates from its own
    pregenerated sequence.  A candidate whose flip would create a
    self-folded triangle is refused (the tracer counts it) and the next
    one is drawn, so every op performs one flip."""

    name = "flip_walk"
    cycle = 3
    count_ops = 90  # long enough for refusals to show on most seeds
    pool_size = 4096  # candidates per surface
    points = 64  # X-points and A-points per surface

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        spec = lib.surface.MarkedSurfaceSpec
        self.specs = (spec.polygon(24), spec.punctured_polygon(8, 2), spec.annulus(3, 3))
        self.walk = [lib.surface.build(s) for s in self.specs]
        self.cursor = [0] * self.cycle
        # a flip keeps edge and triangle ids, so the index labels and the
        # interior edges of the starting triangulation hold along the walk
        labels = [lib.seeds.Sl3IndexSet(t).all for t in self.walk]
        self.xs = [[self._point(ls) for _ in range(self.points)] for ls in labels]
        self.as_ = [[self._point(ls) for _ in range(self.points)] for ls in labels]
        self.candidates = [
            [
                (self.rng.choice(t.interior_edges),
                 self.rng.randrange(self.points),
                 self.rng.randrange(self.points))
                for _ in range(self.pool_size)
            ]
            for t in self.walk
        ]

    def _point(self, labels):
        nums = self.rng.choices(range(-20, 21), k=len(labels))
        dens = self.rng.choices(range(1, 9), k=len(labels))
        return {i: Fraction(n, d) for i, n, d in zip(labels, nums, dens)}

    def inputs(self):
        return (self.specs, self.xs, self.as_, self.candidates)

    def _flip(self, s, tri):
        """The first candidate flip of surface ``s`` that is not refused."""
        tr = self.lib.tropical
        for _ in range(self.pool_size):
            e, xi, ai = self.candidates[s][self.cursor[s] % self.pool_size]
            self.cursor[s] += 1
            x = tr.TropicalPoint("X", self.xs[s][xi], tri=tri)
            try:
                return e, x, tr.apply_flip(x, tri, e), self.as_[s][ai]
            except self.lib.surface.FlipCreatesSelfFolded:
                continue
        raise Mismatch(f"every candidate flip refused on {self.specs[s]}")

    def op(self, i):
        tr = self.lib.tropical
        s = i % self.cycle
        tri = self.walk[s]
        e, x, q, a_coords = self._flip(s, tri)
        t2 = q.tri
        try:
            closed = tr.flip_x_closed_form(x, tri, e)
        except tr.BadLabeling:
            closed = q  # quadrilateral with identified sides: no closed form
        if closed != q:
            raise Mismatch(f"closed-form flip differs from the mutation sequence on op {i}")
        a = tr.TropicalPoint("A", a_coords, tri=tri)
        a2 = tr.apply_flip(a, tri, e)
        if tr.ensemble(a2, a2.tri) != tr.apply_flip(tr.ensemble(a, tri), tri, e):
            raise Mismatch(f"ensemble does not commute with the flip on op {i}")
        if tr.dynkin_cluster(tr.dynkin_cluster(q, t2), t2) != q:
            raise Mismatch(f"Dynkin action is not an involution on op {i}")
        self.walk[s] = t2


def _pentagon(p):
    return [
        (f"{p}1", (f"{p}b0", f"{p}b1", f"{p}d2")),
        (f"{p}2", (f"{p}d2", f"{p}b2", f"{p}d3")),
        (f"{p}3", (f"{p}d3", f"{p}b3", f"{p}b4")),
    ]


class Amalgamate(Workload):
    """Reconstruct, pin, glue two disjoint pentagons along one boundary
    interval each, and round-trip the result through JSON.

    The two intervals lie on different components because only that case
    has an oracle: self-gluing two intervals of one polygon disagrees
    with the crosswise formula on interior-edge coordinates (see
    README.md)."""

    name = "amalgamate"
    cycle = 1
    count_ops = 30
    pool_size = 4096
    entry_range = 20
    coweight_range = 10

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.spec = lib.surface.MarkedSurfaceSpec.table(_pentagon("L") + _pentagon("R"))
        self.tri = lib.surface.build(self.spec)
        self.labels = lib.seeds.Sl3IndexSet(self.tri).unfrozen
        self.intervals = self.tri.boundary_intervals
        left = [e for e in self.intervals if e.startswith("L")]
        right = [e for e in self.intervals if e.startswith("R")]
        values = range(-self.entry_range, self.entry_range + 1)
        pins = range(-self.coweight_range, self.coweight_range + 1)
        self.pool = self._pool(
            self.pool_size,
            lambda rng, n: (
                tuple(rng.choices(values, k=len(self.labels))),
                tuple(rng.choices(pins, k=2 * len(self.intervals))),
                rng.choice(left),
                rng.choice(right),
            ),
        )

    def inputs(self):
        return (self.spec, self.labels, self.pool)

    def op(self, i):
        lib = self.lib
        lam = lib.laminations
        values, pins, e_l, e_r = self.pool[i % self.pool_size]
        x = lib.tropical.TropicalPoint(
            "X", dict(zip(self.labels, values)), tri=self.tri, restricted=True
        )
        pic = lib.reconstruct.reconstruct(x, self.tri)
        if lam.shear_unfrozen(pic) != x:
            raise Mismatch(f"shear of the reconstruction differs from x on op {i}")
        if lib.reconstruct.identifier_relations(pic, x):
            raise Mismatch(f"identifier relations violated on op {i}")
        delta = {
            e: (Fraction(pins[2 * n]), Fraction(pins[2 * n + 1]))
            for n, e in enumerate(self.intervals)
        }
        pinned = lam.PinnedLamination(pic, delta)
        glued = lib.glue.glue_laminations(pinned, e_l, e_r)
        glued_x = lam.shear_frozen(glued)
        want = lib.verify._glued_expectation(lam.shear_frozen(pinned), e_l, e_r)
        if glued_x.coords != want:
            raise Mismatch(f"glued shear breaks the crosswise formula on op {i}")
        text = lib.io.dump(lib.io.pinned_to_obj(glued))
        back = lib.io.pinned_from_obj(lib.io.load(_stdio.StringIO(text)), glued.tri)
        if lam.shear_frozen(back) != glued_x:
            raise Mismatch(f"JSON round trip changed the glued shear on op {i}")


WORKLOADS = {w.name: w for w in (Roundtrip, FlipWalk, Amalgamate)}
