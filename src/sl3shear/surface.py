"""Combinatorial marked surfaces and their ideal triangulations.

A triangulation is stored as an abstract gluing table: each triangle has
three sides in counterclockwise order, and each edge occupies either two
side slots (interior edge) or one (boundary interval).  There is no
geometric embedding; every gluing is orientation-compatible by
construction, so the surfaces are always oriented.

Edge orientation convention: every edge carries a distinguished slot
(``slot_l``).  The edge is oriented so that its traversal agrees with the
counterclockwise boundary traversal of the triangle holding ``slot_l``;
that triangle then lies on the left of the oriented edge.  For a boundary
interval the unique slot is ``slot_l``, which makes the edge orientation
agree with the boundary orientation of the surface.
"""

from __future__ import annotations

from dataclasses import dataclass


class Sl3Error(Exception):
    """Root of every error the library raises."""


class SurfaceError(Sl3Error):
    pass


class SpecViolatesSurfaceConditions(SurfaceError):
    """A requested marked surface violates one of the conditions (S1)-(S4)."""

    def __init__(self, condition, message=""):
        self.condition = condition
        super().__init__(f"{condition}: {message}" if message else condition)


class SelfFoldedUnavoidable(SurfaceError):
    pass


class NotInteriorEdge(SurfaceError):
    pass


class FlipCreatesSelfFolded(SurfaceError):
    pass


class SameEdge(SurfaceError):
    pass


class ResultViolatesSurfaceConditions(SurfaceError):
    pass


PUNCTURE = "puncture"
SPECIAL = "special"


@dataclass(frozen=True)
class MarkedSurfaceSpec:
    """Generator for the supported families of marked surfaces.

    ``kind`` is one of ``"polygon"``, ``"punctured-polygon"``,
    ``"annulus"``, ``"once-punctured-torus"`` or ``"table"``.  For the
    ``"table"`` kind, ``triangles`` lists ``(tri_id, (e0, e1, e2))`` with
    sides in counterclockwise order; edges appearing twice are interior.
    """

    kind: str
    k: int = 0
    p: int = 0
    m1: int = 0
    m2: int = 0
    triangles: tuple = ()

    @staticmethod
    def polygon(k):
        return MarkedSurfaceSpec("polygon", k=k)

    @staticmethod
    def punctured_polygon(k, p):
        return MarkedSurfaceSpec("punctured-polygon", k=k, p=p)

    @staticmethod
    def annulus(m1, m2):
        return MarkedSurfaceSpec("annulus", m1=m1, m2=m2)

    @staticmethod
    def once_punctured_torus():
        return MarkedSurfaceSpec("once-punctured-torus")

    @staticmethod
    def table(triangles):
        return MarkedSurfaceSpec("table", triangles=tuple(triangles))


class IdealTriangulation:
    """An ideal triangulation without self-folded triangles.

    Values are immutable after construction: flips and gluings return new
    objects.  Triangles are identified by string ids; the three sides of
    triangle ``t`` are ``tri_sides[t]``, a tuple of edge ids in
    counterclockwise order.  ``triangles``, ``edges``, ``interior_edges``
    and ``boundary_intervals`` are sorted lists built at construction;
    callers must not modify them.
    """

    def __init__(self, tri_sides, slot_l=None):
        # tri_sides: dict tri -> (e0, e1, e2).  slot_l: optional dict
        # edge -> (tri, i) designating the left slot; defaults to the
        # first slot in sorted triangle order.
        self.tri_sides = {t: tuple(sides) for t, sides in tri_sides.items()}
        occ = {}
        for t in sorted(self.tri_sides):
            sides = self.tri_sides[t]
            if len(sides) != 3:
                raise ValueError(f"triangle {t} does not have 3 sides")
            for i, e in enumerate(sides):
                occ.setdefault(e, []).append((t, i))
        for e, slots in occ.items():
            if len(slots) > 2:
                raise ValueError(f"edge {e} occurs in more than two side slots")
        self._slots = {}
        for e, slots in occ.items():
            if slot_l and e in slot_l:
                l = tuple(slot_l[e])
                if l not in slots:
                    raise ValueError(f"designated left slot of {e} not found")
                r = [s for s in slots if s != l]
                self._slots[e] = (l, r[0] if r else None)
            else:
                self._slots[e] = (slots[0], slots[1] if len(slots) > 1 else None)
        # sorted once: read-only lists shared by every caller
        self.triangles = sorted(self.tri_sides)
        self.edges = sorted(self._slots)
        self.interior_edges = [e for e in self.edges if self._slots[e][1] is not None]
        self.boundary_intervals = [e for e in self.edges if self._slots[e][1] is None]
        self._vertices, self._corner_vertex = self._compute_vertices()

    # -- basic queries ---------------------------------------------------

    def has_edge(self, e):
        return e in self._slots

    def slots(self, e):
        """The (left, right) side slots of ``e``; right is None on the boundary."""
        return self._slots[e]

    def is_boundary(self, e):
        return self._slots[e][1] is None

    def is_interior(self, e):
        return self._slots[e][1] is not None

    def edge_at(self, slot):
        t, i = slot
        return self.tri_sides[t][i]

    # Corners: (t, i) is the corner at the terminal endpoint of side i,
    # equivalently the initial endpoint of side i+1, of triangle t.

    def _compute_vertices(self):
        corners = [(t, i) for t in sorted(self.tri_sides) for i in range(3)]
        parent = {c: c for c in corners}

        def find(c):
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        for e, (sl, sr) in self._slots.items():
            if sr is None:
                continue
            (tl, il), (tr, ir) = sl, sr
            # terminal corner on the left side = initial corner on the right
            union((tl, il), (tr, (ir - 1) % 3))
            union((tl, (il - 1) % 3), (tr, ir))
        classes = {}
        for c in corners:
            classes.setdefault(find(c), []).append(c)
        corner_vertex = {}
        vertices = {}
        for n, root in enumerate(sorted(classes)):
            vid = f"v{n}"
            on_boundary = False
            for (t, i) in classes[root]:
                for side in (i, (i + 1) % 3):
                    if self.is_boundary(self.tri_sides[t][side]):
                        on_boundary = True
            vertices[vid] = SPECIAL if on_boundary else PUNCTURE
            for c in classes[root]:
                corner_vertex[c] = vid
        return vertices, corner_vertex

    @property
    def vertices(self):
        """Map vertex id -> class ('puncture' or 'special')."""
        return dict(self._vertices)

    def corner_vertex(self, t, i):
        return self._corner_vertex[(t, i % 3)]

    def punctures(self):
        return sorted(v for v, c in self._vertices.items() if c == PUNCTURE)

    def edge_endpoints(self, e):
        """(initial vertex, terminal vertex) of the oriented edge ``e``."""
        (tl, il), _ = self._slots[e]
        return (self.corner_vertex(tl, il - 1), self.corner_vertex(tl, il))

    def corners_at_vertex(self, v):
        return sorted(c for c, w in self._corner_vertex.items() if w == v)

    def other_slot(self, slot):
        e = self.edge_at(slot)
        sl, sr = self._slots[e]
        if slot == sl:
            return sr
        if slot == sr:
            return sl
        raise ValueError(f"{slot} is not a slot of {e}")

    # -- counts and validation -------------------------------------------

    def euler_char_punctured(self):
        """Euler characteristic of the surface with punctures removed."""
        n_special = sum(1 for c in self._vertices.values() if c == SPECIAL)
        return n_special - len(self._slots) + len(self.tri_sides)

    def n_special(self):
        return sum(1 for c in self._vertices.values() if c == SPECIAL)

    def validate(self):
        """Return a list of diagnostics; empty iff all invariants hold."""
        diags = []
        for t in self.triangles:
            sides = self.tri_sides[t]
            if len(set(sides)) < 3:
                diags.append(f"self-folded triangle at {t}")
        for e, (sl, sr) in self._slots.items():
            for slot in (sl, sr):
                if slot is not None and self.edge_at(slot) != e:
                    diags.append(f"slot table inconsistent at edge {e}")
        chi = self.euler_char_punctured()
        mb = self.n_special()
        if len(self.edges) != -3 * chi + 2 * mb:
            diags.append("edge-count identity violated")
        if len(self.interior_edges) != -3 * chi + mb:
            diags.append("interior-edge-count identity violated")
        if len(self.triangles) != -2 * chi + mb:
            diags.append("triangle-count identity violated")
        if -3 * chi + 2 * mb <= 0:
            diags.append("surface condition S2 violated")
        # interior edges must join distinct triangles (follows from
        # no-self-folding, but hand-built tables can break it)
        for e in self.interior_edges:
            (tl, _), (tr, _) = self._slots[e]
            if tl == tr:
                diags.append(f"edge {e} has both slots in triangle {tl}")
        return diags

    # -- canonical form and isomorphism ----------------------------------

    def canonical_form(self):
        """A canonical encoding, equal for isomorphic triangulations.

        Isomorphisms are orientation-preserving relabelings of triangles
        and edges.  The encoding is the minimum over all rooted
        breadth-first traversals.
        """
        best = None
        for t0 in self.triangles:
            for r in range(3):
                enc = self._bfs_encoding(t0, r)
                if best is None or enc < best:
                    best = enc
        return best

    def _bfs_encoding(self, t0, r0):
        tri_label = {t0: 0}
        tri_rot = {t0: r0}
        edge_label = {}
        order = [t0]
        out = []
        qi = 0
        while qi < len(order):
            t = order[qi]
            qi += 1
            r = tri_rot[t]
            row = []
            for j in range(3):
                e = self.tri_sides[t][(r + j) % 3]
                if e not in edge_label:
                    edge_label[e] = len(edge_label)
                row.append(edge_label[e])
                other = self.other_slot((t, (r + j) % 3))
                if other is None:
                    row.append(-1)
                else:
                    t2, i2 = other
                    if t2 not in tri_label:
                        tri_label[t2] = len(tri_label)
                        tri_rot[t2] = i2
                        order.append(t2)
                    row.append(tri_label[t2])
            out.append(tuple(row))
        return tuple(out)

    def is_isomorphic(self, other):
        return self.canonical_form() == other.canonical_form()

    # -- flips ------------------------------------------------------------

    def flip_edge(self, e):
        """Flip the interior edge ``e``.

        Returns ``(t2, corr)`` where ``t2`` is the flipped triangulation
        and ``corr`` an :class:`EdgeCorrespondence`.  The edge id ``e`` is
        reused for the new diagonal, which is oriented from the corner
        shared by the two ``T_L``-sides to the corner shared by the two
        ``T_R``-sides (so the new left triangle is the one containing the
        old terminal corner of ``e``).
        """
        if self.is_boundary(e):
            raise NotInteriorEdge(e)
        (tl, il), (tr, ir) = self._slots[e]
        g = self.tri_sides[tl][(il + 1) % 3]
        f = self.tri_sides[tl][(il + 2) % 3]
        h = self.tri_sides[tr][(ir + 1) % 3]
        k = self.tri_sides[tr][(ir + 2) % 3]
        if g == k or f == h:
            raise FlipCreatesSelfFolded(e)
        tri_sides = dict(self.tri_sides)
        # tl becomes the new "top" triangle (old terminal corner of e),
        # tr the new "bottom" triangle.
        tri_sides[tl] = (e, k, g)
        tri_sides[tr] = (f, h, e)
        # each outer side keeps its traversal direction, so left slots move
        # by role: g,f were the other sides of tl; h,k those of tr
        role = {
            (tl, (il + 1) % 3): (tl, 2),
            (tl, (il + 2) % 3): (tr, 0),
            (tr, (ir + 1) % 3): (tr, 1),
            (tr, (ir + 2) % 3): (tl, 1),
        }
        slot_l = {}
        for e2, (sl, _) in self._slots.items():
            if e2 == e:
                continue
            slot_l[e2] = role.get(sl, sl)
        slot_l[e] = (tl, 0)
        t2 = IdealTriangulation(tri_sides, slot_l=slot_l)
        corr = EdgeCorrespondence.for_flip(self, e, tl, tr)
        return t2, corr

    # -- gluing -----------------------------------------------------------

    def glue_boundary(self, e_l, e_r):
        """Glue two boundary intervals; returns ``(t2, GlueResult)``.

        The initial endpoint of ``e_l`` is identified with the terminal
        endpoint of ``e_r`` and vice versa.  The merged edge keeps the id
        ``e_l`` with its orientation (its triangle stays on the left).
        """
        if e_l == e_r:
            raise SameEdge(e_l)
        if not self.is_boundary(e_l) or not self.is_boundary(e_r):
            raise ValueError("gluing requires two boundary intervals")
        (sl, _), (sr, _) = self._slots[e_l], self._slots[e_r]
        tri_sides = {}
        for t, sides in self.tri_sides.items():
            tri_sides[t] = tuple(e_l if e == e_r else e for e in sides)
        slot_l = {e: s for e, (s, _) in self._slots.items() if e != e_r}
        slot_l[e_l] = sl
        try:
            t2 = IdealTriangulation(tri_sides, slot_l=slot_l)
        except ValueError as exc:
            raise ResultViolatesSurfaceConditions(str(exc))
        diags = t2.validate()
        if diags:
            raise ResultViolatesSurfaceConditions("; ".join(diags))
        vertex_map = {}
        for (t, i), v in self._corner_vertex.items():
            vertex_map[v] = t2.corner_vertex(t, i)
        return t2, GlueResult(new_edge=e_l, vertex_map=vertex_map)


@dataclass(frozen=True)
class GlueResult:
    new_edge: str
    vertex_map: dict


@dataclass(frozen=True)
class EdgeCorrespondence:
    """Bookkeeping for a flip: the seed-index bijection.

    ``index_map`` sends every index of the old triangulation's index set
    to the corresponding index of the new one (faces of the two flipped
    triangles trade places with the diagonal's two edge indices).
    """

    index_map: dict

    @staticmethod
    def for_flip(t_old, e, tl, tr):
        index_map = {}
        for e2 in t_old.edges:
            if e2 == e:
                continue
            index_map[("edge", e2, 1)] = ("edge", e2, 1)
            index_map[("edge", e2, 2)] = ("edge", e2, 2)
        for t in t_old.triangles:
            if t not in (tl, tr):
                index_map[("tri", t)] = ("tri", t)
        # local labels 1,3 (diagonal) become the new faces; local labels
        # 2,4 (faces) become the new diagonal's vertices
        index_map[("edge", e, 2)] = ("tri", tl)
        index_map[("edge", e, 1)] = ("tri", tr)
        index_map[("tri", tl)] = ("edge", e, 1)
        index_map[("tri", tr)] = ("edge", e, 2)
        return EdgeCorrespondence(index_map=index_map)


# -- canonical families ----------------------------------------------------


def _polygon(k):
    tri_sides = {}
    slot_l = {}
    for j in range(1, k - 1):
        s0 = f"d{j}" if j >= 2 else "b0"
        s1 = f"b{j}"
        s2 = f"d{j+1}" if j + 1 <= k - 2 else f"b{k-1}"
        t = f"T{j}"
        tri_sides[t] = (s0, s1, s2)
        if j >= 2:
            slot_l[f"d{j}"] = (t, 0)
    return IdealTriangulation(tri_sides, slot_l=slot_l)


def _punctured_polygon(k, p):
    # fan from the first puncture; extra punctures subdivide triangles
    tri_sides = {}
    slot_l = {}
    for i in range(k):
        t = f"T{i}"
        tri_sides[t] = (f"r{i}", f"b{i}", f"r{(i+1) % k}")
        slot_l[f"r{i}"] = (t, 0)
    tri = IdealTriangulation(tri_sides, slot_l=slot_l)
    for extra in range(1, p):
        t = tri.triangles[-1]
        tri = _subdivide(tri, t, tag=f"p{extra}")
    return tri


def _subdivide(tri, t, tag):
    """Replace triangle ``t`` by three triangles around a new puncture."""
    e0, e1, e2 = tri.tri_sides[t]
    tri_sides = {u: s for u, s in tri.tri_sides.items() if u != t}
    s = [f"{tag}s{i}" for i in range(3)]
    names = [f"{t}{tag}a", f"{t}{tag}b", f"{t}{tag}c"]
    tri_sides[names[0]] = (s[0], e0, s[1])
    tri_sides[names[1]] = (s[1], e1, s[2])
    tri_sides[names[2]] = (s[2], e2, s[0])
    slot_l = {}
    for e, (sl, _) in tri._slots.items():
        if sl[0] == t:
            for n, sides in ((names[0], tri_sides[names[0]]),
                             (names[1], tri_sides[names[1]]),
                             (names[2], tri_sides[names[2]])):
                if e in sides:
                    slot_l[e] = (n, sides.index(e))
                    break
        else:
            slot_l[e] = sl
    for i in range(3):
        slot_l[s[i]] = (names[i], 0)
    return IdealTriangulation(tri_sides, slot_l=slot_l)


def _once_punctured_torus():
    tri_sides = {"T0": ("a", "b", "c"), "T1": ("a", "b", "c")}
    slot_l = {"a": ("T0", 0), "b": ("T0", 1), "c": ("T0", 2)}
    return IdealTriangulation(tri_sides, slot_l=slot_l)


def _annulus(m1, m2):
    poly = _polygon(m1 + m2 + 2)
    glued, _ = poly.glue_boundary("b0", f"b{m1+1}")
    return glued


def build(spec):
    """Build the canonical ideal triangulation of a marked surface spec."""
    if spec.kind == "polygon":
        k = spec.k
        if k == 2:
            raise SpecViolatesSurfaceConditions("S3", "a biangle has no ideal triangulation")
        if k < 2:
            raise SpecViolatesSurfaceConditions("S2", f"polygon({k}) has no edges")
        return _polygon(k)
    if spec.kind == "punctured-polygon":
        k, p = spec.k, spec.p
        if p < 1:
            raise SpecViolatesSurfaceConditions("S2", "no punctures requested")
        if k < 1:
            raise SpecViolatesSurfaceConditions("S1", "boundary needs a marked point")
        if k == 1 and p == 1:
            raise SpecViolatesSurfaceConditions("S4", "once-punctured monogon")
        return _punctured_polygon(k, p)
    if spec.kind == "annulus":
        if spec.m1 < 1 or spec.m2 < 1:
            raise SpecViolatesSurfaceConditions("S1", "each boundary circle needs a marked point")
        return _annulus(spec.m1, spec.m2)
    if spec.kind == "once-punctured-torus":
        return _once_punctured_torus()
    if spec.kind == "table":
        try:
            tri = IdealTriangulation(dict(spec.triangles))
        except ValueError as exc:
            raise SelfFoldedUnavoidable(str(exc))
        diags = tri.validate()
        for d in diags:
            if "self-folded" in d:
                raise SelfFoldedUnavoidable(d)
        if diags:
            raise SpecViolatesSurfaceConditions("S2", "; ".join(diags))
        return tri
    raise ValueError(f"unknown spec kind {spec.kind!r}")
