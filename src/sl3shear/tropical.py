"""Exact max-plus tropical points and the piecewise-linear maps between
them: X- and A-mutation, the closed-form flip map, the ensemble map, the
Dynkin cluster action and the principal embedding.

A :class:`TropicalPoint` holds its values in one of two exact forms, or
both: a dict of nonzero :class:`fractions.Fraction` coordinates
(``coords``), or a positive common denominator d with a dict of the
nonzero int numerators d x_i.  Every map here is positively homogeneous
and piecewise linear, so it runs on the ints and returns a point over
the same d (twice it for the ensemble map); d need not be the least
common denominator, and nothing that reads a point depends on which d it
holds.  A point built from Fractions computes its ints once, when a map
first reads them; a point a map returns builds its Fractions only when
``coords`` or ``p[i]`` is read.

Each mutation rule is written once, as an update of a coordinate dict
from one doubled column of the exchange matrix: :func:`_x_rule` and
:func:`_a_rule`.  :func:`mutate_x` and :func:`mutate_a` run them on a
point's ints.  A flip mutates only its quadrilateral: :func:`apply_flip`
runs them over the columns of the flip's plan (:func:`seeds.flip_plan`,
built once per triangulation and edge) on the point's ints at the
quadrilateral, and relabels four indices; every other numerator is
shared with the input.  The ensemble map x = (eps + m)a is folded
triangle by triangle, from each side's arrows of the elementary quiver,
then one block per boundary interval, on the A-point's ints; it keeps no
table.  The Dynkin action runs its corrections on the X-point's ints, and
its mutation composite reads each face's column off that face's quiver.

The single tropical semifield in use is (Q, max, +); there are no
tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .seeds import ZERO, FrozenIndexMutation, flip_plan, side_pair, triangle_quiver
from .surface import NotInteriorEdge, Sl3Error


class SeedMismatch(Sl3Error):
    pass


class BadLabeling(Sl3Error):
    """Nothing raises it: the closed-form flip folds identified sides."""


def pos(u):
    """The max-plus bracket [u]_+ = max(0, u), for ints and Fractions: a
    nonpositive u gives the int 0."""
    return u if u > 0 else 0


def bracket3(x, y, z):
    """[x, y, z]_+ = max(0, x, x+y, x+y+z)."""
    return max(0, x, x + y, x + y + z)


class TropicalPoint:
    """A coordinate vector over the index set of a triangulation.

    ``kind`` is ``"X"`` or ``"A"``; ``restricted`` marks X-points carrying
    only unfrozen coordinates.  Missing coordinates are zero.  A
    restricted A-point, or a restricted point with a nonzero coordinate
    at a boundary interval of ``tri``, raises ValueError.

    The constructor takes the coordinates as Fractions (or ints);
    :meth:`from_ints` takes them as numerators over one denominator.
    Either form is derived from the other when first read, and kept.
    """

    def __init__(self, kind, coords, tri=None, restricted=False):
        if kind not in ("X", "A"):
            raise ValueError(kind)
        self.kind = kind
        self.coords = {}
        for i, v in coords.items():
            if type(v) is not Fraction:
                v = Fraction(v)
            if v:
                self.coords[i] = v
        self.tri = tri
        self.restricted = bool(restricted)
        if self.restricted and kind != "X":
            raise ValueError("only an X-point can be restricted")
        if self.restricted and tri is not None:
            frozen = sorted(
                i for i in self.coords
                if i[0] == "edge" and tri.has_edge(i[1]) and tri.is_boundary(i[1])
            )
            if frozen:
                raise ValueError(f"a restricted point has frozen coordinates {frozen}")

    @classmethod
    def from_ints(cls, kind, d, nums, tri=None, restricted=False):
        """The point with coordinates ``nums[i] / d``, from the int
        denominator ``d > 0`` and the dict ``nums`` of nonzero int
        numerators, both taken as they are (no check, no copy)."""
        p = object.__new__(cls)
        p.kind, p.tri, p.restricted, p._ints = kind, tri, restricted, (d, nums)
        return p

    @cached_property
    def coords(self):
        """The nonzero coordinates ``{i: x_i}`` as reduced Fractions."""
        d, nums = self._ints
        return {i: Fraction(n, d) for i, n in nums.items()}

    @cached_property
    def _ints(self):
        """``(d, {i: d x_i})``: a common denominator of the coordinates and
        their nonzero numerators over it."""
        ratios = {i: v.as_integer_ratio() for i, v in self.coords.items()}
        d = lcm(*(q for _, q in ratios.values()))
        return d, {i: n * (d // q) for i, (n, q) in ratios.items()}

    def __getitem__(self, i):
        return self.coords.get(i, ZERO)

    def __eq__(self, other):
        if not (
            isinstance(other, TropicalPoint)
            and self.kind == other.kind
            and self.restricted == other.restricted
        ):
            return False
        if "coords" in self.__dict__ and "coords" in other.__dict__:
            return self.coords == other.coords
        (d1, n1), (d2, n2) = self._ints, other._ints
        if d1 == d2:
            return n1 == n2
        return n1.keys() == n2.keys() and all(v * d2 == n2[i] * d1 for i, v in n1.items())

    def __repr__(self):
        vals = ", ".join(f"{i}: {v}" for i, v in sorted(self.coords.items()))
        tag = "X^uf" if self.restricted else self.kind
        return f"<{tag} point {{{vals}}}>"


def _x_rule(x, k, col):
    """Tropical X-mutation at ``k``, in place on the nonzero int
    coordinates ``x`` (a value that becomes zero is removed), from
    the doubled column ``col = {i: 2 eps_ik}`` of ``k``: x'_k = -x_k and
    x'_i = x_i - eps_ik [-sgn(eps_ik) x_k]_+ otherwise, which is
    x_i + |eps_ik| x_k where eps_ik and x_k differ in sign.  The column
    of an unfrozen ``k`` holds even ints."""
    xk = x.get(k)
    if not xk:
        return
    for i, w2 in col.items():
        if (w2 > 0) != (xk > 0):
            v = x.get(i, 0) + (abs(w2) >> 1) * xk
            if v:
                x[i] = v
            else:
                del x[i]
    x[k] = -xk


def _a_rule(a, k, col):
    """Tropical A-mutation at ``k``, in place on the nonzero coordinates
    ``a``, from the doubled column ``col = {i: 2 eps_ik}`` of ``k``:
    a'_k = -a_k + max(sum_i [eps_ki]_+ a_i, sum_i [-eps_ki]_+ a_i), with
    eps_ki = -eps_ik."""
    s_plus = s_minus = 0
    for i, w2 in col.items():
        ai = a.get(i)
        if ai:
            if w2 < 0:
                s_plus -= (w2 >> 1) * ai
            else:
                s_minus += (w2 >> 1) * ai
    v = max(s_plus, s_minus) - a.get(k, 0)
    if v:
        a[k] = v
    else:
        a.pop(k, None)


def _column(p, kind, eps, k):
    """The doubled column of ``k`` in ``eps`` that mutates the
    ``kind``-point ``p`` at ``k``.  A restricted point has no frozen
    coordinates (its constructor checks) and gains none: unfrozen outputs
    read only unfrozen inputs, so the column leaves the frozen ones out.
    An index ``eps`` lacks raises KeyError."""
    if p.kind != kind:
        raise SeedMismatch(f"{kind}-point required")
    if k in eps.frozen:
        raise FrozenIndexMutation(k)
    if k not in eps.indices:
        raise KeyError(k)
    col = eps.columns.get(k, {})
    if p.restricted:
        col = {i: w2 for i, w2 in col.items() if i not in eps.frozen}
    return col


def mutate_x(p, eps, k):
    """Tropical cluster Poisson mutation at the unfrozen index ``k`` (see
    :func:`_x_rule`)."""
    col = _column(p, "X", eps, k)
    d, nums = p._ints
    x = dict(nums)
    _x_rule(x, k, col)
    return _point(p, d, x, p.tri)


def mutate_a(p, eps, k):
    """Tropical cluster A-mutation at the unfrozen index ``k`` (see
    :func:`_a_rule`)."""
    col = _column(p, "A", eps, k)
    d, nums = p._ints
    a = dict(nums)
    _a_rule(a, k, col)
    return _point(p, d, a, p.tri)


def flip_local_labels(tri, e):
    """The 12 local indices of the flip quadrilateral at ``e``, keyed by
    the labels 1..12 of the mutation-sequence picture: 1, 3 on the
    diagonal (terminal, initial), 2, 4 the left/right faces, then the
    (p, q) pairs of the outer sides counterclockwise from the top-left:
    (5,6), (7,8), (9,10), (11,12).  Outer labels may coincide where outer
    sides are identified, as on the torus."""
    if not tri.has_edge(e) or tri.is_boundary(e):
        raise NotInteriorEdge(e)
    (tl, il), (tr, ir) = tri.slots(e)
    g = (tl, (il + 1) % 3)
    f = (tl, (il + 2) % 3)
    h = (tr, (ir + 1) % 3)
    k = (tr, (ir + 2) % 3)
    lab = {
        1: ("edge", e, 2),
        2: ("tri", tl),
        3: ("edge", e, 1),
        4: ("tri", tr),
    }
    lab[5], lab[6] = side_pair(tri, g)
    lab[7], lab[8] = side_pair(tri, f)
    lab[9], lab[10] = side_pair(tri, h)
    lab[11], lab[12] = side_pair(tri, k)
    return lab


def flip_x_closed_form(p, tri, e):
    """The closed-form tropical flip map on the 12 local coordinates of
    the quadrilateral at ``e``; identity on all other coordinates.

    Outer sides may be identified (every flip of the torus has some), so
    the map is read on the cover: labels 1-4 are mutated, and each outer
    label's increment, which reads only x1..x4, is added at its index;
    two labels naming one index add both.  A restricted point keeps no
    frozen coordinates, as in :func:`mutate_x`."""
    lab = flip_local_labels(tri, e)
    _, nums = p._ints
    x1, x2, x3, x4 = (nums.get(lab[n], 0) for n in range(1, 5))
    b123, b341 = bracket3(x1, x2, x3), bracket3(x3, x4, x1)
    local = {
        lab[1]: x2 + b341 - b123,
        lab[2]: -x1 - x2 + pos(x1) - pos(x3),
        lab[3]: x4 + b123 - b341,
        lab[4]: -x3 - x4 + pos(x3) - pos(x1),
    }
    increments = (  # labels 5..12, one outer side a line
        pos(x1), b123 - pos(x1),
        x1 + x2 + pos(x3) - b123, -pos(-x3),
        pos(x3), b341 - pos(x3),
        x3 + x4 + pos(x1) - b341, -pos(-x1),
    )
    for n, v in enumerate(increments, 5):
        local[lab[n]] = local.get(lab[n], nums.get(lab[n], 0)) + v
    # local label n keeps its geometric position, so it maps to the index
    # of the flipped triangulation occupying that position
    return _flipped(p, flip_plan(tri, e), local)


def apply_flip(p, tri, e):
    """Transport a tropical point through the flip at ``e`` by the
    4-mutation sequence plus relabeling.  Works for X- and A-points.

    The mutations run off the columns of the :func:`flip_plan`, on the
    point's ints at the indices of the flip quadrilateral: no other
    coordinate moves, and no other entry of the exchange matrix is read.
    Identical to running the four mutations and the relabeling on the
    whole exchange matrix and point."""
    plan = flip_plan(tri, e)
    rule = _x_rule if p.kind == "X" else _a_rule
    _, nums = p._ints
    x = {i: nums[i] for i in plan.local if i in nums}
    for k, col in plan.columns:
        rule(x, k, col)
    return _flipped(p, plan, {i: x.get(i, 0) for i in plan.local})


def _flipped(p, plan, local):
    """``p`` carried through the flip of ``plan``: its numerators at the
    flip quadrilateral replaced by the ints ``local`` (keyed by old
    index, over the same denominator) and relabeled by ``plan.corr``,
    every other one kept as it is.  A restricted point keeps no frozen
    coordinate of the quadrilateral; the others it never has."""
    d, nums = p._ints
    x = dict(nums)
    for i in local:
        x.pop(i, None)
    for i, v in local.items():
        if v and not (p.restricted and i in plan.frozen):
            x[plan.corr[i]] = v
    return _point(p, d, x, plan.tri)


def _point(p, d, nums, tri):
    """A point of ``p``'s kind on ``tri`` with the nonzero int numerators
    ``nums`` over ``d``, taken as they are."""
    return TropicalPoint.from_ints(p.kind, d, nums, tri, p.restricted)


def ensemble(a, tri):
    """The tropicalized extended ensemble map x = (eps + m)a, amalgamated
    from one map per triangle and one block per boundary interval.

    Per triangle with face f, each side's (p, q) pair is read once and the
    side's four arrows of :func:`seeds.triangle_quiver` are applied: p -> f,
    f -> q and q -> p_next of weight 1, and the dashed q -> p of weight 1/2,
    an arrow i -> j of weight w adding w a_j to x_i and -w a_i to x_j.
    Each boundary interval (p, q) then adds x_p += a_q/2 - a_p and
    x_q += a_p/2 - a_q.  The weights are multiples of 1/2, so the fold
    runs on ints: with d the denominator of ``a``'s ints, it sums 2d x_i."""
    if a.kind != "A":
        raise SeedMismatch("A-point required")
    d, nums = a._ints
    get = nums.get
    out = {}
    for t, sides in tri.tri_sides.items():
        af2 = 2 * get(("tri", t), 0)
        pqs = []
        for s, e in enumerate(sides):
            p, q = ("edge", e, 1), ("edge", e, 2)
            if tri.slots(e)[0] != (t, s):
                p, q = q, p
            pqs.append((p, q, get(p, 0), get(q, 0)))
        xf = 0
        for s, (p, q, ap, aq) in enumerate(pqs):
            # the solid arrows between sides: q_{s-1} -> p and q -> p_{s+1},
            # with sides s - 1 and s + 1 at pqs[s - 1] and pqs[s - 2]
            out[p] = out.get(p, 0) + af2 - aq - 2 * pqs[s - 1][3]
            out[q] = out.get(q, 0) - af2 + ap + 2 * pqs[s - 2][2]
            xf += aq - ap
        out[("tri", t)] = 2 * xf
    for e in tri.boundary_intervals:
        p, q = ("edge", e, 1), ("edge", e, 2)
        ap, aq = get(p, 0), get(q, 0)
        out[p] += aq - 2 * ap
        out[q] += ap - 2 * aq
    return TropicalPoint.from_ints("X", 2 * d, {i: v for i, v in out.items() if v}, tri)


def dynkin_cluster(p, tri):
    """Closed form of the Dynkin involution on X-coordinates:
    x_T -> -x_T on faces; on each edge, the two coordinates swap with
    corrections from the adjacent face coordinates (terms of a missing
    triangle, on boundary intervals, are zero).

    The corrections run on the point's ints, over its denominator.  A
    restricted point keeps no frozen coordinates, as in :func:`mutate_x`:
    its boundary intervals are skipped."""
    if p.kind != "X":
        raise SeedMismatch("X-point required")
    d, x = p._ints
    out = {}
    for t in tri.triangles:
        v = x.get(("tri", t))
        if v:
            out[("tri", t)] = -v
    for e in tri.interior_edges if p.restricted else tri.edges:
        sl, sr = tri.slots(e)
        xtl = x.get(("tri", sl[0]), 0)
        xtr = 0 if sr is None else x.get(("tri", sr[0]), 0)
        p1, p2 = ("edge", e, 1), ("edge", e, 2)
        # the corrections [xtl]_+ + min(xtr, 0) and [xtr]_+ + min(xtl, 0)
        v1 = x.get(p2, 0) + (xtl if xtl > 0 else 0) + (xtr if xtr < 0 else 0)
        v2 = x.get(p1, 0) + (xtr if xtr > 0 else 0) + (xtl if xtl < 0 else 0)
        if v1:
            out[p1] = v1
        if v2:
            out[p2] = v2
    return _point(p, d, out, p.tri)


def dynkin_cluster_by_mutation(p, tri):
    """The same involution as the composite sigma_e o mu_t of mutations
    at every face followed by the swap of edge-point labels.

    A face occurs only in its own triangle's quiver, and faces are
    pairwise non-adjacent, so each face mutation reads its column off
    the arrows of :func:`seeds.triangle_quiver`, as it stands in the
    exchange matrix before any mutation; no matrix is built or mutated.
    A restricted point keeps no frozen coordinates, as in
    :func:`mutate_x`."""
    if p.kind != "X":
        raise SeedMismatch("X-point required")
    d, nums = p._ints
    x = dict(nums)
    for t in tri.triangles:
        f = ("tri", t)
        col = {}
        for i, j, w2 in triangle_quiver(tri, t):
            if j == f:
                col[i] = w2  # i -> f: 2 eps_if = w2
            elif i == f:
                col[j] = -w2  # f -> j: 2 eps_jf = -w2
        if p.restricted:
            col = {i: w2 for i, w2 in col.items() if not tri.is_boundary(i[1])}
        _x_rule(x, f, col)
    x = {(i[0], i[1], 3 - i[2]) if i[0] == "edge" else i: v for i, v in x.items()}
    return _point(p, d, x, tri)


def principal_embed(sl2, tri):
    """Embed an sl2 lamination given by one shear coordinate per edge:
    x_{E,1} = x_{E,2} = sl2(E), x_T = 0."""
    out = {}
    for e in tri.edges:
        v = Fraction(sl2.get(e, 0))
        if v != 0:
            out[("edge", e, 1)] = v
            out[("edge", e, 2)] = v
    return TropicalPoint("X", out, tri=tri, restricted=False)
