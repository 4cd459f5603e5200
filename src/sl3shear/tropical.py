"""Exact max-plus tropical points and the piecewise-linear maps between
them: X- and A-mutation, the closed-form flip map, the ensemble map, the
Dynkin cluster action and the principal embedding.

A flip mutates only its quadrilateral: :func:`apply_flip` runs the flip's
mutation sequence on the quiver of the flipped edge's two triangles and
on the point's coordinates at their indices, and relabels the rest.  The
ensemble map folds the elementary triangle quiver and the frozen blocks
against the A-point triangle by triangle, without assembling eps + m.

The single tropical semifield in use is (Q, max, +).  All coordinates are
:class:`fractions.Fraction`; there are no tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .seeds import (
    Sl3IndexSet,
    ZERO,
    Mutate,
    FrozenIndexMutation,
    boundary_block,
    exchange_matrix,
    flip_quiver,
    mutate_matrix,
    flip_mutation_sequence,
    dynkin_mutation_sequence,
    side_pair,
    triangle_quiver,
)
from .surface import Sl3Error


class SeedMismatch(Sl3Error):
    pass


class BadLabeling(Sl3Error):
    pass


def pos(u):
    """The max-plus bracket [u]_+ = max(0, u)."""
    return u if u > 0 else ZERO


def bracket3(x, y, z):
    """[x, y, z]_+ = max(0, x, x+y, x+y+z)."""
    return max(ZERO, x, x + y, x + y + z)


class TropicalPoint:
    """A coordinate vector over the index set of a triangulation.

    ``kind`` is ``"X"`` or ``"A"``; ``restricted`` marks X-points carrying
    only unfrozen coordinates.  Missing coordinates are zero.
    """

    def __init__(self, kind, coords, tri=None, restricted=False):
        if kind not in ("X", "A"):
            raise ValueError(kind)
        self.kind = kind
        self.coords = {
            i: v if type(v) is Fraction else Fraction(v) for i, v in coords.items() if v != 0
        }
        self.tri = tri
        self.restricted = bool(restricted)

    def __getitem__(self, i):
        return self.coords.get(i, ZERO)

    def __eq__(self, other):
        return (
            isinstance(other, TropicalPoint)
            and self.kind == other.kind
            and self.restricted == other.restricted
            and self.coords == other.coords
        )

    def __repr__(self):
        vals = ", ".join(f"{i}: {v}" for i, v in sorted(self.coords.items()))
        tag = "X^uf" if self.restricted else self.kind
        return f"<{tag} point {{{vals}}}>"

    def scale(self, u):
        u = Fraction(u)
        return TropicalPoint(
            self.kind,
            {i: u * v for i, v in self.coords.items()},
            tri=self.tri,
            restricted=self.restricted,
        )

    def replace(self, coords):
        return TropicalPoint(self.kind, coords, tri=self.tri, restricted=self.restricted)


def _sgn(v):
    return (v > 0) - (v < 0)


def mutate_x(p, eps, k):
    """Tropical cluster Poisson mutation at the unfrozen index ``k``:
    x'_k = -x_k and x'_i = x_i - eps_ik [ -sgn(eps_ik) x_k ]_+ otherwise.

    A restricted point keeps no frozen coordinates: unfrozen outputs read
    only unfrozen inputs, so dropping them is a projection."""
    if p.kind != "X":
        raise SeedMismatch("X-point required")
    if k in eps.frozen:
        raise FrozenIndexMutation(k)
    xk = p[k]
    out = {}
    support = set(p.coords)
    support.update(i for (i, j) in eps.matrix.entries if j == k)
    if p.restricted:
        support -= eps.frozen
    for i in support:
        if i == k:
            continue
        e = eps[i, k]
        if e == 0:
            v = p[i]
        else:
            v = p[i] - e * pos(-_sgn(e) * xk)
        if v != 0:
            out[i] = v
    if xk != 0:
        out[k] = -xk
    return p.replace(out)


def mutate_a(p, eps, k):
    """Tropical cluster A-mutation at ``k``:
    a'_k = -a_k + max( sum_j [eps_kj]_+ a_j, sum_j [-eps_kj]_+ a_j )."""
    if p.kind != "A":
        raise SeedMismatch("A-point required")
    if k in eps.frozen:
        raise FrozenIndexMutation(k)
    s_plus = ZERO
    s_minus = ZERO
    for (i, j), v in eps.matrix.entries.items():
        if i != k:
            continue
        if v > 0:
            s_plus += v * p[j]
        else:
            s_minus += (-v) * p[j]
    out = dict(p.coords)
    new = -p[k] + max(s_plus, s_minus)
    if new != 0:
        out[k] = new
    else:
        out.pop(k, None)
    return p.replace(out)


def apply_steps(p, eps, steps, tri_after=None):
    """Apply a Mutate/Permute sequence to a point, mutating the exchange
    matrix along.  Returns ``(point, eps)`` after all steps."""
    mut = mutate_x if p.kind == "X" else mutate_a
    cur_p, cur_eps = p, eps
    for step in steps:
        if isinstance(step, Mutate):
            cur_p = mut(cur_p, cur_eps, step.k)
            cur_eps = mutate_matrix(cur_eps, step.k)
        else:
            mapping = step.as_dict()
            coords = {mapping.get(i, i): v for i, v in cur_p.coords.items()}
            cur_p = TropicalPoint(
                cur_p.kind, coords, tri=tri_after, restricted=cur_p.restricted
            )
            new_indices = [mapping.get(i, i) for i in cur_eps.indices]
            new_frozen = frozenset(mapping.get(i, i) for i in cur_eps.frozen)
            cur_eps = cur_eps.relabel(
                {i: mapping.get(i, i) for i in cur_eps.indices},
                new_indices,
                new_frozen,
            )
    return cur_p, cur_eps


def flip_local_labels(tri, e):
    """The 12 local indices of the flip quadrilateral at ``e``, keyed by
    the labels 1..12 of the mutation-sequence picture: 1, 3 on the
    diagonal (terminal, initial), 2, 4 the left/right faces, then the
    (p, q) pairs of the outer sides counterclockwise from the top-left:
    (5,6), (7,8), (9,10), (11,12)."""
    from .surface import NotInteriorEdge

    if tri.is_boundary(e):
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

    Requires the 12 local indices to be pairwise distinct (a genuine
    quadrilateral); raises :class:`BadLabeling` otherwise.  A restricted
    point keeps no frozen coordinates, as in :func:`mutate_x`.
    """
    lab = flip_local_labels(tri, e)
    if len(set(lab.values())) != 12:
        raise BadLabeling("flip quadrilateral has identified sides")
    x = {n: p[lab[n]] for n in range(1, 13)}
    b123 = bracket3(x[1], x[2], x[3])
    b341 = bracket3(x[3], x[4], x[1])
    new = {
        1: x[2] + b341 - b123,
        2: -x[1] - x[2] + pos(x[1]) - pos(x[3]),
        3: x[4] + b123 - b341,
        4: -x[3] - x[4] + pos(x[3]) - pos(x[1]),
        5: x[5] + pos(x[1]),
        6: x[6] + b123 - pos(x[1]),
        7: x[7] + x[1] + x[2] + pos(x[3]) - b123,
        8: x[8] - pos(-x[3]),
        9: x[9] + pos(x[3]),
        10: x[10] + b341 - pos(x[3]),
        11: x[11] + x[3] + x[4] + pos(x[1]) - b341,
        12: x[12] - pos(-x[1]),
    }
    t2, corr = tri.flip_edge(e)
    # local label n keeps its geometric position; map it to the index of
    # the flipped triangulation occupying that position
    out = {corr.index_map[i]: v for i, v in p.coords.items() if i not in lab.values()}
    for n in range(1, 13):
        out[corr.index_map[lab[n]]] = new[n]
    if p.restricted:
        frozen = Sl3IndexSet(t2).frozen
        out = {i: v for i, v in out.items() if i not in frozen}
    return TropicalPoint("X", out, tri=t2, restricted=p.restricted)


def apply_flip(p, tri, e):
    """Transport a tropical point through the flip at ``e`` by the
    4-mutation sequence plus relabeling.  Works for X- and A-points.

    The mutations run on :func:`flip_quiver` and on the coordinates at
    its indices: no other coordinate moves, and no other entry of the
    exchange matrix is read.  Identical to running the steps on the whole
    exchange matrix and point."""
    steps, t2, corr = flip_mutation_sequence(tri, e)
    eps = flip_quiver(tri, e)
    inside = {i: p[i] for i in eps.indices}
    q, _ = apply_steps(p.replace(inside), eps, steps[:-1])
    moved = corr.index_map
    out = {moved[i]: v for i, v in p.coords.items() if i not in inside}
    out.update((moved[i], v) for i, v in q.coords.items())
    return TropicalPoint(p.kind, out, tri=t2, restricted=p.restricted)


def ensemble(a, tri):
    """The tropicalized extended ensemble map: x_i = sum_j (eps+m)_ij a_j,
    with eps + m folded against ``a`` one triangle quiver and one
    boundary block at a time.

    Every weight is a multiple of 1/2, so the fold runs on integers: with
    d the lcm of the denominators of ``a``, 2d x_i = sum_j (2w_ij)(d a_j)."""
    if a.kind != "A":
        raise SeedMismatch("A-point required")
    d = lcm(*(v.denominator for v in a.coords.values()))
    scaled = {i: v.numerator * (d // v.denominator) for i, v in a.coords.items()}
    out = {}

    def add(i, j, w2):
        if j in scaled:
            out[i] = out.get(i, 0) + w2 * scaled[j]

    for t in tri.triangles:
        for i, j, w in triangle_quiver(tri, t):
            w2 = 2 * w.numerator // w.denominator
            add(i, j, w2)
            add(j, i, -w2)
    for e in tri.boundary_intervals:
        for i, j, w in boundary_block(e):
            add(i, j, 2 * w.numerator // w.denominator)
    return TropicalPoint("X", {i: Fraction(v, 2 * d) for i, v in out.items()}, tri=tri)


def dynkin_cluster(p, tri):
    """Closed form of the Dynkin involution on X-coordinates:
    x_T -> -x_T on faces; on each edge, the two coordinates swap with
    corrections from the adjacent face coordinates (terms of a missing
    triangle, on boundary intervals, are zero)."""
    if p.kind != "X":
        raise SeedMismatch("X-point required")
    out = {}
    for t in tri.triangles:
        v = p[("tri", t)]
        if v != 0:
            out[("tri", t)] = -v
    for e in tri.edges:
        sl, sr = tri.slots(e)
        xtl = p[("tri", sl[0])]
        if sr is None:
            xtr = None
        else:
            xtr = p[("tri", sr[0])]
        x1 = p[("edge", e, 1)]
        x2 = p[("edge", e, 2)]
        n1 = x2 + pos(xtl) - (pos(-xtr) if xtr is not None else 0)
        n2 = x1 + (pos(xtr) if xtr is not None else 0) - pos(-xtl)
        if n1 != 0:
            out[("edge", e, 1)] = n1
        if n2 != 0:
            out[("edge", e, 2)] = n2
    return p.replace(out)


def dynkin_cluster_by_mutation(p, tri):
    """The same involution as the composite sigma_e o mu_t of mutations
    at every face followed by the swap of edge-point labels."""
    steps = dynkin_mutation_sequence(tri)
    _, eps = exchange_matrix(tri)
    q, _ = apply_steps(p, eps, steps, tri_after=tri)
    return q


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
