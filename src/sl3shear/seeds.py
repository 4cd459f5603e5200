"""Seed data attached to an ideal triangulation: the index set, the
elementary triangle quiver and its amalgamation into the exchange matrix,
the frozen m-matrix, matrix mutation and the plan of a flip's mutations.

Every matrix is stored one way: twice its entries, as ints, by column.
``columns[j] = {i: 2 w_ij}`` holds the nonzero entries of column j; the
weights are multiples of 1/2, so this is exact.  An
:class:`ExchangeMatrix` makes a :class:`fractions.Fraction` only when an
entry is read (:meth:`ExchangeMatrix.__getitem__`,
:func:`matrix_entries`).  :func:`mutate_matrix` at k rebuilds the columns
of k and of its neighbours and shares every other column with its input,
so no column is ever changed in place.

The elementary quiver is defined once, with its weights doubled
(:func:`triangle_quiver`): the exchange matrix sums it over every
triangle, and :func:`flip_quiver` over the two triangles of a flipped
edge (every entry a flip mutation reads comes from those two).  The
ensemble map and the Dynkin mutations in :mod:`sl3shear.tropical` read
it triangle by triangle and build no matrix.  :func:`flip_plan` runs a
flip's four mutations on its flip quiver, once per triangulation and
edge, and keeps the plan in the triangulation's ``memo``.

Indices are tuples: ``("tri", t)`` for the face index of triangle ``t``
and ``("edge", e, s)`` with ``s in (1, 2)`` for the two points on edge
``e`` (``s = 1`` nearer the initial endpoint of the oriented edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .surface import Sl3Error


class FrozenIndexMutation(Sl3Error):
    pass


ZERO = Fraction(0)


class Sl3IndexSet:
    """Index set of a triangulation: two points per edge, one per face."""

    def __init__(self, tri):
        idx = []
        for e in tri.edges:
            idx.append(("edge", e, 1))
            idx.append(("edge", e, 2))
        for t in tri.triangles:
            idx.append(("tri", t))
        self.all = tuple(idx)
        self._members = frozenset(idx)
        self.frozen = frozenset(
            ("edge", e, s) for e in tri.boundary_intervals for s in (1, 2)
        )
        self.unfrozen = tuple(i for i in self.all if i not in self.frozen)

    def __contains__(self, i):
        return i in self._members


def side_pair(tri, slot):
    """The (p, q) indices of the side at ``slot`` in the traversal of the
    slot's triangle: p near the side's initial corner, q near the
    terminal corner."""
    e = tri.edge_at(slot)
    if slot == tri.slots(e)[0]:
        return (("edge", e, 1), ("edge", e, 2))
    return (("edge", e, 2), ("edge", e, 1))


def matrix_entries(columns):
    """The nonzero entries ``{(i, j): w_ij}`` of the matrix stored as the
    doubled columns ``columns``, as Fractions."""
    return {(i, j): Fraction(w2, 2) for j, col in columns.items() for i, w2 in col.items()}


class ExchangeMatrix:
    """Skew-symmetric exchange matrix over ``indices`` with a frozen index
    subset, stored as doubled int ``columns``: ``columns[j] = {i: 2 eps_ij}``
    with the nonzero entries only.  Every entry touching an unfrozen index
    is an integer, so the column of an unfrozen index holds even ints."""

    def __init__(self, indices, columns, frozen):
        self.indices = tuple(indices)
        self.columns = columns
        self.frozen = frozenset(frozen)

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.columns.get(j, {}).get(i, 0), 2)

    def __eq__(self, other):
        return (
            isinstance(other, ExchangeMatrix)
            and set(self.indices) == set(other.indices)
            and self.columns == other.columns
            and self.frozen == other.frozen
        )


def triangle_quiver(tri, t):
    """The arrows ``(i, j, 2w)`` of the elementary quiver of triangle ``t``,
    with the weight doubled to an int.

    Per side (p_a, q_a) in counterclockwise order, with face f: p_a -> f,
    f -> q_a, q_a -> p_{a+1} (solid, weight 1) and q_a -> p_a (dashed,
    weight 1/2).  An arrow i -> j of weight w is the pair of entries
    eps_ij = w, eps_ji = -w."""
    f = ("tri", t)
    pairs = [side_pair(tri, (t, a)) for a in range(3)]
    arrows = []
    for a in range(3):
        p, q = pairs[a]
        arrows += [(p, f, 2), (f, q, 2), (q, pairs[(a + 1) % 3][0], 2), (q, p, 1)]
    return arrows


def _quiver_columns(tri, triangles):
    """The doubled columns ``j -> {i: 2 eps_ij}`` of the sum of the
    elementary quivers of ``triangles``, without zero entries (the dashed
    arrows of an edge's two triangles cancel) or empty columns."""
    columns = {}
    for t in triangles:
        for i, j, w2 in triangle_quiver(tri, t):
            col = columns.setdefault(j, {})
            col[i] = col.get(i, 0) + w2
            col = columns.setdefault(i, {})
            col[j] = col.get(j, 0) - w2
    return {j: nz for j, col in columns.items() if (nz := {i: w2 for i, w2 in col.items() if w2})}


def exchange_matrix(tri):
    """Index set and exchange matrix of a triangulation: the elementary
    quiver amalgamated over all triangles."""
    iset = Sl3IndexSet(tri)
    columns = _quiver_columns(tri, tri.triangles)
    return iset, ExchangeMatrix(iset.all, columns, iset.frozen)


def flip_quiver(tri, e):
    """The exchange matrix of the two triangles meeting at the interior
    edge ``e``, over the (at most 12) indices they carry.

    The four indices the flip mutates, (e,1), (e,2) and the two faces,
    occur in no other triangle's quiver, so every entry a flip mutation
    reads is already complete here, also when outer sides of the
    quadrilateral are identified."""
    (tl, _), (tr, _) = tri.slots(e)
    columns = _quiver_columns(tri, (tl, tr))
    frozen = [i for i in columns if i[0] == "edge" and tri.is_boundary(i[1])]
    return ExchangeMatrix(columns, columns, frozen)


def m_matrix(tri):
    """The symmetric frozen matrix as doubled columns ``j -> {i: 2 m_ij}``:
    one block per boundary interval e, with points p = (e,1), q = (e,2),
    m_pp = m_qq = -1 and m_pq = m_qp = 1/2."""
    columns = {}
    for e in tri.boundary_intervals:
        p, q = ("edge", e, 1), ("edge", e, 2)
        columns[p], columns[q] = {p: -2, q: 1}, {q: -2, p: 1}
    return columns


def mutate_matrix(eps, k):
    """Skew-symmetric matrix mutation at the unfrozen index ``k``:
    eps'_ij = -eps_ij if k in (i, j), else eps_ij + sgn(eps_ik)[eps_ik eps_kj]_+.

    Only the entries in the columns of ``k`` and of its neighbours (the j
    with eps_jk nonzero) change, so only those columns are rebuilt; every
    other column is shared with ``eps``.  An index ``eps`` lacks raises
    KeyError."""
    if k in eps.frozen:
        raise FrozenIndexMutation(k)
    if k not in eps.indices:
        raise KeyError(k)
    col_k = eps.columns.get(k, {})
    columns = dict(eps.columns)
    if col_k:
        columns[k] = {i: -w2 for i, w2 in col_k.items()}
    for j, wjk in col_k.items():
        col = columns[j] = dict(eps.columns[j])
        col[k] = wjk  # 2 eps'_kj = -2 eps_kj = 2 eps_jk
        # sgn(eps_ik) [eps_ik eps_kj]_+ is |eps_ik| eps_kj when the signs
        # agree, and eps_kj = -eps_jk; the entries at k are even
        for i, wik in col_k.items():
            if i != j and (wik > 0) != (wjk > 0):
                v = col.get(i, 0) - (abs(wik) >> 1) * wjk
                if v:
                    col[i] = v
                else:
                    del col[i]
    return ExchangeMatrix(eps.indices, columns, eps.frozen)


@dataclass(frozen=True)
class FlipPlan:
    """What the flip at an edge does to seeds, derived once per
    (triangulation, edge): the flipped triangulation ``tri``, the index
    correspondence ``corr``, the indices of the flip quadrilateral
    (``local``) and the ``frozen`` ones among them, and the flip's four
    mutations as ``columns`` ``(k, {i: 2 eps_ik})`` in order, each read
    off the exchange matrix as it stands before that mutation."""

    tri: object
    corr: object
    local: tuple
    frozen: frozenset
    columns: tuple


def flip_plan(tri, e):
    """The :class:`FlipPlan` of the flip at ``e``, kept in ``tri.memo``.

    The columns come from running :func:`mutate_matrix` on the
    :func:`flip_quiver` at ``e``, which holds every entry touching a
    mutated index; the entries between two outer indices that it updates
    are incomplete there, but no mutation of the flip reads them."""
    plan = tri.memo.get(("flip plan", e))
    if plan is not None:
        return plan
    t2, corr = tri.flip_edge(e)
    eps = local = flip_quiver(tri, e)
    (tl, _), (tr, _) = tri.slots(e)
    columns = []
    # in the local labels of the flip quadrilateral (1 = (e,2), 2 = face
    # of T_L, 3 = (e,1), 4 = face of T_R) the path is mu_1 mu_3 mu_4 mu_2
    for k in (("edge", e, 2), ("edge", e, 1), ("tri", tr), ("tri", tl)):
        columns.append((k, eps.columns[k]))
        eps = mutate_matrix(eps, k)
    plan = tri.memo[("flip plan", e)] = FlipPlan(t2, corr, local.indices, local.frozen, tuple(columns))
    return plan
