"""Seed data attached to an ideal triangulation: the index set, the
elementary triangle quiver and its amalgamation into the exchange matrix,
the frozen m-matrix, matrix mutation and the mutation sequences realizing
flips and the Dynkin involution.

The elementary quiver is defined once, with its weights doubled to ints
(:func:`_doubled_quiver`): the exchange matrix sums it over every
triangle, :func:`flip_quiver` over the two triangles of a flipped edge
(every entry a flip mutation reads or writes comes from those two),
:func:`flip_plan` runs a flip's four mutations on those two in ints, once
per (triangulation, edge), and :func:`extended_columns` tabulates
2(eps + m) once per triangulation for the ensemble map.  Both are kept
in the triangulation's ``memo``.  Mutation touches only the pairs of
neighbours of the mutated index.

Indices are tuples: ``("tri", t)`` for the face index of triangle ``t``
and ``("edge", e, s)`` with ``s in (1, 2)`` for the two points on edge
``e`` (``s = 1`` nearer the initial endpoint of the oriented edge).  All
matrix entries are exact :class:`fractions.Fraction` values; the flip
plans and the ensemble table hold exact ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .surface import NotInteriorEdge, Sl3Error


class FrozenIndexMutation(Sl3Error):
    pass


ZERO = Fraction(0)
HALF = Fraction(1, 2)


class Sl3IndexSet:
    """Index set of a triangulation: two points per edge, one per face."""

    def __init__(self, tri):
        self.tri = tri
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

    def __len__(self):
        return len(self.all)

    def __contains__(self, i):
        return i in self._members

    def is_frozen(self, i):
        return i in self.frozen

    def side_pair(self, slot):
        return side_pair(self.tri, slot)


def side_pair(tri, slot):
    """The (p, q) indices of the side at ``slot`` in the traversal of the
    slot's triangle: p near the side's initial corner, q near the
    terminal corner."""
    e = tri.edge_at(slot)
    if slot == tri.slots(e)[0]:
        return (("edge", e, 1), ("edge", e, 2))
    return (("edge", e, 2), ("edge", e, 1))


class RationalMatrix:
    """A sparse square matrix over a fixed index list, with exact entries."""

    def __init__(self, indices, entries=None):
        self.indices = tuple(indices)
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                self[i, j] = v

    def __getitem__(self, ij):
        return self.entries.get(ij, ZERO)

    def __setitem__(self, ij, v):
        if type(v) is not Fraction:
            v = Fraction(v)
        if v == 0:
            self.entries.pop(ij, None)
        else:
            self.entries[ij] = v

    def add(self, i, j, v):
        self[i, j] = self[i, j] + v

    def copy(self):
        out = RationalMatrix(self.indices)
        out.entries = dict(self.entries)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and set(self.indices) == set(other.indices)
            and self.entries == other.entries
        )

    def __add__(self, other):
        out = self.copy()
        for (i, j), v in other.entries.items():
            out.add(i, j, v)
        return out

    def is_skew_symmetric(self):
        return all(self[j, i] == -v for (i, j), v in self.entries.items())

    def relabel(self, index_map, new_indices):
        out = RationalMatrix(new_indices)
        for (i, j), v in self.entries.items():
            out[index_map[i], index_map[j]] = v
        return out


class ExchangeMatrix:
    """Skew-symmetric exchange matrix with a frozen index subset."""

    def __init__(self, matrix, frozen):
        self.matrix = matrix
        self.frozen = frozenset(frozen)

    @property
    def indices(self):
        return self.matrix.indices

    def __getitem__(self, ij):
        return self.matrix[ij]

    def __eq__(self, other):
        return (
            isinstance(other, ExchangeMatrix)
            and self.matrix == other.matrix
            and self.frozen == other.frozen
        )

    def check(self):
        """Invariant diagnostics: skew-symmetry, integrality pattern, range."""
        diags = []
        if not self.matrix.is_skew_symmetric():
            diags.append("not skew-symmetric")
        for (i, j), v in self.matrix.entries.items():
            if v.denominator not in (1, 2):
                diags.append(f"entry {i},{j} not half-integral")
            if v.denominator == 2 and not (i in self.frozen and j in self.frozen):
                diags.append(f"non-frozen entry {i},{j} not integral")
            if abs(v) > 1:
                diags.append(f"entry {i},{j} out of range")
        return diags

    def relabel(self, index_map, new_indices, new_frozen):
        return ExchangeMatrix(
            self.matrix.relabel(index_map, new_indices), new_frozen
        )


@dataclass(frozen=True)
class Mutate:
    k: tuple


@dataclass(frozen=True)
class Permute:
    """Relabeling step: ``mapping`` sends old indices to new indices.

    The mapping must send unfrozen indices to unfrozen ones; the target
    index set may belong to a different triangulation (as after a flip).
    """

    mapping: tuple  # tuple of (old, new) pairs, hashable

    @staticmethod
    def of(mapping):
        return Permute(tuple(sorted(mapping.items())))

    def as_dict(self):
        return dict(self.mapping)


def _doubled_quiver(tri, t):
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


def triangle_quiver(tri, t):
    """The arrows ``(i, j, w)`` of the elementary quiver of triangle ``t``
    (see :func:`_doubled_quiver`), with exact weights."""
    return [(i, j, 1 if w2 == 2 else HALF) for i, j, w2 in _doubled_quiver(tri, t)]


def _doubled_sum(tri, triangles, sign=1, into=None):
    """``sign`` times twice the sum of the elementary quivers of
    ``triangles``, added into the int entries ``{(i, j): 2 eps_ij}`` of
    ``into`` (a new dict by default); the dashed arrows on edges shared
    by two of them cancel to zero entries, which are kept."""
    out = {} if into is None else into
    for t in triangles:
        for i, j, w2 in _doubled_quiver(tri, t):
            out[i, j] = out.get((i, j), 0) + sign * w2
            out[j, i] = out.get((j, i), 0) - sign * w2
    return out


def _amalgamate(tri, triangles, indices):
    """The sum of the elementary quivers of ``triangles`` as a matrix."""
    doubled = _doubled_sum(tri, triangles)
    return RationalMatrix(indices, {ij: Fraction(w2, 2) for ij, w2 in doubled.items()})


def exchange_matrix(tri):
    """Index set and exchange matrix of a triangulation: the elementary
    quiver amalgamated over all triangles."""
    iset = Sl3IndexSet(tri)
    return iset, ExchangeMatrix(_amalgamate(tri, tri.triangles, iset.all), iset.frozen)


def flip_quiver(tri, e):
    """The exchange matrix of the two triangles meeting at the interior
    edge ``e``, over the (at most 12) indices they carry.

    The four indices the flip mutates, (e,1), (e,2) and the two faces,
    occur in no other triangle's quiver, so every entry a flip mutation
    reads is already complete here, also when outer sides of the
    quadrilateral are identified."""
    (tl, _), (tr, _) = tri.slots(e)
    indices = [("tri", tl), ("tri", tr)]
    for t in (tl, tr):
        for a in range(3):
            indices += [i for i in side_pair(tri, (t, a)) if i not in indices]
    frozen = [i for i in indices if i[0] == "edge" and tri.is_boundary(i[1])]
    return ExchangeMatrix(_amalgamate(tri, (tl, tr), indices), frozen)


def _doubled_boundary_block(e):
    """The entries ``(i, j, 2w)`` of the symmetric frozen matrix at the
    boundary interval ``e`` with points p = (e,1), q = (e,2):
    m_pp = m_qq = -1, m_pq = m_qp = 1/2, doubled to ints."""
    p, q = ("edge", e, 1), ("edge", e, 2)
    return [(p, p, -2), (q, q, -2), (p, q, 1), (q, p, 1)]


def m_matrix(tri):
    """The symmetric frozen matrix, one boundary block per boundary
    interval."""
    m = RationalMatrix(Sl3IndexSet(tri).all)
    for e in tri.boundary_intervals:
        for i, j, w2 in _doubled_boundary_block(e):
            m[i, j] = Fraction(w2, 2)
    return m


def extended_matrix(tri):
    """The matrix eps + m used by the ensemble map."""
    iset, eps = exchange_matrix(tri)
    return iset, eps.matrix + m_matrix(tri)


def extended_columns(tri):
    """The nonzero entries of 2(eps + m) by column, as ints:
    ``j -> ((i, 2(eps+m)_ij), ...)``.  Built once per triangulation and
    kept in its ``memo``; :func:`flip_plan` derives a flipped
    triangulation's columns from these."""
    columns = tri.memo.get("extended columns")
    if columns is None:
        doubled = _doubled_sum(tri, tri.triangles)
        for e in tri.boundary_intervals:
            for i, j, w2 in _doubled_boundary_block(e):
                doubled[i, j] = doubled.get((i, j), 0) + w2
        columns = tri.memo["extended columns"] = _add_columns({}, doubled)
    return columns


def _add_columns(columns, doubled):
    """``columns`` plus the entries ``{(i, j): w2}`` of ``doubled``, as a
    new column dict; ``columns`` is left as it is."""
    changed = {}
    for (i, j), w2 in doubled.items():
        if w2:
            if j not in changed:
                changed[j] = dict(columns.get(j, ()))
            changed[j][i] = changed[j].get(i, 0) + w2
    out = dict(columns)
    for j, col in changed.items():
        col = tuple((i, w2) for i, w2 in col.items() if w2)
        if col:
            out[j] = col
        else:
            del out[j]
    return out


def mutate_matrix(eps, k):
    """Skew-symmetric matrix mutation at the unfrozen index ``k``:
    eps'_ij = -eps_ij if k in (i, j), else eps_ij + sgn(eps_ik)[eps_ik eps_kj]_+.

    Only the pairs (i, j) with eps_ik and eps_kj both nonzero change, so
    one pass finds the neighbours of ``k`` and the update visits just
    their pairs."""
    if k in eps.frozen:
        raise FrozenIndexMutation(k)
    new = eps.matrix.copy()
    into, out_of = [], []  # (i, eps_ik) and (j, eps_kj), i, j != k
    for (i, j), v in eps.matrix.entries.items():
        if i == k or j == k:
            new.entries[i, j] = -v
        if j == k and i != k:
            into.append((i, v))
        elif i == k and j != k:
            out_of.append((j, v))
    for i, vik in into:
        for j, vkj in out_of:
            # sgn(vik) [vik vkj]_+ is |vik| vkj when the signs agree
            if j != i and (vik > 0) == (vkj > 0):
                new.add(i, j, abs(vik) * vkj)
    return ExchangeMatrix(new, eps.frozen)


def apply_matrix_steps(eps, steps):
    """Apply a list of Mutate/Permute steps to an exchange matrix."""
    cur = eps
    for step in steps:
        if isinstance(step, Mutate):
            cur = mutate_matrix(cur, step.k)
        else:
            mapping = step.as_dict()
            indices = [mapping[i] for i in cur.indices]
            cur = cur.relabel(mapping, indices, frozenset(mapping[i] for i in cur.frozen))
    return cur


def flip_mutation_sequence(tri, e):
    """The 4-mutation sequence realizing the flip at ``e``, followed by
    the relabeling onto the flipped triangulation's index set.

    In the local labels of the flip quadrilateral (1 = (e,2), 2 = face of
    T_L, 3 = (e,1), 4 = face of T_R) the path is mu_1, mu_3, mu_4, mu_2.
    Returns ``(steps, t_flipped, correspondence)``.
    """
    if tri.is_boundary(e):
        raise NotInteriorEdge(e)
    (tl, _), (tr, _) = tri.slots(e)
    t2, corr = tri.flip_edge(e)
    steps = [
        Mutate(("edge", e, 2)),
        Mutate(("edge", e, 1)),
        Mutate(("tri", tr)),
        Mutate(("tri", tl)),
        Permute.of(corr.index_map),
    ]
    return steps, t2, corr


@dataclass(frozen=True)
class FlipPlan:
    """What the flip at an edge does to seeds, derived once per
    (triangulation, edge): the flipped triangulation ``tri``, the index
    correspondence ``corr``, the indices of the flip quadrilateral
    (``local``) and the ``frozen`` ones among them, and the flip's four
    mutations as ``columns`` ``(k, ((i, eps_ik), ...))`` in order, each
    read off the exchange matrix as it stands before that mutation.
    Every entry touching an unfrozen index is an integer, so the columns
    hold plain ints."""

    tri: object
    corr: object
    local: tuple
    frozen: frozenset
    columns: tuple


def flip_plan(tri, e):
    """The :class:`FlipPlan` of the flip at ``e``, kept in ``tri.memo``.

    The mutation order is that of :func:`flip_mutation_sequence`.  The
    columns come from the two triangles at ``e``, which hold every entry
    touching a mutated index (see :func:`flip_quiver`), and the
    mutations update only the entries touching one; no other entry is
    ever read."""
    plan = tri.memo.get(("flip plan", e))
    if plan is not None:
        return plan
    t2, corr = tri.flip_edge(e)
    (tl, _), (tr, _) = tri.slots(e)
    order = (("edge", e, 2), ("edge", e, 1), ("tri", tr), ("tri", tl))
    doubled = _doubled_sum(tri, (tl, tr))
    local = tuple({i: None for ij in doubled for i in ij})
    mutated = frozenset(order)
    eps = {}  # eps[i][j] = eps_ij, for the pairs touching a mutated index
    for (i, j), w2 in doubled.items():
        if w2 and (i in mutated or j in mutated):
            eps.setdefault(i, {})[j] = w2 // 2
    columns = []
    for k in order:
        col = tuple((i, -v) for i, v in eps[k].items() if v)
        columns.append((k, col))
        for i, vik in col:
            eps[i][k] = -vik
            eps[k][i] = vik
        # eps_ij += sgn(eps_ik) [eps_ik eps_kj]_+ with eps_kj = -eps_jk,
        # which is |eps_ik| (-eps_jk) where eps_ik and eps_jk differ in sign
        for i, vik in col:
            row = eps[i]
            for j, vjk in col:
                if (vik > 0) != (vjk > 0) and (i in mutated or j in mutated):
                    row[j] = row.get(j, 0) - abs(vik) * vjk
    frozen = frozenset(i for i in local if i[0] == "edge" and tri.is_boundary(i[1]))
    plan = tri.memo[("flip plan", e)] = FlipPlan(t2, corr, local, frozen, tuple(columns))
    # a flip changes the quivers of its two triangles only
    parent_columns = tri.memo.get("extended columns")
    if parent_columns is not None and "extended columns" not in t2.memo:
        delta = _doubled_sum(tri, (tl, tr), sign=-1, into=_doubled_sum(t2, (tl, tr)))
        t2.memo["extended columns"] = _add_columns(parent_columns, delta)
    return plan


def dynkin_mutation_sequence(tri):
    """One mutation per face, then the swap of the two points on every
    edge.  Faces are pairwise non-adjacent in the quiver, so their order
    does not matter; triangles are visited in sorted order."""
    steps = [Mutate(("tri", t)) for t in tri.triangles]
    mapping = {}
    for e in tri.edges:
        mapping[("edge", e, 1)] = ("edge", e, 2)
        mapping[("edge", e, 2)] = ("edge", e, 1)
    for t in tri.triangles:
        mapping[("tri", t)] = ("tri", t)
    steps.append(Permute.of(mapping))
    return steps
