"""Seed data attached to an ideal triangulation: the index set, the
elementary triangle quiver and its amalgamation into the exchange matrix,
the frozen m-matrix, matrix mutation and the mutation sequences realizing
flips and the Dynkin involution.

:func:`triangle_quiver` is the one definition of the quiver: the exchange
matrix sums it over every triangle, :func:`flip_quiver` over the two
triangles of a flipped edge (every entry a flip mutation reads or writes
comes from those two), and the ensemble map folds it against a point.
Mutation touches only the pairs of neighbours of the mutated index.

Indices are tuples: ``("tri", t)`` for the face index of triangle ``t``
and ``("edge", e, s)`` with ``s in (1, 2)`` for the two points on edge
``e`` (``s = 1`` nearer the initial endpoint of the oriented edge).  All
matrix entries are exact :class:`fractions.Fraction` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .surface import Sl3Error


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


def triangle_quiver(tri, t):
    """The arrows ``(i, j, w)`` of the elementary quiver of triangle ``t``.

    Per side (p_a, q_a) in counterclockwise order, with face f: p_a -> f,
    f -> q_a, q_a -> p_{a+1} (solid, weight 1) and q_a -> p_a (dashed,
    weight 1/2).  An arrow i -> j of weight w is the pair of entries
    eps_ij = w, eps_ji = -w.
    """
    f = ("tri", t)
    pairs = [side_pair(tri, (t, a)) for a in range(3)]
    arrows = []
    for a in range(3):
        p, q = pairs[a]
        arrows += [(p, f, 1), (f, q, 1), (q, pairs[(a + 1) % 3][0], 1), (q, p, HALF)]
    return arrows


def _amalgamate(tri, triangles, indices):
    """The sum of the elementary quivers of ``triangles``; the dashed
    arrows on edges shared by two of them cancel."""
    eps = RationalMatrix(indices)
    for t in triangles:
        for i, j, w in triangle_quiver(tri, t):
            eps.add(i, j, w)
            eps.add(j, i, -w)
    return eps


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


def boundary_block(e):
    """The entries ``(i, j, w)`` of the symmetric frozen matrix at the
    boundary interval ``e`` with points p = (e,1), q = (e,2):
    m_pp = m_qq = -1, m_pq = m_qp = 1/2."""
    p, q = ("edge", e, 1), ("edge", e, 2)
    return [(p, p, -1), (q, q, -1), (p, q, HALF), (q, p, HALF)]


def m_matrix(tri):
    """The symmetric frozen matrix, one :func:`boundary_block` per
    boundary interval."""
    m = RationalMatrix(Sl3IndexSet(tri).all)
    for e in tri.boundary_intervals:
        for i, j, w in boundary_block(e):
            m[i, j] = w
    return m


def extended_matrix(tri):
    """The matrix eps + m used by the ensemble map."""
    iset, eps = exchange_matrix(tri)
    return iset, eps.matrix + m_matrix(tri)


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


def apply_matrix_steps(eps, steps, new_frozen=None, new_indices=None):
    """Apply a list of Mutate/Permute steps to an exchange matrix."""
    cur = eps
    for step in steps:
        if isinstance(step, Mutate):
            cur = mutate_matrix(cur, step.k)
        else:
            mapping = step.as_dict()
            indices = new_indices if new_indices is not None else [
                mapping[i] for i in cur.indices
            ]
            frozen = new_frozen if new_frozen is not None else frozenset(
                mapping[i] for i in cur.frozen
            )
            if frozenset(mapping[i] for i in cur.frozen) != frozenset(frozen):
                raise FrozenIndexMutation("relabeling does not respect the frozen set")
            cur = cur.relabel(mapping, indices, frozen)
    return cur


def flip_mutation_sequence(tri, e):
    """The 4-mutation sequence realizing the flip at ``e``, followed by
    the relabeling onto the flipped triangulation's index set.

    In the local labels of the flip quadrilateral (1 = (e,2), 2 = face of
    T_L, 3 = (e,1), 4 = face of T_R) the path is mu_1, mu_3, mu_4, mu_2.
    Returns ``(steps, t_flipped, correspondence)``.
    """
    if tri.is_boundary(e):
        from .surface import NotInteriorEdge

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
