"""Seed data attached to an ideal triangulation: the index set, the
amalgamated exchange matrix, the frozen m-matrix, matrix mutation and the
mutation sequences realizing flips and the Dynkin involution.

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


def face_index(t):
    return ("tri", t)


def edge_index(e, s):
    return ("edge", e, s)


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
        self.frozen = frozenset(
            ("edge", e, s) for e in tri.boundary_intervals for s in (1, 2)
        )
        self.unfrozen = tuple(i for i in self.all if i not in self.frozen)

    def __len__(self):
        return len(self.all)

    def __contains__(self, i):
        return i in set(self.all)

    def is_frozen(self, i):
        return i in self.frozen

    def side_pair(self, slot):
        """The (p, q) indices of the side at ``slot`` in the traversal of
        the slot's triangle: p near the side's initial corner, q near the
        terminal corner."""
        tri = self.tri
        e = tri.edge_at(slot)
        sl, _ = tri.slots(e)
        if slot == sl:
            return (("edge", e, 1), ("edge", e, 2))
        return (("edge", e, 2), ("edge", e, 1))


class RationalMatrix:
    """A sparse square matrix over a fixed index list, with exact entries."""

    def __init__(self, indices, entries=None):
        self.indices = tuple(indices)
        self._pos = {i: n for n, i in enumerate(self.indices)}
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                self[i, j] = v

    def __getitem__(self, ij):
        return self.entries.get(ij, Fraction(0))

    def __setitem__(self, ij, v):
        v = Fraction(v)
        if v == 0:
            self.entries.pop(ij, None)
        else:
            self.entries[ij] = v

    def add(self, i, j, v):
        self[i, j] = self[i, j] + v

    def copy(self):
        return RationalMatrix(self.indices, dict(self.entries))

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

    def copy(self):
        return ExchangeMatrix(self.matrix.copy(), self.frozen)

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


def exchange_matrix(tri):
    """Index set and exchange matrix of a triangulation, assembled by
    amalgamating the elementary triangle quiver over all triangles.

    Per triangle with sides (p_a, q_a) in counterclockwise order and face
    f, the arrows are: p_a -> f, f -> q_a, q_a -> p_{a+1} (solid, weight
    1) and q_a -> p_a (dashed, weight 1/2).  Amalgamation is entrywise
    addition; the dashed arrows on shared edges cancel.
    """
    iset = Sl3IndexSet(tri)
    eps = RationalMatrix(iset.all)
    half = Fraction(1, 2)
    for t in tri.triangles:
        f = ("tri", t)
        pairs = [iset.side_pair((t, a)) for a in range(3)]
        for a in range(3):
            p, q = pairs[a]
            p_next = pairs[(a + 1) % 3][0]
            _add_arrow(eps, p, f, 1)
            _add_arrow(eps, f, q, 1)
            _add_arrow(eps, q, p_next, 1)
            _add_arrow(eps, q, p, half)
    return iset, ExchangeMatrix(eps, iset.frozen)


def _add_arrow(eps, i, j, w):
    eps.add(i, j, w)
    eps.add(j, i, -w)


def m_matrix(tri):
    """The symmetric frozen matrix: for each boundary interval E with
    points p = (E,1), q = (E,2): m_pp = m_qq = -1, m_pq = m_qp = 1/2."""
    iset = Sl3IndexSet(tri)
    m = RationalMatrix(iset.all)
    half = Fraction(1, 2)
    for e in tri.boundary_intervals:
        p, q = ("edge", e, 1), ("edge", e, 2)
        m[p, p] = -1
        m[q, q] = -1
        m[p, q] = half
        m[q, p] = half
    return m


def extended_matrix(tri):
    """The matrix eps + m used by the ensemble map."""
    iset, eps = exchange_matrix(tri)
    return iset, eps.matrix + m_matrix(tri)


def _sgn(v):
    return (v > 0) - (v < 0)


def mutate_matrix(eps, k):
    """Skew-symmetric matrix mutation at the unfrozen index ``k``:
    eps'_ij = -eps_ij if k in (i, j), else eps_ij + sgn(eps_ik)[eps_ik eps_kj]_+.
    """
    if k in eps.frozen:
        raise FrozenIndexMutation(k)
    old = eps.matrix
    new = RationalMatrix(old.indices)
    support = set()
    for (i, j) in old.entries:
        support.add(i)
        support.add(j)
    for (i, j), v in old.entries.items():
        if i == k or j == k:
            new[i, j] = -v
        else:
            new[i, j] = v
    for i in support:
        if i == k:
            continue
        vik = old[i, k]
        if vik == 0:
            continue
        for j in support:
            if j == k or j == i:
                continue
            vkj = old[k, j]
            prod = vik * vkj
            if prod > 0:
                new.add(i, j, _sgn(vik) * prod)
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
