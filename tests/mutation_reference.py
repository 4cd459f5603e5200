"""Dense reference rules for matrix, X- and A-mutation, mutation
sequences and the ensemble map, on Fractions.

A matrix here is the dict ``{(i, j): eps_ij}`` of its nonzero entries,
and every rule is read straight off its definition, over every pair of
indices.  The tests compare the library's column-wise rules with these.
The matrix eps + m of the ensemble map is summed here from the library's
exchange matrix and m-matrix.

A mutation sequence is plain data: the list of indices mutated in turn,
then a relabeling dict, an index it leaves out keeping its label.  The
paper's two sequences are written out here from the triangulation
(:func:`flip_sequence`, :func:`dynkin_sequence`).  A sequence runs on a
point and the dense form of the library's exchange matrix
(:func:`apply_steps`), or on the column-stored matrix itself
(:func:`apply_matrix_steps`).
:func:`check` reads the invariants of a column-stored matrix.
"""

from fractions import Fraction

from sl3shear.seeds import (
    ExchangeMatrix,
    exchange_matrix,
    m_matrix,
    matrix_entries,
)
from sl3shear.seeds import mutate_matrix as mutate_columns


def flip_sequence(tri, e):
    """The flip at the interior edge ``e``: mu_1 mu_3 mu_4 mu_2 in the
    local labels 1 = (e,2), 2 = face of T_L, 3 = (e,1), 4 = face of T_R,
    then the relabeling onto the flipped triangulation, where the old
    diagonal's points become the new faces and the old faces the new
    diagonal's points."""
    (tl, _), (tr, _) = tri.slots(e)
    p, q, fl, fr = ("edge", e, 1), ("edge", e, 2), ("tri", tl), ("tri", tr)
    return [q, p, fr, fl], {q: fl, p: fr, fl: p, fr: q}


def dynkin_sequence(tri):
    """The Dynkin involution: one mutation per face, then the swap of the
    two points on every edge."""
    swap = {("edge", e, s): ("edge", e, 3 - s) for e in tri.edges for s in (1, 2)}
    return [("tri", t) for t in tri.triangles], swap


def exchange(indices, entries, frozen=()):
    """The :class:`ExchangeMatrix` with the given entries ``{(i, j): v}``,
    each with its skew-symmetric partner: columns of doubled ints."""
    columns = {}
    for (i, j), v in entries.items():
        w2 = 2 * Fraction(v)
        assert w2.denominator == 1, f"entry {i},{j} is not half-integral"
        if w2:
            columns.setdefault(j, {})[i] = int(w2)
            columns.setdefault(i, {})[j] = -int(w2)
    return ExchangeMatrix(indices, columns, frozen)


def check(eps):
    """Invariant diagnostics of the :class:`ExchangeMatrix` ``eps``:
    skew-symmetry, integrality pattern, range."""
    diags = []
    cols = eps.columns
    if any(cols.get(i, {}).get(j) != -w2 for j, col in cols.items() for i, w2 in col.items()):
        diags.append("not skew-symmetric")
    for (i, j), v in matrix_entries(cols).items():
        if v.denominator == 2 and not (i in eps.frozen and j in eps.frozen):
            diags.append(f"non-frozen entry {i},{j} not integral")
        if abs(v) > 1:
            diags.append(f"entry {i},{j} out of range")
    return diags


def mutate_matrix(indices, eps, k):
    """eps'_ij = -eps_ij if k in (i, j), else
    eps_ij + sgn(eps_ik) max(0, eps_ik eps_kj)."""
    out = {}
    for i in indices:
        for j in indices:
            e = eps.get((i, j), 0)
            if k in (i, j):
                v = -e
            else:
                eik, ekj = eps.get((i, k), 0), eps.get((k, j), 0)
                sgn = (eik > 0) - (eik < 0)
                v = e + sgn * max(0, eik * ekj)
            if v:
                out[i, j] = Fraction(v)
    return out


def mutate_x(indices, eps, frozen, x, k, restricted=False):
    """x'_k = -x_k and x'_i = x_i - eps_ik max(0, -sgn(eps_ik) x_k); a
    restricted point drops every frozen coordinate."""
    out = {}
    xk = x.get(k, 0)
    for i in indices:
        if i == k:
            v = -xk
        else:
            eik = eps.get((i, k), 0)
            sgn = (eik > 0) - (eik < 0)
            v = x.get(i, 0) - eik * max(0, -sgn * xk)
        if v and not (restricted and i in frozen):
            out[i] = Fraction(v)
    return out


def mutate_a(indices, eps, a, k):
    """a'_k = -a_k + max(sum_j max(0, eps_kj) a_j, sum_j max(0, -eps_kj) a_j),
    every other coordinate unchanged."""
    plus = sum(max(0, eps.get((k, j), 0)) * a.get(j, 0) for j in indices)
    minus = sum(max(0, -eps.get((k, j), 0)) * a.get(j, 0) for j in indices)
    out = {i: v for i, v in a.items() if i != k}
    v = -a.get(k, 0) + max(plus, minus)
    if v:
        out[k] = Fraction(v)
    return out


def apply_steps(tri, kind, coords, sequence, restricted=False):
    """Run the mutation ``sequence`` on the ``kind``-point ``coords`` of
    ``tri``, mutating the dense exchange matrix of ``tri`` along, and
    relabel the point; a restricted X-point drops every frozen
    coordinate."""
    _, columns = exchange_matrix(tri)
    indices, eps, frozen = columns.indices, matrix_entries(columns.columns), columns.frozen
    ks, relabel = sequence
    for k in ks:
        if kind == "X":
            coords = mutate_x(indices, eps, frozen, coords, k, restricted)
        else:
            coords = mutate_a(indices, eps, coords, k)
        eps = mutate_matrix(indices, eps, k)
    return {relabel.get(i, i): v for i, v in coords.items()}


def ensemble(entries, a):
    """x_i = sum_j w_ij a_j for the matrix ``entries`` ``{(i, j): w_ij}``."""
    out = {}
    for (i, j), w in entries.items():
        out[i] = out.get(i, 0) + w * a.get(j, 0)
    return {i: Fraction(v) for i, v in out.items() if v}


def extended_matrix(tri):
    """The nonzero entries ``{(i, j): w_ij}`` of eps + m on ``tri``: the
    exchange matrix plus the frozen m-matrix, entry by entry."""
    out = matrix_entries(exchange_matrix(tri)[1].columns)
    for ij, v in matrix_entries(m_matrix(tri)).items():
        out[ij] = out.get(ij, 0) + v
    return {ij: v for ij, v in out.items() if v}


def apply_matrix_steps(eps, sequence):
    """Run the mutation ``sequence`` on the column-stored exchange matrix
    ``eps`` with the library's :func:`sl3shear.seeds.mutate_matrix`, then
    rename every index ``i`` to ``relabel.get(i, i)``."""
    ks, relabel = sequence
    for k in ks:
        eps = mutate_columns(eps, k)
    new = relabel.get
    return ExchangeMatrix(
        [new(i, i) for i in eps.indices],
        {new(j, j): {new(i, i): w2 for i, w2 in col.items()} for j, col in eps.columns.items()},
        [new(i, i) for i in eps.frozen],
    )
