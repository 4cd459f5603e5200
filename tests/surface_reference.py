"""Reference isomorphism test for ideal triangulations.

Isomorphisms are orientation-preserving relabelings of triangles and
edges.  The canonical form is the minimum over all rooted breadth-first
traversals of the gluing table, so two triangulations are isomorphic
exactly when their canonical forms are equal.  The tests use it to check
flips, gluings and relabelings against the expected surface.
"""


def canonical_form(tri):
    """A canonical encoding of ``tri``, equal for isomorphic
    triangulations."""
    return min(_bfs_encoding(tri, t0, r) for t0 in tri.triangles for r in range(3))


def _bfs_encoding(tri, t0, r0):
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
            e = tri.tri_sides[t][(r + j) % 3]
            if e not in edge_label:
                edge_label[e] = len(edge_label)
            row.append(edge_label[e])
            other = tri.other_slot((t, (r + j) % 3))
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


def is_isomorphic(tri, other):
    return canonical_form(tri) == canonical_form(other)
