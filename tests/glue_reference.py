"""The walk-everything gluing, kept as the reference for the local one.

:func:`glue_laminations` walks every component of the picture on the
glued surface, seeded from the window of both glued sheets and then from
every outgoing strand, drops the peripherals around the merged marked
points, writes every surviving component and re-reads the boundary
weights of every remaining interval.  The library's
:func:`sl3shear.glue.glue_laminations` walks only the components the
gluing can change and copies the rest; the tests compare the two
encodings byte for byte.
"""

from fractions import Fraction

from sl3shear.laminations import PinnedLamination, boundary_weights, normalize_integral
from sl3shear.glue import glue_coordinates
from sl3shear.reconstruct import (
    SPIRAL_TURNS,
    _PictureStepper,
    build_picture,
    components,
    out_seeds,
    stack_entries,
    window_seeds,
)
from sl3shear.surface import SameEdge


def glue_laminations(pinned, e_l, e_r):
    """Glue a pinned lamination along two boundary intervals, walking
    every component."""
    tri = pinned.tri
    if e_l == e_r:
        raise SameEdge(e_l)
    u, norm = normalize_integral(pinned)
    pic = norm.underlying.require_valid()
    t2, vertex_map = tri.glue_boundary(e_l, e_r)
    (sl, _), (sr, _) = tri.slots(e_l), tri.slots(e_r)
    dl, dr = (norm.delta_at(e) for e in (e_l, e_r))
    pins = {slot: int(p) for slot, p in zip((sl, sr), glue_coordinates(dl, dr))}
    total = sum(pic.strand_count(*side) for side in pic.strand_lists)
    mass = abs(pins[sl]) + abs(pins[sr])
    stepper = _PictureStepper(pic, t2, pins, 4000 + 100 * (total + mass + 8) * max(1, len(tri.edges)))
    merged_ids = {vertex_map[v] for e in (e_l, e_r) for v in tri.edge_endpoints(e)}
    window = window_seeds(stepper, sl, sr) + window_seeds(stepper, sr, sl)
    in_window = set(window)
    entries = []
    for seed, traveler in components(stepper, window + out_seeds(pic)):
        peripheral = seed not in in_window and traveler.peripheral
        if peripheral and traveler.turns[0].vertex in merged_ids:
            continue
        entries += stack_entries(stepper, traveler, SPIRAL_TURNS)[0]
    glued = build_picture(t2, pic.honeycombs, entries, Fraction(1, u)).require_valid()
    delta = {}
    for e in t2.boundary_intervals:
        old, new = boundary_weights(pinned.underlying, e), boundary_weights(glued, e)
        dp, dm = (d + b - a for d, a, b in zip(pinned.delta_at(e), old, new))
        if dp or dm:
            delta[e] = (dp, dm)
    return PinnedLamination(glued, delta)
