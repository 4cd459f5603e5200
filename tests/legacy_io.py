"""The unary picture format that ``sl3shear.io`` wrote before run-length
corner stacks: one entry object per stack entry, and the reversal
``pairings`` of every interior edge written out.

The library only reads this format; the tests write it here to pin the
old golden digests and to check that old documents still decode.
"""

from sl3shear import io as jio


def picture_to_obj(pic):
    obj = jio.picture_to_obj(pic)
    weight = jio.frac_to_str(pic.weight)
    for t, entry in obj["triangles"].items():
        if "corners" in entry:
            entry["corners"] = {
                c: [jio._entry_to_obj(x, weight) for x in pic.corner_stack((t, int(c)))]
                for c in entry["corners"]
            }
    obj["pairings"] = {
        e: dict(zip(("lr", "rl"), jio._reversal_pairs(pic, e))) for e in pic.tri.interior_edges
    }
    return obj


def pinned_to_obj(pl):
    return {**jio.pinned_to_obj(pl), "picture": picture_to_obj(pl.underlying)}
