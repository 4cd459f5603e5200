"""Exact tropical machinery for sl3-laminations on marked surfaces.

The package is organized around combinatorial ideal triangulations
(:mod:`sl3shear.surface`), the associated cluster seeds and their mutation
(:mod:`sl3shear.seeds`), exact max-plus tropical points and
piecewise-linear maps (:mod:`sl3shear.tropical`), concrete lamination
pictures with their shear coordinates (:mod:`sl3shear.laminations`),
reconstruction of pictures from coordinates (:mod:`sl3shear.reconstruct`)
and gluing of pinned laminations (:mod:`sl3shear.glue`).  All arithmetic
is exact: the maps run on ints over one common denominator, and a value
is read as a :class:`fractions.Fraction`.
"""

from .surface import (
    IdealTriangulation,
    MarkedSurfaceSpec,
    Sl3Error,
    SurfaceError,
    SpecViolatesSurfaceConditions,
    SelfFoldedUnavoidable,
    NotInteriorEdge,
    FlipCreatesSelfFolded,
    SameEdge,
    ResultViolatesSurfaceConditions,
    UnknownInterval,
)
from .seeds import (
    Sl3IndexSet,
    ExchangeMatrix,
    FrozenIndexMutation,
    exchange_matrix,
    m_matrix,
    mutate_matrix,
)
from .tropical import (
    TropicalPoint,
    SeedMismatch,
    mutate_x,
    mutate_a,
    flip_x_closed_form,
    apply_flip,
    ensemble,
    dynkin_cluster,
    principal_embed,
)
from .laminations import (
    GlobalPicture,
    add_peripheral_chain,
    honeycomb_leg_split,
    Honeycomb,
    CornerArc,
    SpiralEnd,
    ComponentSum,
    Component,
    PinnedLamination,
    InvalidPicture,
    PictureTooLarge,
    UnknownComponentKind,
    CarrierMismatch,
    NegativeNonPeripheralWeight,
    shear_unfrozen,
    shear_frozen,
    coords_of_components,
    geometric_ensemble,
    normalize_integral,
)
from .reconstruct import (
    TruncationTooShallow,
    identifier_relations,
    NonIntegralInput,
    reconstruct,
    reconstruct_pinned,
    elementary_lamination,
    traveler_trace,
    roundtrip_check,
)
from .glue import (
    ShiftElement,
    glue_coordinates,
    glue_laminations,
    shift_action,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
