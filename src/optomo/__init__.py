"""Entanglement-assisted tomography of quantum operations.

Simulates the reconstruction of an unknown quantum operation (a pure
contraction A or a general Kraus map) from tomographic measurements on one
half of an entangled input state, including a full Monte Carlo homodyne
experiment on a displaced twin-beam.
"""

from optomo.bipartite import (
    hs_norm,
    inverse,
    kron,
    partial_trace_2,
    phase_align,
    unvec,
    vec,
)
from optomo.maps import (
    ChoiMatrix,
    KrausMap,
    PureOperation,
    TwinBeamState,
    apply_kraus_bipartite,
    apply_pure,
    choi_to_kraus,
    displacement_matrix,
    kraus_to_choi,
    map_from_choi,
    output_branches,
    twin_beam,
)
from optomo.quorum import (
    FiniteQuorum,
    GridSpec,
    HomodyneKernel,
    build_finite_quorum,
    build_homodyne_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "ChoiMatrix",
    "FiniteQuorum",
    "GridSpec",
    "HomodyneKernel",
    "KrausMap",
    "PureOperation",
    "TwinBeamState",
    "apply_kraus_bipartite",
    "apply_pure",
    "build_finite_quorum",
    "build_homodyne_kernel",
    "choi_to_kraus",
    "displacement_matrix",
    "hs_norm",
    "inverse",
    "kraus_to_choi",
    "kron",
    "map_from_choi",
    "output_branches",
    "partial_trace_2",
    "phase_align",
    "twin_beam",
    "unvec",
    "vec",
]
