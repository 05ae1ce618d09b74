"""Nonzero consensus on signed matrix-weighted networks.

Tools to check network decompositions, synthesize external-signal coupling
designs with provable spectral margins, and simulate the resulting fixed and
switching closed loops.
"""

from .errors import ConsensusError, FileFormatError
from .fileio import (
    load_graph,
    load_schedule,
    read_trajectory_csv,
    save_graph,
    write_trajectory_csv,
)
from .graph import (
    AssumptionReport,
    Decomposition,
    SignedGraph,
    suggest_decomposition,
    verify_assumption,
)
from .networks import (
    BUNDLED_V1,
    SWITCHING_DELTAS,
    bundled_decomposition,
    bundled_graph,
    bundled_path,
)
from .protocol import (
    ClosedLoop,
    ContractionReport,
    DesignReport,
    ProtocolDesign,
    SwitchingDesign,
    closed_loop,
    contraction_factor,
    design_fixed,
    design_laplacians,
    design_switching,
    necessary_condition_check,
    verify_design,
)
from .simulate import (
    ConvergenceReport,
    SwitchingSchedule,
    Trajectory,
    convergence_report,
    integrate_fixed,
    integrate_switching,
)
from .spectral import (
    Laplacian,
    augmented_laplacian,
    consensus_space,
    eigenvalues_sorted,
    laplacian_blocks,
)

__version__ = "0.1.0"
