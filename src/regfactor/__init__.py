"""Even-degree regular factors in odd-regular multigraphs.

Core pieces: a multigraph type with loops and parallel edges, cut-edge and
connectivity routines, an ℓ-factor engine (exhaustive criterion oracle and
a matching-based constructive solver), generators for the extremal and
sharpness graph families, and verifiers that re-check the theorems on
concrete instances.
"""

from .connectivity import bridges, edge_connectivity, is_connected, vertex_connectivity
from .factor import (
    FactorResult,
    OddComponentProfile,
    TutteWitness,
    build_factor_gadget,
    exhaustive_tutte_oracle,
    find_factor,
    has_2k_factor,
    q_count,
    t_odd_profile,
    tutte_deficiency,
)
from .generators import (
    BswParams,
    ExtremalParams,
    bridged_chain,
    bsw_graph,
    complement,
    complete_graph,
    cycle_graph,
    deficiency_component,
    extremal_parameter_grid,
    general_extremal,
    general_extremal_with_partition,
    h_rt,
    named_graphs,
    petersen_graph,
    random_connected_regular_multigraph,
    random_multigraph,
    random_regular_multigraph,
    sylvester_extremal,
)
from .io import from_graph6, from_mgf, to_dot, to_graph6, to_mgf
from .matching import max_matching
from .multigraph import Multigraph
from .verifier import (
    PartitionCertificate,
    VerificationReport,
    characterization_check,
    check_conditions_a_f,
    check_extremal_equalities,
    parity_audit,
    verify_bsw,
    verify_control_instance,
    verify_extremal_instance,
    verify_main_theorem,
)

__version__ = "0.1.0"
