"""Numerical toolkit for multiparty quantum channels: fidelity functionals,
coherent-information rate regions, twirling and teleportation protocols."""

from .capacity import (
    BipartiteSplit,
    RateTuple,
    check_dpi,
    coherent_information,
    continuity_gap,
    pareto_frontier,
    region_sample,
    region_sweep,
    simplex_weight_grid,
)
from .channels import (
    Connection,
    ConnectionGraph,
    KrausChannel,
    apply,
    apply_with_reference,
    compose,
    dephasing,
    depolarizing,
    identity_channel,
    product_channel,
    random_channel,
    random_kraus,
    read_channel,
    tensor,
    tensor_power,
    validate,
    write_channel,
)
from .errors import CapExceededError, ChannelFormatError, PolychanError
from .fidelities import (
    FidelityReport,
    average_fidelity_exact,
    average_fidelity_mc,
    channel_fidelity,
    channel_fidelity_report,
    entanglement_fidelity,
    group_channel_fidelity_kraus,
    group_fidelity,
    local_entanglement_fidelity,
    min_subspace_fidelity,
    mixed_fidelity,
    pure_state_fidelity,
)
from .linalg import (
    DensityOperator,
    SystemLayout,
    eigh,
    entropy,
    haar_state,
    haar_unitary,
    kron,
    make_rng,
    maximally_entangled_vector,
    partial_trace,
    split_rng,
    uhlmann_fidelity,
)
from .protocols import (
    ExtractionResult,
    PhaseAverageReport,
    SubspaceBasis,
    UnitaryEnsemble,
    clifford_1q,
    extract_subspace,
    haar_ensemble,
    phase_average_bound,
    teleport_channel,
    twirl_channel,
)

__version__ = "0.1.0"
