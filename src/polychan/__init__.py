"""Numerical toolkit for multiparty quantum channels: fidelity functionals,
coherent-information rate regions, twirling and teleportation protocols.

The public names below are loaded from their submodules on first use
(PEP 562), so ``import polychan`` loads neither numpy nor any submodule.
That lets the command line set numpy's BLAS thread count before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "capacity": ["RateTuple", "check_dpi", "coherent_information", "continuity_gap",
                 "region_sample", "region_sweep", "simplex_weight_grid"],
    "channels": ["Connection", "ConnectionGraph", "KrausChannel", "apply",
                 "apply_with_reference", "dephasing", "depolarizing", "identity_channel",
                 "product_channel", "random_channel", "random_kraus", "read_channel",
                 "tensor", "tensor_power", "write_channel"],
    "errors": ["CapExceededError", "ChannelFormatError", "PolychanError"],
    "fidelities": ["FidelityReport", "average_fidelity_mc", "channel_fidelity",
                   "channel_fidelity_report", "group_fidelity", "min_subspace_fidelity",
                   "pure_state_fidelity"],
    "linalg": ["DensityOperator", "SystemLayout", "eigh", "entropy", "haar_state",
               "haar_unitary", "kron", "make_rng", "maximally_entangled_vector",
               "partial_trace", "uhlmann_fidelity"],
    "protocols": ["ExtractionResult", "PhaseAverageReport", "SubspaceBasis",
                  "UnitaryEnsemble", "clifford_1q", "extract_subspace", "haar_ensemble",
                  "phase_average_bound", "teleport_channel", "twirl_channel"],
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
