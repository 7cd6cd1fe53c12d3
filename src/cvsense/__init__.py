"""Continuous-variable distributed quadrature-sensing toolkit.

The public names below load their module on first use (PEP 562), so
`import cvsense` and the command line pay only for the modules they call.
"""

import importlib as _importlib
import os as _os

__version__ = "0.1.0"

# Honor the thread-count override before numpy initializes its BLAS pools;
# this module runs before any submodule imports numpy.
_threads = _os.environ.get("CVSENSE_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

_EXPORTS = {
    "gaussian": (
        "GaussianState", "LossChannel", "SymplecticTransform", "apply_loss", "apply_symplectic",
        "balanced_splitter", "coherent_state", "squeezed_vacuum", "tensor", "vacuum_state",
    ),
    "protocols": (
        "EstimatorReport", "SensorNetworkConfig", "build_entangled_input", "build_product_input",
        "entangled_rms_error", "phase_rms_error", "product_rms_error", "sensitivity_ratio_db",
        "simulate_displacement_protocol", "simulate_phase_protocol",
    ),
    "allocation": (
        "AllocationResult", "WeightedNetwork", "allocate_photons_product",
        "optimal_weights_entangled", "optimal_weights_product", "weighted_entangled_rms",
    ),
    "fisher": (
        "SqueezedThermalParams", "cr_bound_separable", "fisher_closed_form", "fisher_max",
        "fisher_numeric", "gaussian_fidelity",
    ),
    "fock": ("fock_fidelity", "gaussian_to_fock"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")
__all__ = list(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not cached here: cvsense.X is always the home module's current X.
    return getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
