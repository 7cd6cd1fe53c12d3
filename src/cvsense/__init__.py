"""Continuous-variable distributed quadrature-sensing toolkit."""

import os as _os

__version__ = "0.1.0"

# Honor the thread-count override before numpy initializes its BLAS pools;
# this module runs before any submodule imports numpy.
_threads = _os.environ.get("CVSENSE_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .gaussian import (  # noqa: F401
    GaussianState,
    LossChannel,
    SymplecticTransform,
    apply_loss,
    apply_symplectic,
    balanced_splitter,
    coherent_state,
    displace_all,
    squeezed_vacuum,
    tensor,
    vacuum_state,
)
from .protocols import (  # noqa: F401
    EstimatorReport,
    SensorNetworkConfig,
    build_entangled_input,
    build_product_input,
    entangled_rms_error,
    phase_rms_error,
    product_rms_error,
    scaling_exponent,
    sensitivity_ratio_db,
    simulate_displacement_protocol,
    simulate_phase_protocol,
)
from .allocation import (  # noqa: F401
    AllocationResult,
    WeightedNetwork,
    allocate_photons_product,
    optimal_weights_entangled,
    optimal_weights_product,
    weighted_entangled_rms,
)
from .fisher import (  # noqa: F401
    SqueezedThermalParams,
    cr_bound_separable,
    fisher_closed_form,
    fisher_max,
    fisher_numeric,
    gaussian_fidelity,
)
from .fock import fock_fidelity, gaussian_to_fock  # noqa: F401
