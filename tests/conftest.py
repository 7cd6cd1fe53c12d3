import os
from pathlib import Path

# One BLAS thread unless the caller chose otherwise, set before numpy loads its pools: on a
# 2-CPU host a 100x100 complex expm (the Fock tests' reference) takes about 24 ms on two
# OpenBLAS threads and 2 ms on one, the thread hand-offs outweighing the arithmetic.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def configs_dir():
    return REPO_ROOT / "configs"


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.SeedSequence(1234))


def random_gaussian_state(rng, num_modes, max_squeeze=0.8, max_disp=0.5):
    """Random pure-ish Gaussian state: per-mode squeezing, passive mixing, displacement."""
    from cvsense import gaussian

    modes = [
        gaussian.squeezed_vacuum(float(np.sinh(rng.uniform(0, max_squeeze)) ** 2),
                                 axis=rng.choice(["x", "p"]))
        for _ in range(num_modes)
    ]
    state = gaussian.tensor(*modes) if num_modes > 1 else modes[0]
    ortho = np.linalg.qr(rng.standard_normal((num_modes, num_modes)))[0]
    state = gaussian.apply_symplectic(state, gaussian.passive_transform(ortho.T))
    disp = rng.uniform(-max_disp, max_disp, size=2 * num_modes)
    return gaussian.GaussianState(state.mean + disp, state.cov)
