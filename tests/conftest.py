from pathlib import Path

import numpy as np
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
    state = gaussian.apply_symplectic(state, gaussian.transform_from_mode_matrix(ortho))
    disp = rng.uniform(-max_disp, max_disp, size=2 * num_modes)
    return gaussian.GaussianState(state.mean + disp, state.cov)
