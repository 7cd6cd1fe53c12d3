"""The shipped validation commands catch a fault in the physics they sample.

Each row injects one fault into the library and runs `monte-carlo` on the shipped
configs/fig1_check.cfg or `phase` on configs/phase_sweep.cfg through the hostile-input
harness, which checks the whole exit contract: here exit 2, "statistical validation failed"
and a CSV holding FAIL. Both commands judge a campaign by its report's agreement_sigmas(). A
row must hold at every seed of SEEDS, none chosen.

The commands are not meant to catch every fault; tier-1 catches these elsewhere:
- a fault in what the analytic rms and the sampler share, such as `_mode_photons`, or
  `_phase_marginal`, which phase_exact_stats reads for the exact rms: both move together,
  so the verdict cannot see it; `test_structured_marginal_equals_the_dense_pipeline`
  compares the marginal with the dense network instead;
- a wrong variance across the unit vector of the marginal: on fig1_check.cfg's uniform
  networks, as on every phase network, the weights are parallel to it, so the estimator
  never reads that variance; `test_homodyne_covariance_consistency` and
  `test_weighted_entangled_random_instances` read it;
- a bias in the sampled mean: the verdict tests the rms only, which a bias b moves by just
  b^2/(2 rms); `test_monte_carlo_agreement` and `test_monte_carlo_unbiased_at_zero` test
  the mean;
- reproducibility faults: an overdrawn last chunk or chunk sums reduced in the order
  threads claim them (`test_campaign_does_not_depend_on_the_thread_count`), or a chunk
  drawing from another chunk's stream (`test_chunk_j_draws_from_the_jth_spawned_stream`).
"""

import dataclasses
from pathlib import Path

import pytest
from test_hostile_inputs import Row, check_in_process

from cvsense import protocols

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
MC = f"monte-carlo --config {CONFIGS / 'fig1_check.cfg'}"
PHASE = f"phase --config {CONFIGS / 'phase_sweep.cfg'}"
SEEDS = range(4)
CAUGHT = (2, "statistical validation failed")


def product_marginal_at_the_whole_budget(monkeypatch):
    """_x_marginal squeezes each product node with N_S, not N_S/M; the analytic rms keeps N_S/M."""
    real = protocols._x_marginal

    def faulty(cfg):
        if cfg.scheme == "product":
            cfg = dataclasses.replace(cfg, total_photons=cfg.total_photons * cfg.num_nodes)
        return real(cfg)

    monkeypatch.setattr(protocols, "_x_marginal", faulty)


def noise_scaled_by(factor):
    """The sampled outcomes' spread about their mean, times factor."""
    def setup(monkeypatch):
        real = protocols._Marginal.sample

        def faulty(marginal, rng, normals, out):
            out = real(marginal, rng, normals, out)
            out -= marginal.mean
            out *= factor
            out += marginal.mean
            return out

        monkeypatch.setattr(protocols._Marginal, "sample", faulty)
    return setup


FAULTS = [  # (id, command, extra options, setup)
    ("product-at-whole-budget", MC, "--trials 20000", product_marginal_at_the_whole_budget),
    # About 14 sigma at the config's 10^6 trials: 0.01 sqrt(2 * 10^6).
    ("rms-times-1.01", MC, "", noise_scaled_by(1.01)),
    # About 9 sigma at the config's 4 * 10^5 trials: 0.01 sqrt(2 * 4 * 10^5).
    ("phase-rms-times-1.01", PHASE, "", noise_scaled_by(1.01)),
]
ROWS = [Row(f"{name}-seed={seed}", f"{command} --seed {seed} {options} --out {{out}}",
            None, *CAUGHT, setup)
        for name, command, options, setup in FAULTS for seed in SEEDS]


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_shipped_command_catches_the_fault(tmp_path, monkeypatch, capsys, row):
    check_in_process(row, tmp_path, monkeypatch, capsys)
