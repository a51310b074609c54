"""The benchmark's two workloads and their oracle gates.

Each workload fixes a state, how its homodyne record is sampled and stored,
the reconstruction settings, the scanned points and the pass/fail rule taken
from the acceptance criterion it scales.  README.md says why each exists and
which layer it is meant to stress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from emtomo import (
    ReconstructionConfig,
    StateSpec,
    WignerGrid,
    cat_state,
    coherent_state,
    compare_wigner_grids,
)

ONE_OVER_PI = 1.0 / np.pi


@dataclass(frozen=True)
class Workload:
    """One benchmark input recipe.

    ``reference_seed`` is the acceptance criterion's own record seed.  Every
    run reconstructs that record next to the records drawn from ``--seed``,
    times all of them alike and reports the reference record's error against
    the oracle, so accuracy is compared on identical data from run to run.

    ``simulations_per_job`` is how many records an untraced run samples per
    job, on average, so that both ``simulate_s`` and ``wall_s`` get many
    samples spread over the run: a ``cat-scan`` record (~0.5 s) is cheap next
    to its job (~2 s), a ``calib-plateau`` record (~2 s) costs as much as its
    job.
    """

    name: str
    why: str
    make_state: Callable[[], StateSpec]
    phases: int
    events: int
    eta: float
    record_format: str  # "text" or "binary"
    reference_seed: int
    settings: dict  # ReconstructionConfig fields besides eta and the paths
    oracle_n_max: int
    gate: Callable[[WignerGrid, WignerGrid], list]
    seeded_records: int = 1
    warm_cache: bool = False
    simulations_per_job: float = 1.0

    def seeds_for(self, seed: int) -> list:
        """Record seeds a run derives from its ``--seed``."""
        return [int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
                for k in range(self.seeded_records)]

    def make_config(self, record_path: str, output_path: str,
                    kernel_cache: str | None) -> ReconstructionConfig:
        data = dict(self.settings)
        data.update(eta=self.eta, record_path=record_path,
                    output_path=output_path, kernel_cache=kernel_cache)
        return ReconstructionConfig.from_dict(data)

    @property
    def point_count(self) -> int:
        return self.settings["q_steps"] * self.settings["p_steps"]


def _point_index(grid: WignerGrid, q: float, p: float):
    i = int(np.argmin(np.abs(grid.qs - q)))
    j = int(np.argmin(np.abs(grid.ps - p)))
    if abs(grid.qs[i] - q) > 1e-9 or abs(grid.ps[j] - p) > 1e-9:
        return None
    return i, j


def _cat_gate(recon: WignerGrid, exact: WignerGrid) -> list:
    """Criterion 5: rms <= 0.03, and W(0, 0) within 0.05 of -1/pi."""
    problems = []
    rms = compare_wigner_grids(recon, exact)["rms"]
    if not rms <= 0.03:
        problems.append(f"rms {rms:.4g} > 0.03")
    origin = _point_index(recon, 0.0, 0.0)
    if origin is not None:
        err = abs(recon.values[origin] + ONE_OVER_PI)
        if not err < 0.05:
            problems.append(f"W(0,0) misses -1/pi by {err:.4g} (limit 0.05)")
    return problems


def _calib_gate(recon: WignerGrid, exact: WignerGrid) -> list:
    """Criterion 4: W at (sqrt 2, 0) within 0.02 of 1/pi."""
    centre = _point_index(recon, np.sqrt(2.0), 0.0)
    if centre is None:
        return ["(sqrt 2, 0) is not scanned"]
    err = abs(recon.values[centre] - ONE_OVER_PI)
    return [] if err < 0.02 else [f"W(sqrt 2, 0) misses 1/pi by {err:.4g} (limit 0.02)"]


# Cutoff radius of criterion 5: farthest corner of [-4, 4]^2 plus the state's
# own spread; it resolves to n_max = 39.
_CAT_RADIUS = float(np.sqrt(32.0) + np.sqrt(2.0) * 1.5 + 1.0)
# The 3 x 3 block of criterion 5's 21 x 21 grid on [-4, 4]^2 that takes every
# third row and column around the origin, where the interference fringes are.
_CAT_AXIS = dict(min=-1.2, max=1.2, steps=3)
_SQRT2 = float(np.sqrt(2.0))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cat-scan",
            why="many small EM problems (~1k active bins) on a text record; "
                "EM dominates, so per-iteration overhead and batching show",
            make_state=lambda: cat_state(1.5j, np.pi, 26),
            phases=16, events=10_000, eta=0.9, record_format="text",
            reference_seed=777,
            settings=dict(
                x_min=-13.0, x_max=13.0, bin_count=2_600,
                localization_radius=_CAT_RADIUS, max_iter=2_000,
                q_min=_CAT_AXIS["min"], q_max=_CAT_AXIS["max"],
                q_steps=_CAT_AXIS["steps"],
                p_min=_CAT_AXIS["min"], p_max=_CAT_AXIS["max"],
                p_steps=_CAT_AXIS["steps"],
            ),
            oracle_n_max=70, gate=_cat_gate, seeded_records=2,
            simulations_per_job=1.0,
        ),
        Workload(
            name="calib-plateau",
            why="6.4M-sample histograms with cheap adaptive-stop EM and a warm "
                "kernel cache; histogramming dominates",
            make_state=lambda: coherent_state(1.0, 18),
            phases=64, events=100_000, eta=0.85, record_format="binary",
            reference_seed=20240814,
            settings=dict(
                x_min=-8.0, x_max=8.0, bin_count=16_000, n_max=10,
                max_iter=10_000, plateau_tol=1e-8,
                q_min=0.0, q_max=2.0 * _SQRT2, q_steps=3,
                p_min=0.0, p_max=0.0, p_steps=1,
            ),
            oracle_n_max=60, gate=_calib_gate, seeded_records=2, warm_cache=True,
            simulations_per_job=0.5,
        ),
    )
}
