"""A single reconstructed point, run as the 1x1 grid scan it is."""

from emtomo import KernelMatrix, ReconstructionConfig, WignerGrid, reconstruct_wigner_grid
from emtomo.fock_kernel import DEFAULT_MAX_COLUMN_DEFICIT


def reconstruct_point(record, q: float, p: float, kernel: KernelMatrix, *,
                      max_iter: int = 10_000,
                      max_column_deficit: float | None = DEFAULT_MAX_COLUMN_DEFICIT) -> WignerGrid:
    """Scan the one point (q, p) with the config that ``kernel`` was built for."""
    grid = kernel.grid
    config = ReconstructionConfig(
        eta=kernel.eta, x_min=grid.x_min, x_max=grid.x_max, bin_count=grid.bin_count,
        n_max=kernel.n_max, max_iter=max_iter, max_column_deficit=max_column_deficit,
        q_min=q, q_max=q, q_steps=1, p_min=p, p_max=p, p_steps=1,
    )
    return reconstruct_wigner_grid(record, config, kernel=kernel)
