"""Maximum-likelihood homodyne tomography.

Simulate balanced homodyne detection of small optical states, recover
phase-space-displaced photon-number distributions from the (lossy) samples
by expectation-maximization, and assemble Wigner functions point by point,
with exact reference values available for every step.
"""

from .em import (
    Histogram,
    PhotonDistribution,
    default_cutoff,
    reconstruct_photon_distribution,
)
from .errors import (
    ColumnDeficitError,
    CutoffTooLargeError,
    EmptyHistogramError,
    FileFormatError,
    ModelZeroError,
    ShiftOverflowError,
    TabulationRangeError,
    TomographyError,
    TruncationError,
    ValidationError,
)
from .fock_kernel import (
    BinGrid,
    KernelMatrix,
    build_kernel_matrix,
    fock_wavefunctions,
    load_kernel,
    load_or_build_kernel,
    lossy_fock_quadrature_density,
    save_kernel,
)
from .homodyne import (
    HomodyneRecord,
    StateSpec,
    apply_loss_channel,
    cat_state,
    coherent_state,
    fock_state,
    load_record,
    quadrature_density,
    sample_homodyne,
    save_record_binary,
    save_record_text,
    shift_and_histogram,
    vacuum_state,
)
from .oracle import (
    displaced_photon_distribution,
    oracle_wigner_grid,
    s_ordered_quasidistribution,
    wigner_exact,
    wigner_exact_grid,
)
from .pipeline import (
    ReconstructionConfig,
    WignerGrid,
    compare_wigner_grids,
    load_wigner_grid,
    reconstruct_wigner_grid,
    save_wigner_grid,
    wigner_from_distribution,
    write_gnuplot_files,
)

__version__ = "0.1.0"
