"""compext: extended eigenvalues of composition operators, numerically.

Layers, bottom up: lft (symbols and their disk dynamics), series (truncated
power series and eigenfunction families), spaces (Hardy/Bergman/Fock norm
models), operators (finite truncations), extspec (ratio sets, Sylvester
probes, scans and per-class verification), cli (command line).
"""

from .lft import (
    INF,
    Classification,
    DomainError,
    LinearFractionalMap,
    apply,
    classify,
    compose,
    fixed_points,
    format_complex,
    format_lft,
    inverse,
    is_automorphism_of_disk,
    is_fock_symbol,
    is_self_map_of_disk,
    multiplier,
    parse_complex,
    parse_lft,
    standard_form,
)
from .series import (
    binomial_power,
    cayley_power,
    compose_series,
    exp_series,
    lft_taylor,
    monomial,
    parabolic_eigenfunction,
)
from .spaces import (
    SpaceSpec,
    monomial_norm,
    monomial_norms,
)
from .operators import (
    OperatorMatrix,
    adjoint,
    basis_shift_matrix,
    composition_matrix,
    direct_sum,
    matmul,
    matrix_power,
    multiplication_matrix,
    op_norm,
    operator_to_matrix_market,
    quasi_diff_matrix,
    quasi_mult_matrix,
    shifted_quasi_mult,
    sigma_shift_matrix,
)
from .extspec import (
    CheckRow,
    ExtScanReport,
    GridSpec,
    PredictedExt,
    SingularTruncationError,
    SylvesterProbe,
    UnresolvedClassError,
    VerifyReport,
    VerifyRow,
    build_witness,
    ext_scan,
    intertwining_residual,
    make_grid,
    predicted_ext,
    ratio_distance,
    ratio_set,
    verify_theorem_suite,
)

__version__ = "0.1.0"
