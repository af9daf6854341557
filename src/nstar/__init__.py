"""Exact n-ary star products on polynomials and plane waves, a seeded
auditor for the algebra's identities, and the coupled-oscillator
application."""

from .scalars import ExactComplex, I, ONE, SQRT2, ZERO
from .polynomials import Polynomial, x
from .starcore import (
    TensorTerm,
    ThetaConfig,
    conjugate_star_n,
    deformation_terms,
    sigma_power,
    star_bracket,
    star_n,
    star_n_stepwise,
    star_series,
)
from .closedforms import (
    SlotSpec,
    complex_pair,
    star_complex_form,
    star_coord_first,
    star_coord_last,
    star_coord_middle,
    star_coord_slot,
    star_two_coords,
)
from .waves import (
    GridSpec,
    KernelOverflowError,
    WaveSum,
    WorkBudgetError,
    freq_cross,
    grid_oracle_star,
    kernel_exponent,
    kernel_weights,
    load_lattice,
    save_lattice,
    star_waves,
)
from .audit import (
    CLAIM_IDS,
    GUARANTEED_CLAIMS,
    ClaimReport,
    CorpusSpec,
    audit_claim,
    audit_jacobi,
    reports_to_json,
    run_suite,
)
from .oscillator import (
    HamiltonianSpec,
    PolyGauss,
    QuantumNumber,
    build_hamiltonian,
    energy,
    ground_state,
    hermite_coeffs,
    residual_report,
    star_increments,
    star_polygauss_truncated,
)
from .exprs import ExprError, lower_poly, lower_wave, parse_expression, to_text

__all__ = [name for name in dir() if not name.startswith("_")]
