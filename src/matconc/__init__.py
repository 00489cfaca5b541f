"""Numerical laboratory for matrix concentration tail bounds, exponential
trace inequalities, discrete-model interdependence analysis, and coupled
Gibbs-chain experiments."""

__version__ = "0.1.0"

from .hermitian import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    HermiticityError,
    HermitianMatrix,
    SpectralDecomposition,
    SpectralDomainError,
    matrix_from_obj,
    matrix_function,
    matrix_to_obj,
    negative_part,
    pos_neg_parts,
    positive_part,
    sample_ensemble,
    spectral_decompose,
)
from .traceineq import (
    INEQUALITY_IDS,
    FuzzSummary,
    TraceGapReport,
    fuzz_grid,
    gap_exchangeable,
    gap_exchangeable_scaled,
    gap_holder,
    gap_pair_exp,
    gap_power,
    gap_psd_cross,
    gap_symmetric_term,
    gap_trace_quad,
)
from .bounds import (
    DifferenceBoundSet,
    LaplaceBound,
    display_clamp,
    dobrushin_constant,
    hoeffding_bound,
    laplace_infimum,
    tail_bound_dependent,
    tail_bound_independent,
    tropp_bound,
)
from .dobrushin import (
    BMatrix,
    DiscreteModel,
    EnumerationCapError,
    InterdependenceMatrix,
    b_matrix,
    b_power_column,
    dobrushin_matrix,
    load_model,
    matrix_norms,
    model_from_obj,
    model_to_obj,
    norm_recursion_check,
    save_model,
    tv_distance,
)
from .coupling import (
    MatrixObservable,
    RademacherSumObservable,
    TableObservable,
    check_hamming,
    exhaustive_tail,
    gibbs_kernel,
    greedy_disagreement_mc,
    maximal_coupling_joint,
    mc_tail_estimate,
    stein_identity_check,
    telescoping_decomposition,
    verify_property_P,
    verify_stein_pair,
    wilson_interval,
)
from .conjectures import (
    CATALOG,
    ConvexCatalogEntry,
    SearchResult,
    catalog_entry,
    counterexample_search,
    gap_conjecture_exp,
    gap_conjecture_f,
    scalar_gap_exp,
    scalar_gap_f,
)
