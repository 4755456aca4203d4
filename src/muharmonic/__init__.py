"""Averaging operators and harmonic vectors for walks on groups.

A desk-scale laboratory: finite groups by Cayley table, finite-support
measure algebra, the averaging (Markov) operators a measure induces on
functions, l^1 vectors and matrices, their fixed spaces and the norm-1
projection onto them, coboundary ideals with exact quotient-norm checks,
operator convolution on the matrix predual, and the free-group boundary
where the compact-case picture genuinely fails.
"""

from .errors import CapacityError, ConfigError, ConstructionError
from .groups import (
    CosetPartition,
    FiniteGroup,
    Subgroup,
    build_group,
    cyclic_group,
    dihedral_group,
    generated_subgroup,
    group_from_json,
    group_from_table,
    group_to_json,
    left_cosets,
    product_group,
    symmetric_group,
)
from .freegroup import (
    FreeWord,
    empty_word,
    free_ball,
    free_inverse,
    free_mul,
    generator,
    neighbors,
    tree_distance,
    word,
)
from .measures import (
    FiniteMeasure,
    ZWindow,
    cesaro_average,
    cesaro_sequence,
    convolution_power,
    convolve,
    from_pairs,
    haar_on_subgroup,
    measure_from_json,
    measure_to_json,
    point_mass,
    reflect,
    simple_random_walk_z,
    tv_distance,
    tv_norm,
    uniform_on,
    weak_star_decay,
    z_from_pairs,
    z_point_mass,
)
from .operators import (
    GSpaceAction,
    OperatorMatrix,
    apply_conjugation,
    conjugation_operator,
    coset_action,
    gspace_markov_matrix,
    left_regular,
    operator_to_csv,
    predual_action,
    predual_matrix,
    right_markov_matrix,
    right_regular,
    translation_action,
    trivial_action,
)
from .subspaces import (
    Subspace,
    column_space,
    kernel,
    kernel_and_range,
    mutual_residual,
    span_of_rows,
    subspaces_equal,
)
from .harmonic import (
    L1TrivialityReport,
    ProjectionReport,
    TrivialityVerdict,
    cesaro_limit,
    cesaro_mean,
    cesaro_projection,
    commutant,
    diamond_product,
    harmonic_space,
    harmonic_triviality_verdict,
    l1_harmonic_triviality,
    orbit_labels,
    trivial_solution_space,
)
from .ideals import (
    ApproximateIdentityReport,
    IdealBasis,
    LeftIdealReport,
    QuotientNormTrace,
    approximate_identity,
    coboundary_ideal,
    diagonal_measure,
    haar_average,
    l1_distance,
    left_ideal_residual,
    operator_convolve,
    predual_coboundary_ideal,
    quotient_norm,
    quotient_norm_trace,
    trace_class_ideal,
    trace_predual_matrix,
)
from .walks import (
    CylinderEstimate,
    DiamondReport,
    FreeMeasure,
    MartingaleReport,
    StationaryReport,
    SubharmonicReport,
    WalkPath,
    diamond_vs_pointwise_mc,
    empirical_cylinder_measure,
    harmonic_measure_cylinder,
    martingale_convergence_check,
    mean_endpoint_length,
    poisson_extension,
    sample_path,
    srw,
    stationary_measure,
    subharmonic_check,
    subharmonic_check_free,
    walk_path_to_csv,
)
from .experiments import (
    ACCEPTANCE,
    CatalogEntry,
    CheckResult,
    ExperimentConfig,
    RunRecord,
    catalog,
    catalog_entry,
    parse_word,
    run,
    run_criterion,
)

__version__ = "0.1.0"
