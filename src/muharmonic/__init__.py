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
    cyclic_group,
    dihedral_group,
    generated_subgroup,
    group_from_table,
    left_cosets,
    orbit_labels,
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
    word,
)
from .measures import (
    FiniteMeasure,
    ZWindow,
    cesaro_average,
    convolution_power,
    convolve,
    from_pairs,
    haar_on_subgroup,
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
    apply_conjugation,
    conjugation_operator,
    coset_action,
    gspace_markov_matrix,
    left_regular,
    predual_action,
    predual_matrix,
    right_markov_matrix,
    right_regular,
    trivial_action,
)
from .subspaces import (
    Subspace,
    column_space,
    kernel,
    kernel_and_range,
    mutual_residual,
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
    quotient_norm,
    quotient_norm_trace,
    trace_class_ideal,
    trace_predual_matrix,
)
from .walks import (
    BoundaryReport,
    CylinderEstimate,
    DiamondReport,
    MartingaleReport,
    StationaryReport,
    SubharmonicReport,
    WalkPath,
    boundary_reports,
    harmonic_measure_cylinder,
    poisson_extension,
    sample_path,
    stationary_measure,
    subharmonic_check,
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
