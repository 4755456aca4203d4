"""One rule per kind of argument: a measure beside its group, and a count.

Every operation that takes a measure beside a group or an action refuses one
on another group through `measures._measure_on`, one that takes a measure on
Z refuses any other through `measures._measure_on_window`, and every count,
seed and free-group rank goes through `groups._positive_integer`; each
message starts with the parameter's name.
The guard at the end walks the marked operations, so that a new one cannot
skip either rule without a failing test.
"""

import inspect

import numpy as np
import pytest

import muharmonic
from muharmonic import (
    FreeWord,
    apply_conjugation,
    approximate_identity,
    boundary_reports,
    cesaro_average,
    cesaro_projection,
    coboundary_ideal,
    conjugation_operator,
    convolution_power,
    cyclic_group,
    diamond_product,
    free_ball,
    gspace_markov_matrix,
    harmonic_measure_cylinder,
    harmonic_triviality_verdict,
    l1_harmonic_triviality,
    left_ideal_residual,
    point_mass,
    poisson_extension,
    predual_action,
    quotient_norm_trace,
    right_markov_matrix,
    sample_path,
    simple_random_walk_z,
    stationary_measure,
    subharmonic_check,
    symmetric_group,
    trace_class_ideal,
    trivial_action,
    weak_star_decay,
    word,
)
from muharmonic.experiments import OPERATION_NAMES

S3, Z2, Z4, Z6 = symmetric_group(3), cyclic_group(2), cyclic_group(4), cyclic_group(6)
ONES = np.ones(6)

# each (group, measure) operation, called with the group S3 and a measure mu
MEASURE_CASES = {
    "right_markov_matrix": lambda mu: right_markov_matrix(S3, mu),
    "gspace_markov_matrix": lambda mu: gspace_markov_matrix(trivial_action(S3, 2), mu),
    "conjugation_operator": lambda mu: conjugation_operator(S3, mu),
    "apply_conjugation": lambda mu: apply_conjugation(S3, mu, np.eye(6)),
    "sample_path": lambda mu: sample_path(S3, mu, 0, 5, seed=0),
    "stationary_measure": lambda mu: stationary_measure(trivial_action(S3, 2), mu),
    "approximate_identity": lambda mu: approximate_identity(S3, mu, 4),
    "trace_class_ideal": lambda mu: trace_class_ideal(S3, mu),
    "left_ideal_residual": lambda mu: left_ideal_residual(S3, mu, trials=2),
    "coboundary_ideal": lambda mu: coboundary_ideal(S3, mu),
    "diamond_product": lambda mu: diamond_product(ONES, ONES, S3, mu),
    "harmonic_triviality_verdict": lambda mu: harmonic_triviality_verdict(S3, mu),
    "subharmonic_check": lambda mu: subharmonic_check(np.zeros(6), S3, mu),
}

A, A1 = word(2, (1,)), word(1, (1,))
Z2_IDEAL = coboundary_ideal(Z2, point_mass(Z2, 1))

# each (operation, count parameter): a call with that count, and its least value;
# a seed and a free-group rank are counts too
COUNT_CASES = {
    ("convolution_power", "n"): (lambda v: convolution_power(point_mass(Z4, 1), v), 1),
    ("cesaro_average", "n"): (lambda v: cesaro_average(point_mass(Z4, 1), v), 1),
    ("weak_star_decay", "n_max"):
        (lambda v: weak_star_decay(simple_random_walk_z(), [(0, 1.0)], v), 1),
    ("l1_harmonic_triviality", "window"):
        (lambda v: l1_harmonic_triviality(simple_random_walk_z(), v), 0),
    ("left_ideal_residual", "trials"):
        (lambda v: left_ideal_residual(S3, point_mass(S3, 1), v), 1),
    ("sample_path", "n"): (lambda v: sample_path(Z4, point_mass(Z4, 1), 0, v, seed=0), 0),
    ("boundary_reports", "n_steps"):
        (lambda v: boundary_reports(2, (A,), v, 10, seed=0, snapshot=0), 0),
    ("boundary_reports", "n_paths"):
        (lambda v: boundary_reports(2, (A,), 5, v, seed=0, snapshot=0), 1),
    ("boundary_reports", "snapshot"):
        (lambda v: boundary_reports(2, (A,), 5, 10, seed=0, snapshot=v), 0),
    ("free_ball", "r"): (lambda v: free_ball(2, v), 0),
    ("free_ball", "k"): (lambda v: free_ball(v, 1), 1),
    ("quotient_norm_trace", "n_max"):
        (lambda v: quotient_norm_trace(np.array([1.0, 0.0]), Z2_IDEAL, v), 1),
    ("cesaro_projection", "n_max"): (lambda v: cesaro_projection(np.eye(2), v), 1),
    ("approximate_identity", "n"): (lambda v: approximate_identity(Z4, point_mass(Z4, 1), v), 1),
    ("FreeWord", "rank"): (lambda v: FreeWord(v, ()), 1),
    ("sample_path", "seed"): (lambda v: sample_path(Z4, point_mass(Z4, 1), 0, 3, seed=v), 0),
    ("boundary_reports", "seed"):
        (lambda v: boundary_reports(2, (A,), 5, 10, seed=v, snapshot=0), 0),
    ("left_ideal_residual", "seed"):
        (lambda v: left_ideal_residual(S3, point_mass(S3, 1), 2, seed=v), 0),
    ("boundary_reports", "k"):
        (lambda v: boundary_reports(v, (A1,), 5, 10, seed=0, snapshot=0), 1),
    ("harmonic_measure_cylinder", "k"): (lambda v: harmonic_measure_cylinder(v, A1), 1),
    ("poisson_extension", "k"): (lambda v: poisson_extension(v, A1, word(1, ())), 1),
}


@pytest.mark.parametrize("name", sorted(MEASURE_CASES))
def test_each_group_operation_takes_a_measure_on_its_group(name):
    MEASURE_CASES[name](point_mass(S3, 1))


# Z6 has the order of S3 and another table; Z4 has another order
@pytest.mark.parametrize("other", [Z6, Z4], ids=["Z6", "Z4"])
@pytest.mark.parametrize("name", sorted(MEASURE_CASES))
def test_each_group_operation_refuses_a_measure_on_another_group(name, other):
    with pytest.raises(ValueError, match=rf"^mu: expected a (probability )?measure on S3, "
                                         rf"got FiniteMeasure\({other.name},"):
        MEASURE_CASES[name](point_mass(other, 1))


# each operation on a measure on Z, called with a measure mu
WINDOW_CASES = {
    "weak_star_decay": lambda mu: weak_star_decay(mu, [(0, 1.0)], 3),
    "l1_harmonic_triviality": lambda mu: l1_harmonic_triviality(mu, 2),
}


@pytest.mark.parametrize("name", sorted(WINDOW_CASES))
def test_each_window_operation_refuses_a_measure_on_a_group(name):
    WINDOW_CASES[name](simple_random_walk_z())
    with pytest.raises(ValueError, match=r"^mu: expected a measure on a Z window, "
                                         r"got FiniteMeasure\(Z4,"):
        WINDOW_CASES[name](point_mass(Z4, 1))


def test_an_operation_that_reads_the_group_off_the_measure_needs_a_group():
    with pytest.raises(ValueError, match=r"^mu: expected a measure on a group, "
                                         r"got FiniteMeasure\(Z\["):
        predual_action(np.ones(3), simple_random_walk_z())
    with pytest.raises(ValueError, match=r"^mu: expected a probability measure on a group, "
                                         r"got FiniteMeasure\(Z\["):
        cesaro_average(simple_random_walk_z(), 3)


@pytest.mark.parametrize("case", sorted(COUNT_CASES), ids="-".join)
def test_each_count_takes_its_least_value(case):
    call, least = COUNT_CASES[case]
    call(least)


@pytest.mark.parametrize("bad", ["bool", "float", "below"])
@pytest.mark.parametrize("case", sorted(COUNT_CASES), ids="-".join)
def test_each_count_refuses_a_bool_a_float_and_a_value_below_its_least(case, bad):
    (_, param), (call, least) = case, COUNT_CASES[case]
    value = {"bool": True, "float": 2.5, "below": least - 1}[bad]
    kind = "a positive integer" if least == 1 else f"an integer >= {least}"
    error = ValueError if bad == "below" else TypeError
    with pytest.raises(error, match=rf"^{param}: expected {kind}, got {value!r}$"):
        call(value)


MEASURE_PARAMS = {"mu"}
GROUP_PARAMS = {"g", "carrier", "action"}
COUNT_PARAMS = {"n", "n_max", "n_steps", "n_paths", "trials", "window", "r", "snapshot", "seed",
                "k"}


def test_every_marked_operation_is_under_both_rules():
    # a measure beside a group or an action, or a count, needs its cases above
    for name in sorted(OPERATION_NAMES):
        params = set(inspect.signature(getattr(muharmonic, name)).parameters)
        if params & MEASURE_PARAMS and params & GROUP_PARAMS:
            assert name in MEASURE_CASES, f"{name}: no measure-rule case"
        for param in sorted(params & COUNT_PARAMS):
            assert (name, param) in COUNT_CASES, f"{name}({param}): no count-rule case"
