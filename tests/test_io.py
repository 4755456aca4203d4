import csv
import json

import numpy as np

from muharmonic import (
    cesaro_projection,
    coboundary_ideal,
    cyclic_group,
    harmonic_space,
    harmonic_triviality_verdict,
    operator_to_csv,
    point_mass,
    quotient_norm_trace,
    right_markov_matrix,
)
from muharmonic.subspaces import subspace_to_csv

Z6 = cyclic_group(6)
MU = point_mass(Z6, 2)


def test_operator_csv(tmp_path):
    m = right_markov_matrix(Z6, MU)
    path = tmp_path / "markov.csv"
    operator_to_csv(m, path)
    rows = list(csv.reader(path.open()))
    assert len(rows) == 6 and len(rows[0]) == 6
    assert complex(rows[0][2].replace("j", "j")) == 1 + 0j


def test_subspace_csv(tmp_path):
    space = harmonic_space(right_markov_matrix(Z6, MU))
    path = tmp_path / "space.csv"
    subspace_to_csv(space, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == [f"c{j}" for j in range(6)]
    assert len(rows) == 1 + space.rank


def test_projection_report_json():
    report = cesaro_projection(right_markov_matrix(Z6, MU), n_max=32)
    payload = report.to_json()
    assert set(payload) >= {"idempotency_residual", "norm_inf", "range_rank"}
    json.dumps(payload)  # serializable


def test_verdict_json():
    verdict = harmonic_triviality_verdict(Z6, MU)
    payload = verdict.to_json()
    assert payload["consistent"] is True
    json.dumps(payload)


def test_quotient_trace_csv_and_summary(tmp_path):
    ideal = coboundary_ideal(Z6, MU)
    x = np.array([1.0, 0.0, -1.0, 0.5, 0.0, -0.5])
    trace = quotient_norm_trace(x, ideal.predual_op, 16, ideal=ideal)
    assert set(trace.summary()) == {"distance", "inf", "limit_estimate"}
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["n", "value"]
    assert len(rows) == 17
    assert float(rows[1][1]) == trace.norms[0]
