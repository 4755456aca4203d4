import csv
import json

import numpy as np

from muharmonic import (
    cesaro_projection,
    coboundary_ideal,
    cyclic_group,
    harmonic_triviality_verdict,
    point_mass,
    quotient_norm_trace,
    right_markov_matrix,
)
from muharmonic.ideals import _write_series_csv

Z6 = cyclic_group(6)
MU = point_mass(Z6, 2)


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


def test_series_csv_is_byte_for_byte_the_csv_writer(tmp_path):
    values = [0.5, 1 / 3, -2.5e-300, 1e20, 0.0, -0.0, float("nan"), float("inf"), 7.0]
    for series in (values, values[:1], []):
        reference = tmp_path / "reference.csv"
        with reference.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "value"])
            for n, v in enumerate(series, start=1):
                writer.writerow([n, f"{v:.17g}"])
        path = tmp_path / "series.csv"
        _write_series_csv(path, series)
        assert path.read_bytes() == reference.read_bytes()


def test_quotient_trace_csv_and_summary(tmp_path):
    ideal = coboundary_ideal(Z6, MU)
    x = np.array([1.0, 0.0, -1.0, 0.5, 0.0, -0.5])
    trace = quotient_norm_trace(x, ideal, 16)
    assert set(trace.summary()) == {"distance", "inf", "limit_estimate"}
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["n", "value"]
    assert len(rows) == 17
    assert float(rows[1][1]) == trace.norms[0]
