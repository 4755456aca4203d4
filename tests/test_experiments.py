import argparse
import json
import os
import re
import tempfile
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import muharmonic
from muharmonic import (
    ConfigError,
    ExperimentConfig,
    FiniteMeasure,
    FreeWord,
    StationaryReport,
    Subspace,
    ZWindow,
    catalog,
    catalog_entry,
    parse_word,
    run,
)
from muharmonic.cli import main as cli_main
from muharmonic.experiments import (
    _SIZE,
    ACCEPTANCE,
    MASTER_SEED,
    OPERATION_NAMES,
    SCENARIOS,
    _check,
    _measure_from_spec,
    run_criterion,
    scenario_fields,
)
from muharmonic.groups import MAX_ORDER
from muharmonic import generated_subgroup, symmetric_group


def test_catalog_contents():
    entries = {e.name: e for e in catalog()}
    assert len(entries) == 7
    z6 = entries["Z6_delta2"]
    assert generated_subgroup(z6.group, z6.measure.support()).order == 3
    assert any(not e.group.is_abelian() for e in catalog())
    for e in catalog():
        assert e.measure.is_probability()


def test_catalog_has_s4_on_two_generators():
    e = catalog_entry("S4_two_gens")
    assert e.group.order == 24
    assert len(e.measure.support()) == 2
    assert generated_subgroup(e.group, e.measure.support()).order == 24


def test_parse_word():
    assert parse_word(2, "a").letters == (1,)
    assert parse_word(2, "ab'").letters == (1, -2)
    assert parse_word(2, "aa'") .letters == ()
    with pytest.raises(ConfigError):
        parse_word(2, "c")


def test_config_validation():
    with pytest.raises(ConfigError, match="scenario"):
        ExperimentConfig.from_dict({"scenario": "nope"})
    with pytest.raises(ConfigError, match="paths"):
        ExperimentConfig.from_dict({"scenario": "freewalk", "paths": -3})
    with pytest.raises(ConfigError, match="measure"):
        ExperimentConfig.from_dict(
            {"scenario": "harmonic", "group": {"kind": "cyclic", "n": 6}}
        ).resolve_pairs()
    cfg = ExperimentConfig.from_dict({"scenario": "harmonic", "entry": "Z6_delta2", "seed": 5})
    assert cfg.seed == 5 and cfg.entry == "Z6_delta2"


def test_measure_spec_forms():
    z6 = catalog_entry("Z6_delta2").group
    assert _measure_from_spec(z6, {"point": 2}).support() == [2]
    assert _measure_from_spec(z6, {"uniform_on": [1, 3]}).is_probability()
    m = _measure_from_spec(z6, {"entries": [[0, 0.5], [1, 0.5]]})
    assert m.weights[1] == 0.5
    # the [index, re, im] form is gone: resolve_pairs refuses every complex weight
    with pytest.raises(ConfigError, match=r"^measure.entries: expected \[index, weight\], got "):
        _measure_from_spec(z6, {"entries": [[0, 0.5], [1, 0.5, 0.0]]})
    with pytest.raises(ConfigError):
        _measure_from_spec(z6, {"weird": 1})


def test_run_harmonic_scenario_custom_pair():
    cfg = ExperimentConfig.from_dict({
        "scenario": "harmonic",
        "group": {"kind": "cyclic", "n": 6},
        "measure": {"point": 2},
    })
    record = run(cfg)
    assert record.passed
    assert record.extra["custom"]["harmonic_rank"] == 2


def test_run_record_determinism(tmp_path):
    cfg = ExperimentConfig(scenario="freewalk", paths=2000, n=50, seed=123,
                           out=str(tmp_path))
    r1 = run(cfg)
    r2 = run(cfg)
    assert r1.canonical_json() == r2.canonical_json()
    on_disk = json.loads((tmp_path / "record_freewalk.json").read_text())
    assert on_disk["verdict"] == "pass"
    assert "started" in on_disk


@pytest.mark.parametrize("number, config, criterion_only", [
    (1, {"scenario": "harmonic"}, ()),
    (2, {"scenario": "cesaro", "n": 1000}, ()),
    (5, {"scenario": "ncconv", "trials": 100, "seed": MASTER_SEED},
     ("Z2 worked example exact", "reflect is an involution")),
    (12, {"scenario": "stationary", "trials": 20, "seed": MASTER_SEED + 500}, ()),
    (13, {"scenario": "decay", "n": 200}, ()),
])
def test_scenario_at_pinned_sizes_reproduces_its_criterion(number, config, criterion_only):
    # names, values, bounds and verdicts, in order
    expected = [c for c in run_criterion(number) if c.name not in criterion_only]
    assert run(ExperimentConfig.from_dict(config)).checks == expected


def test_criterion_12_draws_reach_fixed_spaces_of_dimension_above_one():
    record = run(ExperimentConfig(scenario="stationary", seed=MASTER_SEED + 500))
    dims = record.extra["fixed_dims"]
    assert len(dims) == 20 and sum(d > 1 for d in dims) >= 3, dims
    assert record.extra["s3_on_points"] == {"orbit_labels": [0, 0, 0], "fixed_dim": 1}
    assert record.passed


def test_a_stationary_measure_of_one_orbit_fails_criterion_12(monkeypatch, capsys):
    # the uniform measure on all the points is stationary, but on a draw with
    # several H-orbits it is not the whole fixed space
    def one_orbit(action, mu):
        m = action.points
        return StationaryReport(np.zeros(m, dtype=np.int64),
                                (FiniteMeasure(ZWindow(0, m - 1), np.full(m, 1 / m)),))

    monkeypatch.setattr("muharmonic.experiments.stationary_measure", one_orbit)
    failed = [c.name for c in run_criterion(12) if not c.passed]
    assert failed == ["random actions: draws with rank(kernel) != orbit count",
                      "random actions: kernel vs orbit-indicator residual"]
    suite = run(ExperimentConfig(scenario="suite"))
    assert suite.extra["criterion_12_stationary_measures"] == "fail"
    assert not suite.passed


def test_freewalk_at_the_criteria_seed_is_their_word_a_checks():
    # criteria 8-10 and freewalk build their [a] checks with the same helpers;
    # at the criteria's seed and sizes they agree in name and value
    record = run(ExperimentConfig(scenario="freewalk", seed=MASTER_SEED + 41))
    criteria = {c.name: c.value for n in (8, 9, 10) for c in run_criterion(n)}
    assert [c.name for c in record.checks] == [
        "|nu_hat([a]) - 1/4|", "conclusive fraction", "agreement fraction",
        "|E h(X_60)^2 - 1/4|"]
    assert all(c.value == criteria[c.name] for c in record.checks)


def test_scenario_sizes_reach_the_checks():
    decay = run(ExperimentConfig(scenario="decay", n=30))
    assert decay.checks[0].name == "binomial match over 2m <= 30"
    assert run(ExperimentConfig(scenario="decay", n=4)).passed  # the least n decay takes
    cesaro = run(ExperimentConfig(scenario="cesaro", entry="Z6_delta2", n=500))
    assert cesaro.checks[0].name == "Z6_delta2: tv(A_500, haar)"
    assert cesaro.extra["Z6_delta2"]["n_iterations"] == 500  # the gap is read at the same n


def test_operation_names_are_the_marked_functions():
    assert OPERATION_NAMES == frozenset({
        "generated_subgroup", "left_cosets",
        "free_mul", "free_inverse", "free_ball",
        "convolve", "reflect", "convolution_power", "cesaro_average",
        "tv_norm", "tv_distance", "haar_on_subgroup", "weak_star_decay",
        "right_markov_matrix", "predual_action", "conjugation_operator",
        "gspace_markov_matrix",
        "harmonic_space", "trivial_solution_space", "commutant",
        "cesaro_projection", "diamond_product", "harmonic_triviality_verdict",
        "l1_harmonic_triviality",
        "coboundary_ideal", "trace_class_ideal", "l1_distance", "quotient_norm",
        "quotient_norm_trace", "approximate_identity", "diagonal_measure",
        "operator_convolve", "left_ideal_residual",
        "sample_path", "harmonic_measure_cylinder", "poisson_extension",
        "boundary_reports",
        "stationary_measure", "subharmonic_check",
        "run", "catalog",
    })
    # the marker keeps what outside tools read off a function
    for name in OPERATION_NAMES:
        fn = getattr(muharmonic, name)
        assert fn.__name__ == name and fn.__module__ == fn.__wrapped__.__module__


def test_coverage_counts_calls_not_claims(monkeypatch, capsys):
    # free_inverse is called only from criterion 11; an equal function
    # without the marker runs the same checks but is not an operation call
    monkeypatch.setattr("muharmonic.experiments.free_inverse",
                        lambda a: FreeWord(a.rank, tuple(-s for s in reversed(a.letters))))
    coverage = run(ExperimentConfig(scenario="suite")).checks[-1]
    assert coverage.name == "op coverage complete (missing: ['free_inverse'])"
    assert not coverage.passed


def test_harmonic_scenario_factorizes_twice_per_entry(monkeypatch):
    # the verdict's fixed space and Cesaro limit share one factorization of
    # I - M; diamond_product's limit is the other
    s5 = symmetric_group(5)
    support = [s5.labels.index("(1 2)"), s5.labels.index("(1 2 3 4 5)")]
    svd = np.linalg.svd
    shapes = []

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr("numpy.linalg.svd", counting_svd)
    record = run(ExperimentConfig.from_dict({
        "scenario": "harmonic", "group": {"kind": "symmetric", "n": 5},
        "measure": {"uniform_on": support}}))
    assert record.passed
    assert shapes == [(120, 120)] * 2


def test_cesaro_scenario_factorizes_twice_per_entry(monkeypatch):
    # the projection report's K and A_n share one factorization of I - M;
    # column_space(K), the independent rank, is the other
    s5 = symmetric_group(5)
    support = [s5.labels.index("(1 2)"), s5.labels.index("(1 2 3 4 5)")]
    svd = np.linalg.svd
    shapes = []

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr("numpy.linalg.svd", counting_svd)
    record = run(ExperimentConfig.from_dict({
        "scenario": "cesaro", "group": {"kind": "symmetric", "n": 5},
        "measure": {"uniform_on": support}, "n": 4000}))
    assert record.passed
    assert shapes == [(120, 120)] * 2


def test_triviality_disagreement_is_a_failing_check_not_a_traceback(monkeypatch, capsys):
    # a coset-constant space cut to its first vector disagrees with ker(I - M)
    # on every entry with two or more cosets; the verdict reports that
    trivial = muharmonic.harmonic.trivial_solution_space

    def first_vector_only(*args, **kwargs):
        space = trivial(*args, **kwargs)
        return Subspace(space.ambient_dim, space.basis[:1].copy())

    monkeypatch.setattr("muharmonic.harmonic.trivial_solution_space", first_vector_only)
    assert any(not c.passed for c in run_criterion(1))
    assert cli_main(["suite"]) == 1
    assert "criterion 01 finite_triviality: FAIL (" in capsys.readouterr().out


def test_a_failing_criterion_line_names_its_first_failed_check(monkeypatch, capsys):
    # the line named the alphabetically first failed check; it now names the
    # first in the criterion's order, the order the record lists them in
    checks = [_check("passes", 0, 1), _check("z: fails first", 2, 1), _check("a: fails next", 3, 1)]
    monkeypatch.setattr("muharmonic.experiments.ACCEPTANCE", ((1, "failing", lambda: checks),))
    record = run(ExperimentConfig(scenario="suite"))
    assert capsys.readouterr().out.splitlines() == [
        "criterion 01 failing: FAIL (z: fails first: value=2.000e+00, bound=1.000e+00)"]
    assert record.checks[:3] == checks and record.extra["criterion_01_failing"] == "fail"


@pytest.mark.parametrize("spec", ["aa'", ""])
def test_cli_freewalk_empty_word_exits_2(capsys, spec):
    assert cli_main(["freewalk", "--word", spec, "--paths", "100"]) == 2
    assert "config error: word: " in capsys.readouterr().err


def test_decay_scenario_writes_csv(tmp_path):
    cfg = ExperimentConfig(scenario="decay", n=50, out=str(tmp_path))
    record = run(cfg)
    assert record.passed
    lines = (tmp_path / "decay_srw.csv").read_text().strip().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 51


def test_cli_pass_and_exit_codes(tmp_path, capsys):
    assert cli_main(["harmonic", "--entry", "Z6_delta2"]) == 0
    out = capsys.readouterr().out
    assert "scenario harmonic: pass" in out

    # horizon too short for the prefix to stabilize: checks fail, exit 1
    assert cli_main(["freewalk", "--paths", "500", "--n", "5"]) == 1

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"paths": -1}))
    assert cli_main(["freewalk", "--config", str(bad)]) == 2

    over = tmp_path / "over.json"
    over.write_text(json.dumps({"group": {"kind": "cyclic", "n": 200},
                                "measure": {"point": 1}}))
    assert cli_main(["harmonic", "--config", str(over)]) == 3  # order cap

    capsys.readouterr()


def test_cli_capacity_exit_code(tmp_path):
    cfg = tmp_path / "conj.json"
    cfg.write_text(json.dumps({
        "group": {"kind": "cyclic", "n": 60},
        "measure": {"point": 1},
    }))
    # order 60 is above the conjugation cap (24), which ncconv no longer needs
    assert cli_main(["ncconv", "--config", str(cfg), "--trials", "1"]) == 0
    # the group-order cap still ends the scenario with exit 3
    cfg.write_text(json.dumps({"group": {"kind": "cyclic", "n": 121}, "measure": {"point": 1}}))
    assert cli_main(["ncconv", "--config", str(cfg), "--trials", "1"]) == 3


def test_cli_order_far_above_the_cap_exits_3(tmp_path, capsys):
    # the cap is checked from n, before the n x n Cayley table is allocated
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"group": {"kind": "cyclic", "n": 100_000_000},
                               "measure": {"point": 1}}))
    assert cli_main(["harmonic", "--config", str(cfg)]) == 3
    assert "group order 100000000 exceeds the cap of 120" in capsys.readouterr().err


@pytest.mark.parametrize("group, order", [
    ({"kind": "from_table", "cayley": [[0] * 121] * 121}, "group order 121"),
    ({"kind": "product", "factors": [{"kind": "symmetric", "n": 5}, {"kind": "cyclic", "n": 2}]},
     "product order 240"),
    # no entry to read: a squareness check before the cap would exit 2
    ({"kind": "from_table", "cayley": [[]] * 10_000}, "group order 10000"),
], ids=["table-121", "product-240", "table-10000-empty-rows"])
def test_cli_group_spec_past_the_cap_exits_3(tmp_path, capsys, group, order):
    # a CapacityError is a ValueError: a config reader that caught ValueError would exit 2
    cfg = tmp_path / "over.json"
    cfg.write_text(json.dumps({"group": group, "measure": {"point": 0}}))
    assert cli_main(["harmonic", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == f"capacity error: {order} exceeds the cap of 120\n"


def test_cli_weights_summing_past_the_float_range_exit_2(tmp_path, capsys):
    # each weight is finite but their sum is not: the measure's refusal ended in a traceback
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({"group": {"kind": "cyclic", "n": 3},
                               "measure": {"entries": [[0, 1e308], [0, 1e308]]}}))
    assert cli_main(["harmonic", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == ("config error: measure.entries: "
                                       "measure weights must be finite\n")


def _s5_spec() -> dict:
    s5 = symmetric_group(5)
    return {"group": {"kind": "symmetric", "n": 5},
            "measure": {"uniform_on": [s5.labels.index("(1 2)"), s5.labels.index("(1 2 3 4 5)")]}}


def test_cli_ncconv_on_s5_ends_with_a_verdict(tmp_path, capsys):
    cfg = tmp_path / "s5.json"
    cfg.write_text(json.dumps(_s5_spec()))
    assert cli_main(["ncconv", "--config", str(cfg), "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "[pass] custom: left-ideal residual" in out
    assert "scenario ncconv: pass (4/4 checks)" in out


def test_derriennic_distance_is_not_the_l1_norm():
    # x has unit l1 mass; a nonnegative draw would sit at distance exactly 1
    record = run(ExperimentConfig(scenario="derriennic", n=64))
    assert len(record.extra) == len(catalog())
    for name, summary in record.extra.items():
        assert abs(summary["distance"] - 1.0) > 1e-3, name


def test_derriennic_on_s5_runs_no_lp(monkeypatch):
    def no_lp(*args):
        raise AssertionError("the LP ran")

    monkeypatch.setattr("muharmonic.lp.l1_distance_to_span", no_lp)
    record = run(ExperimentConfig.from_dict({"scenario": "derriennic", **_s5_spec()}))
    assert record.passed
    assert [c.name for c in record.checks] == ["custom: |a_N - quotient norm|"]


def test_out_directory_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MUHARMONIC_OUT", str(tmp_path / "envout"))
    assert cli_main(["decay", "--n", "10"]) == 0
    assert (tmp_path / "envout" / "record_decay.json").exists()
    # the config file's directory comes before the environment's
    cfg = tmp_path / "out.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "fileout")}))
    assert cli_main(["decay", "--n", "10", "--config", str(cfg)]) == 0
    assert (tmp_path / "fileout" / "record_decay.json").exists()


def test_suite_writes_only_its_record_under_env_out(tmp_path, monkeypatch, capsys):
    # criterion 15 runs freewalk and harmonic inside the suite; their records
    # must not land in (and overwrite files of) the user's output directory
    monkeypatch.setattr("muharmonic.experiments.ACCEPTANCE",
                        tuple(c for c in ACCEPTANCE if c[0] == 15))
    monkeypatch.setenv("MUHARMONIC_OUT", str(tmp_path))
    cli_main(["suite"])  # its op-coverage check fails: only the files are checked
    assert os.listdir(tmp_path) == ["record_suite.json"]


# the config fields each scenario reads, written out so that a builder whose
# parameters change is caught
_READS = {
    "harmonic": {"group", "measure", "entry", "seed", "out"},
    "cesaro": {"group", "measure", "entry", "n", "seed", "out"},
    "derriennic": {"group", "measure", "entry", "n", "seed", "out"},
    "ncconv": {"group", "measure", "entry", "trials", "seed", "out"},
    "freewalk": {"word", "paths", "n", "seed", "out"},
    "stationary": {"trials", "seed", "out"},
    "decay": {"n", "seed", "out"},
    "suite": {"seed", "out"},
}
_SET = {"group": {"kind": "cyclic", "n": 6}, "measure": {"point": 2}, "seed": 7,
        "out": "results", "paths": 10, "n": 10, "trials": 3, "word": "ab", "entry": "Z2_delta1"}


def test_every_config_field_is_read_by_some_scenario():
    assert set(_READS) == set(SCENARIOS)
    names = {f.name for f in fields(ExperimentConfig)} - {"scenario"}
    assert set().union(*_READS.values()) == names
    assert sum(map(len, _READS.values())) == 36


@pytest.mark.parametrize("scenario", sorted(_READS))
def test_scenario_refuses_the_fields_it_does_not_read(scenario, tmp_path, capsys):
    # every field it reads is taken (nothing runs here)...
    ExperimentConfig(scenario=scenario, **{f: _SET[f] for f in _READS[scenario]})
    cfg = tmp_path / "unread.json"
    for field in sorted(set(_SET) - _READS[scenario]):
        # ...a field it does not read is refused from a file, unless it holds its default...
        cfg.write_text(json.dumps({field: _SET[field]}))
        assert cli_main([scenario, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {field}: not read by {scenario}\n"
        ExperimentConfig(scenario=scenario, **{field: {"word": "a"}.get(field)})
        # ...and its flag, if it has one, is unknown to the subcommand
        if field not in ("group", "measure"):
            with pytest.raises(SystemExit) as exit_info:
                cli_main([scenario, f"--{field}", str(_SET[field])])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: --{field}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["freewalk", "--entry", "Z2_delta1", "--trials", "3", "--paths", "500"],
    ["suite", "--n", "5", "--paths", "3", "--entry", "Z2_delta1"],
    ["harmonic", "--entry", "Z2_delta1", "--trials", "0"],
])
def test_unread_flags_exit_2_before_any_work(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(argv + ["--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unread_flag_is_reported_with_the_subcommand_usage(capsys):
    # the subcommand refuses it, so the usage shown lists the flags it does take
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["freewalk", "--entry", "Z2_delta1", "--trials", "3", "--paths", "500"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: muharmonic freewalk ")
    assert err.endswith("muharmonic freewalk: error: unrecognized arguments: "
                        "--entry Z2_delta1 --trials 3\n")


def test_cli_builds_its_parser_once_and_keeps_no_flag_between_calls(monkeypatch, capsys):
    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):
        builds.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    assert cli_main(["decay", "--n", "10"]) == 0
    assert "binomial match over 2m <= 10:" in capsys.readouterr().out
    # a refused flag after a good call still exits 2 with the subcommand's usage
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["freewalk", "--entry", "Z2_delta1", "--paths", "500"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.startswith("usage: muharmonic freewalk ")
    # --n of the first call does not carry over: decay runs at its default
    assert cli_main(["decay"]) == 0
    assert "binomial match over 2m <= 200:" in capsys.readouterr().out
    assert builds in ([], ["muharmonic"])  # none when an earlier call built it


@pytest.mark.parametrize("scenario, meaning, others", [
    ("ncconv", "random trials per entry", ("coset actions", "n_max")),
    ("stationary", "random coset actions", ("trials per entry", "n_max")),
])
def test_trials_help_gives_its_scenarios_meaning_only(scenario, meaning, others, capsys):
    with pytest.raises(SystemExit):
        cli_main([scenario, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"--trials TRIALS {meaning}" in text
    assert not any(other in text for other in others)


def test_config_checks_itself_on_construction():
    with pytest.raises(ConfigError, match="^scenario: "):
        ExperimentConfig(scenario="bogus")
    with pytest.raises(ConfigError, match="^trials: expected a positive integer"):
        ExperimentConfig(scenario="ncconv", trials=0)
    cfg = ExperimentConfig(scenario="cesaro")
    # frozen: a checked config cannot be turned into an unchecked one
    with pytest.raises(FrozenInstanceError):
        cfg.scenario = "bogus"
    assert replace(cfg, n=5).n == 5
    with pytest.raises(ConfigError, match="^n: not read by harmonic$"):
        replace(cfg, scenario="harmonic", n=5)
    with pytest.raises(ConfigError, match="^out: expected a string"):
        replace(cfg, out=5)


@pytest.mark.parametrize("measure, field", [
    ({"point": 9}, "measure.point"),  # Z6 has no element 9
    ({"entries": [[1, 0.5]]}, "measure.entries"),  # total mass 1/2
    ({"point": 1, "uniform_on": [2]}, "measure"),  # two forms
    ({"point": 1, "weight": 2}, "measure.weight"),  # unknown form
])
def test_cli_bad_measure_exits_2_with_field_path(tmp_path, capsys, measure, field):
    cfg = tmp_path / "bad_measure.json"
    cfg.write_text(json.dumps({"group": {"kind": "cyclic", "n": 6}, "measure": measure}))
    assert cli_main(["harmonic", "--config", str(cfg)]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err


_Z2, _Z0 = {"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 0}


@pytest.mark.parametrize("group, message", [
    # each ran, or ended with an error that named no field
    ({"kind": "cyclic", "n": 4.7}, "group.n: expected a positive integer, got 4.7"),
    ({"kind": "cyclic", "n": "4"}, "group.n: expected a positive integer, got '4'"),
    ({"kind": "symmetric", "n": True}, "group.n: expected a positive integer, got True"),
    ({"kind": "cyclic", "n": 3, "extra": 1}, "group.extra: unknown key"),
    ({"kind": "from_table"}, "group.cayley: missing"),
    ({"kind": "product", "factors": 3},
     "group.factors: expected a list of two or more group specs, got 3"),
    ({"kind": "product", "factors": [_Z2, _Z0]},
     "group.factors[1].n: expected a positive integer, got 0"),
    ({"kind": "product", "factors": [_Z2, {"kind": "product", "factors": [_Z2, [2]]}]},
     "group.factors[1].factors[1]: expected a JSON object, got [2]"),
    ({"n": 4}, "group.kind: expected one of cyclic / dihedral / symmetric / product / "
               "from_table, got None"),
    ({"kind": "symmetric", "n": 6}, "group.n: symmetric groups are supported for 1 <= n <= 5"),
    ({"kind": "from_table", "cayley": [[0, 1.5], [1, 0]]},
     "group.cayley: expected an element index, got 1.5"),
    ({"kind": "from_table", "cayley": [[0, 1], [1, 2]]},
     "group.cayley: element index 2 outside 0..1"),
    ({"kind": "from_table", "cayley": [[0, 1], [1]]},
     "group.cayley: expected a square list of rows of element indices"),
    ({"kind": "from_table", "cayley": [[0, 1], [1, 1]]},
     "group.cayley: element 1 has no right inverse"),
    ({"kind": "from_table", "cayley": [[0, 1], [1, 0]], "labels": "es"},
     "group.labels: expected 2 strings, one per element, got 'es'"),
])
def test_cli_bad_group_spec_exits_2_with_field_path(tmp_path, capsys, group, message):
    cfg = tmp_path / "bad_group.json"
    cfg.write_text(json.dumps({"group": group, "measure": {"point": 0}}))
    assert cli_main(["harmonic", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("raw", [float("nan"), float("inf"), -float("inf"), 10**400],
                         ids=["nan", "inf", "-inf", "int-above-float-max"])
def test_measure_spec_refuses_a_non_finite_weight(raw):
    z6 = catalog_entry("Z6_delta2").group
    with pytest.raises(ConfigError, match=r"^measure.entries: expected a finite number, got "):
        _measure_from_spec(z6, {"entries": [[0, raw], [1, 1.0]]})


def test_cli_nan_weight_exits_2_naming_the_field(tmp_path, capsys):
    # Python's json reads NaN
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"group": {"kind": "cyclic", "n": 3}, '
                   '"measure": {"entries": [[0, NaN], [1, 1.0]]}}')
    assert cli_main(["harmonic", "--config", str(cfg)]) == 2
    assert "config error: measure.entries: " in capsys.readouterr().err


def test_measure_spec_rejects_malformed_items():
    z6 = catalog_entry("Z6_delta2").group
    for spec, field in (
        ({"point": -1}, "measure.point"),
        ({"point": "2"}, "measure.point"),
        ({"uniform_on": []}, "measure.uniform_on"),
        ({"uniform_on": [1, 6]}, "measure.uniform_on"),
        ({"uniform_on": [2, 2]}, "measure.uniform_on"),
        ({"entries": [[1]]}, "measure.entries"),
        ({"entries": [[1, "half"]]}, "measure.entries"),
        ({"entries": [[1, 0.5, 0.5]]}, "measure.entries"),
    ):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            _measure_from_spec(z6, spec)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    with pytest.raises(ConfigError, match="^pathz: unknown config key$"):
        ExperimentConfig.from_dict({"scenario": "freewalk", "pathz": 5})
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"pathz": 5}))
    assert cli_main(["freewalk", "--config", str(cfg)]) == 2
    assert "pathz: unknown config key" in capsys.readouterr().err
    # the thread fan-out and its config key are gone
    cfg.write_text(json.dumps({"parallel": True}))
    assert cli_main(["ncconv", "--config", str(cfg)]) == 2
    assert "parallel: unknown config key" in capsys.readouterr().err


def test_cli_rejects_removed_window_key(tmp_path, capsys):
    # `window` was parsed and echoed but no scenario read it
    cfg = tmp_path / "window.json"
    cfg.write_text(json.dumps({"window": 7}))
    assert cli_main(["decay", "--config", str(cfg), "--n", "10"]) == 2
    assert "window: unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["derriennic", "--entry", "Z4_delta1", "--n", "0"], "n"),
    (["ncconv", "--entry", "Z4_delta1", "--trials", "0"], "trials"),
    (["freewalk", "--paths", "0"], "paths"),
    (["freewalk", "--paths", "100", "--n", "0"], "n"),
    (["cesaro", "--entry", "Z4_delta1", "--n", "0"], "n"),
    (["ncconv", "--entry", "S4_two_gens", "--trials", "0"], "trials"),
    (["stationary", "--trials", "0"], "trials"),
    (["decay", "--n", "0"], "n"),
    (["ncconv", "--trials", "0"], "trials"),
    # below 4 steps the decay checks have no terms to compare
    (["decay", "--n", "1"], "n"),
    (["decay", "--n", "3"], "n"),
])
def test_cli_explicit_zero_size_exits_2_with_field_path(argv, field, tmp_path, capsys):
    # an explicit 0 is not "unset": it must not silently run the default size
    assert cli_main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec, field", [
    ({"entry": "Z2_delta1", "measure": {"point": 1}}, "measure"),  # no group
    ({"group": {"kind": "from_table", "cayley": [[0, 1], [1, 0]], "labels": ["e"]},
      "measure": {"point": 1}}, "group.labels"),  # one label for two elements
])
def test_cli_ignored_spec_exits_2_with_field_path(spec, field, tmp_path, capsys):
    cfg = tmp_path / "ignored.json"
    cfg.write_text(json.dumps(spec))
    assert cli_main(["harmonic", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


# a scenario that reads the field, so that the value is what gets refused
_READER = {"group": "harmonic", "measure": "harmonic", "seed": "harmonic", "out": "harmonic",
           "paths": "freewalk", "n": "decay", "trials": "stationary", "word": "freewalk",
           "entry": "harmonic"}
_BAD_VALUES = (
    ("group", ("cyclic", [6], True)),
    ("measure", ("point", [2], True)),
    ("seed", ("7", 1.5, True, -1)),
    ("out", (5, True, ["results"])),
    ("paths", ("100", 2.5, True, 0, -1)),
    ("n", ("100", 2.5, True, 0, -1)),
    ("trials", ("100", 2.5, True, 0, -1)),
    ("word", (5, True, ["ab"])),
    ("entry", (5, True, {"name": "Z2_delta1"})),
)


@pytest.mark.parametrize("field, value", [(f, v) for f, values in _BAD_VALUES for v in values])
def test_bad_field_value_exits_2_naming_the_field(field, value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a wrongly accepted "out" must not write into the checkout
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({field: value}))
    assert cli_main([_READER[field], "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    if type(value) is int and field in ("seed", "paths", "n", "trials"):
        assert cli_main([_READER[field], f"--{field}", str(value)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")


def test_cli_unreadable_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    for path in (bad, tmp_path / "missing.json"):
        assert cli_main(["harmonic", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: config: cannot read ")


def test_cli_unknown_entry_exits_2_naming_entry(capsys):
    assert cli_main(["harmonic", "--entry", "Z7_delta1"]) == 2
    assert capsys.readouterr().err.startswith("config error: entry: ")


def test_flags_override_the_file_and_null_is_unset(tmp_path):
    cfg = tmp_path / "decay.json"
    cfg.write_text(json.dumps({"n": 2, "word": None, "seed": None}))
    assert cli_main(["decay", "--config", str(cfg), "--n", "10", "--out", str(tmp_path)]) == 0
    echoed = json.loads((tmp_path / "record_decay.json").read_text())["config"]
    # the record echoes the scenario and the fields decay reads, not word
    assert echoed == {"scenario": "decay", "seed": MASTER_SEED, "n": 10}


@pytest.mark.parametrize("sub", ["", "sub"])
def test_cli_out_that_is_not_a_directory_exits_2(tmp_path, capsys, sub):
    # os.makedirs refuses an existing file and a path below one; the CLI
    # names the field instead of showing a traceback
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / sub if sub else blocker
    assert cli_main(["decay", "--n", "10", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: out: cannot make the directory {out}: ")
    assert blocker.read_text() == ""


def test_readme_flag_table_lists_each_parser_flags(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*?) \|", readme, re.MULTILINE))
    for scenario in SCENARIOS:
        with pytest.raises(SystemExit):
            cli_main([scenario, "--help"])
        options = " ".join(capsys.readouterr().out.split("options:")[1].split())
        # (flag, default) in --help's order, the default empty when none is given
        entries = re.findall(r"(--\w+) [A-Z]+ (.*?)(?= --\w+ [A-Z]+ |$)", options)
        listed = [(flag, "".join(re.findall(r"\(default (\S+)\)$", text)))
                  for flag, text in entries]
        documented = re.findall(r"`(--\w+) [A-Z]+`(?: \(default (\S+)\))?", rows[scenario])
        assert documented == listed, scenario


# ---------------------------------------------------------- CLI property
# Configs drawn from the field table and the group and measure spec forms,
# valid and malformed.  Valid groups have order <= 24; an order past the cap
# (a cyclic n or a product) is refused before its table is allocated.

_MALFORMED = st.sampled_from([True, -1, 0, 2.5, "3", [2], {"n": 2}])
_SMALL_GROUPS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("cyclic"), "n": st.integers(1, 4)}),
    st.fixed_dictionaries({"kind": st.just("dihedral"), "n": st.integers(1, 3)}),
)
_GROUP_SPECS = st.one_of(
    _SMALL_GROUPS,
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["cyclic", "dihedral", "symmetric", "free"]),
         "n": st.one_of(st.integers(1, 4), st.just(MAX_ORDER + 1), _MALFORMED)},
        optional={"extra": st.just(1)}),
    st.fixed_dictionaries(
        {"kind": st.just("product"),
         "factors": st.one_of(st.lists(_SMALL_GROUPS, max_size=2),
                              st.just([{"kind": "cyclic", "n": MAX_ORDER + 1}, _Z2]),
                              st.lists(_MALFORMED, min_size=2, max_size=2), _MALFORMED)}),
    st.fixed_dictionaries(
        {"kind": st.just("from_table"),
         "cayley": st.sampled_from([[[0, 1], [1, 0]], [[0, 1], [1, 1]], [[0, 1], [1]],
                                    [[0]], [], [[0, 1.5], [1, 0]], "table"])},
        optional={"labels": st.sampled_from([["e", "s"], ["e"], "es", None])}),
    _MALFORMED,
)
_WEIGHTS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-1, 2), _MALFORMED)
_MEASURE_SPECS = st.one_of(
    st.fixed_dictionaries({"point": st.one_of(st.integers(-1, 5), _MALFORMED)}),
    st.fixed_dictionaries({"uniform_on": st.one_of(st.lists(st.integers(-1, 5), max_size=3),
                                                   _MALFORMED)}),
    st.fixed_dictionaries({"entries": st.one_of(
        st.just([[0, 1.0]]), st.just([[0, 0.5], [1, 0.5]]),
        st.lists(st.lists(st.one_of(st.integers(0, 3), _WEIGHTS), max_size=3), max_size=3),
        _MALFORMED)}),
    st.fixed_dictionaries({"point": st.just(0), "weird": st.just(1)}),
    _MALFORMED,
)
_TEXTS = {"word": st.sampled_from(["a", "ab", "a'b", "aa'", "", "x"]),
          "entry": st.sampled_from([e.name for e in catalog()] + ["Z7_delta1"])}
# small sizes, so that no drawn run takes long
_VALID = {"group": _GROUP_SPECS, "measure": _MEASURE_SPECS, "seed": st.integers(0, 3),
          "paths": st.integers(1, 40), "n": st.integers(1, 8), "trials": st.integers(1, 3),
          **_TEXTS}


@st.composite
def _cli_configs(draw):
    """(scenario, config object): half of them set only fields the scenario reads;
    the others set, leave unset or spoil each field at random."""
    # suite is left out: it runs the 15 criteria at their pinned sizes
    scenario = draw(st.sampled_from([s for s in SCENARIOS if s != "suite"]))
    reads = scenario_fields(scenario)
    clean = draw(st.booleans())
    pair = draw(st.booleans())  # in a clean config: a custom pair, or entry or catalog
    raw = {}
    for f in fields(ExperimentConfig)[1:]:
        # an unset size or entry would take the scenario's default size or the
        # whole catalog, so a size or entry the scenario reads is set
        if (f.metadata["kind"] is _SIZE or f.name == "entry") and f.name in reads:
            choice = draw(st.sampled_from(["valid"] if clean else ["valid", "bad"]))
        elif not clean:
            choice = draw(st.sampled_from(["unset", "valid", "bad"]))
        elif f.name not in reads or (f.name in ("group", "measure") and not pair):
            choice = "unset"
        elif f.name in ("group", "measure"):
            choice = "valid"
        else:
            choice = draw(st.sampled_from(["unset", "valid"]))
        if choice == "valid":
            raw[f.name] = "OUT" if f.name == "out" else draw(_VALID[f.name])
        elif choice == "bad":
            raw[f.name] = draw(_MALFORMED)
    return scenario, raw


@settings(max_examples=40, deadline=None)
@given(_cli_configs())
def test_cli_ends_every_config_with_an_exit_code(case):
    scenario, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        if raw.get("out") == "OUT":
            raw["out"] = os.path.join(tmp, "out")
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(raw))
        assert cli_main([scenario, "--config", str(cfg)]) in (0, 1, 2, 3)
