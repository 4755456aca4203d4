import json

import pytest

from muharmonic import ConfigError, ExperimentConfig, catalog, catalog_entry, parse_word, run
from muharmonic.cli import main as cli_main
from muharmonic.experiments import MASTER_SEED, _measure_from_spec, run_criterion
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
    m = _measure_from_spec(z6, {"entries": [[0, 0.5], [1, 0.25, 0.1]]})
    assert m.weights[1] == complex(0.25, 0.1)
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
    (2, {"scenario": "cesaro", "n": 1000, "trials": 10_000}, ()),
    (5, {"scenario": "ncconv", "trials": 100, "seed": MASTER_SEED}, ("Z2 worked example exact",)),
    (12, {"scenario": "stationary", "trials": 20, "seed": MASTER_SEED + 500}, ()),
    (13, {"scenario": "decay", "n": 200}, ()),
])
def test_scenario_at_pinned_sizes_reproduces_its_criterion(number, config, criterion_only):
    # names, values, bounds and verdicts, in order
    expected = [c for c in run_criterion(number) if c.name not in criterion_only]
    assert run(ExperimentConfig.from_dict(config)).checks == expected


def test_scenario_sizes_reach_the_checks():
    decay = run(ExperimentConfig(scenario="decay", n=30))
    assert decay.checks[0].name == "binomial match over 2m <= 30"
    cesaro = run(ExperimentConfig(scenario="cesaro", entry="Z6_delta2", n=500, trials=7))
    assert cesaro.checks[0].name == "Z6_delta2: tv(A_500, haar)"
    assert cesaro.extra["Z6_delta2"]["n_iterations"] == 7


def test_criterion_8_declares_only_operations_it_calls():
    cov: set = set()
    run_criterion(8, cov)
    assert "free_mul" not in cov and "free_ball" not in cov


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


def test_out_directory_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MUHARMONIC_OUT", str(tmp_path / "envout"))
    run(ExperimentConfig(scenario="decay", n=10))
    assert (tmp_path / "envout" / "record_decay.json").exists()


def test_run_rejects_unknown_scenario():
    cfg = ExperimentConfig(scenario="harmonic")
    cfg.scenario = "bogus"
    with pytest.raises(ConfigError):
        run(cfg)


@pytest.mark.parametrize("measure, field", [
    ({"point": 9}, "measure.point"),  # Z6 has no element 9
    ({"entries": [[1, 0.5]]}, "measure.entries"),  # total mass 1/2
])
def test_cli_bad_measure_exits_2_with_field_path(tmp_path, capsys, measure, field):
    cfg = tmp_path / "bad_measure.json"
    cfg.write_text(json.dumps({"group": {"kind": "cyclic", "n": 6}, "measure": measure}))
    assert cli_main(["harmonic", "--config", str(cfg)]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err


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
    (["cesaro", "--entry", "Z4_delta1", "--trials", "0"], "trials"),
    (["stationary", "--trials", "0"], "trials"),
    (["decay", "--n", "0"], "n"),
])
def test_cli_explicit_zero_size_exits_2_with_field_path(argv, field, tmp_path, capsys):
    # an explicit 0 is not "unset": it must not silently run the default size
    assert cli_main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert list(tmp_path.iterdir()) == []
