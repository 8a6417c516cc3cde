"""Exit codes, config handling, and report determinism of the CLI."""

import argparse
import csv
import dataclasses
import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest

from branelab import cli
from branelab import deformation as dfm
from branelab import embeddings as emb
from branelab import models as mdl
from branelab import symplectic as sym
from branelab.errors import DegenerateGeometryError

SCENARIO_NAMES = [
    "eom-check",
    "deformation-oracle",
    "action-variation",
    "gauss-bonnet",
    "symplectic-conservation",
    "canonical-darboux",
    "gb-gauge-invariance",
    "dnggb-reduction",
    "mass-shell",
]


def body_of(text):
    return "\n".join(ln for ln in text.splitlines()
                     if not ln.startswith("duration-s:"))


def test_list_names_every_scenario(capsys):
    assert cli.main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIO_NAMES:
        assert name in out
    assert list(cli.SCENARIOS) == SCENARIO_NAMES


def test_default_run_passes(capsys):
    assert cli.main(["--scenario", "eom-check"]) == 0
    out = capsys.readouterr().out
    assert "result: pass" in out
    assert "conventions: signature=-+++" in out
    assert out.splitlines()[-1].startswith("duration-s:")


def test_every_check_line_has_fields(capsys):
    cli.main(["--scenario", "mass-shell"])
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines() if ln.startswith("check:")]
    assert rows
    for row in rows:
        for key in ("name=", "computed=", "expected=", "tol=", "source=",
                    "pass="):
            assert key in row


def test_report_body_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    cli.main(["--scenario", "dnggb-reduction", "--out", str(a)])
    cli.main(["--scenario", "dnggb-reduction", "--out", str(b)])
    capsys.readouterr()
    assert body_of(a.read_text()) == body_of(b.read_text())


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "rep.txt"
    cli.main(["--scenario", "mass-shell", "--out", str(path)])
    out = capsys.readouterr().out
    assert path.read_text() == out


def test_unknown_scenario_is_usage_error(capsys):
    assert cli.main(["--scenario", "warp-drive"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_missing_scenario_is_usage_error(capsys):
    assert cli.main([]) == 2
    assert "no scenario" in capsys.readouterr().err


def test_unknown_run_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = eom-check\n\n[run]\ngridd = 32\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert "unknown key 'gridd'" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = eom-check\n\n[extras]\nx = 1\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert "unknown config section" in capsys.readouterr().err


def test_unknown_coupling_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = eom-check\n\n"
                   "[model]\nid = dng\nlambda0 = 2.0\n")
    assert cli.main(["--config", str(cfg)]) == 2


def test_bad_embedding_parameter_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = gauss-bonnet\n\n"
                   "[embedding]\nid = sphere\nheight = 2.0\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert "does not take" in capsys.readouterr().err


def test_non_numeric_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = gauss-bonnet\n\n"
                   "[embedding]\nid = sphere\nradius = big\n")
    assert cli.main(["--config", str(cfg)]) == 2


def test_short_eps_schedule_rejected(capsys):
    assert cli.main(["--scenario", "action-variation",
                     "--eps", "1e-3,5e-4"]) == 2
    capsys.readouterr()


def test_non_halving_eps_schedule_rejected(capsys):
    assert cli.main(["--scenario", "action-variation",
                     "--eps", "1e-3,1e-4,1e-5"]) == 2
    assert "half" in capsys.readouterr().err


def test_eps_schedule_whose_tolerance_overflows_rejected(capsys):
    assert cli.main(["--scenario", "deformation-oracle",
                     "--eps", "1e300,5e299,2.5e299"]) == 2
    assert "overflows its tolerance 10 eps**2" in capsys.readouterr().err


EXACT_SCENARIOS = [name for name in SCENARIO_NAMES
                   if name not in ("deformation-oracle", "action-variation")]


@pytest.mark.parametrize("scenario", EXACT_SCENARIOS)
def test_eps_rejected_where_nothing_differences(scenario, capsys):
    assert cli.main(["--scenario", scenario,
                     "--eps", "1e-2,5e-3,2.5e-3"]) == 2
    assert "takes no eps schedule" in capsys.readouterr().err


def test_config_eps_rejected_where_nothing_differences(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = mass-shell\n\n"
                   "[run]\neps = 1e-2,5e-3,2.5e-3\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert "takes no eps schedule" in capsys.readouterr().err


def test_exact_scenario_header_has_no_eps(capsys):
    assert cli.main(["--scenario", "mass-shell"]) == 0
    assert "eps: -\n" in capsys.readouterr().out
    assert cli.main(["--scenario", "deformation-oracle"]) == 0
    assert "eps: 0.001,0.0005,0.00025\n" in capsys.readouterr().out


def test_four_step_eps_schedule_runs(capsys):
    assert cli.main(["--scenario", "deformation-oracle",
                     "--eps", "1e-3,5e-4,2.5e-4,1.25e-4"]) == 0
    assert "result: pass" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_bad_tolerance_is_usage_error(tmp_path, capsys, tol):
    assert cli.main(["--scenario", "mass-shell", "--tol", tol]) == 2
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[scenario]\nname = mass-shell\n\n[run]\ntol = {tol}\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert "tol" in capsys.readouterr().err


def test_scenario_embedding_mismatch_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = canonical-darboux\n\n"
                   "[embedding]\nid = torus\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert "static-string" in capsys.readouterr().err


def test_tightened_tolerance_fails_run(tmp_path, capsys):
    # chi on the perturbed sphere at 8 nodes per axis carries ~1.6e-5
    # quadrature error, far above a 1e-9 tolerance
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = gauss-bonnet\n\n"
                   "[embedding]\nid = perturbed-sphere\n\n"
                   "[run]\ngrid = 8\ntol = 1e-9\n")
    assert cli.main(["--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "result: fail" in out
    assert 1e-6 < abs(_computed(out, "euler-characteristic") - 2.0) < 1e-4


def _config_error(tmp_path, capsys, text):
    """Exit status and stderr of the CLI on a mass-shell config + ``text``;
    a configuration error prints no report."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = mass-shell\n\n" + text)
    code = cli.main(["--config", str(cfg)])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def test_out_of_range_slice_is_a_config_error(tmp_path, capsys):
    code, err = _config_error(tmp_path, capsys, "[run]\nslices = 3.0\n")
    assert code == 2
    assert "slice tau=3.0 lies outside (0.0, 2.5)" in err


def test_slice_without_tau_axis_is_a_config_error(tmp_path, capsys):
    code, err = _config_error(tmp_path, capsys, "[embedding]\nid = sphere\n")
    assert code == 2
    assert "no axis named 'tau'" in err


@pytest.mark.parametrize("text,message", [
    ("[scenario]\nname = deformation-oracle\n\n[run]\nseed = x\n",
     "seed must be an integer, got 'x'"),
    ("[scenario]\nname = mass-shell\n\n[run]\nslices = a,b\n",
     "expected comma-separated numbers, got 'a,b'"),
    ("[scenario]\nname = mass-shell\n\n[embedding]\nid = warp\n",
     "unknown embedding 'warp'"),
    ("[scenario]\nname = eom-check\n\n[model]\nid = warp\n",
     "unknown model 'warp'"),
], ids=["seed", "slices", "embedding", "model"])
def test_unreadable_config_values_are_config_errors(tmp_path, capsys, text,
                                                    message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert cli.main(["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "absent.cfg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot read config" in captured.err


def test_dump_fields_of_an_aborted_run_is_a_config_error(tmp_path, capsys):
    # einstein-hilbert refuses a curved background, so eom-check aborts
    # before any per-point field exists
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = eom-check\n\n[embedding]\nid = s2xs2"
                   "\n\n[model]\nid = einstein-hilbert\n")
    path = tmp_path / "fields.csv"
    assert cli.main(["--config", str(cfg), "--dump-fields", str(path)]) == 2
    captured = capsys.readouterr()
    assert "this scenario produced no per-point fields" in captured.err
    assert not path.exists()


def test_library_error_during_a_run_becomes_failed_check(monkeypatch, capsys):
    def degenerate(run):
        raise DegenerateGeometryError("induced metric is singular")

    monkeypatch.setitem(cli.SCENARIOS, "mass-shell", dataclasses.replace(
        cli.SCENARIOS["mass-shell"], run=degenerate))
    assert cli.main(["--scenario", "mass-shell"]) == 1
    out = capsys.readouterr().out
    assert "aborted:DegenerateGeometryError" in out
    assert "result: fail" in out


README_CONFIG = ("[embedding]\nid = static-string\nradius = 1.0\n\n"
                 "[model]\nid = dng\nmu = 1.0\n\n"
                 "[run]\ngrid = 256\nslices = 0.3,1.1,2.0\nseed = 7\n")


@pytest.mark.parametrize("scenario, text, argv, key", [
    pytest.param("mass-shell", "[run]\nslices = 0.9,3.0\n", [], "slices",
                 id="second-slice"),
    pytest.param("gauss-bonnet", "", ["--grid", "64,128"], "grid",
                 id="gauss-bonnet-two-node-counts"),
    pytest.param("mass-shell", "", ["--grid", "64,3"], "grid",
                 id="slice-two-node-counts"),
    pytest.param("mass-shell", "[model]\nid = quadratic-k\n", [], "model",
                 id="model-on-a-modelless-scenario"),
    pytest.param("eom-check", "[model]\nid = dng\nalpha = 5\n", [], "alpha",
                 id="coupling-the-model-does-not-read"),
    pytest.param("gauss-bonnet", "[run]\nseed = 7\n", [], "seed",
                 id="gauss-bonnet-seed"),
    pytest.param("gauss-bonnet", "[run]\ntrials = 3\n", [], "trials",
                 id="gauss-bonnet-trials"),
    pytest.param("gauss-bonnet", "[run]\nslices = 0.9\n", [], "slices",
                 id="gauss-bonnet-slices"),
    pytest.param("symplectic-conservation", README_CONFIG, [], "seed",
                 id="readme-example-seed"),
    pytest.param("gauss-bonnet", "[embedding]\nid = plane\n", [], "sphere",
                 id="gauss-bonnet-without-euler-number"),
    pytest.param("canonical-darboux", "[model]\nmu = 1.0\nsigma0 = 3.0\n",
                 [], "mu", id="darboux-mu"),
])
def test_input_the_scenario_would_not_read_is_a_usage_error(
        tmp_path, capsys, scenario, text, argv, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[scenario]\nname = {scenario}\n\n{text}")
    assert cli.main(["--config", str(cfg)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err


def test_canonical_darboux_reads_sigma0(tmp_path, capsys):
    assert cli.SCENARIOS["canonical-darboux"].couplings == {"sigma0": 1.0}
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = canonical-darboux\n\n"
                   "[model]\nsigma0 = 3.0\n\n[run]\ngrid = 64\n")
    assert cli.main(["--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "note: sigma0=3.0\n" in out
    assert "result: pass" in out


def test_config_overrides_defaults(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[scenario]\nname = eom-check\n\n"
        "[embedding]\nid = sphere\nradius = 0.5\n\n"
        "[model]\nid = quadratic-k\nalpha = 1.0\n\n"
        "[run]\ngrid = 24,24\n"
    )
    assert cli.main(["--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "embedding: sphere(r=0.5)" in out
    assert "model: quadratic-k" in out
    assert "grid: 24,24" in out


def test_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = gauss-bonnet\n\n[run]\ngrid = 48\n")
    assert cli.main(["--config", str(cfg), "--grid", "64"]) == 0
    assert "grid: 64" in capsys.readouterr().out


def test_dump_fields_csv(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = deformation-oracle\n\n"
                   "[run]\ntrials = 3\n")
    path = tmp_path / "fields.csv"
    assert cli.main(["--config", str(cfg), "--dump-fields", str(path)]) == 0
    capsys.readouterr()
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["param0", "param1", "k_squared-gap", "k_dot_k-gap",
                       "gradk_full-gap"]
    assert len(rows) == 1 + 3
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    assert np.all(np.isfinite(data))


def test_seed_changes_oracle_points(tmp_path, capsys):
    base = tmp_path / "b.cfg"
    base.write_text("[scenario]\nname = deformation-oracle\n\n"
                    "[run]\ntrials = 2\nseed = 1\n")
    other = tmp_path / "o.cfg"
    other.write_text("[scenario]\nname = deformation-oracle\n\n"
                     "[run]\ntrials = 2\nseed = 2\n")
    p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
    cli.main(["--config", str(base), "--dump-fields", str(p1)])
    cli.main(["--config", str(base), "--dump-fields", str(p2)])
    capsys.readouterr()
    assert p1.read_text() == p2.read_text()
    cli.main(["--config", str(other), "--dump-fields", str(p2)])
    capsys.readouterr()
    assert p1.read_text() != p2.read_text()


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_nonpositive_trials_is_usage_error(tmp_path, capsys, trials):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = deformation-oracle\n\n"
                   f"[run]\ntrials = {trials}\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert "trials" in capsys.readouterr().err


def test_trials_has_an_upper_bound(tmp_path, capsys):
    # checked by the [run] parser alone: no run starts, nothing is allocated
    parse = cli.RUN_KEYS["trials"][1]
    assert parse("trials", str(cli.MAX_TRIALS)) == cli.MAX_TRIALS
    for text in (str(cli.MAX_TRIALS + 1), "99999999999999999999999999"):
        with pytest.raises(cli.ConfigError, match="trials"):
            parse("trials", text)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = deformation-oracle\n\n"
                   "[run]\ntrials = 99999999999999999999999999\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert "trials" in capsys.readouterr().err


def test_grid_has_an_upper_bound(tmp_path, capsys):
    # checked by the [run] parser alone: no run starts, nothing is allocated
    parse = cli.RUN_KEYS["grid"][1]
    assert parse("grid", f"{cli.MAX_GRID},2") == (cli.MAX_GRID, 2)
    huge = "99999999999999999999"
    for text in (str(cli.MAX_GRID + 1), huge, f"{huge},2", f"2,{huge}"):
        with pytest.raises(cli.ConfigError, match="grid"):
            parse("grid", text)
    for scenario, grid in (("gauss-bonnet", huge), ("eom-check", f"{huge},2")):
        assert cli.main(["--scenario", scenario, "--grid", grid]) == 2
        assert "grid" in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[scenario]\nname = gauss-bonnet\n\n[run]\ngrid = {huge}\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert "grid" in capsys.readouterr().err


def _resolve(scenario, grid):
    return cli.resolve_config(argparse.Namespace(
        config=None, scenario=scenario, grid=grid, eps=None, tol=None))


@pytest.mark.parametrize("scenario", [
    name for name, sc in cli.SCENARIOS.items() if "grid" in sc.reads])
def test_grid_nodes_are_bounded_by_the_memory_budget(scenario):
    # through the parser only: a rejected grid is refused before any build
    sc = cli.SCENARIOS[scenario]
    assert sc.node_kb > 0
    _resolve(scenario, None)  # the default fits
    if sc.slices:  # one node per slice point: MAX_GRID binds first
        assert cli.MAX_GRID * sc.node_kb * 1e3 <= cli.NODE_BUDGET
        _resolve(scenario, str(cli.MAX_GRID))
        return
    n = math.isqrt(int(cli.NODE_BUDGET // (sc.node_kb * 1e3)))  # n x n nodes
    assert _resolve(scenario, str(n)).grid == n
    per_axis = isinstance(sc.grid, tuple)  # it also reads n,m
    for text in [str(n + 1)] + [f"{n + 1},{n + 1}"] * per_axis:
        with pytest.raises(cli.ConfigError, match="GB"):
            _resolve(scenario, text)


def test_action_variation_at_the_largest_axis_grid_is_a_usage_error(
        tmp_path, capsys, monkeypatch):
    # 1024^2 nodes at 46 kB each would need about 48 GB: no run may start
    def no_run(run):
        raise AssertionError(f"{run.scenario} started at grid {run.grid}")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    assert cli.main(["--scenario", "action-variation", "--grid", "1024"]) == 2
    assert "GB" in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = action-variation\n\n[embedding]\n"
                   "id = s2xs2\n\n[model]\nid = synthetic-gradk\n\n"
                   "[run]\ngrid = 1024\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert "GB" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["deformation-oracle",
                                      "gb-gauge-invariance", "mass-shell"])
def test_geometry_order_is_the_lowest_that_runs(monkeypatch, capsys, scenario):
    # each runner builds one geometry at the lowest order its result keeps;
    # one order lower, the run aborts
    build = emb.Embedding.geometry
    monkeypatch.setattr(emb.Embedding, "geometry",
                        lambda self, params, order: build(self, params,
                                                          order - 1))
    assert cli.main(["--scenario", scenario]) == 1
    assert "aborted:PreconditionError" in capsys.readouterr().out


def test_singular_perturbed_sphere_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = gauss-bonnet\n\n"
                   "[embedding]\nid = perturbed-sphere\namp = 1.5\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert "singular" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_coupling_is_usage_error(tmp_path, capsys, value):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = action-variation\n\n"
                   f"[model]\nid = quadratic-k\nalpha = {value}\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, coupling", [
    ("mass-shell", "sigma0"), ("dnggb-reduction", "sigma0"),
    ("canonical-darboux", "sigma0"), ("gb-gauge-invariance", "sigma1")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_scenario_coupling_is_usage_error(tmp_path, capsys,
                                                    scenario, coupling, value):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[scenario]\nname = {scenario}\n\n"
                   f"[model]\n{coupling} = {value}\n")
    assert cli.main(["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{coupling} must be a finite number" in captured.err


@pytest.mark.parametrize("scenario, grid", [
    ("gauss-bonnet", "0"),
    ("eom-check", "-4"),
    ("eom-check", "3,4,5"),
])
def test_bad_grid_is_usage_error(tmp_path, capsys, scenario, grid):
    assert cli.main(["--scenario", scenario, "--grid", grid]) == 2
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[scenario]\nname = {scenario}\n\n[run]\ngrid = {grid}\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert "grid" in capsys.readouterr().err


def _computed(out, check):
    for ln in out.splitlines():
        if ln.startswith(f"check: name={check} "):
            return float(ln.split("computed=")[1].split()[0])
    raise AssertionError(f"no check {check} in report")


def _note(out, key):
    for ln in out.splitlines():
        if ln.startswith(f"note: {key}="):
            return float(ln.split("=", 1)[1])
    raise AssertionError(f"no note {key} in report")


@pytest.mark.parametrize("argv, weights, reported", [
    (["--scenario", "gauss-bonnet", "--grid", "32"],
     lambda: emb.make_grid(emb.sphere_polar(), 32).weight,
     lambda out: 4 * np.pi * _computed(out, "euler-characteristic")),
    (["--scenario", "symplectic-conservation", "--grid", "64"],
     lambda: sym.CauchySlice("tau", 0.3, 64).grid(emb.static_string())[0]
     .weight,
     lambda out: _computed(out, "wave-pair-form")),
    (["--scenario", "action-variation"],
     lambda: emb.make_grid(emb.torus_e3(), (24, 24)).weight,
     lambda out: _note(out, "assembled")),
])
def test_dumped_density_integrates_to_report(tmp_path, capsys, argv, weights,
                                             reported):
    path = tmp_path / "fields.csv"
    cli.main(argv + ["--dump-fields", str(path)])
    out = capsys.readouterr().out
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = np.array([float(row[-1]) for row in rows[1:]])
    total = float(np.sum(col * np.ravel(weights())))
    want = reported(out)
    assert abs(total - want) <= 1e-12 * abs(want)


def test_deformation_oracle_rejects_grid(tmp_path, capsys):
    assert cli.main(["--scenario", "deformation-oracle", "--grid", "3"]) == 2
    assert "trials" in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = deformation-oracle\n\n[run]\ngrid = 3\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["eom-check", "action-variation"])
def test_one_axis_embedding_gets_a_one_axis_default_grid(tmp_path, capsys,
                                                         scenario):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[scenario]\nname = {scenario}\n\n"
                   "[embedding]\nid = s3-curve\n")
    code = cli.main(["--config", str(cfg)])
    out = capsys.readouterr().out
    assert "aborted:" not in out and "name=execution" not in out
    assert "grid: default" in out
    if scenario == "action-variation":
        assert code == 0 and "result: pass" in out


@pytest.mark.parametrize("embedding", ["graph-surface", "flat-torus"])
def test_action_variation_passes_in_codimension_two(tmp_path, capsys,
                                                    embedding):
    # Geometry.normals picks its frame point by point; the probe must not
    # follow it from node to node
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario]\nname = action-variation\n\n"
                   f"[embedding]\nid = {embedding}\n")
    assert cli.main(["--config", str(cfg)]) == 0
    assert "result: pass" in capsys.readouterr().out


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_a_run_builds_its_embedding_and_model_once(monkeypatch, capsys,
                                                   scenario):
    built = []
    for name, (factory, keys) in list(cli.EMBEDDINGS.items()):
        def counted(*args, _factory=factory, **kwargs):
            built.append("embedding")
            return _factory(*args, **kwargs)
        monkeypatch.setitem(cli.EMBEDDINGS, name, (counted, keys))
    for cls in (mdl.DNG, mdl.QuadraticK, mdl.EinsteinHilbert,
                mdl.SyntheticGradK):
        def post_init(self, _post=cls.__post_init__):
            built.append("model")
            _post(self)
        monkeypatch.setattr(cls, "__post_init__", post_init)
    assert cli.main(["--scenario", scenario]) == 0
    capsys.readouterr()
    assert built.count("embedding") == 1
    assert built.count("model") <= 1


def test_cli_bodies_compare(tmp_path, capsys):
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / "cli_bodies.py"
    spec = importlib.util.spec_from_file_location("cli_bodies", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    body = ("check: name=gap computed={} expected=0.0 tol=1e-05 "
            "source=oracle pass={}\nresult: {}\n")
    dirs = {}
    for tag, computed, verdict in (("old", "7.40e-12", "true"),
                                   ("new", "7.46e-12", "true"),
                                   ("flip", "7.40e-12", "false")):
        dirs[tag] = tmp_path / tag
        dirs[tag].mkdir()
        (dirs[tag] / "a.txt").write_text(
            body.format(computed, verdict, "pass" if verdict == "true" else "fail"))
    assert tool.compare(dirs["old"], dirs["new"]) == 0
    out = capsys.readouterr().out
    assert "a.txt: verdicts identical; largest relative change 8.04e-03" in out
    assert tool.compare(dirs["old"], dirs["flip"]) == 1
    assert "verdicts DIFFER" in capsys.readouterr().out
    (dirs["new"] / "b.txt").write_text("x\n")
    assert tool.compare(dirs["old"], dirs["new"]) == 1


def test_deformation_oracle_computes_delta_extrinsic_once(capsys):
    # count calls of the function's code, whatever name or table calls it
    code, calls = dfm.delta_extrinsic.__code__, []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(1)

    sys.setprofile(count)
    try:
        assert cli.main(["--scenario", "deformation-oracle"]) == 0
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("section", [
    "[embedding]\nid = sphere\nradius = inf\n",
    "[embedding]\nid = sphere\nradius = nan\n",
    "[embedding]\nid = torus\nbig_radius = 1.0\nsmall_radius = 2.0\n",
])
def test_bad_embedding_value_is_usage_error(tmp_path, capsys, section):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[scenario]\nname = gauss-bonnet\n\n{section}")
    assert cli.main(["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err
