"""CLI contract: precedence, artifacts, exit codes, reproducibility."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_csv
from magnonchain import analysis, bounds, cli, dynamics, entanglement, ionchain, magnon
from magnonchain import io as mio


def run(argv, capsys):
    """Invoke the CLI in-process; return (exit code, artifact records)."""
    code = cli.main(argv)
    out = capsys.readouterr().out
    artifacts = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, artifacts


def read_data_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        try:
            rows.append([float(c) for c in line.split(",")])
        except ValueError:
            continue        # the column-name row
    return rows


def count_data_lines(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return len(lines) - 1   # minus the column-name row


# ---------------------------------------------------------------------------
# happy paths


def test_modes_writes_spectrum_and_positions(tmp_path, capsys):
    code, artifacts = run(["modes", "-o", str(tmp_path), "--n", "5"], capsys)
    assert code == 0
    kinds = {a["kind"] for a in artifacts}
    assert kinds == {"modes", "positions"}
    text = (tmp_path / "modes.csv").read_text()
    assert text.startswith("# magnonchain = ")
    assert "# config_hash = " in text
    assert "# seed = " in text
    assert count_data_lines(tmp_path / "modes.csv") == 10      # 2N modes


def test_couplings_export_round_trips(tmp_path, capsys):
    code, _ = run(["couplings", "-o", str(tmp_path), "--n", "6",
                   "--source", "power-law", "--alpha", "1.5", "--jbar", "30"],
                  capsys)
    assert code == 0
    back = mio.load_couplings(tmp_path / "couplings.csv")
    expected = ionchain.power_law_coupling(6, 1.5, 2 * np.pi * 30.0)
    np.testing.assert_array_equal(back.values, expected.values)


def test_dispersion_reports_alpha_fit(tmp_path, capsys):
    code, artifacts = run(["dispersion", "-o", str(tmp_path), "--n", "7",
                           "--source", "power-law", "--alpha", "1.36"], capsys)
    assert code == 0
    assert {a["kind"] for a in artifacts} == {"dispersion", "alpha_fit"}
    lines = (tmp_path / "alpha_fit.ndjson").read_text().splitlines()
    fit = json.loads(lines[1])
    assert fit["fit"] == "AlphaFit"
    assert abs(fit["alpha"] - 1.36) < 0.02


def test_dispersion_from_reference_trap(tmp_path, capsys):
    # frozen regression for the reference trap at the default 30 kHz gap
    code, _ = run(["dispersion", "-o", str(tmp_path), "--source", "trap"], capsys)
    assert code == 0
    fit = json.loads((tmp_path / "alpha_fit.ndjson").read_text().splitlines()[1])
    assert fit["alpha"] == pytest.approx(1.2582879489182055, abs=1e-6)


def test_quench_magnetisation_matches_module(tmp_path, capsys):
    code, _ = run(["quench", "-o", str(tmp_path), "--n", "5", "--flip", "2", "4",
                   "--model", "xy", "--t-end", "0.01", "--n-points", "21"], capsys)
    assert code == 0
    rows = np.array(read_data_rows(tmp_path / "magnetisation.csv"))
    # recompute through the library: identical code path, identical floats
    J = ionchain.power_law_coupling(5, 1.5, 2 * np.pi * 30.0)
    H = dynamics.build_hamiltonian(J, model="xy")
    psi0 = dynamics.prepare_state(5, (2, 4))
    times = np.linspace(0.0, 0.01, 21)
    traj = dynamics.evolve(psi0, H, times)
    assert rows.shape == (21 * 5, 3)
    np.testing.assert_array_equal(rows[:, 2], dynamics.magnetisation(traj).ravel())


def test_quench_single_excitation_model(tmp_path, capsys):
    code, _ = run(["quench", "-o", str(tmp_path), "--n", "9", "--flip", "5",
                   "--model", "xy", "--t-end", "0.02", "--n-points", "11"], capsys)
    assert code == 0
    rows = np.array(read_data_rows(tmp_path / "magnetisation.csv"))
    J = ionchain.power_law_coupling(9, 1.5, 2 * np.pi * 30.0)
    states = magnon.evolve_single_excitation(J, 5, np.linspace(0, 0.02, 11))
    mag = np.vstack([2.0 * np.abs(s.amplitudes) ** 2 - 1.0 for s in states])
    np.testing.assert_array_equal(rows[:, 2], mag.ravel())


@pytest.mark.parametrize("n,flip", [(7, 4), (15, 3), (41, 21), (63, 10)])
def test_a_one_flip_xy_run_matches_evolve(tmp_path, capsys, monkeypatch, n, flip):
    """A one-flip XY quench, light cone and tomography never call
    ``dynamics.evolve``: their magnetisation, correlations (diagonal
    included) and exact pair density matrices, for pairs with and without
    the flipped site, match it to 1e-12."""
    evolve = dynamics.evolve

    def never(*args, **kwargs):
        raise AssertionError("a one-flip XY run called dynamics.evolve")
    monkeypatch.setattr(dynamics, "evolve", never)
    window = ["--t-end", "0.02", "--n-points", "21"]
    base = ["--n", str(n), "--model", "xy", "--flip", str(flip)]
    parse = cli.build_parser().parse_args
    rc = cli.resolve(parse(["quench", *base, "--correlations", *window]))
    J = ionchain.power_law_coupling(n, 1.5, 2 * np.pi * 30.0)
    times, mag, corr = cli._propagate(rc, J)

    H = dynamics.build_hamiltonian(J, model="xy")
    traj = evolve(dynamics.prepare_state(n, (flip,)), H, times)
    np.testing.assert_allclose(mag, dynamics.magnetisation(traj), rtol=0, atol=1e-12)
    np.testing.assert_allclose(corr, dynamics.two_point_correlations(traj), rtol=0, atol=1e-12)

    t = 0.0043
    state = evolve(dynamics.prepare_state(n, (flip,)), H, np.array([t])).state(0)
    for sites in ((flip - 1, flip), (flip, n), (1, n), (1, 2)):
        rc = cli.resolve(parse(["tomo", *base, "--time", str(t), "--sites", *map(str, sites)]))
        rho = cli._exact_pair(rc, J, sites)
        expected = entanglement.reduced_density_matrix(state, sites)
        np.testing.assert_allclose(rho.matrix, expected.matrix, rtol=0, atol=1e-12)

    runs = [["quench", *window], ["tomo", "--shots", "50", "--resamples", "100"]]
    if n - 1 - flip >= 3:                   # the sites a light cone fits past the flip
        runs.append(["lightcone"])
    for argv in runs:
        assert cli.main(argv + base + ["-o", str(tmp_path / argv[0])]) == 0, argv
    capsys.readouterr()


@pytest.mark.parametrize("n", [7, 31, 63])
def test_one_flip_xy_starts_in_its_initial_state(tmp_path, capsys, n):
    """At t = 0 a one-flip XY quench is its initial state, bit for bit, as
    ``dynamics.evolve`` gives it: sz is exactly 1 at the flipped site and
    -1 elsewhere, and every connected correlation and distance average is
    exactly 0 (the mode sum gave the flipped site 1 + 9e-16 at N = 7)."""
    code, _ = run(["quench", "--n", str(n), "--correlations", "--t-end", "0.01",
                   "--n-points", "3", "-o", str(tmp_path)], capsys)
    assert code == 0
    flip = cli.resolve(cli.build_parser().parse_args(["quench", "--n", str(n)])).flip[0]
    text = {name: [line.split(",") for line in (tmp_path / name).read_text().splitlines()
                   if line[0] != "#"][1:] for name in
            ("magnetisation.csv", "correlations.csv", "cbar.csv")}
    start = [row for row in text["magnetisation.csv"] if row[0] == "0.0"]
    assert start == [["0.0", str(site), "1.0" if site == flip else "-1.0"]
                     for site in range(1, n + 1)]
    for name in ("correlations.csv", "cbar.csv"):
        values = {row[-1] for row in text[name] if row[0] == "0.0"}
        assert values == {"0.0"}, name


def test_one_flip_correlations_peak_at_one_array():
    """The one-flip correlations of N = 101 at 101 points are built in
    place: ``_propagate`` peaks below 1.5 times the (T, N, N) result, the
    one array ``check_trajectory`` counts (as one expression they took
    two), with the bits of 4 p_i (delta_ij - p_j) + 0, where adding 0
    turns the -0.0 of p_i = 0 into 0.0."""
    rc = cli.resolve(cli.build_parser().parse_args(
        ["quench", "--n", "101", "--model", "xy", "--correlations", "--n-points", "101"]))
    J = ionchain.power_law_coupling(101, 1.5, 2 * np.pi * 30.0)
    tracemalloc.start()
    try:
        times, mag, corr = cli._propagate(rc, J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert corr.shape == (101, 101, 101)
    assert peak < 1.5 * corr.nbytes, f"peak {peak / 1e6:.1f} MB for {corr.nbytes / 1e6:.1f} MB"
    p = np.abs(magnon._single_excitation_amplitudes(J, rc.flip[0], times)) ** 2
    expected = 4.0 * p[:, :, None] * (np.eye(101) - p[:, None, :]) + 0.0
    np.testing.assert_array_equal(corr.view(np.uint8), expected.view(np.uint8))


def test_one_flip_xy_runs_past_the_basis_limit(tmp_path, capsys, monkeypatch):
    """One XY flip runs at any N, tomography and correlations included;
    from two flips on, the 63 sites of an int64 basis state bind."""
    def never(*args, **kwargs):
        raise AssertionError("a one-flip XY run called dynamics.evolve")
    monkeypatch.setattr(dynamics, "evolve", never)
    for k, argv in enumerate((["quench", "--n", "64", "--model", "xy", "--flip", "1"],
                              ["tomo", "--n", "201", "--model", "xy", "--sites", "100", "102"],
                              ["quench", "--n", "201", "--correlations", "--n-points", "11"])):
        assert cli.main(argv + ["-o", str(tmp_path / str(k))]) == 0, argv
    summary = json.loads((tmp_path / "1" / "tomo.ndjson").read_text().splitlines()[-1])
    assert 0.0 < summary["concurrence_exact"] <= 1.0
    assert count_data_lines(tmp_path / "2" / "correlations.csv") == 11 * 201 * 200 // 2
    capsys.readouterr()
    monkeypatch.undo()
    assert cli.main(["quench", "--n", "64", "--model", "xy", "--flip", "1", "2",
                     "-o", str(tmp_path / "refused")]) == 2
    assert capsys.readouterr().err == ("config error: --n / [trap] n_ions: N=64 is above the "
                                       "63 sites an int64 basis state holds\n")
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("command", ["quench", "global-quench", "tomo", "lightcone"])
def test_the_single_excitation_model_is_refused_naming_model(tmp_path, capsys, command):
    """``single-excitation`` is no choice of ``--model`` or its key: a one-flip
    XY quench is that model."""
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--model", "single-excitation"])
    assert exc.value.code == 2
    assert "argument --model/-m: invalid choice: 'single-excitation'" in capsys.readouterr().err
    (tmp_path / "run.ini").write_text("[quench]\nmodel = single_excitation\n")
    assert cli.main([command, "-c", str(tmp_path / "run.ini"), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("config error: --model / [quench] model must be one of "
                                       "ising, xy, got 'single_excitation'\n")
    assert not (tmp_path / "out").exists()


def test_quench_correlations_flag(tmp_path, capsys):
    code, artifacts = run(["quench", "-o", str(tmp_path), "--n", "4",
                           "--correlations", "--t-end", "0.005",
                           "--n-points", "6"], capsys)
    assert code == 0
    assert {a["kind"] for a in artifacts} == {"magnetisation", "correlations", "cbar"}


def test_quench_ndjson_format(tmp_path, capsys):
    code, artifacts = run(["quench", "-o", str(tmp_path), "--n", "4",
                           "--format", "ndjson", "--t-end", "0.005",
                           "--n-points", "6"], capsys)
    assert code == 0
    assert artifacts[0]["kind"] == "trajectory"
    lines = (tmp_path / "trajectory.ndjson").read_text().splitlines()
    assert len(lines) == 7          # header + one record per time point
    rec = json.loads(lines[1])
    assert rec["t_s"] == 0.0
    assert len(rec["sz"]) == 4


def test_global_quench_defaults(tmp_path, capsys):
    code, artifacts = run(["global-quench", "-o", str(tmp_path), "--n", "4",
                           "--n-points", "6"], capsys)
    assert code == 0
    # global quench exports correlations by default
    assert {a["kind"] for a in artifacts} == {"magnetisation", "correlations", "cbar"}
    rows = np.array(read_data_rows(tmp_path / "magnetisation.csv"))
    # all spins along +x: <sigma_z> starts at 0 on every site
    np.testing.assert_allclose(rows[rows[:, 0] == 0.0, 2], 0.0, atol=1e-12)


def _data_text(text):
    """CSV text without its '#' header lines."""
    return "".join(l for l in text.splitlines(keepends=True) if not l.startswith("#"))


def _trajectory_csvs(times, mag, corr):
    """The trajectory CSVs' rows, one tuple per line as the row-wise writer took them."""
    n = mag.shape[1]
    out = {"magnetisation.csv": (("t_s", "site", "sz"),
                                 [(t, s + 1, mag[it, s]) for it, t in enumerate(times)
                                  for s in range(n)])}
    if corr is not None:
        out["correlations.csv"] = (("t_s", "i", "j", "Cij"),
                                   [(t, i + 1, j + 1, corr[it, i, j])
                                    for it, t in enumerate(times)
                                    for i in range(n) for j in range(i + 1, n)])
        out["cbar.csv"] = (("t_s", "n", "cbar"),
                           [(t, k + 1, cb) for t, c in zip(times, corr)
                            for k, cb in enumerate(dynamics.averaged_correlations(c))])
    return out


@pytest.mark.parametrize("command", ["quench", "global-quench"])
def test_quench_csvs_match_row_formatter(tmp_path, capsys, command):
    n, flip = 6, (2, 5)
    argv = [command, "-o", str(tmp_path), "--n", str(n), "--t-end", "0.004",
            "--n-points", "9"]
    argv += ["--flip", "2", "5", "--model", "xy", "--correlations"] if command == "quench" else []
    assert run(argv, capsys)[0] == 0
    J = ionchain.power_law_coupling(n, 1.5, 2 * np.pi * 30.0)
    if command == "quench":
        H = dynamics.build_hamiltonian(J, model="xy")
        spec = flip
    else:
        H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                       model="ising")
        spec = None
    times = np.linspace(0.0, 0.004, 9)
    traj = dynamics.evolve(dynamics.prepare_state(n, spec), H, times)
    csvs = _trajectory_csvs(times, dynamics.magnetisation(traj),
                            dynamics.two_point_correlations(traj))
    for name, (columns, rows) in csvs.items():
        assert (_data_text((tmp_path / name).read_text())
                == _data_text(reference_csv(columns, rows))), name


def test_long_quench_csvs_match_row_formatter(tmp_path, capsys):
    """801 times of an 11-ion quench: the correlation and cbar tables, whose
    time and label columns are written from their distinct values, span
    eleven and two chunks."""
    argv = ["quench", "-o", str(tmp_path), "--n", "11", "--model", "xy", "--flip", "4",
            "--correlations", "--t-end", "0.02", "--n-points", "801"]
    assert run(argv, capsys)[0] == 0
    J = ionchain.power_law_coupling(11, 1.5, 2 * np.pi * 30.0)
    times = np.linspace(0.0, 0.02, 801)
    # one flip: the populations p of the one-excitation amplitudes give
    # <sigma^z> = 2p - 1 and, off the diagonal the CSVs hold, C_ij = -4 p_i p_j,
    # which is 0.0, not -0.0, where p_i p_j = 0, as at t = 0
    p = np.abs(magnon._single_excitation_amplitudes(J, 4, times)) ** 2
    csvs = _trajectory_csvs(times, 2.0 * p - 1.0, -4.0 * p[:, :, None] * p[:, None, :] + 0.0)
    assert len(csvs["cbar.csv"][1]) > mio._CHUNK_ROWS
    for name, (columns, rows) in csvs.items():
        assert (_data_text((tmp_path / name).read_text())
                == _data_text(reference_csv(columns, rows))), name


def test_lightcone_csvs_match_row_formatter(tmp_path, capsys):
    argv = ["lightcone", "-o", str(tmp_path), "--source", "power-law", "--n", "15",
            "--alpha", "1.2", "--t-end", "0.02", "--n-points", "201"]
    assert run(argv, capsys)[0] == 0
    J = ionchain.power_law_coupling(15, 1.2, 2 * np.pi * 30.0)
    times = np.linspace(0.0, 0.02, 201)
    states = magnon.evolve_single_excitation(J, 8, times)
    mag = np.vstack([2.0 * np.abs(s.amplitudes) ** 2 - 1.0 for s in states])
    columns, rows = _trajectory_csvs(times, mag, None)["magnetisation.csv"]
    assert (_data_text((tmp_path / "magnetisation.csv").read_text())
            == _data_text(reference_csv(columns, rows)))
    distances = np.arange(1, 15)
    cone = bounds.cone_arrival_times(bounds.nn_lightcone(J), distances)
    rows = zip(distances.astype(float), cone)
    assert (_data_text((tmp_path / "cone.csv").read_text())
            == _data_text(reference_csv(("d", "t_cone_s"), rows)))


def test_lightcone_n31_magnetisation_matches_row_formatter(tmp_path, capsys):
    # a centre source: mirror sites repeat their values, and 801 x 31 rows span six chunks
    argv = ["lightcone", "-o", str(tmp_path), "--source", "power-law", "--n", "31",
            "--alpha", "1.2"]
    assert run(argv, capsys)[0] == 0
    J = ionchain.power_law_coupling(31, 1.2, 2 * np.pi * 30.0)
    times = np.linspace(0.0, 0.04, 801)
    mag = np.vstack([2.0 * np.abs(s.amplitudes) ** 2 - 1.0
                     for s in magnon.evolve_single_excitation(J, 16, times)])
    assert np.unique(mag).size < mag.size
    columns, rows = _trajectory_csvs(times, mag, None)["magnetisation.csv"]
    assert (_data_text((tmp_path / "magnetisation.csv").read_text())
            == _data_text(reference_csv(columns, rows)))


def test_tomo_artifacts_and_rerun_bytes(tmp_path, capsys):
    args = ["tomo", "--n", "7", "--sites", "3", "5", "--shots", "300",
            "--resamples", "100", "--seed", "11"]
    a, b = tmp_path / "a", tmp_path / "b"
    code1, _ = run(args + ["-o", str(a)], capsys)
    code2, _ = run(args + ["-o", str(b)], capsys)
    assert code1 == code2 == 0
    assert (a / "rho.csv").read_bytes() == (b / "rho.csv").read_bytes()
    assert (a / "tomo.ndjson").read_bytes() == (b / "tomo.ndjson").read_bytes()
    summary = json.loads((a / "tomo.ndjson").read_text().splitlines()[-1])
    assert summary["sites"] == [3, 5]
    assert 0.0 <= summary["concurrence"] <= 1.0
    assert summary["bootstrap_std"] > 0.0


def test_quench_beyond_16_sites_on_a_two_flip_block(tmp_path, capsys):
    """N = 40 with 2 flips reaches C(40, 2) = 780 states."""
    code, _ = run(["quench", "--source", "power-law", "--n", "40", "--model", "xy",
                   "--flip", "10", "20", "--correlations", "--n-points", "51",
                   "-o", str(tmp_path)], capsys)
    assert code == 0
    assert count_data_lines(tmp_path / "magnetisation.csv") == 40 * 51
    assert count_data_lines(tmp_path / "correlations.csv") == 780 * 51
    rows = np.array(read_data_rows(tmp_path / "magnetisation.csv"))
    np.testing.assert_allclose(rows[:, 2].reshape(51, 40).sum(axis=1), 4.0 - 40.0,
                               atol=1e-9)                   # two spins up throughout


def test_tomo_on_a_three_flip_block_of_30_sites(tmp_path, capsys):
    code, _ = run(["tomo", "--n", "30", "--source", "power-law", "--model", "xy",
                   "--flip", "10", "15", "20", "--sites", "14", "16", "-o", str(tmp_path)],
                  capsys)
    assert code == 0
    summary = json.loads((tmp_path / "tomo.ndjson").read_text().splitlines()[-1])
    assert summary["sites"] == [14, 16]
    assert 0.0 < summary["concurrence_exact"] <= 1.0


def test_tomo_seed_changes_counts(tmp_path, capsys):
    args = ["tomo", "--n", "7", "--shots", "300", "--resamples", "100"]
    code1, _ = run(args + ["-o", str(tmp_path / "a"), "--seed", "1"], capsys)
    code2, _ = run(args + ["-o", str(tmp_path / "b"), "--seed", "2"], capsys)
    assert code1 == code2 == 0
    assert ((tmp_path / "a" / "tomo.ndjson").read_bytes()
            != (tmp_path / "b" / "tomo.ndjson").read_bytes())


def test_lightcone_reports_velocities(tmp_path, capsys):
    code, artifacts = run(["lightcone", "-o", str(tmp_path), "--alpha", "1.41",
                           "--source", "power-law"], capsys)
    assert code == 0
    kinds = {a["kind"] for a in artifacts}
    assert {"magnetisation", "arrivals", "cone"} <= kinds
    records = [json.loads(l)
               for l in (tmp_path / "arrivals.ndjson").read_text().splitlines()[1:]]
    front = next(r for r in records if r["fit"] == "FrontFit")
    cone = next(r for r in records if r["fit"] == "LightConeParams")
    assert front["velocity"] == pytest.approx(651.8, rel=0.01)
    assert cone["v"] == pytest.approx(374.57, rel=0.01)


def test_lightcone_records_skipped_arrival_sites(tmp_path, capsys):
    """Skipped sites are ArrivalSkipped records, in distance order, and one
    stderr line counts them; nothing is warned."""
    argv = ["lightcone", "-o", str(tmp_path), "--source", "power-law", "--n", "31",
            "--alpha", "1.75", "--t-end", "0.02", "--n-points", "201"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == cli.EXIT_OK
    records = [json.loads(l)
               for l in (tmp_path / "arrivals.ndjson").read_text().splitlines()[1:]]
    skipped = [r for r in records if r["fit"] == "ArrivalSkipped"]
    assert len(skipped) > 0 and all(r["reason"] for r in skipped)
    assert capsys.readouterr().err == (
        f"{len(skipped)} of 14 sites gave no arrival fit; {tmp_path / 'arrivals.ndjson'} "
        "records each as ArrivalSkipped, with its reason\n")
    assert all(r["distance"] == r["site"] - 16 for r in skipped)
    assert [r["distance"] for r in skipped] == sorted(r["distance"] for r in skipped)
    # after the ArrivalFit records, before the front and cone records
    kinds = [r["fit"] for r in records]
    n_fits = kinds.count("ArrivalFit")
    assert kinds == (["ArrivalFit"] * n_fits + ["ArrivalSkipped"] * len(skipped)
                     + ["FrontFit", "LightConeParams"])
    assert n_fits + len(skipped) == 31 - 16 - 1


def test_fit_report_from_coupling_file(tmp_path, capsys):
    J = ionchain.power_law_coupling(7, 1.75, 2 * np.pi * 30.0)
    mio.save_couplings(tmp_path / "J.csv", J)
    code, artifacts = run(["fit", "-o", str(tmp_path),
                           "--couplings", str(tmp_path / "J.csv")], capsys)
    assert code == 0
    assert artifacts[0]["kind"] == "fit_report"
    records = [json.loads(l)
               for l in (tmp_path / "fit_report.ndjson").read_text().splitlines()[1:]]
    by_fit = {r["fit"]: r for r in records}
    assert by_fit["AlphaFit"]["alpha"] == pytest.approx(1.75, abs=0.01)
    assert "summary" in by_fit


def _header(path):
    """The ``# key = value`` header lines of a CSV artifact as a dict."""
    return dict(line[2:].split(" = ", 1) for line in path.read_text().splitlines()
                if line.startswith("# "))


@pytest.fixture
def coupling_file_25(tmp_path):
    path = tmp_path / "J25.csv"
    mio.save_couplings(path, ionchain.power_law_coupling(25, 1.3, 2 * np.pi * 30.0))
    return path


def test_chain_length_comes_from_the_coupling_file(tmp_path, capsys, coupling_file_25,
                                                  monkeypatch):
    """A 25-ion file, read once per run, sets N in the headers and the
    config hash, and the default flip is its centre site, 13."""
    loads = []
    monkeypatch.setattr(cli, "import_couplings",
                        lambda path, load=cli.import_couplings: loads.append(path) or load(path))
    out = tmp_path / "q"
    code, _ = run(["quench", "-o", str(out), "--source", "file", "--couplings",
                   str(coupling_file_25), "--model", "xy",
                   "--t-end", "0.001", "--n-points", "3"], capsys)
    assert code == 0
    assert _header(out / "magnetisation.csv")["n_ions"] == "25"
    rows = np.array(read_data_rows(out / "magnetisation.csv"))
    first = rows[rows[:, 0] == 0.0]
    assert first.shape[0] == 25
    assert first[np.argmax(first[:, 2]), 1] == 13 and first[:, 2].max() > 0.999
    assert loads == [str(coupling_file_25)]

    ini = tmp_path / "fit.ini"
    ini.write_text(f"[couplings]\nsource = file\nfile = {coupling_file_25}\n")
    for argv in (["--couplings", str(coupling_file_25)], ["-c", str(ini)],
                 ["--couplings", str(coupling_file_25), "--n", "25"]):
        code, _ = run(["fit", "-o", str(tmp_path / "fit"), *argv], capsys)
        assert code == 0
        header = json.loads((tmp_path / "fit" / "fit_report.ndjson").read_text()
                            .splitlines()[0])["header"]
        assert header["n_ions"] == 25
    rc = cli.resolve(cli.build_parser().parse_args(
        ["fit", "--couplings", str(coupling_file_25)]))
    assert (rc.n_ions, rc.flip) == (25, (13,)) and header["config_hash"] == rc.hash


@pytest.mark.parametrize("argv,config", [(["--n", "7"], ""),
                                         ([], "[trap]\nn_ions = 24\n")])
def test_chain_length_that_disagrees_with_the_file_is_config_error(
        argv, config, tmp_path, capsys, coupling_file_25):
    ini = tmp_path / "run.ini"
    ini.write_text(config)
    assert cli.main(["fit", "-o", str(tmp_path), "-c", str(ini), "--couplings",
                     str(coupling_file_25), *argv]) == 2
    n = argv[1] if argv else "24"
    assert capsys.readouterr().err == (
        f"config error: --n / [trap] n_ions = {n} disagrees with the 25 ions of the "
        f"coupling file {coupling_file_25}\n")
    assert not (tmp_path / "fit_report.ndjson").exists()


# ---------------------------------------------------------------------------
# configuration plumbing


def test_config_file_sets_parameters(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[trap]\nn_ions = 4\n\n[couplings]\nsource = power_law\n"
                   "alpha = 2.5\n\n[run]\nt_end = 0.004\nn_points = 5\n")
    code, _ = run(["quench", "-c", str(ini), "-o", str(tmp_path)], capsys)
    assert code == 0
    rows = np.array(read_data_rows(tmp_path / "magnetisation.csv"))
    assert rows.shape == (5 * 4, 3)


def test_flag_beats_config_file(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[trap]\nn_ions = 4\n\n[run]\nn_points = 5\nt_end = 0.004\n")
    code, _ = run(["quench", "-c", str(ini), "-o", str(tmp_path), "--n", "3"],
                  capsys)
    assert code == 0
    rows = np.array(read_data_rows(tmp_path / "magnetisation.csv"))
    assert rows.shape == (5 * 3, 3)     # 3 sites from the flag, 5 points from the file


def test_outdir_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "envdir"))
    code, artifacts = run(["couplings", "--n", "4"], capsys)
    assert code == 0
    assert (tmp_path / "envdir" / "couplings.csv").exists()


def test_config_hash_ignores_outdir(tmp_path, capsys):
    code1, _ = run(["couplings", "--n", "4", "-o", str(tmp_path / "x")], capsys)
    code2, _ = run(["couplings", "--n", "4", "-o", str(tmp_path / "y")], capsys)
    assert code1 == code2 == 0
    h1 = (tmp_path / "x" / "couplings.csv").read_text().splitlines()[1]
    h2 = (tmp_path / "y" / "couplings.csv").read_text().splitlines()[1]
    assert h1 == h2


# ---------------------------------------------------------------------------
# failure modes


def test_bad_n_ions_is_config_error(tmp_path, capsys):
    code, _ = run(["quench", "-o", str(tmp_path), "--n", "1"], capsys)
    assert code == 2


def test_flip_site_out_of_range_is_config_error(tmp_path, capsys):
    for argv, site, label in ((["quench", "--n", "4", "--flip", "9"], 9, "--flip / [quench] flip"),
                              (["quench", "--n", "4", "--flip", "2", "0"], 0,
                               "--flip / [quench] flip"),
                              (["tomo", "--n", "4", "--sites", "2", "9"], 9, "--sites")):
        assert cli.main(argv + ["-o", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {label}: site {site} outside 1..4\n"


@pytest.mark.parametrize("argv,n,states", [
    (["global-quench", "--n", "17"], 17, 2 ** 17),
    (["quench", "--n", "40", "--model", "ising"], 40, 2 ** 39),
    (["quench", "--n", "40", "--model", "xy", "--flip"] + [str(s) for s in range(1, 9)],
     40, 76904685),
    (["tomo", "--n", "64", "--model", "xy", "--flip", "1", "2"], 64, None),
    (["quench", "--n", "18", "--model", "ising"], 18, 2 ** 17),
    (["tomo", "--n", "18", "--model", "ising"], 18, 2 ** 17),
    (["quench", "--n", "64", "--model", "xy", "--flip", "1", "2"], 64, None),
    (["lightcone", "--n", "64", "--model", "xy", "--flip", "3", "4"], 64, None),
    (["global-quench", "--n", "64"], 64, None),
    (["tomo", "--n", "40", "--model", "xy", "--flip", "1", "2", "3", "4"], 40, 91390),
])
def test_quench_above_the_state_limit_is_config_error(tmp_path, capsys, argv, n, states):
    """The refusal keeps the library's text behind the settings that set
    the number of states: N, and for a local XY quench also the flips,
    which set C(N, k); N alone past the sites a basis state holds, which
    binds from two XY flips on (one flip runs at any N)."""
    assert cli.main(argv + ["-o", str(tmp_path)]) == 2
    labels = "--n / [trap] n_ions"
    if states is None:
        message = f"N={n} is above the 63 sites an int64 basis state holds"
    else:
        message = f"N={n} reaches {states} basis states, above the limit of 65536 states"
        if "xy" in argv and argv[0] != "global-quench":
            labels += ", --flip / [quench] flip"
    assert capsys.readouterr().err == f"config error: {labels}: {message}\n"
    assert not any(tmp_path.iterdir())


_PHASE_SETTINGS = ("--jbar / [couplings] nn_strength, --alpha / [couplings] alpha, "
                   "--field / [trap] transverse_field, ")
_XY_PHASE_SETTINGS = ("--jbar / [couplings] nn_strength, --alpha / [couplings] alpha, "
                      "--t-start / [run] t_start, --t-end / [run] t_end")


@pytest.mark.parametrize("argv,settings", [
    (["quench", "--n", "7", "--model", "ising", "--jbar", "1e300"],
     _PHASE_SETTINGS + "--t-start / [run] t_start, --t-end / [run] t_end"),
    (["global-quench", "--n", "7", "--field", "1e300"],
     _PHASE_SETTINGS + "--t-start / [run] t_start, --t-end / [run] t_end"),
    (["quench", "--n", "7", "--model", "xy", "--jbar", "1e300"], _XY_PHASE_SETTINGS),
    (["quench", "--n", "101", "--model", "xy", "--jbar", "1e300"], _XY_PHASE_SETTINGS),
    (["lightcone", "--source", "nearest-neighbour", "--jbar", "1e300"],
     "--jbar / [couplings] nn_strength, --t-start / [run] t_start, --t-end / [run] t_end"),
    (["tomo", "--n", "7", "--model", "ising", "--time", "1e7"], _PHASE_SETTINGS + "--time"),
    (["tomo", "--n", "101", "--model", "xy", "--time", "1e7"],
     "--jbar / [couplings] nn_strength, --alpha / [couplings] alpha, --time"),
])
def test_phases_without_digits_are_refused_naming_their_settings(tmp_path, capsys,
                                                                monkeypatch, argv, settings):
    """A bound ||H|| max|t| above ``dynamics.MAX_PHASE`` exits 2 before any
    sector is assembled or propagated, naming the settings that set H and
    the window."""
    def never(*args, **kwargs):
        raise AssertionError("assembled before the phases were checked")
    monkeypatch.setattr(dynamics, "_assemble", never)
    monkeypatch.setattr(magnon, "_single_excitation_amplitudes", never)
    assert cli.main(argv + ["-o", str(tmp_path / "refused")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {settings}: the phases ||H|| max|t| reach "), err
    assert err.endswith(" rad at which their roundoff, 2^-52 of themselves, passes 1e-6 rad\n")
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("command", ["quench", "global-quench"])
def test_a_phase_bound_past_the_largest_double_is_refused_without_a_warning(
        tmp_path, capsys, command):
    """Four ions coupled at 6e307 rad/s: each entry and pair sum is finite,
    their sum over pairs is not.  The bound is infinite and refused."""
    path = tmp_path / "huge.csv"
    path.write_text("# unit = rad/s\n" + "\n".join(
        ",".join("0" if i == j else "6e307" for j in range(4)) for i in range(4)) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--source", "file", "--couplings", str(path),
                         "-o", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --couplings / [couplings] file, "), err
    assert "the phases ||H|| max|t| reach inf rad, above the " in err
    assert not (tmp_path / "out").exists()


def test_the_phase_limit_is_checked_against_the_norm_bound(tmp_path, capsys, monkeypatch):
    """A quench runs at the limit its phase bound reaches, and is refused
    one ulp below it."""
    J = ionchain.power_law_coupling(7, 1.5, 2 * np.pi * 30.0)
    B = 50.0 * np.abs(J.values).max()
    bound = (np.abs(np.triu(J.values, 1)).sum() + 7 * B) * 0.005
    argv = ["quench", "--n", "7", "--model", "ising", "--t-end", "0.005", "--n-points", "3"]
    monkeypatch.setattr(dynamics, "MAX_PHASE", bound)
    assert cli.main(argv + ["-o", str(tmp_path / "run")]) == 0
    monkeypatch.setattr(dynamics, "MAX_PHASE", np.nextafter(bound, 0.0))
    assert cli.main(argv + ["-o", str(tmp_path / "refused")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: --jbar / [couplings] nn_strength, --alpha / [couplings] alpha, "
        "--field / [trap] transverse_field, --t-start / [run] t_start, --t-end / [run] t_end: "
        "the phases ||H|| max|t| reach ")


def test_missing_coupling_file_flag_is_config_error(tmp_path, capsys):
    code, _ = run(["fit", "-o", str(tmp_path)], capsys)
    assert code == 2


def test_untagged_coupling_file_is_config_error(tmp_path, capsys):
    p = tmp_path / "J.csv"
    p.write_text("0.0,1.0\n1.0,0.0\n")
    code, _ = run(["fit", "-o", str(tmp_path), "--couplings", str(p)], capsys)
    assert code == 2


@pytest.mark.parametrize("name,message", [
    ("one.csv", "{path} holds 1 ion, need at least 2"),
    ("missing.csv", "cannot read {path}: No such file or directory"),
    ("", "cannot read {path}: Is a directory"),
])
def test_unusable_coupling_file_is_config_error_naming_it(tmp_path, capsys, name, message):
    (tmp_path / "one.csv").write_text("# unit = Hz\n0.0\n")
    path = tmp_path / name
    assert cli.main(["fit", "-o", str(tmp_path / "out"), "--couplings", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: --couplings / [couplings] file: {message.format(path=path)}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,line", [
    ("0.0,1.0\n1.0,0.0\n", None),
    ("# unit = eV\n0.0,1.0\n1.0,0.0\n", None),
    ("# unit = Hz\n0.0,1.0\n1.0,oops\n", 3),
    ("# unit = Hz\n0,1,2\n1,0\n2,1,0\n", 3),
    ("# unit = Hz\n0,nan\nnan,0\n", 2),
    ("# unit = Hz\n0,1\n1e400,0\n", 3),
    ("# unit = rad/s\n0.0,1.0,2.0\n1.0,0.0,3.0\n", None),
    ("# unit = rad/s\n0.0,1.2\n1.0,0.0\n", None),
    ("# unit = Hz\n0.0\n", None),
    (None, None),
    ("", None),
    (b"# unit = Hz\n0,1\n1,0\xff\n", None),
    ("# unit = Hz\n0,1e308\n1e308,0\n", 2),
    ("# unit = rad/s\n0,1.5e308\n1.5e308,0\n", None),
], ids=["no-unit", "unknown-unit", "unparseable", "ragged", "nan", "1e400", "non-square",
        "asymmetric", "one-ion", "missing", "directory", "not-utf8", "hz-overflow",
        "sum-overflow"])
def test_every_coupling_file_fault_is_refused_naming_the_file(tmp_path, capsys, text, line):
    """``io.load_couplings`` judges the file: each fault exits 2 led by the
    file's setting and naming the path (and the line of a faulty row),
    writes nothing, and raises no numpy warning on the way."""
    path = tmp_path / "J.csv"
    if text == "":
        path.mkdir()
    elif isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["fit", "--couplings", str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --couplings / [couplings] file: "), err
    assert str(path) in err
    if line is not None:
        assert f"{path}:{line}: " in err
    assert not (tmp_path / "out").exists()


def _power_law_file(tmp_path, n, nn_hz=30.0):
    path = tmp_path / f"J{n}.csv"
    mio.save_couplings(path, ionchain.power_law_coupling(n, 1.5, 2 * np.pi * nn_hz), unit="Hz")
    return path


@pytest.mark.parametrize("command,n,nn_hz,message", [
    ("global-quench", 17, 30.0, "--couplings / [couplings] file: N=17 reaches 131072 basis "
     "states, above the limit of 65536 states"),
    ("lightcone", 7, 30.0, "the light cone from site 4 has 2 sites to fit before the excluded "
     "edge site 7, and the front velocity needs at least 3 (--couplings / [couplings] file, "
     "--flip / [quench] flip)"),
    ("dispersion", 2, 30.0,
     "dispersion needs --couplings / [couplings] file >= 4 for its exponent fit, got 2"),
    ("fit", 2, 30.0, "fit needs --couplings / [couplings] file >= 4 for its exponent fit, got 2"),
    ("quench", 7, 1e300, "--couplings / [couplings] file, --t-start / [run] t_start, "
     "--t-end / [run] t_end: the phases ||H|| max|t| reach "),
])
def test_a_chain_set_by_the_coupling_file_is_refused_naming_the_file(tmp_path, capsys, command,
                                                                     n, nn_hz, message):
    """Where the file sets N or the couplings, a refusal about them names
    ``--couplings / [couplings] file``, never the ``--n`` the run did not give."""
    argv = [command, "--source", "file", "--couplings", str(_power_law_file(tmp_path, n, nn_hz))]
    assert cli.main(argv + ["-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}"), err
    assert "--n / [trap] n_ions" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed,code", [(-1, 2), (0, 0), (2 ** 64 - 1, 0), (2 ** 64, 2)])
def test_seed_outside_the_philox_key_range_is_config_error(tmp_path, capsys, seed, code):
    assert cli.main(["tomo", "-o", str(tmp_path), "--seed", str(seed), "--shots", "10",
                     "--resamples", "100"]) == code
    if code:
        assert capsys.readouterr().err == (
            f"config error: --seed / [run] seed must be in [0, 2^64), got {seed}\n")
        assert not any(tmp_path.iterdir())


_OVERFLOW = ": coupling matrix has non-finite entries"


@pytest.mark.parametrize("argv,ini,flag", [
    (["quench", "--t-end", "inf"], "", "--t-end / [run] t_end"),
    (["quench", "--t-start", "nan"], "", "--t-start / [run] t_start"),
    (["quench"], "[run]\nt_end = inf\n", "--t-end / [run] t_end"),
    (["quench", "--model", "ising", "--field", "nan"], "", "--field / [trap] transverse_field"),
    (["quench", "--model", "ising", "--field=-inf"], "", "--field / [trap] transverse_field"),
    (["quench", "--model", "ising"], "[trap]\ntransverse_field = inf\n",
     "--field / [trap] transverse_field"),
    (["tomo", "--time", "inf"], "", "--time"),
    (["lightcone", "--t-end", "inf"], "", "--t-end / [run] t_end"),
    (["couplings", "--gap", "inf"], "", "--gap / [trap] detuning_gap"),
    (["modes"], "[trap]\ndetuning_gap = nan\n", "--gap / [trap] detuning_gap"),
    (["couplings", "--detuning", "nan"], "", "--detuning / [trap] detuning"),
    (["quench", "--alpha", "nan"], "", "--alpha / [couplings] alpha"),
    (["quench"], "[couplings]\nalpha = -inf\n", "--alpha / [couplings] alpha"),
    (["quench", "--jbar", "inf"], "", "--jbar / [couplings] nn_strength"),
    (["couplings", "--source", "nearest-neighbour", "--jbar", "nan"], "",
     "--jbar / [couplings] nn_strength"),
    (["lightcone"], "[couplings]\nsource = power_law\nnn_strength = inf\n",
     "--jbar / [couplings] nn_strength"),
    *((["couplings"], f"[{s.ini[0]}]\n{s.ini[1]} = {value}\n", s.label)
      for s in cli.SETTINGS if not s.flags for value in ("nan", "inf")),
    *((["quench", *extra], "", "--jbar / [couplings] nn_strength, --alpha / [couplings] alpha"
       + _OVERFLOW) for extra in (["--alpha=-400"], ["--alpha=-1e308"], ["--jbar", "1e308"])),
    (["couplings", "--source", "nearest-neighbour", "--jbar", "1e308"], "",
     "--jbar / [couplings] nn_strength" + _OVERFLOW),
])
def test_non_finite_setting_is_config_error_naming_it(tmp_path, capsys, argv, ini, flag):
    """A non-finite value is refused naming its setting, and finite scales
    whose couplings overflow a double are refused naming those scales."""
    out = tmp_path / "out"
    if ini:
        (tmp_path / "run.ini").write_text(ini)
        argv = argv + ["-c", str(tmp_path / "run.ini")]
    assert cli.main(argv + ["--n", "7", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    if flag.endswith(_OVERFLOW):
        assert err == f"config error: {flag}\n"
    else:
        assert err.startswith(f"config error: {flag} must be finite, got "), err
    assert not out.exists()


def test_coupling_parameters_are_checked_only_for_the_sources_that_read_them(
        tmp_path, capsys):
    assert cli.main(["couplings", "--n", "7", "--alpha", "nan", "--jbar", "inf",
                     "-o", str(tmp_path / "trap")]) == 0
    assert cli.main(["couplings", "--n", "7", "--source", "nearest-neighbour",
                     "--alpha", "nan", "-o", str(tmp_path / "nn")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,message", [
    (["lightcone", "--n", "31", "--t-start", "0.04"],
     "--t-end / [run] t_end must be > --t-start / [run] t_start, got 0.04 <= 0.04"),
    (["quench", "--n", "64", "--t-end", "0"],
     "--t-end / [run] t_end must be > --t-start / [run] t_start, got 0.0 <= 0.0"),
    (["global-quench", "--t-start", "0.01"],
     "--t-end / [run] t_end must be > --t-start / [run] t_start, got 0.005 <= 0.01"),
    (["tomo", "--n", "201", "--sites", "100", "202"], "--sites: site 202 outside 1..201"),
    (["fit", "--source", "power-law", "--n", "2"],
     "fit needs --n / [trap] n_ions >= 4 for its exponent fit, got 2"),
    (["dispersion", "--source", "power-law", "--n", "3"],
     "dispersion needs --n / [trap] n_ions >= 4 for its exponent fit, got 3"),
    (["lightcone", "--n", "7"],
     "the light cone from site 4 has 2 sites to fit before the excluded edge site 7, and "
     "the front velocity needs at least 3 (--n / [trap] n_ions, --flip / [quench] flip)"),
    (["lightcone", "--flip", "15"],
     "the light cone from site 15 has 0 sites to fit before the excluded edge site 15, and "
     "the front velocity needs at least 3 (--n / [trap] n_ions, --flip / [quench] flip)"),
    (["quench", "--model", "ising", "--field", "-1"],
     "--field / [trap] transverse_field must be >= 0, got -1.0"),
    (["quench", "--flip", "3", "3"], "--flip / [quench] flip must be distinct sites, got 3 3"),
    (["tomo", "--sites", "4", "4"], "--sites must be distinct sites, got 4 4"),
    (["lightcone", "--n", "201", "--n-points", "4"],
     f"lightcone needs --n-points / [run] n_points >= {analysis.MIN_ARRIVAL_SAMPLES} for its "
     f"arrival fits, got 4"),
    (["tomo", "--shots", "1048576"], "--shots / [run] shots must be in [1, 2^20), got 1048576"),
])
def test_run_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, message):
    _refused_up_front(tmp_path, capsys, monkeypatch, argv, message)


def _refused_up_front(outdir, capsys, monkeypatch, argv, message):
    """``argv`` exits 2 with ``message`` before it builds couplings or
    propagates, and writes nothing to the empty ``outdir``."""
    def never(*args, **kwargs):
        raise AssertionError("the run was not refused up front")
    for module, name in ((magnon, "_single_excitation_amplitudes"),
                         (magnon, "diagonalize_magnons"),
                         (dynamics, "evolve"), (cli, "_build_couplings")):
        monkeypatch.setattr(module, name, never)
    assert cli.main(argv + ["-o", str(outdir)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not any(outdir.iterdir())


_NO_FLIP = "a local quench needs at least one --flip / [quench] flip site, got none"


@pytest.mark.parametrize("argv,message", [
    (["quench", "--model", "ising"], _NO_FLIP),
    (["quench", "--model", "xy"], _NO_FLIP),
    (["tomo", "--model", "ising"], _NO_FLIP),
    (["lightcone", "--model", "xy"], _NO_FLIP),
])
def test_an_empty_ini_flip_is_refused_naming_it(tmp_path, capsys, monkeypatch, argv, message):
    ini = tmp_path / "run.ini"
    ini.write_text("[quench]\nflip =\n")
    (tmp_path / "out").mkdir()
    _refused_up_front(tmp_path / "out", capsys, monkeypatch, argv + ["-c", str(ini)], message)


@pytest.mark.parametrize("command", ["couplings", "dispersion", "modes"])
@pytest.mark.parametrize("detuning", [[], ["--detuning", "2.7e6"]], ids=["gap", "detuning"])
def test_a_trap_run_solves_for_the_ion_positions_once(tmp_path, capsys, monkeypatch,
                                                      command, detuning):
    """The mode spectrum that places the detuning is the one the run uses."""
    calls = []
    solve = ionchain.equilibrium_positions
    monkeypatch.setattr(ionchain, "equilibrium_positions",
                        lambda n: calls.append(n) or solve(n))
    assert run([command, "--n", "9", *detuning, "-o", str(tmp_path)], capsys)[0] == 0
    assert calls == [9]


def test_power_law_with_negative_alpha_runs_without_warnings(tmp_path, capsys):
    """Also an exponent so large that |i - j|^alpha overflows: those
    couplings are 0, and the matrix keeps only its nearest neighbours."""
    for alpha, name in (("-1", "negative"), ("1e308", "huge")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["couplings", "--source", "power-law", "--n", "7", "--alpha",
                             alpha, "-o", str(tmp_path / name)])
        assert code == 0
        assert capsys.readouterr().err == ""
    J = mio.load_couplings(tmp_path / "huge" / "couplings.csv").values
    np.testing.assert_array_equal(J, ionchain.nearest_neighbour_coupling(7, J[0, 1]).values)


@pytest.mark.parametrize("command", [["lightcone"], ["quench", "--model", "xy"]])
def test_a_trap_single_excitation_run_does_not_label_modes(tmp_path, capsys, command):
    """Propagation sums over the modes without naming them, so a trap chain
    whose node counts repeat runs without a warning; ``dispersion``, which
    writes the labels, still warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(command + ["--source", "trap", "--n", "25",
                                   "-o", str(tmp_path / "run")]) == 0
    with pytest.warns(RuntimeWarning, match="ambiguous node labelling"):
        assert cli.main(["dispersion", "--n", "25", "-o", str(tmp_path / "dispersion")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv,ini", [
    (["quench", "--model", "xy", "--field", "-100"], ""),
    (["quench", "--model", "ising", "--source", "trap", "--field", "-100"], ""),
    (["quench", "--model", "ising"], "[trap]\ntransverse_field = -100\n"),
    (["quench", "--model", "ising"],
     "[trap]\ntransverse_field = -100\n[couplings]\nsource = trap\n"),
    (["tomo", "--model", "ising", "--field", "-100"], ""),
], ids=["flag-xy", "flag-trap", "ini", "ini-trap", "tomo"])
def test_negative_field_is_refused_on_every_path(tmp_path, capsys, argv, ini):
    """One check of the field, whichever model reads it, whichever source the
    couplings come from and wherever the field is set (the Ising flag case is
    in the table of test_run_is_refused_before_any_work)."""
    out = tmp_path / "out"
    if ini:
        (tmp_path / "run.ini").write_text(ini)
        argv = argv + ["-c", str(tmp_path / "run.ini")]
    assert cli.main(argv + ["--n", "7", "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: --field / [trap] transverse_field must be >= 0, got -100.0\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["tomo", "--correlations"],
    ["tomo", "--t-start", "0.1"],
    ["tomo", "--t-end", "0.5"],
    ["tomo", "--t-end", "-1"],
    ["tomo", "--n-points", "1"],
    ["global-quench", "--flip", "3"],
    ["global-quench", "--correlations"],
    ["modes", "--seed", "3", "--alpha", "9", "--format", "ndjson"],
    ["modes", "--source", "power-law"],
    ["modes", "--jbar", "10"],
    ["modes", "--couplings", "J.csv"],
    *([command, "--seed", "1"] for command in cli.COMMANDS if command != "tomo"),
    *([command, "--format", "csv"] for command in ("couplings", "dispersion", "tomo", "fit")),
], ids=" ".join)
def test_flags_a_subcommand_does_not_read_are_refused(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--n", "7", "-o", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_each_quench_subcommand_offers_the_flags_it_reads():
    parser = cli.build_parser()
    tomo = parser.parse_args(["tomo", "--flip", "3", "--model", "ising", "--field", "auto"])
    assert (tomo.flip, tomo.model, tomo.field_hz) == ([3], "ising", None)
    window = ["--t-start", "0.001", "--t-end", "0.002", "--n-points", "3"]
    glob = parser.parse_args(["global-quench", "--model", "xy", "--field", "5"] + window)
    assert (glob.model, glob.field_hz, glob.t_start, glob.t_end, glob.n_points) == (
        "xy", 5.0, 0.001, 0.002, 3)
    for command in ("quench", "lightcone"):
        args = parser.parse_args([command, "--flip", "2", "--correlations"] + window)
        assert (args.flip, args.correlations, args.n_points) == ([2], True, 3)


# ---------------------------------------------------------------------------
# the settings table: each subcommand reads, checks and hashes its own settings


#: The trap and beam parameters, read by every subcommand for the trap source.
_TRAP = {"axial_freq", "transverse_freq_x", "transverse_freq_y", "ion_mass",
         "laser_wavelength", "peak_rabi", "waist_along_chain", "center_offset"}

#: The settings each subcommand reads, written out here rather than taken
#: from the table (each reads ``_TRAP`` too).
_READS = {
    "modes": {"n_ions", "outdir", "gap", "detuning"},
    "couplings": {"n_ions", "outdir", "gap", "detuning", "source", "alpha", "nn_strength",
                  "coupling_file", "unit"},
    "dispersion": {"n_ions", "outdir", "gap", "detuning", "source", "alpha", "nn_strength",
                   "coupling_file"},
    "quench": {"n_ions", "outdir", "gap", "detuning", "source", "alpha", "nn_strength",
               "coupling_file", "flip", "model", "field_hz", "t_start", "t_end", "n_points",
               "correlations", "format"},
    "global-quench": {"n_ions", "outdir", "gap", "detuning", "source", "alpha",
                      "nn_strength", "coupling_file", "model", "field_hz", "t_start",
                      "t_end", "n_points", "format"},
    "tomo": {"n_ions", "outdir", "gap", "detuning", "source", "alpha", "nn_strength",
             "coupling_file", "flip", "model", "field_hz", "sites", "sample_time", "shots",
             "resamples", "seed"},
    "lightcone": {"n_ions", "outdir", "gap", "detuning", "source", "alpha", "nn_strength",
                  "coupling_file", "flip", "model", "field_hz", "t_start", "t_end",
                  "n_points", "correlations", "format"},
    "fit": {"n_ions", "outdir", "gap", "detuning", "source", "alpha", "nn_strength",
            "coupling_file"},
}
_READS = {command: names | _TRAP for command, names in _READS.items()}

#: A small fast run of each subcommand.
_RUNS = {
    "modes": ["modes", "--n", "5"],
    "couplings": ["couplings", "--n", "5"],
    "dispersion": ["dispersion", "--n", "5"],
    "quench": ["quench", "--n", "5", "--t-end", "0.002", "--n-points", "3"],
    "global-quench": ["global-quench", "--n", "4", "--n-points", "3"],
    "tomo": ["tomo", "--n", "5", "--sites", "2", "4", "--shots", "50", "--resamples", "100"],
    "lightcone": ["lightcone", "--source", "power-law"],
    "fit": ["fit", "--source", "power-law", "--n", "5"],
}

#: An INI value for each key that some subcommand does not read, each one
#: refused or changing the run where the key is read.
_UNREAD_VALUES = {
    ("couplings", "source"): "bogus", ("couplings", "alpha"): "nan",
    ("couplings", "nn_strength"): "inf", ("couplings", "file"): "missing.csv",
    ("quench", "flip"): "3", ("quench", "model"): "bogus",
    ("trap", "transverse_field"): "-1", ("run", "t_start"): "-1", ("run", "t_end"): "-1",
    ("run", "n_points"): "1", ("output", "format"): "bogus", ("run", "seed"): "-1",
    ("run", "shots"): "0", ("run", "resamples"): "1",
}


def _option_strings(parser) -> set[str]:
    return {o for action in parser._actions for o in action.option_strings}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_each_subcommand_offers_exactly_the_flags_of_its_settings(command):
    groups = cli.COMMANDS[command][1]
    settings = [s for s in cli.SETTINGS if s.group in groups]
    assert {s.name for s in settings} == _READS[command]
    sub = cli.build_parser()._subparsers._group_actions[0].choices[command]
    assert _option_strings(sub) == ({"-h", "--help", "--config", "-c"}
                                    | {f for s in settings for f in s.flags})


def test_a_key_no_setting_declares_is_refused(tmp_path, capsys):
    """The INI schema holds the keys of the table and no other: any other
    key of one of its sections is refused, naming the key."""
    assert ({(section, key) for section, keys in cli.INI_SCHEMA.items() for key in keys}
            == {s.ini for s in cli.SETTINGS if s.ini})
    ini = tmp_path / "run.ini"
    for section in cli.INI_SCHEMA:
        ini.write_text(f"[{section}]\nvoltage = 7\n")
        assert cli.main(["couplings", "-c", str(ini), "-o", str(tmp_path / "out")]) == 2
        assert f"unknown key 'voltage' in [{section}]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_the_readme_ini_example_is_the_default_trap(tmp_path, capsys):
    """README's INI example sets the default trap and beam: ``couplings`` on
    it writes the matrix and config hash of ``couplings --n 7``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (tmp_path / "run.ini").write_text(re.search(r"```ini\n(.*?)```", readme, re.S)[1])
    assert cli.main(["couplings", "--n", "7", "-o", str(tmp_path / "flags")]) == 0
    assert cli.main(["couplings", "-c", str(tmp_path / "run.ini"),
                     "-o", str(tmp_path / "ini")]) == 0
    text = (tmp_path / "flags" / "couplings.csv").read_text()
    assert "# config_hash = f6176e9703e2\n" in text
    assert (tmp_path / "ini" / "couplings.csv").read_text() == text


def _artifacts(outdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_ini_keys_a_subcommand_does_not_read_change_nothing(tmp_path, capsys, command):
    """Every key of a setting the subcommand does not read, set to a value
    that is refused (or changes the run) where the key is read, changes
    neither the artifacts nor the config hash."""
    sections = {}
    for s in cli.SETTINGS:
        if s.ini and s.name not in _READS[command]:
            sections.setdefault(s.ini[0], []).append(f"{s.ini[1]} = {_UNREAD_VALUES[s.ini]}\n")
    assert sections
    ini = tmp_path / "unread.ini"
    ini.write_text("".join(f"[{section}]\n" + "".join(lines)
                           for section, lines in sections.items()))
    argv = _RUNS[command]
    assert cli.main(argv + ["-o", str(tmp_path / "plain")]) == 0
    assert cli.main(argv + ["-o", str(tmp_path / "ini"), "-c", str(ini)]) == 0
    plain = _artifacts(tmp_path / "plain")
    assert plain and _artifacts(tmp_path / "ini") == plain
    parse = cli.build_parser().parse_args
    assert (cli.resolve(parse(argv + ["-c", str(ini)])).hash
            == cli.resolve(parse(argv)).hash)


def test_the_unread_values_are_refused_where_read(tmp_path, capsys):
    """The values of ``_UNREAD_VALUES`` do count where a subcommand reads
    them: each is refused, or (a flip) moves the config hash."""
    parse = cli.build_parser().parse_args
    for (section, key), value in _UNREAD_VALUES.items():
        setting = next(s for s in cli.SETTINGS if s.ini == (section, key))
        command = "tomo" if setting.group == "tomo" else "quench"
        ini = tmp_path / f"{key}.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n"
                       + ("source = file\n" if key == "file" else ""))
        if key == "flip":
            assert (cli.resolve(parse([command, "-c", str(ini)])).hash
                    != cli.resolve(parse([command])).hash)
            continue
        assert cli.main([command, "-c", str(ini), "-o", str(tmp_path / "out")]) == 2, key
        assert setting.label in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


#: A value other than the default for each setting that has a key:
#: (subcommand, flag arguments or None where it has no flag, INI text).
_FLAG_AND_KEY = {
    "n_ions": ("quench", ["9"], "9"),
    "outdir": ("quench", ["runs/x"], "runs/x"),
    "source": ("quench", ["nearest-neighbour"], "nearest_neighbour"),
    "alpha": ("quench", ["1.3"], "1.3"),
    "nn_strength": ("quench", ["25"], "25"),
    "coupling_file": ("fit", None, None),
    "gap": ("couplings", ["20000"], "20e3"),
    "detuning": ("couplings", ["2700000"], "2.7e6"),
    "flip": ("quench", ["2", "4"], "2, 4"),
    "model": ("global-quench", ["xy"], "xy"),
    "field_hz": ("quench", ["12.5"], "12.5"),
    "t_start": ("quench", ["0.001"], "0.001"),
    "t_end": ("quench", ["0.003"], "0.003"),
    "n_points": ("quench", ["5"], "5"),
    "format": ("quench", ["ndjson"], "ndjson"),
    "shots": ("tomo", ["20"], "20"),
    "resamples": ("tomo", ["150"], "150"),
    "seed": ("tomo", ["5"], "5"),
    "axial_freq": ("couplings", None, "0.2e6"),
    "transverse_freq_x": ("couplings", None, "2.7e6"),
    "transverse_freq_y": ("couplings", None, "2.6e6"),
    "ion_mass": ("couplings", None, "1.5e-25"),
    "laser_wavelength": ("couplings", None, "400e-9"),
    "peak_rabi": ("couplings", None, "50e3"),
    "waist_along_chain": ("couplings", None, "100e-6"),
    "center_offset": ("couplings", None, "5e-6"),
}


@pytest.mark.parametrize("setting", [s for s in cli.SETTINGS if s.ini],
                         ids=lambda s: s.name)
def test_flag_and_key_resolve_to_the_same_run_config(tmp_path, coupling_file_25, setting):
    command, flag_args, text = _FLAG_AND_KEY[setting.name]
    if setting.name == "coupling_file":
        flag_args, text = [str(coupling_file_25)], str(coupling_file_25)
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{setting.ini[0]}]\n{setting.ini[1]} = {text}\n")
    parse = cli.build_parser().parse_args
    by_key = cli.resolve(parse([command, "-c", str(ini)]))
    if setting.flags:
        by_flag = cli.resolve(parse([command, setting.flags[0], *flag_args]))
        assert by_flag == by_key and by_flag.hash == by_key.hash
    else:                                       # a trap or beam key moves the hash
        assert by_key.hash != cli.resolve(parse([command])).hash
    if setting.name != "coupling_file":         # the file source needs its file
        assert by_key != cli.resolve(parse([command]))
    assert {s.name for s in cli.SETTINGS if s.ini} == _FLAG_AND_KEY.keys()


def test_auto_field_is_one_value_from_flag_or_key(tmp_path, capsys):
    """``--field auto`` and ``[trap] transverse_field = auto`` give the same run
    as no field at all; an explicit ``--field auto`` beats a key's number."""
    ini = tmp_path / "run.ini"
    ini.write_text("[trap]\ntransverse_field = auto\n")
    parse = cli.build_parser().parse_args
    argv = ["quench", "--model", "ising", "--n", "5"]
    runs = [cli.resolve(parse(argv + extra))
            for extra in (["--field", "auto"], ["-c", str(ini)], [])]
    assert runs[0] == runs[1] == runs[2] and runs[0].field_hz is None
    assert len({rc.hash for rc in runs}) == 1
    ini.write_text("[trap]\ntransverse_field = 100\n")
    assert cli.resolve(parse(argv + ["-c", str(ini), "--field", "auto"])) == runs[0]
    ini.write_text("[trap]\ntransverse_field = auto\n")
    assert cli.main(argv + ["-c", str(ini), "--t-end", "0.001", "--n-points", "3",
                            "-o", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("setting", [s for s in cli.SETTINGS
                                     if s.low is not None or (s.choices and s.ini)],
                         ids=lambda s: s.name)
def test_a_value_out_of_range_is_refused_naming_its_setting(tmp_path, capsys, setting):
    """A flag (a key, where there is no flag) below its setting's minimum, or
    a key outside its choices (a flag's choices are argparse's to check)."""
    command = next(c for c, (_, groups) in cli.COMMANDS.items() if setting.group in groups)
    cases = [("bogus" if setting.choices else str(setting.low - 1),
              f"{setting.label} must be " + ("one of " if setting.choices else ""))]
    if not setting.flags and setting.low == 0:      # a trap or beam value its dataclass refuses
        cases.append(("0", f"{setting.label} must be > 0, got 0.0"))
    if setting.name.startswith("transverse_freq"):
        cases.append(("1e5", "[trap] transverse_freq_x and [trap] transverse_freq_y must "
                             "exceed [trap] axial_freq for a stable linear chain, got "))
    for value, message in cases:
        if setting.choices or not setting.flags:
            (tmp_path / "run.ini").write_text(f"[{setting.ini[0]}]\n{setting.ini[1]} = {value}\n")
            argv = [command, "-c", str(tmp_path / "run.ini")]
        else:
            argv = [command, setting.flags[0], value]
        assert cli.main(argv + ["-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()


def test_cli_has_no_hand_written_setting_label():
    """Every ``--flag / [section] key`` in a refusal comes from the table."""
    source = Path(cli.__file__).read_text()
    assert [s.label for s in cli.SETTINGS if s.ini and s.label in source] == []
    assert [label for label in re.findall(r"--[a-z][a-z-]* / \[\w+\] \w+", source)
            if label != "--flag / [section] key"] == []


def test_light_cone_with_too_few_arrival_fits_is_numeric_error(tmp_path, capsys):
    """A window too short for any arrival: every site is skipped, and the
    run fails as a numeric error naming the window, not as a bad argument."""
    argv = ["lightcone", "--n", "15", "--t-end", "1e-12", "-o", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "error (FitError): 0 of 6 sites gave an arrival fit, and the front velocity needs "
        "at least 3; lengthen --t-end / [run] t_end\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("n", [9, 13, 15, 31, 201])
def test_equal_all_to_all_couplings_have_no_front(n, tmp_path, capsys):
    """At alpha = 0 every site is one coupling away from the source, so the
    arrival times differ only by roundoff: the run is a numeric error
    naming the flat arrivals, with no artifacts, not a roundoff slope read
    as a velocity of 1e15 sites/s or as a front moving backwards."""
    argv = ["lightcone", "--source", "power-law", "--alpha", "0", "--n", str(n),
            "-o", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("error (FitError): the arrival times do not change with distance")
    assert not any(tmp_path.iterdir())
    if n == 15:     # a tiny exponent still spreads the arrivals far above the tolerance
        argv[argv.index("0")] = "1e-6"
        assert cli.main(argv) == cli.EXIT_OK
        front = json.loads((tmp_path / "arrivals.ndjson").read_text().splitlines()[-2])
        assert front["fit"] == "FrontFit" and front["velocity"] > 0


def test_unstable_chain_is_numeric_error(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[trap]\ntransverse_freq_x = 650000\n")   # deep in the zig-zag
    code, _ = run(["modes", "-c", str(ini), "-o", str(tmp_path)], capsys)
    assert code == 3


def test_resonant_detuning_is_numeric_error(tmp_path, capsys):
    code, _ = run(["couplings", "-o", str(tmp_path), "--source", "trap",
                   "--detuning", "2655100"], capsys)
    assert code == 3


def test_unreachable_krylov_target_is_numeric_error(tmp_path, capsys, monkeypatch,
                                                    pin_propagator):
    # the Krylov path on a 528-state mirror sector, above the Lanczos order
    # cap, every subspace tested against an error target of 0, so the CLI's
    # target of 1e-9 is never met
    pin_propagator("krylov")
    subspace = dynamics._lanczos_subspace

    def never_converges(*args):
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "STEP_TOL", 0.0)
            return subspace(*args)
    monkeypatch.setattr(dynamics, "_lanczos_subspace", never_converges)
    code = cli.main(["quench", "-o", str(tmp_path), "--source", "power-law", "--n", "11",
                     "--model", "ising", "--field", "auto", "--flip", "3",
                     "--t-start", "1e-4", "--n-points", "3"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERIC == 3
    assert captured.out == "" and not list(tmp_path.iterdir())
    assert captured.err == (
        "error (PropagatorError): Krylov propagation of a 528-state sector stalled at "
        "t = 0 s, short of the output time 0.0001 s: error target 1e-09 not met at "
        f"subspace dimension {dynamics.KRYLOV_ORDERS} after {dynamics.MAX_SPLITS} step "
        "halvings\n")


@pytest.mark.parametrize("argv,builder", [
    (["couplings", "--source", "power-law", "--n", "7"], (ionchain, "power_law_coupling")),
    (["lightcone", "--n", "31"], (magnon, "_single_excitation_amplitudes")),
])
def test_an_allocation_failure_is_numeric_error(tmp_path, capsys, monkeypatch, argv, builder):
    """An array the machine cannot allocate exits 3 with one line and no
    artifact, not with a traceback; the builder raises what numpy raises
    for a 100 000-ion power law, with no real allocation."""
    message = ("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) "
               "and data type float64")

    def refused(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(*builder, refused)
    code = cli.main(argv + ["-o", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERIC == 3
    assert captured.out == "" and not list(tmp_path.iterdir())
    assert captured.err == f"error (MemoryError): {message}\n"


@pytest.mark.parametrize("argv,states", [
    (["quench", "--n", "7"], 7),                        # one XY flip
    (["quench", "--n", "7", "--model", "ising"], 64),   # one parity half
    (["global-quench", "--n", "6"], 64),
    (["quench", "--n", "7", "--correlations"], 7),
    (["lightcone", "--n", "15"], 15),
])
def test_a_window_too_large_to_hold_is_refused_naming_n_points(tmp_path, capsys,
                                                              monkeypatch, argv, states):
    """The (T, dim) complex amplitudes, with the (T, N, N) real correlations
    where they are exported (always by ``global-quench``), are checked
    against the trajectory limit before the times or the trajectory exist;
    the limit is lowered so that nothing large is ever allocated.  At the
    limit itself the run goes."""
    n = int(argv[argv.index("--n") + 1])
    correlated = "--correlations" in argv or argv[0] == "global-quench"
    size = 40 * (16 * states + 8 * n ** 2 * correlated)
    monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_BYTES", size - 1)

    def never(*args, **kwargs):
        raise AssertionError("allocated before the window was checked")
    monkeypatch.setattr(cli.RunConfig, "times", property(never))
    monkeypatch.setattr(dynamics, "evolve", never)
    monkeypatch.setattr(magnon, "_single_excitation_amplitudes", never)
    assert cli.main(argv + ["--n-points", "40", "-o", str(tmp_path / "refused")]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: --n-points / [run] n_points: 40 times on {states} basis states "
        f"take ")
    assert not (tmp_path / "refused").exists()
    monkeypatch.undo()
    monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_BYTES", size)
    assert cli.main(argv + ["--n-points", "40", "-o", str(tmp_path / "run")]) == 0


def test_main_reuses_one_parser_with_fresh_namespaces(monkeypatch):
    """The parser is built once and reused; two calls with different
    subcommands still get independent namespaces, so no option or default
    of one leaks into the other."""
    seen = []
    monkeypatch.setattr(cli, "resolve", lambda args: seen.append(args) or args)
    for command in ("tomo", "couplings"):
        monkeypatch.setitem(cli._HANDLERS, command, lambda rc: cli.EXIT_OK)
    assert cli.main(["tomo", "--shots", "50", "--sites", "2", "4", "--n", "9"]) == 0
    assert cli.main(["couplings", "--unit", "Hz"]) == 0
    assert cli.main(["tomo"]) == 0
    assert cli.build_parser() is cli.build_parser()
    first, second, third = seen
    assert (first.command, first.shots, first.sites, first.n_ions) == ("tomo", 50, [2, 4], 9)
    assert (second.command, second.unit) == ("couplings", "Hz")
    # an absent flag leaves no attribute
    assert vars(second).keys() == {"command", "unit"}
    assert vars(third).keys() == {"command"}


# ---------------------------------------------------------------------------
# cold start: scipy loads only for Krylov sectors


#: Runs each argv list of the JSON in argv[1] through ``cli.main`` and
#: prints, as its last line, each exit code with the scipy modules loaded
#: after that run.
_SCIPY_PROBE = """
import json, sys
from magnonchain import cli
report = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    report.append([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
print(json.dumps(report))
"""


def _in_fresh_interpreter(code: str, *args: str) -> str:
    """Standard output of ``python -c code *args`` importing this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_importing_the_cli_leaves_scipy_unloaded():
    """Starting the command line loads no scipy module: scipy.sparse and
    scipy.linalg wait for a sector the cost rule sends to Krylov."""
    code = ("import sys, magnonchain.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert _in_fresh_interpreter(code).strip() == "[]"


def test_paper_size_commands_leave_scipy_unloaded(tmp_path):
    """Every subcommand at the paper's N = 7 (the light cone at its default
    N = 15) runs without importing scipy; a Krylov quench (the N = 13
    Ising centre flip, one 2080-state sector) then loads scipy.sparse and
    scipy.linalg."""
    runs = [["quench", "--n", "7", "--model", "xy"],
            ["quench", "--n", "7", "--model", "ising"],
            ["global-quench", "--n", "7"],
            ["tomo", "--n", "7"],
            ["lightcone"],
            ["couplings", "--n", "7"],
            ["couplings", "--n", "7", "--source", "power-law"],
            ["dispersion", "--n", "7"],
            ["fit", "--couplings", str(tmp_path / "5" / "couplings.csv")],   # run 5's
            ["modes", "--n", "7"],
            ["quench", "--n", "13", "--model", "ising", "--t-end", "0.0002",
             "--n-points", "3"]]
    argvs = [argv + ["-o", str(tmp_path / str(k))] for k, argv in enumerate(runs)]
    out = _in_fresh_interpreter(_SCIPY_PROBE, json.dumps(argvs))
    report = json.loads(out.splitlines()[-1])
    assert [code for code, _ in report] == [0] * len(runs)
    loaded = {" ".join(argv): modules for argv, (_, modules) in zip(runs[:-1], report)}
    assert loaded == dict.fromkeys(loaded, [])
    assert {"scipy.sparse", "scipy.linalg"} <= set(report[-1][1])


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        cli.main(["warp"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
