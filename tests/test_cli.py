"""CLI contract: precedence, artifacts, exit codes, reproducibility."""

import json

import numpy as np
import pytest

from conftest import reference_csv
from magnonchain import bounds, cli, dynamics, ionchain, magnon
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
    code, _ = run(["quench", "-o", str(tmp_path), "--n", "5", "--flip", "3",
                   "--model", "xy", "--t-end", "0.01", "--n-points", "21"], capsys)
    assert code == 0
    rows = np.array(read_data_rows(tmp_path / "magnetisation.csv"))
    # recompute through the library: identical code path, identical floats
    J = ionchain.power_law_coupling(5, 1.5, 2 * np.pi * 30.0)
    H = dynamics.build_hamiltonian(J, model="xy")
    psi0 = dynamics.prepare_state(
        dynamics.QuenchSpec(kind="local", flipped_sites=(3,)), 5)
    times = np.linspace(0.0, 0.01, 21)
    traj = dynamics.evolve(psi0, H, times)
    mag = np.vstack([dynamics.magnetisation(traj.state(k)) for k in range(21)])
    assert rows.shape == (21 * 5, 3)
    np.testing.assert_array_equal(rows[:, 2], mag.ravel())


def test_quench_single_excitation_model(tmp_path, capsys):
    code, _ = run(["quench", "-o", str(tmp_path), "--n", "9", "--flip", "5",
                   "--model", "single-excitation", "--t-end", "0.02",
                   "--n-points", "11"], capsys)
    assert code == 0
    rows = np.array(read_data_rows(tmp_path / "magnetisation.csv"))
    J = ionchain.power_law_coupling(9, 1.5, 2 * np.pi * 30.0)
    states = magnon.evolve_single_excitation(J, 5, np.linspace(0, 0.02, 11))
    mag = np.vstack([magnon.magnetisation_single(s) for s in states])
    np.testing.assert_array_equal(rows[:, 2], mag.ravel())


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
        spec = dynamics.QuenchSpec(kind="local", flipped_sites=flip)
    else:
        H = dynamics.build_hamiltonian(J, transverse_field=50.0 * np.abs(J.values).max(),
                                       model="ising")
        spec = dynamics.QuenchSpec(kind="global", flipped_sites=())
    times = np.linspace(0.0, 0.004, 9)
    traj = dynamics.evolve(dynamics.prepare_state(spec, n), H, times)
    csvs = _trajectory_csvs(times, dynamics.magnetisation(traj),
                            dynamics.two_point_correlations(traj))
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
    mag = np.vstack([magnon.magnetisation_single(s) for s in states])
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
    mag = np.vstack([magnon.magnetisation_single(s)
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
    argv = ["lightcone", "-o", str(tmp_path), "--source", "power-law", "--n", "31",
            "--alpha", "1.75", "--t-end", "0.02", "--n-points", "201"]
    with pytest.warns(UserWarning) as warned:
        code, _ = run(argv, capsys)
    assert code == 0
    records = [json.loads(l)
               for l in (tmp_path / "arrivals.ndjson").read_text().splitlines()[1:]]
    skipped = [r for r in records if r["fit"] == "ArrivalSkipped"]
    assert len(skipped) > 0
    assert ([f"site {r['site']}: {r['reason']}" for r in skipped]
            == [str(w.message) for w in warned])
    assert all(r["distance"] == r["site"] - 16 for r in skipped)
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
    for argv, site in ((["quench", "--n", "4", "--flip", "9"], 9),
                       (["quench", "--n", "4", "--flip", "2", "0"], 0),
                       (["tomo", "--n", "4", "--sites", "2", "9"], 9)):
        assert cli.main(argv + ["-o", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: site {site} outside 1..4\n"


def test_missing_coupling_file_flag_is_config_error(tmp_path, capsys):
    code, _ = run(["fit", "-o", str(tmp_path)], capsys)
    assert code == 2


def test_untagged_coupling_file_is_config_error(tmp_path, capsys):
    p = tmp_path / "J.csv"
    p.write_text("0.0,1.0\n1.0,0.0\n")
    code, _ = run(["fit", "-o", str(tmp_path), "--couplings", str(p)], capsys)
    assert code == 2


def test_tomo_rejects_single_excitation_model(tmp_path, capsys):
    code, _ = run(["tomo", "-o", str(tmp_path), "--model", "single-excitation"],
                  capsys)
    assert code == 2


def test_unstable_chain_is_numeric_error(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[trap]\ntransverse_freq_x = 650000\n")   # deep in the zig-zag
    code, _ = run(["modes", "-c", str(ini), "-o", str(tmp_path)], capsys)
    assert code == 3


def test_resonant_detuning_is_numeric_error(tmp_path, capsys):
    code, _ = run(["couplings", "-o", str(tmp_path), "--source", "trap",
                   "--detuning", "2655100"], capsys)
    assert code == 3


def test_unreachable_krylov_target_is_numeric_error(tmp_path, capsys, monkeypatch):
    # the Krylov path on a 136-state mirror sector, every subspace tested
    # against an error target of 0, so the CLI's target of 1e-9 is never met
    monkeypatch.setattr(dynamics, "DENSE_LIMIT", 0)
    subspace = dynamics._lanczos_subspace
    monkeypatch.setattr(dynamics, "_lanczos_subspace",
                        lambda matvec, psi, dts, tol, V: subspace(matvec, psi, dts, 0.0, V))
    code = cli.main(["quench", "-o", str(tmp_path), "--source", "power-law", "--n", "9",
                     "--model", "ising", "--field", "auto", "--flip", "3",
                     "--t-start", "1e-4", "--n-points", "3"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERIC == 3
    assert captured.out == "" and not list(tmp_path.iterdir())
    assert captured.err == (
        "error (PropagatorError): Krylov propagation of a 136-state sector stalled at "
        "t = 0 s, short of the output time 0.0001 s: error target 1e-09 not met at "
        "subspace dimension 96 after 40 step halvings\n")


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
    assert (second.command, second.unit, second.n_ions) == ("couplings", "Hz", None)
    assert not hasattr(second, "shots") and not hasattr(second, "sites")
    assert not hasattr(first, "unit") and not hasattr(third, "unit")
    assert (third.shots, third.sites, third.n_ions) == (None, None, None)


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        cli.main(["warp"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
