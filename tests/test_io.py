"""Artifact files: headers, coupling CSV round trips, config parsing."""

import hashlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_csv
from magnonchain import io as mio
from magnonchain import __version__, cli, dynamics, entanglement, ionchain, magnon
from magnonchain.io import ConfigError

J0 = 2 * np.pi * 30.0


# ---------------------------------------------------------------------------
# headers and hashing


def test_config_hash_is_stable_and_order_free():
    a = mio.config_hash({"x": 1, "y": [1, 2.5], "z": "s"})
    b = mio.config_hash({"z": "s", "y": [1, 2.5], "x": 1})
    assert a == b
    assert len(a) == 12
    assert mio.config_hash({"x": 2}) != a


def test_config_hash_of_arrays_equals_hash_of_nested_lists():
    J = np.random.default_rng(1).normal(size=(9, 9))
    assert mio.config_hash({"J": J}) == mio.config_hash({"J": J.tolist()})
    J = np.random.default_rng(1).normal(size=(40, 40))      # above FLOAT_TEXT_MIN
    assert mio.config_hash(J) == mio.config_hash(J.tolist())
    assert mio.config_hash(np.arange(4)) == mio.config_hash([0, 1, 2, 3])
    # frozen: the hash a light-cone run records for its 201-ion couplings
    J201 = ionchain.power_law_coupling(201, 1.2, J0).values
    assert mio.config_hash(J201) == "f2c9c5d9affa"


def _json_hash(obj) -> str:
    """Hash of the ``json.dumps`` text of ``obj``: the reference ``config_hash`` matches."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


#: Finite doubles with distinct repr branches, -0.0 next to 0.0.
FINITE_POOL = np.array([-0.0, 0.0, 1e-17, 1e16, 0.1, 1.0 / 3.0, -2.5e-300, 5e-324,
                        -1e-320, 123456789.125, 1.0, -1.0])


@settings(deadline=None, max_examples=40)
@given(rows=st.integers(0, 7), cols=st.integers(0, 7), data=st.data())
def test_config_hash_of_float_matrix_equals_json_hash(rows, cols, data):
    picks = data.draw(st.lists(st.integers(0, FINITE_POOL.size - 1),
                               min_size=rows * cols, max_size=rows * cols))
    A = FINITE_POOL[np.array(picks, dtype=int)].reshape(rows, cols)
    if data.draw(st.booleans()):
        A = A.astype(np.float32)
    if data.draw(st.booleans()):
        A = A.T                         # a strided view hashes like its copy
    assert mio.config_hash(A) == _json_hash(A.tolist())


def test_config_hash_keeps_signed_zeros_apart():
    A = np.array([[-0.0, 0.0], [0.0, -0.0]])
    assert mio.config_hash(A) == _json_hash([[-0.0, 0.0], [0.0, -0.0]])
    assert mio.config_hash(A) != mio.config_hash(np.abs(A))


def test_config_hash_of_non_finite_matrix_goes_through_json():
    A = np.array([[0.0, np.nan], [np.inf, -np.inf]])
    assert mio.config_hash(A) == _json_hash(A.tolist())


def test_config_hash_accepts_numpy_and_paths(tmp_path):
    h = mio.config_hash({"arr": np.arange(3), "f": np.float64(1.5),
                         "i": np.int64(7), "p": tmp_path})
    assert isinstance(h, str) and len(h) == 12


def test_header_lines_order():
    lines = mio.header_lines({"config_hash": "abc", "seed": 3, "extra": "v"})
    assert lines[0] == f"# magnonchain = {__version__}"
    assert lines[1] == "# config_hash = abc"
    assert lines[2] == "# seed = 3"
    assert lines[3] == "# extra = v"


def test_header_lines_default_to_none():
    lines = mio.header_lines()
    assert lines[1] == "# config_hash = none"
    assert lines[2] == "# seed = none"


# ---------------------------------------------------------------------------
# generic writers


def test_write_columns_cell_formats(tmp_path):
    path = mio.write_columns(tmp_path / "t.csv", ("a", "b", "c"),
                             [[1, 2], ["x", "y"], [0.1, 1.0 / 3.0]])
    lines = path.read_text().splitlines()
    assert "a,b,c" in lines
    data = [l for l in lines if not l.startswith("#") and l != "a,b,c"]
    assert data[0] == "1,x,0.1"
    # repr round-trips doubles exactly
    assert float(data[1].split(",")[2]) == 1.0 / 3.0


def test_write_columns_creates_parents(tmp_path):
    path = mio.write_columns(tmp_path / "deep" / "dir" / "t.csv", ("a",), [[1]])
    assert path.exists()


# Doubles whose repr takes every branch of float formatting.
EDGE_FLOATS = np.array([-0.0, 0.0, 1e-17, 1e16, np.nan, np.inf, -np.inf, 0.1,
                        1.0 / 3.0, -2.5e-300, 5e-324, 123456789.125])


def test_write_columns_edge_cells_match_row_formatter(tmp_path):
    n = EDGE_FLOATS.size
    names = ("f64", "i64", "f32", "py_int", "text", "u8", "flag")
    columns = (EDGE_FLOATS, np.arange(-3, n - 3, dtype=np.int64),
               EDGE_FLOATS.astype(np.float32), list(range(-1, n - 1)),
               [f"s{k}" for k in range(n)], np.arange(n, dtype=np.uint8),
               np.arange(n) % 2 == 0)
    path = mio.write_columns(tmp_path / "c.csv", names, columns, {"seed": 4})
    assert path.read_text() == reference_csv(names, zip(*columns), {"seed": 4})


def test_write_columns_mixed_scalar_cells_match_row_formatter(tmp_path):
    names = ("a", "b", "c", "d", "e", "f")
    rows = [(np.int64(3), np.float32(0.1), 7, "x", -0.0, np.float64(1e16)),
            (np.int32(-2), np.float32(np.nan), -8, "", np.inf, np.float64(1e-17)),
            (True, 2.5, 0, "y z", float("-inf"), np.uint64(2 ** 63))]
    path = mio.write_columns(tmp_path / "t.csv", names, [list(c) for c in zip(*rows)])
    assert path.read_text() == reference_csv(names, rows)


@pytest.mark.parametrize("n_rows", [0, 1, mio._CHUNK_ROWS, mio._CHUNK_ROWS + 1])
def test_writers_across_chunk_boundaries(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    t = rng.normal(size=n_rows) * 10.0 ** rng.integers(-20, 20, size=n_rows)
    site = rng.integers(-5, 1000, size=n_rows)
    expected = reference_csv(("t", "site"), zip(t, site), {"seed": 2})
    path = mio.write_columns(tmp_path / "c.csv", ("t", "site"), (t, site), {"seed": 2})
    assert path.read_text() == expected
    path = mio.write_columns(tmp_path / "r.csv", ("t", "site"),
                             [t.tolist(), site.tolist()], {"seed": 2})
    assert path.read_text() == expected


#: Values each numeric column draws from, so cells repeat within and across
#: chunks; the f64 pool holds NaNs with four different bit patterns.
POOLS = {
    "f64": np.concatenate([
        np.array([-0.0, 0.0, np.inf, -np.inf, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                  1e16, 1e-17, 0.1, 1.0 / 3.0]),
        np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                  0x7FF0000000000001], dtype=np.uint64).view(np.float64)]),
    "f32": np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-45, -1.2e-38, 0.1, 3.4e38],
                    dtype=np.float32),
    "i64": np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 1, 7],
                    dtype=np.int64),
    "u64": np.array([0, 1, 2 ** 63, 2 ** 63 + 5, 2 ** 64 - 1], dtype=np.uint64),
    "flag": np.array([True, False]),
}


@settings(deadline=None, max_examples=25)
@given(n_rows=st.sampled_from([0, 1, 5, mio._CHUNK_ROWS - 1, mio._CHUNK_ROWS,
                               mio._CHUNK_ROWS + 1, 2 * mio._CHUNK_ROWS + 3]),
       data=st.data())
def test_write_columns_matches_row_formatter_on_repeated_values(tmp_path_factory, n_rows,
                                                               data):
    columns = []
    for name, pool in POOLS.items():
        pattern = data.draw(st.lists(st.integers(0, pool.size - 1), min_size=1,
                                     max_size=2 * pool.size), label=name)
        columns.append(pool[np.resize(np.array(pattern, dtype=int), n_rows)])
    path = mio.write_columns(tmp_path_factory.mktemp("pool") / "p.csv", tuple(POOLS),
                             columns, {"seed": 1})
    assert path.read_text() == reference_csv(tuple(POOLS), zip(*columns), {"seed": 1})


def test_long_format_time_column_matches_row_formatter_across_chunks(tmp_path):
    rng = np.random.default_rng(9)
    times = [0.0, -0.0, 1e-17, 5e-324, 1 / 3, 1e16, np.float32(0.1)] + list(
        rng.uniform(0.0, 2e-3, size=794))
    mag = rng.normal(size=(len(times), 7))
    text = mio.save_magnetisation(tmp_path / "m.csv", times, mag).read_text()
    rows = ((t, s + 1, mag[it, s]) for it, t in enumerate(times) for s in range(7))
    assert text == reference_csv(("t_s", "site", "sz"), rows)
    corr = rng.normal(size=(len(times), 4, 4))
    text = mio.save_correlations(tmp_path / "c.csv", times, corr).read_text()
    rows = ((t, i + 1, j + 1, corr[it, i, j]) for it, t in enumerate(times)
            for i in range(4) for j in range(i + 1, 4))
    assert text == reference_csv(("t_s", "i", "j", "Cij"), rows)


def test_long_format_labels_are_formatted_once_per_file(tmp_path, monkeypatch):
    """The repeated times and tiled sites of a 201-ion light cone (801 times,
    one repeated, and -0.0) and the times and pair labels of an 11-ion
    correlation table match the row formatter across chunk boundaries; the
    light cone's 800 distinct times, above ``FLOAT_TEXT_MIN``, pass the
    float formatter in one call for the whole file."""
    from magnonchain import _floattext

    render, rendered = _floattext.render, []

    def recording(values):
        rendered.append(np.array(values))
        return render(values)

    monkeypatch.setattr(_floattext, "render", recording)
    rng = np.random.default_rng(24)
    times = np.linspace(0.0, 0.04, 801)
    times[0], times[400] = -0.0, times[399]
    assert mio.FLOAT_TEXT_MIN < np.unique(times.view(np.int64)).size < mio._CHUNK_ROWS
    mag = rng.normal(size=(801, 201))
    text = mio.save_magnetisation(tmp_path / "m.csv", times, mag, {"seed": 5}).read_text()
    rows = ((t, s + 1, mag[it, s]) for it, t in enumerate(times) for s in range(201))
    assert text == reference_csv(("t_s", "site", "sz"), rows, {"seed": 5})
    distinct = np.unique(times.view(np.int64))
    assert sum(np.array_equal(np.sort(v.view(np.int64)), distinct) for v in rendered) == 1

    times = times[:201].copy()
    times[101] = times[100]
    corr = rng.normal(size=(201, 11, 11))
    text = mio.save_correlations(tmp_path / "c.csv", times, corr).read_text()
    assert len(text.splitlines()) > 2 * mio._CHUNK_ROWS
    rows = ((t, i + 1, j + 1, corr[it, i, j]) for it, t in enumerate(times)
            for i in range(11) for j in range(i + 1, 11))
    assert text == reference_csv(("t_s", "i", "j", "Cij"), rows)


def test_a_column_above_the_crossover_matches_row_formatter(tmp_path):
    """Enough distinct floats for the numpy formatter, with every case it
    hands back to ``repr`` and the edges of its layouts, beside a float32
    column and integers, across a chunk boundary."""
    rng = np.random.default_rng(11)
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                     0x7FF0000000000001], dtype=np.uint64).view(np.float64)
    powers = np.ldexp(1.0, np.arange(-1074, 1024, 7))          # irregular spacing below
    edges = np.array([1e-4, 1e16, 5e-324, -5e-324, 2.2250738585072014e-308,
                      np.finfo(float).max, -np.finfo(float).max, 0.0, -0.0, np.inf, -np.inf])
    values = np.concatenate([nans, powers, -powers, edges, np.nextafter(edges[:2], 0.0),
                             np.nextafter(edges[:2], np.inf), rng.normal(size=400),
                             rng.uniform(-1.0, 1.0, size=400) * 1e-3])
    n_rows = mio._CHUNK_ROWS + 500
    assert np.unique(values.view(np.int64)).size > 2 * mio.FLOAT_TEXT_MIN
    with np.errstate(over="ignore", invalid="ignore"):         # float32 overflows to inf
        f32 = np.resize(values[::-1], n_rows).astype(np.float32)
    columns = (np.resize(values, n_rows), f32, np.arange(n_rows) - 7)
    names = ("f64", "f32", "i")
    path = mio.write_columns(tmp_path / "big.csv", names, columns, {"seed": 6})
    assert path.read_text() == reference_csv(names, zip(*columns), {"seed": 6})


def test_a_non_ascii_header_is_written_as_text(tmp_path):
    """The header goes through the text file, in its encoding, before the
    rows written as bytes."""
    meta = {"seed": 2, "note": "σ_z → ±1 in µs"}
    values = np.random.default_rng(2).normal(size=3 * mio.FLOAT_TEXT_MIN)
    path = mio.write_columns(tmp_path / "u.csv", ("x",), (values,), meta)
    expected = tmp_path / "expected.csv"
    expected.write_text(reference_csv(("x",), zip(values), meta))
    assert path.read_bytes() == expected.read_bytes()


def test_write_columns_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="length"):
        mio.write_columns(tmp_path / "c.csv", ("a", "b"), (np.zeros(3), np.zeros(4)))


def test_observable_exports_match_row_formatter(tmp_path):
    rng = np.random.default_rng(8)
    times = np.linspace(0.0, 0.01, 7)
    mag = rng.normal(size=(7, 5))
    corr = rng.normal(size=(7, 5, 5))
    meta = {"seed": 3, "command": "test"}
    text = mio.save_magnetisation(tmp_path / "m.csv", times, mag, meta).read_text()
    rows = ((t, s + 1, mag[it, s]) for it, t in enumerate(times) for s in range(5))
    assert text == reference_csv(("t_s", "site", "sz"), rows, meta)
    text = mio.save_correlations(tmp_path / "c.csv", times, corr, meta).read_text()
    rows = ((t, i + 1, j + 1, corr[it, i, j]) for it, t in enumerate(times)
            for i in range(5) for j in range(i + 1, 5))
    assert text == reference_csv(("t_s", "i", "j", "Cij"), rows, meta)
    distances, cone = np.arange(1, 6), rng.uniform(size=5)
    text = mio.save_cone(tmp_path / "cone.csv", distances, cone, meta).read_text()
    assert text == reference_csv(("d", "t_cone_s"), zip(distances.astype(float), cone), meta)

    spectrum = magnon.diagonalize_magnons(ionchain.power_law_coupling(6, 1.2, J0))
    text = mio.save_dispersion(tmp_path / "d.csv", spectrum, meta).read_text()
    rows = [(n + 1, spectrum.pseudo_momenta[n], spectrum.energies[n],
             int(spectrum.node_counts[n])) for n in range(6)]
    assert text == reference_csv(("n", "k_n", "omega_k", "node_count"), rows, meta)

    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = entanglement.DensityMatrix(matrix=np.outer(psi, psi.conj()), subsystem=(2, 5))
    text = mio.save_density_matrix(tmp_path / "rho.csv", rho, meta).read_text()
    rows = [(i, j, rho.matrix[i, j].real, rho.matrix[i, j].imag)
            for i in range(4) for j in range(4)]
    rho_meta = dict(meta, subsystem="2,5", basis="|dd>,|du>,|ud>,|uu> (lower site first)")
    assert text == reference_csv(("row", "col", "re", "im"), rows, rho_meta)


def test_save_couplings_matches_row_formatter(tmp_path):
    J = _random_J(n=7, seed=5)
    text = mio.save_couplings(tmp_path / "J.csv", J, {"seed": 1}, unit="Hz").read_text()
    lines = mio.header_lines({"seed": 1, "provenance": J.meta}) + ["# unit = Hz"]
    lines += [",".join(repr(float(x)) for x in row) for row in J.values / (2 * math.pi)]
    assert text == "\n".join(lines) + "\n"


def _jsonify(obj):
    """A plain copy of ``obj`` for ``json``: the walker the writers used
    before ``json`` wrote numpy values itself, kept as the oracle."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    return obj


#: Every kind of value a record or a configuration carries.
NUMPY_RECORD = {
    "i64": np.int64(-7), "i32": np.int32(3), "f32": np.float32(0.1), "f64": np.float64(1 / 3),
    "f64_signed_zero": np.float64(-0.0), "scalar_array": np.array(2.5),
    "int_array": np.arange(3), "matrix": np.array([[0.1, -0.0], [np.nan, np.inf]]),
    "f32_array": np.array([0.1, 1e-40], dtype=np.float32), "path": Path("a") / "b.csv",
    "tuple": (1, np.float64(2.0), (np.int64(3), "x")),
    "nested": {"z": [np.float64(np.nan), -np.inf, np.float64(np.inf)],
               "a": {"deep": (np.int64(1), Path("/tmp"))}},
    "plain": [None, True, 1, 1.5, "text"],
}


def test_json_writes_numpy_values_as_their_plain_copy(tmp_path):
    """``config_hash`` and ``write_ndjson`` write the bytes json wrote of the
    record's plain copy, numpy scalars, arrays, paths and non-finite floats
    included."""
    blob = json.dumps(_jsonify(NUMPY_RECORD), sort_keys=True, separators=(",", ":"))
    assert mio.config_hash(NUMPY_RECORD) == hashlib.sha256(blob.encode()).hexdigest()[:12]
    meta = {"seed": np.int64(5), "f": np.float32(0.25), "where": tmp_path}
    path = mio.write_ndjson(tmp_path / "r.ndjson", [NUMPY_RECORD, {"k": np.arange(2)}], meta)
    header = {"header": _jsonify({"magnonchain": __version__, **meta})}
    expected = [json.dumps(header, sort_keys=True)] + [
        json.dumps(_jsonify(r), sort_keys=True) for r in (NUMPY_RECORD, {"k": np.arange(2)})]
    assert path.read_text() == "\n".join(expected) + "\n"
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        mio.config_hash({"x": object()})


def test_config_hash_of_each_default_run_is_frozen(tmp_path, monkeypatch):
    """The provenance hash of each subcommand's run without flags (``fit``
    with a relative coupling file) is the one earlier runs recorded."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    assert cli.main(["couplings"]) == 0
    frozen = {"modes": "ccc8c8e99bf5", "couplings": "f6176e9703e2",
              "dispersion": "33a2e36214e2", "quench": "cc3498928eb0",
              "global-quench": "213ac91fde94", "tomo": "1f8619f598cc",
              "lightcone": "535e181505f1", "fit": "80ad80e5e401"}
    assert set(frozen) == set(cli.COMMANDS)
    for command, expected in frozen.items():
        argv = [command] + (["--couplings", "couplings.csv"] if command == "fit" else [])
        assert cli.resolve(cli.build_parser().parse_args(argv)).hash == expected, command


def test_write_ndjson_header_first(tmp_path):
    path = mio.write_ndjson(tmp_path / "r.ndjson", [{"k": 1}], {"seed": 5})
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["header"]["magnonchain"] == __version__
    assert header["header"]["seed"] == 5
    assert json.loads(lines[1]) == {"k": 1}


# ---------------------------------------------------------------------------
# coupling round trips


def _random_J(n=5, seed=2):
    rng = np.random.default_rng(seed)
    J = rng.normal(size=(n, n)) * 120.0
    J = 0.5 * (J + J.T)
    np.fill_diagonal(J, 0.0)
    return ionchain.CouplingMatrix(values=J)


def test_couplings_round_trip_rad_s(tmp_path):
    J = _random_J()
    path = mio.save_couplings(tmp_path / "J.csv", J)
    back = mio.load_couplings(path)
    np.testing.assert_array_equal(back.values, J.values)   # repr is lossless


def test_couplings_round_trip_hz(tmp_path):
    J = _random_J(seed=3)
    path = mio.save_couplings(tmp_path / "J.csv", J, unit="Hz")
    assert "# unit = Hz" in path.read_text()
    back = mio.load_couplings(path)
    np.testing.assert_allclose(back.values, J.values, rtol=1e-12)


def test_save_couplings_rejects_unknown_unit(tmp_path):
    with pytest.raises(ConfigError, match="unit"):
        mio.save_couplings(tmp_path / "J.csv", _random_J(), unit="kHz")


def test_load_couplings_requires_unit_tag(tmp_path):
    p = tmp_path / "J.csv"
    p.write_text("0.0,1.0\n1.0,0.0\n")
    with pytest.raises(ConfigError, match="unit"):
        mio.load_couplings(p)


def test_load_couplings_rejects_unknown_unit(tmp_path):
    p = tmp_path / "J.csv"
    p.write_text("# unit = eV\n0.0,1.0\n1.0,0.0\n")
    with pytest.raises(ConfigError, match="unknown unit"):
        mio.load_couplings(p)


def test_load_couplings_reports_bad_row_with_line_number(tmp_path):
    p = tmp_path / "J.csv"
    p.write_text("# unit = rad/s\n0.0,1.0\n1.0,oops\n")
    with pytest.raises(ConfigError, match=r"J\.csv:3"):
        mio.load_couplings(p)


def test_load_couplings_rejects_non_square(tmp_path):
    p = tmp_path / "J.csv"
    p.write_text("# unit = rad/s\n0.0,1.0,2.0\n1.0,0.0,3.0\n")
    with pytest.raises(ConfigError, match="square"):
        mio.load_couplings(p)


def test_load_couplings_refuses_a_ragged_row_naming_its_line(tmp_path):
    p = tmp_path / "J.csv"
    p.write_text("# unit = Hz\n0,1,2\n1,0\n2,1,0\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(p))}:3: 2 values, but the first "
                                          rf"row has 3$"):
        mio.load_couplings(p)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_load_couplings_refuses_a_non_finite_value_naming_its_line(tmp_path, value):
    p = tmp_path / "J.csv"
    p.write_text(f"# unit = rad/s\n0.0,1.0\n{value},0.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(p))}:3: non-finite value"):
            mio.load_couplings(p)


@pytest.mark.parametrize("kind,reason", [("missing", "No such file or directory"),
                                         ("directory", "Is a directory")])
def test_load_couplings_refuses_an_unreadable_path(tmp_path, kind, reason):
    p = tmp_path / "J.csv"
    if kind == "directory":
        p.mkdir()
    with pytest.raises(ConfigError) as refusal:
        mio.load_couplings(p)
    assert str(refusal.value) == f"cannot read {p}: {reason}"


def test_load_couplings_refuses_a_single_ion(tmp_path):
    p = tmp_path / "J.csv"
    p.write_text("# unit = Hz\n0.0\n")
    with pytest.raises(ConfigError) as refusal:
        mio.load_couplings(p)
    assert str(refusal.value) == f"{p} holds 1 ion, need at least 2"


def test_load_couplings_symmetrizes_small_asymmetry(tmp_path):
    p = tmp_path / "J.csv"
    p.write_text("# unit = rad/s\n0.0,1.01\n1.0,0.0\n")   # ~1% asymmetric
    with pytest.warns(UserWarning, match="symmetrized"):
        J = mio.load_couplings(p)
    assert J.values[0, 1] == pytest.approx(1.005)
    assert J.values[0, 1] == J.values[1, 0]


def test_load_couplings_rejects_large_asymmetry(tmp_path):
    p = tmp_path / "J.csv"
    p.write_text("# unit = rad/s\n0.0,1.2\n1.0,0.0\n")    # 17% relative
    with pytest.raises(ConfigError, match="asymmetry"):
        mio.load_couplings(p)


def test_load_couplings_drops_stray_diagonal(tmp_path):
    p = tmp_path / "J.csv"
    p.write_text("# unit = rad/s\n0.001,1.0\n1.0,0.0\n")
    with pytest.warns(UserWarning, match="diagonal"):
        J = mio.load_couplings(p)
    assert J.values[0, 0] == 0.0


# ---------------------------------------------------------------------------
# observable exports


def _parse_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        cells = line.split(",")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            continue        # the column-name row
    return rows


def test_save_dispersion_columns(tmp_path):
    spec = magnon.diagonalize_magnons(ionchain.nearest_neighbour_coupling(5, J0))
    path = mio.save_dispersion(tmp_path / "d.csv", spec)
    rows = np.array(_parse_rows(path))
    assert rows.shape == (5, 4)
    np.testing.assert_array_equal(rows[:, 0], np.arange(1, 6))
    np.testing.assert_array_equal(rows[:, 1], spec.pseudo_momenta)
    np.testing.assert_array_equal(rows[:, 2], spec.energies)


def test_save_magnetisation_long_format(tmp_path):
    times = np.array([0.0, 0.5])
    values = np.array([[1.0, -1.0], [0.25, -0.25]])
    path = mio.save_magnetisation(tmp_path / "m.csv", times, values)
    rows = _parse_rows(path)
    assert rows == [[0.0, 1.0, 1.0], [0.0, 2.0, -1.0],
                    [0.5, 1.0, 0.25], [0.5, 2.0, -0.25]]


@pytest.mark.parametrize("save,names", [
    (mio.save_magnetisation, ("t_s", "site", "sz")),
    (mio.save_averaged_correlations, ("t_s", "n", "cbar")),
])
def test_long_format_saves_have_the_bytes_of_their_former_columns(tmp_path, save, names):
    """magnetisation.csv and cbar.csv share one long-format layout, which
    writes what the columns built at each call site wrote: over two chunks
    of rows and past FLOAT_TEXT_MIN distinct values."""
    rng = np.random.default_rng(4)
    times = np.linspace(0.0, 0.02, 801)
    values = rng.normal(size=(times.size, 10))
    meta = {"config_hash": "abc", "seed": 3, "model": "xy"}
    n_t, n = values.shape
    columns = (mio._Labels.repeat(times, n), mio._Labels.tile(np.arange(1, n + 1), n_t),
               values.ravel())
    former = mio.write_columns(tmp_path / "former.csv", names, columns, meta)
    assert values.size > mio._CHUNK_ROWS and values.size > mio.FLOAT_TEXT_MIN
    assert save(tmp_path / "saved.csv", times, values, meta).read_bytes() == former.read_bytes()


def test_save_correlations_upper_pairs_only(tmp_path):
    corr = np.arange(9.0).reshape(1, 3, 3)
    path = mio.save_correlations(tmp_path / "c.csv", [0.1], corr)
    rows = _parse_rows(path)
    assert [(r[1], r[2]) for r in rows] == [(1, 2), (1, 3), (2, 3)]
    assert [r[3] for r in rows] == [1.0, 2.0, 5.0]


def test_save_density_matrix_real_imag(tmp_path):
    bell = np.array([0, 1, 1, 0]) / np.sqrt(2)
    rho = entanglement.DensityMatrix(matrix=np.outer(bell, bell), subsystem=(2, 5))
    path = mio.save_density_matrix(tmp_path / "rho.csv", rho)
    text = path.read_text()
    assert "# subsystem = 2,5" in text
    rows = _parse_rows(path)
    assert len(rows) == 16
    m = np.zeros((4, 4), dtype=complex)
    for r, c, re, im in rows:
        m[int(r), int(c)] = re + 1j * im
    np.testing.assert_allclose(m, rho.matrix, atol=1e-15)


def test_save_cone(tmp_path):
    path = mio.save_cone(tmp_path / "cone.csv", [1, 2], [0.01, 0.02])
    assert _parse_rows(path) == [[1.0, 0.01], [2.0, 0.02]]


def test_trajectory_records_shape():
    times = [0.0, 1.0]
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    recs = list(mio.trajectory_records(times, values))
    assert recs == [{"t_s": 0.0, "sz": [1.0, 2.0]}, {"t_s": 1.0, "sz": [3.0, 4.0]}]
    recs = list(mio.trajectory_records(times, values, np.zeros((2, 2, 2))))
    assert recs[0]["corr"] == [[0.0, 0.0], [0.0, 0.0]]


def test_fit_records_write_the_lines_of_deep_copies(tmp_path):
    """Each fit dataclass gives the NDJSON line of its ``asdict`` record."""
    from dataclasses import asdict
    from magnonchain.analysis import AlphaFit, ArrivalFit, ArrivalSkipped, FrontFit
    from magnonchain.bounds import LightConeParams
    fits = [AlphaFit(alpha=np.float64(1.5), scale=2.0, residual=0.1, method="dispersion"),
            ArrivalFit(site=np.int64(7), t0=1e-3, width=2e-4, amplitude=np.float64(0.3),
                       goodness=0.99),
            ArrivalSkipped(site=3, distance=2, reason="no peak above the noise"),
            FrontFit(velocity=12.5, intercept=-1e-5, velocity_stderr=0.25,
                     sites_used=[np.int64(2), 3, 4]),
            LightConeParams(g=np.float64(2.0), v=1.0 / 3.0, jbar=30.0)]
    for fit in fits:
        record = {"fit": type(fit).__name__, "input_hash": "abc", **asdict(fit)}
        expected = mio.write_ndjson(tmp_path / "asdict.ndjson", [record], {"seed": 1})
        path = mio.write_ndjson(tmp_path / "fields.ndjson", [mio.fit_record(fit, "abc")],
                                {"seed": 1})
        assert path.read_bytes() == expected.read_bytes(), type(fit).__name__


def test_fit_record_flattens_dataclasses(tmp_path):
    from magnonchain.analysis import AlphaFit
    fit = AlphaFit(alpha=1.5, scale=2.0, residual=0.1, method="dispersion")
    rec = mio.fit_record(fit, "abc123")
    assert rec["fit"] == "AlphaFit"
    assert rec["input_hash"] == "abc123"
    assert rec["alpha"] == 1.5
    with pytest.raises(TypeError):
        mio.fit_record({"not": "a dataclass"}, "h")
    # a trap matrix and its CSV read back are one input; one ulp off is another
    J = cli._build_couplings(cli.resolve(cli.build_parser().parse_args(["couplings", "--n", "25"])))
    back = mio.load_couplings(mio.save_couplings(tmp_path / "J.csv", J))
    assert (mio.fit_record(fit, mio.matrix_hash(back.values))
            == mio.fit_record(fit, mio.matrix_hash(J.values)))
    nudged = J.values.copy()
    nudged[3, 4] = np.nextafter(nudged[3, 4], np.inf)
    assert mio.matrix_hash(nudged) != mio.matrix_hash(J.values)
    assert len(mio.matrix_hash(J.values)) == 12
    assert mio.matrix_hash(np.zeros((2, 3))) != mio.matrix_hash(np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# run configuration


GOOD_CONFIG = """
[trap]
n_ions = 9
axial_freq = 219000
detuning_gap = 45000

[couplings]
source = power_law
alpha = 1.2
nn_strength = 25

[quench]
flip = 3 5
model = xy

[run]
t_end = 0.01
n_points = 101
seed = 4

[output]
directory = out
format = ndjson
"""


def test_load_run_config_types(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(GOOD_CONFIG)
    cfg = mio.load_run_config(p, cli.INI_SCHEMA)
    assert cfg["trap"]["n_ions"] == 9
    assert cfg["trap"]["axial_freq"] == 219000.0
    assert cfg["couplings"]["alpha"] == 1.2
    assert cfg["quench"]["flip"] == (3, 5)
    assert cfg["run"]["n_points"] == 101
    assert cfg["output"]["format"] == "ndjson"


def test_load_run_config_rejects_unknown_section(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[laser]\npower = 3\n")
    with pytest.raises(ConfigError, match="laser"):
        mio.load_run_config(p, cli.INI_SCHEMA)


def test_load_run_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[trap]\nn_ions = 5\nvoltage = 7\n")
    with pytest.raises(ConfigError, match="voltage"):
        mio.load_run_config(p, cli.INI_SCHEMA)


@pytest.mark.parametrize("section,key", [("beam", "waist_transverse"), ("quench", "kind")])
def test_removed_keys_are_unknown(tmp_path, section, key):
    """The beam's transverse waist played no part, and a subcommand sets the
    quench kind, so neither has a key."""
    p = tmp_path / "run.ini"
    p.write_text(f"[{section}]\n{key} = 1\n")
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[{section}\\]"):
        mio.load_run_config(p, cli.INI_SCHEMA)


def test_transverse_field_key_takes_auto(tmp_path):
    p = tmp_path / "run.ini"
    for text, value in (("auto", None), ("12.5", 12.5)):
        p.write_text(f"[trap]\ntransverse_field = {text}\n")
        assert mio.load_run_config(p, cli.INI_SCHEMA) == {"trap": {"transverse_field": value}}


def test_load_run_config_reports_bad_value(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[run]\nn_points = many\n")
    with pytest.raises(ConfigError, match="n_points"):
        mio.load_run_config(p, cli.INI_SCHEMA)


def test_load_run_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        mio.load_run_config(tmp_path / "absent.ini", cli.INI_SCHEMA)


def test_flip_list_accepts_commas():
    flip = cli.INI_SCHEMA["quench"]["flip"]
    assert flip("1, 2, 3") == (1, 2, 3)
    assert flip("4 6") == (4, 6)
