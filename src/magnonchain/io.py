"""Artifact I/O: plot-ready CSV / NDJSON files and run-config parsing.

Every output file starts with '#'-prefixed header lines recording the
package version, a hash of the generating configuration, and the seed, so
any artifact can be traced back to its run and reruns are byte-identical.
Floats are written as ``repr`` writes them, which round-trips IEEE doubles exactly;
CSV always uses '.' as the decimal separator regardless of locale.

Every CSV is written column-wise, 4096 rows at a time (:func:`write_columns`
for tables, :func:`save_trajectory` for the three tables of a quench; there
is no row-wise writer).  Tables written together are written side by side:
each step writes the next 4096 rows of every table that has rows left.
The values of a step are formatted once per distinct value, as a
fixed-width ASCII field padded with NUL bytes: all float columns of the
step, across its tables, in one pass, each integer column in its own
(``str`` per distinct integer; int64 and uint64 together would pass
through float64).  Each distinct float bit pattern is written by ``repr``
or, from ``FLOAT_TEXT_MIN`` distinct floats in the step on, by the numpy
formatter of :mod:`._floattext`, which writes exactly ``repr``'s text (and
leaves zeros, subnormals, NaN and infinities to ``repr``).  Each row takes
its fields by index, the fields and separators lie side by side in one
byte array, and one boolean compress drops the NUL bytes.  The time and
label columns of a long-format table repeat or tile a short array: they
are passed as :class:`_Labels`, its values and a row index, and each
values array is formatted once per write, however many of the tables
written together share it.  A list or tuple column joins the same rows as
a field of its cells' texts, one per row, in the file's encoding.

A fit record names its coupling matrix by :func:`matrix_hash`, taken from
the matrix's bytes; :func:`config_hash` hashes the canonical JSON text of
a configuration.

Coupling matrices travel as N x N CSV with a mandatory '# unit = ...' tag
(rad/s or Hz) — an untagged file is rejected rather than guessed at.

Run configurations are INI files, which :func:`load_run_config` reads
against the schema its caller passes (the CLI derives it from its table of
settings).
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .ionchain import CouplingMatrix

#: Accepted '# unit = ...' tags for coupling files -> factor to rad/s.
UNIT_FACTORS = {"rad/s": 1.0, "Hz": 2.0 * math.pi}

#: Relative asymmetry above which an imported matrix is rejected.
MAX_IMPORT_ASYMMETRY = 0.05


class ConfigError(ValueError):
    """Invalid configuration or input file; maps to CLI exit code 2."""


# ---------------------------------------------------------------------------
# headers and hashing


def config_hash(obj) -> str:
    """Short stable hash of any JSON-serializable configuration object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def matrix_hash(values) -> str:
    """Short stable hash of a matrix: sha256 of its shape and its
    little-endian float64 bytes, so equal values hash alike on any machine
    (-0.0 and 0.0 apart)."""
    a = np.ascontiguousarray(values, dtype="<f8")
    return hashlib.sha256(str(a.shape).encode() + a.tobytes()).hexdigest()[:12]


def _plain(obj):
    """The JSON-native form of what ``json`` cannot write itself: a numpy
    scalar or array as its Python value(s), a path as its text."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def header_lines(meta: dict | None = None) -> list[str]:
    """Standard artifact header: version, config hash, seed, then extras."""
    meta = dict(meta or {})
    lines = [f"# magnonchain = {__version__}"]
    for key in ("config_hash", "seed"):
        lines.append(f"# {key} = {meta.pop(key, 'none')}")
    for key in sorted(meta):
        lines.append(f"# {key} = {meta[key]}")
    return lines


#: Rows of each table formatted and written per step: bounds the text held
#: in memory.
#: 8192 writes a 201-ion light cone's magnetisation about 12% faster, but
#: raised the benchmark's chain-analysis peak RSS by about 3.5 MB in 9 of
#: 33 runs (measured on a 2-core VM).
_CHUNK_ROWS = 4096

#: Distinct floats in a step (the float columns of every table written
#: together, 4096 rows of each) from which :mod:`._floattext` formats them:
#: below it one ``repr`` per value costs less than the numpy formatter's
#: fixed 0.2 ms.  Measured on a 2-core VM: the formatter is the faster from
#: about 450 distinct 17-digit values and 1100 two-decimal ones.
FLOAT_TEXT_MIN = 512


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _strings_field(cells: list) -> np.ndarray:
    """ASCII ``cells`` (or encoded ones) as a (n, width) byte field, NUL-padded."""
    text = np.array(cells, dtype=bytes)
    return text.view(np.uint8).reshape(text.size, text.itemsize)


def _distinct_field(col):
    """Byte field of each distinct value of a numeric numpy array, flattened,
    and the index of each value among them: ``str`` of integers, ``repr`` of
    floats (bools as floats), by :mod:`._floattext` from ``FLOAT_TEXT_MIN``
    distinct floats on.  A row's text is its nonzero bytes."""
    if col.dtype.kind in "iu":
        distinct, inverse = np.unique(col, return_inverse=True)
        return _strings_field(list(map(str, distinct.tolist()))), inverse
    bits = np.ascontiguousarray(col, dtype=np.float64).reshape(-1).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)    # -0.0 and 0.0 apart
    floats = distinct.view(np.float64)
    if floats.size < FLOAT_TEXT_MIN:
        return _strings_field(list(map(repr, floats.tolist()))), inverse
    from ._floattext import render
    text = np.concatenate([render(floats[start:start + _CHUNK_ROWS])     # bounded temporaries
                           for start in range(0, floats.size, _CHUNK_ROWS)])
    return np.compress(text.any(axis=0), text, axis=1), inverse


@dataclass(frozen=True)
class _Labels:
    """A column given as short numeric ``values`` taken at each row's
    ``index``, such as the repeated times or the tiled sites of a
    long-format table: :func:`_write_tables` formats each values array once
    per write, for every step and every table that shares it."""

    values: np.ndarray
    index: np.ndarray

    def __len__(self):
        return len(self.index)

    @classmethod
    def repeat(cls, values, n: int) -> _Labels:
        """``np.repeat(values, n)``: each value on n rows in turn."""
        return cls(values, np.repeat(np.arange(len(values)), n))

    @classmethod
    def tile(cls, values, n: int) -> _Labels:
        """``np.tile(values, n)``: all the values, n times over."""
        return cls(values, np.tile(np.arange(len(values)), n))


def _field(col, encoding: str):
    """:func:`_distinct_field` of a numeric numpy array; of any other column,
    the byte field of each cell's :func:`_cell` text in ``encoding`` and the
    row index."""
    if isinstance(col, np.ndarray) and col.dtype.kind in "iufb":
        return _distinct_field(col)
    return _strings_field([_cell(x).encode(encoding) for x in col]), np.arange(len(col))


def _is_float(col) -> bool:
    return isinstance(col, np.ndarray) and col.dtype.kind == "f"


def _rows_text(fields, inverses) -> np.ndarray:
    """CSV rows of the distinct-value ``fields`` of each column taken at each
    row's index, as an array of bytes: the fields side by side with their
    separators in one byte array, the NUL bytes cut out."""
    widths = [text.shape[1] + 1 for text in fields]
    rows = np.empty((len(inverses[0]), sum(widths)), dtype=np.uint8)
    end = 0
    for text, inverse, width in zip(fields, inverses, widths):
        start, end = end, end + width
        rows[:, start:end - 1] = np.take(text, inverse, axis=0)
        rows[:, end - 1] = ord(",")
    rows[:, -1] = ord("\n")
    rows = rows.ravel()
    return rows[rows != 0]


def _write_tables(tables) -> list[Path]:
    """Write each ``(path, lines, columns)`` of ``tables``: its ``lines``,
    then CSV rows assembled from its equal-length ``columns`` as bytes
    (:func:`_rows_text`), side by side: step k writes rows 4096 k to
    4096 (k + 1) - 1 of every table that has them.  A step formats the
    distinct values of all its float columns, across the tables, in one
    :func:`_distinct_field` call, and each other numeric numpy array in
    its own.  A :class:`_Labels` column takes the fields of its ``values``,
    formatted once for all steps and all tables that share the array, and
    any other column the :func:`_cell` text of each cell, encoded as its
    file encodes ``lines``.  Returns the paths, in order."""
    counts = []
    for _, _, columns in tables:
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(f"columns differ in length: {sorted(lengths)}")
        counts.append(lengths.pop() if lengths else 0)
    labels = {id(c.values): c.values for _, _, columns in tables
              for c in columns if isinstance(c, _Labels)}
    labels = {key: _distinct_field(values) for key, values in labels.items()}
    paths = [Path(path) for path, _, _ in tables]
    with ExitStack() as stack:
        files = []
        for path, (_, lines, _) in zip(paths, tables):
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = stack.enter_context(open(path, "w"))
            fh.write("\n".join(lines) + "\n")
            fh.flush()
            files.append(fh)
        for start in range(0, max(counts, default=0), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            step = [(fh, [c if isinstance(c, _Labels) else c[rows] for c in columns])
                    for fh, (_, _, columns), n in zip(files, tables, counts) if n > start]
            floats = [c for _, chunk in step for c in chunk if _is_float(c)]
            if floats:
                text, inverse = _distinct_field(np.concatenate(floats))
                inverses = iter(np.split(inverse, np.cumsum([c.size for c in floats])[:-1]))
            for fh, chunk in step:
                fields = []
                for c in chunk:
                    if isinstance(c, _Labels):
                        label_text, label_inverse = labels[id(c.values)]
                        fields.append((label_text, label_inverse[c.index[rows]]))
                    elif _is_float(c):
                        fields.append((text, next(inverses)))
                    else:
                        fields.append(_field(c, fh.encoding))
                fh.buffer.write(_rows_text(*zip(*fields)))
    return paths


def write_columns(path, names, columns, meta: dict | None = None) -> Path:
    """Generic CSV from equal-length columns: header comments, a name row, data rows.

    Integral cells are written as integers, strings verbatim, everything
    else with full float round-trip precision.  The rows are built as bytes
    a chunk at a time (:func:`_write_tables`): the float arrays format each
    distinct value of the chunk once, together, and each other numeric
    numpy array its own, without per-cell type checks, a :class:`_Labels`
    column (a repeat or tile of short labels) formats its values once for
    the whole file, and every cell of a list or tuple column goes through
    the per-cell rule.
    """
    return _write_tables([(path, header_lines(meta) + [",".join(names)], columns)])[0]


def write_ndjson(path, records, meta: dict | None = None) -> Path:
    """NDJSON: a header record followed by one JSON record per line."""
    lines = [json.dumps(rec, sort_keys=True, default=_plain)
             for rec in ({"header": {"magnonchain": __version__, **(meta or {})}}, *records)]
    return _write_tables([(path, lines, ())])[0]


# ---------------------------------------------------------------------------
# coupling matrices


def save_couplings(path, J: CouplingMatrix, meta: dict | None = None,
                   unit: str = "rad/s") -> Path:
    """N x N coupling CSV with provenance comments and a unit tag."""
    if unit not in UNIT_FACTORS:
        raise ConfigError(f"unknown unit {unit!r}; use one of {sorted(UNIT_FACTORS)}")
    meta = dict(meta or {})
    meta.setdefault("provenance", J.meta)
    lines = header_lines(meta) + [f"# unit = {unit}"]
    return _write_tables([(path, lines, (J.values / UNIT_FACTORS[unit]).T)])[0]


def load_couplings(path) -> CouplingMatrix:
    """Read a coupling CSV back into a validated :class:`CouplingMatrix`.

    The unit tag is mandatory.  Slightly asymmetric input (measurement
    noise) is repaired by averaging J and J^T with the maximum relative
    asymmetry reported; beyond 5% the file is rejected.  Every fault of
    the file, from an unreadable or non-UTF-8 path to a ragged, non-finite
    or overflowing row (named by its line), a pair whose sum overflows and
    a matrix of fewer than 2 ions, is a :class:`ConfigError` naming the
    path.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    unit = None
    rows, lines = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.lower().startswith("unit"):
                _, _, tag = body.partition("=")
                unit = tag.strip()
            continue
        try:
            row = [float(x) for x in line.split(",")]
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: unparseable row: {raw!r}") from exc
        if rows and len(row) != len(rows[0]):
            raise ConfigError(f"{path}:{lineno}: {len(row)} values, but the first row "
                              f"has {len(rows[0])}")
        if not all(map(math.isfinite, row)):
            raise ConfigError(f"{path}:{lineno}: non-finite value in row {raw!r}")
        rows.append(row)
        lines.append((lineno, raw))
    if unit is None:
        raise ConfigError(f"{path}: no '# unit = ...' tag; refusing to guess units")
    if unit not in UNIT_FACTORS:
        raise ConfigError(f"{path}: unknown unit {unit!r}; expected one of {sorted(UNIT_FACTORS)}")
    J = np.asarray(rows, dtype=float)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:          # ndim 1: no rows
        raise ConfigError(f"{path}: expected a square matrix, got shape {J.shape}")
    if J.shape[0] < 2:
        raise ConfigError(f"{path} holds 1 ion, need at least 2")
    with np.errstate(over="ignore", invalid="ignore"):  # each overflow is refused below
        J = J * UNIT_FACTORS[unit]
        gap, total = J - J.T, J + J.T
    converted = np.isfinite(J).all(axis=1)
    if not converted.all():
        lineno, raw = lines[np.argmin(converted)]
        raise ConfigError(f"{path}:{lineno}: row {raw!r} overflows in rad/s")

    scale = np.abs(J).max()
    asym = np.abs(gap).max() / scale if scale > 0 else 0.0
    if asym > MAX_IMPORT_ASYMMETRY:
        raise ConfigError(f"{path}: relative asymmetry {asym:.3g} exceeds "
                          f"{MAX_IMPORT_ASYMMETRY:.0%}; not a valid coupling matrix")
    if not np.isfinite(total).all():
        i, j = np.argwhere(~np.isfinite(total))[0] + 1
        raise ConfigError(f"{path}: J[{i},{j}] + J[{j},{i}] overflows in rad/s; "
                          f"cannot symmetrize")
    if asym > 1e-9:
        warnings.warn(f"{path.name}: symmetrized (max relative asymmetry {asym:.3g})",
                      stacklevel=2)
    J = 0.5 * total
    diag = np.abs(np.diag(J)).max() / scale if scale > 0 else 0.0
    if diag > 1e-9:
        warnings.warn(f"{path.name}: dropped non-zero diagonal (max {diag:.3g} relative)",
                      stacklevel=2)
    np.fill_diagonal(J, 0.0)
    return CouplingMatrix(values=J, meta=f"imported from {path.name}; "
                                         f"max asymmetry {asym:.3g}")


# ---------------------------------------------------------------------------
# observable exports


def save_dispersion(path, spectrum, meta: dict | None = None) -> Path:
    """Dispersion CSV of a :class:`~magnonchain.magnon.MagnonSpectrum`:
    (n, k_n [rad/site], omega_k [rad/s], node_count)."""
    columns = (np.arange(1, spectrum.energies.size + 1), spectrum.pseudo_momenta,
               spectrum.energies, spectrum.node_counts)
    return write_columns(path, ("n", "k_n", "omega_k", "node_count"), columns, meta)


def save_trajectory(outdir, times, magnetisation, correlations=None,
                    meta: dict | None = None) -> list[Path]:
    """The long-format CSVs of a quench in ``outdir``, written side by side
    (:func:`_write_tables`) under one header: ``magnetisation.csv`` of the
    (T, N) ``magnetisation``, (t_s, site, sz) with 1-based sites; with the
    pair ``correlations`` = (C, cbar), the (T, N, N) correlations and their
    (T, N-1) distance averages of
    :func:`~magnonchain.dynamics.averaged_correlations`, ``correlations.csv``,
    (t_s, i, j, Cij) over pairs i < j, and ``cbar.csv``, (t_s, n, cbar),
    n = 1..N-1.  Returns the paths written, in that order."""
    times = np.asarray(times, dtype=float)          # one array: its text is made once

    def long_format(values):
        values = np.asarray(values, dtype=float)
        n_t, n = values.shape
        return (_Labels.repeat(times, n), _Labels.tile(np.arange(1, n + 1), n_t),
                values.ravel())

    tables = [("magnetisation", ("t_s", "site", "sz"), long_format(magnetisation))]
    if correlations is not None:
        corr, cbar = correlations
        corr = np.asarray(corr, dtype=float)
        i, j = np.triu_indices(corr.shape[1], 1)
        tables.append(("correlations", ("t_s", "i", "j", "Cij"),
                       (_Labels.repeat(times, i.size), _Labels.tile(i + 1, corr.shape[0]),
                        _Labels.tile(j + 1, corr.shape[0]), corr[:, i, j].ravel())))
        tables.append(("cbar", ("t_s", "n", "cbar"), long_format(cbar)))
    header = header_lines(meta)
    return _write_tables([(Path(outdir) / f"{name}.csv", header + [",".join(names)], columns)
                          for name, names, columns in tables])


def save_density_matrix(path, rho, meta: dict | None = None) -> Path:
    """CSV of a :class:`~magnonchain.entanglement.DensityMatrix`: (row, col,
    re, im) in row-major order.

    The header records the subsystem sites and the basis ordering
    (|dd>, |du>, |ud>, |uu> with the lower site index first).
    """
    meta = dict(meta or {})
    meta.setdefault("subsystem", ",".join(str(s) for s in rho.subsystem))
    meta.setdefault("basis", "|dd>,|du>,|ud>,|uu> (lower site first)")
    d = rho.dim
    columns = (np.repeat(np.arange(d), d), np.tile(np.arange(d), d),
               rho.matrix.real.ravel(), rho.matrix.imag.ravel())
    return write_columns(path, ("row", "col", "re", "im"), columns, meta)


def save_cone(path, distances, cone_times, meta: dict | None = None) -> Path:
    """Light-cone overlay CSV: (d, t_cone_s) for heat-map plotting."""
    columns = (np.asarray(distances, dtype=float), np.asarray(cone_times, dtype=float))
    return write_columns(path, ("d", "t_cone_s"), columns, meta)


def trajectory_records(times, values, correlations=None):
    """One NDJSON-able record per time point (sz per site, optional Cij)."""
    values = np.asarray(values, dtype=float)
    for it, t in enumerate(np.asarray(times, dtype=float)):
        rec = {"t_s": float(t), "sz": values[it].tolist()}
        if correlations is not None:
            rec["corr"] = np.asarray(correlations[it], dtype=float).tolist()
        yield rec


def fit_record(fit, provenance_hash: str) -> dict:
    """Flatten a fit dataclass into an NDJSON fit-report record: its fields
    as they are, which ``json`` copies into the line (no deep copy)."""
    if not is_dataclass(fit) or isinstance(fit, type):
        raise TypeError(f"expected a fit dataclass, got {type(fit).__name__}")
    return {"fit": type(fit).__name__, "input_hash": provenance_hash,
            **{f.name: getattr(fit, f.name) for f in fields(fit)}}


# ---------------------------------------------------------------------------
# run configuration files


def float_or_auto(text: str) -> float | None:
    """A field in Hz, or None for ``auto`` (B = 50 max|J| in Ising runs):
    the coercion of the Ising field's flag and INI key."""
    return None if text.strip() == "auto" else float(text)


def load_run_config(path, schema: dict) -> dict:
    """Parse an INI run configuration into typed nested dicts.

    ``schema`` maps each section to {key: coercion of its text}.  Only its
    sections and keys are accepted; anything else is a
    :class:`ConfigError` naming the offending entry.
    Frequencies are plain Hz, lengths meters, times seconds — conversion
    to angular frequencies happens downstream.
    """
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    config: dict = {}
    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"{path}: unknown section [{section}] "
                              f"(expected {sorted(schema)})")
        keys = schema[section]
        config[section] = {}
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}] "
                                  f"(expected {sorted(keys)})")
            try:
                config[section][key] = keys[key](raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {key} = {raw!r}: {exc}") from exc
    return config
