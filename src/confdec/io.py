"""CSV/JSON serialization with deterministic formatting.

CSV floats are written with 17 significant digits and JSON floats as
``json.dump`` writes them (their shortest round-tripping ``repr``), so both
read back as the same doubles and re-running a manifest reproduces outputs
byte-identically; JSON objects are written with sorted keys for the same
reason.  The large float tables (density matrices, field realizations) are
formatted in one ``%``-template pass that writes the same bytes as the
``csv``/``json`` route of the small tables.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .field import CorrelationEstimate, FieldRealization, _is_int
from .master import DensityMatrix
from .montecarlo import CoherenceEstimate


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_csv(path, header, rows):
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path, obj):
    with Path(path).open("w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with Path(path).open() as fh:
        return json.load(fh)


def _float_rows(row, sep, columns) -> str:
    """The rows of the float ``columns``, each through the ``%``-template
    ``row`` and joined by ``sep``, formatted in one pass."""
    table = np.column_stack(columns)
    return sep.join([row] * len(table)) % tuple(table.ravel().tolist())


def _float_csv(path, header, columns):
    """The bytes ``write_csv`` writes for all-float columns."""
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write(_float_rows(",".join(["%.17g"] * len(columns)) + "\r\n", "", columns))


def realization_to_csv(realization: FieldRealization, path, time_unit: str = "1"):
    _float_csv(path, [f"t[{time_unit}]", "xi_plus[1]", "xi_minus[1]"],
               (realization.grid.times(), realization.xi_plus, realization.xi_minus))


def correlation_to_csv(estimate: CorrelationEstimate, path, time_unit: str = "1"):
    rows = []
    for key in ("plus", "minus", "cross"):
        for lag, est, err in zip(estimate.lags, estimate.estimates[key],
                                 estimate.stderrs[key]):
            rows.append((lag, key, est, err))
    write_csv(path, [f"lag[{time_unit}]", "stream", "estimate[1]", "stderr[1]"], rows)


def moments_to_csv(moments, path):
    write_csv(path, ["order", "estimate[1]", "stderr[1]"], moments)


def coherence_to_csv(estimate: CoherenceEstimate, path,
                     length_unit: str = "1", time_unit: str = "1"):
    rows = [(estimate.delta_x, r.t, r.mean.real, r.mean.imag, r.stderr, r.n_samples)
            for r in estimate.records]
    write_csv(path, [f"delta_x[{length_unit}]", f"T[{time_unit}]",
                     "re_mean[1]", "im_mean[1]", "stderr[1]", "n_samples"], rows)


def density_matrix_to_json(rho: DensityMatrix, path):
    """The bytes ``write_json`` writes for ``{"grid": {n, dx, x0}, "entries":
    [[re, im], ...]}``; ``%r`` is the float repr ``json`` uses for finite floats."""
    flat = rho.entries.reshape(-1)
    entries = _float_rows("    [\n      %r,\n      %r\n    ]", ",\n", (flat.real, flat.imag))
    with Path(path).open("w") as fh:
        fh.write('{\n  "entries": [\n%s\n  ],\n  "grid": {\n    "dx": %r,\n'
                 '    "n": %d,\n    "x0": %r\n  }\n}\n'
                 % (entries, rho.dx, rho.n, float(rho.x_grid[0])))


def density_matrix_from_json(path) -> DensityMatrix:
    obj = read_json(path)
    try:
        grid, flat = obj["grid"], obj["entries"]
        n, x0, dx = grid["n"], grid["x0"], grid["dx"]
    except (KeyError, TypeError) as exc:
        raise ValueError("density-matrix JSON needs a grid {n, dx, x0} "
                         "and entries") from exc
    # checked before anything of size n is allocated
    if not _is_int(n) or n < 2:
        raise ValueError(f"grid n must be an integer of at least 2, got {n!r}")
    for name, value in (("dx", dx), ("x0", x0)):
        # an int beyond the float range is refused before isfinite overflows on it
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or abs(value) >= 2**1024 or not math.isfinite(value)):
            raise ValueError(f"grid {name} must be a finite number, got {value!r}")
    flat = np.asarray(flat, dtype=float)
    if flat.shape != (n * n, 2):
        raise ValueError(f"entries must hold n*n [re, im] pairs in row-major order, "
                         f"with n = {n}")
    x = x0 + dx * np.arange(n)
    entries = (flat[:, 0] + 1j * flat[:, 1]).reshape(n, n)
    return DensityMatrix(x_grid=x, entries=entries)


def density_matrix_to_csv(rho: DensityMatrix, path):
    xi, xj = np.meshgrid(rho.x_grid, rho.x_grid, indexing="ij")
    flat = rho.entries.reshape(-1)
    _float_csv(path, ["x_i[1]", "x_j[1]", "re[1]", "im[1]"],
               (xi.reshape(-1), xj.reshape(-1), flat.real, flat.imag))


def density_matrix_from_csv(path) -> DensityMatrix:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data rows: rejected below
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] == 0:
        raise ValueError("matrix CSV has no data rows")
    if data.shape[1] != 4:
        raise ValueError("matrix CSV rows must have 4 columns: x_i, x_j, re, im")
    xs = np.unique(data[:, 0])
    n = xs.size
    i, j = np.searchsorted(xs, data[:, 0]), np.searchsorted(xs, data[:, 1])
    on_grid = xs[np.minimum(j, n - 1)] == data[:, 1]
    cell = i * n + j
    if not on_grid.all() or np.any(np.bincount(cell[on_grid], minlength=n * n) != 1):
        raise ValueError("matrix CSV must contain exactly one row per (x_i, x_j) "
                         "pair of grid points")
    entries = np.zeros(n * n, dtype=complex)
    entries[cell] = data[:, 2] + 1j * data[:, 3]
    return DensityMatrix(x_grid=xs, entries=entries.reshape(n, n))
