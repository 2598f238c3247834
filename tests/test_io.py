"""The float-table writers: the bytes of the json/csv route, and the doubles read back."""
import csv
import io as textio
import json

import numpy as np

from confdec import io
from confdec.field import FieldGrid, FieldRealization
from confdec.master import DensityMatrix

# signed zeros, the smallest subnormal, values whose shortest repr switches
# to an exponent, a third, and magnitudes near the ends of the double range
AWKWARD = [-0.0, 5e-324, 1e-5, 1e16, 1.0 / 3.0, 1.2533141373155003e-4,
           -7.0e22, 1e300, -2.5e-310, 123456789.12345678]


def awkward_matrix() -> DensityMatrix:
    e = np.zeros((4, 4), dtype=complex)
    e[np.diag_indices(4)] = [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, -0.0]
    upper = [complex(re, im) for re, im in zip(AWKWARD[:6], AWKWARD[4:])]
    e[np.triu_indices(4, 1)] = upper
    e[np.tril_indices(4, -1)] = np.conj(e.T[np.tril_indices(4, -1)])
    return DensityMatrix(x_grid=1.0 / 3.0 + np.arange(4.0), entries=e)


def csv_route(header, rows) -> bytes:
    buf = textio.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(float(v), ".17g") for v in row])
    return buf.getvalue().encode()


def test_density_matrix_json_is_json_dump(tmp_path):
    rho = awkward_matrix()
    obj = {"grid": {"n": rho.n, "dx": rho.dx, "x0": float(rho.x_grid[0])},
           "entries": [[float(v.real), float(v.imag)] for v in rho.entries.reshape(-1)]}
    path = tmp_path / "rho.json"
    io.density_matrix_to_json(rho, path)
    assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
    back = io.density_matrix_from_json(path)
    assert np.array_equal(back.entries, rho.entries)


def test_density_matrix_csv_is_csv_writer(tmp_path):
    rho = awkward_matrix()
    rows = [(xi, xj, rho.entries[i, j].real, rho.entries[i, j].imag)
            for i, xi in enumerate(rho.x_grid) for j, xj in enumerate(rho.x_grid)]
    path = tmp_path / "rho.csv"
    io.density_matrix_to_csv(rho, path)
    assert path.read_bytes() == csv_route(["x_i[1]", "x_j[1]", "re[1]", "im[1]"], rows)
    back = io.density_matrix_from_csv(path)
    assert np.array_equal(back.entries, rho.entries)
    assert np.array_equal(back.x_grid, rho.x_grid)


def test_realization_csv_is_csv_writer(tmp_path):
    grid = FieldGrid(dt=1.0 / 3.0, n_steps=len(AWKWARD), t_start=-1e16)
    realization = FieldRealization(grid=grid, xi_plus=np.array(AWKWARD),
                                   xi_minus=-np.array(AWKWARD[::-1]))
    path = tmp_path / "xi.csv"
    # a unit label that csv must quote keeps csv's quoting
    io.realization_to_csv(realization, path, time_unit="s, shifted")
    rows = zip(grid.times(), realization.xi_plus, realization.xi_minus)
    assert path.read_bytes() == csv_route(["t[s, shifted]", "xi_plus[1]", "xi_minus[1]"], rows)
    expected = np.column_stack((grid.times(), realization.xi_plus, realization.xi_minus))
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.tobytes() == expected.tobytes()  # -0.0 and subnormals included
