"""The float-table writers: the bytes of the json/csv route, and the doubles read back."""
import csv
import io as textio
import json

import numpy as np
import pytest

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
        writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


def json_route(rho: DensityMatrix) -> bytes:
    obj = {"grid": {"n": rho.n, "dx": rho.dx, "x0": float(rho.x_grid[0])},
           "entries": [[float(v.real), float(v.imag)] for v in rho.entries.reshape(-1)]}
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def test_mixed_table_is_csv_writer(tmp_path):
    # a str, an int and a float column, as in g1.csv and coherence.csv
    floats = [-0.0, 5e-324, float("inf"), float("nan"), 1.0 / 3.0]
    rows = [(name, k, v) for k, (name, v) in enumerate(zip(
        ["plus", "minus", "cross", "plus", "minus"], floats))]
    path = tmp_path / "mixed.csv"
    io.write_csv(path, ["stream", "n[1]", "t[s, shifted]"], rows)
    assert path.read_bytes() == csv_route(["stream", "n[1]", "t[s, shifted]"], rows)


def test_density_matrix_json_is_json_dump(tmp_path):
    rho = awkward_matrix()
    path = tmp_path / "rho.json"
    io.density_matrix_to_json(rho, path)
    assert path.read_bytes() == json_route(rho)
    back = io.density_matrix_from_json(path)
    assert np.array_equal(back.entries, rho.entries)


def repeated_magnitude_matrix(n=70) -> np.ndarray:
    """Exactly Hermitian entries drawn from a few magnitudes of both signs,
    with signed zeros and subnormals, and a diagonal with trace 1."""
    rng = np.random.default_rng(11)
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1.0 / 3.0, -1.0 / 3.0,
                     1e-5, -1e16, 1.2533141373155003e-4])
    upper = rng.choice(pool, (n, n)) + 1j * rng.choice(pool, (n, n))
    e = np.triu(upper, 1)
    lower = np.tril_indices(n, -1)
    e[lower] = e.T[lower].conj()          # assigned, not added: -0.0 stays -0.0
    e[np.diag_indices(n)] = rng.choice([0.5, 0.25], n) + 0j
    e[np.diag_indices(n)] /= e.trace().real
    return e


@pytest.mark.parametrize("rows_per_write", [1, 7, io._ROWS_PER_WRITE])
def test_density_matrix_json_bytes_for_repeated_magnitudes(tmp_path, monkeypatch,
                                                            rows_per_write):
    # 4900 rows: more than one write at the default block, and a short last one
    monkeypatch.setattr(io, "_ROWS_PER_WRITE", rows_per_write)
    e = repeated_magnitude_matrix()
    exact = DensityMatrix(x_grid=np.arange(70.0), entries=e)
    assert np.array_equal(exact.entries, exact.entries.conj().T)
    parts = np.concatenate((e.real.ravel(), e.imag.ravel()))
    assert np.signbit(parts[parts == 0.0]).any() and (~np.signbit(parts[parts == 0.0])).any()
    assert (parts == -5e-324).any() and (parts == 5e-324).any()
    # Hermitian only to roundoff, which the 1e-12 tolerance allows
    skew = 1e-14 * np.triu(np.random.default_rng(5).standard_normal((70, 70)), 1)
    near = DensityMatrix(x_grid=np.arange(70.0), entries=e + skew + 1j * skew)
    assert not np.array_equal(near.entries, near.entries.conj().T)
    for rho in (exact, near):
        path = tmp_path / "rho.json"
        io.density_matrix_to_json(rho, path)
        assert path.read_bytes() == json_route(rho)
        assert np.array_equal(io.density_matrix_from_json(path).entries, rho.entries)


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
