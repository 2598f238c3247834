import argparse
import math

import pytest

from confdec import cli
from confdec.core import NATURAL, SI


def test_si_constants_codata():
    assert SI.c == 299792458.0
    assert SI.hbar == 1.054571817e-34
    assert SI.G == 6.67430e-11
    assert SI.amu == 1.66053906660e-27


def test_planck_scales_derived():
    # sqrt(hbar G / c^5) and c * t_P, checked against a high-precision
    # evaluation of the CODATA inputs
    assert SI.t_planck == pytest.approx(5.39124644666e-44, rel=1e-11)
    assert SI.l_planck == pytest.approx(1.61625502393e-35, rel=1e-11)
    assert SI.l_planck == pytest.approx(SI.c * SI.t_planck, rel=1e-15)


def test_natural_constants_unity():
    assert (NATURAL.c, NATURAL.hbar, NATURAL.G, NATURAL.amu) == (1, 1, 1, 1)
    assert NATURAL.t_planck == 1.0
    assert NATURAL.l_planck == 1.0


def test_constants_frozen():
    with pytest.raises(Exception):
        SI.c = 1.0


class TestUnitSystem:
    def test_invalid_mode(self):
        # a unit system is one of the CLI's UNITS entries (natural, si), each
        # pairing a constants set with its labels; any other mode is refused
        # when the parameters are resolved, before a constants set is chosen
        assert set(cli.UNITS) == {"natural", "si"}
        assert cli.UNITS["natural"][0] is NATURAL
        assert cli.UNITS["si"][0] is SI
        spec = [("units", str, "natural", "unit system")]
        with pytest.raises(ValueError):
            cli._resolve(argparse.Namespace(units="cgs"), {}, spec)


def test_dimensionless_rate_energy_consistency():
    # hbar [J s] * rate [1/s] should equal an energy; sanity-check the
    # constants against each other via the Planck relations
    e_planck = SI.hbar / SI.t_planck
    m_planck = e_planck / SI.c**2
    assert m_planck == pytest.approx(math.sqrt(SI.hbar * SI.c / SI.G), rel=1e-12)
