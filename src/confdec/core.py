"""Physical constants in SI (CODATA 2018) and in natural units.

``SI`` serves the bound calculator and the CLI's ``--units si`` mode;
``NATURAL`` (c = hbar = G = 1) is the tau-based working unit system of the
sampled-field and Monte Carlo defaults.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA 2018 values (SI)
_C_SI = 299792458.0
_HBAR_SI = 1.054571817e-34
_G_SI = 6.67430e-11
_AMU_SI = 1.66053906660e-27


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants in a consistent unit system.

    Planck scales are always derived from (hbar, G, c) rather than stored,
    so the internal consistency relations hold by construction.
    """

    c: float = _C_SI
    hbar: float = _HBAR_SI
    G: float = _G_SI
    amu: float = _AMU_SI

    @property
    def t_planck(self) -> float:
        return math.sqrt(self.hbar * self.G / self.c**5)

    @property
    def l_planck(self) -> float:
        return self.c * self.t_planck


SI = PhysicalConstants()
NATURAL = PhysicalConstants(c=1.0, hbar=1.0, G=1.0, amu=1.0)
