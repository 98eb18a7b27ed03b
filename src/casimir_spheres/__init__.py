"""Casimir interaction of concentric hyperspheres at finite temperature.

Exact Matsubara-sum and vacuum-integral evaluation of the interaction free
energy between two concentric spheres in D >= 3 space dimensions, for
perfectly-conducting and infinitely-permeable boundary conditions, together
with the proximity-force approximation and the small-gap asymptotic series
used to cross-validate it.
"""

from .asymptotics import (ExpansionSeries, ExpansionTerm,
                          assemble_zero_T_expansion, exact_thermal_force_leading,
                          expansion_coefficient_functions, high_T_expansion,
                          parallel_plate_density, pfa_energy, pfa_thermal_force,
                          riemann_zeta, sphere_area, thermal_leading,
                          zero_T_expansion)
from .bessel import log_bessel_i, log_bessel_k, robin_combination
from .debye import RationalPolynomial, debye_m, debye_u, debye_v
from .errors import NonConvergenceError, OutOfRegimeError, PrecisionLossError
from .exact import (classical_term, f_l, force, free_energy, m_ratio,
                    thermal_correction, zero_T_energy)
from .geometry import EnergyResult, Geometry, TruncationPolicy
from .modes import (BoundaryCondition, BoundaryPair, Channel,
                    DegeneracyPolynomial, bc_coefficients, degeneracy,
                    degeneracy_polynomial, nu)
from .signedlog import SignedLog

__version__ = "0.1.0"

__all__ = [
    "BoundaryCondition", "BoundaryPair", "Channel", "DegeneracyPolynomial",
    "EnergyResult", "ExpansionSeries", "ExpansionTerm", "Geometry",
    "NonConvergenceError", "OutOfRegimeError", "PrecisionLossError",
    "RationalPolynomial", "SignedLog", "TruncationPolicy",
    "assemble_zero_T_expansion", "bc_coefficients", "classical_term",
    "debye_m", "debye_u", "debye_v", "degeneracy", "degeneracy_polynomial",
    "exact_thermal_force_leading", "expansion_coefficient_functions",
    "f_l", "force", "free_energy", "high_T_expansion", "log_bessel_i",
    "log_bessel_k", "m_ratio", "nu", "parallel_plate_density", "pfa_energy",
    "pfa_thermal_force", "riemann_zeta", "robin_combination",
    "sphere_area", "thermal_correction", "thermal_leading",
    "zero_T_energy", "zero_T_expansion",
]
