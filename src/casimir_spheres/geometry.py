"""Geometry, truncation policy and result containers."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .modes import _integer_at_least

__all__ = ["Geometry", "TruncationPolicy", "EnergyResult"]


@dataclass(frozen=True)
class Geometry:
    """Two concentric spheres of radii a1 < a2 in D space dimensions.

    Natural units (hbar = c = k_B = 1); energies come out in units of 1/a1.
    """

    a1: float
    a2: float
    dim: int

    def __post_init__(self):
        if not (self.a1 > 0.0 and math.isfinite(self.a1)):
            raise ValueError(f"a1 must be positive and finite, got {self.a1}")
        if not (self.a2 > self.a1 and math.isfinite(self.a2)):
            raise ValueError(f"a2 must exceed a1, got a1={self.a1}, a2={self.a2}")
        object.__setattr__(self, "dim", _integer_at_least(self.dim, 3, "dim"))

    @property
    def eps(self) -> float:
        """Dimensionless gap (a2 - a1)/a1."""
        return (self.a2 - self.a1) / self.a1

    @property
    def d(self) -> float:
        """Separation a2 - a1."""
        return self.a2 - self.a1

    @property
    def alpha_log(self) -> float:
        """log(a2/a1) = log(1 + eps)."""
        return math.log1p(self.eps)

    @classmethod
    def from_eps(cls, eps: float, dim: int, a1: float = 1.0) -> "Geometry":
        """The spheres a1 and a2 = a1 (1 + eps), with a2 rounded to a float.

        Energies and their ``error_estimate`` refer to the stored radii, whose
        gap can differ from the decimal eps by an ulp of a2: from_eps(0.05, D)
        has ``eps`` 0.050000000000000044.  An energy ~ eps^-(D-1) then moves by
        about (D-1) ulp(a2) / eps relative, which the estimate does not cover.
        """
        return cls(a1=a1, a2=a1 * (1.0 + eps), dim=dim)

    def widened(self, new_d: float) -> "Geometry":
        """Same inner sphere, new separation."""
        return Geometry(a1=self.a1, a2=self.a1 + new_d, dim=self.dim)


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rules for the angular and Matsubara sums.

    ``rel_tol`` is the target relative accuracy of the returned energy;
    the hard caps bound the angular and frequency sums regardless.
    """

    rel_tol: float = 1e-9
    l_max_hard: int = 20000
    p_max_hard: int = 10**6

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-3):
            raise ValueError(f"rel_tol must lie in (0, 1e-3], got {self.rel_tol}")
        for cap in (self.l_max_hard, self.p_max_hard):
            if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
                raise ValueError(f"hard caps must be positive integers, got {cap!r}")


@dataclass(frozen=True)
class EnergyResult:
    """An energy value with its per-channel split and truncation diagnostics."""

    value: float
    per_channel: dict[str, float]
    l_used: int
    p_used: int
    error_estimate: float
    warnings: tuple[str, ...] = field(default=())
