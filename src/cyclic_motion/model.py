"""Model parameters, directions, and boundary strata.

The motion moves at constant speed ``c`` in dimension ``d`` and cycles
through the 2d directions ``+e_1, ..., +e_d, -e_1, ..., -e_d`` (in that
order, wrapping around) at the event times of a Poisson(``lam``)
process.  The L1 radius ``u = sum(|x_i|)`` locates the particle on a
homothetic layer of the support cross-polytope ``sum(|x_i|) <= ct``.

Paths with fewer than ``d`` events have not yet visited ``d`` distinct
axes and therefore still sit on the outer shell ``u = ct``; their
location there is classified by `classify_stratum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def require_int(value, name: str) -> int:
    """``value`` as an int, or ValueError naming it unless it is an
    integer: int() would truncate 2.7 to 2 and take True as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ModelParams:
    """Speed, switching rate, and dimension of the motion."""

    c: float
    lam: float
    dim: int = 2

    def __post_init__(self):
        if not (self.c > 0 and np.isfinite(self.c)):
            raise ValueError(f"speed c must be positive and finite, got {self.c}")
        if not (self.lam > 0 and np.isfinite(self.lam)):
            raise ValueError(f"rate lam must be positive and finite, got {self.lam}")
        if not 1 <= require_int(self.dim, "dim") <= 8:
            raise ValueError(f"dim must be in 1..8, got {self.dim}")

    @property
    def n_directions(self) -> int:
        return 2 * self.dim


def require_horizon(t: float, name: str = "horizon") -> float:
    """``t`` as a float, or ValueError unless it is finite and > 0."""
    t = float(t)
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"{name} must be finite and > 0, got {t}")
    return t


@dataclass(frozen=True)
class Direction:
    """One of the 2d cycle directions, indexed 1..2d.

    Index j <= d is the unit vector +e_j; index j > d is -e_{j-d}.
    """

    index: int
    dim: int

    def __post_init__(self):
        index = require_int(self.index, "direction index")
        if not 1 <= index <= 2 * require_int(self.dim, "dim"):
            raise ValueError(
                f"direction index {self.index} outside 1..{2 * self.dim}")

    @property
    def axis(self) -> int:
        """0-based axis of the single nonzero component."""
        return (self.index - 1) % self.dim

    @property
    def sign(self) -> int:
        return 1 if self.index <= self.dim else -1


VERTEX = "vertex"
INTERIOR = "interior"


def face_label(n: int) -> str:
    """Label of the shell stratum reached after n < dim events."""
    return f"face{n}"


def classify_stratum(n_events: int, dim: int) -> str:
    """Stratum of an outcome: 'vertex', 'face1'..'face{d-1}', or 'interior'.

    A path with n < dim events has moved along n+1 distinct axes and
    sits on an n-dimensional face of the shell (a vertex for n = 0);
    with n >= dim events the position is in the open interior almost
    surely.
    """
    if require_int(n_events, "n_events") < 0:
        raise ValueError("n_events must be >= 0")
    if n_events >= dim:
        return INTERIOR
    if n_events == 0:
        return VERTEX
    return face_label(n_events)


def stratum_labels(dim: int) -> list[str]:
    """All strata in canonical order: vertex, face1, ..., interior."""
    return [VERTEX] + [face_label(k) for k in range(1, dim)] + [INTERIOR]
