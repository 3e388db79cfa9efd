"""The paper's motion model: bounded random displacements.

Between consecutive cycles every object is displaced by ``(u, v)`` with
``u, v`` i.i.d. uniform on ``[-vmax, vmax]`` (§3.2, "Mobility and
index-building").  Objects are kept inside the unit square by one of three
boundary policies; the paper's experiments keep the population constant, so
``reflect`` is the default.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError

_BOUNDARIES = ("reflect", "wrap", "clip")


def reflect_into_unit(points: np.ndarray) -> np.ndarray:
    """Reflect coordinates at the [0, 1] walls (billiard boundary).

    Handles displacements of any magnitude via the period-2 triangle wave.
    """
    folded = np.mod(points, 2.0)
    return np.where(folded > 1.0, 2.0 - folded, folded)


class RandomWalkModel:
    """Stateless-per-object random walk with bounded step size.

    Parameters
    ----------
    vmax:
        Maximum displacement per cycle along each axis (the paper default
        is 0.005 unless a figure sweeps it).
    boundary:
        ``reflect`` (default), ``wrap`` (torus), or ``clip``.
    seed:
        Seed for the internal random generator.
    update_fraction:
        Fraction of objects that move each cycle (default 1.0 — every
        object, the paper's setting).  Lower values model workloads
        where most objects report unchanged positions, the regime the
        sharded engine's delta-CSR patch path targets.
    """

    def __init__(
        self,
        vmax: float = 0.005,
        boundary: str = "reflect",
        seed: Optional[int] = None,
        update_fraction: float = 1.0,
    ) -> None:
        if vmax < 0.0:
            raise ConfigurationError(f"vmax must be >= 0, got {vmax}")
        if boundary not in _BOUNDARIES:
            raise ConfigurationError(
                f"boundary must be one of {_BOUNDARIES}, got {boundary!r}"
            )
        if not 0.0 <= update_fraction <= 1.0:
            raise ConfigurationError(
                f"update_fraction must be in [0, 1], got {update_fraction}"
            )
        self.vmax = vmax
        self.boundary = boundary
        self.update_fraction = update_fraction
        self._rng = np.random.default_rng(seed)

    def step(self, positions: np.ndarray) -> np.ndarray:
        """One cycle of motion; returns a new positions array."""
        positions = np.asarray(positions, dtype=np.float64)
        if self.vmax == 0.0 or self.update_fraction == 0.0:
            return positions.copy()
        displaced = positions + self._rng.uniform(
            -self.vmax, self.vmax, size=positions.shape
        )
        if self.update_fraction < 1.0:
            # Drawn *after* the displacements so update_fraction=1.0
            # replays the exact legacy stream for any given seed.
            frozen = self._rng.random(len(positions)) >= self.update_fraction
            displaced[frozen] = positions[frozen]
        if self.boundary == "reflect":
            moved = reflect_into_unit(displaced)
        elif self.boundary == "wrap":
            moved = np.mod(displaced, 1.0)
        else:
            moved = np.clip(displaced, 0.0, 1.0 - 1e-9)
        # Keep strictly inside the half-open square (reflection can land
        # exactly on 1.0).
        return np.clip(moved, 0.0, 1.0 - 1e-9)

    def run(self, positions: np.ndarray, cycles: int):
        """Yield ``cycles`` successive snapshots (not including the input)."""
        current = positions
        for _ in range(cycles):
            current = self.step(current)
            yield current
