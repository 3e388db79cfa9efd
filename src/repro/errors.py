"""Exception hierarchy for the ``repro`` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch one base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An index, workload, or monitor was configured with invalid parameters."""


class OutOfRegionError(ReproError):
    """A point lies outside the region a caller accepts.

    ``region`` names the checked region in the message; the default is
    the half-open unit square ``[0, 1)^2`` of the paper's region of
    interest.
    """

    def __init__(
        self, x: float, y: float, region: str = "the unit square [0, 1)^2"
    ) -> None:
        super().__init__(f"point ({x!r}, {y!r}) lies outside {region}")
        self.x = x
        self.y = y
        self.region = region


class NotEnoughObjectsError(ReproError):
    """A k-NN query was posed against a population with fewer than k objects."""

    def __init__(self, k: int, population: int) -> None:
        super().__init__(
            f"cannot answer a {k}-NN query over a population of {population} objects"
        )
        self.k = k
        self.population = population


class IndexStateError(ReproError):
    """An index operation was attempted in an invalid state.

    Examples: incremental maintenance before an initial build, removing an
    object from a cell that does not contain it.
    """
