"""The world-state plane: one epoch-tagged store behind every layer.

:class:`WorldStore` owns the columnar world state (positions,
membership, external-id remap, query set); :class:`WorldSnapshot` is
the read-only zero-copy view one ``publish()`` hands to every consumer.
See DESIGN.md §10 for the ownership diagram and epoch lifecycle.
"""

from .snapshot import (
    OBJECT_REGION,
    ObjectDelta,
    PositionsLike,
    QueryDelta,
    WorldSnapshot,
    as_world_snapshot,
    check_object_points,
)
from .store import WorldStore

__all__ = [
    "OBJECT_REGION",
    "ObjectDelta",
    "PositionsLike",
    "QueryDelta",
    "WorldSnapshot",
    "WorldStore",
    "as_world_snapshot",
    "check_object_points",
]
