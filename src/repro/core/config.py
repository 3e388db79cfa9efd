"""Typed per-method configuration behind ``build_system()``.

One frozen dataclass per monitoring method holds every tunable that
method accepts after ``(k, queries)``.  The dataclasses are the single
source of truth for *which* keyword arguments exist: the
:meth:`MethodConfig.from_kwargs` constructor rejects unknown names with
a :class:`~repro.errors.ConfigurationError` that lists the valid fields,
so a typo like ``ncell=64`` fails loudly instead of being swallowed by a
``**kwargs`` sink.  Value validation (mode strings, ranges) stays where
it always was — in the engine constructors — so direct engine users get
the same errors as ``build_system()`` users.

:data:`METHOD_CONFIGS` maps public method names to their config classes;
:func:`repro.engines.registry.build_system`, the bench presets, and the
session layer's config dicts all resolve methods through this registry.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import ClassVar, Dict, Mapping, Optional, Tuple, Type, Union

from ..errors import ConfigurationError


@dataclass(frozen=True)
class MethodConfig:
    """Base class for per-method configuration blocks.

    Subclasses are frozen dataclasses whose fields are exactly the
    keyword arguments the method's factory accepts after ``(k, queries)``
    (minus the system-level ``tau``/``registry``, which belong to
    :class:`~repro.core.monitor.MonitoringSystem` itself).
    """

    #: Public method name, set per subclass (class attribute, not a field).
    method: ClassVar[str] = ""

    @classmethod
    def valid_fields(cls) -> Tuple[str, ...]:
        """Names of the accepted configuration fields, declaration order."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_kwargs(cls, **kwargs) -> "MethodConfig":
        """Build a config, rejecting unknown keys with the valid names."""
        valid = cls.valid_fields()
        unknown = sorted(set(kwargs) - set(valid))
        if unknown:
            raise ConfigurationError(
                f"unknown option(s) {', '.join(map(repr, unknown))} for method "
                f"{cls.method!r}; valid fields: {', '.join(valid) or '(none)'}"
            )
        return cls(**kwargs)

    def merged(self, **overrides) -> "MethodConfig":
        """A copy with ``overrides`` applied (unknown keys rejected)."""
        valid = self.valid_fields()
        unknown = sorted(set(overrides) - set(valid))
        if unknown:
            raise ConfigurationError(
                f"unknown option(s) {', '.join(map(repr, unknown))} for method "
                f"{self.method!r}; valid fields: {', '.join(valid) or '(none)'}"
            )
        return replace(self, **overrides) if overrides else self

    def to_dict(self) -> Dict[str, object]:
        """A plain-dict form that :meth:`from_dict` round-trips exactly.

        The ``"method"`` key carries the registry name, so the dict is
        self-describing — bench presets, CLI argument blobs, and the
        session layer all serialize through this one shape.
        """
        out: Dict[str, object] = {"method": self.method}
        for name in self.valid_fields():
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MethodConfig":
        """Build a config from a plain dict, rejecting unknown keys.

        Called on :class:`MethodConfig` itself, the ``"method"`` key
        selects the concrete config class; called on a subclass the key
        is optional but must match.  Everything else goes through
        :meth:`from_kwargs`, so typos fail with the valid field names.
        """
        kwargs = dict(data)
        method = kwargs.pop("method", None)
        if cls is MethodConfig:
            if method is None:
                known = ", ".join(sorted(METHOD_CONFIGS))
                raise ConfigurationError(
                    f"config dict needs a 'method' key; known methods: {known}"
                )
            target = METHOD_CONFIGS.get(str(method))
            if target is None:
                known = ", ".join(sorted(METHOD_CONFIGS))
                raise ConfigurationError(
                    f"unknown method {method!r}; known: {known}"
                )
        else:
            target = cls
            if method is not None and method != cls.method:
                raise ConfigurationError(
                    f"config dict is for method {method!r}, not {cls.method!r}"
                )
        return target.from_kwargs(**kwargs)

    def _engine_kwargs(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.valid_fields()}


@dataclass(frozen=True)
class ObjectIndexingConfig(MethodConfig):
    """One-level grid Object-Indexing (paper §3.1/§3.2)."""

    method = "object_indexing"
    maintenance: str = "rebuild"
    answering: str = "overhaul"
    ncells: Optional[int] = None
    delta: Optional[float] = None


@dataclass(frozen=True)
class QueryIndexingConfig(MethodConfig):
    """Grid Query-Indexing (paper §3.3)."""

    method = "query_indexing"
    maintenance: str = "incremental"
    ncells: Optional[int] = None
    delta: Optional[float] = None


@dataclass(frozen=True)
class HierarchicalConfig(MethodConfig):
    """Hierarchical Object-Indexing (paper §4)."""

    method = "hierarchical"
    maintenance: str = "incremental"
    answering: str = "incremental"
    delta0: float = 0.1
    max_cell_load: int = 10
    split_factor: int = 3


@dataclass(frozen=True)
class RTreeConfig(MethodConfig):
    """R-tree baselines (paper §5.4)."""

    method = "rtree"
    maintenance: str = "overhaul"
    max_entries: int = 32


@dataclass(frozen=True)
class BruteForceConfig(MethodConfig):
    """Linear-scan oracle (testing ground truth)."""

    method = "brute_force"


@dataclass(frozen=True)
class FastGridConfig(MethodConfig):
    """Vectorized CSR grid engine (production fast path)."""

    method = "fast_grid"
    ncells: Optional[int] = None
    delta: Optional[float] = None


@dataclass(frozen=True)
class TPRConfig(MethodConfig):
    """Predictive TPR-tree engine (related-work baseline)."""

    method = "tpr"
    horizon: float = 10.0
    max_entries: int = 32
    tau: float = 1.0


@dataclass(frozen=True)
class ShardedConfig(MethodConfig):
    """Sharded parallel CSR engine (:mod:`repro.shard`)."""

    method = "sharded"
    workers: int = 2
    shards: Optional[int] = None
    seed_slack: float = 0.5
    task_timeout: float = 60.0
    heartbeat_every: int = 0
    oversubscribe: bool = False
    #: Re-cut stripe boundaries from live-population quantiles when the
    #: ``shard.imbalance_ratio`` gauge exceeds this (0 disables).
    rebalance_threshold: float = 0.0


#: Public method name -> config class; the single method registry.
METHOD_CONFIGS: Dict[str, Type[MethodConfig]] = {
    cfg.method: cfg
    for cfg in (
        ObjectIndexingConfig,
        QueryIndexingConfig,
        HierarchicalConfig,
        RTreeConfig,
        BruteForceConfig,
        FastGridConfig,
        TPRConfig,
        ShardedConfig,
    )
}


def resolve_config(
    method: str,
    config: Optional[Union[MethodConfig, Mapping[str, object]]] = None,
    overrides: Optional[Dict[str, object]] = None,
) -> MethodConfig:
    """The effective config for ``method``: defaults or ``config``, plus
    ``overrides``.  ``config`` may be a typed block or a plain mapping
    (routed through :meth:`MethodConfig.from_dict`; its ``"method"`` key,
    if present, must match).  Raises :class:`ConfigurationError` on an
    unknown method, a config of the wrong type, or unknown names."""
    cls = METHOD_CONFIGS.get(method)
    if cls is None:
        known = ", ".join(sorted(METHOD_CONFIGS))
        raise ConfigurationError(f"unknown method {method!r}; known: {known}")
    if config is None:
        return cls.from_kwargs(**(overrides or {}))
    if isinstance(config, Mapping):
        config = cls.from_dict(config)
    if not isinstance(config, cls):
        raise ConfigurationError(
            f"config for method {method!r} must be a {cls.__name__}, "
            f"got {type(config).__name__}"
        )
    return config.merged(**(overrides or {}))
