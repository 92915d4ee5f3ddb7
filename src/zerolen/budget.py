"""Search-effort accounting shared by the enumeration modules."""

from __future__ import annotations

import os

DEFAULT_MAX_NODES = 400_000_000
_ENV_VAR = "ZEROLEN_MAX_NODES"


class ResourceLimitError(RuntimeError):
    """Raised when an enumeration would exceed its node budget; never truncates."""


def max_nodes() -> int:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_NODES
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc


_global_nodes = 0


def global_nodes() -> int:
    """Total nodes ticked by every counter in this process (telemetry)."""
    return _global_nodes


class NodeCounter:
    """Monotone counter with a hard cap; tick in batches to keep overhead low."""

    __slots__ = ("count", "limit")

    def __init__(self):
        self.count = 0
        self.limit = max_nodes()

    def tick(self, n: int = 1) -> None:
        global _global_nodes
        self.count += n
        _global_nodes += n
        if self.count > self.limit:
            raise ResourceLimitError(
                f"search exceeded the node budget of {self.limit} "
                f"(set {_ENV_VAR} to raise it)"
            )

