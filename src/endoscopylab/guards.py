"""Enumeration caps, overridable through the ENDOSCOPYLAB_GUARD variable, and
the default seed of the randomized checks."""

from __future__ import annotations

import os

__all__ = [
    "GuardError",
    "guard_limit",
    "DEFAULT_BRUTE_GUARD",
    "DEFAULT_CHAIN_GUARD",
    "DEFAULT_SEED",
]

DEFAULT_BRUTE_GUARD = 10**6
DEFAULT_CHAIN_GUARD = 10**5
DEFAULT_SEED = 1729


class GuardError(RuntimeError):
    """An enumeration would exceed the configured cap."""


def guard_limit(explicit: int | None, default: int) -> int:
    """Resolve a cap: explicit argument, then env override, then the default."""
    if explicit is not None:
        if explicit < 1:
            raise ValueError(f"guard cap must be positive, got {explicit}")
        return explicit
    env = os.environ.get("ENDOSCOPYLAB_GUARD")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"ENDOSCOPYLAB_GUARD must be an integer, got {env!r}")
        if value < 1:
            raise ValueError(f"ENDOSCOPYLAB_GUARD must be positive, got {env!r}")
        return value
    return default
