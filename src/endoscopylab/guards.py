"""Enumeration caps, overridable through the ENDOSCOPYLAB_GUARD variable, and
the default seed of the randomized checks."""

from __future__ import annotations

import os

__all__ = [
    "GuardError",
    "guard_limit",
    "refuse_above",
    "DEFAULT_BRUTE_GUARD",
    "DEFAULT_CHAIN_GUARD",
    "DEFAULT_SEED",
]

DEFAULT_BRUTE_GUARD = 10**6
DEFAULT_CHAIN_GUARD = 10**5
DEFAULT_SEED = 1729


class GuardError(RuntimeError):
    """An enumeration would exceed the configured cap."""


def guard_limit(default: int) -> int:
    """The cap: ENDOSCOPYLAB_GUARD when set, else the default."""
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


def refuse_above(count: int, message: str, default=DEFAULT_CHAIN_GUARD, **fields) -> None:
    """Raise GuardError above the cap, formatting message with count, cap and fields."""
    cap = guard_limit(default)
    if count > cap:
        raise GuardError(message.format(count=count, cap=cap, **fields))
