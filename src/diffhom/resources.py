"""Resource caps guarding the exact-arithmetic computations.

Every potentially large computation (monomial enumeration, coordinate boxes,
product spans) checks its size against a cap before starting and raises
ResourceLimitError when the cap would be exceeded.  Caps distinguish machine
limits from mathematical failures; the verification suite reports them as
skips.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import ConfigError, ResourceLimitError


@dataclass(frozen=True)
class ResourceCaps:
    max_basis_columns: int = 20000        # monomial columns in one jet linear system
    max_box: int = 20000                  # coordinate-box dimension (k+1)^d
    max_products: int = 200000            # rows in one span/rank computation
    membership_degree_cap: int = 24       # default degree bound for ideal membership
    max_enumeration: int = 2000000        # raw candidates in index enumerations

    def check(self, kind: str, value: int) -> None:
        cap = getattr(self, kind)
        if value > cap:
            raise ResourceLimitError(f"{kind}: needed {value}, cap is {cap}")


DEFAULT_CAPS = ResourceCaps()

_ENV_FIELDS = {
    "DIFFHOM_MAX_BASIS_COLUMNS": "max_basis_columns",
    "DIFFHOM_MAX_BOX": "max_box",
    "DIFFHOM_MAX_PRODUCTS": "max_products",
    "DIFFHOM_MEMBERSHIP_CAP": "membership_degree_cap",
    "DIFFHOM_MAX_ENUMERATION": "max_enumeration",
}


def caps_from_env(base: ResourceCaps | None = None) -> ResourceCaps:
    """Apply DIFFHOM_* environment overrides on top of ``base``."""
    caps = base if base is not None else DEFAULT_CAPS
    overrides = {}
    for env_name, field in _ENV_FIELDS.items():
        raw = os.environ.get(env_name)
        if raw is None:
            continue
        try:
            value = int(raw)
        except ValueError:
            value = 0  # reported below like any other non-positive value
        if value < 1:
            raise ConfigError(f"{env_name} must be a positive integer, got {raw!r}")
        overrides[field] = value
    return replace(caps, **overrides) if overrides else caps
