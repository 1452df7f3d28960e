"""Size caps and defaults.

Everything here is a desk-scale guard: the algorithms are exact but
factorial-sized, so each module refuses sizes beyond its cap instead of
grinding forever.
"""

import os

# Largest n for partition enumeration.
PARTITION_CAP = 12

# Largest n for full character tables.
CHARTABLE_CAP = 10

# Walk oracle: default cap and the absolute maximum.
WALK_CAP_DEFAULT = 7
WALK_CAP_HARD = 8

# Default degree cap for formal series parameters (z, w, beta, ...).
SERIES_CAP_DEFAULT = 6

# Default sheet-count cap for tau series.
TAU_NMAX_CAP = 8

# Seed used for reproducible random rational test points.
DEFAULT_SEED = 2014


def walk_cap() -> int:
    """Effective n cap for the walk oracle.

    HURWITZ_MAX_N overrides the default, but never beyond WALK_CAP_HARD;
    a value that is not an integer raises ValueError.
    """
    raw = os.environ.get("HURWITZ_MAX_N")
    if raw is None:
        return WALK_CAP_DEFAULT
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"HURWITZ_MAX_N must be an integer, got {raw!r}") from None
    return max(0, min(value, WALK_CAP_HARD))
