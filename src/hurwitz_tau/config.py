"""Size caps and defaults.

Everything here is a desk-scale guard: the algorithms are exact but
factorial-sized, so each module refuses sizes beyond its cap instead of
grinding forever.  The caps are constants; nothing reads the environment.
"""

# Largest n for partition enumeration.
PARTITION_CAP = 12

# Largest n for full character tables.
CHARTABLE_CAP = 10

# Largest n for the walk oracle and the enumeration of S_n behind it.
WALK_CAP = 8

# Default degree cap for formal series parameters (z, w, beta, ...).
SERIES_CAP_DEFAULT = 6

# Default sheet-count cap for tau series.
TAU_NMAX_CAP = 8

# Largest N for family_determinant, which expands over N 2^(N-1) column
# subsets (about 5 s at N = 10, a minute at N = 12).
DETERMINANT_CAP = 10

# Seed used for reproducible random rational test points.
DEFAULT_SEED = 2014

