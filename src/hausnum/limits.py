"""Size caps on every input the package accepts, each with the budget it is set from.

Timings are wall clock on a 2-vCPU VM with Python 3.11.  The modules that
enforce a cap import it from here under the same name.  This module imports
nothing, so reading a cap loads no other part of the package.
"""

# Point sets are bit masks inside one machine word.
MAX_POINTS = 64
# Every built or read open family; one of 2**16 opens validates in under 1 s.
MAX_OPENS = 1 << 16
# Labeled walk and canonical forms; counting the walk's leaves takes 32 s at n = 7.
ENUM_MAX_POINTS = 7
# Count tables, pinned by tests up to here; the quotient engine takes 88 s at n = 9.
TABLE_MAX_POINTS = 6
# Stirling identity, one walk per k <= n; 0.02 s at n = 5, the n = 6 walk alone 0.6 s.
STIRLING_MAX_POINTS = 5
# Naive filter over 2**(2**n - 2) families: 16,384 at n = 4 (0.06 s), 2**30 at n = 5.
NAIVE_MAX_POINTS = 4
# Exhaustive neighbourhood-choice oracle; at most 0.02 s on any space with n = 5.
ORACLE_MAX_POINTS = 5
