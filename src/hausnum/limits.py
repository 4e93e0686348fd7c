"""Size caps on every input the package accepts, each with the budget it is set from.

Timings are wall clock on a 2-vCPU VM with Python 3.11.  The modules that
enforce a cap import it from here under the same name.  This module imports
nothing, so reading a cap loads no other part of the package.
"""

# Point sets are bit masks inside one machine word.
MAX_POINTS = 64
# Every built or read open family; one of 2**16 opens validates in under 1 s.
MAX_OPENS = 1 << 16
# A rejected family, scanned pair by pair to name its first failing pairs;
# at most 1.1 s for 4,096 sets, 4x per doubling.
REJECT_MAX_OPENS = 1 << 12
# Labeled walk, canonical forms and classes; at n = 7, counting the walk's leaves
# takes 24-39 s and listing the 4,535 classes from the poset engine 1.1-1.2 s.
ENUM_MAX_POINTS = 7
# Count tables, pinned by tests up to here; the poset engine takes 1.2-1.6 s at
# n = 8, and 16-21 s with a 250 MB peak at n = 9.
TABLE_MAX_POINTS = 8
# Stirling identity, one walk per k <= n; 0.02 s at n = 5, the n = 6 walk alone 0.6 s.
STIRLING_MAX_POINTS = 5
# Naive filter over 2**(2**n - 2) families: 16,384 at n = 4 (0.06 s), 2**30 at n = 5.
NAIVE_MAX_POINTS = 4
# Exhaustive neighbourhood-choice oracle; at most 0.02 s on any space with n = 5.
ORACLE_MAX_POINTS = 5
# Digits the text of a symbolic base coordinate or radius implies (its digits
# plus |exponent|): a radius, half the gap of two coordinates, then prints in at
# most 4,001 digits, under the interpreter's 4,300-digit int-string limit.
COORDINATE_MAX_DIGITS = 2000
