"""Size caps on every input the package accepts, each with the budget it is set from,
the rules for what an integer (``is_int``), a collection (``collection``) and a package
object (``instance``) are, and how a message shows an argument (``shown``).  Each rule
is written once, here, fast path included; every module calls it rather than inlining a copy.

Timings are wall clock on a 2-vCPU VM with Python 3.11.  The modules that
enforce a cap import it from here under the same name.  This module imports
nothing, so reading a cap loads no other part of the package.
"""

# Points of a topology: bounds the point lists and the O(n^2) work built for n.
MAX_POINTS = 64
# Every built or read open family; one of 2**16 opens validates in under 1 s.
MAX_OPENS = 1 << 16
# A rejected family, searched pair by pair once per rule to name its first failing
# pairs; 0.8-1.0 s for 4,096 sets when both searches pass every pair, 4x per doubling.
REJECT_MAX_OPENS = 1 << 12
# Labeled walk (it checks this for every client) and Stirling check (before its walks of
# k < n): at n = 7 the walk's 9,535,241 leaves take 14-20 s bare, 19-31 s as preorders and
# 17-24 s as topologies (Stirling, a walk per k <= n, 19-23 s); n = 8 has 67x the leaves.
ENUM_MAX_POINTS = 7
# Count tables, pinned by tests up to here; one poset engine pass gives both (all and
# T0): 0.8-1.2 s at n = 8, 10-17 s with an 82 MB peak at n = 9.  Class lists: 0.7-1.1 s
# at n = 7, 7-12 s (28 MB peak RSS) at n = 8, most of it the representatives.  Canonical forms:
# at n = 8 one takes 0.05 ms on average over one member per class, 0.5 ms at worst.
TABLE_MAX_POINTS = 8
# Naive filter over 2**(2**n - 2) families: 16,384 at n = 4 (0.06 s), 2**30 at n = 5.
NAIVE_MAX_POINTS = 4
# Exhaustive neighbourhood-choice oracle; at most 0.02 s on any space with n = 5.
ORACLE_MAX_POINTS = 5
# Digits the text of any symbolic number implies (digits plus |exponent|): a base
# coordinate, radius, `v:` index or `--verticals`.  A radius (half a gap) then prints
# in at most 4,001 digits and H = v + 2 in 2,001, under the 4,300-digit int limit.
COORDINATE_MAX_DIGITS = 2000
# Bytes of a JSON file read (a topology document or a cached table): the longest
# compact `opens` document of MAX_OPENS distinct sets on MAX_POINTS points has
# 11,480,569.  Reading and parsing 12 MB takes 0.4-1.0 s; `analyze` of that
# document 2.1 s in all, with a 75 MB peak.
MAX_DOCUMENT_BYTES = 12_000_000


def is_int(value) -> bool:
    """An ``int`` or int subclass, but not ``True`` or ``False`` (a plain int first)."""
    return type(value) is int or isinstance(value, int) and not isinstance(value, bool)


def shown(value, text=repr) -> str:
    """``text(value)`` for a message or a repr, ``repr`` or ``str`` as the text has it;
    an int or ``Fraction`` past the interpreter's int-string limit by its size instead."""
    try:
        return text(value)
    except ValueError:  # past the int-string limit, which neither repr nor str passes
        if not hasattr(value, "denominator"):  # a collection holding such a number
            return f"a {type(value).__name__} holding a number past the int-string limit"
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        return f"a {'negative' if value < 0 else 'positive'} {type(value).__name__} of {bits:,} bits"


def collection(value, error: type):
    """``value`` if ``iter`` accepts it (a ``str`` too; testing it consumes nothing);
    otherwise ``error``, the calling module's ``TopologyError`` type, is raised."""
    try:
        iter(value)
    except TypeError:
        raise error(f"expected a collection, got {shown(value)}") from None
    return value


def instance(value, kind, error: type, what: str):
    """``value`` if it is an instance of ``kind`` (a class or a tuple of them);
    otherwise ``error`` is raised with the message ``not a <what>: <shown(value)>``."""
    if isinstance(value, kind):
        return value
    raise error(f"not a {what}: {shown(value)}")
