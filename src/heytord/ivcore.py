"""Open sets of a dense endless order with endpoints in n given points, as int
masks.

The n points, in increasing order, cut the order into n + 1 open gaps.  Bit
2i is the gap below point i and bit 2i + 1 is point i itself; bit 2n is the
gap above the last point.  A mask is any set of these pieces, so union,
intersection and complement are `|`, `&` and `~`.  Positions -1 and n stand
for the two infinities, so the open interval between positions lo < hi is
the run of bits 2lo + 2 .. 2hi.

A set is open when every point in it has both neighbouring gaps in it: every
open neighbourhood of a point meets both gaps beside it, a mask holds a gap
whole or not at all, and every gap is open.  So the opens are the up-sets of
the zigzag order in which each point lies below its two gaps, and they form
the finite Heyting algebra of those up-sets (Esakia duality).  Its meet and
join are `&` and `|`; the interior of a mask drops every point missing a
neighbouring gap, and imp(a, b) is the interior of ~a | b.
"""

from __future__ import annotations


class _Inf:
    __slots__ = ("sign",)

    def __init__(self, sign):
        self.sign = sign

    def __lt__(self, other):
        if isinstance(other, _Inf):
            return self.sign < other.sign
        return self.sign < 0

    def __gt__(self, other):
        if isinstance(other, _Inf):
            return self.sign > other.sign
        return self.sign > 0

    def __le__(self, other):
        return self == other or self < other

    def __ge__(self, other):
        return self == other or self > other

    def __eq__(self, other):
        return isinstance(other, _Inf) and other.sign == self.sign

    def __hash__(self):
        return hash(("_Inf", self.sign))

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"


NEG_INF = _Inf(-1)
POS_INF = _Inf(1)


def is_inf(v):
    return isinstance(v, _Inf)


def span(lo, hi):
    """Mask of the open interval between positions lo and hi; empty unless lo < hi."""
    return (1 << 2 * hi + 1) - (1 << 2 * lo + 2) if lo < hi else 0


def normalize(m):
    """The maximal runs of an open mask, in order, as (lo, hi) positions."""
    out = []
    while m:
        low = m & -m
        carry = m + low  # clears the lowest run and sets the bit just above it
        out.append(((low.bit_length() >> 1) - 1, ((carry & -carry).bit_length() - 2) >> 1))
        m &= carry
    return out


def union(a, b):
    return a | b


def intersect(a, b):
    return a & b


def complement(a, n):
    return ~a & (1 << 2 * n + 1) - 1


def interior(a, n):
    """Largest open mask below a; the gap bits of n points are (4**(n+1) - 1) // 3."""
    return a & ((4 ** (n + 1) - 1) // 3 | a << 1 & a >> 1)


def subset(a, b):
    return not a & ~b


def point_in(bit, a):
    return bool(a >> bit & 1)
