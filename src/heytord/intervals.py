"""Open subsets of the rationals as finite unions of open intervals.

This is the infinite, finitely-representable complete Heyting algebra used by
the incomparable-ordinal witness.  Elements are canonical: sorted, disjoint,
non-adjacent open intervals with exact rational (or infinite) endpoints.  Two
intervals meeting at a single rational do NOT merge — the meeting point is a
carrier point that neither interval contains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ivcore
from .errors import LiteralParseError, NotEnumerableError
from .ivcore import NEG_INF, POS_INF, is_inf


@dataclass(frozen=True)
class IntervalSet:
    """Canonical finite union of open rational intervals."""

    ivs: tuple  # of (lo, hi) pairs, endpoints Fraction or infinity sentinel

    def is_bottom(self):
        return not self.ivs

    def is_top(self):
        return self.ivs == ((NEG_INF, POS_INF),)

    def __repr__(self):
        return f"IntervalSet({format_interval_set(self)!r})"


BOT = IntervalSet(())
TOP = IntervalSet(((NEG_INF, POS_INF),))


def _masks(*pair_lists):
    """ivcore masks of (lo, hi) pair lists over their merged finite endpoints,
    and those points in increasing order."""
    points = sorted({v for pairs in pair_lists for pair in pairs for v in pair if not is_inf(v)})
    pos = {v: i for i, v in enumerate(points)}
    pos[NEG_INF], pos[POS_INF] = -1, len(points)
    masks = []
    for pairs in pair_lists:
        m = 0
        for lo, hi in pairs:
            m |= ivcore.span(pos[lo], pos[hi])
        masks.append(m)
    return masks, points


def _to_set(m, points):
    """The canonical IntervalSet of an open mask over points: one interval per run."""
    ends = (NEG_INF, *points, POS_INF)
    return IntervalSet(tuple((ends[lo + 1], ends[hi + 1]) for lo, hi in ivcore.normalize(m)))


def iv_canon(pairs):
    """Canonicalize raw (lo, hi) open intervals; pairs with lo >= hi drop silently."""
    (m,), points = _masks(pairs)
    return _to_set(m, points)


def iv_meet(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    if a.is_bottom() or b.is_top():
        return a
    if b.is_bottom() or a.is_top():
        return b
    (ma, mb), points = _masks(a.ivs, b.ivs)
    return _to_set(ivcore.intersect(ma, mb), points)


def iv_join(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    if a.is_bottom() or b.is_top():
        return b
    if b.is_bottom() or a.is_top():
        return a
    (ma, mb), points = _masks(a.ivs, b.ivs)
    return _to_set(ivcore.union(ma, mb), points)


def iv_lattice(a: IntervalSet, b: IntervalSet):
    """(meet, join) of two canonical interval sets."""
    return iv_meet(a, b), iv_join(a, b)


def iv_imp(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Relative pseudo-complement: interior of (complement of a) union b."""
    if a.is_bottom() or b.is_top():
        return TOP
    if a.is_top():
        return b
    (ma, mb), points = _masks(a.ivs, b.ivs)
    n = len(points)
    return _to_set(ivcore.interior(ivcore.union(ivcore.complement(ma, n), mb), n), points)


def point_complement(q: Fraction) -> IntervalSet:
    return IntervalSet(((NEG_INF, q), (q, POS_INF)))


def contains_rational(a: IntervalSet, q: Fraction) -> bool:
    return any(lo < q < hi for lo, hi in a.ivs)


class IntervalAlgebra:
    """The complete Heyting algebra of open sets of the rationals."""

    name = "interval"
    finite = False

    def bottom(self):
        return BOT

    def top(self):
        return TOP

    def meet(self, a, b):
        return iv_meet(a, b)

    def join(self, a, b):
        return iv_join(a, b)

    def imp(self, a, b):
        return iv_imp(a, b)

    def neg(self, a):
        return iv_imp(a, BOT)

    def le(self, a, b):
        if a.is_bottom() or b.is_top():
            return True
        (ma, mb), _ = _masks(a.ivs, b.ivs)
        return ivcore.subset(ma, mb)

    def is_element(self, a):
        return isinstance(a, IntervalSet)

    def enumerate_elements(self):
        raise NotEnumerableError("the interval algebra has infinitely many elements")

    def format_element(self, a):
        return format_interval_set(a)

    def parse_element(self, text):
        return parse_interval_set(text)

    def sample_elements(self, rng, n, span=8):
        """Seeded random canonical elements for law checking."""
        out = []
        for _ in range(n):
            pairs = []
            for _ in range(rng.randrange(0, 4)):
                a = Fraction(rng.randrange(-span, span), rng.randrange(1, 5))
                b = Fraction(rng.randrange(-span, span), rng.randrange(1, 5))
                if a == b:
                    continue
                pairs.append((min(a, b), max(a, b)))
            if pairs and rng.randrange(4) == 0:
                lo, hi = pairs[0]
                pairs[0] = (NEG_INF, hi)
            if pairs and rng.randrange(4) == 0:
                lo, hi = pairs[-1]
                pairs[-1] = (lo, POS_INF)
            out.append(iv_canon(pairs))
        return out


def format_rational(v) -> str:
    if v is NEG_INF or v == NEG_INF:
        return "-inf"
    if v is POS_INF or v == POS_INF:
        return "+inf"
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def parse_rational(text: str):
    text = text.strip()
    if text == "-inf":
        return NEG_INF
    if text in ("+inf", "inf"):
        return POS_INF
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise LiteralParseError(f"bad rational {text!r}") from exc


def format_interval_set(a: IntervalSet) -> str:
    if a.is_bottom():
        return "0"
    if a.is_top():
        return "1"
    return "|".join(f"({format_rational(lo)},{format_rational(hi)})" for lo, hi in a.ivs)


def parse_interval_set(text: str, param=None):
    """Element literal: `0`, `1`, unions of `(l,r)` by `|`, `!r` point complements.

    Given the name of a family parameter, that name may also stand as `r`,
    `l` or `r`, and the result is the literal's list of (lo, hi) pairs, with
    the name for the parameter's value: the body of a one-parameter family."""
    text = text.strip()
    pairs = [(NEG_INF, POS_INF)] if text == "1" else []
    for part in () if text in ("0", "1") else text.split("|"):
        part = part.strip()
        if not part:
            raise LiteralParseError("empty union component in interval literal")
        if part.startswith("!"):
            q = _endpoint(part[1:], param)
            if is_inf(q):
                raise LiteralParseError("point complement needs a rational point")
            pairs.extend([(NEG_INF, q), (q, POS_INF)])
            continue
        if not (part.startswith("(") and part.endswith(")")):
            raise LiteralParseError(f"bad interval {part!r}")
        body = part[1:-1]
        if body.count(",") != 1:
            raise LiteralParseError(f"bad interval {part!r}")
        lo, hi = (_endpoint(s, param) for s in body.split(","))
        # with the parameter at one end, emptiness depends on the parameter's value
        if lo == hi or lo is POS_INF or hi is NEG_INF or (param not in (lo, hi) and not lo < hi):
            raise LiteralParseError(f"interval {part!r} needs lo < hi")
        pairs.append((lo, hi))
    return iv_canon(pairs) if param is None else pairs


def _endpoint(text, param):
    text = text.strip()
    return text if text == param else parse_rational(text)
