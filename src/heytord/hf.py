"""Hereditarily finite sets at the meta level: frozensets of frozensets.

These serve as concrete keys for the antichain pipeline and as inputs to the
check-set embedding.  A canonical total order (rank, then size, then child
keys) makes every iteration deterministic.
"""

from __future__ import annotations

import re

from .errors import LiteralParseError

EMPTY = frozenset()
_WS = re.compile(r"\s*")
_DIGITS = re.compile(r"\d+")

_key_cache: dict = {}
_rank_cache: dict = {}
_numerals: list = [EMPTY]


def hf_rank(x: frozenset) -> int:
    r = _rank_cache.get(x)
    if r is None:
        r = 0 if not x else 1 + max(hf_rank(c) for c in x)
        _rank_cache[x] = r
    return r


def hf_key(x: frozenset):
    k = _key_cache.get(x)
    if k is None:
        k = (hf_rank(x), len(x), tuple(sorted(hf_key(c) for c in x)))
        _key_cache[x] = k
    return k


def hf_sorted(xs):
    return sorted(xs, key=hf_key)


def numeral(n: int) -> frozenset:
    """The von Neumann numeral n, one shared object per n.

    Each numeral is built from the shared previous one, so equal numerals and
    their members are identical objects and compare without recursing; two
    equal but distinct copies of numeral n take about 2**n steps to compare."""
    while len(_numerals) <= n:
        x = _numerals[-1]
        _numerals.append(x | {x})
    return _numerals[max(n, 0)]


def as_numeral(x: frozenset):
    """The n with x = numeral(n), or None."""
    n = len(x)
    return n if x == numeral(n) else None


def kpair(a: frozenset, b: frozenset) -> frozenset:
    """Kuratowski pair {{a},{a,b}}."""
    return frozenset({frozenset({a}), frozenset({a, b})})


def tc(x: frozenset) -> list:
    """Transitive closure {x} together with all hereditary members, sorted."""
    seen = set()
    stack = [x]
    while stack:
        y = stack.pop()
        if y in seen:
            continue
        seen.add(y)
        stack.extend(y)
    return hf_sorted(seen)


def format_hf(x: frozenset) -> str:
    n = as_numeral(x)
    if n is not None:
        return str(n)
    return "{" + ",".join(format_hf(c) for c in hf_sorted(x)) + "}"


def parse_hf(text: str) -> frozenset:
    """HF literal: nested braces of `{}` and decimal von Neumann numerals.

    The braces still open are kept on an explicit stack of member lists, so
    any nesting depth parses, in time linear in the text."""
    stack = []
    pos, end = 0, len(text)
    while True:  # a member is due at pos
        pos = _WS.match(text, pos).end()
        if pos >= end:
            raise LiteralParseError("unexpected end of HF literal")
        digits = _DIGITS.match(text, pos)
        if digits:
            pos = digits.end()
            value = numeral(int(digits.group()))
        elif text[pos] != "{":
            raise LiteralParseError(f"unexpected {text[pos]!r} in HF literal")
        else:
            pos = _WS.match(text, pos + 1).end()
            if not text.startswith("}", pos):
                stack.append([])
                continue
            pos += 1
            value = EMPTY
        while stack:  # value ends a member of the innermost open brace
            stack[-1].append(value)
            pos = _WS.match(text, pos).end()
            if pos >= end:
                raise LiteralParseError("unterminated HF literal")
            if text[pos] == ",":
                pos += 1
                break
            if text[pos] != "}":
                raise LiteralParseError(f"unexpected {text[pos]!r} in HF literal")
            pos += 1
            value = frozenset(stack.pop())
        else:
            pos = _WS.match(text, pos).end()
            if pos != end:
                raise LiteralParseError(f"trailing input in HF literal: {text[pos:]!r}")
            return value
