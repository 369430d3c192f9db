"""H-valued sets and the mutually recursive membership/equality semantics.

An HSet is a finite list of (element, label) entries plus optional parametric
family entries; labels live in one fixed Heyting algebra per universe.  Truth
values follow the standard clauses

    [u in v] = join over entries (e,l) of v of  l meet [e = u]
    [u = v]  = meet over entries (e,l) of u of  l imp  [e in v],  both sides

with family entries contributing infinite joins/meets computed symbolically
through interval templates.  Nodes and truth values are hash-consed per
universe; both truth functions are memoized on node keys, the lattice
operations are answered from a table keyed by value ids, and everything is
reproducible with the memo off.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from functools import cache, partial
from typing import NamedTuple

from . import hf as hfmod
from .errors import DepthExceededError, NotEnumerableError
from .order import UpsetAlgebra
from .templates import (
    Template,
    eliminate_param,
    rename_param,
    template_op,
)

FORMAL = "q"  # formal parameter name inside stored family templates


class Family(NamedTuple):
    domain: tuple
    elem: "ParamHSet"
    label: object  # algebra element or Template over the formal parameter


class HSet:
    """Interned H-valued set node.  key, its id, is its truth-memo key; ikey is
    its intern key: (child id, label id) pairs sorted by child id, and
    ((elem id, domain), label id) pairs for the families."""

    __slots__ = ("id", "key", "entries", "families", "rank", "ikey")
    syms = ()  # no live family parameter

    def __init__(self, id, entries, families, rank, ikey):
        self.id = self.key = id
        self.entries = entries
        self.families = families
        self.rank = rank
        self.ikey = ikey

    def __repr__(self):
        return f"<HSet #{self.id} rank {self.rank}>"


class ParamHSet:
    """Interned one-parameter H-set shape used as a family's element template."""

    __slots__ = ("id", "entries", "rank")
    families = ()

    def __init__(self, id, entries, rank):
        self.id = id
        self.entries = entries
        self.rank = rank

    def __repr__(self):
        return f"<ParamHSet #{self.id}>"


class PBound:
    """A family element template with its parameter opened as the live symbol
    sym: interned per universe, its children opened and its labels renamed
    to sym once.  It reads like an HSet node with no families; its key is a
    negative int, unique in its universe."""

    __slots__ = ("entries", "syms", "key")
    families = ()
    ikey = ((), ())  # no HSet is one of its children by key

    def __init__(self, key, sym, entries):
        self.entries = entries
        self.syms = (sym,)
        self.key = key


def _value_op(algebra, op, x, y):
    """meet, join or imp of two values, computed afresh; pointwise on templates."""
    if isinstance(x, Template) or isinstance(y, Template):
        return template_op(x, y, op)
    return getattr(algebra, op)(x, y)


_OPS = ("meet", "join", "imp")


def _interner(vals):
    """(vid, vals, by_obj) for values interned in first-seen order after vals.

    vid(x) is the id of x's canonical value vals[id].  by_obj maps id() of
    canonical values only, which vals keeps alive, so an id() found there
    cannot belong to another object; other values are looked up by value."""
    by_value = {v: i for i, v in enumerate(vals)}
    by_obj = {id(v): i for i, v in enumerate(vals)}

    def vid(x):
        i = by_obj.get(id(x))
        if i is None:
            i = by_value.get(x)
            if i is None:
                i = by_value[x] = len(vals)
                vals.append(x)
                by_obj[id(x)] = i
        return i

    return vid, vals, by_obj


def _tabled_op(op, algebra, table, vid, vals, by_obj):
    """op on interned values, answered from table and filled on first use."""

    def tabled(x, y):
        try:
            return table[op, by_obj[id(x)], by_obj[id(y)]]
        except KeyError:  # a first use, or a value not yet interned
            key = (op, vid(x), vid(y))
            out = table.get(key)
            if out is None:
                out = table[key] = vals[vid(_value_op(algebra, op, x, y))]
            return out

    return tabled


def _eliminate(val, sym, mode):
    if isinstance(val, Template) and sym in [n for n, _ in val.params]:
        return eliminate_param(val, sym, mode)
    return val


def _rename_formal(lab, sym):
    return rename_param(lab, FORMAL, sym) if isinstance(lab, Template) else lab


class Universe:
    """One algebra; hash-cons tables for nodes and for truth values; one memo.

    Every truth value has a small int id in its universe, and node keys use
    label ids.  An up-set mask is its own id; interval sets and templates are
    interned in first-seen order, so bottom is id 0 in every algebra.  With
    the memo on, the meet, join and imp of interval values, and eliminate and
    the renaming of family labels in every algebra, are answered from one
    table keyed by op and ids, filled on first use; masks meet and join by &
    and |, and their imp is cached per pair.  ``memo=False`` turns off these
    caches, the truth memo and the ordinal sum memo alike: every value is
    then computed afresh, which makes it the cache-free reference.
    """

    def __init__(self, algebra, memo=True):
        self.algebra = algebra
        self.memo_enabled = memo
        self._memo = {}
        self._hs = {}
        self._ph = {}
        self._pb = {}
        self._next_id = 0
        self._embed_cache = {}
        self._numeral_ids = {}
        self.constants = {}
        self._bot, self._top = algebra.bottom(), algebra.top()
        self._table = {} if memo else None
        self._bind_values()
        self._top_id = self._vid(self._top)
        self.empty = self.make_hset(())
        self._add_memo = {}

    # --- truth values -----------------------------------------------------------

    def _bind_values(self):
        """Bind _vid (value -> id), _vals (id -> canonical value) and the
        lattice operations vmeet, vjoin and vimp."""
        alg, table = self.algebra, self._table
        if isinstance(alg, UpsetAlgebra):
            self._vid, self._vals = operator.index, range(alg.full + 1)
        else:
            self._vid, self._vals, by_obj = _interner([self._bot, self._top])
        if table is None:
            ops = (partial(_value_op, alg, op) for op in _OPS)
        elif isinstance(alg, UpsetAlgebra):  # meet and join of masks are & and |
            ops = (operator.and_, operator.or_, cache(alg.imp))
        else:
            ops = (_tabled_op(op, alg, table, self._vid, self._vals, by_obj) for op in _OPS)
        self.vmeet, self.vjoin, self.vimp = ops

    def _tabled(self, key, compute, *args):
        """compute(*args) as a canonical value, from the table when it is on."""
        if self._table is None:
            return compute(*args)
        out = self._table.get(key)
        if out is None:
            out = self._table[key] = self._vals[self._vid(compute(*args))]
        return out

    def vneg(self, x):
        return self.vimp(x, self._bot)

    def eliminate(self, val, sym, mode):
        """Quantify the live parameter sym out of val: mode 'meet' or 'join'."""
        return self._tabled(("elim", self._vid(val), sym, mode), _eliminate, val, sym, mode)

    def _formal_as(self, lab, sym):
        """A stored family label, with the formal parameter renamed to sym."""
        return self._tabled(("ren", self._vid(lab), sym), _rename_formal, lab, sym)

    # --- construction -------------------------------------------------------

    def _merged(self, items):
        """(key, payload, label id) for (key, payload, label) items, sorted by
        key: bottom labels dropped, the labels of a repeated key joined."""
        vid, vals, join = self._vid, self._vals, self.vjoin
        merged = {}
        for k, payload, lab in items:
            i = vid(lab)
            if i == 0:  # bottom
                continue
            old = merged.get(k)
            if old is not None:
                i = vid(join(vals[old[1]], lab))
            merged[k] = (payload, i)
        return [(k, *merged[k]) for k in sorted(merged)]

    def make_hset(self, entries, families=()) -> HSet:
        ent = self._merged((c.id, c, l) for c, l in entries)
        fams = self._merged(((f.elem.id, f.domain), f, f.label) for f in families)
        key = (tuple((k, i) for k, _, i in ent), tuple((k, i) for k, _, i in fams))
        node = self._hs.get(key)
        if node is None:
            vals = self._vals
            ranks = [c.rank + 1 for _, c, _ in ent] + [f.elem.rank + 1 for _, f, _ in fams]
            node = self._intern(
                key,
                tuple((c, vals[i]) for _, c, i in ent),
                tuple(Family(f.domain, f.elem, vals[i]) for _, f, i in fams),
                max(ranks, default=0),
            )
        return node

    def _intern(self, key, entries, families, rank) -> HSet:
        node = self._hs[key] = HSet(self._next_id, entries, families, rank, key)
        self._next_id += 1
        return node

    def succ(self, u: HSet) -> HSet:
        """u union {u}, from u's stored key.  The new entry (u @ top) sorts last
        and never merges, since a node's children all have smaller ids than
        the node, so the key is u's entry key plus (u.id, top id)."""
        ent, fams = u.ikey
        key = (ent + ((u.id, self._top_id),), fams)
        node = self._hs.get(key)
        if node is None:
            node = self._intern(key, u.entries + ((u, self._top),), u.families, u.rank + 1)
        return node

    def make_param_hset(self, entries) -> ParamHSet:
        ent = self._merged(((isinstance(c, ParamHSet), c.id), c, l) for c, l in entries)
        key = tuple((k, i) for k, _, i in ent)
        node = self._ph.get(key)
        if node is None:
            vals = self._vals
            rank = 1 + max((c.rank for _, c, _ in ent), default=0)
            node = ParamHSet(self._next_id, tuple((c, vals[i]) for _, c, i in ent), rank)
            self._next_id += 1
            self._ph[key] = node
        return node

    def _open(self, ph: ParamHSet, sym: str, domain) -> PBound:
        """ph with its parameter opened as sym over domain, interned."""
        key = (ph.id, sym, domain)
        node = self._pb.get(key)
        if node is None:
            entries = tuple(
                (self._open(c, sym, domain) if isinstance(c, ParamHSet) else c, self._formal_as(l, sym))
                for c, l in ph.entries
            )
            node = self._pb[key] = PBound(-1 - len(self._pb), sym, entries)
        return node

    def embed(self, x: frozenset) -> HSet:
        """Check-set embedding of a hereditarily finite set: all labels top."""
        node = self._embed_cache.get(x)
        if node is None:
            top = self._top
            node = self.make_hset([(self.embed(c), top) for c in hfmod.hf_sorted(x)])
            self._embed_cache[x] = node
        return node

    def numeral(self, n: int) -> HSet:
        node = self.embed(hfmod.numeral(n))
        self._numeral_ids[node.id] = n
        return node

    def numeral_of(self, u: HSet):
        n = self._numeral_ids.get(u.id)
        if n is not None:
            return n
        if u.families or any(l != self._top for _, l in u.entries):
            return None
        cand = len(u.entries)
        if self.numeral(cand) is u:
            return cand
        return None

    def bind_constant(self, name: str, u: HSet):
        self.constants[name] = u

    # --- membership and equality ----------------------------------------------

    def _fresh_sym(self, taken):
        i = 0
        while f"q{i}" in taken:
            i += 1
        if len(taken) + 1 > 2:
            raise DepthExceededError("more than two family parameters would be live")
        return f"q{i}"

    def family_term(self, fam: Family, mode: str, body, taken):
        """A family's term in a bounded quantifier over its elements.  With the
        element opened at a fresh symbol s not in taken: 'all' gives the meet
        over s of label imp body(elem), 'ex' the join of label meet body(elem)."""
        sym = self._fresh_sym(taken)
        lab = self._formal_as(fam.label, sym)
        inner = body(self._open(fam.elem, sym, fam.domain))
        if mode == "all":
            return self.eliminate(self.vimp(lab, inner), sym, "meet")
        return self.eliminate(self.vmeet(lab, inner), sym, "join")

    def truth_eq(self, a, b):
        ka, kb = a.key, b.key
        if ka == kb:
            return self._top
        key = (ka, kb, 0) if ka < kb else (kb, ka, 0)
        if self.memo_enabled:
            hit = self._memo.get(key)
            if hit is not None:
                return hit
        bot, top = self._bot, self._top
        val = top
        for x, other in ((a, b), (b, a)):
            for child, lab in x.entries:
                if val == bot:
                    break
                t = self.truth_mem(child, other)
                if lab is not top:
                    t = self.vimp(lab, t)
                val = t if val is top else self.vmeet(val, t)
            for fam in x.families:
                if val == bot:
                    break
                term = self.family_term(fam, "all", partial(self.truth_mem, v=other), other.syms)
                val = term if val is top else self.vmeet(val, term)
        if self.memo_enabled:
            self._memo[key] = val
        return val

    def truth_mem(self, u, v):
        key = (u.key, v.key)
        if self.memo_enabled:
            hit = self._memo.get(key)
            if hit is not None:
                return hit
        bot, top = self._bot, self._top
        val = bot
        # an entry (u, l) of v is the joinand l meet [u = u] = l
        ent = v.ikey[0]
        j = bisect_left(ent, (u.key,))
        if j < len(ent) and ent[j][0] == u.key:
            val = v.entries[j][1]
            if val is top:
                return top
        for child, lab in v.entries:
            if val == top:
                break
            t = self.truth_eq(child, u)
            if lab is not top:
                t = self.vmeet(lab, t)
            val = t if val is bot else self.vjoin(val, t)
        for fam in v.families:
            if val == top:
                break
            term = self.family_term(fam, "ex", partial(self.truth_eq, b=u), u.syms)
            val = term if val is bot else self.vjoin(val, term)
        if self.memo_enabled:
            self._memo[key] = val
        return val

    # --- enumeration ------------------------------------------------------------

    def enumerate_hsets(self, rank: int, budget: int = 4000, seed: int = 0):
        """All canonical HSets of rank <= rank over non-bottom labels, exhaustive
        while the level fits the budget, then a seeded sample filling it."""
        import itertools
        import random

        if not self.algebra.finite:
            raise NotEnumerableError("cannot enumerate H-sets over an infinite algebra")
        labels = [l for l in self.algebra.enumerate_elements() if l != self.algebra.bottom()]
        options = [None] + labels
        pool = [self.empty]
        seen = {self.empty.id}
        rng = random.Random(seed)
        for _ in range(rank):
            base = list(pool)
            if len(pool) >= budget:
                break
            total = len(options) ** len(base)
            if total <= budget:
                for assignment in itertools.product(options, repeat=len(base)):
                    u = self.make_hset(
                        [(c, l) for c, l in zip(base, assignment) if l is not None]
                    )
                    if u.id not in seen:
                        seen.add(u.id)
                        pool.append(u)
            else:
                guard = 0
                while len(pool) < budget and guard < budget * 20 + 1000:
                    guard += 1
                    u = self.make_hset(
                        [
                            (c, l)
                            for c in base
                            for l in [options[rng.randrange(len(options))]]
                            if l is not None
                        ]
                    )
                    if u.id not in seen:
                        seen.add(u.id)
                        pool.append(u)
        return pool

    # --- formatting ---------------------------------------------------------------

    def format_hset(self, u) -> str:
        if isinstance(u, HSet):
            n = self.numeral_of(u)
            if n is not None:
                return f"#{n}"
        parts = [f"{self.format_hset(c)} @ {self._format_label(l)}" for c, l in u.entries]
        for fam in u.families:
            dom = "QQ" if fam.domain == ("all",) else self._format_dom(fam.domain)
            parts.append(f"fam {FORMAL} in {dom} : {self.format_hset(fam.elem)} @ {self._format_label(fam.label)}")
        return "{" + ", ".join(parts) + "}"

    def _format_dom(self, dom):
        from .intervals import format_rational

        return f"({format_rational(dom[1])},{format_rational(dom[2])})"

    def _format_label(self, l) -> str:
        if not isinstance(l, Template):
            return self.algebra.format_element(l)
        from .intervals import format_rational
        from .templates import point_complement_body, template_from_body

        name = l.params[0][0]
        pc = template_from_body(point_complement_body(name), ((name, l.params[0][1]),))
        if l == pc:
            return f"!{FORMAL}"

        def fmt(ep):
            if isinstance(ep, tuple):
                return format_rational(ep[1]) if ep[0] == "v" else FORMAL
            return format_rational(ep)

        # a row's body reads back as l only if it alone rebuilds l
        for _, body in l.table:
            symbolic = any(isinstance(ep, tuple) and ep[0] == "s" for pair in body for ep in pair)
            if symbolic and template_from_body(body, l.params) == l:
                return "|".join(f"({fmt(lo)},{fmt(hi)})" for lo, hi in body)
        return "<template>"


# --- module-level operation wrappers -------------------------------------------


def embed_check(U: Universe, v: frozenset) -> HSet:
    return U.embed(v)


def truth_mem(U: Universe, u, v):
    return U.truth_mem(u, v)


def truth_eq(U: Universe, u, v):
    return U.truth_eq(u, v)


def enumerate_hsets(U: Universe, rank: int, budget: int = 4000, seed: int = 0):
    return U.enumerate_hsets(rank, budget, seed)
