"""Parametric families of interval sets, closed under the lattice operations.

A Template denotes a function from one or two rational parameters to open
subsets of the rationals.  What gets enumerated is the *arrangement*: a slot
list that orders a fixed skeleton of rational cut points together with the
live parameter symbols, each symbol at a cut or at a fresh value inside a
gap, where it is tied with or ordered against the other symbols.  Within one
arrangement every endpoint comparison is decided, so a body is an ivcore mask
over the arrangement's slots, and lattice operations and the infinite
meets/joins are mask operations.  Rows are stored by the *order
configuration* read off each arrangement; a template's body in a finer
arrangement (more cuts, more symbols) is the row of the arrangement it
projects to.

Infinite meets take the interior of the symbolic intersection; infinite joins
are unions of opens and need no interior step.  Both are computed exactly by
case analysis on where a generic carrier point sits relative to the skeleton
and the surviving parameters: each placement of the point is one bit.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from . import ivcore
from .errors import ArityError, UnrepresentableJoinError
from .intervals import IntervalSet, iv_canon
from .ivcore import NEG_INF, POS_INF, is_inf

DOM_ALL = ("all",)

_POINT = "$p"  # reserved symbol for the generic carrier point during elimination

_REL_ORD = {None: 0, "lt": 1, "eq": 2, "gt": 3}


def dom_interval(lo: Fraction, hi: Fraction):
    if not lo < hi:
        raise ValueError("parameter domain interval needs lo < hi")
    return ("iv", lo, hi)


def _dom_endpoints(dom):
    return () if dom == DOM_ALL else (dom[1], dom[2])


def _dom_has_value(dom, v) -> bool:
    if dom == DOM_ALL:
        return True
    return dom[1] < v < dom[2]


def _gap_in_domain(cuts, g, dom) -> bool:
    if dom == DOM_ALL:
        return True
    return 0 < g < len(cuts) and dom[1] <= cuts[g - 1] and cuts[g] <= dom[2]


def _placement_key(pl):
    if pl[0] == "pt":
        return (0, pl[1], 0)
    return (1, pl[1], _REL_ORD[pl[2]])


def _cfg_key(cfg):
    return tuple(_placement_key(pl) for pl in cfg)


# --- arrangements: explicit linear orders of cuts and live symbols ----------


def _ep_pos(slots, cuts, ep):
    if ep is NEG_INF:
        return -1
    if ep is POS_INF:
        return len(slots)
    if ep[0] == "v":
        for i, slot in enumerate(slots):
            if slot[0] == "c" and cuts[slot[1]] == ep[1]:
                return i
        raise KeyError(f"constant {ep[1]} not in skeleton")
    for i, slot in enumerate(slots):
        if ep[1] in slot[2]:
            return i
    raise KeyError(f"symbol {ep[1]} not placed")


def _pos_ep(slots, cuts, pos):
    if pos < 0:
        return NEG_INF
    if pos >= len(slots):
        return POS_INF
    kind, i, syms = slots[pos]
    return ("v", cuts[i]) if kind == "c" else ("s", min(syms))


def _body_mask(slots, cuts, body):
    m = 0
    for lo, hi in body:
        m |= ivcore.span(_ep_pos(slots, cuts, lo), _ep_pos(slots, cuts, hi))
    return m


def _mask_body(slots, cuts, m):
    return tuple((_pos_ep(slots, cuts, lo), _pos_ep(slots, cuts, hi)) for lo, hi in ivcore.normalize(m))


def _place_new(slots, cuts, dom, name):
    """All placements of a fresh symbol: (new_slots, bit) pairs, bit being
    where the symbol sits in the mask layout of the ORIGINAL slots: a tie with
    slot i is point bit 2i + 1, an insertion before slot i gap bit 2i."""
    out = []
    for idx, slot in enumerate(slots):
        kind, i, syms = slot
        fits = _dom_has_value(dom, cuts[i]) if kind == "c" else _gap_in_domain(cuts, i, dom)
        if fits:
            ns = list(slots)
            ns[idx] = (kind, i, syms | {name})
            out.append((ns, 2 * idx + 1))
    # insertion points inside each admissible gap
    for g in range(len(cuts) + 1):
        if not _gap_in_domain(cuts, g, dom):
            continue
        start = 0
        for i, slot in enumerate(slots):
            if slot[0] == "c" and slot[1] == g - 1:
                start = i + 1
        end = len(slots)
        for i, slot in enumerate(slots):
            if slot[0] == "c" and slot[1] == g:
                end = i
                break
        assert all(slots[j][0] == "x" and slots[j][1] == g for j in range(start, end))
        for pos in range(start, end + 1):
            out.append((slots[:pos] + [("x", g, frozenset({name}))] + slots[pos:], 2 * pos))
    return out


def _arrangement_config(slots, params):
    """Recover the configuration of params from an explicit arrangement."""
    cfg = []
    positions = {}
    for i, slot in enumerate(slots):
        for n in slot[2]:
            positions[n] = (i, slot)
    for j, (name, _dom) in enumerate(params):
        i, slot = positions[name]
        if slot[0] == "c":
            cfg.append(("pt", slot[1]))
            continue
        g = slot[1]
        rel = None
        if j == 1:
            i0, slot0 = positions[params[0][0]]
            if slot0[0] == "x" and slot0[1] == g:
                if i == i0:
                    rel = "eq"
                elif i < i0:
                    rel = "lt"
                else:
                    rel = "gt"
        cfg.append(("gap", g, rel))
    return tuple(cfg)


def _arrangements(cuts, params):
    """Every arrangement of params over the cuts, one per configuration.  Slots
    are ('c', i, syms) for cut i or ('x', g, syms) for a fresh value inside
    gap g, in increasing order; syms are the parameters sitting there."""
    arrs = [[("c", i, frozenset()) for i in range(len(cuts))]]
    for name, dom in params:
        arrs = [ns for slots in arrs for ns, _ in _place_new(slots, cuts, dom, name)]
    return arrs


# --- templates ---------------------------------------------------------------


@dataclass(frozen=True)
class Template:
    """Piecewise-uniform family of open interval sets in 1 or 2 parameters."""

    params: tuple  # ((name, domain), ...) in name order
    cuts: tuple  # sorted distinct Fractions; includes all body constants and domain endpoints
    table: tuple  # ((config, body), ...) sorted by config key

    @property
    def arity(self):
        return len(self.params)

    def body_for(self, cfg):
        for c, b in self.table:
            if c == cfg:
                return b
        raise KeyError(cfg)

    def constant_value(self):
        """The IntervalSet this template always equals, or None if genuinely parametric."""
        val = None
        for _, body in self.table:
            if any(isinstance(ep, tuple) and ep[0] == "s" for pair in body for ep in pair):
                return None
            ivs = iv_canon([(ep_val(lo), ep_val(hi)) for lo, hi in body])
            if val is None:
                val = ivs
            elif val != ivs:
                return None
        return val


def ep_val(ep):
    if ep is NEG_INF or ep is POS_INF:
        return ep
    if ep[0] == "v":
        return ep[1]
    raise ValueError("symbolic endpoint has no value")


def _mk(params, cuts, rows):
    if len(params) > 2:
        raise ArityError("templates support at most two parameters")
    return Template(tuple(params), tuple(cuts), tuple(sorted(rows, key=lambda r: _cfg_key(r[0]))))


def _collect_cuts(params, bodies_constants=()):
    vals = set(bodies_constants)
    for _, dom in params:
        vals.update(_dom_endpoints(dom))
    return tuple(sorted(vals))


def _rows(params, cuts, mask_at):
    """(config, body) rows, one per arrangement; mask_at gives its open mask."""
    return [
        (_arrangement_config(slots, params), _mask_body(slots, cuts, mask_at(slots)))
        for slots in _arrangements(cuts, params)
    ]


def template_from_body(body, params):
    """Build a template from one uniform symbolic body (endpoints are ('v', c),
    ('s', name) or infinities); emptiness and merging are settled per config."""
    consts = [ep[1] for pair in body for ep in pair if isinstance(ep, tuple) and ep[0] == "v"]
    cuts = _collect_cuts(params, consts)
    return _mk(params, cuts, _rows(params, cuts, lambda slots: _body_mask(slots, cuts, body)))


def _const_body(x: IntervalSet):
    return tuple((("v", lo) if not is_inf(lo) else lo, ("v", hi) if not is_inf(hi) else hi) for lo, hi in x.ivs)


def constant_template(x: IntervalSet, params):
    return template_from_body(_const_body(x), params)


def rename_param(t: Template, old: str, new: str) -> Template:
    params = tuple((new if n == old else n, d) for n, d in t.params)

    def ren(ep):
        if isinstance(ep, tuple) and ep[0] == "s" and ep[1] == old:
            return ("s", new)
        return ep

    rows = [(cfg, tuple((ren(lo), ren(hi)) for lo, hi in body)) for cfg, body in t.table]
    return _mk(params, t.cuts, rows)


def _body_at(x, slots, cuts):
    """Body of a constant or template x in an arrangement over cuts, which
    hold x's own cuts.  A template's body is its row for the arrangement
    projected onto its coarser cuts: a dropped cut becomes a fresh value in
    the old gap, and symbols of other parameters are ignored."""
    if isinstance(x, IntervalSet):
        return _const_body(x)
    old = x.cuts
    proj = []
    for kind, i, syms in slots:
        if kind == "x":
            proj.append(("x", bisect.bisect_right(old, cuts[i - 1]) if i else 0, syms))
        elif cuts[i] in old:
            proj.append(("c", old.index(cuts[i]), syms))
        else:
            proj.append(("x", bisect.bisect_left(old, cuts[i]), syms))
    return x.body_for(_arrangement_config(proj, x.params))


def merge_param_lists(*plists):
    doms = {}
    for pl in plists:
        for n, d in pl:
            if n in doms and doms[n] != d:
                raise ValueError(f"parameter {n} used with two domains")
            doms[n] = d
    return tuple(sorted(doms.items()))


_MASK_OPS = {
    "meet": lambda a, b, n: ivcore.intersect(a, b),
    "join": lambda a, b, n: ivcore.union(a, b),
    "imp": lambda a, b, n: ivcore.interior(ivcore.union(ivcore.complement(a, n), b), n),
}


def template_op(x, y, opname):
    """Pointwise lattice operation on templates / interval sets, read in every
    arrangement of both operands' parameters over both operands' cuts;
    collapses back to a plain IntervalSet when the result is constant."""
    params = merge_param_lists(*(z.params for z in (x, y) if isinstance(z, Template)))
    consts = [v for z in (x, y) for v in (z.cuts if isinstance(z, Template) else chain(*z.ivs)) if not is_inf(v)]
    cuts = _collect_cuts(params, consts)
    op = _MASK_OPS[opname]

    def mask_at(slots):
        a, b = (_body_mask(slots, cuts, _body_at(z, slots, cuts)) for z in (x, y))
        return op(a, b, len(slots))

    t = _mk(params, cuts, _rows(params, cuts, mask_at))
    const = t.constant_value()
    return const if const is not None else t


def eliminate_param(t: Template, name: str, mode: str):
    """Quantify one parameter away: mode 'meet' is the infinite meet (interior
    of the intersection over the domain), 'join' the infinite join (union)."""
    names = [n for n, _ in t.params]
    if name not in names:
        return t
    bind_dom = dict(t.params)[name]
    rest = tuple(p for p in t.params if p[0] != name)
    cuts = t.cuts
    rows = []
    quantify = all if mode == "meet" else any
    for base in _arrangements(cuts, rest):
        m = 0
        for slots_p, bit in _place_new(base, cuts, DOM_ALL, _POINT):
            results = []
            for slots_k, _ in _place_new(slots_p, cuts, bind_dom, name):
                body = _body_mask(slots_k, cuts, t.body_for(_arrangement_config(slots_k, t.params)))
                results.append(ivcore.point_in(2 * _ep_pos(slots_k, cuts, ("s", _POINT)) + 1, body))
            assert results, "parameter domain admits no placement"
            if quantify(results):
                m |= 1 << bit
        if mode == "meet":
            m = ivcore.interior(m, len(base))
        elif ivcore.interior(m, len(base)) != m:
            raise UnrepresentableJoinError("family join produced a non-open set")
        rows.append((_arrangement_config(base, rest), _mask_body(base, cuts, m)))
    if rest:
        t2 = _mk(rest, cuts, rows)
        const = t2.constant_value()
        return const if const is not None else t2
    return iv_canon([(ep_val(lo), ep_val(hi)) for lo, hi in rows[0][1]])


def family_meet(t: Template) -> IntervalSet:
    if t.arity != 1:
        raise ArityError("family_meet needs an arity-1 template")
    return eliminate_param(t, t.params[0][0], "meet")


def family_join(t: Template) -> IntervalSet:
    if t.arity != 1:
        raise ArityError("family_join needs an arity-1 template")
    return eliminate_param(t, t.params[0][0], "join")


def template_reduce(t: Template, bind: str, mode: str):
    """Eliminate one parameter of a two-parameter template symbolically."""
    if t.arity != 2:
        raise ArityError("template_reduce needs an arity-2 template")
    if bind not in [n for n, _ in t.params]:
        raise ArityError(f"no parameter named {bind}")
    if mode not in ("meet", "join"):
        raise ValueError("mode must be 'meet' or 'join'")
    out = eliminate_param(t, bind, mode)
    if isinstance(out, IntervalSet):
        remaining = tuple(p for p in t.params if p[0] != bind)
        return constant_template(out, remaining)
    return out


def template_eval(t: Template, values: dict) -> IntervalSet:
    """Instantiate every parameter at a concrete rational."""
    cfg = []
    placed = []
    for j, (name, dom) in enumerate(t.params):
        v = values[name]
        if not _dom_has_value(dom, v):
            raise ValueError(f"value {v} outside domain of {name}")
        if v in t.cuts:
            pl = ("pt", t.cuts.index(v))
        else:
            g = bisect.bisect_left(t.cuts, v)
            rel = None
            if j == 1:
                pl0 = placed[0]
                if pl0[0] == "gap" and pl0[1] == g:
                    v0 = values[t.params[0][0]]
                    rel = "eq" if v == v0 else ("lt" if v < v0 else "gt")
            pl = ("gap", g, rel)
        cfg.append(pl)
        placed.append(pl)
    body = t.body_for(tuple(cfg))

    def val(ep):
        if is_inf(ep):
            return ep
        if ep[0] == "v":
            return ep[1]
        return values[ep[1]]

    return iv_canon([(val(lo), val(hi)) for lo, hi in body])


def point_complement_body(name: str):
    return ((NEG_INF, ("s", name)), (("s", name), POS_INF))
