"""Parsers for the external text grammars: formulas, H-set literals with
family entries, definitions files.  Element literals are delegated to the
algebra (up-set braces over poset names, or the interval grammar)."""

from __future__ import annotations

from . import formulas as F
from .errors import DepthExceededError, LiteralParseError
from .hset import FORMAL, Family, HSet, Universe
from .intervals import IntervalAlgebra, iv_canon, parse_interval_set, parse_rational
from .ivcore import is_inf
from .templates import DOM_ALL, Template, dom_interval, template_from_body

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CHARS = _IDENT_START | set("0123456789")

_PREDICATES = {"perp": 2, "tri": 2, "theta": 4, "ord": 1}
_FUNCTIONS = {"succ": 1, "add": 2, "pairenc": 2, "union": 2, "ordem": "element"}


class _Cursor:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self, s):
        self.skip_ws()
        return self.text.startswith(s, self.pos)

    def take(self, s):
        if self.peek(s):
            self.pos += len(s)
            return True
        return False

    def expect(self, s):
        if not self.take(s):
            raise LiteralParseError(f"expected {s!r} at ...{self.text[self.pos:self.pos + 20]!r}")

    def peek_ident(self):
        self.skip_ws()
        i = self.pos
        if i >= len(self.text) or self.text[i] not in _IDENT_START:
            return None
        j = i
        while j < len(self.text) and self.text[j] in _IDENT_CHARS:
            j += 1
        return self.text[i:j]

    def take_ident(self):
        name = self.peek_ident()
        if name is None:
            raise LiteralParseError(f"expected identifier at ...{self.text[self.pos:self.pos + 20]!r}")
        self.pos += len(name)
        return name

    def scan_balanced(self, stops=",}"):
        """Raw text until a stop character at bracket depth zero."""
        self.skip_ws()
        depth = 0
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in "({":
                depth += 1
            elif ch in ")}":
                if depth == 0 and ch in stops:
                    break
                depth -= 1
                if depth < 0:
                    break
            elif depth == 0 and ch in stops:
                break
            self.pos += 1
        return self.text[start:self.pos].strip()


class HSetParser:
    """H-set literal grammar: `#n`, `{ e @ l , ... }`, constant names, family
    entries `fam q in QQ : <hset-template> @ <label-template>`."""

    def __init__(self, universe: Universe, cur: _Cursor):
        self.U = universe
        self.cur = cur

    def parse(self) -> HSet:
        node = self._node(param=None)
        if not isinstance(node, HSet):
            raise LiteralParseError("top-level literal cannot use a family parameter")
        return node

    def _node(self, param):
        cur = self.cur
        cur.skip_ws()
        if cur.take("#"):
            digits = ""
            while cur.pos < len(cur.text) and cur.text[cur.pos].isdigit():
                digits += cur.text[cur.pos]
                cur.pos += 1
            if not digits:
                raise LiteralParseError("expected digits after #")
            return self.U.numeral(int(digits))
        if cur.peek("{"):
            return self._braced(param)
        name = cur.peek_ident()
        if name is not None and name in self.U.constants:
            cur.take_ident()
            return self.U.constants[name]
        raise LiteralParseError(f"cannot parse H-set literal at ...{cur.text[cur.pos:cur.pos + 20]!r}")

    def _braced(self, param):
        cur = self.cur
        cur.expect("{")
        entries = []
        families = []
        has_param = False
        if cur.take("}"):
            return self.U.make_hset(())
        while True:
            if cur.peek("fam") and param is None:
                save = cur.pos
                cur.take("fam")
                if cur.peek_ident() is not None:
                    families.append(self._family())
                else:
                    cur.pos = save
                    raise LiteralParseError("bad family entry")
            elif cur.peek("fam") and param is not None:
                raise LiteralParseError("family entries cannot nest inside a family template")
            else:
                child = self._node(param)
                cur.expect("@")
                label_text = cur.scan_balanced(",}")
                label = self._label(label_text, param)
                if not isinstance(child, HSet) or isinstance(label, Template):
                    has_param = True
                entries.append((child, label))
            cur.skip_ws()
            if cur.take(","):
                continue
            cur.expect("}")
            break
        if families and has_param:
            raise LiteralParseError("families cannot mix with parametric entries")
        if param is not None:
            # any shape under a family binder becomes a template, constant or not
            return self.U.make_param_hset(entries)
        return self.U.make_hset(entries, families)

    def _family(self) -> Family:
        cur = self.cur
        pname = cur.take_ident()
        cur.expect("in")
        if cur.take("QQ"):
            dom = DOM_ALL
        else:
            cur.expect("(")
            lo = parse_rational(cur.scan_balanced(","))
            cur.expect(",")
            hi = parse_rational(cur.scan_balanced(")"))
            cur.expect(")")
            if is_inf(lo) or is_inf(hi):
                raise LiteralParseError("family domains need rational endpoints")
            dom = dom_interval(lo, hi)
        cur.expect(":")
        elem = self._node(param=(pname, dom))
        if isinstance(elem, HSet):
            elem = self.U.make_param_hset(elem.entries)
        cur.expect("@")
        label_text = cur.scan_balanced(",}")
        label = self._label(label_text, (pname, dom))
        return Family(dom, elem, label)

    def _label(self, text, param):
        if param is None:
            return self.U.algebra.parse_element(text)
        pname, dom = param
        if not isinstance(self.U.algebra, IntervalAlgebra):
            if _uses_param(text, pname):
                raise LiteralParseError(
                    f"label {text!r} uses the family parameter {pname}; "
                    "parametric labels need the interval algebra"
                )
            return self.U.algebra.parse_element(text)
        pairs = parse_interval_set(text, pname)
        if not any(pname in pair for pair in pairs):
            return iv_canon(pairs)

        def ep(v):
            if v == pname:
                return ("s", FORMAL)
            return v if is_inf(v) else ("v", v)

        return template_from_body(tuple((ep(lo), ep(hi)) for lo, hi in pairs), ((FORMAL, dom),))


def _uses_param(text, pname):
    cur = _Cursor(text)
    while not cur.eof():
        ident = cur.peek_ident()
        if ident == pname:
            return True
        cur.pos += max(1, len(ident or ""))
    return False


class FormulaParser:
    """Recursive-descent parser for the bounded formula grammar."""

    def __init__(self, universe: Universe, text: str):
        self.U = universe
        self.cur = _Cursor(text)

    def parse(self):
        phi = self._imp()
        if not self.cur.eof():
            raise LiteralParseError(
                f"trailing input: {self.cur.text[self.cur.pos:]!r}"
            )
        return phi

    def _imp(self):
        left = self._or()
        if self.cur.take("->"):
            return F.Implies(left, self._imp())
        return left

    def _or(self):
        left = self._and()
        while self.cur.take("\\/"):
            left = F.Or(left, self._and())
        return left

    def _and(self):
        left = self._unary()
        while True:
            self.cur.skip_ws()
            # `&` but not `&&`; single-char take is fine here
            if self.cur.take("&"):
                left = F.And(left, self._unary())
            else:
                return left

    def _unary(self):
        cur = self.cur
        if cur.take("~"):
            return F.Not(self._unary())
        ident = cur.peek_ident()
        if ident in ("A", "E"):
            save = cur.pos
            cur.take_ident()
            var = cur.peek_ident()
            if var is not None:
                cur.take_ident()
                if cur.take(":"):
                    bound = self._term()
                    cur.expect(".")
                    body = self._imp()
                    return (F.Forall if ident == "A" else F.Exists)(var, bound, body)
            cur.pos = save
        if ident == "tt":
            cur.take_ident()
            return F.Truth(True)
        if ident == "ff":
            cur.take_ident()
            return F.Truth(False)
        if ident in _PREDICATES:
            save = cur.pos
            cur.take_ident()
            if cur.take("("):
                args = [self._term()]
                while cur.take(","):
                    args.append(self._term())
                cur.expect(")")
                if len(args) != _PREDICATES[ident]:
                    raise LiteralParseError(f"{ident} takes {_PREDICATES[ident]} arguments")
                return F.PredApp(ident, tuple(args))
            cur.pos = save
        if cur.peek("("):
            save = cur.pos
            cur.expect("(")
            try:
                phi = self._imp()
                cur.expect(")")
                return phi
            except LiteralParseError:
                cur.pos = save
                raise
        left = self._term()
        if self.cur.take("in"):
            return F.Mem(left, self._term())
        self.cur.expect("=")
        return F.Eq(left, self._term())

    def _term(self):
        cur = self.cur
        cur.skip_ws()
        if cur.peek("#") or cur.peek("{"):
            node = HSetParser(self.U, cur)._node(param=None)
            return F.Lit(node)
        ident = cur.peek_ident()
        if ident is None:
            raise LiteralParseError(
                f"expected a term at ...{cur.text[cur.pos:cur.pos + 20]!r}"
            )
        cur.take_ident()
        if ident in _FUNCTIONS:
            cur.expect("(")
            if _FUNCTIONS[ident] == "element":
                element = self.U.algebra.parse_element(cur.scan_balanced(")"))
                cur.expect(")")
                return F.App(ident, (F.Lit(F.ElementArg(element)),))
            args = [self._term()]
            while cur.take(","):
                args.append(self._term())
            cur.expect(")")
            if len(args) != _FUNCTIONS[ident]:
                raise LiteralParseError(f"{ident} takes {_FUNCTIONS[ident]} arguments")
            return F.App(ident, tuple(args))
        if ident in self.U.constants:
            return F.ConstRef(ident)
        return F.Var(ident)


def parse_formula(U: Universe, text: str):
    try:
        return FormulaParser(U, text).parse()
    except RecursionError as exc:
        raise DepthExceededError("formula nests too deeply for the recursive parser") from exc


def parse_hset(U: Universe, text: str) -> HSet:
    cur = _Cursor(text)
    try:
        node = HSetParser(U, cur).parse()
    except RecursionError as exc:
        raise DepthExceededError("H-set literal nests too deeply for the recursive parser") from exc
    if not cur.eof():
        raise LiteralParseError(f"trailing input in H-set literal: {cur.text[cur.pos:]!r}")
    return node


def apply_definition(U: Universe, line: str):
    """One definitions line: `name := <hset-literal>`."""
    if ":=" not in line:
        raise LiteralParseError(f"definition needs ':=': {line!r}")
    name, lit = line.split(":=", 1)
    name = name.strip()
    if not name or any(c not in _IDENT_CHARS for c in name) or name[0] not in _IDENT_START:
        raise LiteralParseError(f"bad constant name {name!r}")
    U.bind_constant(name, parse_hset(U, lit.strip()))


def apply_definitions(U: Universe, text: str):
    # whole-line comments only: `#` also starts numeral literals
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            apply_definition(U, line)
