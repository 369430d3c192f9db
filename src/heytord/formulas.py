"""Bounded-quantifier formulas over membership and equality, and their values.

Terms are variables, named constants, direct node references or registered
function applications; quantifiers range over the entries (and families) of a
term's value.  Everything compositional, no unbounded quantification.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import EngineError
from .hset import PBound, Universe


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class ConstRef:
    name: str


@dataclass(frozen=True)
class Lit:
    node: object


class ElementArg:
    """Wrapper letting an algebra element travel through the term evaluator."""

    def __init__(self, element):
        self.element = element


@dataclass(frozen=True)
class App:
    fn: str
    args: tuple


@dataclass(frozen=True)
class Truth:
    value: bool


@dataclass(frozen=True)
class Mem:
    left: object
    right: object


@dataclass(frozen=True)
class Eq:
    left: object
    right: object


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True)
class Forall:
    var: str
    bound: object
    body: object


@dataclass(frozen=True)
class Exists:
    var: str
    bound: object
    body: object


@dataclass(frozen=True)
class PredApp:
    """Registered algebra-valued predicate, e.g. perp or trichotomy."""

    fn: str
    args: tuple


TERM_FUNCTIONS: dict = {}
PRED_FUNCTIONS: dict = {}


def register_term_function(name, fn):
    TERM_FUNCTIONS[name] = fn


def register_pred_function(name, fn):
    PRED_FUNCTIONS[name] = fn


def eval_term(U: Universe, t, env):
    if isinstance(t, Var):
        if t.name not in env:
            raise EngineError(f"unbound variable {t.name}")
        return env[t.name]
    if isinstance(t, ConstRef):
        if t.name not in U.constants:
            raise EngineError(f"unknown constant {t.name}")
        return U.constants[t.name]
    if isinstance(t, Lit):
        return t.node
    if isinstance(t, App):
        if t.fn not in TERM_FUNCTIONS:
            raise EngineError(f"unknown function {t.fn}")
        args = [eval_term(U, a, env) for a in t.args]
        if any(isinstance(a, PBound) for a in args):
            raise EngineError(f"{t.fn} cannot be applied to a family template")
        args = [a.element if isinstance(a, ElementArg) else a for a in args]
        return TERM_FUNCTIONS[t.fn](U, *args)
    raise EngineError(f"bad term {t!r}")


def eval_formula(U: Universe, phi, env=None):
    """Truth value of a bounded formula under a variable environment."""
    env = env or {}
    alg = U.algebra
    if isinstance(phi, Truth):
        return alg.top() if phi.value else alg.bottom()
    if isinstance(phi, Mem):
        return U.truth_mem(eval_term(U, phi.left, env), eval_term(U, phi.right, env))
    if isinstance(phi, Eq):
        return U.truth_eq(eval_term(U, phi.left, env), eval_term(U, phi.right, env))
    if isinstance(phi, Not):
        return U.vimp(eval_formula(U, phi.body, env), alg.bottom())
    if isinstance(phi, And):
        return U.vmeet(eval_formula(U, phi.left, env), eval_formula(U, phi.right, env))
    if isinstance(phi, Or):
        return U.vjoin(eval_formula(U, phi.left, env), eval_formula(U, phi.right, env))
    if isinstance(phi, Implies):
        return U.vimp(eval_formula(U, phi.left, env), eval_formula(U, phi.right, env))
    if isinstance(phi, PredApp):
        if phi.fn not in PRED_FUNCTIONS:
            raise EngineError(f"unknown predicate {phi.fn}")
        args = [eval_term(U, a, env) for a in phi.args]
        if any(isinstance(a, PBound) for a in args):
            raise EngineError(f"{phi.fn} cannot be applied to a family template")
        return PRED_FUNCTIONS[phi.fn](U, *args)
    if isinstance(phi, (Forall, Exists)):
        univ = isinstance(phi, Forall)
        bound = eval_term(U, phi.bound, env)
        acc = alg.top() if univ else alg.bottom()
        for child, lab in bound.entries:
            inner = eval_formula(U, phi.body, {**env, phi.var: child})
            acc = U.vmeet(acc, U.vimp(lab, inner)) if univ else U.vjoin(acc, U.vmeet(lab, inner))
        for fam in bound.families:
            taken = {s for v in (*env.values(), bound) for s in v.syms}
            term = U.family_term(fam, "all" if univ else "ex", partial(_bind, U, phi, env), taken)
            acc = U.vmeet(acc, term) if univ else U.vjoin(acc, term)
        return acc
    raise EngineError(f"bad formula node {phi!r}")


def _bind(U, phi, env, z):
    """Value of the quantifier phi's body with its variable bound to z."""
    return eval_formula(U, phi.body, {**env, phi.var: z})


def ordinal_formula(var: str = "x"):
    """Transitive set of transitive sets, as a bounded formula in `var`."""
    x, y, z, w = Var(var), Var("$y"), Var("$z"), Var("$w")
    transitive = Forall("$z", y, Mem(z, x))
    members_transitive = Forall("$z", y, Forall("$w", z, Mem(w, y)))
    return Forall("$y", x, And(transitive, members_transitive))
