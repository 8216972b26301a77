"""Multiway sorted-cursor join with sensitivity recording.

Rules are compiled against a variable order (one trie level per
variable). Every atom participates at the levels of its variables; at a
level all participating cursors are intersected by alternating
seeks. Each cursor operation (open / next / seek / membership probe)
records a sensitivity interval: the full-tuple range whose records, had
they been present (or absent), would have changed what the operation
returned. The union of recorded intervals therefore covers every
database change that could alter the rule's output.

A compiled rule is a plan for its template: a `$param` slot stays a
slot, and each `eval_rule` call reads the rule's bound `args`, so one
compilation serves every binding of the template.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional

from .rulelang import (
    ARITH_OPS,
    Const,
    NegAtom,
    PrimAtom,
    Rule,
    Var,
    atom_terms,
    atom_vertex,
    choose_variable_order,
)
from .values import SchemaError
from .views import View


@dataclass
class SensEntry:
    """One recorded cursor operation: any record of `vertex` landing in
    [lo, hi] (full-tuple closed interval) invalidates the join step taken
    under variable binding prefix `ctx`."""

    vertex: str
    lo: tuple
    hi: tuple
    ctx: tuple  # values of a prefix of var_order


class SensCollector:
    def __init__(self):
        self.entries: list = []

    def record(self, vertex, lo, hi, ctx):
        self.entries.append(SensEntry(vertex, tuple(lo), tuple(hi), tuple(ctx)))


@dataclass
class Stats:
    seeks: int = 0
    bindings: int = 0


@dataclass(frozen=True)
class CompiledAtom:
    vertex: str  # view key this atom reads
    pattern: tuple  # terms: keys then value positions
    karity: int


@dataclass
class _LevelPlan:
    var: str
    joiners: list = field(default_factory=list)  # (atom_idx, position)
    compute: list = field(default_factory=list)  # PrimAtoms producing this var
    checks: list = field(default_factory=list)  # ("prim", p) | ("neg", i) | ("complete", i)


@dataclass
class CompiledRule:
    heads: tuple  # per head atom, its terms; none for a constraint
    var_order: tuple
    atoms: tuple  # positive CompiledAtoms
    neg_atoms: tuple  # negated CompiledAtoms
    plans: tuple  # _LevelPlan per var
    pre_checks: tuple  # checks with no free variables


def compile_rule(rule: Rule, schema, upserted=frozenset()) -> CompiledRule:
    """Plan `rule`; atoms of `upserted` predicates read their end state."""
    var_order = tuple(choose_variable_order(rule))
    level_of = {v: i for i, v in enumerate(var_order)}

    def compiled(atom):
        terms = atom_terms(atom)
        karity = schema.sig(atom.pred).arity if atom.pred in schema else len(terms)
        return CompiledAtom(atom_vertex(atom, schema, upserted), terms, karity)

    def max_level(terms):
        lvl = -1
        for t in terms:
            if isinstance(t, Var):
                lvl = max(lvl, level_of[t.name])
        return lvl

    atoms = []
    neg_atoms = []
    prims = []
    for a in rule.body:
        if isinstance(a, NegAtom):
            target = a.atom
            if isinstance(target, PrimAtom):
                prims.append(PrimAtom("not:" + target.op, target.args))
            else:
                neg_atoms.append(compiled(target))
        elif isinstance(a, PrimAtom):
            prims.append(a)
        else:
            atoms.append(compiled(a))

    plans = [_LevelPlan(v) for v in var_order]
    pre_checks = []

    bound_positive = set()
    for ca in atoms:
        for t in ca.pattern:
            if isinstance(t, Var):
                bound_positive.add(t.name)
    for p in prims:
        if p.op in ARITH_OPS or p.op == "eq":
            for t in p.args:
                if isinstance(t, Var):
                    bound_positive.add(t.name)
    for ca in neg_atoms:
        for t in ca.pattern:
            if isinstance(t, Var) and t.name not in bound_positive:
                raise SchemaError(f"negation variable {t.name} is not bound positively")

    # joiner positions: first occurrence of each variable within the atom
    for idx, ca in enumerate(atoms):
        seen = set()
        last_joiner_pos = -1
        for pos, t in enumerate(ca.pattern):
            if isinstance(t, Var) and t.name not in seen:
                seen.add(t.name)
                plans[level_of[t.name]].joiners.append((idx, pos))
                last_joiner_pos = pos
        lvl = max_level(ca.pattern)
        if lvl < 0:
            pre_checks.append(("complete", idx))
        elif last_joiner_pos != len(ca.pattern) - 1:
            # trailing constants / repeated variables: exact-match probe
            plans[lvl].checks.append(("complete", idx))

    for idx, ca in enumerate(neg_atoms):
        lvl = max_level(ca.pattern)
        if lvl < 0:
            pre_checks.append(("neg", idx))
        else:
            plans[lvl].checks.append(("neg", idx))

    claimed = set()  # variables already produced by a compute
    for p in prims:
        lvl = max_level(p.args)
        if lvl < 0:
            pre_checks.append(("prim", p))
            continue
        out_var = None
        if p.op in ARITH_OPS and isinstance(p.args[2], Var) and level_of[p.args[2].name] == lvl:
            out_var = p.args[2].name
            if max_level(p.args[:2]) < lvl and out_var not in claimed:
                plans[lvl].compute.append(p)
                claimed.add(out_var)
                continue
        if p.op == "eq":
            vs = [t for t in p.args if isinstance(t, Var) and level_of[t.name] == lvl]
            if len(vs) == 1 and max_level([t for t in p.args if t is not vs[0]]) < lvl:
                if vs[0].name not in claimed:
                    plans[lvl].compute.append(p)
                    claimed.add(vs[0].name)
                    continue
        plans[lvl].checks.append(("prim", p))

    return CompiledRule(
        heads=tuple(atom_terms(h.atom) for h in rule.head),
        var_order=var_order,
        atoms=tuple(atoms),
        neg_atoms=tuple(neg_atoms),
        plans=tuple(plans),
        pre_checks=tuple(pre_checks),
    )


class _LevelIter:
    """Distinct-component iterator of one atom under a fixed tuple prefix;
    records each landing's sensitivity under `ctx` when collecting."""

    __slots__ = ("view", "cur", "p", "q", "key", "stats", "collector", "vertex", "ctx")

    def __init__(self, view: View, p: tuple, q: int, stats, collector, vertex, ctx):
        self.view = view
        self.p = p
        self.q = q
        self.stats = stats
        self.collector = collector
        self.vertex = vertex
        self.ctx = ctx
        self.cur = view.cursor()
        lo = view.pad(p)
        stats.seeks += 1
        self.cur.seek(lo)
        self._land(lo)

    def _land(self, lo):
        found = None if self.cur.at_end else self.cur.current()
        if found is not None and found[: len(self.p)] == self.p:
            self.key = found[self.q]
            if self.collector is not None:
                self.collector.record(self.vertex, lo, found, self.ctx)
        else:
            self.key = None
            if self.collector is not None:
                self.collector.record(self.vertex, lo, self.view.pad(self.p, low=False), self.ctx)

    def seek(self, c):
        if self.key is not None and self.key >= c:
            return
        lo = self.view.pad(self.p + (c,))
        self.stats.seeks += 1
        self.cur.seek(lo)
        self._land(lo)

    def next(self):
        # past every tuple sharing the current component
        lo = self.view.pad(self.p + (self.key,), low=False)
        self.stats.seeks += 1
        if len(self.p) + 1 == self.view.arity:
            # the component is the last position: one tuple per component
            self.cur.next()
        else:
            self.cur.seek(lo)
        self._land(lo)


_by_key = operator.attrgetter("key")
_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_COMPARE = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}


@dataclass
class RuleResult:
    # per head atom: full head tuple -> number of supporting bindings
    head_counts: list
    constraint_hits: int = 0


def eval_rule(
    compiled: CompiledRule,
    views: dict,
    args: tuple = (),
    collector: Optional[SensCollector] = None,
    fixed: Optional[dict] = None,
    stats: Optional[Stats] = None,
) -> RuleResult:
    """Enumerate all satisfying bindings; instantiate head atoms.

    `views` maps vertex names to View objects; `args` binds the rule's
    `$param` slots, as `Rule.args`. `fixed` pins a prefix of the
    variable order to given values (membership is still verified), used
    for region-restricted re-evaluation.
    """
    return _Evaluator(compiled, views, args, collector, fixed, stats).run()


class _Evaluator:
    """The state of one `eval_rule` call. Its methods refer to each other
    only through the instance, which refers to none of them, so reference
    counting frees everything a call allocates."""

    __slots__ = ("compiled", "views", "collector", "fixed", "stats", "binding", "result")

    def __init__(self, compiled, views, args, collector, fixed, stats):
        self.compiled = compiled
        self.views = views
        self.collector = collector
        self.fixed = fixed or {}
        self.stats = stats if stats is not None else Stats()
        # variables and `$param` slots alike: a slot is a name bound throughout
        self.binding = dict(args)
        self.result = RuleResult(head_counts=[{} for _ in compiled.heads])

    def run(self) -> RuleResult:
        if self.run_checks(self.compiled.pre_checks, 0):
            self.enum(0)
        return self.result

    def val(self, t):
        return t.value if t.__class__ is Const else self.binding[t.name]

    def ctx(self, level):
        binding = self.binding
        return tuple(binding[v] for v in self.compiled.var_order[:level])

    def probe(self, ca: CompiledAtom, level) -> bool:
        """Exact-presence test with point sensitivity."""
        t = tuple(self.val(x) for x in ca.pattern)
        cur = self.views[ca.vertex].cursor()
        self.stats.seeks += 1
        cur.seek(t)
        if self.collector is not None:
            self.collector.record(ca.vertex, t, t, self.ctx(level))
        return (not cur.at_end) and cur.current() == t

    def prim_holds(self, p: PrimAtom) -> bool:
        neg = p.op.startswith("not:")
        op = p.op[4:] if neg else p.op
        if op in ARITH_OPS:
            x, y, out = (self.val(t) for t in p.args)
            ok = _ARITH[op](x, y) == out
        else:
            x, y = (self.val(t) for t in p.args)
            ok = _COMPARE[op](x, y)
        return (not ok) if neg else ok

    def run_checks(self, items, level) -> bool:
        for kind, payload in items:
            if kind == "prim":
                if not self.prim_holds(payload):
                    return False
            elif kind == "neg":
                if self.probe(self.compiled.neg_atoms[payload], level):
                    return False
            else:  # complete
                if not self.probe(self.compiled.atoms[payload], level):
                    return False
        return True

    def compute_value(self, p: PrimAtom, var):
        if p.op in ARITH_OPS:
            return _ARITH[p.op](self.val(p.args[0]), self.val(p.args[1]))
        # eq: the other side is bound
        a, b = p.args
        return self.val(b if (isinstance(a, Var) and a.name == var) else a)

    def emit_binding(self):
        self.stats.bindings += 1
        if not self.compiled.heads:
            self.result.constraint_hits += 1
            return
        for terms, counts in zip(self.compiled.heads, self.result.head_counts):
            t = tuple(self.val(x) for x in terms)
            counts[t] = counts.get(t, 0) + 1

    def try_value(self, plan, level, iters, c):
        """Accept a pinned or computed value if every iterator holds it."""
        for it in iters:
            it.seek(c)
            if it.key != c:
                return
        self.accept(plan, level, c)

    def accept(self, plan, level, c):
        self.binding[plan.var] = c
        # once the value is set, computes degenerate to checks
        if all(self.prim_holds(p) for p in plan.compute) and self.run_checks(plan.checks, level):
            self.enum(level + 1)
        del self.binding[plan.var]

    def enum(self, level):
        compiled = self.compiled
        if level == len(compiled.var_order):
            self.emit_binding()
            return
        plan = compiled.plans[level]
        ctx = self.ctx(level) if self.collector is not None else None
        iters = []
        for ai, q in plan.joiners:
            atom = compiled.atoms[ai]
            iters.append(_LevelIter(
                self.views[atom.vertex],
                tuple(self.val(t) for t in atom.pattern[:q]),
                q,
                self.stats,
                self.collector,
                atom.vertex,
                ctx,
            ))
        if plan.var in self.fixed:
            self.try_value(plan, level, iters, self.fixed[plan.var])
            return
        if plan.compute:
            self.try_value(plan, level, iters, self.compute_value(plan.compute[0], plan.var))
            return
        if not iters:
            raise SchemaError(f"variable {plan.var} has no enumerable source")
        # leapfrog intersection over distinct component values
        for it in iters:
            if it.key is None:
                return
        k = len(iters)
        iters.sort(key=_by_key)
        p_i = 0
        max_key = iters[-1].key
        while True:
            it = iters[p_i]
            if it.key == max_key:
                self.accept(plan, level, max_key)
                it.next()
            else:
                it.seek(max_key)
            if it.key is None:
                return
            max_key = it.key
            p_i = (p_i + 1) % k
