"""Multiway sorted-cursor join with sensitivity recording.

Rules are compiled against a variable order (one trie level per
variable). Every atom participates at the levels of its variables; at a
level all participating cursors are intersected by alternating
seeks. Each cursor operation (open / next / seek / membership probe)
records a sensitivity interval: the full-tuple range whose records, had
they been present (or absent), would have changed what the operation
returned. The union of recorded intervals therefore covers every
database change that could alter the rule's output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .rulelang import (
    ARITH_OPS,
    Const,
    NegAtom,
    PrimAtom,
    RelAtom,
    Rule,
    Var,
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
    rule: Rule
    var_order: tuple
    atoms: tuple  # positive CompiledAtoms
    neg_atoms: tuple  # negated CompiledAtoms
    plans: tuple  # _LevelPlan per var
    pre_checks: tuple  # checks with no free variables


def _terms_of(atom):
    if isinstance(atom, RelAtom):
        return atom.args
    return atom.key_args + atom.value_args


def compile_rule(rule: Rule, schema, upserted=frozenset(), derived_karity=None) -> CompiledRule:
    """derived_karity: arity map for non-database (out:) predicates."""
    var_order = tuple(choose_variable_order(rule))
    level_of = {v: i for i, v in enumerate(var_order)}
    derived_karity = derived_karity or {}

    def karity_of(atom):
        if atom.pred in schema:
            return schema.sig(atom.pred).arity
        if atom.pred in derived_karity:
            return derived_karity[atom.pred]
        return len(_terms_of(atom))

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
                neg_atoms.append(
                    CompiledAtom(atom_vertex(target, schema, upserted), _terms_of(target), karity_of(target))
                )
        elif isinstance(a, PrimAtom):
            prims.append(a)
        else:
            atoms.append(CompiledAtom(atom_vertex(a, schema, upserted), _terms_of(a), karity_of(a)))

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
        rule=rule,
        var_order=var_order,
        atoms=tuple(atoms),
        neg_atoms=tuple(neg_atoms),
        plans=tuple(plans),
        pre_checks=tuple(pre_checks),
    )


class _LevelIter:
    """Distinct-component iterator of one atom under a fixed tuple prefix."""

    __slots__ = ("view", "cur", "p", "q", "key", "_emit", "stats")

    def __init__(self, view: View, p: tuple, q: int, emit, stats):
        self.view = view
        self.p = p
        self.q = q
        self._emit = emit
        self.stats = stats
        self.cur = view.cursor()
        lo = view.pad(p)
        stats.seeks += 1
        self.cur.seek(lo)
        self._land(lo)

    def _land(self, lo):
        found = None if self.cur.at_end else self.cur.current()
        if found is not None and found[: len(self.p)] == self.p:
            self._emit(lo, found)
            self.key = found[self.q]
        else:
            self._emit(lo, self.view.pad(self.p, low=False))
            self.key = None

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


@dataclass
class RuleResult:
    # per head atom: full head tuple -> number of supporting bindings
    head_counts: list
    constraint_hits: int = 0

def eval_rule(
    compiled: CompiledRule,
    views: dict,
    collector: Optional[SensCollector] = None,
    fixed: Optional[dict] = None,
    stats: Optional[Stats] = None,
) -> RuleResult:
    """Enumerate all satisfying bindings; instantiate head atoms.

    `views` maps vertex names to View objects. `fixed` pins a prefix of
    the variable order to given values (membership is still verified),
    used for region-restricted re-evaluation.
    """
    stats = stats if stats is not None else Stats()
    fixed = fixed or {}
    binding: dict = {}
    n_heads = len(compiled.rule.head)
    result = RuleResult(head_counts=[{} for _ in range(n_heads)])

    def term_val(t):
        return t.value if isinstance(t, Const) else binding[t.name]

    def ctx(level):
        return tuple(binding[v] for v in compiled.var_order[:level])

    def emit_for(vertex, level):
        if collector is None:
            return lambda lo, hi: None
        c = ctx(level)
        return lambda lo, hi: collector.record(vertex, lo, hi, c)

    def probe(ca: CompiledAtom, level) -> bool:
        """Exact-presence test with point sensitivity."""
        t = tuple(term_val(x) for x in ca.pattern)
        view = views[ca.vertex]
        cur = view.cursor()
        stats.seeks += 1
        cur.seek(t)
        if collector is not None:
            collector.record(ca.vertex, t, t, ctx(level))
        return (not cur.at_end) and cur.current() == t

    def prim_holds(p: PrimAtom) -> bool:
        neg = p.op.startswith("not:")
        op = p.op[4:] if neg else p.op
        vals = [term_val(t) for t in p.args]
        if op in ARITH_OPS:
            x, y, out = vals
            r = x + y if op == "add" else x - y if op == "sub" else x * y
            ok = r == out
        else:
            x, y = vals
            ok = {
                "eq": x == y,
                "ne": x != y,
                "lt": x < y,
                "le": x <= y,
                "gt": x > y,
                "ge": x >= y,
            }[op]
        return (not ok) if neg else ok

    def run_checks(items, level) -> bool:
        for kind, payload in items:
            if kind == "prim":
                if not prim_holds(payload):
                    return False
            elif kind == "neg":
                if probe(compiled.neg_atoms[payload], level):
                    return False
            else:  # complete
                if not probe(compiled.atoms[payload], level):
                    return False
        return True

    def compute_value(p: PrimAtom, var):
        if p.op in ARITH_OPS:
            x = term_val(p.args[0])
            y = term_val(p.args[1])
            return x + y if p.op == "add" else x - y if p.op == "sub" else x * y
        # eq: the other side is bound
        a, b = p.args
        other = b if (isinstance(a, Var) and a.name == var) else a
        return term_val(other)

    def emit_binding():
        stats.bindings += 1
        if not compiled.rule.head:
            result.constraint_hits += 1
            return
        for i, h in enumerate(compiled.rule.head):
            t = tuple(term_val(x) for x in _terms_of(h.atom))
            counts = result.head_counts[i]
            counts[t] = counts.get(t, 0) + 1

    def enum(level):
        if level == len(compiled.var_order):
            emit_binding()
            return
        plan = compiled.plans[level]
        iters = [
            _LevelIter(
                views[compiled.atoms[ai].vertex],
                tuple(term_val(t) for t in compiled.atoms[ai].pattern[:q]),
                q,
                emit_for(compiled.atoms[ai].vertex, level),
                stats,
            )
            for ai, q in plan.joiners
        ]

        def try_value(c) -> bool:
            for it in iters:
                it.seek(c)
                if it.key != c:
                    return False
            return True

        def accept(c):
            binding[plan.var] = c
            # once the value is set, computes degenerate to checks
            if all(prim_holds(p) for p in plan.compute) and run_checks(plan.checks, level):
                enum(level + 1)
            del binding[plan.var]

        if plan.var in fixed:
            c = fixed[plan.var]
            if try_value(c):
                accept(c)
            return
        if plan.compute:
            binding[plan.var] = compute_value(plan.compute[0], plan.var)
            c = binding[plan.var]
            del binding[plan.var]
            if try_value(c):
                accept(c)
            return
        if not iters:
            raise SchemaError(f"variable {plan.var} has no enumerable source")
        # leapfrog intersection over distinct component values
        for it in iters:
            if it.key is None:
                return
        k = len(iters)
        iters.sort(key=lambda it: it.key)
        p_i = 0
        max_key = iters[-1].key
        while True:
            it = iters[p_i]
            if it.key == max_key:
                accept(max_key)
                it.next()
            else:
                it.seek(max_key)
            if it.key is None:
                return
            max_key = it.key
            p_i = (p_i + 1) % k

    if run_checks(compiled.pre_checks, 0):
        enum(0)
    return result
