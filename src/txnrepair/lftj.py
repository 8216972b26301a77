"""Multiway sorted-cursor join with sensitivity recording.

Rules are compiled against a variable order (one trie level per
variable). Every atom participates at the levels of its variables; at a
level all participating cursors are intersected by alternating
seeks. Each cursor operation (open / next / seek / membership probe)
records a sensitivity interval: the full-tuple range whose records, had
they been present (or absent), would have changed what the operation
returned. The union of recorded intervals therefore covers every
database change that could alter the rule's output.

A predicate is functional (`p[k] = v`): one key holds one value. So an
atom whose key the variables before a level already fix has at most one
candidate there, and its joiner is compiled as a lookup: one `ptree.get`
of the key, its value compared with the prefix's value components. The
lookup lands and records exactly as the sorted cursor would on the same
root: the same landings, the same `SensEntry` intervals, the same seek
count. A level whose only joiner is a lookup takes its one candidate
directly, without the leapfrog loop.

A compiled rule is a plan for its template: a `$param` slot stays a
slot, and each `eval_rule` call reads the rule's bound `args`, so one
compilation serves every binding of the template. One call may also
evaluate a group of bindings (the rules of a transaction bound from one
template): it runs them in turn, never joining the parameters against an
atom, and each recorded context starts with the binding's index, so a
changed record re-runs only the bindings that read it.
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
    typecheck_rule,
)
from . import ptree
from .values import MINK, TOP, SchemaError


@dataclass
class SensEntry:
    """One recorded cursor operation: any record of `vertex` landing in
    [lo, hi] (full-tuple closed interval) invalidates the join step taken
    under variable binding prefix `ctx`."""

    vertex: str
    lo: tuple
    hi: tuple
    ctx: tuple  # values of a prefix of var_order, after the binding index in a group


BINDING = "#"  # the `fixed` slot pinning a group's binding index; never a variable


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
    joiners: list = field(default_factory=list)  # (iterator class, atom_idx, position)
    compute: list = field(default_factory=list)  # PrimAtoms producing this var
    checks: list = field(default_factory=list)  # ("prim", p) | ("neg", i) | ("complete", i)
    lookup: bool = False  # the one joiner is a key-bound atom's, and nothing computes var


@dataclass
class CompiledRule:
    heads: tuple  # per head atom, its terms; none for a constraint
    var_order: tuple
    atoms: tuple  # positive CompiledAtoms
    neg_atoms: tuple  # negated CompiledAtoms
    plans: tuple  # _LevelPlan per var
    pre_checks: tuple  # checks with no free variables


def compile_rule(rule: Rule, schema, upserted=frozenset()) -> CompiledRule:
    """Plan `rule`; atoms of `upserted` predicates read their end state.
    The rule first passes `typecheck_rule` against `schema`, as a parsed
    one does; planning adds one check of its own, rejecting a variable
    that no positive atom enumerates and no primitive computes at its
    level, whatever the data."""
    typecheck_rule(rule, schema)
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

    # joiner positions: first occurrence of each variable within the atom;
    # past the key, the prefix fixes the key, so the joiner is a lookup
    for idx, ca in enumerate(atoms):
        seen = set()
        last_joiner_pos = -1
        for pos, t in enumerate(ca.pattern):
            if isinstance(t, Var) and t.name not in seen:
                seen.add(t.name)
                cls = _PointIter if pos >= ca.karity else _LevelIter
                plans[level_of[t.name]].joiners.append((cls, idx, pos))
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

    for plan in plans:
        if not plan.joiners and not plan.compute:
            raise SchemaError(f"variable {plan.var} has no enumerable source")
        plan.lookup = (not plan.compute and len(plan.joiners) == 1
                       and plan.joiners[0][0] is _PointIter)

    return CompiledRule(
        heads=tuple(atom_terms(h.atom) for h in rule.head),
        var_order=var_order,
        atoms=tuple(atoms),
        neg_atoms=tuple(neg_atoms),
        plans=tuple(plans),
        pre_checks=tuple(pre_checks),
    )


class _LevelIter:
    """Distinct-component iterator of one atom's root under a fixed tuple
    prefix; records each landing's sensitivity under `ctx` when collecting.
    A target is padded to the atom's arity and sought by its key part; one
    key holds one value, so a matched key with a lower value steps on.
    Where the prefix holds the whole key, `_PointIter` stands in for it:
    a lookup, with no cursor, that lands and records the same."""

    __slots__ = ("cur", "karity", "p", "q", "lows", "highs", "key", "stats", "collector",
                 "vertex", "ctx")

    def __init__(self, root, atom: CompiledAtom, p: tuple, stats, collector, ctx):
        self.cur = ptree.Cursor(root)
        self.karity = atom.karity
        self.p = p
        self.q = q = len(p)
        # padding of a target past its component, below or above every value
        n = len(atom.pattern) - q - 1
        self.lows = (MINK,) * n
        self.highs = (TOP,) * n
        self.stats = stats
        self.collector = collector
        self.vertex = atom.vertex
        self.ctx = ctx
        self._seek(p + (MINK,) + self.lows)

    def _seek(self, lo):
        self.stats.seeks += 1
        cur, karity = self.cur, self.karity
        kt = lo[:karity]
        cur.seek(kt)
        if not cur.at_end and cur.key == kt and cur.val < lo[karity:]:
            cur.next()
        self._land(lo)

    def _land(self, lo):
        cur = self.cur
        p = self.p
        found = None if cur.at_end else cur.key + cur.val
        hit = found is not None and found[: self.q] == p
        self.key = found[self.q] if hit else None
        if self.collector is not None:
            hi = found if hit else p + (TOP,) + self.highs
            self.collector.append(SensEntry(self.vertex, lo, hi, self.ctx))

    def seek(self, c):
        if self.key is not None and self.key >= c:
            return
        self._seek(self.p + (c,) + self.lows)

    def next(self):
        # past every tuple sharing the current component
        lo = self.p + (self.key,) + self.highs
        if self.highs:
            self._seek(lo)
        else:
            # the component is the last position: one tuple per component
            self.stats.seeks += 1
            self.cur.next()
            self._land(lo)


class _PointIter:
    """`_LevelIter` at a position past the atom's key, so the prefix fixes
    the key and the root holds at most one candidate: the key's value,
    if its components before the position agree with the prefix. A target
    at or below the candidate's component lands on its tuple; any other
    target, and every `next`, leaves the key for good, recording the same
    miss interval `p + (TOP,) + highs` as the cursor, and one seek."""

    __slots__ = ("rest", "p", "lows", "highs", "key", "stats", "collector", "vertex", "ctx")

    def __init__(self, root, atom: CompiledAtom, p: tuple, stats, collector, ctx):
        karity = atom.karity
        v = ptree.get(root, p[:karity])
        q = len(p) - karity  # the component's index in the value
        # the candidate tuple from the component on, None when there is none
        self.rest = rest = v[q:] if v is not None and v[:q] == p[karity:] else None
        self.p = p
        n = len(atom.pattern) - len(p) - 1
        self.lows = (MINK,) * n
        self.highs = (TOP,) * n
        self.stats = stats
        self.collector = collector
        self.vertex = atom.vertex
        self.ctx = ctx
        stats.seeks += 1
        self.key = None if rest is None else rest[0]
        if collector is not None:
            self._record(p + (MINK,) + self.lows)

    def _record(self, lo):
        p = self.p
        hi = p + (TOP,) + self.highs if self.key is None else p + self.rest
        self.collector.append(SensEntry(self.vertex, lo, hi, self.ctx))

    def seek(self, c):
        key = self.key
        if key is not None and key >= c:
            return
        self.stats.seeks += 1
        self.key = None
        if self.collector is not None:
            self._record(self.p + (c,) + self.lows)

    def next(self):
        self.stats.seeks += 1
        lo = self.p + (self.key,) + self.highs
        self.key = None
        if self.collector is not None:
            self._record(lo)


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
    collector: Optional[list] = None,
    fixed: Optional[dict] = None,
    stats: Optional[Stats] = None,
    bindings: Optional[list] = None,
) -> RuleResult:
    """Enumerate all satisfying bindings; instantiate head atoms.

    `views` maps vertex names to `ptree` roots (key -> value tuple); an
    atom's `CompiledAtom` says where its key ends. `args` binds the rule's
    `$param` slots, as `Rule.args`. A `collector` list gets one
    `SensEntry` per cursor operation. `fixed` pins a prefix of the
    variable order to given values (membership is still verified), used
    for region-restricted re-evaluation.

    `bindings`, given in place of `args`, is a list of `args` evaluated
    as one group: head counts add up over the bindings, each recorded
    context starts with the binding's index, and `fixed` pins that index
    under `BINDING`, so re-running a context runs one binding.
    """
    return _Evaluator(compiled, views, args, collector, fixed, stats, bindings).run()


class _Evaluator:
    """The state of one `eval_rule` call. Its methods refer to each other
    only through the instance, which refers to none of them, so reference
    counting frees everything a call allocates."""

    __slots__ = ("compiled", "views", "collector", "fixed", "stats", "bindings", "indexed",
                 "binding", "prefix", "result")

    def __init__(self, compiled, views, args, collector, fixed, stats, bindings):
        self.compiled = compiled
        self.views = views
        self.collector = collector
        self.fixed = fixed or {}
        self.stats = stats if stats is not None else Stats()
        self.indexed = bindings is not None
        self.bindings = bindings if self.indexed else [args]
        self.result = RuleResult(head_counts=[{} for _ in compiled.heads])

    def run(self) -> RuleResult:
        pinned = self.fixed.get(BINDING)
        for i in range(len(self.bindings)) if pinned is None else (pinned,):
            # variables and `$param` slots alike: a slot is a name bound throughout
            self.binding = dict(self.bindings[i])
            self.prefix = (i,) if self.indexed else ()
            if self.run_checks(self.compiled.pre_checks, 0):
                self.enum(0)
        return self.result

    def val(self, t):
        return t.value if t.__class__ is Const else self.binding[t.name]

    def ctx(self, level):
        binding = self.binding
        return self.prefix + tuple(binding[v] for v in self.compiled.var_order[:level])

    def probe(self, ca: CompiledAtom, level) -> bool:
        """Exact-presence test with point sensitivity."""
        t = tuple(self.val(x) for x in ca.pattern)
        self.stats.seeks += 1
        if self.collector is not None:
            self.collector.append(SensEntry(ca.vertex, t, t, self.ctx(level)))
        return ptree.get(self.views[ca.vertex], t[: ca.karity]) == t[ca.karity:]

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

    @staticmethod
    def holds(iters, c) -> bool:
        """Whether every iterator holds a pinned or computed value."""
        for it in iters:
            it.seek(c)
            if it.key != c:
                return False
        return True

    def accept(self, plan, level, c):
        self.binding[plan.var] = c
        if self.run_checks(plan.checks, level):
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
        for cls, ai, q in plan.joiners:
            atom = compiled.atoms[ai]
            iters.append(cls(
                self.views[atom.vertex],
                atom,
                tuple(self.val(t) for t in atom.pattern[:q]),
                self.stats,
                self.collector,
                ctx,
            ))
        if plan.var in self.fixed:
            c = self.fixed[plan.var]
            # a pinned value must also be the one the level's compute gives
            if self.holds(iters, c) and (
                    not plan.compute or self.compute_value(plan.compute[0], plan.var) == c):
                self.accept(plan, level, c)
            return
        if plan.compute:
            c = self.compute_value(plan.compute[0], plan.var)
            if self.holds(iters, c):
                self.accept(plan, level, c)
            return
        if plan.lookup:
            # one candidate: accept it, then step past it as the loop would
            (it,) = iters
            if it.key is not None:
                self.accept(plan, level, it.key)
                it.next()
            return
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
