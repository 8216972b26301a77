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

A level reads its terms from one dict per call, the binding: a variable
under its name, set when its level accepts a value; a `$param` under
its name, set per binding; and each constant of the plan under a slot
of its own, an int, which no name can be (`_Slots`). Compilation turns
each term list a level reads (a joiner's prefix, the computed value, a
check, a head) into one read of that dict, an `operator.itemgetter`
where it can, so a level costs a few dict reads. The context a level
records under, the binding index and the values of the variables
before it, is passed down the levels, each accepted value extending it
by one.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

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


@dataclass(slots=True)
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
    # per position: the low and high padding of the positions after it
    pads: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pads", _pads(len(self.pattern)))


@functools.cache
def _pads(width: int) -> tuple:
    """Per position of a `width`-term pattern, the low and high padding of
    the positions after it; one table per width, shared by its atoms."""
    return tuple(((MINK,) * n, (TOP,) * n) for n in range(width - 1, -1, -1))


@dataclass
class _LevelPlan:
    """One level of the join. Each read is a function of the binding dict
    (`_Slots`)."""

    var: str
    joiners: list = field(default_factory=list)  # (iterator class, atom_idx, prefix read)
    value: Optional[Callable] = None  # the read computing var, when a primitive does
    # (read, atom, want) per check: a primitive's read gives whether it
    # holds, and atom is None; a probe's gives the probed tuple, which
    # must be present in atom (want True) or absent (want False)
    checks: list = field(default_factory=list)
    lookup: bool = False  # the one joiner is a key-bound atom's, and nothing computes var


@dataclass
class CompiledRule:
    heads: tuple  # per head atom, the read of its tuple; none for a constraint
    var_order: tuple
    atoms: tuple  # positive CompiledAtoms
    neg_atoms: tuple  # negated CompiledAtoms
    plans: tuple  # _LevelPlan per var
    pre_checks: tuple  # checks with no free variables, as a level's
    consts: dict  # the constants' slots of the binding dict, with their values


class _Slots:
    """Where a plan's terms live in the binding dict: a variable or
    `$param` under its name, and each constant under a slot of its own,
    an int, which no name can be."""

    def __init__(self):
        self.consts = {}

    def key(self, t):
        if t.__class__ is Const:
            k = len(self.consts)
            self.consts[k] = t.value
            return k
        return t.name

    def tuple_read(self, terms):
        keys = [self.key(t) for t in terms]
        if len(keys) > 1:
            return operator.itemgetter(*keys)
        if keys:
            (k,) = keys
            return lambda b: (b[k],)
        return _nothing

    def value_read(self, p: PrimAtom, var: str):
        """The read computing `var` from the other terms of `p`."""
        if p.op in ARITH_OPS:
            f = _ARITH[p.op]
            x, y = self.key(p.args[0]), self.key(p.args[1])
            return lambda b: f(b[x], b[y])
        a, other = p.args  # eq: the other side is bound
        return operator.itemgetter(self.key(other if isinstance(a, Var) and a.name == var else a))

    def prim_read(self, p: PrimAtom):
        """The read of whether `p` holds."""
        neg = p.op.startswith("not:")
        op = p.op[4:] if neg else p.op
        keys = [self.key(t) for t in p.args]
        if op in ARITH_OPS:
            f = _ARITH[op]
            x, y, out = keys
            return lambda b: (f(b[x], b[y]) == b[out]) != neg
        f = _COMPARE[op]
        x, y = keys
        return lambda b: f(b[x], b[y]) != neg


def _nothing(_binding):
    return ()


_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_COMPARE = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}


def compile_rule(rule: Rule, schema, upserted=frozenset()) -> CompiledRule:
    """Plan `rule`; atoms of `upserted` predicates read their end state.
    The rule first passes `typecheck_rule` against `schema`, as a parsed
    one does; planning adds one check of its own, rejecting a variable
    that no positive atom enumerates and no primitive computes at its
    level, whatever the data."""
    typecheck_rule(rule, schema)
    var_order = tuple(choose_variable_order(rule))
    level_of = {v: i for i, v in enumerate(var_order)}
    slots = _Slots()

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

    def check(lvl, item):
        (pre_checks if lvl < 0 else plans[lvl].checks).append(item)

    # joiner positions: first occurrence of each variable within the atom;
    # past the key, the prefix fixes the key, so the joiner is a lookup
    for idx, ca in enumerate(atoms):
        seen = set()
        last_joiner_pos = -1
        for pos, t in enumerate(ca.pattern):
            if isinstance(t, Var) and t.name not in seen:
                seen.add(t.name)
                cls = _PointIter if pos >= ca.karity else _LevelIter
                plans[level_of[t.name]].joiners.append(
                    (cls, idx, slots.tuple_read(ca.pattern[:pos])))
                last_joiner_pos = pos
        lvl = max_level(ca.pattern)
        if lvl < 0 or last_joiner_pos != len(ca.pattern) - 1:
            # no variable, or trailing constants / repeated variables:
            # exact-match probe
            check(lvl, (slots.tuple_read(ca.pattern), ca, True))

    for ca in neg_atoms:
        check(max_level(ca.pattern), (slots.tuple_read(ca.pattern), ca, False))

    for p in prims:
        lvl = max_level(p.args)
        if lvl >= 0 and plans[lvl].value is None:
            plan = plans[lvl]
            if p.op in ARITH_OPS and isinstance(p.args[2], Var) and p.args[2].name == plan.var:
                if max_level(p.args[:2]) < lvl:
                    plan.value = slots.value_read(p, plan.var)
                    continue
            if p.op == "eq":
                vs = [t for t in p.args if isinstance(t, Var) and t.name == plan.var]
                if len(vs) == 1 and max_level([t for t in p.args if t is not vs[0]]) < lvl:
                    plan.value = slots.value_read(p, plan.var)
                    continue
        check(lvl, (slots.prim_read(p), None, True))

    for plan in plans:
        if not plan.joiners and plan.value is None:
            raise SchemaError(f"variable {plan.var} has no enumerable source")
        plan.lookup = (plan.value is None and len(plan.joiners) == 1
                       and plan.joiners[0][0] is _PointIter)

    return CompiledRule(
        heads=tuple(slots.tuple_read(atom_terms(h.atom)) for h in rule.head),
        var_order=var_order,
        atoms=tuple(atoms),
        neg_atoms=tuple(neg_atoms),
        plans=tuple(plans),
        pre_checks=tuple(pre_checks),
        consts=slots.consts,
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
        self.lows, self.highs = atom.pads[q]
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
        self.lows, self.highs = atom.pads[len(p)]
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
    indexed = bindings is not None
    return _Evaluator(compiled, views, collector, fixed, stats).run(
        bindings if indexed else [args], indexed)


class _Evaluator:
    """The state of one `eval_rule` call. Its methods refer to each other
    only through the instance, which refers to none of them, so reference
    counting frees everything a call allocates.

    One dict binds every name a read of the plan reads: the constants'
    slots, the binding's `$param` slots and each variable from its level
    on. A level's context, the values of the variables before it, is
    passed down, each level adding its own."""

    __slots__ = ("compiled", "views", "collector", "fixed", "stats", "binding", "result")

    def __init__(self, compiled, views, collector, fixed, stats):
        self.compiled = compiled
        self.views = views
        self.collector = collector
        self.fixed = fixed or {}
        self.stats = stats if stats is not None else Stats()
        self.binding = dict(compiled.consts)
        self.result = RuleResult(head_counts=[{} for _ in compiled.heads])

    def run(self, bindings, indexed) -> RuleResult:
        pinned = self.fixed.get(BINDING)
        pre_checks = self.compiled.pre_checks
        for i in range(len(bindings)) if pinned is None else (pinned,):
            # a variable is set before any read of it, so one dict serves
            # every binding
            self.binding.update(bindings[i])
            ctx = (i,) if indexed else ()
            if not pre_checks or self.run_checks(pre_checks, ctx):
                self.enum(0, ctx)
        return self.result

    def run_checks(self, checks, ctx) -> bool:
        binding = self.binding
        for read, atom, want in checks:
            if atom is None:
                if not read(binding):
                    return False
            else:
                # an exact-presence probe, with point sensitivity
                t = read(binding)
                self.stats.seeks += 1
                if self.collector is not None:
                    self.collector.append(SensEntry(atom.vertex, t, t, ctx))
                k = atom.karity
                if (ptree.get(self.views[atom.vertex], t[:k]) == t[k:]) is not want:
                    return False
        return True

    def emit_binding(self):
        self.stats.bindings += 1
        heads = self.compiled.heads
        if not heads:
            self.result.constraint_hits += 1
            return
        binding = self.binding
        for read, counts in zip(heads, self.result.head_counts):
            t = read(binding)
            counts[t] = counts.get(t, 0) + 1

    @staticmethod
    def holds(iters, c) -> bool:
        """Whether every iterator holds a pinned or computed value."""
        for it in iters:
            it.seek(c)
            if it.key != c:
                return False
        return True

    def accept(self, plan, level, c, ctx):
        self.binding[plan.var] = c
        if not plan.checks or self.run_checks(plan.checks, ctx):
            self.enum(level + 1, ctx + (c,))

    def enum(self, level, ctx):
        compiled = self.compiled
        if level == len(compiled.plans):
            self.emit_binding()
            return
        plan = compiled.plans[level]
        binding, atoms, views = self.binding, compiled.atoms, self.views
        iters = []
        for cls, ai, prefix in plan.joiners:
            atom = atoms[ai]
            iters.append(cls(views[atom.vertex], atom, prefix(binding), self.stats,
                             self.collector, ctx))
        if plan.var in self.fixed:
            c = self.fixed[plan.var]
            # a pinned value must also be the one the level's compute gives
            if self.holds(iters, c) and (plan.value is None or plan.value(binding) == c):
                self.accept(plan, level, c, ctx)
            return
        if plan.value is not None:
            c = plan.value(binding)
            if self.holds(iters, c):
                self.accept(plan, level, c, ctx)
            return
        if plan.lookup:
            # one candidate: accept it, then step past it as the loop would
            (it,) = iters
            if it.key is not None:
                self.accept(plan, level, it.key, ctx)
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
                self.accept(plan, level, max_key, ctx)
                it.next()
            else:
                it.seek(max_key)
            if it.key is None:
                return
            max_key = it.key
            p_i = (p_i + 1) % k
