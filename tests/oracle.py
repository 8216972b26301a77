"""A brute-force transaction evaluator: the independent test oracle.

It runs parsed rules (`rulelang.Rule`) over a dict snapshot,
{pred name: {key tuple: value tuple}}, by nested loops over whole
relations. Below the parser it shares nothing with the engine's join,
maintenance, view or transaction code: it orders nothing by plan, keeps
no sensitivity and reads no persistent tree.

The semantics it encodes: a body atom of a database predicate reads the
snapshot when it is decorated `@start` or when the transaction upserts
nothing of its predicate, and otherwise the end state, the snapshot with
every key the transaction upserts to exactly one value put in. A
derived predicate holds the head tuples its rules derive. Each
satisfying assignment of a rule's variables supports its head tuples
once, bindings of a repeated rule included. The transaction fails when
a constraint holds, when an upserted key has two live values, or when
a live upserted tuple leaves its int64 range; otherwise its deltas are
its single-valued upserts.
"""

from txnrepair.rulelang import AT_START, Const, FunAtom, NegAtom, PrimAtom, RelAtom, Var
from txnrepair.values import INT64

OPS = {
    "add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b,
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b, "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b, "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b,
}


class Rejected(Exception):
    """The transaction is not a valid program: a head that writes a
    database predicate without `^` or upserts a predicate outside the
    schema, a derived predicate at two arities or read but never derived,
    a variable no positive atom, equality or arithmetic binds, or a cycle."""


def terms(atom):
    if isinstance(atom, RelAtom):
        return atom.args
    if isinstance(atom, FunAtom):
        return atom.key_args + atom.value_args
    return atom.args


def unnegated(rule):
    """The body's atoms, each negated one without its negation."""
    return [a.atom if isinstance(a, NegAtom) else a for a in rule.body]


def in_range(tags, values):
    return all(tag != INT64 or -(2**63) <= v < 2**63 for tag, v in zip(tags, values))


class Txn:
    """One transaction's evaluation over `snapshot`; `schema` gives each
    database predicate's key arity and types."""

    def __init__(self, schema, snapshot, rules):
        self.schema = schema
        self.snapshot = snapshot
        self.rules = rules
        self.upserted = {h.atom.pred for r in rules for h in r.head if h.is_upsert}
        # rule index -> per satisfying assignment, its head tuples (none
        # for a constraint)
        self.results = {}
        self.running = set()
        self.relations = {}  # ("db" | "end" | "out", pred) -> {full tuple}
        self.check()

    def check(self):
        arity = {}  # derived predicate -> its arity
        for r in self.rules:
            for h in r.head:
                if h.is_upsert != (h.atom.pred in self.schema):
                    raise Rejected(f"bad head {h}")
            for a in [h.atom for h in r.head] + unnegated(r):
                if not isinstance(a, PrimAtom) and a.pred not in self.schema:
                    if arity.setdefault(a.pred, len(terms(a))) != len(terms(a)):
                        raise Rejected(f"{a.pred} at two arities")
            if unsourced(r):
                raise Rejected(f"no source for {unsourced(r)}")
        derived = {h.atom.pred for r in self.rules for h in r.head if not h.is_upsert}
        if set(arity) - derived:
            raise Rejected(f"never derived: {set(arity) - derived}")

    # ---- what an atom reads, computed on demand ----

    def tuples(self, atom):
        """The full tuples (key + value) the atom ranges over."""
        pred = atom.pred
        if pred not in self.schema:
            kind = "out"
        elif atom.stage == AT_START or pred not in self.upserted:
            kind = "db"
        else:
            kind = "end"
        if (kind, pred) not in self.relations:
            if kind == "db":
                rel = {k + v for k, v in self.snapshot.get(pred, {}).items()}
            elif kind == "end":
                table = dict(self.snapshot.get(pred, {}))
                table.update((k, next(iter(vals))) for k, vals in self.upserts(pred).items()
                             if len(vals) == 1)
                rel = {k + v for k, v in table.items()}
            else:
                rel = set(self.heads(pred, False))
            self.relations[kind, pred] = rel
        return self.relations[kind, pred]

    def heads(self, pred, upsert):
        """The head tuple of pred per assignment of every rule writing it."""
        for i, rule in enumerate(self.rules):
            for h, head in enumerate(rule.head):
                if head.atom.pred == pred and head.is_upsert == upsert:
                    yield from (heads[h] for heads in self.run_rule(i))

    def upserts(self, pred):
        """{key: {value: supporting assignments}} of the upserts to pred."""
        arity = self.schema.sig(pred).arity
        out = {}
        for t in self.heads(pred, True):
            vals = out.setdefault(t[:arity], {})
            vals[t[arity:]] = vals.get(t[arity:], 0) + 1
        return out

    # ---- one rule, by nested loops ----

    def run_rule(self, i):
        if i in self.results:
            return self.results[i]
        if i in self.running:
            raise Rejected("cyclic rule dependencies")
        self.running.add(i)
        rule = self.rules[i]
        for a in unnegated(rule):  # every read first, so that a cycle always shows
            if not isinstance(a, PrimAtom):
                self.tuples(a)
        positive = [a for a in rule.body if isinstance(a, (RelAtom, FunAtom))]
        prims = [a for a in rule.body if isinstance(a, PrimAtom)]
        found = []
        for env in self.join(positive, dict(rule.args)):
            # the positive atoms bind the same names in every env
            for p, name in computes(prims, env):
                if p.op == "eq":
                    env[name] = value(p.args[1] if p.args[0] == Var(name) else p.args[0], env)
                else:
                    env[name] = OPS[p.op](value(p.args[0], env), value(p.args[1], env))
            if self.checks(rule, env):
                found.append(tuple(tuple(value(t, env) for t in terms(h.atom))
                                   for h in rule.head))
        self.running.discard(i)
        self.results[i] = found
        return found

    def join(self, atoms, env):
        if not atoms:
            yield env
            return
        pattern = terms(atoms[0])
        for t in self.tuples(atoms[0]):
            new = unify(pattern, t, env)
            if new is not None:
                yield from self.join(atoms[1:], new)

    def checks(self, rule, env):
        for a in rule.body:
            target = a.atom if isinstance(a, NegAtom) else a
            if isinstance(target, PrimAtom):
                args = [value(t, env) for t in target.args]
                ok = (OPS[target.op](*args[:2]) == args[2] if len(args) == 3
                      else OPS[target.op](*args))
            elif isinstance(a, NegAtom):
                ok = tuple(value(t, env) for t in terms(target)) in self.tuples(target)
            else:
                continue
            if ok == isinstance(a, NegAtom):
                return False
        return True

    # ---- the outcome ----

    def outcome(self):
        """(failed, {pred: {key: value}} deltas); every rule runs once."""
        for i in range(len(self.rules)):
            self.run_rule(i)
        if any(not r.head and self.results[i] for i, r in enumerate(self.rules)):
            return True, {}
        deltas = {}
        for pred in sorted(self.upserted):
            sig = self.schema.sig(pred)
            for key, vals in self.upserts(pred).items():
                if len(vals) > 1:
                    return True, {}
                (val,) = vals
                if not (in_range(sig.key_types, key) and in_range(sig.value_types, val)):
                    return True, {}
                deltas.setdefault(pred, {})[key] = val
        return False, deltas


def computes(prims, bound):
    """The (primitive, variable) pairs that bind each variable not in
    `bound`, in an order that binds it after its inputs: an arithmetic
    output once its inputs are bound, an equality's side once the other
    side is."""
    bound, out = set(bound), []
    grew = True
    while grew:
        grew = False
        for p in prims:
            free = [t.name for t in p.args if isinstance(t, Var) and t.name not in bound]
            if len(free) == 1 and (p.op == "eq" or len(p.args) == 3 and p.args[2] == Var(*free)):
                bound.add(free[0])
                out.append((p, free[0]))
                grew = True
    return out


def unsourced(rule):
    """The variables of `rule` that no positive atom binds and no
    primitive computes."""
    every = {t.name for a in unnegated(rule) + [h.atom for h in rule.head] for t in terms(a)
             if isinstance(t, Var)}
    bound = {t.name for a in rule.body if isinstance(a, (RelAtom, FunAtom))
             for t in terms(a) if isinstance(t, Var)}
    prims = [a for a in rule.body if isinstance(a, PrimAtom)]
    return every - bound - {name for _p, name in computes(prims, bound)}


def value(term, env):
    if isinstance(term, Const):
        return term.value
    return env[term.name]  # a Var or a bound Param


def unify(pattern, t, env):
    env = dict(env)
    for term, v in zip(pattern, t):
        if isinstance(term, Const):
            if term.value != v:
                return None
        elif term.name in env:
            if env[term.name] != v:
                return None
        else:
            env[term.name] = v
    return env


def run_serial(schema, snapshot, txns):
    """Run the transactions one at a time: the final snapshot and, per
    transaction, whether it failed."""
    state = {pred: dict(table) for pred, table in snapshot.items()}
    failed = []
    for rules in txns:
        bad, deltas = Txn(schema, state, rules).outcome()
        failed.append(bad)
        for pred, table in deltas.items():
            state.setdefault(pred, {}).update(table)
    return state, failed
