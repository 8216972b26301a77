"""Parser, AST and type checker for the core rule language.

Concrete syntax (close to the notation of the rule figures):

    D(x, y) <- A(x), B(x, y), C(y).
    ^acct_balance[n1] = a <- account_by_name["Alice"] = n1,
                             a = acct_balance@start[n1] - 100.
    false <- account_by_name["Alice"] = n1, acct_balance[n1] < 0.

`<-` separates head from body, `^` marks an upsert head, `!` negates a
single atom, `;` is disjunction (split into one rule per disjunct),
`@start` reads a database predicate as of transaction start, and `false`
heads a constraint. Arithmetic in terms is lowered to primitive atoms
over fresh temporaries.

A `$name` is a parameter: a slot, not a constant. `parse_rules` parses
and type-checks each text once per schema into a template whose rules
hold `Param` slots, then binds the values of one call into each rule's
`args`; the template's head and body are shared by every binding, so a
transaction compiles each distinct template once and the join reads
the bound values at evaluation.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Optional

from .pstore import Schema
from .values import INT64, SchemaError, literal_tag

AT_START = "start"
AT_END = "end"
_ARITH_SYMBOLS = {"+": "add", "-": "sub", "*": "mul"}


class ParseError(Exception):
    def __init__(self, msg, line=None, col=None):
        if line is not None:
            msg = f"{msg} (line {line}, col {col})"
        super().__init__(msg)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    value: object

    def __repr__(self):
        return repr(self.value)

    @property
    def tag(self):
        return literal_tag(self.value)


@dataclass(frozen=True)
class Param:
    """A `$name` slot; a rule's `args` binds it to a value."""

    name: str  # with its `$`, so it never names a variable

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class RelAtom:
    pred: str
    args: tuple
    stage: str = AT_END


@dataclass(frozen=True)
class FunAtom:
    pred: str
    key_args: tuple
    value_args: tuple
    stage: str = AT_END


# primitive ops: ternary arithmetic (a, b, out); the others are binary
# comparisons (a, b): eq, ne, lt, le, gt, ge
ARITH_OPS = ("add", "sub", "mul")


@dataclass(frozen=True)
class PrimAtom:
    op: str
    args: tuple


@dataclass(frozen=True)
class NegAtom:
    atom: object  # RelAtom | FunAtom | PrimAtom


@dataclass(frozen=True)
class HeadAtom:
    atom: object  # RelAtom | FunAtom
    is_upsert: bool = False


@dataclass(frozen=True)
class Rule:
    head: tuple  # () for a constraint
    body: tuple
    is_constraint: bool = False
    exists_vars: tuple = ()
    span: tuple = (0, 0)  # (line, col) of the rule start
    args: tuple = ()  # ((param name, value), ...) bound to its Param slots


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<arrow><-)
  | (?P<relop><=|>=|!=|<|>)
  | (?P<punct>[()\[\],.;=^!+\-*@$])
  | (?P<int>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_:]*)
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        val = m.group()
        if kind != "ws":
            tokens.append((kind, val, line, col))
        nl = val.count("\n")
        if nl:
            line += nl
            col = len(val) - val.rfind("\n")
        else:
            col += len(val)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.params: dict = {}  # `$name` -> (line, col) of its first use
        self.temp_count = 0
        self._used_idents = {t[1] for t in self.tokens if t[0] == "ident"}

    def peek(self, k=0):
        return self.tokens[self.i + k]

    def take(self, kind=None, val=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {val or kind}, got {tok[1]!r}", tok[2], tok[3])
        if val is not None and tok[1] != val:
            raise ParseError(f"expected {val!r}, got {tok[1]!r}", tok[2], tok[3])
        self.i += 1
        return tok

    def at(self, val):
        return self.tokens[self.i][1] == val and self.tokens[self.i][0] != "string"

    def fresh_var(self):
        while True:
            self.temp_count += 1
            name = f"_t{self.temp_count}"
            if name not in self._used_idents:
                return Var(name)

    # ---- rules ----

    def parse_program(self):
        rules = []
        while self.peek()[0] != "eof":
            rules.extend(self.parse_rule())
        return rules

    def parse_rule(self):
        span = self.peek()[2:4]
        is_constraint = False
        head = []
        if self.at("false"):
            self.take()
            is_constraint = True
        else:
            head.append(self.parse_head_atom())
            while self.at(","):
                self.take()
                head.append(self.parse_head_atom())
        self.take("arrow")
        disjuncts = self.parse_body_disjunction()
        self.take("punct", ".")
        out = []
        for exists_vars, body in disjuncts:
            out.append(
                Rule(
                    head=tuple(head),
                    body=tuple(body),
                    is_constraint=is_constraint,
                    exists_vars=tuple(exists_vars),
                    span=span,
                )
            )
        return out

    def parse_head_atom(self):
        is_upsert = self.at("^")
        if is_upsert:
            self.take()
        tok = self.peek()
        name, stage, bracket, terms = self.parse_atom()
        if stage == AT_START:
            raise ParseError("@start cannot decorate a head atom", tok[2], tok[3])
        if bracket == "(":
            return HeadAtom(RelAtom(name, terms), is_upsert)
        self.take("punct", "=")
        return HeadAtom(FunAtom(name, terms, (self.parse_simple_term(),)), is_upsert)

    def parse_body_disjunction(self):
        disjuncts = [self.parse_conj()]
        while self.at(";"):
            self.take()
            disjuncts.append(self.parse_conj())
        return disjuncts

    def parse_conj(self):
        exists_vars = []
        if self.at("exists"):
            self.take()
            exists_vars.append(self.take("ident")[1])
            while self.at(","):
                self.take()
                exists_vars.append(self.take("ident")[1])
            self.take("punct", ".")
        body = []
        body.extend(self.parse_dform())
        while self.at(","):
            self.take()
            body.extend(self.parse_dform())
        return exists_vars, body

    def parse_dform(self):
        if self.at("!"):
            self.take()
            return self.parse_negation()
        return self.parse_positive()

    def parse_negation(self):
        if self.at("("):
            tok = self.take()
            if self.at("exists"):
                raise ParseError(
                    "quantified negation is not supported: existential variables "
                    "may not be scoped under '!'",
                    tok[2],
                    tok[3],
                )
            _, inner = self.parse_conj()
            self.take("punct", ")")
            if len(inner) != 1:
                raise ParseError("negation is restricted to a single atom", tok[2], tok[3])
            return [NegAtom(inner[0])]
        atoms = self.parse_positive()
        if len(atoms) != 1:
            tok = self.peek()
            raise ParseError("negation is restricted to a single atom", tok[2], tok[3])
        return [NegAtom(atoms[0])]

    def parse_positive(self):
        """One body conjunct; may expand to several atoms via lowering."""
        tok = self.peek()
        if (tok[0] == "ident" and tok[1] not in ("true", "false", "exists")
                and self.peek(1)[1] in ("(", "[", "@")):
            name, stage, bracket, terms = self.parse_atom()
            if bracket == "(":
                return [RelAtom(name, terms, stage)]
            if self.at("="):
                self.take()
                val, pre = self.parse_expr()
                return pre + [FunAtom(name, terms, (val,), stage)]
            # value used in a comparison / larger expression
            out = self.fresh_var()
            lhs, pre = self.parse_expr((out, [FunAtom(name, terms, (out,), stage)]))
            return self._finish_comparison(lhs, pre)
        # otherwise: comparison or assignment over expressions
        lhs, pre = self.parse_expr()
        return self._finish_comparison(lhs, pre)

    def _finish_comparison(self, lhs, pre):
        tok = self.peek()
        if tok[0] == "relop" or tok[1] == "=":
            op_tok = self.take()
            rhs, pre2 = self.parse_expr()
            op = {
                "=": "eq",
                "!=": "ne",
                "<": "lt",
                "<=": "le",
                ">": "gt",
                ">=": "ge",
            }[op_tok[1]]
            if op == "eq" and isinstance(lhs, Var):
                # normalize assignments so arithmetic binds the named variable
                if pre2 and isinstance(pre2[-1], PrimAtom) and pre2[-1].args[-1] == rhs:
                    last = pre2[-1]
                    return pre + pre2[:-1] + [PrimAtom(last.op, last.args[:-1] + (lhs,))]
                if (
                    pre2
                    and isinstance(pre2[-1], FunAtom)
                    and pre2[-1].value_args == (rhs,)
                ):
                    last = pre2[-1]
                    return pre + pre2[:-1] + [
                        FunAtom(last.pred, last.key_args, (lhs,), last.stage)
                    ]
            return pre + pre2 + [PrimAtom(op, (lhs, rhs))]
        raise ParseError(f"expected comparison, got {tok[1]!r}", tok[2], tok[3])

    def parse_atom(self):
        """`name`, an optional `@start`, then `(terms)` or `[terms]`:
        returns (name, stage, opening bracket, terms)."""
        name = self.take("ident")[1]
        stage = AT_END
        if self.at("@"):
            self.take()
            stage_tok = self.take("ident")
            if stage_tok[1] != "start":
                raise ParseError(
                    f"unknown stage decoration @{stage_tok[1]}", stage_tok[2], stage_tok[3]
                )
            stage = AT_START
        tok = self.peek()
        if not (self.at("(") or self.at("[")):
            raise ParseError(f"expected '(' or '[' after {name}", tok[2], tok[3])
        self.take()
        close = ")" if tok[1] == "(" else "]"
        terms = []
        if not self.at(close):
            terms.append(self.parse_simple_term())
            while self.at(","):
                self.take()
                terms.append(self.parse_simple_term())
        self.take("punct", close)
        return name, stage, tok[1], tuple(terms)

    # ---- expressions, lowered to primitive atoms ----

    def parse_simple_term(self):
        term, pre = self.parse_factor()
        if pre:
            tok = self.peek()
            raise ParseError("nested atoms are not allowed here", tok[2], tok[3])
        return term

    def parse_expr(self, first=None, sums=True):
        """A sum of products (only a product when not `sums`), lowered to
        primitive atoms over fresh temporaries; `first` is its first
        factor as (term, pre) when the caller parsed it already."""
        term, pre = first or self.parse_factor()
        while self.at("*") or (sums and (self.at("+") or self.at("-"))):
            op = _ARITH_SYMBOLS[self.take()[1]]
            rhs, pre2 = self.parse_factor() if op == "mul" else self.parse_expr(sums=False)
            out = self.fresh_var()
            pre = pre + pre2 + [PrimAtom(op, (term, rhs, out))]
            term = out
        return term, pre

    def parse_factor(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            return _int_const(int(tok[1])), []
        if tok[1] == "-" and self.peek(1)[0] == "int":
            self.take()
            return _int_const(-int(self.take()[1])), []
        if tok[0] == "string":
            self.take()
            return Const(tok[1][1:-1].replace('\\"', '"').replace("\\\\", "\\")), []
        if tok[1] == "$":
            self.take()
            name = "$" + self.take("ident")[1]
            self.params.setdefault(name, tok[2:4])
            return Param(name), []
        if tok[1] == "(" and tok[0] == "punct":
            self.take()
            term, pre = self.parse_expr()
            self.take("punct", ")")
            return term, pre
        if tok[0] == "ident":
            if tok[1] == "true":
                self.take()
                return Const(True), []
            if tok[1] == "false":
                self.take()
                return Const(False), []
            if self.peek(1)[1] in ("[", "@"):
                # function access in expression position: F[k] or F@start[k]
                out = self.fresh_var()
                name, stage, bracket, keys = self.parse_atom()
                if bracket != "[":
                    raise ParseError(f"expected '[' after {name}", tok[2], tok[3])
                return out, [FunAtom(name, keys, (out,), stage)]
            self.take()
            return Var(tok[1]), []
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])


def _int_const(value):
    literal_tag(value)  # rejects ints outside int64
    return Const(value)


def parse_rules(text: str, schema: Optional[Schema] = None, params=None):
    """Parse rule text into a list of Rule ASTs, binding `params`
    ({name: value}) to its `$name` slots.

    Disjunction is distributed into one rule per disjunct; quantified
    negation is rejected with a scope diagnostic. With a schema, atoms
    are arity- and type-checked, and each bound value must have the
    type its slot is used at, as if it were written in as a literal.
    An unbound `$name` raises ParseError at its first use.
    """
    rules, slots, rule_tags = _template(text, schema)
    if not slots:
        return list(rules)
    params = params or {}
    values, tags = {}, {}
    for name, line, col in slots:
        if name[1:] not in params:
            raise ParseError(f"unbound parameter {name}", line, col)
        values[name] = params[name[1:]]
        tags[name] = literal_tag(values[name])
    out = []
    for rule, slot_tags in zip(rules, rule_tags):
        if schema is not None and any(tags[n] != tag for n, tag in slot_tags):
            # an untyped or mistyped slot: check as if the values were literals
            typecheck_rule(rule, schema, {n: tags[n] for n, _ in slot_tags})
        args = tuple((n, values[n]) for n, _ in slot_tags)
        out.append(Rule(rule.head, rule.body, rule.is_constraint, rule.exists_vars,
                        rule.span, args))
    return out


@functools.lru_cache(maxsize=256)
def _template(text: str, schema: Optional[Schema]):
    """Parse and type-check `text` once per schema: returns its rules with
    unbound Param slots, each slot's (name, line, col) at first use, and
    per rule its slots with the type each is used at (None if untyped).
    The cache is keyed by the schema's value and holds only immutable
    results, so sharing it across callers changes no outcome."""
    parser = _Parser(text)
    rules = tuple(parser.parse_program())
    rule_tags = []
    for rule in rules:
        tags = typecheck_rule(rule, schema) if schema is not None else {}
        names = dict.fromkeys(
            t.name for t in _rule_terms(rule) if isinstance(t, Param)
        )
        rule_tags.append(tuple((n, tags.get(n)) for n in names))
    slots = tuple((name, line, col) for name, (line, col) in parser.params.items())
    return rules, slots, tuple(rule_tags)


def _rule_terms(rule: Rule):
    for h in rule.head:
        yield from atom_terms(h.atom)
    for atom in rule.body:
        yield from atom_terms(atom.atom if isinstance(atom, NegAtom) else atom)


def atom_terms(atom):
    """An atom's terms; a function atom's keys, then its value."""
    if isinstance(atom, RelAtom):
        return atom.args
    if isinstance(atom, FunAtom):
        return atom.key_args + atom.value_args
    return atom.args


def typecheck_rule(rule: Rule, schema: Schema, known=None):
    """Arity/type check and range-restriction check; returns the type of
    each variable and `$param` slot, with `known` ({name: tag}) given."""
    var_tags: dict = dict(known or {})

    def note(term, tag, where):
        if isinstance(term, Const):
            if term.tag != tag:
                raise SchemaError(f"constant {term.value!r} is not {tag} in {where}")
        else:
            old = var_tags.get(term.name)
            if old is None:
                var_tags[term.name] = tag
            elif old != tag:
                raise SchemaError(
                    f"variable {term.name} used as both {old} and {tag} in {where}"
                )

    def check_db_atom(atom):
        if atom.pred not in schema:
            return  # derived predicate: no declared signature
        sig = schema.sig(atom.pred)
        if isinstance(atom, RelAtom):
            if len(atom.args) != sig.arity or not sig.is_relation:
                raise SchemaError(f"{atom.pred} arity mismatch")
            for t, tag in zip(atom.args, sig.key_types):
                note(t, tag, atom.pred)
        else:
            if len(atom.key_args) != sig.arity or len(atom.value_args) != len(sig.value_types):
                raise SchemaError(f"{atom.pred} arity mismatch")
            for t, tag in zip(atom.key_args, sig.key_types):
                note(t, tag, atom.pred)
            for t, tag in zip(atom.value_args, sig.value_types):
                note(t, tag, atom.pred)

    # repeat until no tag is learnt, so comparisons pass tags along in any order
    learnt = None
    while learnt != len(var_tags):
        learnt = len(var_tags)
        for atom in rule.body:
            target = atom.atom if isinstance(atom, NegAtom) else atom
            if isinstance(target, (RelAtom, FunAtom)):
                check_db_atom(target)
            elif isinstance(target, PrimAtom):
                if target.op in ARITH_OPS:
                    for t in target.args:
                        note(t, INT64, f"primitive {target.op}")
                else:
                    tags = [
                        (t.tag if isinstance(t, Const) else var_tags.get(t.name))
                        for t in target.args
                    ]
                    known = [t for t in tags if t is not None]
                    if len(set(known)) > 1:
                        raise SchemaError(f"mixed types in comparison {target}")
                    if known:
                        for t in target.args:
                            note(t, known[0], f"primitive {target.op}")
    for h in rule.head:
        check_db_atom(h.atom)

    # range restriction: head variables must be bound positively in the body
    bound = set()
    for atom in rule.body:
        if isinstance(atom, NegAtom):
            continue
        if isinstance(atom, (RelAtom, FunAtom)):
            for t in atom_terms(atom):
                if isinstance(t, Var):
                    bound.add(t.name)
        elif isinstance(atom, PrimAtom) and atom.op in ARITH_OPS:
            t = atom.args[2]
            if isinstance(t, Var):
                bound.add(t.name)
        elif isinstance(atom, PrimAtom) and atom.op == "eq":
            for t in atom.args:
                if isinstance(t, Var):
                    bound.add(t.name)
    for h in rule.head:
        for t in atom_terms(h.atom):
            if isinstance(t, Var) and t.name not in bound:
                raise SchemaError(f"head variable {t.name} is not range-restricted")
    return var_tags


def print_rule(rule: Rule) -> str:
    """Rule text; a bound `$param` prints as its value."""
    args = dict(rule.args)

    def term(t):
        if isinstance(t, Param) and t.name in args:
            t = Const(args[t.name])
        if isinstance(t, Const):
            if isinstance(t.value, bool):
                return "true" if t.value else "false"
            if isinstance(t.value, str):
                return '"' + t.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
            return str(t.value)
        return t.name

    def atom(a):
        if isinstance(a, RelAtom):
            dec = "@start" if a.stage == AT_START else ""
            return f"{a.pred}{dec}(" + ", ".join(term(t) for t in a.args) + ")"
        if isinstance(a, FunAtom):
            dec = "@start" if a.stage == AT_START else ""
            return (
                f"{a.pred}{dec}[" + ", ".join(term(t) for t in a.key_args) + "] = "
                + term(a.value_args[0])
            )
        if isinstance(a, PrimAtom):
            sym = {"add": "+", "sub": "-", "mul": "*"}
            if a.op in ARITH_OPS:
                x, y, out = a.args
                return f"{term(out)} = {term(x)} {sym[a.op]} {term(y)}"
            cmp_sym = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
            x, y = a.args
            return f"{term(x)} {cmp_sym[a.op]} {term(y)}"
        raise TypeError(a)

    head = "false" if rule.is_constraint else ", ".join(
        ("^" if h.is_upsert else "") + atom(h.atom) for h in rule.head
    )
    body = ", ".join(("!" + atom(a.atom)) if isinstance(a, NegAtom) else atom(a) for a in rule.body)
    ex = f"exists {', '.join(rule.exists_vars)} . " if rule.exists_vars else ""
    return f"{head} <- {ex}{body}."


def print_rules(rules) -> str:
    return "\n".join(print_rule(r) for r in rules) + "\n"


def choose_variable_order(rule: Rule):
    """Variable order compatible with every atom's key-prefix pattern.

    Each db atom chains its variables in argument order (first
    occurrences); arithmetic primitives schedule outputs after inputs.
    Deterministic tie-break: first appearance in the body. Rules with no
    consistent order are rejected.
    """
    appearance: dict = {}
    edges: dict = {}

    def seen(v):
        if v not in appearance:
            appearance[v] = len(appearance)
            edges.setdefault(v, set())

    def chain(terms):
        prev = None
        done = set()
        for t in terms:
            if not isinstance(t, Var) or t.name in done:
                continue
            done.add(t.name)
            seen(t.name)
            if prev is not None:
                edges[prev].add(t.name)
            prev = t.name

    for atom in rule.body:
        target = atom.atom if isinstance(atom, NegAtom) else atom
        if isinstance(target, (RelAtom, FunAtom)) and not isinstance(atom, NegAtom):
            chain(atom_terms(target))
        elif isinstance(target, PrimAtom) and target.op in ARITH_OPS:
            x, y, out = target.args
            for t in (x, y):
                if isinstance(t, Var):
                    seen(t.name)
            if isinstance(out, Var):
                seen(out.name)
                for t in (x, y):
                    if isinstance(t, Var):
                        edges[t.name].add(out.name)
        else:
            for t in atom_terms(target):
                if isinstance(t, Var):
                    seen(t.name)

    # Kahn's algorithm with first-appearance tie-break
    indeg = {v: 0 for v in appearance}
    for v, outs in edges.items():
        for w in outs:
            indeg[w] += 1
    ready = sorted((v for v, d in indeg.items() if d == 0), key=appearance.get)
    order = []
    import heapq

    heap = [(appearance[v], v) for v in ready]
    heapq.heapify(heap)
    while heap:
        _, v = heapq.heappop(heap)
        order.append(v)
        for w in sorted(edges[v], key=appearance.get):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, (appearance[w], w))
    if len(order) != len(appearance):
        raise SchemaError(
            f"no trie-compatible variable ordering for rule {print_rule(rule)!r}"
        )
    return order


# ---- the vertices a transaction's rules read ----

def atom_vertex(atom, schema: Schema, upserted) -> str:
    """The view a body atom reads: `db:p`, database predicate p as of
    transaction start, corrected; `end:p`, db:p with the transaction's own
    upserts, for a plain read of an upserted p; `out:q`, derived q."""
    if atom.pred in schema:
        if atom.stage == AT_START or atom.pred not in upserted:
            return f"db:{atom.pred}"
        return f"end:{atom.pred}"
    return f"out:{atom.pred}"
