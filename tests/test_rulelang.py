"""Rule language: parsing, lowering, ordering, the vertices rules read."""

import pytest

from txnrepair.pstore import DbVersion, PredicateSig, Schema, store_upsert
from txnrepair.rulelang import (
    AT_START,
    Const,
    FunAtom,
    NegAtom,
    Param,
    ParseError,
    PrimAtom,
    RelAtom,
    Var,
    choose_variable_order,
    parse_rules,
    print_rule,
    print_rules,
    typecheck_rule,
)
from txnrepair.txn import EVALUATED, TxnExec
from txnrepair.values import INT64, STRING, SchemaError


@pytest.fixture
def schema():
    return Schema.from_sigs([
        PredicateSig("bal", 0, (INT64,), (INT64,)),
        PredicateSig("edge", 1, (INT64, INT64)),
        PredicateSig("name", 2, (INT64,), (STRING,)),
    ])


def body_preds(rule):
    out = []
    for a in rule.body:
        t = a.atom if isinstance(a, NegAtom) else a
        if isinstance(t, (RelAtom, FunAtom)):
            out.append(t.pred)
    return out


def reads(txn, i):
    """The vertices rule `i` of `txn` reads, from the compiled plan of
    its group (the rules bound from its template): positive atoms, then
    negated ones."""
    (plan,) = [txn.shape.compiled[g] for g, rules in enumerate(txn.groups) if i in rules]
    return [a.vertex for a in plan.atoms + plan.neg_atoms]


def test_parse_relation_rule():
    (r,) = parse_rules("path(x, z) <- edge(x, y), edge(y, z).")
    assert r.head[0].atom.pred == "path"
    assert not r.head[0].is_upsert
    assert body_preds(r) == ["edge", "edge"]


def test_parse_upsert_and_function(schema):
    (r,) = parse_rules("^bal[k] = v2 <- v = bal@start[k], v2 = v + 1.", schema)
    assert r.head[0].is_upsert
    fun = r.body[0]
    assert isinstance(fun, FunAtom) and fun.stage == "start"
    prims = [a for a in r.body if isinstance(a, PrimAtom)]
    assert any(p.op == "add" for p in prims)


def test_arith_lowering_targets_named_var():
    (r,) = parse_rules("p(a) <- q(x), a = x * 2 + 1.")
    prims = [a for a in r.body if isinstance(a, PrimAtom)]
    # mul into a temp, then add targeting `a` directly
    assert prims[-1].op == "add"
    assert prims[-1].args[-1] == Var("a")


def test_fresh_temps_avoid_source_idents():
    (r,) = parse_rules("p(a) <- q(_t1), a = _t1 + 1.")
    names = {t.name for a in r.body if isinstance(a, PrimAtom) for t in a.args
             if isinstance(t, Var)}
    assert "_t1" in names  # the source one survives untouched
    text = print_rule(r)
    (r2,) = parse_rules(text)
    assert print_rule(r2) == text


def test_params_substitution(schema):
    (r,) = parse_rules("^bal[$k] = v <- v = bal@start[$k] + $d.", schema,
                       params={"k": 3, "d": -2})
    read, add = r.body
    assert r.head[0].atom.key_args == read.key_args == (Param("$k"),)
    assert add == PrimAtom("add", (read.value_args[0], Param("$d"), Var("v")))
    assert r.args == (("$k", 3), ("$d", -2))
    assert print_rule(r) == "^bal[3] = v <- bal@start[3] = _t1, v = _t1 + -2."


def test_disjunction_splits():
    rules = parse_rules("p(x) <- q(x); r(x).")
    assert len(rules) == 2
    assert [body_preds(r) for r in rules] == [["q"], ["r"]]


def test_constraint_head(schema):
    (r,) = parse_rules("false <- bal[k] = v, v < 0.", schema)
    assert r.head == () and len(r.body) == 2


def test_negation_single_atom():
    (r,) = parse_rules("p(x) <- q(x), !r(x).")
    assert isinstance(r.body[1], NegAtom)


def test_quantified_negation_rejected():
    with pytest.raises(ParseError, match="scope"):
        parse_rules("p(x) <- q(x), !(exists y . r(x, y)).")


def test_negation_of_two_atoms_rejected():
    """A parenthesised conjunction, and an unparenthesised comparison that
    lowers to two atoms (`F[x] = _t, _t < 3`), both fail at the negation."""
    for text, col in (("p(x) <- q(x), !(r(x), s(x)).", 16), ("p(x) <- q(x), !F[x] < 3.", 24)):
        with pytest.raises(ParseError, match="negation is restricted to a single atom") as ei:
            parse_rules(text)
        assert f"line 1, col {col}" in str(ei.value)


def test_exists_prefix_is_dropped():
    (r,) = parse_rules("p(x) <- exists y, z . q(x, y), s(y, z).")
    assert r == parse_rules("p(x) <- q(x, y), s(y, z).")[0]


def test_boolean_literals():
    (r,) = parse_rules("p(x) <- q(x, b), b = true, !(b = false).")
    assert r.body[1:] == (
        PrimAtom("eq", (Var("b"), Const(True))),
        NegAtom(PrimAtom("eq", (Var("b"), Const(False)))),
    )
    assert parse_rules(print_rule(r)) == [r]


def test_parse_error_has_position():
    with pytest.raises(ParseError) as ei:
        parse_rules("p(x) <- q(x,.")
    assert "line" in str(ei.value)


def test_print_round_trip(schema):
    corpus = [
        "path(x, z) <- edge(x, y), edge(y, z).",
        "^bal[k] = v2 <- v = bal@start[k], v2 = v - 3.",
        "false <- bal[k] = v, v < 0.",
        "p(x) <- edge(x, y), !edge(y, x).",
        "p(x) <- edge@start(x, y), !edge@start(y, x).",
        "p(x) <- exists y . edge(x, y).",
    ]
    for text in corpus:
        rules = parse_rules(text, schema)
        printed = print_rules(rules)
        again = parse_rules(printed, schema)
        assert print_rules(again) == printed


@pytest.mark.parametrize("text", [
    "^bal@start[k] = v <- bal[k] = v.",
    "edge@start(x, y) <- edge(y, x).",
])
def test_start_stage_head_rejected(text):
    with pytest.raises(ParseError, match="@start cannot decorate a head atom"):
        parse_rules(text)


def test_start_stage_relation_body_atom(schema):
    """`r@start(x)` reads the database relation as of transaction start,
    also under negation, while a plain read of an upserted relation
    reads its end state."""
    rules = parse_rules(
        "^edge(x, y) <- edge@start(y, x).\n"
        "d(x) <- edge(x, y), !edge@start(y, x).",
        schema,
    )
    assert rules[0].body == (RelAtom("edge", (Var("y"), Var("x")), AT_START),)
    assert rules[1].body[1] == NegAtom(RelAtom("edge", (Var("y"), Var("x")), AT_START))
    txn = TxnExec(schema, rules)
    assert reads(txn, 0) == ["db:edge"]
    assert reads(txn, 1) == ["end:edge", "db:edge"]



def test_typecheck_rejects_bad_arity(schema):
    (r,) = parse_rules("p(x) <- edge(x).")
    with pytest.raises(SchemaError):
        typecheck_rule(r, schema)


def test_typecheck_rejects_unbound_head():
    (r,) = parse_rules("p(x, w) <- q(x).")
    with pytest.raises(SchemaError, match="w"):
        typecheck_rule(r, Schema.from_sigs([]))


def test_equality_of_two_unsourced_variables_binds_neither(schema):
    """Range restriction reads what the planner can enumerate: `x = z`
    with neither side sourced leaves head variable x unbound."""
    with pytest.raises(SchemaError, match="head variable x is not range-restricted"):
        parse_rules("p(x) <- q(y), x = z.", schema)


def test_negated_variable_must_be_sourced(schema):
    with pytest.raises(SchemaError, match="negation variable z is not bound positively"):
        parse_rules("p(x) <- edge(x, x), !bal[x] = z.", schema)
    # an arithmetic input binds nothing; a plan runs the same check
    rules = parse_rules("p(x) <- edge(x, x), !edge(x, z), y = z + 1.")
    with pytest.raises(SchemaError, match="negation variable z is not bound positively"):
        TxnExec(schema, rules)


def test_typecheck_skips_derived_preds(schema):
    (r,) = parse_rules("p(x) <- helper(x), edge(x, x).")
    typecheck_rule(r, schema)  # helper not in schema: fine


def test_variable_order_binds_before_use():
    (r,) = parse_rules("p(a) <- q(x), a = x + 1.")
    order = choose_variable_order(r)
    assert order.index("x") < order.index("a")


def test_variable_order_deterministic():
    (r,) = parse_rules("p(x, y, z) <- q(x, y), r(y, z).")
    assert choose_variable_order(r) == choose_variable_order(r)
    assert list(choose_variable_order(r)) == ["x", "y", "z"]


def test_no_consistent_order_rejected():
    """R(x, y) orders x before y and R(y, x) y before x: no trie level
    order serves both, so the sort finds a cycle."""
    (r,) = parse_rules("p(x) <- R(x, y), R(y, x).")
    with pytest.raises(SchemaError, match="no trie-compatible variable ordering"):
        choose_variable_order(r)


class TestRewrite:
    """How a transaction names what its rules read: `@start` reads `db:`,
    a plain read of an upserted predicate reads `end:`."""

    def test_vertices(self, schema):
        rules = parse_rules(
            """
^bal[k] = v2 <- v = bal@start[k], v2 = v + 1.
false <- bal[k] = v, v < 0.
""",
            schema,
        )
        txn = TxnExec(schema, rules)
        assert reads(txn, 0) == ["db:bal"]
        # constraint reads the post-change view, so it runs after the upsert
        # and sees -1 bumped to 0
        assert reads(txn, 1) == ["end:bal"]
        db = store_upsert(DbVersion(), schema.sig("bal"), (7,), (-1,))
        assert txn.evaluate(db).status == EVALUATED

    def test_unmarked_db_write_rejected(self, schema):
        rules = parse_rules("bal[k] = v <- edge(k, v).", schema)
        with pytest.raises(SchemaError, match="upsert"):
            TxnExec(schema, rules)


BUMP = "^bal[$k] = v <- v = bal@start[$k] + $d."


@pytest.mark.parametrize("text", [
    "p(x) <- edge(x, 9223372036854775808).",
    "p(x) <- edge(x, -9223372036854775809).",
])
def test_int64_literal_out_of_range(text, schema):
    with pytest.raises(SchemaError, match="outside int64"):
        parse_rules(text)
    with pytest.raises(SchemaError, match="outside int64"):
        parse_rules(text, schema)


def test_int64_literal_ends(schema):
    (r,) = parse_rules(
        "p(x) <- edge(x, 9223372036854775807), edge(x, -9223372036854775808).", schema
    )
    assert [a.args[1] for a in r.body] == [Const(2**63 - 1), Const(-(2**63))]


@pytest.mark.parametrize("k", [-(2**63) - 1, 2**63])
def test_int64_param_out_of_range(k, schema):
    with pytest.raises(SchemaError, match="outside int64"):
        parse_rules(BUMP, schema, params={"k": k, "d": 1})
    with pytest.raises(SchemaError, match="outside int64"):
        parse_rules(BUMP, None, params={"k": 1, "d": k})


def test_int64_param_ends(schema):
    for k in (-(2**63), 2**63 - 1):
        (r,) = parse_rules(BUMP, schema, params={"k": k, "d": k})
        assert r.args == (("$k", k), ("$d", k))


def test_template_not_shared_across_schemas(schema):
    """The same text under another schema is parsed and checked anew."""
    by_name = Schema.from_sigs([PredicateSig("bal", 0, (STRING,), (INT64,))])
    (r,) = parse_rules(BUMP, schema, params={"k": 1, "d": 2})
    (s,) = parse_rules(BUMP, by_name, params={"k": "a", "d": 2})
    assert r.args == (("$k", 1), ("$d", 2)) and s.args == (("$k", "a"), ("$d", 2))
    with pytest.raises(SchemaError):
        parse_rules(BUMP, by_name, params={"k": 1, "d": 2})
    with pytest.raises(SchemaError):
        parse_rules(BUMP, schema, params={"k": "a", "d": 2})
    relation = Schema.from_sigs([PredicateSig("bal", 0, (INT64,))])
    with pytest.raises(SchemaError, match="arity"):
        parse_rules(BUMP, relation, params={"k": 1, "d": 2})


def test_binding_type_checked_on_every_call(schema):
    parse_rules(BUMP, schema, params={"k": 1, "d": 2})
    with pytest.raises(SchemaError):
        parse_rules(BUMP, schema, params={"k": 1, "d": "two"})
    with pytest.raises(SchemaError):
        parse_rules(BUMP, schema, params={"k": True, "d": 2})
    # slots the schema does not type: the values must agree as literals would
    text = "false <- $a = $b."
    parse_rules(text, schema, params={"a": 1, "b": 2})
    with pytest.raises(SchemaError, match="mixed types"):
        parse_rules(text, schema, params={"a": 1, "b": "x"})
    with pytest.raises(SchemaError, match="mixed types"):
        parse_rules('false <- 1 = "x".', schema)


@pytest.mark.parametrize("schema_or_none", ["schema", None])
def test_unbound_param_has_position_on_cache_hit(schema_or_none, request):
    schema = request.getfixturevalue(schema_or_none) if schema_or_none else None
    text = "^bal[$k] = v <-\n  v = bal@start[$k] + $d."
    parse_rules(text, schema, params={"k": 1, "d": 2})
    for _ in range(2):
        with pytest.raises(ParseError, match=r"unbound parameter \$d") as ei:
            parse_rules(text, schema, params={"k": 1})
        assert (ei.value.line, ei.value.col) == (2, 23)


@pytest.mark.parametrize("text, unused", [
    (BUMP, r"\$zzz"),
    ("^bal[$k] = v <- v = bal@start[$k] + 1.", r"\$d, \$zzz"),
    ("^bal[1] = v <- v = bal@start[1] + 1.", r"\$d, \$k, \$zzz"),  # no slots
])
def test_unused_param_is_rejected(text, unused, schema):
    with pytest.raises(ParseError, match=rf"unused parameter {unused}$"):
        parse_rules(text, schema, params={"k": 1, "d": 2, "zzz": 3})


def test_typecheck_passes_tags_along_any_chain():
    """Comparisons pass a type along a chain in any order: here q meets
    both types only after three passes over the body."""
    (r,) = parse_rules('false <- p = q, q = r, r = s, s = "x", p = t, t = 1.')
    with pytest.raises(SchemaError, match="mixed types"):
        typecheck_rule(r, Schema.from_sigs([]))
