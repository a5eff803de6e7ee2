import random

import pytest

from decid import (ConditionalTable, Diagram, Node, Variable, WorldTable,
                   chance_node, decision_node, enumerate_instances,
                   oracle_fixed_set_member, parse_model, serialize_model,
                   set_decision_node, utility_node, validate_diagram)

from genmodels import random_dag_with_information, random_diagram
from reference import kahn_order, neighbours, reach


def two_node(p_yes_given_yes=0.2, p_yes_given_no=0.05):
    lc = chance_node("lc", ["no", "yes"], ["smoke"], {
        ("no",): [1 - p_yes_given_no, p_yes_given_no],
        ("yes",): [1 - p_yes_given_yes, p_yes_given_yes],
    })
    smoke = chance_node("smoke", ["no", "yes"], [], {(): [0.6, 0.4]})
    return Diagram((smoke, lc), (("smoke", "lc"),))


def test_wellformed_diagram_is_valid():
    assert validate_diagram(two_node()) == []


def test_cycle_is_reported():
    a = chance_node("a", ["0", "1"], ["b"], {("0",): [0.5, 0.5],
                                             ("1",): [0.5, 0.5]})
    b = chance_node("b", ["0", "1"], ["a"], {("0",): [0.5, 0.5],
                                             ("1",): [0.5, 0.5]})
    d = Diagram((a, b), (("a", "b"), ("b", "a")))
    assert any("cycle" in v for v in validate_diagram(d))


def test_bad_row_sum_names_node_and_row():
    lc = chance_node("lc", ["no", "yes"], ["smoke"], {
        ("no",): [0.85, 0.05],
        ("yes",): [0.8, 0.2],
    })
    smoke = chance_node("smoke", ["no", "yes"], [], {(): [0.6, 0.4]})
    d = Diagram((smoke, lc), (("smoke", "lc"),))
    hits = [v for v in validate_diagram(d) if "row sum" in v]
    assert hits and "lc" in hits[0] and "no" in hits[0]


def test_nan_row_is_outside_the_unit_interval():
    """NaN fails every comparison, so it must not slip past the range
    and row-sum checks."""
    nan = float("nan")
    lc = chance_node("lc", ["no", "yes"], ["smoke"], {
        ("no",): [nan, nan],
        ("yes",): [0.8, 0.2],
    })
    smoke = chance_node("smoke", ["no", "yes"], [], {(): [0.6, 0.4]})
    d = Diagram((smoke, lc), (("smoke", "lc"),))
    assert validate_diagram(d) == [
        "lc: row ('no',) has entries outside [0, 1]"]


def test_missing_cpt_row_reported():
    lc = chance_node("lc", ["no", "yes"], ["smoke"], {("no",): [0.9, 0.1]})
    smoke = chance_node("smoke", ["no", "yes"], [], {(): [0.6, 0.4]})
    d = Diagram((smoke, lc), (("smoke", "lc"),))
    assert any("missing CPT row" in v for v in validate_diagram(d))


def test_deterministic_rows_must_be_one_hot():
    w = chance_node("w", ["0", "1"], ["c"],
                    {("0",): [0.5, 0.5], ("1",): [0.0, 1.0]},
                    deterministic=True)
    c = chance_node("c", ["0", "1"], [], {(): [0.5, 0.5]})
    d = Diagram((c, w), (("c", "w"),))
    assert any("one-hot" in v for v in validate_diagram(d))


def test_relevance_arc_into_decision_rejected():
    c = chance_node("c", ["0", "1"], [], {(): [0.5, 0.5]})
    d = decision_node("d", ["a", "b"])
    diagram = Diagram((c, d), (("c", "d"),))
    assert any("information" in v for v in validate_diagram(diagram))


def test_decision_order_must_follow_the_arcs():
    d0 = decision_node("d0", ["a", "b"])
    d1 = decision_node("d1", ["a", "b"])
    x = chance_node("x", ["0", "1"], ["d0"],
                    {("a",): [0.5, 0.5], ("b",): [0.2, 0.8]})
    diagram = Diagram((d0, d1, x), (("d0", "x"),), (("x", "d1"),),
                      ("d0", "d1"))
    assert validate_diagram(diagram) == []
    assert validate_diagram(diagram._replace(decision_order=("d1", "d0"))) \
        == ["decision_order lists d1 before d0, but d1 descends from d0"]


_FLAT = {(): [0.5, 0.5]}


def _with(*nodes, arcs=(), info=(), **kw):
    """Decision d and its chance child x, plus ``nodes`` and arcs."""
    x = chance_node("x", ["s0", "s1"], ["d"], dict.fromkeys(
        [("a0",), ("a1",)], [0.5, 0.5]))
    return Diagram((decision_node("d", ["a0", "a1"]), x) + nodes,
                   (("d", "x"),) + arcs, info, **kw)


@pytest.mark.parametrize("d,violations", [
    (_with(Node(Variable("k", ("0", "1")), "weird")),
     ["k: unknown kind 'weird'"]),
    (_with(chance_node("", ["0", "1"], [], _FLAT)), ["empty variable name"]),
    (_with(chance_node("y", ["0"], [], {(): [1.0]})),
     ["y: needs at least 2 states"]),
    (_with(chance_node("y", ["0", "0"], [], _FLAT)),
     ["y: duplicate state labels"]),
    (_with(chance_node("y", ["0|1", "1"], [], _FLAT)),
     ["y: state '0|1' contains reserved '|'"]),
    (_with(chance_node("y", ["", "1"], [], _FLAT)), ["y: empty state label"]),
    (_with(utility_node("u", [], {(): 1.0}), utility_node("v", [], {(): 2.0})),
     ["more than one utility node"]),
    (_with(info=(("ghost", "d"),)),
     ["information arc ghost->d: unknown endpoint"]),
    (_with(chance_node("y", ["0", "1"], [], _FLAT), info=(("y", "x"),)),
     ["information arc y->x: target is not a decision"]),
    (_with(Node(Variable("y", ("0", "1")), "chance")),
     ["y: missing conditional table"]),
    (_with(Node(Variable("e", ("0", "1")), "decision",
                table=ConditionalTable((), {(): (0.5, 0.5)}))),
     ["e: decision nodes carry no tables"]),
    (_with(Node(Variable("u", ()), "utility")), ["u: missing utility values"]),
    (_with(utility_node("u", ["x"], {("s0",): float("inf"), ("s1",): 1.0}),
           arcs=(("x", "u"),)),
     ["u: non-finite utility at ('s0',)"]),
    (_with(set_decision_node("s1", ["s0", "s1"], "x"),
           set_decision_node("s2", ["s0", "s1"], "x"),
           arcs=(("s1", "x"), ("s2", "x"))),
     ["x: more than one set decision (['s1', 's2'])"]),
    (_with(declared_fixed=frozenset({"ghost"})),
     ["declared_fixed names unknown variable 'ghost'"]),
    (_with(utility_node("u", [], {(): 1.0}),
           declared_fixed=frozenset({"d", "u", "x"})),
     ["declared_fixed names d, which is not a chance variable",
      "declared_fixed names u, which is not a chance variable"]),
    (_with(decision_node("s", ["do_nothing", "set=0"], "ghost")),
     ["s: set decision targets unknown variable 'ghost'"]),
    (_with(decision_node("s", ["do_nothing", "set=a0", "set=a1"], "d")),
     ["s: set decision target d is not a chance node"]),
    (_with(decision_node("s", ["do_nothing", "set=s0"], "x"),
           arcs=(("s", "x"),)),
     ["s: set decision alternatives ['do_nothing', 'set=s0'] != "
      "['do_nothing', 'set=s0', 'set=s1']"]),
    (_with(set_decision_node("s", ["s0", "s1"], "x")),
     ["s: set decision must have x as its only child"]),
    (_with(chance_node("y", ["0", "1"], ["d", "d"], dict.fromkeys(
        [("a0", "a0"), ("a0", "a1"), ("a1", "a0"), ("a1", "a1")],
        [0.5, 0.5])), arcs=(("d", "y"),)),
     ["y: table parents ['d', 'd'] != relevance parents ['d']"]),
    (_with(utility_node("u", ["x", "x"], dict.fromkeys(
        [("s0", "s0"), ("s0", "s1"), ("s1", "s0"), ("s1", "s1")], 1.0)),
           arcs=(("x", "u"),)),
     ["u: utility parents ['x', 'x'] != relevance parents ['x']"]),
])
def test_each_violation_is_named(d, violations):
    assert validate_diagram(d) == violations


def test_validate_is_pure_and_idempotent():
    d = two_node()
    first = validate_diagram(d)
    assert validate_diagram(d) == first


def test_enumerate_instances_single_variable():
    smoke = Variable("smoke", ("no", "yes"))
    assert enumerate_instances([smoke]) == [{"smoke": "no"}, {"smoke": "yes"}]


def test_enumerate_instances_is_lexicographic():
    smoke = Variable("smoke", ("no", "yes"))
    diet = Variable("diet", ("good", "poor"))
    got = enumerate_instances([smoke, diet])
    assert got == [
        {"smoke": "no", "diet": "good"},
        {"smoke": "no", "diet": "poor"},
        {"smoke": "yes", "diet": "good"},
        {"smoke": "yes", "diet": "poor"},
    ]


def test_enumerate_instances_empty_is_singleton():
    assert enumerate_instances([]) == [{}]


def test_enumerate_instances_rejects_duplicates():
    v = Variable("x", ("0", "1"))
    with pytest.raises(ValueError):
        enumerate_instances([v, v])


@pytest.mark.parametrize("seed", range(20))
def test_enumerate_instances_length_is_state_space_product(seed):
    d = random_diagram(seed, n_chance=3, max_states=3)
    variables = [d.node(x).variable for x in d.uncertain()]
    expected = 1
    for v in variables:
        expected *= len(v.states)
    assert len(enumerate_instances(variables)) == expected


@pytest.mark.parametrize("seed", range(25))
def test_serialize_parse_round_trip(seed):
    d = random_diagram(seed, with_utility=seed % 2 == 0)
    assert validate_diagram(d) == []
    text = serialize_model(d)
    again = parse_model(text)
    assert serialize_model(again) == text
    assert set(again.names()) == set(d.names())
    assert set(again.relevance_arcs) == set(d.relevance_arcs)
    for x in d.uncertain():
        assert again.node(x).table == d.node(x).table


# ---------------------------------------------------------------------------
# Cached indexes


def test_node_lookup_keeps_first_occurrence():
    first = chance_node("a", ["0", "1"], [], {(): [0.5, 0.5]})
    second = decision_node("a", ["x", "y"])
    d = Diagram((first, second))
    assert d.node("a") is first
    assert d.has("a") and not d.has("b")
    assert any("duplicate" in v for v in validate_diagram(d))


def test_with_arcs_gets_a_fresh_topological_order():
    d = two_node()
    assert d.topological_order() == ["smoke", "lc"]
    flipped = d.with_arcs(relevance=[("lc", "smoke")])
    assert flipped.topological_order() == ["lc", "smoke"]
    assert flipped.children("lc") == {"smoke"}
    cyclic = d.with_arcs(relevance=[("smoke", "lc"), ("lc", "smoke")])
    assert cyclic.topological_order() == []
    assert d.topological_order() == ["smoke", "lc"]
    assert d.children("lc") == set()


def test_descendants_avoid_stops_the_walk():
    chain = [chance_node("a", ["0", "1"], [], {(): [0.5, 0.5]})] + [
        chance_node(x, ["0", "1"], [p], {("0",): [0.5, 0.5],
                                         ("1",): [0.5, 0.5]})
        for p, x in (("a", "b"), ("b", "c"))]
    d = Diagram(tuple(chain), (("a", "b"), ("b", "c")))
    assert d.descendants(["a"]) == {"b", "c"}
    assert d.descendants(["a"], avoid={"b"}) == set()
    assert d.descendants(["a"], avoid={"c"}) == {"b"}
    d.children("a").add("c")          # a copy; the index is untouched
    assert d.children("a") == {"b"}


def test_ancestors_and_parents_match_networkx():
    nx = pytest.importorskip("networkx")
    info = 0
    for seed in range(100):
        d = random_dag_with_information(seed, n_nodes=10, p_arc=0.3)
        info += len(d.information_arcs)
        g = nx.DiGraph()
        g.add_nodes_from(d.names())
        g.add_edges_from(d.relevance_arcs + d.information_arcs)
        for x in d.names():
            assert d.ancestors([x]) == nx.ancestors(g, x), (seed, x)
            assert d.parents(x) == set(g.predecessors(x)), (seed, x)
        assert d.ancestors(d.decisions()) == set().union(
            *(nx.ancestors(g, x) for x in d.decisions()))
    assert info >= 100


def test_descendants_and_ancestors_match_the_set_walk_and_networkx():
    """Information arcs, arcs that name no node, unknown sources and
    avoided names, and a node name given twice.  Parents, children and
    the topological order are held against per-arc sets and Kahn's
    order over the arc list, and the order against networkx too."""
    nx = pytest.importorskip("networkx")
    for seed in range(100):
        rng = random.Random(seed)
        d = random_dag_with_information(seed, n_nodes=10, p_arc=0.3)
        x = rng.choice(d.uncertain())
        d = d._replace(nodes=d.nodes + (d.node(x),), relevance_arcs=(
            d.relevance_arcs + (("ghost", x), (x, "ghost2"))))
        arcs = d.all_arcs()
        g = nx.DiGraph(arcs)
        g.add_nodes_from(d.names())
        names = d.names() + ["ghost", "ghost2", "nosuch"]
        parents, children = neighbours(arcs)
        for x in names:
            assert d.parents(x) == parents.get(x, set()), (seed, x)
            assert d.children(x) == children.get(x, set()), (seed, x)
        order = d.topological_order()
        assert order == kahn_order(d.names(), arcs), seed
        assert order == list(nx.lexicographical_topological_sort(
            g.subgraph(d.names()))), seed
        for _ in range(10):
            sources = rng.sample(names, rng.randint(1, 3))
            avoid = set(rng.sample(names, rng.randint(0, 3)))
            for av in (frozenset(), avoid):
                got = d.descendants(sources, avoid=av)
                assert got == reach(arcs, sources, av), (seed, sources, av)
                assert got == set().union(*(
                    nx.descendants(g.subgraph(set(g) - (av - {s})), s)
                    for s in sources if s in g)), (seed, sources, av)
            got = d.ancestors(sources)
            assert got == reach([(b, a) for a, b in arcs], sources)
            assert got == set().union(*(nx.ancestors(g, s)
                                        for s in sources if s in g))


# ---------------------------------------------------------------------------
# One tolerance for validation and propagation


def test_near_one_hot_row_that_validates_also_propagates(coin):
    w = coin.node("w")
    rows = dict(w.table.rows)
    rows[("heads", "heads")] = (1 - 5e-10, 5e-10)
    near = chance_node("w", w.states, w.table.parent_order, rows,
                       deterministic=True)
    d = coin._replace(nodes=tuple(near if n.name == "w" else n
                                  for n in coin.nodes))
    assert validate_diagram(d) == []
    assert len(WorldTable(d).worlds) == 2
    assert oracle_fixed_set_member(d, "w", {"d"})
    assert not oracle_fixed_set_member(d, "w")
