import itertools
import pathlib
import random

import pytest

from decid import (BlockingQuery, Diagram, blocks, certify_causal_network,
                   chance_node, d_separated, decision_node, graphical_causes,
                   graphical_fixed_set, graphs, is_set_decision,
                   minimal_blocking_sets, minimal_sets, parse_model,
                   removable_arcs, set_decision_node, validate_diagram)
from decid.errors import NodeBudgetExceeded, UnknownVariable

from genmodels import (ladder, random_dag, random_dag_with_information,
                       random_table_diagram)
from reference import d_separated as d_separated_by_names
from reference import removable_arcs as removable_by_rows


def _blocks(d, C, D, x):
    return blocks(d, BlockingQuery(frozenset(C), frozenset(D), x))


# ---------------------------------------------------------------------------
# Blocking


def test_blocking_query_is_an_immutable_hashable_record(fig2a):
    q = BlockingQuery(candidate_set=frozenset({"pleasure", "lung_cancer"}),
                      decisions=frozenset({"smoke"}), target="payoff")
    assert q == BlockingQuery(frozenset({"lung_cancer", "pleasure"}),
                              frozenset({"smoke"}), "payoff")
    C, D, x = q
    assert q == (C, D, x) and x == "payoff" and D == frozenset({"smoke"})
    assert {q: 1}[BlockingQuery(q.candidate_set, q.decisions, q.target)] == 1
    assert repr(q).startswith("BlockingQuery(candidate_set=frozenset(")
    with pytest.raises(AttributeError):
        q.target = "pleasure"
    assert q.target == "payoff" and blocks(fig2a, q)


def test_blocking_pleasure_and_cancer_block_utility(fig2a):
    assert _blocks(fig2a, {"pleasure", "lung_cancer"}, {"smoke"}, "payoff")


def test_blocking_direct_arc_is_unblocked_by_empty_set(fig2a):
    assert not _blocks(fig2a, set(), {"smoke"}, "lung_cancer")


def test_blocking_diet_blocks_cardio(fig6a):
    assert _blocks(fig6a, {"diet"}, {"smoke", "diet"}, "cardio")


def test_blocking_source_decision_in_candidate_set_blocks(fig2a):
    assert _blocks(fig2a, {"smoke"}, {"smoke"}, "payoff")


# ---------------------------------------------------------------------------
# Minimal blocking sets


def test_minimal_sets_for_utility(fig2a):
    got = minimal_blocking_sets(fig2a, {"smoke"}, "payoff")
    assert got == [frozenset({"smoke"}),
                   frozenset({"lung_cancer", "pleasure"})]


def test_minimal_sets_for_lung_cancer(fig2a):
    got = minimal_blocking_sets(fig2a, {"smoke"}, "lung_cancer")
    assert got == [frozenset({"smoke"})]


def test_unreachable_target_blocked_by_empty_set(fig2a):
    assert minimal_blocking_sets(fig2a, {"smoke"}, "genotype") == [frozenset()]


@pytest.mark.parametrize("C,D,x,unknown", [
    ({"ghost"}, {"smoke"}, "payoff", "ghost"),
    (set(), {"ghost"}, "payoff", "ghost"),
    (set(), {"smoke"}, "ghost", "ghost"),
    ({"zz", "ghost"}, {"aa"}, "payoff", "aa"),
    (set(), {"smoke"}, "nosuch", "nosuch"),
])
def test_blocks_names_the_least_unknown_name(fig2a, C, D, x, unknown):
    """A name that only an arc mentions is not a variable either."""
    d = fig2a.with_arcs(
        relevance=fig2a.relevance_arcs + (("ghost", "payoff"),))
    with pytest.raises(UnknownVariable,
                       match=f"^unknown variable '{unknown}'$"):
        _blocks(d, C, D, x)


def test_minimal_sets_check_excluded_names(fig2a):
    with pytest.raises(UnknownVariable, match="^unknown variable 'smokee'$"):
        minimal_blocking_sets(fig2a, {"smoke"}, "payoff", exclude={"smokee"})


def test_blocking_queries_refuse_what_is_undefined(fig2a):
    """Only decisions are blocked from a target, and only a chance
    variable has causes; the least misplaced name is named."""
    with pytest.raises(UnknownVariable, match="^genotype is not a decision$"):
        minimal_blocking_sets(fig2a, {"smoke", "pleasure", "genotype"},
                              "payoff")
    with pytest.raises(UnknownVariable, match=(
            "^smoke is a decision; only chance variables have fixed-set "
            "membership$")):
        graphical_causes(fig2a, "smoke")


def test_minimal_sets_budget():
    d = ladder(10)
    with pytest.raises(NodeBudgetExceeded,
                       match="^21 candidate nodes exceed budget 20$"):
        minimal_blocking_sets(d, {"d"}, "t")


def test_budget_counts_only_the_nodes_on_a_path():
    # 24 candidates in all, but few on a path from a decision to each
    # target.
    d = random_dag(0, n_nodes=25, n_decisions=2)
    D = set(d.decisions())
    assert minimal_blocking_sets(d, D, "x0") == [frozenset()]
    for x in ("x14", "x17"):
        sets = minimal_blocking_sets(d, D, x)
        assert len(sets) == 6
        for s in sets:
            assert _blocks(d, s, D, x)
            for member in s:
                assert not _blocks(d, s - {member}, D, x)


@pytest.mark.parametrize("seed", range(30))
def test_minimal_sets_are_minimal_and_block(seed):
    d = random_dag(seed)
    D = set(d.decisions())
    for x in d.uncertain():
        for s in minimal_blocking_sets(d, D, x):
            assert _blocks(d, s, D, x)
            for member in s:
                assert not _blocks(d, s - {member}, D, x)


# ---------------------------------------------------------------------------
# d-separation, with an independent path-enumeration oracle


def _dsep_oracle(d, X, Y, Z):
    """All undirected simple paths on the relevance subgraph, judged by
    the classic collider rules (independent of the engine's reachability
    algorithm)."""
    pa = {n.name: set() for n in d.nodes}
    for a, b in d.relevance_arcs:
        pa[b].add(a)
    ch = {n.name: set() for n in d.nodes}
    for b, parents in pa.items():
        for a in parents:
            ch[a].add(b)

    def descendants(n):
        out, frontier = set(), [n]
        while frontier:
            m = frontier.pop()
            for c in ch[m]:
                if c not in out:
                    out.add(c)
                    frontier.append(c)
        return out

    def active(path):
        for i in range(1, len(path) - 1):
            prev, node, nxt = path[i - 1], path[i], path[i + 1]
            collider = prev in pa[node] and nxt in pa[node]
            if collider:
                if node not in Z and not (descendants(node) & set(Z)):
                    return False
            elif node in Z:
                return False
        return True

    def paths(src, dst):
        stack = [[src]]
        while stack:
            path = stack.pop()
            last = path[-1]
            if last == dst:
                yield path
                continue
            for nbr in pa[last] | ch[last]:
                if nbr not in path:
                    stack.append(path + [nbr])

    for x in X:
        for y in Y:
            for path in paths(x, y):
                if active(path):
                    return False
    return True


def test_dsep_fig1_cancer_cardio_given_all_parents(fig1):
    assert d_separated(fig1, {"lung_cancer"}, {"cardio"},
                       {"smoke", "diet", "genotype"})


def test_dsep_fig1_fails_without_genotype(fig1):
    assert not d_separated(fig1, {"lung_cancer"}, {"cardio"},
                           {"smoke", "diet"})
    assert not _dsep_oracle(fig1, {"lung_cancer"}, {"cardio"},
                            {"smoke", "diet"})


def test_dsep_coin_roots_disconnected(coin):
    assert d_separated(coin, {"d"}, {"c"}, set())


def test_dsep_rejects_overlap(fig1):
    with pytest.raises(ValueError):
        d_separated(fig1, {"smoke"}, {"smoke"}, set())


def test_dsep_walks_arcs_to_names_that_are_no_node(fig2a):
    """An unvalidated diagram whose relevance arcs name no node: the
    trails through such a name count like any other."""
    d = fig2a.with_arcs(relevance=fig2a.relevance_arcs + (
        ("ghost", "payoff"), ("ghost", "genotype"), ("ghost", "pleasure")))
    assert not d_separated(d, {"smoke"}, {"payoff"}, set())
    assert d_separated(fig2a, {"genotype"}, {"smoke"}, {"pleasure"})
    assert not d_separated(d, {"genotype"}, {"smoke"}, {"pleasure"})
    with pytest.raises(UnknownVariable, match="'ghost'"):
        d_separated(d, {"ghost"}, {"smoke"}, set())


@pytest.mark.parametrize("seed", range(40))
def test_dsep_matches_path_oracle(seed):
    d = random_dag(seed, n_nodes=7)
    names = d.names()
    import random
    rng = random.Random(seed + 999)
    for _ in range(15):
        pool = list(names)
        rng.shuffle(pool)
        X, Y = {pool[0]}, {pool[1]}
        Z = set(pool[2:2 + rng.randint(0, 3)])
        assert d_separated(d, X, Y, Z) == _dsep_oracle(d, X, Y, Z)
        assert d_separated(d, X, Y, Z) == d_separated(d, Y, X, Z)


# ---------------------------------------------------------------------------
# Fixed sets and causes


def test_fixed_set_unconditional(fig6a):
    assert graphical_fixed_set(fig6a) == {"genotype"}


def test_fixed_set_given_diet(fig6a):
    assert graphical_fixed_set(fig6a, {"diet"}) == {"genotype", "cardio"}


def test_fixed_set_given_everything(fig6a):
    for x in fig6a.uncertain():
        others = set(fig6a.names()) - {x}
        assert x in graphical_fixed_set(fig6a, others)


def test_causes_for_utility_not_unique(fig2a):
    report = graphical_causes(fig2a, "payoff")
    assert set(report.cause_sets) == {frozenset({"smoke"}),
                                      frozenset({"lung_cancer", "pleasure"})}


def test_causes_for_cardio(fig6a):
    report = graphical_causes(fig6a, "cardio")
    assert report.cause_sets == (frozenset({"diet"}),)


def test_no_causes_for_fixed_variable(fig6a):
    report = graphical_causes(fig6a, "genotype")
    assert report.cause_sets == ()
    assert "fixed set" in report.reason


@pytest.mark.parametrize("seed", range(20))
def test_causes_never_contain_target(seed):
    d = random_dag(seed)
    for x in d.uncertain():
        for s in graphical_causes(d, x).cause_sets:
            assert x not in s


# ---------------------------------------------------------------------------
# Removable arcs and minimality


def _smoke_lc(p_no, p_yes):
    smoke = chance_node("smoke", ["no", "yes"], [], {(): [0.6, 0.4]})
    lc = chance_node("lc", ["no", "yes"], ["smoke"], {
        ("no",): [1 - p_no, p_no],
        ("yes",): [1 - p_yes, p_yes],
    })
    return Diagram((smoke, lc), (("smoke", "lc"),))


def test_constant_rows_make_arc_removable():
    assert removable_arcs(_smoke_lc(0.5, 0.5)) == [("smoke", "lc")]


def test_distinct_rows_are_not_removable():
    assert removable_arcs(_smoke_lc(0.05, 0.2)) == []


def test_arcless_diagram_has_no_removable_arcs():
    c = chance_node("c", ["0", "1"], [], {(): [0.5, 0.5]})
    assert removable_arcs(Diagram((c,))) == []


def test_removable_arcs_match_the_row_loop():
    """Seeded diagrams with tables constant along a parent: the factor
    reading finds the arcs the row-by-row comparison finds, into
    utilities and set-decision targets too."""
    covered = dict.fromkeys(["into a utility", "from a decision",
                             "into a set-decision target", "kept"], 0)
    for seed in range(1000):
        d = random_table_diagram(seed)
        got = removable_arcs(d)
        assert got == removable_by_rows(d), seed
        for a, x in got:
            covered["into a utility"] += x == "payoff"
            covered["from a decision"] += a.startswith("d")
            covered["into a set-decision target"] += bool(
                d.set_decisions_for(x))
        covered["kept"] += len(got) < len(d.relevance_arcs)
    assert all(covered.values()), covered



# ---------------------------------------------------------------------------
# Set decisions and causal-network certification


def _with_set_decision(extra_child=False, drop_do_nothing=False):
    lc = chance_node("lc", ["no", "yes"], ["smoke"], {
        ("no",): [0.95, 0.05],
        ("yes",): [0.8, 0.2],
    })
    smoke = decision_node("smoke", ["no", "yes"])
    states = ["do_nothing", "set=no", "set=yes"]
    if drop_do_nothing:
        states = ["set=no", "set=yes"]
    s_lc = decision_node("s_lc", states, set_decision_for="lc")
    other = chance_node("other", ["0", "1"], ["s_lc"], {
        ("do_nothing",): [0.5, 0.5], ("set=no",): [0.5, 0.5],
        ("set=yes",): [0.5, 0.5]})
    nodes = [smoke, s_lc, lc]
    arcs = [("smoke", "lc"), ("s_lc", "lc")]
    if extra_child:
        nodes.append(other)
        arcs.append(("s_lc", "other"))
    return Diagram(tuple(nodes), tuple(arcs), causal=True)


def test_is_set_decision_true():
    assert is_set_decision(_with_set_decision(), "s_lc", "lc")


def test_is_set_decision_false_with_second_child():
    assert not is_set_decision(_with_set_decision(extra_child=True),
                               "s_lc", "lc")


def test_is_set_decision_false_without_do_nothing():
    assert not is_set_decision(_with_set_decision(drop_do_nothing=True),
                               "s_lc", "lc")


def test_is_set_decision_reads_the_validation_rule():
    """The rule ``validate_diagram`` applies to a declared set decision
    decides ``is_set_decision`` too: a target that is no chance node
    has none."""
    d = _with_set_decision()
    assert not is_set_decision(d, "s_lc", "smoke")
    with pytest.raises(ValueError, match="^lc is not a decision node$"):
        is_set_decision(d, "lc", "lc")


def _certifiable():
    genotype = chance_node("genotype", ["g1", "g2"], [], {(): [0.7, 0.3]})
    lc = chance_node("lc", ["no", "yes"], ["genotype"], {
        ("g1",): [0.97, 0.03],
        ("g2",): [0.7, 0.3],
    })
    s_g = set_decision_node("s_genotype", ["g1", "g2"], "genotype")
    nodes = (s_g, genotype, lc)
    arcs = (("s_genotype", "genotype"), ("genotype", "lc"))
    return Diagram(nodes, arcs, causal=True)


def test_certify_minimal_causal_with_set_decisions():
    d = _certifiable()
    assert validate_diagram(d) == []
    report = certify_causal_network(d)
    assert report.certified


def test_uncausal_diagram_is_not_certifiable():
    report = certify_causal_network(_certifiable()._replace(causal=False))
    assert report.reasons == ("diagram is not annotated causal",)


def test_fig2b_not_certifiable_without_set_decisions(fig2b):
    report = certify_causal_network(fig2b)
    assert not report.certified
    assert any("set decision" in r for r in report.reasons)


def test_non_minimal_diagram_not_certifiable():
    genotype = chance_node("genotype", ["g1", "g2"], [], {(): [0.7, 0.3]})
    lc = chance_node("lc", ["no", "yes"], ["genotype"], {
        ("g1",): [0.9, 0.1],
        ("g2",): [0.9, 0.1],
    })
    s_g = set_decision_node("s_genotype", ["g1", "g2"], "genotype")
    d = Diagram((s_g, genotype, lc),
                (("s_genotype", "genotype"), ("genotype", "lc")), causal=True)
    report = certify_causal_network(d)
    assert not report.certified
    assert any("removable" in r for r in report.reasons)


# ---------------------------------------------------------------------------
# Graphoid properties of blocking


def _blocks_all(d, D, C, X):
    return all(_blocks(d, C, D, x) for x in X)


@pytest.mark.parametrize("seed", range(50))
def test_blocking_graphoid_axioms(seed):
    d = random_dag(seed)
    D = set(d.decisions())
    rng = random.Random(seed + 7)
    chance = d.uncertain()
    for _ in range(10):
        pool = list(chance)
        rng.shuffle(pool)
        X = set(pool[:2])
        W = set(pool[2:4])
        C = set(pool[4:4 + rng.randint(0, 2)])
        # decomposition
        if _blocks_all(d, D, C, X | W):
            assert _blocks_all(d, D, C, X)
            # weak union
            assert _blocks_all(d, D, C | W, X)
        # contraction
        if _blocks_all(d, D, C, X) and _blocks_all(d, D, C | X, W):
            assert _blocks_all(d, D, C, X | W)


def test_blocking_symmetry_counterexample():
    """I(D, emptyset, {x}) holds while the swapped statement fails: the
    information arc x -> d is a directed path from x to d that nothing
    blocks."""
    c = chance_node("x", ["0", "1"], [], {(): [0.5, 0.5]})
    dec = decision_node("d", ["a", "b"])
    d = Diagram((c, dec), (), (("x", "d"),))
    assert validate_diagram(d) == []
    assert _blocks(d, set(), {"d"}, "x")
    assert not _blocks(d, set(), {"x"}, "d")


# ---------------------------------------------------------------------------
# Independent routes: path enumeration and networkx


def _paths(d, source, target, path=()):
    """Every simple directed path from source to target over all arcs."""
    path = path + (source,)
    if source == target:
        yield path
        return
    for a, b in d.relevance_arcs + d.information_arcs:
        if a == source and b not in path:
            yield from _paths(d, b, target, path)


def _blocked_by_enumeration(d, C, D, x):
    return all(set(path) & C for dec in D for path in _paths(d, dec, x))


@pytest.mark.parametrize("seed", range(40))
def test_blocking_matches_path_enumeration(seed):
    d = random_dag_with_information(seed)
    rng = random.Random(seed)
    names = d.names()
    for _ in range(15):
        x = rng.choice(d.uncertain())
        others = [n for n in names if n != x]
        C = set(rng.sample(others, rng.randint(0, 3)))
        D = set(rng.sample(d.decisions(), rng.randint(1, 2)))
        assert _blocks(d, C, D, x) == _blocked_by_enumeration(d, C, D, x)
        fixed = {y for y in d.uncertain() if y not in C and
                 _blocked_by_enumeration(d, C, set(d.decisions()), y)}
        assert graphical_fixed_set(d, C) == fixed


@pytest.mark.parametrize("seed", [301, 9001])
def test_blocking_matches_path_enumeration_on_the_sweep_queries(
        seed, monkeypatch):
    """Every blocking query of the traced rounds of the benchmark's
    oracle_sweep workload, on the canonical forms it builds."""
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).parents[1] / "bench"))
    from tracing import NullTracer
    from workloads import WORKLOADS
    sweep = WORKLOADS["oracle_sweep"]
    queries = 0
    for i in range(sweep.trace_rounds * len(sweep.slots)):
        op = sweep.op(seed, i)
        h, _, results = sweep.run(NullTracer(), op, parse_model(op.doc))
        D = set(h.diagram.decisions())
        for x, C, b, _ in results:
            assert b == _blocked_by_enumeration(h.diagram, set(C), D, x), \
                (seed, i, x, C)
        queries += len(results)
    assert queries > 25_000


def test_d_separation_matches_networkx():
    """On diagrams with and without information arcs, which the
    d-separation graph leaves out; also against the name-set walk."""
    nx = pytest.importorskip("networkx")
    info = 0
    for seed in range(200):
        for d in (random_dag(seed, n_nodes=8, p_arc=0.3),
                  random_dag_with_information(seed, n_nodes=8, p_arc=0.3)):
            info += len(d.information_arcs)
            g = nx.DiGraph()
            g.add_nodes_from(d.names())
            g.add_edges_from(d.relevance_arcs)
            rng = random.Random(seed)
            for _ in range(5):
                pool = d.names()
                rng.shuffle(pool)
                nx_, ny = rng.randint(1, 2), rng.randint(1, 2)
                nz = rng.randint(0, 3)
                X, Y = set(pool[:nx_]), set(pool[nx_:nx_ + ny])
                Z = set(pool[nx_ + ny:nx_ + ny + nz])
                got = d_separated(d, X, Y, Z)
                assert got == nx.is_d_separator(g, X, Y, Z), (seed, X, Y, Z)
                assert got == d_separated_by_names(d.relevance_arcs, X, Y, Z)
    assert info >= 200


def _full_pool_blocking_sets(d, D, x, exclude):
    """The same predicate over every uncertain variable and decision."""
    pool = (set(d.uncertain()) | set(d.decisions())) - {x} - set(exclude)
    return minimal_sets(pool, lambda C: x not in d.descendants(D - C, avoid=C))


def test_pruned_pool_gives_the_full_pool_answer():
    queries = multi = 0
    for seed in range(300):
        rng = random.Random(seed)
        d = random_dag_with_information(
            seed, n_nodes=rng.randint(5, 12), n_decisions=rng.randint(1, 3),
            p_arc=rng.choice((0.2, 0.35, 0.5)))
        for x in d.names():
            D = set(rng.sample(d.decisions(), rng.randint(1, len(d.decisions()))))
            others = [y for y in d.names() if y != x]
            exclude = set(rng.sample(others, rng.randint(0, 2)))
            got = minimal_blocking_sets(d, D, x, exclude)
            assert got == _full_pool_blocking_sets(d, D, x, exclude), \
                (seed, x, D, exclude)
            queries += 1
            multi += any(len(s) > 1 for s in got)
    assert queries >= 2000 and multi >= 200


# ---------------------------------------------------------------------------
# The shared subset search


def test_minimal_sets_smallest_first_then_lexicographic():
    def holds(C):
        return "a" in C or {"b", "c"} <= C
    assert minimal_sets({"c", "b", "a", "z"}, holds) == [
        frozenset({"a"}), frozenset({"b", "c"})]
    assert minimal_sets({"a"}, lambda C: True) == [frozenset()]
    assert minimal_sets({"a"}, lambda C: False) == []


def test_minimal_sets_checks_the_budget_before_searching(monkeypatch):
    def holds(C):
        raise AssertionError("searched past the budget")
    monkeypatch.setattr(graphs, "MINIMAL_SET_NODE_BUDGET", 2)
    with pytest.raises(NodeBudgetExceeded):
        minimal_sets({"a", "b", "c"}, holds)
