import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import decid
from decid import errors

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# The public names of ``decid``, those of the numeric modules included.
EXPORTS = """Assignment BlockingQuery CapExceeded CauseReport CertificationReport
    ConditionalTable CounterfactualQuery CycleIntroduced DecidError Diagram
    Factor FactorCapExceeded FunctionalWorld HcfDiagram MechanismError
    MechanismSpec ModelError NoDecisionOrder NoUtilityNode Node
    NodeBudgetExceeded NotCausal NotHcf NotObservable ParseError Policy
    PolicySpaceExceeded QueryError ReassessmentRequired StateSpaceExceeded
    UnknownVariable UtilityTable Variable WorldCapExceeded WorldTable
    ZeroProbabilityEvidence blocks canonical_mechanism_prior chance_node
    certify_causal_network check_marginal_reproduction counterfactual
    d_separated decision_node enumerate_instances expected_utility
    functional_worlds graphical_causes graphical_fixed_set is_set_decision
    joint mechanism_name mechanism_state_label minimal_blocking_sets
    minimal_sets optimal_policy oracle_causes oracle_fixed_set_member
    oracle_is_d_map parse_document parse_model posterior propagate
    removable_arcs serialize_model set_decision_node to_hcf utility_node
    validate_diagram validate_hcf value_of_information""".split()


def test_every_error_class_is_exported():
    classes = [c for c in vars(errors).values()
               if inspect.isclass(c) and issubclass(c, Exception)
               and c.__module__ == errors.__name__]
    assert len(classes) > 10
    assert [c.__name__ for c in classes
            if getattr(decid, c.__name__, None) is not c] == []


def test_caps_are_module_constants_not_parameters():
    """Library callers set a cap through its module constant.  Only the
    world cap, which ``CID_CAP_WORLDS`` sets, and the policy cap, which
    the benchmark's self-test passes, are also parameters."""
    takes = {}
    for name in dir(decid):
        obj = getattr(decid, name)
        if callable(obj) and not name.startswith("_"):
            try:
                params = inspect.signature(obj).parameters
            except ValueError:      # the error classes, and dict
                continue
            for knob in {"cap", "node_budget", "world_pair_cap"} & {*params}:
                takes.setdefault(knob, []).append(name)
    assert len(dir(decid)) > 50
    assert takes == {"world_pair_cap": ["WorldTable", "oracle_causes"],
                     "cap": ["optimal_policy"]}


def test_every_name_is_listed_and_loads():
    assert set(EXPORTS) <= set(dir(decid)) & set(decid.__all__)
    assert all(getattr(decid, name) is not None for name in EXPORTS)
    from decid import Factor, WorldTable, removable_arcs, to_hcf
    from decid import inference, mechanisms
    assert (Factor, WorldTable) == (inference.Factor, inference.WorldTable)
    assert (removable_arcs, to_hcf) == (mechanisms.removable_arcs,
                                        mechanisms.to_hcf)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        decid.no_such_name


def _fresh(code: str, *args) -> list:
    """The last stdout line of ``code`` run with ``args`` in a new
    interpreter, read as JSON."""
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(decid.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Which of numpy, dataclasses and inspect the interpreter has loaded.
_LOADED = '[m in sys.modules for m in ("numpy", "dataclasses", "inspect")]'

_PARSE = f"""import json, sys
import decid
parsed = decid.parse_document(open(sys.argv[1]).read())
check = (decid.validate_hcf if isinstance(parsed, decid.HcfDiagram)
         else decid.validate_diagram)
print(json.dumps([check(parsed), *{_LOADED}]))
"""

_RUN = f"""import json, sys
from decid.cli import run_command
code = run_command(sys.argv[1:])
print(json.dumps([code, *{_LOADED}]))
"""


@pytest.fixture(scope="module")
def m1_hcf(tmp_path_factory):
    path = tmp_path_factory.mktemp("hcf") / "m1_hcf.json"
    path.write_text(decid.serialize_model(decid.to_hcf(
        decid.parse_model((FIXTURES / "m1.json").read_text()))))
    return str(path)


def test_import_parse_and_validate_load_no_numpy(m1_hcf):
    assert _fresh(f"import decid, json, sys; print(json.dumps({_LOADED}))") \
        == [False, False, False]
    assert _fresh(_PARSE, str(FIXTURES / "m1.json")) == [[], False, False,
                                                         False]
    assert _fresh(_PARSE, m1_hcf) == [[], False, False, False]


_GRAPH_ONLY = [["validate"], ["fixed-set"],
               ["causes", "--of", "lung_cancer", "--method", "graphical"],
               ["d-sep", "--x", "smoke", "--y", "lung_cancer"],
               ["minimal", "--target", "lung_cancer"]]


@pytest.mark.parametrize("hcf", [False, True], ids=["m1", "m1_hcf"])
@pytest.mark.parametrize("argv", _GRAPH_ONLY, ids=lambda a: a[0])
def test_graph_only_subcommands_load_no_numpy(argv, hcf, m1_hcf):
    path = m1_hcf if hcf else str(FIXTURES / "m1.json")
    command, *rest = argv
    assert _fresh(_RUN, command, path, *rest) == [0, False, False, False]


def test_infer_loads_numpy():
    # numpy loads inspect itself, so only dataclasses is asserted on.
    code, numpy, dataclasses, _ = _fresh(
        _RUN, "infer", str(FIXTURES / "m1.json"), "--decisions", "smoke=no")
    assert (code, numpy, dataclasses) == (0, True, False)


_V = decid.Variable("x", ("a", "b"))
_T = decid.ConditionalTable((), {(): (0.5, 0.5)})
_N = decid.Node(_V, "chance", _T)
_D = decid.Diagram((_N,))

# Each record, its required fields by keyword, and the defaults of the rest.
_RECORDS = [
    (decid.Variable, dict(name="x", states=("a", "b")), ()),
    (decid.ConditionalTable, dict(parent_order=(), rows={(): (1.0,)}), ()),
    (decid.UtilityTable, dict(parent_order=(), rows={(): 1.0}), ()),
    (decid.Node, dict(variable=_V, kind="chance"), (None, None, None)),
    (decid.Diagram, dict(nodes=(_N,)), ((), (), None, False, frozenset())),
    (decid.MechanismSpec, dict(target="x", domain=(), fixed_parents=(),
                               states=(("a",), ("b",)), prior=_T), ()),
    (decid.HcfDiagram, dict(diagram=_D), ((),)),
    (decid.CauseReport, dict(target="x", cause_sets=(frozenset(),),
                             method="graphical"), (None,)),
    (decid.FunctionalWorld, dict(assignment={"x": "a"}, weight=1.0), ()),
    (decid.Policy, dict(info_order={"d": ()}, rules={"d": {(): "a"}}), ()),
    (decid.CounterfactualQuery, dict(
        factual_decisions={"d": "a"}, factual_evidence={},
        counterfactual_decisions={"d": "b"}, query=("x",)), ()),
    (decid.CertificationReport, dict(certified=True), ((),)),
]


@pytest.mark.parametrize("cls,required,defaults", _RECORDS,
                         ids=[cls.__name__ for cls, *_ in _RECORDS])
def test_records_are_frozen_named_tuples(cls, required, defaults):
    record = cls(**required)
    assert record == cls(*required.values(), *defaults)
    assert tuple(record) == (*required.values(), *defaults)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{f}={getattr(record, f)!r}" for f in cls._fields) + ")"
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    first = cls._fields[0]
    assert type(record._replace(**{first: required[first]})) is cls


def test_diagram_indexes_are_per_instance():
    nodes = tuple(decid.chance_node(x, ["0", "1"], [], {(): [0.5, 0.5]})
                  for x in "abc")
    d = decid.Diagram(nodes, (("a", "b"), ("b", "c")))
    with pytest.raises(AttributeError):
        d.extra = 1
    assert (d.children("a"), d.topological_order(), d.ancestors(["c"])) \
        == ({"b"}, ["a", "b", "c"], {"a", "b"})
    arcs = (("c", "b"), ("b", "a"))
    for other in (d.with_arcs(relevance=arcs), d._replace(relevance_arcs=arcs)):
        assert (other.children("a"), other.topological_order(),
                other.ancestors(["c"])) == (set(), ["c", "b", "a"], set())
    assert d.children("a") == {"b"}
