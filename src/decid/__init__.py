"""Decision-based causality over influence diagrams.

Fixed-set and cause queries (graphical and semantic), Howard Canonical
Form via mechanism extraction, exact inference, twin-network
counterfactuals, optimal policies, and value of information.
"""

import importlib

from .errors import (CapExceeded, CycleIntroduced, DecidError,
                     FactorCapExceeded, MechanismError, ModelError,
                     NoDecisionOrder, NodeBudgetExceeded, NotCausal, NotHcf,
                     NotObservable, NoUtilityNode, ParseError,
                     PolicySpaceExceeded, QueryError, ReassessmentRequired,
                     StateSpaceExceeded, UnknownVariable, WorldCapExceeded,
                     ZeroProbabilityEvidence)
from .model import (Assignment, ConditionalTable, Diagram, HcfDiagram,
                    MechanismSpec, Node, UtilityTable, Variable, chance_node,
                    decision_node, enumerate_instances, mechanism_name,
                    mechanism_state_label, set_decision_node, utility_node,
                    validate_diagram, validate_hcf)
from .graphs import (BlockingQuery, CauseReport, blocks, d_separated,
                     graphical_causes, graphical_fixed_set, is_set_decision,
                     minimal_blocking_sets, minimal_sets)
from .modelfile import parse_document, parse_model, serialize_model

__version__ = "0.1.0"

# ``import decid`` loads no numpy: each numeric name loads its module on
# first use, through the module ``__getattr__`` (PEP 562).
_NUMERIC = {name: module for module, names in {
    "inference": "Factor FunctionalWorld WorldTable functional_worlds "
                 "joint oracle_causes "
                 "oracle_fixed_set_member oracle_is_d_map posterior propagate",
    "mechanisms": "CertificationReport canonical_mechanism_prior "
                  "certify_causal_network check_marginal_reproduction "
                  "removable_arcs to_hcf",
    "decisions": "CounterfactualQuery Policy counterfactual expected_utility "
                 "optimal_policy value_of_information",
}.items() for name in names.split()}
__all__ = [n for n in globals() if n[0] != "_" and n != "importlib"]
__all__ += _NUMERIC


def __getattr__(name):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_NUMERIC[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
