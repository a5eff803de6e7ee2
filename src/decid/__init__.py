"""Decision-based causality over influence diagrams.

Fixed-set and cause queries (graphical and semantic), Howard Canonical
Form via mechanism extraction, exact inference, twin-network
counterfactuals, optimal policies, and value of information.
"""

from .errors import (CapExceeded, CycleIntroduced, DecidError,
                     FactorCapExceeded, MechanismError, ModelError,
                     NoDecisionOrder, NodeBudgetExceeded, NotCausal, NotHcf,
                     NotObservable, NoUtilityNode, ParseError,
                     PolicySpaceExceeded, QueryError, ReassessmentRequired,
                     StateSpaceExceeded, UnknownVariable, WorldCapExceeded,
                     ZeroProbabilityEvidence)
from .model import (Assignment, ConditionalTable, Diagram, Factor, Node,
                    UtilityTable, Variable, chance_node, decision_node,
                    enumerate_instances, set_decision_node, utility_node,
                    validate_diagram)
from .graphs import (BlockingQuery, CauseReport, CertificationReport, blocks,
                     certify_causal_network, d_separated, graphical_causes,
                     graphical_fixed_set, is_set_decision,
                     minimal_blocking_sets, minimal_sets, removable_arcs)
from .mechanisms import (HcfDiagram, MechanismSpec, canonical_mechanism_prior,
                         check_marginal_reproduction,
                         enumerate_mechanism_states, mechanism_name,
                         mechanism_state_label, to_hcf, validate_hcf)
from .inference import (FunctionalWorld, WorldTable, count_worlds,
                        functional_worlds, joint, oracle_causes,
                        oracle_fixed_set_member, oracle_is_d_map, posterior,
                        propagate)
from .decisions import (CounterfactualQuery, Policy, counterfactual,
                        expected_utility, optimal_policy, value_of_information)
from .modelfile import parse_document, parse_model, serialize_model

__version__ = "0.1.0"
