"""Exception hierarchy shared by the whole package.

Errors fall into three families which the CLI maps onto distinct exit
codes: model/parse problems, query problems (bad or impossible
questions), and resource caps.
"""


class DecidError(Exception):
    """Base class for all package errors."""


class ModelError(DecidError):
    """The model document or diagram is structurally unusable."""


class ParseError(ModelError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownVariable(ModelError):
    pass


class MechanismError(ModelError):
    """A mechanism's mappings or prior do not fit its target and domain."""


class QueryError(DecidError):
    """The question cannot be answered as posed."""


class ZeroProbabilityEvidence(QueryError):
    pass


class NotObservable(QueryError):
    pass


class NotCausal(QueryError):
    pass


class NotHcf(QueryError):
    pass


class ReassessmentRequired(QueryError):
    pass


class NoUtilityNode(QueryError):
    pass


class NoDecisionOrder(QueryError):
    pass


class CycleIntroduced(QueryError):
    pass


class CapExceeded(DecidError):
    """An enumeration cap was hit."""


class NodeBudgetExceeded(CapExceeded):
    pass


class StateSpaceExceeded(CapExceeded):
    pass


class WorldCapExceeded(CapExceeded):
    pass


class PolicySpaceExceeded(CapExceeded):
    pass


class FactorCapExceeded(CapExceeded):
    pass
