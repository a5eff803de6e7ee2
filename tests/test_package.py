import inspect

import decid
from decid import errors


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
    for name, obj in vars(decid).items():
        if callable(obj) and not name.startswith("_"):
            try:
                params = inspect.signature(obj).parameters
            except ValueError:      # the error classes, and dict
                continue
            for knob in {"cap", "node_budget", "world_pair_cap"} & {*params}:
                takes.setdefault(knob, []).append(name)
    assert len(vars(decid)) > 50
    assert takes == {"world_pair_cap": ["WorldTable", "oracle_causes"],
                     "cap": ["optimal_policy"]}
