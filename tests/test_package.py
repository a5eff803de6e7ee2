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
