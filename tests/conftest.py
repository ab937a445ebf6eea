import pytest

from lbk import specfun


@pytest.fixture
def loop_calls(monkeypatch):
    """Counts the calls of specfun's two recurrence loops.

    ``_backward`` is the Miller loop and ``_upward`` the upward recurrence,
    which the Hankel regime of J_m ends in.
    """
    calls = {"_backward": 0, "_upward": 0}
    for name in calls:
        def counted(*args, _loop=getattr(specfun, name), _name=name):
            calls[_name] += 1
            return _loop(*args)
        monkeypatch.setattr(specfun, name, counted)
    return calls
