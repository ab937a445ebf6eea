import pytest

from lbk import specfun


class LoopCalls(dict):
    """Calls per loop name, plus ``miller_steps``: one entry per Miller loop,
    its start order, from which it steps down to order 0."""

    miller_steps: list


@pytest.fixture
def loop_calls(monkeypatch):
    """Counts the calls of specfun's two recurrence loops and the Miller steps.

    ``_backward`` is the Miller loop and ``_upward`` the upward recurrence,
    which the Hankel regime of J_m ends in.
    """
    calls = LoopCalls(_backward=0, _upward=0)
    calls.miller_steps = []
    for name in list(calls):
        def counted(*args, _loop=getattr(specfun, name), _name=name):
            calls[_name] += 1
            return _loop(*args)
        monkeypatch.setattr(specfun, name, counted)

    def start(*args, _start=specfun._miller_start):
        steps = _start(*args)
        calls.miller_steps.append(steps)
        return steps

    monkeypatch.setattr(specfun, "_miller_start", start)
    return calls
