"""A spy on the fused entry points, for tests that must see the fast path run.

Without one, a document comparison could pass by running the reference
on both sides.
"""

import pytest

import repro.fastpath


@pytest.fixture
def fused_calls(monkeypatch):
    """Count calls to ``fused_cert``/``fused_denning`` that returned a dict.

    The registry imports the entry points at call time, so the patched
    module attributes are what an in-process pipeline run calls.
    """
    calls = {"fused_cert": 0, "fused_denning": 0}
    for name in calls:
        real = getattr(repro.fastpath, name)

        def spy(subject, config, _real=real, _name=name):
            result = _real(subject, config)
            if isinstance(result, dict):
                calls[_name] += 1
            return result

        monkeypatch.setattr(repro.fastpath, name, spy)
    return calls
