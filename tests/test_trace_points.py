"""The benchmark tracer's patch points exist and are put back.

``bench/layertrace.py`` wraps package functions by name where the calling
module looks them up.  A renamed or deleted name makes ``install`` fail, so
this test catches it in the ordinary suite, not only in traced bench runs.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def layertrace(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace
    return layertrace


def test_install_wraps_and_uninstall_restores(layertrace):
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    assert patches
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
