import threading

import numpy as np
import pytest

MASTER_SEED = 20260810


@pytest.fixture
def rng():
    return np.random.default_rng(MASTER_SEED)


@pytest.fixture
def master_seed():
    return MASTER_SEED


def outcome_within(seconds, fn, *args, **kwargs):
    """What ``fn(*args, **kwargs)`` returned or raised, or None if it was still
    running after ``seconds``.

    The call runs on a daemon thread, so a call that never ends fails its test
    instead of hanging the suite.
    """
    out = {}

    def run():
        try:
            out["value"] = fn(*args, **kwargs)
        except Exception as exc:   # handed to the caller, who checks its type
            out["value"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    return out.get("value")
