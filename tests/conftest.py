import os

import numpy as np
import pytest

# pytest puts src/ on sys.path (pyproject.toml); the CLI tests start child
# processes, which find bohrlab through PYTHONPATH instead.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
