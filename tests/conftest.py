import os

import pytest

import isoschub


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports this isoschub.

    pytest finds the package through pyproject's pythonpath, which a
    subprocess does not inherit, so the package's parent directory goes
    first on the child's PYTHONPATH, and then this directory, whose test
    modules hold oracles (pieri_S_sets) that a child may import.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(isoschub.__file__)))
    path = src + os.pathsep + os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = path + os.pathsep + rest if rest else path
    return env
