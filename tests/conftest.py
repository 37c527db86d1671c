import os

import pytest

import isoschub


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports this isoschub.

    pytest finds the package through pyproject's pythonpath, which a
    subprocess does not inherit, so the package's parent directory goes
    first on the child's PYTHONPATH.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(isoschub.__file__)))
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + os.pathsep + rest if rest else src
    return env
