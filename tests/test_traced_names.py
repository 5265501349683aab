"""Every name that `perfbench/traced_cli.py` wraps must exist on the package:
a rename that misses one breaks `perfbench/run.py --trace 1` while every
other test still passes. The wrappers themselves are not installed here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import traced_cli  # noqa: E402


@pytest.mark.parametrize("path, attr", [(p[0], p[1]) for p in traced_cli.PATCHES],
                         ids=[f"{p[0]}.{p[1]}" for p in traced_cli.PATCHES])
def test_traced_name_resolves(path, attr):
    assert callable(getattr(traced_cli._resolve(path), attr))
