"""The library calls ndarray methods, not numpy's Python-level wrappers.

Each wrapper below runs a few microseconds of Python before it reaches the C
loop that the method, the slice difference or the single call named next to
it reaches directly.  The library's arrays hold 1 to 1000 entries, so on them
that Python dominated.  The replacements compute the same floats in the same
order and raise the same errors.  This test parses every module of the
package and fails on a call to any of the wrappers.
"""

import ast
from pathlib import Path

import pytest

import wrearr

# wrapper -> what the library calls instead
REPLACED = {
    "all": "x.all()",
    "any": "x.any()",
    "append": "np.concatenate",
    "argsort": "x.argsort()",
    "array_equal": "x.shape == y.shape and (x == y).all()",
    "atleast_1d": "np.array(x, ndmin=1)",
    "cumprod": "x.cumprod()",
    "cumsum": "x.cumsum()",
    "diag": "x.diagonal(), or np.diagflat(v) to build a diagonal matrix",
    "diff": "x[1:] - x[:-1]",
    "dot": "x.dot(y)",
    "flatnonzero": "x.nonzero()[0]",
    "hstack": "np.concatenate(..., axis=1)",
    "isin": "stepfn._members(x, bp) for a strictly increasing bp",
    "max": "x.max()",
    "repeat": "x.repeat(counts)",
    "searchsorted": "x.searchsorted(v)",
    "sum": "x.sum()",
    "trace": "x.trace()",
    "union1d": "stepfn._union(x, y)",
    "zeros_like": "np.zeros(x.shape)",
}
MODULES = sorted(Path(wrearr.__file__).parent.glob("*.py"))


def wrapper_calls(source, name="<source>"):
    """``file:line: np.<wrapper>(...)`` for each call of a replaced wrapper
    through a name that ``source`` binds to the numpy module."""
    tree = ast.parse(source, filename=name)
    numpy_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy"
    }
    return [
        f"{name}:{node.lineno}: {node.func.value.id}.{node.func.attr}(...); "
        f"call {REPLACED[node.func.attr]}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in numpy_names
        and node.func.attr in REPLACED
    ]


def test_the_guard_finds_a_wrapper_call():
    source = "import numpy as np\nimport numpy\nok = x.all()\nbad = np.all(x) or numpy.diff(x)\n"
    assert [c.split(":")[1] for c in wrapper_calls(source)] == ["4", "4"]
    assert wrapper_calls("import math\nmath.trace(x)\n") == []


def test_every_module_is_parsed():
    assert {"stepfn.py", "algebra.py", "norms.py", "weighted.py", "eig.py"} <= {
        p.name for p in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_wrapper_calls(path):
    assert wrapper_calls(path.read_text(), path.name) == []
