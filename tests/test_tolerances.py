"""`skregion.tolerances` is the one place a numeric tolerance is defined.

The guard scans the package source: a float literal below 1e-3 in any other
module is a tolerance written out in place, which this module exists to
prevent.  The other tests keep the module plain (a docstring and one stated
reason per constant) and tie the error texts that spell a value out to the
constant they report.
"""

import ast
from pathlib import Path

import pytest

from skregion import tolerances
from skregion.cli import DistributionFormatError, parse_distribution
from skregion.pmf import Channel, PmfError, VariableId

PACKAGE = Path(tolerances.__file__).parent
SOURCE = Path(tolerances.__file__).read_text(encoding="utf-8")


def test_no_small_float_literal_outside_tolerances():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < abs(node.value) < 1e-3):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def test_module_is_constants_with_reasons():
    body = ast.parse(SOURCE).body
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value.value, str)
    lines = SOURCE.splitlines()
    names = []
    for node in body[1:]:
        assert isinstance(node, ast.Assign), ast.dump(node)
        (target,) = node.targets
        assert isinstance(node.value, ast.Constant) and isinstance(node.value.value, float)
        assert lines[node.lineno - 2].startswith("#: "), f"{target.id} has no stated reason"
        names.append(target.id)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(n for n in vars(tolerances) if n.isupper())


def test_distribution_sum_message_names_the_tolerance():
    with pytest.raises(DistributionFormatError, match=r"not 1 within 1e-9$") as info:
        parse_distribution("vars: X1=2 X2=2 X3=2\n0 0 0 0.9\n")
    assert float(str(info.value).rsplit(" ", 1)[1]) == tolerances.NORMALIZATION_TOL


def test_channel_row_message_names_the_tolerance():
    with pytest.raises(PmfError, match=r"within 1e-9$") as info:
        Channel(("A",), (VariableId("B", 2),), [[0.5, 0.4]])
    assert float(str(info.value).rsplit(" ", 1)[1]) == tolerances.NORMALIZATION_TOL
