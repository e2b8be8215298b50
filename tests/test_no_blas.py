"""No code path in streamaudit calls into BLAS. Its outputs must not depend
on which BLAS kernel a machine picks, and an OpenBLAS call once cost about
0.75 s per ACF call in thread wake-ups."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "streamaudit"
BLAS = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum", "cov",
        "corrcoef"}


def blas_calls(tree):
    """(line, what) of each BLAS call: np.<one of BLAS>, np.linalg.*, any
    method named dot (ndarray.dot is np.dot) and the @ operator."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            parts = name.split(".")
            if parts[0] in ("np", "numpy") and len(parts) > 1 and (
                    parts[1] == "linalg" or
                    len(parts) == 2 and parts[1] in BLAS) or \
                    len(parts) > 1 and parts[-1] == "dot":
                yield node.lineno, name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_source_calls_no_blas(path):
    calls = list(blas_calls(ast.parse(path.read_text(encoding="utf-8"))))
    assert not calls, [f"{path.name}:{line}: {what}" for line, what in calls]


def test_every_blas_call_is_found():
    tree = ast.parse("a @ b\na @= b\nnp.dot(a, b)\nnumpy.einsum('i,i', a, b)\n"
                     "np.linalg.norm(a)\nnp.linalg.eig.__call__(a)\n"
                     "np.add(a, b)\na.dot(b)\n")
    assert sorted(line for line, _ in blas_calls(tree)) == \
        [1, 2, 3, 4, 5, 6, 8]
