"""Dense products with an N-sized operand run on scipy's BLAS.

numpy and scipy each bundle their own OpenBLAS, each with its own thread
pool.  After a threaded call one pool's threads keep spinning, and the other
pool's next threaded call competes with them for the cores, so the solver
keeps every such product on scipy's pool (``kernels.product``), beside its
LAPACK calls.  This test walks the modules of the solve path and fails on a
numpy product (``@``, ``np.dot``, ``np.matmul``) or ``np.linalg`` call that
is not listed here as small.
"""

import ast
from pathlib import Path

import steklov

MODULES = ("asymptotics", "discretization", "eigensolver", "greens", "optimizer")

# (module, call as written): why it makes no BLAS call or stays on one thread
# (OpenBLAS threads a GEMM above m*n*k = 262,144, a GEMV from m*n = 9,216 and
# a dot above 10,000 entries)
SMALL = {
    ("asymptotics", "traces * w @ traces.T"):
        "Gram matrix of one cluster: k x N by N x k with k a multiplicity",
    ("discretization", "self.weights @ ones"): "an N-vector dot",
    ("eigensolver", "ops.weights @ density"): "an N-vector dot",
    ("eigensolver", "np.linalg.eigh(np.einsum('gmi,gmj->gij', bj, bj))"):
        "p x p Gram matrices of one pole group, p a multiplicity",
    ("eigensolver", "bj @ rot"): "m x p by p x p per pole group",
    ("eigensolver", "np.linalg.norm(cols, axis=1)"): "row norms: no BLAS call",
    ("greens", "ops.weights @ rho"): "an N-vector dot",
    ("greens", "ops.weights @ boundary"): "an N-vector dot",
    ("greens", "np.linalg.norm(pts - field.source, axis=1)"): "row norms: no BLAS call",
    ("optimizer", "at_node @ at_node"): "a dot of k cluster values",
}


def numpy_products(tree: ast.AST):
    """Source of every ``@``, ``np.dot``, ``np.matmul`` and ``np.linalg`` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            yield ast.unparse(node)
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name in ("np.dot", "np.matmul") or name.startswith("np.linalg."):
                yield ast.unparse(node)


def test_numpy_products_are_listed_as_small():
    package = Path(steklov.__file__).parent
    found = {(module, source) for module in MODULES
             for source in numpy_products(ast.parse((package / f"{module}.py").read_text()))}
    assert found - SMALL.keys() == set(), "route these through kernels.product"
    assert SMALL.keys() - found == set(), "these listed products are gone"
