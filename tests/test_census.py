"""Outcome census of the tuning loop over random configurations.

The configurations come from one seeded generator: a curve (circle, kite,
ellipse 1 x 0.5 or flower k=5), a node count N in {128, 256, 384}, a target
lambda* uniform in [1, 12], and a source and a receiver drawn uniformly in
the bounding box of the curve's 128 nodes until they lie inside, at least
0.15 from every node, and the receiver more than 0.1 from the source.

Tier-1 runs the first configurations at N=128 and holds a floor on the
number that converge.  The full census prints one row per outcome, then
the secular solve's work over all runs: ``eigh`` calls on G and LDL^T
factorizations per solved secular root.

    PYTHONPATH=src python tests/test_census.py [count]
"""

import sys
import warnings
from collections import Counter

import numpy as np

from steklov.discretization import assemble
from steklov.eigensolver import AccuracyWarning, interiority
from steklov.errors import SteklovError
from steklov.geometry import circle, ellipse, flower, kite
from steklov.optimizer import OptimizerConfig, run

warnings.simplefilter("ignore", AccuracyWarning)

SEED = 2026
CURVES = (circle, kite, lambda: ellipse(1.0, 0.5), lambda: flower(0.1, 5))
# node count of the ops the points are drawn against
DRAW_NODES = 128
CLEARANCE = 0.15
SEPARATION = 0.1


def _interior_point(rng, ops, away=None):
    lo, hi = ops.points.min(axis=0), ops.points.max(axis=0)
    while True:
        x = rng.uniform(lo, hi)
        if (interiority(ops, x) > 0.5
                and np.min(np.linalg.norm(ops.points - x, axis=1)) >= CLEARANCE
                and (away is None or np.linalg.norm(x - away) > SEPARATION)):
            return x


def configurations(count, n_nodes=None):
    """The first ``count`` census configurations; ``n_nodes`` overrides N."""
    rng = np.random.default_rng(SEED)
    for _ in range(count):
        curve = CURVES[rng.integers(len(CURVES))]()
        n = int(rng.choice([128, 256, 384]))
        target = float(rng.uniform(1.0, 12.0))
        ops = assemble(curve, DRAW_NODES)
        source = _interior_point(rng, ops)
        receiver = _interior_point(rng, ops, away=source)
        yield OptimizerConfig(curve=curve, source=source, receiver=receiver,
                              lambda_star=target, n_nodes=n_nodes or n)


def outcome(config):
    """('converged', trace) or (error type name, None)."""
    try:
        return "converged", run(config)
    except SteklovError as exc:
        return type(exc).__name__, None


def test_census_subset_converges_on_target():
    converged = 0
    for config in configurations(12, n_nodes=128):
        result, trace = outcome(config)
        # the insertion node never lies where the start cluster vanishes
        assert result != "StagnationError"
        if trace is None:
            continue
        converged += 1
        assert abs(trace.final_eigenvalue - config.lambda_star) <= config.C_tol
        accepted = trace.accepted_eigenvalues()
        assert accepted and all(a <= b for a, b in zip(accepted, accepted[1:]))
        assert run(config).records == trace.records
    assert converged >= 12


if __name__ == "__main__":
    from test_eigensolver import secular_work

    count = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    rows: dict[str, list[str]] = {}
    with secular_work() as work:
        for i, config in enumerate(configurations(count)):
            result, _ = outcome(config)
            rows.setdefault(result, []).append(
                f"{i}:{config.curve.name}-N{config.n_nodes}-target{config.lambda_star:.3f}")
    for result, n in Counter({k: len(v) for k, v in rows.items()}).most_common():
        print(f"{result:18s} {n:3d}  {' '.join(rows[result])}")
    roots = max(work["roots"], 1)
    print(f"secular roots {work['roots']}: {work['eigh'] / roots:.2f} eigh(G) and "
          f"{work['ldl'] / roots:.2f} LDL^T per root ({work['eigh']} and {work['ldl']} in all)")
