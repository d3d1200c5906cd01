"""Child-process entry for traced CLI runs and the library cross-check.

Run with the package's ``src`` directory on ``PYTHONPATH``::

    python bench/child.py [--trace FILE] cli ARGS...
    python bench/child.py [--trace FILE] crosscheck
    python bench/child.py [--trace FILE] probe

``cli`` runs ``morse_entropy.cli.run(ARGS)`` and exits with its code, as
``python -m morse_entropy ARGS`` would.  ``crosscheck`` runs both rate
routes on circle and torus and prints their values as one JSON object.
``probe`` calls each traced function once on a tiny input.
With ``--trace`` the package functions are wrapped (see ``tracer.py``) and
the spans are written to FILE when the run ends, also when it raises.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

CROSSCHECK_GRID = 1001
EDGE_POINTS = tuple(Fraction(1, 10**k) for k in range(1, 16))


def edge_values(me, spec):
    """Both routes at c = 10**-k, k = 1..15; None where a route raises."""
    weights = tuple(float(m) for m in spec.multiplicities())
    maxent, legendre = [], []
    for c in EDGE_POINTS:
        maxent.append(me.maxent_rate(me.MaxEntProblem(spec.values(), weights, c)).rate)
        try:
            legendre.append(me.legendre_epsilon(spec, c))
        except me.ConvergenceError:
            legendre.append(None)
    return maxent, legendre


def crosscheck(me) -> dict:
    out = {}
    for name in ("circle", "torus"):
        spec = me.preset(name)
        grid = [Fraction(j, CROSSCHECK_GRID - 1) for j in range(CROSSCHECK_GRID)]
        edge_maxent, edge_legendre = edge_values(me, spec)
        out[name] = {
            "grid_maxent": list(me.epsilon_curve(spec, CROSSCHECK_GRID).rates),
            "grid_legendre": [me.legendre_epsilon(spec, c) for c in grid],
            "edge_maxent": edge_maxent,
            "edge_legendre": edge_legendre,
        }
    return out


def probe(me) -> None:
    """One call of every traced function on a tiny input.

    Every traced pass runs this child, so each layer shows the cost of a
    minimal call on every workload, and a layer the workload leaves idle
    reads that small measured time instead of a constant zero.
    """
    torus = me.preset("torus")
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    me.count_window(me.mean_distribution(torus, 4, me.Kind.CRITICAL), me.WindowQuery(half, quarter))
    me.window_sup_rate(torus.values(), [1.0, 2.0, 1.0], Fraction(0), quarter)
    eps, bet = me.epsilon_curve(torus, 3), me.betti_curve(torus, 3)
    me.cli.emit_curve(eps, bet, 0.0)
    me.legendre_epsilon(torus, quarter)
    me.laplace_check([10.0])
    me.check_domination(torus, 2, [me.WindowQuery(half, quarter)])
    me.check_superadditivity(torus, 1, 1, half, half, quarter)
    me.check_fekete(torus, half, half, 8)
    me.check_bounds_and_max(torus, 11)
    me.cli.run(["spectrum", "validate", "--preset", "torus"])


def main(argv) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]

    start = time.perf_counter()
    import morse_entropy as me
    import morse_entropy.cli
    import_s = time.perf_counter() - start

    tracer = None
    if trace_path is not None:
        from tracer import Tracer, install

        tracer = Tracer()
        tracer.meta["import_s"] = import_s
        install(tracer)
    try:
        if mode == "cli":
            return me.cli.run(rest)
        if mode == "crosscheck":
            print(json.dumps(crosscheck(me)))
            return 0
        if mode == "probe":
            probe(me)
            return 0
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
