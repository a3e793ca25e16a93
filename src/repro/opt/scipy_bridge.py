"""Bridge to scipy.optimize for cross-checking our own algorithms.

The library's native optimizers are self-contained; this module exposes
the equivalent scipy solvers behind the same :class:`OptResult` interface
so tests and benchmarks can confirm both stacks agree on the Elbtunnel
optimum.  ``scipy.optimize`` is imported by the solver calls, not with
the module: importing it costs more than the rest of the library.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.opt.problem import OptResult, Problem, Vector


def scipy_minimize(problem: Problem, x0: Optional[Vector] = None,
                   method: str = "L-BFGS-B", **options) -> OptResult:
    """Minimize with :func:`scipy.optimize.minimize` on the problem's box.

    ``method`` must support bounds (L-BFGS-B, Nelder-Mead, Powell, TNC,
    trust-constr, ...).
    """
    from scipy import optimize
    box = problem.box
    start = np.asarray(box.clip(x0) if x0 is not None else box.center,
                       dtype=float)
    start_evals = problem.evaluations

    def objective(x: np.ndarray) -> float:
        return problem(box.clip(tuple(float(v) for v in x)))

    # Safety cost functions live at ~1e-3 scales; scipy's default
    # tolerances (e.g. L-BFGS-B pgtol = 1e-5) would stop immediately.
    if method == "L-BFGS-B":
        options.setdefault("ftol", 1e-15)
        options.setdefault("gtol", 1e-12)
    elif method == "Nelder-Mead":
        options.setdefault("xatol", 1e-8)
        options.setdefault("fatol", 1e-12)
    result = optimize.minimize(objective, start, method=method,
                               bounds=box.bounds, options=options or None)
    x = box.clip(tuple(float(v) for v in np.atleast_1d(result.x)))
    return OptResult(
        x=x, fun=float(result.fun),
        evaluations=problem.evaluations - start_evals,
        iterations=int(getattr(result, "nit", 0) or 0),
        converged=bool(result.success), method=f"scipy:{method}",
        message=str(result.message))


def scipy_differential_evolution(problem: Problem, seed: int = 0,
                                 **options) -> OptResult:
    """Minimize with :func:`scipy.optimize.differential_evolution`."""
    from scipy import optimize
    box = problem.box
    start_evals = problem.evaluations

    def objective(x) -> float:
        return problem(box.clip(tuple(float(v) for v in x)))

    result = optimize.differential_evolution(
        objective, bounds=box.bounds, seed=seed, **options)
    x = box.clip(tuple(float(v) for v in np.atleast_1d(result.x)))
    return OptResult(
        x=x, fun=float(result.fun),
        evaluations=problem.evaluations - start_evals,
        iterations=int(getattr(result, "nit", 0) or 0),
        converged=bool(result.success),
        method="scipy:differential_evolution",
        message=str(result.message))
