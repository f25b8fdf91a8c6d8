"""Command-line entry points.

Subcommands: rip (isometry constants), certify (feasibility and error-bound
constants), recover (weighted-l1 recovery), oracle (exhaustive reference
recovery), experiment (seeded sweeps with CSV/JSON reports).  All structured
output is JSON on stdout except experiment reports, which go to --out.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .certify import recovery_constants
from .errors import (
    BudgetError,
    ConfigError,
    DomainError,
    InfeasibleCertificate,
    InfeasibleError,
    NumericalError,
    ShapeError,
    check_matrix,
)
from .harness import emit_report, load_experiment_config, run_experiment
from .model import problem_from_dict, read_document, system_from_dict
from .ode import IntegrationConfig
from .recover import DEFAULT_ORACLE_BUDGET, SolverConfig, l0_oracle, recover_initial_state
from .rip import (
    DEFAULT_SUPPORT_BUDGET,
    operator_norm,
    rip_constant_bounds,
    rip_constant_exact,
)


def load_matrix(path) -> np.ndarray:
    """Dense matrix from a .csv (comma-separated rows) or .json (nested
    arrays) file."""
    if str(path).endswith(".json"):
        return check_matrix(read_document(path), str(path))
    try:
        A = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:
        # ragged rows or entries that are not numbers
        raise ShapeError(f"{path}: not a numeric matrix: {exc}") from exc
    return check_matrix(A, str(path))


def save_matrix(A, path):
    """Write a dense matrix as comma-separated rows."""
    A = np.asarray(A, dtype=float)
    with open(path, "w") as fh:
        for row in np.atleast_2d(A):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _emit(doc):
    print(json.dumps(doc, indent=2))


def _integration_from_args(args):
    if args.adaptive_tol is not None:
        return IntegrationConfig.adaptive(args.adaptive_tol)
    return IntegrationConfig() if args.steps is None else IntegrationConfig.fixed(args.steps)


def _estimate_csv(estimate, path):
    header = ",".join(f"x_{j + 1}" for j in range(len(estimate)))
    body = ",".join(repr(float(v)) for v in estimate)
    text = header + "\n" + body + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_rip(args) -> int:
    A = load_matrix(args.matrix)
    if args.mode == "exact":
        report = rip_constant_exact(A, args.sparsity, args.budget)
        _emit(report.to_dict())
    else:
        lower, upper = rip_constant_bounds(A, args.sparsity, args.samples, args.seed)
        _emit({"lower": lower.to_dict(), "upper": upper.to_dict()})
    return 0


def _cmd_certify(args) -> int:
    system = system_from_dict(read_document(args.system))
    A = load_matrix(args.matrix)
    if A.shape[1] != system.dim:
        raise ShapeError(
            f"matrix has {A.shape[1]} columns but the system dimension is {system.dim}"
        )
    order = min(2 * args.sparsity, A.shape[1])
    delta = rip_constant_exact(A, order, args.budget).delta
    cert = recovery_constants(delta, args.tau, system.lipschitz, args.time, operator_norm(A))
    _emit(cert.to_dict())
    return 0 if cert.feasible else 1


def _recover(problem, integration, args):
    path = args.solver_config
    solver = None if path is None else SolverConfig.from_dict(read_document(path))
    return recover_initial_state(problem, integration, solver)


def _oracle(problem, integration, args):
    return l0_oracle(problem, integration, args.budget)


def _cmd_solve(args) -> int:
    """recover and oracle: args.solve is _recover or _oracle."""
    problem = problem_from_dict(read_document(args.problem))
    outcome = args.solve(problem, _integration_from_args(args), args)
    _emit(outcome.to_dict())
    if args.estimate_csv:
        _estimate_csv(outcome.estimate, args.estimate_csv)
    return 0 if outcome.converged else 1


def _cmd_experiment(args) -> int:
    config = load_experiment_config(args.config)
    records = run_experiment(config, workers=args.workers, force=args.force)
    emit_report(records, args.format, args.out, include_timings=args.timings)
    ok = all(r.bound_satisfied for r in records if r.feasible)
    return 0 if ok else 1


def _add_solve_command(sub, name, help, solve):
    """A subcommand run by _cmd_solve; the caller adds the solver's own flag."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--estimate-csv", default=None, help="write the estimate as CSV ('-' = stdout)")
    flow = p.add_mutually_exclusive_group()
    steps = IntegrationConfig().step_count
    flow.add_argument("--steps", type=int, help=f"fixed RK4 step count (default {steps})")
    flow.add_argument(
        "--adaptive-tol",
        type=float,
        help="double the RK4 step count from 8 until successive counts agree to this tolerance",
    )
    p.set_defaults(func=_cmd_solve, solve=solve)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseobs",
        description=(
            "Certificates and solvers for recovering sparse ODE initial states "
            "from few noisy terminal measurements."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rip", help="restricted-isometry constants of a matrix")
    p.add_argument("--matrix", required=True, help="matrix file (.csv or .json)")
    p.add_argument("--sparsity", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "bounds"), default="exact")
    p.add_argument("--samples", type=int, default=1000, help="sampled supports in bounds mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_SUPPORT_BUDGET)
    p.set_defaults(func=_cmd_rip)

    p = sub.add_parser("certify", help="feasibility and error-bound constants")
    p.add_argument("--system", required=True, help="system JSON file")
    p.add_argument("--matrix", required=True, help="measurement matrix file (.csv or .json)")
    p.add_argument("--sparsity", type=int, required=True, help="sparsity s (uses delta at 2s)")
    p.add_argument("--tau", type=float, required=True, help="weight condition number")
    p.add_argument("--time", type=float, required=True, help="measurement time T")
    p.add_argument("--budget", type=int, default=DEFAULT_SUPPORT_BUDGET)
    p.set_defaults(func=_cmd_certify)

    p = _add_solve_command(sub, "recover", "weighted-l1 recovery of the initial state", _recover)
    p.add_argument("--solver-config", default=None, help="solver config JSON file")

    p = _add_solve_command(sub, "oracle", "exhaustive reference recovery", _oracle)
    p.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET)

    p = sub.add_parser("experiment", help="seeded experiment sweep with report emission")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--out", required=True, help="report output path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--force", action="store_true", help="run the solver on infeasible trials too")
    p.add_argument(
        "--timings",
        action="store_true",
        help="keep wall-clock columns (reports then vary run to run)",
    )
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        BudgetError,
        ConfigError,
        DomainError,
        InfeasibleCertificate,
        InfeasibleError,
        NumericalError,
        ShapeError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
