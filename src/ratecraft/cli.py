"""Command line front end for the design pipeline.

Subcommands cover the full workflow: solve for an optimal rating
function, fit a question distribution to it from response data, estimate
response rates from raw ratings, simulate a marketplace under a design,
and emit plot-ready CSV panels.  No plotting dependency: every output is
CSV or JSON for the user's own tooling.

Exit codes: 0 success, 1 invalid input (flags, files, schemas), 2 solver
non-convergence.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .core import (
    _MATCH_INTENSITY,
    _NAMED_WEIGHTS,
    MatchProfile,
    QuestionBank,
    _checked_count,
    _design_from_json,
    _mix_from_json,
    _named_errors,
    _read_json,
    _write_csv,
    load_design,
    normalize_weight,
    save_design,
)
from .fixtures import fixture_bank, fixture_interpolator
from .heuristic import FitError, fit_h, induced_beta, naive_uniform_h
from .optimizer import (
    ConvergenceError,
    SolverConfig,
    double_levels,
    nested_bisection,
    verify_equalization,
)
from .partition import asymptotic_value, optimize_partition
from .responses import (
    _count_ratings_csv,
    _known_from_tally,
    _unknown_from_tally,
    read_qualities_csv,
)
from .simulator import SimConfig, run_simulation

__all__ = ["main", "build_parser"]

_WEIGHTING = tuple(_NAMED_WEIGHTS)
_MATCHING = tuple(_MATCH_INTENSITY)


class CliError(ValueError):
    """Invalid flags or input files; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _seed(args) -> int:
    env = os.environ.get("RATECRAFT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"RATECRAFT_SEED must be an integer, got {env!r}")
    return args.seed


def _solve_design(M: int, w_kind: str, g_kind: str, grid: int, cfg=None):
    part = optimize_partition(normalize_weight(w_kind), M, grid)
    return nested_bisection(M, MatchProfile.from_kind(g_kind, part), cfg, breakpoints=part)


def _cmd_optimize_beta(args) -> int:
    cfg = SolverConfig(
        tol=args.tol,
        max_outer=args.max_outer,
        max_inner=args.max_inner,
    )
    result = _solve_design(args.M, args.w, args.g, args.grid, cfg)
    save_design(args.out, result.beta, result.g, args.w, result.rate, result.residual)
    rate = "inf" if result.degenerate else f"{result.rate:.12g}"
    print(
        f"M={args.M} w={args.w} g={args.g} rate={rate} "
        f"residual={result.residual:.3g} -> {args.out}"
    )
    return 0


def _cmd_fit_h(args) -> int:
    design = load_design(args.beta)
    bank = QuestionBank.from_csv(args.psi)
    h = fit_h(design["beta"], bank, constraint=args.constraint)
    h.to_json(args.out)
    print(f"questions={bank.n_questions} objective={h.objective:.12g} -> {args.out}")
    return 0


def _cmd_estimate_psi(args) -> int:
    if args.mode == "known" and args.qualities is None:
        raise CliError("--mode known requires --qualities")
    if args.mode == "unknown":
        if args.items is None or args.per_item is None:
            raise CliError("--mode unknown requires --items and --per-item")
        items = _checked_count(args.items, "--items")
        per_item = _checked_count(args.per_item, "--per-item")
    tally = _count_ratings_csv(args.ratings)
    if args.mode == "known":
        estimate, params = _known_from_tally, (read_qualities_csv(args.qualities),)
    else:
        estimate, params = _unknown_from_tally, (items, per_item)
    with _named_errors(args.ratings):
        bank = estimate(tally, *params)
    bank.to_csv(args.out)
    print(
        f"mode={args.mode} thetas={bank.n_thetas} "
        f"questions={bank.n_questions} -> {args.out}"
    )
    return 0


def _load_sim_design(args):
    """A design file is either a step function or a question mix; read it
    once and build the callable the simulator needs by the keys it has."""
    payload = _read_json(args.design, "design file")
    if "probabilities" in payload:
        if args.psi is None:
            raise CliError("a question-mix design needs --psi for response rates")
        h = _mix_from_json(payload, args.design)
        return induced_beta(h, QuestionBank.from_csv(args.psi)), "mixture"
    if "t" in payload:
        return _design_from_json(payload, args.design)["beta"], "step"
    raise CliError(
        f"design file {args.design!r} has neither step levels nor question mix"
    )


def _cmd_simulate(args) -> int:
    design, label = _load_sim_design(args)
    cfg = SimConfig(
        design=design,
        steps=args.steps,
        n_items=args.items,
        n_buyers=args.buyers,
        death_prob=args.death,
        matching=args.matching,
        metrics=tuple(args.metrics),
        seed=_seed(args),
        replicates=args.replicates,
        record_at=tuple(args.record_at) if args.record_at else None,
    )
    result = run_simulation(cfg, jobs=args.jobs)
    result.to_csv(args.out)
    print(f"design={label} replicates={cfg.replicates} steps={cfg.steps} -> {args.out}")
    if args.summary_out:
        result.summary_to_csv(args.summary_out)
        print(f"summary -> {args.summary_out}")
    return 0


def _rate_rows(t, gv, rates):
    """The CSV lines of ``rate``'s table.  Each value is formatted once, by
    ``repr`` as ``csv.writer`` would, and carried into the next row."""
    yield "pair,t_lo,t_hi,g_lo,g_hi,rate\n"
    t, gv = map(repr, t), map(repr, gv)
    t_lo, g_lo = next(t), next(gv)
    for i, (t_hi, g_hi, rate) in enumerate(zip(t, gv, map(repr, rates))):
        yield f"{i},{t_lo},{t_hi},{g_lo},{g_hi},{rate}\n"
        t_lo, g_lo = t_hi, g_hi


def _cmd_rate(args) -> int:
    design = load_design(args.design)
    beta = design["beta"]
    g = design["g"] if args.g is None else MatchProfile.from_kind(args.g, beta)
    report = verify_equalization(beta, g)
    sys.stdout.write("".join(_rate_rows(beta.t, g.values, report.rates)))
    print(f"overall_rate {report.rate!r}")
    print(f"spread {report.spread!r}")
    print(f"equalized {'true' if report.passed else 'false'}")
    return 0


def _cmd_double(args) -> int:
    times = _checked_count(args.times, "--times")
    design = load_design(args.design)
    beta, g = design["beta"], design["g"]
    for _ in range(times):
        beta = double_levels(beta, g)
        g = MatchProfile.uniform(beta.M)
    report = verify_equalization(beta, g)
    save_design(args.out, beta, g, design["w_kind"], report.rate, report.spread)
    print(
        f"M={beta.M} rate={report.rate:.12g} spread={report.spread:.3g} -> {args.out}"
    )
    return 0


def _cmd_partition(args) -> int:
    w = normalize_weight(args.w)
    part = optimize_partition(w, args.M, args.grid, method=args.method)
    _write_csv(args.out, ("index", "breakpoint"), ([i, repr(s)] for i, s in enumerate(part.s)))
    value = asymptotic_value(w, part, args.grid)
    print(f"w={args.w} M={args.M} asymptotic_value={value:.12g} -> {args.out}")
    return 0


def _figure_beta_panel(args) -> None:
    thetas = np.linspace(0.0, 1.0, 1001)
    combos = [
        ("kendall", "uniform"),
        ("kendall", "linear"),
        ("bottom", "uniform"),
        ("extremes", "uniform"),
    ]
    betas = {f"w={w},g={g}": _solve_design(args.M, w, g, args.grid).beta for w, g in combos}
    _write_csv(args.out, ("design", "theta", "beta"), (
        [label, repr(float(th)), repr(float(v))]
        for label, beta in betas.items()
        for th, v in zip(thetas, beta(thetas))
    ))


def _fitted_designs(args):
    """The fixture bank, the mix fitted to the kendall/uniform design, and that
    design with the step functions the fitted and the uniform mix induce."""
    bank = fixture_bank()
    interp = fixture_interpolator()
    result = _solve_design(args.M, "kendall", "uniform", args.grid)
    fitted = fit_h(result.beta, bank)
    induced = (induced_beta(h, bank, interp) for h in (fitted, naive_uniform_h(bank)))
    return bank, fitted, (result.beta, *induced)


def _figure_h_panel(args) -> None:
    bank, fitted, betas = _fitted_designs(args)
    curves = dict(zip(("beta", "fitted", "naive"), betas))
    thetas = np.linspace(0.0, 1.0, 1001)
    rows = [[name, repr(float(th)), repr(float(v))]
            for name, fn in curves.items() for th, v in zip(thetas, fn(thetas))]
    rows += [["mass_fitted", q, repr(float(p))]
             for q, p in zip(fitted.questions, fitted.probabilities)]
    rows += [["mass_naive", q, repr(1.0 / bank.n_questions)] for q in bank.questions]
    _write_csv(args.out, ("series", "x", "value"), rows)


def _figure_sim_panel(args) -> None:
    rows = []
    for label, design in zip(("optimal", "fitted", "naive"), _fitted_designs(args)[2]):
        cfg = SimConfig(
            design=design,
            steps=args.steps,
            death_prob=args.death,
            matching=args.matching,
            metrics=tuple(args.metrics),
            seed=_seed(args),
            replicates=args.replicates,
        )
        sim = run_simulation(cfg, jobs=args.jobs)
        for k in sim.record_steps:
            for metric in sim.metrics:
                rows.append([label, k, metric, *map(repr, sim.mean_se(metric, k))])
    _write_csv(args.out, ("design", "k", "metric", "mean", "se"), rows)


def _cmd_figure(args) -> int:
    if args.panel == "beta-panel":
        _figure_beta_panel(args)
    elif args.panel == "h-panel":
        _figure_h_panel(args)
    else:
        _figure_sim_panel(args)
    print(f"{args.panel} -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ratecraft",
        description="Design and validate binary rating systems for ranked marketplaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "optimize-beta",
        help="solve for the optimal rating step function",
        description="Solve for the rating step function maximizing the "
        "ranking error exponent: interval breakpoints from the weight "
        "objective, levels from rate equalization.",
    )
    p.add_argument("--M", type=int, default=200, help="number of intervals")
    p.add_argument("--g", choices=_MATCHING, default="uniform", help="matching profile")
    p.add_argument("--w", choices=_WEIGHTING, default="kendall", help="pair weight")
    p.add_argument("--grid", type=int, default=1000, help="breakpoint search grid")
    p.add_argument(
        "--tol",
        type=float,
        default=1e-13,
        help="stop when no angle step exceeds this (non-constant matching "
        "only: constant matching is solved in closed form)",
    )
    p.add_argument(
        "--max-outer",
        type=int,
        default=200,
        help="Newton iteration cap (non-constant matching only)",
    )
    p.add_argument(
        "--max-inner",
        type=int,
        default=200,
        help="step halving cap (non-constant matching only)",
    )
    p.add_argument("--out", required=True, help="design JSON to write")
    p.set_defaults(func=_cmd_optimize_beta)

    p = sub.add_parser(
        "fit-h",
        help="fit a question distribution to a target design",
        description="Fit a question distribution whose induced rating curve "
        "is L1-closest to the target step function at the table's qualities.",
    )
    p.add_argument("--beta", required=True, help="design JSON (target)")
    p.add_argument("--psi", required=True, help="response rate table CSV")
    p.add_argument(
        "--constraint",
        choices=("free", "single_question"),
        default="free",
        help="full simplex or a single question",
    )
    p.add_argument("--out", required=True, help="distribution JSON to write")
    p.set_defaults(func=_cmd_fit_h)

    p = sub.add_parser(
        "estimate-psi",
        help="estimate response rates from raw ratings",
        description="Build a response rate table from raw ratings, with item "
        "qualities either given (known) or inferred by ranking (unknown).",
    )
    p.add_argument("--mode", choices=("known", "unknown"), required=True)
    p.add_argument("--ratings", required=True, help="ratings CSV (item_id,question,response)")
    p.add_argument("--qualities", help="qualities CSV (item_id,theta), known mode")
    p.add_argument("--items", type=int, help="number of items, unknown mode")
    p.add_argument("--per-item", type=int, help="responses per item, unknown mode")
    p.add_argument("--out", required=True, help="response table CSV to write")
    p.set_defaults(func=_cmd_estimate_psi)

    p = sub.add_parser(
        "simulate",
        help="run the marketplace simulator under a design",
        description="Simulate the ranked marketplace under a design file "
        "(step function JSON or question mix JSON plus --psi). Output CSV "
        "columns: replicate,k,metric,value.",
    )
    p.add_argument("--design", required=True, help="design JSON (step or mix)")
    p.add_argument("--psi", help="response table CSV, needed for mix designs")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--items", type=int, default=500)
    p.add_argument("--buyers", type=int, default=100)
    p.add_argument("--death", type=float, default=0.0)
    p.add_argument("--matching", choices=_MATCHING, default="uniform")
    p.add_argument(
        "--metrics",
        nargs="+",
        choices=_WEIGHTING,
        default=["kendall"],
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1, help="parallel replicate workers")
    p.add_argument(
        "--record-at",
        nargs="+",
        type=int,
        help="explicit recording steps (default: dense early, sparse late)",
    )
    p.add_argument("--out", required=True, help="series CSV to write")
    p.add_argument("--summary-out", help="also write mean/se summary CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "rate",
        help="print a design's error exponents",
        description="Print each adjacent pair's exponent "
        "(CSV: pair,t_lo,t_hi,g_lo,g_hi,rate) then the overall rate, the "
        "spread across pairs, and whether the design is rate-equalized.",
    )
    p.add_argument("--design", required=True, help="design JSON")
    p.add_argument(
        "--g",
        choices=_MATCHING,
        help="override the stored matching profile",
    )
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser(
        "double",
        help="double a design's level count in closed form",
        description="Refine a solved design from M to 2M-1 levels (repeat "
        "with --times). Constant matching only.",
    )
    p.add_argument("--design", required=True, help="design JSON to refine")
    p.add_argument("--times", type=int, default=1, help="number of doublings")
    p.add_argument("--out", required=True, help="design JSON to write")
    p.set_defaults(func=_cmd_double)

    p = sub.add_parser(
        "partition",
        help="optimize interval breakpoints for a weight objective",
        description="Choose the M breakpoints maximizing cross-interval "
        "weight mass. Output CSV columns: index,breakpoint.",
    )
    p.add_argument("--w", choices=_WEIGHTING, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--method", choices=("auto", "dp"), default="auto")
    p.add_argument("--out", required=True, help="breakpoint CSV to write")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser(
        "figure",
        help="emit plot-ready CSV panels",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Emit the data behind the standard plots, one CSV per panel.",
        epilog=(
            "panel columns:\n"
            "  beta-panel  design,theta,beta    optimal step functions for\n"
            "              (w,g) in kendall/uniform, kendall/linear,\n"
            "              bottom/uniform, extremes/uniform\n"
            "  h-panel     series,x,value       series beta|fitted|naive with\n"
            "              x=theta, plus mass_fitted|mass_naive with\n"
            "              x=question label (bundled response data)\n"
            "  sim-panel   design,k,metric,mean,se   simulated objective for\n"
            "              optimal|fitted|naive designs (bundled response data)\n"
        ),
    )
    p.add_argument("panel", choices=("beta-panel", "h-panel", "sim-panel"))
    p.add_argument("--out", required=True, help="CSV to write")
    p.add_argument("--M", type=int, default=200)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--steps", type=int, default=1000, help="sim-panel horizon")
    p.add_argument("--replicates", type=int, default=21, help="sim-panel replicates")
    p.add_argument("--death", type=float, default=0.0, help="sim-panel churn")
    p.add_argument("--matching", choices=_MATCHING, default="uniform")
    p.add_argument(
        "--metrics", nargs="+", choices=_WEIGHTING, default=["kendall"]
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, FitError) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
