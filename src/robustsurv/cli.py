"""Command line interface.

Subcommands: fit, test, compare, influence, simulate, kmplot.  All outputs
are plot-ready CSV files written into --out (plus a human-readable summary on
stdout); the core never plots.

Input rule: every input is a CSV read under --time-column/--status-column.
fit, test and kmplot read one file, or the arm that --arm-column and --arm
name together; compare reads two files, or one whose --arm-column holds
exactly two arms.  Anything else exits 2 and writes nothing.  "veteran" is
only an alias for the bundled trial's path (columns time, status, arm).

Each subcommand takes only the options it reads, and argparse refuses the
rest: the inputs with --time-column/--status-column/--arm-column for fit,
test, compare and kmplot (and --arm but for compare); --family/--alpha/
--alpha-grid for all but kmplot; --level, in (0, 1), for influence and
simulate; --seed/--workers (defaults read per call from $ROBUSTSURV_SEED/
$ROBUSTSURV_WORKERS) for simulate; --out for all.

Hypothesis grammar (--hypothesis):
    one sample:   "scale=2,shape=5"      simple null on all parameters
                  "shape=1"              single-component null
    two sample:   "theta1=theta2"        full homogeneity
                  "shape1=shape2"        component homogeneity
    a trailing "dir=greater" or "dir=less" marks a one-sided two-sample
    alternative (r must be 1).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import datasets
from .data import (
    CensoredSample,
    CsvFormatError,
    SyntheticDesign,
    _csv_table,
    ingest_csv,
    ingest_csv_arms,
)
from .estimator import fit_grid
from .hypothesis import LinearRestriction, Restriction, chi2_quantile, wald_statistic
# if2_wald and pif stay attributes here for bench/tracing.py
from .influence import _if2_values, _null_inverse, _pif_values, if2_wald, if_curve, pif, sigma_model  # noqa: F401
from .kmpl import kmpl_fit
from .model import FamilySpec, ParametricFamily, get_family, validate_alpha
from .montecarlo import ExperimentSpec, run_experiment
from .twosample import LinearTwoSampleRestriction, one_sided_wald, two_sample_wald

__all__ = ["main", "hypothesis_parse", "ParsedHypothesis", "HypothesisParseError"]

DEFAULT_ALPHA_GRID = tuple(round(0.1 * k, 1) for k in range(11))


class HypothesisParseError(ValueError):
    pass


@dataclass(frozen=True)
class ParsedHypothesis:
    restriction: Restriction
    two_sample: bool
    direction: str  # "two-sided" | "greater" | "less"


def _param_index(family: ParametricFamily, name: str, position: int) -> int:
    aliases = {"exponential": {"mean": 0, "theta": 0},
               "weibull": {"scale": 0, "a": 0, "sigma": 0, "shape": 1, "b": 1}}
    table = aliases.get(family.family_id, {})
    key = name.lower()
    if key in table:
        return table[key]
    raise HypothesisParseError(
        f"position {position}: unknown parameter {name!r} for family "
        f"{family.family_id} (expected one of {sorted(table)})"
    )


def hypothesis_parse(spec_text: str, family: ParametricFamily) -> ParsedHypothesis:
    """Parse the hypothesis grammar into a validated restriction.

    Raises :class:`HypothesisParseError` with the offending position on bad
    input; Jacobians of the produced restrictions are linear and exact.
    """
    text = spec_text.strip()
    direction = "two-sided"
    dir_match = re.search(r"\bdir\s*=\s*(\w+)\s*$", text)
    if dir_match:
        word = dir_match.group(1).lower()
        if word not in {"greater", "less", "two-sided", "twosided"}:
            raise HypothesisParseError(
                f"position {dir_match.start(1)}: unknown direction {word!r}"
            )
        direction = "two-sided" if word.startswith("two") else word
        text = text[: dir_match.start()].rstrip().rstrip(",")
    if not text:
        raise HypothesisParseError("position 0: empty hypothesis")

    p = family.dim
    clauses = [c.strip() for c in text.split(",")]
    # two-sample forms: theta1=theta2 or <name>1=<name>2
    two_sample_full = re.fullmatch(r"theta1\s*=\s*theta2", clauses[0], re.IGNORECASE)
    two_sample_comp = re.fullmatch(r"([a-zA-Z]+)1\s*=\s*([a-zA-Z]+)2", clauses[0])
    if two_sample_full or two_sample_comp:
        if len(clauses) != 1:
            raise HypothesisParseError(
                "two-sample hypotheses take a single clause"
            )
        if two_sample_full:
            if direction != "two-sided":
                raise HypothesisParseError(
                    "one-sided alternatives need a rank-one restriction"
                )
            return ParsedHypothesis(LinearTwoSampleRestriction.homogeneity(p), True, direction)
        left, right = two_sample_comp.group(1), two_sample_comp.group(2)
        if left.lower() != right.lower():
            raise HypothesisParseError(
                f"position 0: mismatched parameters {left!r} vs {right!r}"
            )
        idx = _param_index(family, left, 0)
        restriction = LinearTwoSampleRestriction.component_equal(
            idx, p, name=family.param_names[idx]
        )
        if direction == "less":
            restriction = restriction.negated()
        return ParsedHypothesis(restriction, True, direction)

    if direction != "two-sided":
        raise HypothesisParseError("dir= applies to two-sample hypotheses only")

    # one-sample vector form: theta = v1,v2
    vector = re.fullmatch(r"theta\s*=\s*([-+0-9.eE]+(?:\s*,\s*[-+0-9.eE]+)*)", text)
    if vector:
        values = [float(v) for v in vector.group(1).split(",")]
        if len(values) != p:
            raise HypothesisParseError(
                f"theta= needs {p} value(s) for {family.family_id}, got {len(values)}"
            )
        return ParsedHypothesis(LinearRestriction.simple(np.array(values)), False, direction)

    # one-sample: name=value clauses
    assignments: dict[int, float] = {}
    offset = 0
    for clause in clauses:
        match = re.fullmatch(r"\s*([a-zA-Z]+)\s*=\s*([-+0-9.eE]+)\s*", clause)
        if not match:
            raise HypothesisParseError(
                f"position {offset}: cannot parse clause {clause!r} (expected name=value)"
            )
        idx = _param_index(family, match.group(1), offset)
        try:
            value = float(match.group(2))
        except ValueError:
            raise HypothesisParseError(
                f"position {offset + match.start(2)}: bad number {match.group(2)!r}"
            ) from None
        if idx in assignments:
            raise HypothesisParseError(
                f"position {offset}: parameter {match.group(1)!r} restricted twice"
            )
        assignments[idx] = value
        offset += len(clause) + 1
    if len(assignments) == p:
        theta0 = np.array([assignments[i] for i in range(p)])
        return ParsedHypothesis(LinearRestriction.simple(theta0), False, direction)
    if len(assignments) == 1:
        idx, value = next(iter(assignments.items()))
        restriction = LinearRestriction.component(idx, value, p, name=family.param_names[idx])
        return ParsedHypothesis(restriction, False, direction)
    raise HypothesisParseError("restrict either one parameter or all of them")


# -- IO helpers -------------------------------------------------------------


def _read(path: str, args, arm_column: str | None = None):
    """``path``'s sample, or with ``arm_column`` its samples by arm."""
    path = datasets.veteran_csv_path() if path == "veteran" else path
    if not os.path.isfile(path):
        raise FileNotFoundError(f"input file not found: {path}")
    if arm_column is None:
        return ingest_csv(path, args.time_column, args.status_column)
    return ingest_csv_arms(path, arm_column, args.time_column, args.status_column)


def _load_sample(args) -> CensoredSample:
    """fit, test and kmplot's sample (module docstring's input rule)."""
    if (args.arm_column is None) != (args.arm is None):
        raise ValueError("--arm and --arm-column must be given together")
    if args.arm_column is None:
        return _read(args.inputs[0], args)
    arms = _read(args.inputs[0], args, args.arm_column)
    if args.arm not in arms:
        raise CsvFormatError(f"{args.inputs[0]}: arm {args.arm!r} not found (have {list(arms)})")
    return arms[args.arm]


def _load_two_arms(args) -> tuple[CensoredSample, CensoredSample, tuple[str, str]]:
    """compare's samples and labels (module docstring's input rule)."""
    if len(args.inputs) == 2 and args.arm_column is None:
        return _read(args.inputs[0], args), _read(args.inputs[1], args), tuple(args.inputs)
    if len(args.inputs) != 1 or args.arm_column is None:
        raise ValueError("compare takes two input files, or one file with --arm-column")
    arms = _read(args.inputs[0], args, args.arm_column)
    if len(arms) != 2:
        raise ValueError(f"{args.inputs[0]}: --arm-column must yield exactly two arms, "
                         f"found {list(arms)}")
    (label1, sample1), (label2, sample2) = arms.items()
    return sample1, sample2, (label1, label2)


def _alpha_values(args) -> tuple[float, ...]:
    if args.alpha is not None and args.alpha_grid is not None:
        raise ValueError("use either --alpha or --alpha-grid, not both")
    if args.alpha is not None:
        return (validate_alpha(args.alpha),)
    if args.alpha_grid is not None:
        parts = args.alpha_grid.split(":")
        if len(parts) != 3:
            raise ValueError("--alpha-grid expects start:stop:step")
        start, stop, step = validate_alpha(parts[0]), validate_alpha(parts[1]), float(parts[2])
        if not step > 0 or stop < start:
            raise ValueError("--alpha-grid expects ascending start:stop with step > 0")
        count = int(round((stop - start) / step))
        grid = tuple(round(start + k * step, 10) for k in range(count + 1))
        return tuple(a for a in grid if a <= stop + 1e-12)
    return DEFAULT_ALPHA_GRID


# -- subcommands ------------------------------------------------------------


def _cmd_fit(args) -> int:
    family = get_family(args.family)
    sample = _load_sample(args)
    results = fit_grid(sample, family, _alpha_values(args))
    rows = [r.to_dict() for r in results]
    out = os.path.join(args.out, "fit.csv")
    _csv_table(list(rows[0]), [list(row.values()) for row in rows], out)
    for r in results:
        print(r.summary())
        print()
    print(f"wrote {out}")
    return 0 if all(r.converged for r in results) else 1


def _report_table(out_dir: str, parsed: ParsedHypothesis, name: str, columns: list, reports,
                  banner: str = "", **fixed) -> int:
    """Print each (alpha, report) of ``reports`` and write <name>.csv, one row
    per alpha; report None (a fit that did not converge, exit code 1) gives a
    failure row: NaN statistic and p-value, the converged rows' hypothesis
    text and ``fixed``'s cells.  Columns not in ``columns`` follow in order of
    first appearance in any row, so a failed first alpha drops none."""
    one_sided = parsed.direction != "two-sided"
    failed = {"hypothesis": parsed.restriction.description + " (one-sided)" * one_sided,
              "statistic": float("nan"), "df": "" if one_sided else parsed.restriction.r,
              "p_value": float("nan"), **fixed, "converged": False}
    rows = []
    for alpha, report in reports:
        if report is None:
            rows.append({"alpha_dpd": alpha, **failed})
            continue
        rows.append({**report.to_dict(), "converged": True})
        print(banner + report.summary(), end="\n\n")
    columns = list(dict.fromkeys(columns + [k for row in rows for k in row]))
    out = os.path.join(out_dir, f"{name}.csv")
    _csv_table(columns, [[row.get(k, "") for k in columns] for row in rows], out)
    print(f"wrote {out}")
    return 0 if all(row["converged"] for row in rows) else 1


def _cmd_test(args) -> int:
    family = get_family(args.family)
    sample = _load_sample(args)
    parsed = hypothesis_parse(args.hypothesis, family)
    if parsed.two_sample:
        raise ValueError("two-sample hypotheses need the compare command")
    fits = fit_grid(sample, family, _alpha_values(args))
    reports = ((fr.alpha, wald_statistic(fr, parsed.restriction) if fr.converged else None)
               for fr in fits)
    columns = ["alpha_dpd", "hypothesis", "statistic", "df", "p_value", "converged"]
    return _report_table(args.out, parsed, "test", columns, reports)


def _cmd_compare(args) -> int:
    family = get_family(args.family)
    sample1, sample2, labels = _load_two_arms(args)
    parsed = hypothesis_parse(args.hypothesis, family)
    if not parsed.two_sample:
        raise ValueError("compare needs a two-sample hypothesis (e.g. shape1=shape2)")
    grid = _alpha_values(args)
    wald = two_sample_wald if parsed.direction == "two-sided" else one_sided_wald

    def reports():
        for alpha in grid:
            fit1 = fit_grid(sample1, family, (alpha,))[0]
            fit2 = fit_grid(sample2, family, (alpha,))[0]
            converged = fit1.converged and fit2.converged
            yield alpha, wald(fit1, fit2, parsed.restriction) if converged else None

    columns = ["alpha_dpd", "hypothesis", "statistic", "df", "one_sided", "p_value",
               "n1", "n2", "converged"]
    return _report_table(args.out, parsed, "compare", columns, reports(),
                         banner=f"arms {labels[0]} vs {labels[1]}\n",
                         one_sided=parsed.direction != "two-sided", n1=sample1.n, n2=sample2.n)


def _cmd_influence(args) -> int:
    family = get_family(args.family)
    theta0 = np.array([float(v) for v in args.theta.split(",")])
    family.validate(theta0)
    if args.t_points < 1:
        raise ValueError("--t-points must be at least 1")
    chi2_quantile(1, args.level)  # refuses a bad --level with or without --hypothesis
    for option, value in (("--t-min", args.t_min), ("--t-max", args.t_max)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{option} must be positive and finite, got {value!r}")
    grid = np.geomspace(args.t_min, args.t_max, args.t_points)
    explicit = args.alpha is not None or args.alpha_grid is not None
    alphas = _alpha_values(args) if explicit else (0.0, 0.5, 1.0)
    parsed = hypothesis_parse(args.hypothesis, family) if args.hypothesis else None
    if parsed is not None and parsed.two_sample:
        raise ValueError("influence curves use one-sample hypotheses")
    # all curves are computed before any file is written: a failure writes
    # nothing; each alpha's IF table serves its IF2 and PIF columns too
    writers = []
    for alpha in alphas:
        curve = if_curve(family, theta0, alpha, grid)
        writers.append((f"if_alpha{alpha:g}.csv", curve.write_csv))
        if parsed is not None:
            null = _null_inverse(family, theta0, alpha, parsed.restriction, sigma_model(family, theta0, alpha))
            if2 = _if2_values(*null, curve.values)
            pifv = _pif_values(*null, curve.values, np.ones(family.dim), parsed.restriction.r, args.level)
            rows = list(zip(grid.tolist(), if2.tolist(), pifv.tolist()))
            writers.append((f"if2_pif_alpha{alpha:g}.csv",
                            functools.partial(_csv_table, ["t", "if2", "pif"], rows)))
    for name, write in writers:
        path = os.path.join(args.out, name)
        write(path)
        print(f"wrote {path}")
    return 0


def _cmd_kmplot(args) -> int:
    sample = _load_sample(args)
    km = kmpl_fit(sample)
    out = os.path.join(args.out, "kmplot.csv")
    km.write_csv(out)
    if km.tail_flagged:
        print(f"note: defective tail mass {km.residual_mass:.3f} reassigned to "
              f"largest observation {km.tail_point:g}")
    print(f"wrote {out}")
    return 0


def _cmd_simulate(args) -> int:
    family = get_family(args.family)
    theta0 = tuple(float(v) for v in args.theta.split(","))
    contamination = None
    if args.contamination:
        fam_name, _, param = args.contamination.partition(":")
        contamination = FamilySpec(fam_name, tuple(float(v) for v in param.split(",")))
    design = SyntheticDesign(
        lifetime=FamilySpec(family.family_id, theta0),
        censoring_mean=args.censoring_mean,
        contamination_fraction=args.contamination_fraction,
        contamination=contamination,
        # the environment is read per call, not when the parser was built
        seed=int(os.environ.get("ROBUSTSURV_SEED", "0")) if args.seed is None else args.seed,
    )
    hypotheses = []
    for text in args.hypothesis or []:
        parsed = hypothesis_parse(text, family)
        if parsed.two_sample:
            raise ValueError("simulate runs one-sample hypotheses")
        hypotheses.append((text, parsed.restriction))
    spec = ExperimentSpec(
        design=design,
        n=args.n,
        replications=args.replications,
        alpha_grid=_alpha_values(args),
        hypotheses=tuple(hypotheses),
        level=args.level,
        kind=args.experiment,
        workers=int(os.environ.get("ROBUSTSURV_WORKERS", "1")) if args.workers is None else args.workers,
    )
    report = run_experiment(spec)
    out = os.path.join(args.out, f"simulate_{args.experiment}.csv")
    report.write_csv(out)
    print(report.summary())
    print(f"wrote {out}")
    return 1 if report.invalid else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustsurv",
        description="Robust divergence-based inference for randomly right-censored data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def inputs(p, nargs=1):
        p.add_argument("inputs", nargs=nargs, metavar="CSV",
                       help="input CSV path(s); 'veteran' is the bundled trial's path")
        p.add_argument("--time-column", default="time")
        p.add_argument("--status-column", default="status")
        p.add_argument("--arm-column", default=None)
        if nargs == 1:  # compare splits one file by --arm-column instead
            p.add_argument("--arm", default=None, help="arm value to select with --arm-column")

    def tuning(p):
        p.add_argument("--family", default="weibull", help="exp or weibull")
        p.add_argument("--alpha", type=float, default=None, help="single divergence tuning value")
        p.add_argument("--alpha-grid", default=None, metavar="A:B:STEP",
                       help="ascending tuning grid, e.g. 0:1:0.1")

    def level(p):
        p.add_argument("--level", type=float, default=0.05, help="significance level")

    def command(name, handler, summary, *groups):
        # no abbreviations: compare's "--arm" must not pass for --arm-column
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for group in groups:
            group(p)
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(handler=handler)
        return p

    command("fit", _cmd_fit, "estimate parameters over a tuning grid", inputs, tuning)
    test_p = command("test", _cmd_test, "one-sample Wald-type tests", inputs, tuning)
    test_p.add_argument("--hypothesis", required=True)
    compare_p = command("compare", _cmd_compare, "two-sample comparison",
                        functools.partial(inputs, nargs="+"), tuning)
    compare_p.add_argument("--hypothesis", required=True)
    command("kmplot", _cmd_kmplot, "product-limit CDF and log-log hazard CSV", inputs)

    infl = command("influence", _cmd_influence, "influence-curve CSVs", tuning, level)
    infl.add_argument("--theta", required=True, help="comma-separated parameter values")
    infl.add_argument("--hypothesis", default=None)
    infl.add_argument("--t-min", type=float, default=1e-2)
    infl.add_argument("--t-max", type=float, default=1e2)
    infl.add_argument("--t-points", type=int, default=200)

    sim = command("simulate", _cmd_simulate, "Monte Carlo experiments", tuning, level)
    sim.add_argument("--seed", type=int, default=None,
                     help="random seed (default: $ROBUSTSURV_SEED, else 0)")
    sim.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: $ROBUSTSURV_WORKERS, else 1)")
    sim.add_argument("--experiment", choices=("level_power", "mse", "variance_ratio"),
                     default="level_power")
    sim.add_argument("--theta", required=True, help="true parameter, comma separated")
    sim.add_argument("--censoring-mean", type=float, required=True)
    sim.add_argument("--contamination-fraction", type=float, default=0.0)
    sim.add_argument("--contamination", default=None, metavar="FAMILY:THETA",
                     help="e.g. exp:5")
    sim.add_argument("--hypothesis", action="append",
                     help="repeatable; one-sample grammar")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--replications", type=int, required=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    try:
        return args.handler(args)
    except (ValueError, FileNotFoundError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
