"""Command line interface.

Subcommands: fit, test, compare, influence, simulate, kmplot.  All outputs
are plot-ready CSV files written into --out (plus a human-readable summary on
stdout); the core never plots.  The bundled veteran trial is addressable as
the input path "veteran".

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
import csv
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
    ingest_csv,
    ingest_csv_arms,
)
from .estimator import FitConfig, fit_grid
from .hypothesis import LinearRestriction, Restriction, wald_statistic
from .influence import if_curve, if2_wald, pif, sigma_model
from .kmpl import kmpl_fit
from .model import FamilySpec, ParametricFamily, get_family
from .montecarlo import ExperimentSpec, run_experiment
from .twosample import (
    LinearTwoSampleRestriction,
    TwoSampleRestriction,
    one_sided_wald,
    two_sample_wald,
)

__all__ = ["main", "hypothesis_parse", "ParsedHypothesis", "HypothesisParseError"]

DEFAULT_ALPHA_GRID = tuple(round(0.1 * k, 1) for k in range(11))


class HypothesisParseError(ValueError):
    pass


@dataclass(frozen=True)
class ParsedHypothesis:
    restriction: Restriction | TwoSampleRestriction
    two_sample: bool
    direction: str  # "two-sided" | "greater" | "less"
    text: str


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
            return ParsedHypothesis(
                LinearTwoSampleRestriction.homogeneity(p), True, direction, spec_text
            )
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
        return ParsedHypothesis(restriction, True, direction, spec_text)

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
        return ParsedHypothesis(
            LinearRestriction.simple(np.array(values)), False, direction, spec_text
        )

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
        return ParsedHypothesis(LinearRestriction.simple(theta0), False, direction, spec_text)
    if len(assignments) == 1:
        idx, value = next(iter(assignments.items()))
        return ParsedHypothesis(
            LinearRestriction.component(idx, value, p, name=family.param_names[idx]),
            False,
            direction,
            spec_text,
        )
    raise HypothesisParseError("restrict either one parameter or all of them")


# -- IO helpers -------------------------------------------------------------


def _resolve_input(path: str) -> str:
    if path == "veteran":
        return datasets.veteran_csv_path()
    if not os.path.exists(path):
        raise FileNotFoundError(f"input file not found: {path}")
    return path


def _veteran_columns(path: str, args) -> tuple[str, str]:
    if os.path.abspath(path) == os.path.abspath(datasets.veteran_csv_path()):
        return "time_days", "status"
    return args.time_column, args.status_column


def _load_sample(path: str, args) -> CensoredSample:
    path = _resolve_input(path)
    time_col, status_col = _veteran_columns(path, args)
    if args.arm_column and args.arm:
        arms = ingest_csv_arms(path, args.arm_column, time_col, status_col)
        if args.arm not in arms:
            raise CsvFormatError(
                f"{path}: arm {args.arm!r} not found (have {sorted(arms)})"
            )
        return arms[args.arm]
    return ingest_csv(path, time_col, status_col)


def _load_two_arms(args) -> tuple[CensoredSample, CensoredSample, tuple[str, str]]:
    if len(args.inputs) > 2:
        raise ValueError("compare takes at most two input files")
    if len(args.inputs) == 2:
        return (
            _load_sample(args.inputs[0], args),
            _load_sample(args.inputs[1], args),
            (args.inputs[0], args.inputs[1]),
        )
    if not args.arm_column:
        raise ValueError("compare needs two input files or --arm-column on one file")
    path = _resolve_input(args.inputs[0])
    time_col, status_col = _veteran_columns(path, args)
    arms = ingest_csv_arms(path, args.arm_column, time_col, status_col)
    labels = sorted(arms)
    if len(labels) != 2:
        raise ValueError(
            f"{path}: --arm-column must yield exactly two arms, found {labels}"
        )
    return arms[labels[0]], arms[labels[1]], (labels[0], labels[1])


def _alpha_values(args) -> tuple[float, ...]:
    if args.alpha is not None and args.alpha_grid is not None:
        raise ValueError("use either --alpha or --alpha-grid, not both")
    if args.alpha is not None:
        return (float(args.alpha),)
    if args.alpha_grid is not None:
        parts = args.alpha_grid.split(":")
        if len(parts) != 3:
            raise ValueError("--alpha-grid expects start:stop:step")
        start, stop, step = (float(v) for v in parts)
        if step <= 0 or stop < start:
            raise ValueError("--alpha-grid expects ascending start:stop with step > 0")
        count = int(round((stop - start) / step))
        grid = tuple(round(start + k * step, 10) for k in range(count + 1))
        return tuple(a for a in grid if a <= stop + 1e-12)
    return DEFAULT_ALPHA_GRID


def _write_rows(path: str, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _format_value(row.get(k, "")) for k in columns})


def _format_value(value):
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    return value


def read_csv_rows(path: str) -> list[dict]:
    """Read back a CLI-written CSV (numbers round-trip exactly)."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# -- subcommands ------------------------------------------------------------


def _cmd_fit(args) -> int:
    family = get_family(args.family)
    sample = _load_sample(args.inputs[0], args)
    grid = _alpha_values(args)
    results = fit_grid(sample, family, grid, FitConfig())
    rows = [r.to_dict() for r in results]
    columns = list(rows[0].keys())
    out = os.path.join(args.out, "fit.csv")
    _write_rows(out, columns, rows)
    for r in results:
        print(r.summary())
        print()
    print(f"wrote {out}")
    return 0 if all(r.converged for r in results) else 1


def _cmd_test(args) -> int:
    family = get_family(args.family)
    sample = _load_sample(args.inputs[0], args)
    parsed = hypothesis_parse(args.hypothesis, family)
    if parsed.two_sample:
        raise ValueError("two-sample hypotheses need the compare command")
    grid = _alpha_values(args)
    fits = fit_grid(sample, family, grid, FitConfig())
    rows, ok = [], True
    for fr in fits:
        if not fr.converged:
            ok = False
            rows.append({"alpha_dpd": fr.alpha, "hypothesis": parsed.text,
                         "statistic": float("nan"), "df": parsed.restriction.r,
                         "p_value": float("nan"), "converged": False})
            continue
        report = wald_statistic(fr, parsed.restriction)
        row = report.to_dict()
        row["converged"] = True
        rows.append(row)
        print(report.summary())
        print()
    out = os.path.join(args.out, "test.csv")
    columns = ["alpha_dpd", "hypothesis", "statistic", "df", "p_value", "converged"]
    extra = [k for k in rows[0] if k not in columns]
    _write_rows(out, columns + extra, rows)
    print(f"wrote {out}  (p-value vs alpha curve)")
    return 0 if ok else 1


def _cmd_compare(args) -> int:
    family = get_family(args.family)
    sample1, sample2, labels = _load_two_arms(args)
    parsed = hypothesis_parse(args.hypothesis, family)
    if not parsed.two_sample:
        raise ValueError("compare needs a two-sample hypothesis (e.g. shape1=shape2)")
    grid = _alpha_values(args)
    rows, ok = [], True
    for alpha in grid:
        fit1 = fit_grid(sample1, family, (alpha,), FitConfig())[0]
        fit2 = fit_grid(sample2, family, (alpha,), FitConfig())[0]
        if not (fit1.converged and fit2.converged):
            ok = False
            rows.append({"alpha_dpd": alpha, "hypothesis": parsed.text,
                         "statistic": float("nan"), "p_value": float("nan"),
                         "one_sided": parsed.direction != "two-sided",
                         "converged": False})
            continue
        wald = two_sample_wald if parsed.direction == "two-sided" else one_sided_wald
        report = wald(fit1, fit2, parsed.restriction)
        row = report.to_dict()
        row["converged"] = True
        rows.append(row)
        print(f"arms {labels[0]} vs {labels[1]}")
        print(report.summary())
        print()
    out = os.path.join(args.out, "compare.csv")
    columns = ["alpha_dpd", "hypothesis", "statistic", "df", "one_sided", "p_value",
               "n1", "n2", "converged"]
    extra = [k for k in rows[0] if k not in columns]
    _write_rows(out, columns + extra, rows)
    print(f"wrote {out}")
    return 0 if ok else 1


def _cmd_influence(args) -> int:
    family = get_family(args.family)
    theta0 = np.array([float(v) for v in args.theta.split(",")])
    family.validate(theta0)
    grid = np.geomspace(args.t_min, args.t_max, args.t_points)
    explicit = args.alpha is not None or args.alpha_grid is not None
    alphas = _alpha_values(args) if explicit else (0.0, 0.5, 1.0)
    written = []
    for alpha in alphas:
        curve = if_curve(family, theta0, alpha, grid)
        out = os.path.join(args.out, f"if_alpha{alpha:g}.csv")
        curve.write_csv(out)
        written.append(out)
        if args.hypothesis:
            parsed = hypothesis_parse(args.hypothesis, family)
            if parsed.two_sample:
                raise ValueError("influence curves use one-sample hypotheses")
            sigma = sigma_model(family, theta0, alpha)
            if2 = if2_wald(family, theta0, alpha, parsed.restriction, grid, sigma=sigma)
            d = np.ones(family.dim)
            pifv = pif(family, theta0, alpha, parsed.restriction, d, grid,
                       level=args.level, sigma=sigma)
            out2 = os.path.join(args.out, f"if2_pif_alpha{alpha:g}.csv")
            _write_rows(out2, ["t", "if2", "pif"],
                        [{"t": t, "if2": a, "pif": b} for t, a, b in zip(grid, if2, pifv)])
            written.append(out2)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_kmplot(args) -> int:
    sample = _load_sample(args.inputs[0], args)
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
    family.validate(theta0)
    contamination = None
    if args.contamination:
        fam_name, _, param = args.contamination.partition(":")
        contamination = FamilySpec(fam_name, tuple(float(v) for v in param.split(",")))
        contamination.resolve()
    design = SyntheticDesign(
        lifetime=FamilySpec(family.family_id, theta0),
        censoring_mean=args.censoring_mean,
        contamination_fraction=args.contamination_fraction,
        contamination=contamination,
        seed=args.seed,
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
        workers=args.workers,
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

    def common(p, inputs=1):
        if inputs:
            p.add_argument("inputs", nargs="+" if inputs == "+" else 1,
                           metavar="CSV", help="input CSV path(s); 'veteran' loads the bundled trial")
        p.add_argument("--family", default="weibull", help="exp or weibull")
        p.add_argument("--alpha", type=float, default=None, help="single divergence tuning value")
        p.add_argument("--alpha-grid", default=None, metavar="A:B:STEP",
                       help="ascending tuning grid, e.g. 0:1:0.1")
        p.add_argument("--level", type=float, default=0.05, help="significance level")
        p.add_argument("--time-column", default="time")
        p.add_argument("--status-column", default="status")
        p.add_argument("--arm-column", default=None)
        p.add_argument("--arm", default=None, help="arm value to select with --arm-column")
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (default: $ROBUSTSURV_SEED, else 0)")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: $ROBUSTSURV_WORKERS, else 1)")
        p.add_argument("--out", default=".", help="output directory")
        return p

    common(sub.add_parser("fit", help="estimate parameters over a tuning grid"))
    test_p = common(sub.add_parser("test", help="one-sample Wald-type tests"))
    test_p.add_argument("--hypothesis", required=True)
    compare_p = common(sub.add_parser("compare", help="two-sample comparison"), inputs="+")
    compare_p.add_argument("--hypothesis", required=True)
    common(sub.add_parser("kmplot", help="product-limit CDF and log-log hazard CSV"))

    infl = common(sub.add_parser("influence", help="influence-curve CSVs"), inputs=0)
    infl.add_argument("--theta", required=True, help="comma-separated parameter values")
    infl.add_argument("--hypothesis", default=None)
    infl.add_argument("--t-min", type=float, default=1e-2)
    infl.add_argument("--t-max", type=float, default=1e2)
    infl.add_argument("--t-points", type=int, default=200)

    sim = common(sub.add_parser("simulate", help="Monte Carlo experiments"), inputs=0)
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


_COMMANDS = {
    "fit": _cmd_fit,
    "test": _cmd_test,
    "compare": _cmd_compare,
    "influence": _cmd_influence,
    "kmplot": _cmd_kmplot,
    "simulate": _cmd_simulate,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
    try:
        # the environment is read per call, not when the parser was built
        if args.seed is None:
            args.seed = int(os.environ.get("ROBUSTSURV_SEED", "0"))
        if args.workers is None:
            args.workers = int(os.environ.get("ROBUSTSURV_WORKERS", "1"))
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
