"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public robustsurv functions at the module (or class)
attributes where their callers look them up, so nothing under ``src/`` is
edited.  Each call becomes one span ``(id, parent, name, start_ns, end_ns,
op, note)``; spans stay in memory until :meth:`Tracer.write` and every
wrapped attribute is put back when the ``with`` block ends.

Span names are ``<layer>.<function>``; the layer is the robustsurv module.
"""

from __future__ import annotations

import importlib
import itertools
import math
import time

import numpy as np

# (owner, attribute, span name).  The owner is the module or class whose
# attribute the caller reads at call time, e.g. montecarlo calls its own
# global ``fit_grid`` and fit_grid calls the estimator module's ``fit``.
TARGETS = (
    ("robustsurv.montecarlo", "run_level_power", "montecarlo.run_level_power"),
    ("robustsurv.montecarlo", "simulate", "data.simulate"),
    ("robustsurv.montecarlo", "fit_grid", "estimator.fit_grid"),
    ("robustsurv.montecarlo", "wald_statistic", "hypothesis.wald_statistic"),
    ("robustsurv.cli", "main", "cli.main"),
    ("robustsurv.cli", "ingest_csv", "data.ingest"),
    ("robustsurv.cli", "ingest_csv_arms", "data.ingest"),
    ("robustsurv.cli", "kmpl_fit", "kmpl.kmpl_fit"),
    ("robustsurv.cli", "fit_grid", "estimator.fit_grid"),
    ("robustsurv.cli", "wald_statistic", "hypothesis.wald_statistic"),
    ("robustsurv.cli", "two_sample_wald", "twosample.two_sample_wald"),
    ("robustsurv.cli", "one_sided_wald", "twosample.one_sided_wald"),
    ("robustsurv.cli", "if_curve", "influence.if_curve"),
    ("robustsurv.cli", "sigma_model", "influence.sigma_model"),
    ("robustsurv.cli", "if2_wald", "influence.if2_wald"),
    ("robustsurv.cli", "pif", "influence.pif"),
    ("robustsurv.estimator", "fit", "estimator.fit"),
    ("robustsurv.estimator", "kmpl_fit", "kmpl.kmpl_fit"),
    ("robustsurv.estimator", "lambda_model", "model.lambda_model"),
    ("robustsurv.varest", "covariance_estimate", "varest.covariance_estimate"),
    ("robustsurv.varest", "c_hat", "varest.c_hat"),
    ("robustsurv.hypothesis", "wald_statistic", "hypothesis.wald_statistic"),
    ("robustsurv.model:Weibull", "weighted_integrals", "model.weighted_integrals"),
    ("robustsurv.model:Weibull", "logpdf", "model.logpdf"),
    ("robustsurv.model:Weibull", "score", "model.score"),
)


def _fit_note(result):
    return (result.message, result.n_iter)


def _wald_note(result):
    return "nan" if not math.isfinite(result.p_value) else None


NOTES = {"estimator.fit": _fit_note, "hypothesis.wald_statistic": _wald_note}


def resolve_owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Context manager that installs the wrappers and restores them on exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._saved: list[tuple] = []
        # one id sequence and one parent stack shared by every wrapper
        self._ids = itertools.count(1)
        self._stack = [0]

    def __enter__(self):
        for path, attr, name in TARGETS:
            owner = resolve_owner(path)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name):
        spans, ids, stack = self.spans, self._ids, self._stack
        clock, note = time.perf_counter_ns, NOTES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            outcome = "raised"
            start = clock()
            try:
                result = fn(*args, **kwargs)
                outcome = note(result) if note else None
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, tracer.op, outcome))

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\top\tnote\n")
            for span in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in span) + "\n")


def installed_wrappers() -> list[str]:
    """Attributes that still hold a tracer wrapper (empty after a clean exit)."""
    return [
        f"{path}.{attr}"
        for path, attr, _ in TARGETS
        if hasattr(vars(resolve_owner(path))[attr], "__wrapped__")
    ]


# -- per-layer metrics -------------------------------------------------------

class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.parent = {s[0]: s[1] for s in spans}
        self.name = {s[0]: s[2] for s in spans}
        self.child_ns: dict[int, int] = {}
        for s in spans:
            if s[1]:
                self.child_ns[s[1]] = self.child_ns.get(s[1], 0) + s[4] - s[3]

    def named(self, prefix: str) -> list[tuple]:
        return [s for s in self.spans if _under(s[2], prefix)]

    def enclosing(self, sid: int, name: str) -> int | None:
        sid = self.parent.get(sid, 0)
        while sid:
            if self.name[sid] == name:
                return sid
            sid = self.parent.get(sid, 0)
        return None

    def self_share(self, spans) -> float:
        total = sum(s[4] - s[3] for s in spans)
        covered = sum(self.child_ns.get(s[0], 0) for s in spans)
        return (total - covered) / total if total else 0.0


def _ms_per_call(spans) -> float:
    return sum(s[4] - s[3] for s in spans) / len(spans) / 1e6 if spans else 0.0


def _pct(values, q, counts=False) -> float:
    if not len(values):
        return 0.0
    return float(np.percentile(values, q, method="inverted_cdf" if counts else "linear"))


def layer_metrics(spans, count_ops: int) -> dict[str, float]:
    """Per-layer numbers from one traced run.

    Exact counts (calls per fit, solver paths, iterations, test failures)
    use only the fits of ops ``< count_ops``, a prefix fixed by the workload
    and seed, so they repeat exactly; times use every span.
    """
    ix = SpanIndex(spans)
    fits = ix.named("estimator.fit")
    counted = {s[0]: s for s in fits if s[5] < count_ops}

    def per_fit(name):
        per = dict.fromkeys(counted, 0)
        busy = dict.fromkeys(counted, 0)
        for s in spans:
            if s[2] == name:
                fid = ix.enclosing(s[0], "estimator.fit")
                if fid in per:
                    per[fid] += 1
                    busy[fid] += s[4] - s[3]
        return np.array(list(per.values())), np.array(list(busy.values()))

    kmpl_calls, _ = per_fit("kmpl.kmpl_fit")
    wi_calls, _ = per_fit("model.weighted_integrals")
    logpdf_calls, logpdf_ns = per_fit("model.logpdf")
    score_calls, score_ns = per_fit("model.score")
    n_fit = max(len(counted), 1)
    paths = [s[6][0].split(":")[0] for s in counted.values() if isinstance(s[6], tuple)]
    n_iter = [s[6][1] for s in counted.values() if isinstance(s[6], tuple)]
    fit_ms = np.array([(s[4] - s[3]) / 1e6 for s in fits])
    walds = ix.named("hypothesis.wald_statistic")
    mains = ix.named("cli.main")
    wi = ix.named("model.weighted_integrals")
    return {
        "data.simulate.ms_per_call": _ms_per_call(ix.named("data.simulate")),
        "data.ingest.ms_per_call": _ms_per_call(ix.named("data.ingest")),
        "kmpl.kmpl_fit.calls_per_fit": float(kmpl_calls.sum()) / n_fit,
        "kmpl.kmpl_fit.ms_per_call": _ms_per_call(ix.named("kmpl.kmpl_fit")),
        "model.weighted_integrals.calls_per_fit.p50": _pct(wi_calls, 50, counts=True),
        "model.weighted_integrals.calls_per_fit.p99": _pct(wi_calls, 99, counts=True),
        "model.weighted_integrals.us_per_call": _ms_per_call(wi) * 1e3,
        "model.pointwise.calls_per_fit": float(logpdf_calls.sum() + score_calls.sum()) / n_fit,
        "model.pointwise.ms_per_fit": float(logpdf_ns.sum() + score_ns.sum()) / n_fit / 1e6,
        "estimator.fit.p50_ms": _pct(fit_ms, 50),
        "estimator.fit.p99_ms": _pct(fit_ms, 99),
        "estimator.fit.self_share": ix.self_share(fits),
        "estimator.path_share.newton": paths.count("newton") / n_fit,
        "estimator.path_share.newton-restart": paths.count("newton-restart") / n_fit,
        "estimator.path_share.simplex": sum(p.startswith("simplex") for p in paths) / n_fit,
        "estimator.n_iter.p50": _pct(n_iter, 50, counts=True),
        "estimator.n_iter.p99": _pct(n_iter, 99, counts=True),
        "varest.covariance_estimate.ms_per_call": _ms_per_call(ix.named("varest.covariance_estimate")),
        "hypothesis.wald_statistic.us_per_call": _ms_per_call(walds) * 1e3,
        "hypothesis.wald_statistic.failures": float(
            sum(s[6] is not None for s in walds if s[5] < count_ops)
        ),
        "twosample.ms_per_call": _ms_per_call(ix.named("twosample")),
        "influence.ms_per_call": _ms_per_call(ix.named("influence")),
        "montecarlo.self_share": ix.self_share(ix.named("montecarlo.run_level_power")),
        "cli.main.self_ms_per_op": ix.self_share(mains) * _ms_per_call(mains),
    }


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def reached(spans, prefix: str) -> bool:
    return any(_under(s[2], prefix) for s in spans)
