"""The traced pass: the CLI's library calls replayed under spans.

For every operation of a pass, the replay calls the same public
functions of ``ratecraft`` in the order the CLI calls them, with a span
around each call into a layer (a module of ``src/ratecraft``).  Spans
are kept in memory and handed back at the end; ``layer_metrics`` turns
them into the per-layer metrics.

Two deliberate differences from the CLI:

- ``simulate`` is replayed through ``init_market``/``step_market``/
  ``empirical_objective`` so steps and records get their own spans.  The
  replay rebuilds the pair matrix on every record, whereas
  ``run_simulation`` caches it while no item is born; with churn both
  rebuild every record.
- tracemalloc is off during the pass, because it slows allocation-heavy
  Python code several-fold.  Allocation peaks come from probes after the
  pass, which repeat one call with tracemalloc on.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from ratecraft.core import (
    MatchProfile,
    QuestionBank,
    QuestionDistribution,
    load_design,
    normalize_weight,
    save_design,
)
from ratecraft.heuristic import fit_h, induced_beta
from ratecraft.optimizer import (
    SolverConfig,
    double_levels,
    nested_bisection,
    verify_equalization,
)
from ratecraft.partition import optimize_partition
from ratecraft.rates import pair_report
from ratecraft.responses import estimate_known, read_qualities_csv, read_ratings_csv
from ratecraft.simulator import (
    SimConfig,
    SimResult,
    empirical_objective,
    init_market,
    step_market,
)

LAYERS = ("cli", "core", "responses", "partition", "optimizer", "rates",
          "heuristic", "simulator")


class Tracer:
    """Spans as ``[name, start, end, parent, op]`` rows plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        row = [name, 0.0, 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[1] = time.perf_counter()
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def _peak_mb(fn) -> float:
    """Peak traced allocation of one call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class _Replay:
    """Replays one pass's operations inside ``out_dir`` under a tracer."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.partition_calls: list[tuple[int, tuple]] = []
        self.last_market = None

    def run(self, op) -> None:
        getattr(self, "_" + op.command.replace("-", "_"))(op.params)

    def _optimize_beta(self, p) -> None:
        t = self.t
        cfg = SolverConfig()
        with t.span("core.normalize_weight"):
            w = normalize_weight(p["w"])
        self.partition_calls.append((len(t.spans), (w, p["M"], p["grid"])))
        with t.span("partition.optimize"):
            part = optimize_partition(w, p["M"], p["grid"])
        g = MatchProfile.from_kind(p["g"], part.s)
        with t.span("optimizer.solve"):
            result = nested_bisection(p["M"], g, cfg, breakpoints=part)
        t.count("optimizer.levels", p["M"])
        with t.span("core.save_design"):
            save_design(p["out"], result.beta, g, p["w"], result.rate, result.residual)
        t.count("core.design_json_bytes", Path(p["out"]).stat().st_size)

    def _fit_h(self, p) -> None:
        t = self.t
        with t.span("core.load_design"):
            design = load_design(p["beta"])
        with t.span("core.read_bank"):
            bank = QuestionBank.from_csv(p["psi"])
        with t.span("heuristic.fit_h"):
            h = fit_h(design["beta"], bank)
        with t.span("core.write_mix"):
            h.to_json(p["out"])

    def _estimate_psi(self, p) -> None:
        t = self.t
        with t.span("responses.read_ratings"):
            ratings = read_ratings_csv(p["ratings"])
        t.count("responses.rows", len(ratings))
        with t.span("responses.read_qualities"):
            qualities = read_qualities_csv(p["qualities"])
        with t.span("responses.estimate_known"):
            bank = estimate_known(ratings, qualities)
        with t.span("core.write_bank"):
            bank.to_csv(p["out"])

    def _rate(self, p) -> None:
        t = self.t
        with t.span("core.load_design"):
            design = load_design(p["design"])
        beta, g = design["beta"], design["g"]
        with t.span("optimizer.verify"):
            report = verify_equalization(beta, g)
        with t.span("rates.pair_report"):
            pairs = pair_report(beta, g)
        t.count("rates.pairs", len(pairs))
        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["pair", "t_lo", "t_hi", "g_lo", "g_hi", "rate"])
        for pr in pairs:
            writer.writerow([pr.index, pr.t_lo, pr.t_hi, pr.g_lo, pr.g_hi, repr(pr.rate)])
        sink.write(f"overall_rate {report.rate!r}\nspread {report.spread!r}\n")

    def _double(self, p) -> None:
        t = self.t
        with t.span("core.load_design"):
            design = load_design(p["design"])
        beta, g = design["beta"], design["g"]
        for _ in range(p["times"]):
            with t.span("optimizer.double"):
                beta = double_levels(beta, g)
            g = MatchProfile.uniform(beta.M)
        with t.span("optimizer.verify"):
            report = verify_equalization(beta, g)
        with t.span("core.save_design"):
            save_design(p["out"], beta, g, design["w_kind"], report.rate, report.spread)
        t.count("core.design_json_bytes", Path(p["out"]).stat().st_size)

    def _traced_mixture(self, curve):
        def evaluate(theta):
            with self.t.span("heuristic.mixture_eval"):
                return curve(theta)

        return evaluate

    def _simulate(self, p) -> None:
        t = self.t
        payload = json.loads(Path(p["design"]).read_text(encoding="utf-8"))
        if "probabilities" in payload:
            with t.span("core.read_bank"):
                bank = QuestionBank.from_csv(p["psi"])
            with t.span("core.read_mix"):
                h = QuestionDistribution.from_json(p["design"])
            with t.span("heuristic.induced_beta"):
                design = self._traced_mixture(induced_beta(h, bank))
        else:
            with t.span("core.load_design"):
                design = load_design(p["design"])["beta"]
        cfg = SimConfig(
            design=design,
            steps=p["steps"],
            n_items=p["items"],
            n_buyers=p["buyers"],
            death_prob=p["death"],
            metrics=p["metrics"],
            seed=p["seed"],
            replicates=p["replicates"],
            record_at=p["record_at"],
        )
        weights = {name: normalize_weight(name) for name in cfg.metrics}
        schedule = cfg.record_schedule()
        record = set(schedule)
        rows = []
        for rep in range(cfg.replicates):
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(rep,)))
            with t.span("simulator.init"):
                state = init_market(cfg, rng)
            for k in range(1, cfg.steps + 1):
                with t.span("simulator.step"):
                    step_market(state, cfg, rng)
                if k in record:
                    for name in cfg.metrics:
                        with t.span("simulator.record"):
                            rows.append((rep, k, name, empirical_objective(state, weights[name])))
            t.count("simulator.births", state.births)
        n = cfg.n_items
        t.count("simulator.steps", cfg.steps * cfg.replicates)
        t.count("simulator.records", len(schedule) * cfg.replicates)
        t.count("simulator.matches", cfg.n_buyers * cfg.steps * cfg.replicates)
        t.count("simulator.item_steps", n * cfg.steps * cfg.replicates)
        # one dense float64 n x n pair matrix per metric per record
        t.count("simulator.record_bytes_computed",
                8 * n * n * len(cfg.metrics) * len(schedule) * cfg.replicates)
        self.last_market = (state, weights[cfg.metrics[0]])
        result = SimResult(cfg.metrics, schedule, cfg.replicates, tuple(rows))
        with t.span("simulator.write"):
            result.to_csv(p["out"])


def traced_run(ops, out_dir: Path) -> dict:
    """One traced pass of ``ops`` in a new ``out_dir``, then the memory probes."""
    out_dir.mkdir(parents=True)
    tracer = Tracer()
    replay = _Replay(tracer)
    here = Path.cwd()
    os.chdir(out_dir)
    try:
        start = time.perf_counter()
        for i, op in enumerate(ops):
            tracer.op = i
            with tracer.span(f"cli.{op.command}"):
                replay.run(op)
        wall = time.perf_counter() - start
        probes = {"partition_peak_mb": 0.0, "record_peak_mb": 0.0}
        if replay.partition_calls:
            # the median-duration partition call: skips the shortcut calls
            # without paying for the slowest one under tracemalloc
            calls = sorted(
                replay.partition_calls,
                key=lambda c: tracer.spans[c[0]][2] - tracer.spans[c[0]][1],
            )
            args = calls[(len(calls) - 1) // 2][1]
            probes["partition_peak_mb"] = _peak_mb(lambda: optimize_partition(*args))
        if replay.last_market is not None:
            state, w = replay.last_market
            probes["record_peak_mb"] = _peak_mb(lambda: empirical_objective(state, w))
    finally:
        os.chdir(here)
    return {
        "wall_s": wall,
        "ops": [op.name for op in ops],
        "spans": tracer.spans,
        "counts": tracer.counts,
        "probes": probes,
    }


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def span_summary(spans) -> dict:
    """Count, total, self and longest seconds per span name."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s[0], {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
        row["count"] += 1
        row["total_s"] += s[2] - s[1]
        row["self_s"] += own
        row["max_s"] = max(row["max_s"], s[2] - s[1])
    return out


def layer_metrics(trace: dict, untraced_wall: float, imports: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced run."""
    counts, probes = trace["counts"], trace["probes"]
    summary = span_summary(trace["spans"])
    empty = {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0}

    def total(name: str) -> float:
        return summary.get(name, empty)["total_s"]

    def per(seconds: float, n: float, scale: float) -> float:
        return seconds / n * scale if n else 0.0

    def mean(name: str, scale: float) -> float:
        row = summary.get(name, empty)
        return per(row["total_s"], row["count"], scale)

    step_s, record_s, init_s = (total(f"simulator.{k}") for k in ("step", "record", "init"))
    m = {
        "import.scipy_s": (imports["scipy_s"], "s"),
        "import.ratecraft_self_s": (imports["ratecraft_self_s"], "s"),
        "trace.overhead_s": (trace["wall_s"] - untraced_wall, "s"),
        "partition.optimize_s": (total("partition.optimize"), "s"),
        "partition.optimize_max_s": (summary.get("partition.optimize", empty)["max_s"], "s"),
        "partition.peak_alloc_mb": (probes["partition_peak_mb"], "MB"),
        "optimizer.solve_s": (total("optimizer.solve"), "s"),
        "optimizer.solve_us_per_level": (
            per(total("optimizer.solve"), counts.get("optimizer.levels", 0), 1e6), "us"),
        "optimizer.double_s": (total("optimizer.double"), "s"),
        "optimizer.verify_s": (total("optimizer.verify"), "s"),
        "rates.us_per_pair": (
            per(total("rates.pair_report"), counts.get("rates.pairs", 0), 1e6), "us"),
        "core.save_design_s": (total("core.save_design"), "s"),
        "core.load_design_s": (total("core.load_design"), "s"),
        "core.design_json_bytes": (counts.get("core.design_json_bytes", 0), "bytes"),
        "responses.read_ratings_s": (total("responses.read_ratings"), "s"),
        "responses.estimate_known_s": (total("responses.estimate_known"), "s"),
        "responses.rows": (counts.get("responses.rows", 0), "count"),
        "heuristic.fit_h_s": (total("heuristic.fit_h"), "s"),
        "heuristic.mixture_eval_us": (mean("heuristic.mixture_eval", 1e6), "us"),
        "simulator.init_s": (init_s, "s"),
        "simulator.step_us": (mean("simulator.step", 1e6), "us"),
        "simulator.record_ms": (mean("simulator.record", 1e3), "ms"),
        "simulator.record_share": (per(record_s, step_s + record_s + init_s, 1.0), "ratio"),
        "simulator.record_peak_alloc_mb": (probes["record_peak_mb"], "MB"),
        "simulator.record_bytes_computed": (counts.get("simulator.record_bytes_computed", 0), "bytes"),
        "simulator.item_steps_per_s": (
            per(counts.get("simulator.item_steps", 0), total("cli.simulate"), 1.0), "1/s"),
        "simulator.steps": (counts.get("simulator.steps", 0), "count"),
        "simulator.records": (counts.get("simulator.records", 0), "count"),
        "simulator.births": (counts.get("simulator.births", 0), "count"),
        "simulator.matches": (counts.get("simulator.matches", 0), "count"),
    }
    for layer in LAYERS:
        own = sum(row["self_s"] for name, row in summary.items() if name.split(".")[0] == layer)
        m[f"{layer}.self_s"] = (own, "s")
    return m


def parse_importtime(stderr: str) -> dict:
    """Seconds spent importing scipy (outermost scipy imports, cumulative)
    and in ratecraft's own modules (self), from ``-X importtime`` output."""
    rows = []
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3:
            continue
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except ValueError:  # the header row
            continue
        label = fields[2].rstrip()
        depth = len(label) - len(label.lstrip(" "))
        rows.append((depth, label.strip(), self_us, cum_us))
    scipy_us = ratecraft_us = 0
    stack: list[tuple[int, str]] = []
    # rows are printed children first; walk them parents first
    for depth, name, self_us, cum_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(n == "scipy" or n.startswith("scipy.") for _, n in stack):
            scipy_us += cum_us
        if name == "ratecraft" or name.startswith("ratecraft."):
            ratecraft_us += self_us
        stack.append((depth, name))
    return {"scipy_s": scipy_us / 1e6, "ratecraft_self_s": ratecraft_us / 1e6}


def median_imports(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
