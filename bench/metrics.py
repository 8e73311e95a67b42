"""Metric definitions, the statistics behind them, and per-layer values.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` carries
(a test keeps the two in step). Each per-layer entry also names the
end-to-end metrics and workloads it should move, as ``metric@workload``,
so that a later change can cite the prediction it makes. Per-layer counts
and times are per operation of the traced pass, so that commits that get
through different numbers of operations stay comparable.
"""

from __future__ import annotations

import math
from statistics import median
from typing import NamedTuple, Optional

from tracer import Tracer


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    doc: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    keys: tuple[str, ...]  # tracer layer keys the value needs
    moves: str
    doc: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, "median of the run's set-ups: inputs, proofs, files"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "operations per second of timed work: median over up to 100 equal blocks of consecutive operations"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25, "median time per operation"),
    EndToEnd("latency_tail_ms", "ms", "lower", 0.25, "time per operation at the workload's tail percentile"),
    EndToEnd("ok_share", "ratio", "higher", 0.02, "operations that succeeded over those attempted: 1 - failed_share"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1, "peak resident memory of the process doing the work"),
)

PC, CE, SE, CL = "prove-corpus", "certify", "semantics", "cli"

PER_LAYER = (
    PerLayer("formula.sort_key_calls", "count/op", "lower", ("sort_key",),
             f"ops_per_s@{PC} latency_tail_ms@{PC}", "sort_key calls from sequent and calculus"),
    PerLayer("formula.parse_s", "s/op", "lower", ("parse",),
             f"ops_per_s@{CE} latency_p50_ms@{CL}", "time in parse_formula and parse_sequent"),
    PerLayer("formula.print_s", "s/op", "lower", ("print",),
             f"ops_per_s@{CE}", "time in print_formula and print_sequent"),
    PerLayer("sequent.multiset_ops", "count/op", "lower", ("multiset",),
             f"ops_per_s@{PC}", "calls to Multiset.of/from_iterable/add/remove/remove_all/union"),
    PerLayer("sequent.multiset_ops_per_expand", "ratio", "lower", ("multiset", "expand"),
             f"ops_per_s@{PC}", "Multiset calls made inside expand, per expand call"),
    PerLayer("calculus.expand_calls", "count/op", "lower", ("expand",),
             f"ops_per_s@{PC}", "expand calls"),
    PerLayer("calculus.expand_s", "s/op", "lower", ("expand",),
             f"ops_per_s@{PC}", "time in expand"),
    PerLayer("calculus.premises_of_calls", "count/op", "lower", ("premises_of",),
             f"ops_per_s@{PC}", "premises_of calls, from expand and from check"),
    PerLayer("calculus.premises_per_expand", "ratio", "lower", ("premises_of", "expand"),
             f"ops_per_s@{PC}", "premises_of calls made inside expand, per expand call"),
    PerLayer("calculus.check_s", "s/op", "lower", ("check",),
             f"ops_per_s@{CE}", "time in check; must not rise when premises_of changes"),
    PerLayer("calculus.check_nodes_per_s", "1/s", "higher", ("check",),
             f"ops_per_s@{CE}", "derivation nodes checked per second of check time"),
    PerLayer("calculus.codec_s", "s/op", "lower", ("codec",),
             f"ops_per_s@{CE} latency_p50_ms@{CL}", "time in dumps and loads"),
    PerLayer("calculus.cert_bytes", "bytes", "lower", ("codec",),
             f"ops_per_s@{CE} latency_p50_ms@{CL}", "bytes per certificate written by dumps"),
    PerLayer("search.prove_s", "s/op", "lower", ("prove",),
             f"ops_per_s@{PC}", "time in prove"),
    PerLayer("search.self_s", "s/op", "lower", ("prove", "expand"),
             f"ops_per_s@{PC}", "time in prove outside expand"),
    PerLayer("search.explored", "count/op", "lower", ("prove", "expand"),
             f"ops_per_s@{PC}", "sequents expanded inside prove"),
    PerLayer("search.explored_per_s", "1/s", "higher", ("prove", "expand"),
             f"ops_per_s@{PC}", "sequents expanded per second of prove time"),
    PerLayer("search.useful_ratio", "ratio", "higher", ("prove", "expand"),
             f"latency_tail_ms@{PC}", "proof nodes over sequents expanded, on proved goals"),
    PerLayer("search.budget_aborts", "count/op", "lower", ("prove",),
             f"ok_share@{PC}", "prove calls that ended in BudgetExceeded"),
    PerLayer("search.proved_p50_ms", "ms", "lower", ("prove",),
             f"latency_p50_ms@{PC}", "median untraced prove time, proved goals"),
    PerLayer("search.unprovable_p50_ms", "ms", "lower", ("prove",),
             f"latency_p50_ms@{PC}", "median untraced prove time, unprovable goals"),
    PerLayer("search.aborted_p50_ms", "ms", "lower", ("prove",),
             f"latency_tail_ms@{PC}", "median untraced prove time, budget aborts"),
    PerLayer("measure.theta_calls", "count/op", "lower", ("theta",),
             f"ops_per_s@{CE}", "theta calls, mostly from the cut descent log"),
    PerLayer("measure.theta_s", "s/op", "lower", ("theta",),
             f"ops_per_s@{CE}", "time in theta"),
    PerLayer("structural.transform_s", "s/op", "lower", ("transform",),
             f"ops_per_s@{CE}", "time in weaken/unbox_left/invert/*_lir/imp_imp_lil/contract"),
    PerLayer("structural.id_general_s", "s/op", "lower", ("id_general",),
             f"ops_per_s@{CE}", "time in id_general"),
    PerLayer("cut.cut_admissible_s", "s/op", "lower", ("cut_admissible",),
             f"ops_per_s@{CE} latency_tail_ms@{CE}", "time in cut_admissible"),
    PerLayer("cut.eliminate_s", "s/op", "lower", ("eliminate",),
             f"ops_per_s@{CE} latency_tail_ms@{CE}", "time in eliminate"),
    PerLayer("cut.recursive_cuts", "count", "lower", ("cut_admissible",),
             f"ops_per_s@{CE} latency_tail_ms@{CE}", "descent log entries per cut_admissible call"),
    PerLayer("cut.output_nodes", "count", "lower", ("cut_admissible", "eliminate"),
             f"ops_per_s@{CE} latency_tail_ms@{CE}", "nodes per cut-free derivation returned"),
    PerLayer("semantics.enumerate_s", "s/op", "lower", ("enumerate",),
             f"ops_per_s@{SE}", "time inside enumerate_models"),
    PerLayer("semantics.models", "count/op", "lower", ("enumerate",),
             f"ops_per_s@{SE}", "models yielded by enumerate_models"),
    PerLayer("semantics.valid_s", "s/op", "lower", ("valid",),
             f"ops_per_s@{SE}", "time in valid"),
    PerLayer("semantics.pairs_per_s", "1/s", "higher", ("valid",),
             f"ops_per_s@{SE}", "(model, sequent) pairs per second of valid time"),
    PerLayer("semantics.countermodel_s", "s/op", "lower", ("countermodel",),
             f"latency_tail_ms@{SE}", "time in find_countermodel"),
    PerLayer("semantics.countermodel_found_share", "ratio", "higher", ("countermodel",),
             f"latency_tail_ms@{SE}", "find_countermodel calls that returned a model"),
    PerLayer("hilbert.check_s", "s/op", "lower", ("hilbert_check",),
             f"ops_per_s@{CE}", "time in check_hilbert"),
    PerLayer("hilbert.bridge_s", "s/op", "lower", ("bridge",),
             f"ops_per_s@{CE}", "time in bridge_check"),
    PerLayer("cli.main_s", "s", "lower", (),
             f"latency_p50_ms@{CL}", "median untraced in-process cli.main(argv) time per command"),
    PerLayer("cli.startup_s", "s", "lower", (),
             f"latency_p50_ms@{CL}", "median islt process time minus cli.main_s"),
    PerLayer("trace.overhead_s", "s/op", "lower", (),
             "none", "traced minus untraced timed work, per operation"),
    PerLayer("trace.overhead_share", "ratio", "lower", (),
             "none", "traced over untraced timed work, minus one"),
)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    if not sorted_values:
        return 0.0
    k = max(0, math.ceil(q / 100 * len(sorted_values)) - 1)
    return sorted_values[k]


def block_rate(latencies: list[float], blocks: int = 100, least: int = 5) -> float:
    """Median over consecutive blocks of equal operation count (about
    ``blocks`` of them, each of at least ``least`` operations) of
    operations per second of timed work. A rare operation that takes a
    large share of the run slows one block, not the median."""
    size = max(least, len(latencies) // blocks)
    rates = []
    for start in range(0, len(latencies) - size + 1, size):
        spent = sum(latencies[start:start + size])
        if spent > 0:
            rates.append(size / spent)
    return median(rates) if rates else 0.0


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile of n."""
    return n - math.ceil(q / 100 * n)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tr: Tracer, ops: int, overhead_s: float, overhead_share: float,
              verdict_ms: dict[str, list[float]], cli_times: Optional[tuple[float, float]]) -> dict:
    """Values of every PER_LAYER metric; None for one whose wrapped names
    are all gone from the program."""
    st, ex = tr.stats, tr.extra

    def t(key):
        return _div(st[key].time, ops)

    def c(key):
        return _div(st[key].calls, ops)

    def p50(kind):
        return percentile(sorted(verdict_ms.get(kind, [])), 50)

    prove_expands = ex["prove_expands"]
    values = {
        "formula.sort_key_calls": c("sort_key"),
        "formula.parse_s": t("parse"),
        "formula.print_s": t("print"),
        "sequent.multiset_ops": c("multiset"),
        "sequent.multiset_ops_per_expand": _div(ex["expand_multiset"], st["expand"].calls),
        "calculus.expand_calls": c("expand"),
        "calculus.expand_s": t("expand"),
        "calculus.premises_of_calls": c("premises_of"),
        "calculus.premises_per_expand": _div(ex["expand_premises"], st["expand"].calls),
        "calculus.check_s": t("check"),
        "calculus.check_nodes_per_s": _div(ex["check_nodes"], st["check"].time),
        "calculus.codec_s": t("codec"),
        "calculus.cert_bytes": _div(ex["cert_bytes"], ex["dumps_calls"]),
        "search.prove_s": t("prove"),
        "search.self_s": _div(st["prove"].time - ex["prove_expand_time"], ops),
        "search.explored": _div(prove_expands, ops),
        "search.explored_per_s": _div(prove_expands, st["prove"].time),
        "search.useful_ratio": _div(ex["proved_nodes"], ex["proved_expands"]),
        "search.budget_aborts": _div(ex["budget_aborts"], ops),
        "search.proved_p50_ms": p50("Proved"),
        "search.unprovable_p50_ms": p50("Unprovable"),
        "search.aborted_p50_ms": p50("BudgetExceeded"),
        "measure.theta_calls": c("theta"),
        "measure.theta_s": t("theta"),
        "structural.transform_s": t("transform"),
        "structural.id_general_s": t("id_general"),
        "cut.cut_admissible_s": t("cut_admissible"),
        "cut.eliminate_s": t("eliminate"),
        "cut.recursive_cuts": _div(ex["cut_log"], st["cut_admissible"].calls),
        "cut.output_nodes": _div(ex["cut_output_nodes"], ex["cut_outputs"]),
        "semantics.enumerate_s": t("enumerate"),
        "semantics.models": _div(ex["models"], ops),
        "semantics.valid_s": t("valid"),
        "semantics.pairs_per_s": _div(st["valid"].calls, st["valid"].time),
        "semantics.countermodel_s": t("countermodel"),
        "semantics.countermodel_found_share": _div(ex["countermodels_found"], st["countermodel"].calls),
        "hilbert.check_s": t("hilbert_check"),
        "hilbert.bridge_s": t("bridge"),
        "cli.main_s": cli_times[0] if cli_times else 0.0,
        "cli.startup_s": cli_times[1] if cli_times else 0.0,
        "trace.overhead_s": _div(overhead_s, ops),
        "trace.overhead_share": overhead_share,
    }
    gone = {key for key, names in tr.installed.items() if not names}
    return {
        m.name: {"value": None if gone.intersection(m.keys) else values[m.name], "unit": m.unit}
        for m in PER_LAYER
    }
