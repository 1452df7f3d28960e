"""Span tracing installed from outside the library, and the per-layer metrics
read from it.

Wrappers replace library callables at every name a caller looks them up by
(a module global imported into several modules is replaced in each, a method
on its class), so nothing inside ``src/`` changes.  Each wrapped call is a
span with a name, start, end, parent span and op id; a span's self time is
its duration minus the time its child spans cover.  Spans are timed by the
wall clock (``perf_counter``, far cheaper per call than a CPU-time clock),
kept in memory and written out as JSON lines when the run ends.

Calls made hundreds of thousands of times per batch (series multiply/add,
permutation compose) are not stored one by one: their calls, self time and
counts are aggregated online with the same parent/child rule, and
``compose`` is only counted.
"""

import json
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from hurwitz_tau import (
    center,
    characters,
    cli,
    groupalg,
    oracles,
    series,
    symfunc,
    tauseries,
    twists,
    verify,
)

MODULES = (center, characters, cli, groupalg, oracles, series, symfunc, tauseries, twists, verify)

SPAN, HOT, COUNT = "span", "hot", "count"


def _series_pairs(tracer, args):
    a, b = args[0], args[1]
    pairs = len(a.terms) * (len(b.terms) if isinstance(b, series.TruncSeries) else 1)
    return "series.mul_term_pairs", pairs


def _connection_n(tracer, args):
    return ("twists.connection_coeffs.n", args[1]), 1


def _check_op(tracer, args):
    tracer.op_id = args[0]  # a verify check is one op, named by the check
    return None


# (owner, attribute, span name, mode, hook).  The hook, when given, sees the
# tracer and the call's positional arguments before the call and may return
# a (key, amount) to add to ``counts``.  Spans that feed no metric mark layer
# boundaries, so their time is not taken for their caller's self time.
TARGETS = (
    (characters, "character_table", "characters.character_table", SPAN, None),
    (series.TruncSeries, "__mul__", "series.mul", HOT, _series_pairs),
    (series.TruncSeries, "__rmul__", "series.mul", HOT, _series_pairs),
    (series.TruncSeries, "__add__", "series.add", HOT, None),
    (series.TruncSeries, "__radd__", "series.add", HOT, None),
    (series.TruncSeries, "inverse", "series.inverse", SPAN, None),
    (symfunc, "evaluate", "symfunc.evaluate", SPAN, None),
    (symfunc.TensorSymFunc, "mul", "symfunc.tensor_mul", SPAN, None),
    (twists, "connection_coeffs", "twists.connection_coeffs", SPAN, _connection_n),
    (twists, "twist_eigenvalue", "twists.eigenvalue", SPAN, None),
    (twists, "okounkov_coeff", "twists.eigenvalue", SPAN, None),
    (twists, "multimonotone_coeff", "twists.eigenvalue", SPAN, None),
    (twists, "alpha_q_coeff", "twists.eigenvalue", SPAN, None),
    (twists.ExpConvolution, "schur_expansion_r_lambda", "twists.eigenvalue", SPAN, None),
    (twists, "apply_twist", "twists.apply_twist", SPAN, None),
    (tauseries.TauSeries, "__init__", "tauseries.tau_build", SPAN, None),
    (tauseries, "hurwitz_table", "tauseries.table", SPAN, None),
    (tauseries, "log_tau", "tauseries.log_tau", SPAN, None),
    (tauseries, "exp_tensor", "tauseries.exp_tensor", SPAN, None),
    (tauseries, "bareiss_determinant", "tauseries.bareiss", SPAN, None),
    (tauseries, "tau_eval", "tauseries.tau_eval", SPAN, None),
    (tauseries, "tau_eval_schur_side", "tauseries.tau_eval_schur_side", SPAN, None),
    (tauseries, "hciz_determinant", "tauseries.hciz_determinant", SPAN, None),
    (tauseries, "alpha_q_determinant", "tauseries.alpha_q_determinant", SPAN, None),
    (groupalg, "conjugacy_classes", "groupalg.conjugacy_classes", SPAN, None),
    (groupalg, "compose", "groupalg.compose", COUNT, None),
    (groupalg, "count_walks", "groupalg.count_walks", SPAN, None),
    (groupalg, "count_walks_all_targets", "groupalg.count_walks_all_targets", SPAN, None),
    (groupalg, "_count_dp", "groupalg.walks_dp", SPAN, None),
    (groupalg, "_count_transitive", "groupalg.walks_transitive", SPAN, None),
    (groupalg, "plain_count_via_class_dp", "groupalg.class_dp", SPAN, None),
    (groupalg.GroupAlgebraElement, "__mul__", "groupalg.algebra_mul", HOT, None),
    (center, "class_to_idem", "center.basis_change", SPAN, None),
    (center, "idem_to_class", "center.basis_change", SPAN, None),
    (center, "center_multiply", "center.multiply", SPAN, None),
    (center, "class_structure_constants", "center.structure_constants", SPAN, None),
    *(
        (oracles, name, "oracles", SPAN, None)
        for name in (
            "partition_count_pentagonal",
            "fraction_determinant",
            "hook_product_via_determinant",
            "schur_via_alternant",
            "character_via_alternant",
            "ssyt_count",
            "random_rationals",
            "pieri_products",
        )
    ),
    (verify, "_run", "verify.check", SPAN, _check_op),
    (cli, "main", "cli.main", SPAN, None),
)

CACHES = {
    "character_table": characters.character_table,
    "conjugacy_classes": groupalg.conjugacy_classes,
    "transpositions": groupalg.transpositions,
}


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Tracer:
    """Records spans while installed; ``op_id`` tags spans with the op that
    caused them."""

    spans: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    op_id: object = None
    _stack: list = field(default_factory=list)
    _next_id: int = 0
    _saved: list = field(default_factory=list)

    def _wrap(self, fn, name, mode, hook):
        counts = self.counts
        if mode == COUNT:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        stat = self.stats.setdefault(name, Stat())
        stack, spans = self._stack, self.spans
        record = mode == SPAN

        def traced(*args, **kwargs):
            if hook is not None:
                extra = hook(self, args)
                if extra is not None:
                    counts[extra[0]] += extra[1]
            parent = stack[-1] if stack else None
            span_id = None
            if record:
                span_id = self._next_id
                self._next_id += 1
            # a stored span's parent is the nearest stored ancestor
            frame = [0.0, span_id if record else (parent[1] if parent else None)]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if record:
                    spans.append(
                        (span_id, name, start, end, parent[1] if parent else None, self.op_id)
                    )

        return traced

    def install(self):
        """Replace every target at every name it is looked up by."""
        wrappers = {}
        for owner, attr, name, mode, hook in TARGETS:
            original = owner.__dict__[attr]
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = self._wrap(original, name, mode, hook)
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op_id in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )

    def stat(self, name) -> Stat:
        return self.stats.get(name, Stat())


def cache_metrics() -> dict:
    """cache_info() of the library's lru caches and the size of the
    Murnaghan-Nakayama memo, read without touching them."""
    out = {}
    for label, cached in CACHES.items():
        info = cached.cache_info()
        out[f"cache.{label}.hits"] = (info.hits, "count")
        out[f"cache.{label}.misses"] = (info.misses, "count")
        out[f"cache.{label}.size"] = (info.currsize, "count")
    out["characters.mn_memo_size"] = (len(characters._mn_cache), "count")
    return out


def _nonzero_share(n_calls: dict) -> float:
    """Share of (lam, mu, nu) character-sum terms with a nonzero weight
    chi_nu(lam) chi_nu(mu), over the connection_coeffs calls made."""
    nonzero = total = 0
    for n, calls in n_calls.items():
        table = characters.character_table(n)
        size = len(table.parts)
        hits = sum(
            1
            for a in range(size)
            for b in range(size)
            for row in table.chi
            if row[a] * row[b]
        )
        nonzero += calls * hits
        total += calls * size**3
    return nonzero / total if total else 0.0


def layer_metrics(tracer: Tracer, checks, overhead: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}; ``checks`` are the
    (check name, CPU seconds) pairs of a traced verify pass (empty for other
    workloads)."""
    st = tracer.stat
    cc_calls = {
        key[1]: calls
        for key, calls in tracer.counts.items()
        if isinstance(key, tuple) and key[0] == "twists.connection_coeffs.n"
    }
    cache = cache_metrics()  # read before _nonzero_share looks up tables
    table_info = characters.character_table.cache_info()
    lookups = table_info.hits + table_info.misses
    suite_seconds = Counter()
    for name, seconds in checks:
        suite_seconds[name.split(".")[0]] += seconds
    m = {
        "characters.table_build_s": (st("characters.character_table").total, "s"),
        "characters.table_cache_hit_frac": (
            table_info.hits / lookups if lookups else 0.0, "fraction"),
        "series.mul_calls": (st("series.mul").calls, "count"),
        "series.mul_term_pairs": (tracer.counts["series.mul_term_pairs"], "count"),
        "series.mul_self_s": (st("series.mul").self_time, "s"),
        "series.add_calls": (st("series.add").calls, "count"),
        "series.add_self_s": (st("series.add").self_time, "s"),
        "series.inverse_calls": (st("series.inverse").calls, "count"),
        "series.inverse_self_s": (st("series.inverse").self_time, "s"),
        "twists.connection_coeffs_self_s": (st("twists.connection_coeffs").self_time, "s"),
        "twists.eigenvalue_s": (st("twists.eigenvalue").total, "s"),
        "twists.char_sum_nonzero_frac": (_nonzero_share(cc_calls), "fraction"),
        "tauseries.tau_build_self_s": (st("tauseries.tau_build").self_time, "s"),
        "tauseries.table_self_s": (st("tauseries.table").self_time, "s"),
        "tauseries.log_tau_self_s": (st("tauseries.log_tau").self_time, "s"),
        "tauseries.bareiss_self_s": (st("tauseries.bareiss").self_time, "s"),
        "tauseries.tau_eval_self_s": (st("tauseries.tau_eval").self_time, "s"),
        "symfunc.evaluate_s": (st("symfunc.evaluate").total, "s"),
        "symfunc.tensor_mul_calls": (st("symfunc.tensor_mul").calls, "count"),
        "symfunc.tensor_mul_self_s": (st("symfunc.tensor_mul").self_time, "s"),
        "groupalg.classes_build_s": (st("groupalg.conjugacy_classes").total, "s"),
        "groupalg.walks_dp_s": (st("groupalg.walks_dp").total, "s"),
        "groupalg.walks_transitive_s": (st("groupalg.walks_transitive").total, "s"),
        "groupalg.compose_calls": (tracer.counts["groupalg.compose"], "count"),
        "groupalg.algebra_mul_s": (st("groupalg.algebra_mul").total, "s"),
        "center.basis_change_s": (st("center.basis_change").total, "s"),
        "center.structure_constants_s": (st("center.structure_constants").total, "s"),
        "oracles.self_s": (st("oracles").self_time, "s"),
        "verify.characters_s": (suite_seconds["characters"], "s"),
        "verify.center_s": (suite_seconds["center"], "s"),
        "verify.walks_s": (suite_seconds["walks"], "s"),
        "verify.tau_s": (suite_seconds["tau"], "s"),
        "cli.serialize_s": (st("cli.main").self_time, "s"),
        "trace_overhead_frac": (overhead, "fraction"),
    }
    m.update(cache)
    return m
