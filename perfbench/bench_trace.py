"""Outside-in tracing of the library's public functions.

``Tracer.install`` replaces each traced function in every library module
namespace that binds it (modules bind imported names, so
``centering.predict``, ``compound.predict`` and ``cli.predict`` are each
wrapped on their own) and ``Tracer.uninstall`` puts the originals back.
The closures returned by ``composite_belief_builder`` and the two product
filters are wrapped too.

A span is (name, parent, op id, start, end), kept in arrays and written out
at the end.  A span's self time is its duration minus the time covered by
its child spans.  The op id is the index of the timed op, or one of the
negative phase markers below; only timed ops and set-up are summarized.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array

PACKAGE = "meaning_games"
MODULES = ("game", "equilibrium", "compound", "centering", "beliefs", "scenario_io", "cli")
TRACED = {
    "game": ("expected_utility", "success_probability", "validate_game"),
    "equilibrium": (
        "predict",
        "enumerate_pure_equilibria",
        "posterior_beliefs",
        "pareto_filter",
        "is_equilibrium",
    ),
    "compound": (
        "predict_compound",
        "flatten",
        "constituent_expected_utility",
        "composite_belief_builder",
        "product_sender_filter",
        "product_receiver_filter",
    ),
    "centering": (
        "resolve",
        "build_np_game",
        "build_sentence_game",
        "build_compound",
        "ingest",
        "accommodate",
        "rule1_check",
    ),
    "beliefs": ("level_k_strategies",),
    "scenario_io": ("parse_game", "parse_discourse", "render_machine", "config_hash"),
    "cli": ("main",),
}
BELIEF_BUILD = "compound.belief_build"
FILTERS = {
    "product_sender_filter": "compound.sender_filter",
    "product_receiver_filter": "compound.receiver_filter",
}

# (metric, unit, how it is computed) -- per timed op unless the unit says
# otherwise.  "self"/"calls" read the span of a defining function, "route"
# counts calls through one module's binding, "count" reads a counter.
PER_LAYER = (
    ("equilibrium.enumerate_pure_equilibria.self_ms", "ms/op", "self"),
    ("equilibrium.enumerate_pure_equilibria.calls", "1/op", "calls"),
    ("equilibrium.posterior_beliefs.self_ms", "ms/op", "self"),
    ("equilibrium.posterior_beliefs.calls", "1/op", "calls"),
    ("equilibrium.pareto_filter.self_ms", "ms/op", "self"),
    ("equilibrium.receiver_maps", "1/op", "count"),
    ("equilibrium.equilibria", "1/op", "count"),
    ("equilibrium.equilibria_per_belief_build", "ratio", "ratio"),
    ("game.expected_utility.self_ms", "ms/op", "self"),
    ("game.expected_utility.calls", "1/op", "calls"),
    ("game.success_probability.self_ms", "ms/op", "self"),
    ("game.validate_game.self_ms", "ms/op", "self"),
    ("game.validate_game.setup_ms", "ms", "setup"),
    ("compound.flatten.self_ms", "ms/op", "self"),
    ("compound.predict_compound.self_ms", "ms/op", "self"),
    ("compound.belief_build.self_ms", "ms/op", "self"),
    ("compound.belief_build.calls", "1/op", "calls"),
    ("compound.receiver_filter.calls", "1/op", "count"),
    ("compound.receiver_filter.admitted_ratio", "ratio", "ratio"),
    ("compound.sender_filter.calls", "1/op", "count"),
    ("compound.sender_filter.admitted_ratio", "ratio", "ratio"),
    ("compound.constituent_expected_utility.self_ms", "ms/op", "self"),
    ("centering.resolve.self_ms", "ms/op", "self"),
    ("centering.build_np_game.self_ms", "ms/op", "self"),
    ("centering.build_np_game.calls", "1/op", "calls"),
    ("centering.build_sentence_game.self_ms", "ms/op", "self"),
    ("centering.predict.calls", "1/op", "route"),
    ("centering.predict_compound.calls", "1/op", "route"),
    ("centering.ingest.self_ms", "ms/op", "self"),
    ("centering.accommodate.self_ms", "ms/op", "self"),
    ("centering.rule1_check.self_ms", "ms/op", "self"),
    ("beliefs.level_k_strategies.self_ms", "ms/op", "self"),
    ("beliefs.level_k_strategies.calls", "1/op", "calls"),
    ("scenario_io.parse_game.self_ms", "ms/op", "self"),
    ("scenario_io.parse_game.setup_ms", "ms", "setup"),
    ("scenario_io.parse_discourse.self_ms", "ms/op", "self"),
    ("scenario_io.parse_discourse.setup_ms", "ms", "setup"),
    ("scenario_io.render_machine.self_ms", "ms/op", "self"),
    ("scenario_io.config_hash.self_ms", "ms/op", "self"),
    ("cli.main.self_ms", "ms/op", "self"),
)
OVERHEAD = ("trace.overhead_ratio", "ratio")


def _receiver_maps(game) -> int:
    count = 1
    for m in game.message_ids():
        count *= max(1, len(game.contents_for(m)))
    return count


class Tracer:
    SETUP, WARMUP, CHECK = -1, -2, -3

    def __init__(self):
        self.op = self.CHECK
        self.names: list[tuple[str, str]] = []  # span id -> (binding, defining)
        self._ids: dict[tuple[str, str], int] = {}
        self.span_name = array("H")
        self.parent = array("i")
        self.span_op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span_id(self, binding: str, defining: str) -> int:
        key = (binding, defining)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def _count(self, key: str, amount: int = 1) -> None:
        if self.op >= 0:
            self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, binding: str, defining: str):
        sid = self._span_id(binding, defining)
        span_name, parent, span_op = self.span_name, self.parent, self.span_op
        start, end, stack, now = self.start, self.end, self.stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(sid)
            parent.append(stack[-1] if stack else -1)
            span_op.append(tracer.op)
            end.append(0)
            stack.append(idx)
            start.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = now()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _special(self, fn, binding: str, defining: str):
        name = defining.rsplit(".", 1)[1]
        traced = self.wrap(fn, binding, defining)
        if name == "enumerate_pure_equilibria":

            def enumerate_counted(game, *args, **kwargs):
                reports = traced(game, *args, **kwargs)
                self._count("equilibrium.receiver_maps", _receiver_maps(game))
                self._count("equilibrium.equilibria", len(reports))
                return reports

            return enumerate_counted
        if name == "composite_belief_builder":

            def builder(*args, **kwargs):
                return self.wrap(traced(*args, **kwargs), BELIEF_BUILD, BELIEF_BUILD)

            return builder
        if name in FILTERS:
            key = FILTERS[name]

            def make_filter(*args, **kwargs):
                admit = traced(*args, **kwargs)

                def counted(mapping):
                    ok = admit(mapping)
                    self._count(key + ".calls")
                    if ok:
                        self._count(key + ".admitted")
                    return ok

                return counted

            return make_filter
        return traced

    def full(self, budget: int) -> bool:
        return len(self.span_name) >= budget

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        namespaces = {PACKAGE: importlib.import_module(PACKAGE)}
        for m in MODULES:
            namespaces[m] = importlib.import_module(f"{PACKAGE}.{m}")
        for module, names in TRACED.items():
            for name in names:
                fn = getattr(namespaces[module], name)
                for short, ns in namespaces.items():
                    if getattr(ns, name, None) is fn:
                        wrapper = self._special(fn, f"{short}.{name}", f"{module}.{name}")
                        self._patched.append((ns, name, fn))
                        setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, fn in reversed(self._patched):
            setattr(ns, name, fn)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def summary(self, ops: int) -> dict[str, float]:
        """Per-layer metrics of the timed ops (and of set-up, in ms)."""
        n = len(self.span_name)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        setup_ns: dict[str, int] = {}
        route: dict[str, int] = {}
        for i in range(n):
            op = self.span_op[i]
            if op < 0 and op != self.SETUP:
                continue
            binding, defining = self.names[self.span_name[i]]
            own = end[i] - start[i] - child[i]
            if op == self.SETUP:
                setup_ns[defining] = setup_ns.get(defining, 0) + own
                continue
            self_ns[defining] = self_ns.get(defining, 0) + own
            calls[defining] = calls.get(defining, 0) + 1
            route[binding] = route.get(binding, 0) + 1

        ops = max(ops, 1)
        counts = self.counts
        builds = calls.get("equilibrium.posterior_beliefs", 0) + calls.get(BELIEF_BUILD, 0)
        out: dict[str, float] = {}
        for metric, _unit, how in PER_LAYER:
            layer = metric.rsplit(".", 1)[0]
            if how == "self":
                out[metric] = self_ns.get(layer, 0) / 1e6 / ops
            elif how == "calls":
                out[metric] = calls.get(layer, 0) / ops
            elif how == "route":
                out[metric] = route.get(layer, 0) / ops
            elif how == "setup":
                out[metric] = setup_ns.get(layer, 0) / 1e6
            elif how == "count":
                out[metric] = counts.get(metric, 0) / ops
            elif metric == "equilibrium.equilibria_per_belief_build":
                out[metric] = counts.get("equilibrium.equilibria", 0) / builds if builds else 0.0
            else:  # admitted share of a product filter's calls
                tried = counts.get(layer + ".calls", 0)
                out[metric] = counts.get(layer + ".admitted", 0) / tried if tried else 0.0
        out["trace.belief_builds"] = builds / ops
        out["trace.spans"] = n
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("op\tspan\tdefines\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.span_name)):
                binding, defining = self.names[self.span_name[i]]
                f.write(
                    f"{self.span_op[i]}\t{binding}\t{defining}\t{self.parent[i]}\t"
                    f"{self.start[i]}\t{self.end[i]}\n"
                )
