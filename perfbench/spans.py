"""Spans and counters recorded around the public functions of policylens.

:class:`Tracer` replaces each public function of the traced modules, at every
policylens module that binds its name, with a wrapper that records a span
(name, start, end, parent span, operation id) and bumps counters taken from
the call's arguments and result.  Spans are kept in flat arrays in memory and
written out by :meth:`Tracer.dump` when the run ends.  Nothing under the
package's source changes; :meth:`Tracer.uninstall` restores every binding.

Each span also records its *bookkeeping* time: the wrapper's own work before
the span starts and after it ends.  That time lies inside the parent span, so
self time subtracts it together with the child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

TRACED_MODULES = ("policy", "regex", "automata", "requestsets", "sampler", "providers", "simplifier")
TRACED_CLASSES = {"automata": ("Dfa",), "providers": ("MockProvider", "HttpProvider")}

# Hash-consing constructors and one-line predicates run in the inner loops of
# extraction, parsing and cube algebra; a span there would time the tracer.
UNTRACED = {
    "regex.char_class", "regex.alt", "regex.seq", "regex.star", "regex.literal",
    "regex.optional", "regex.plus", "regex.repeat", "regex.union_children",
    "automata.Dfa.is_empty",
}

PRODUCTS = ("automata.Dfa.union", "automata.Dfa.intersect", "automata.Dfa.difference")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.bk = array("d")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self.op_id = -1
        self.counts: Counter = Counter()
        self._op_counts: Counter = Counter()
        self._op_products: set = set()
        self._op_samples: set = set()
        self._op_candidates: set = set()
        self.op_times: dict[int, float] = {}
        self.failed_ops: set[int] = set()
        self.summary_timings: dict[int, dict[str, float]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- operations -----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_counts = Counter()
        self._op_products = set()
        self._op_samples = set()
        self._op_candidates = set()

    def end_op(self, seconds: float, ok: bool) -> None:
        """Close the operation.  A failed one is dropped from the metrics; a
        deadline may have cut a wrapper short, so the columns are re-aligned."""
        if ok:
            self.op_times[self.op_id] = seconds
            self.counts.update(self._op_counts)
            self.counts["automata.product_distinct"] += len(self._op_products)
            self.counts["sampler.distinct"] += len(self._op_samples)
            self.counts["simplifier.candidates_distinct"] += len(self._op_candidates)
        else:
            self.failed_ops.add(self.op_id)
            columns = (self.name, self.start, self.end, self.parent, self.op, self.bk, self.nested)
            n = min(len(c) for c in columns)
            for c in columns:
                del c[n:]
            self._stack.clear()
            self._active.clear()
        self.op_id = -1

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = clock()
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.op.append(tr.op_id)
            tr.nested.append(1 if tr._active[nid] else 0)
            tr.bk.append(0.0)
            tr.end.append(0.0)
            tr._active[nid] += 1
            tr._stack.append(idx)
            tr.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t_end = clock()
                tr.end[idx] = t_end
                tr._stack.pop()
                tr._active[nid] -= 1
            if observe is not None:
                observe(tr, idx, args, result)
            tr.bk[idx] = (clock() - t_end) + (tr.start[idx] - t_enter)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function and method at each module binding it."""
        modules = [m for n, m in sys.modules.items() if n == "policylens" or n.startswith("policylens.")]
        for short in TRACED_MODULES:
            mod = sys.modules[f"policylens.{short}"]
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if attr.startswith("_") or name in UNTRACED or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(name, fn)
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, bound, wrapper)
            for cls_name in TRACED_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, fn in list(vars(cls).items()):
                    name = f"{short}.{cls_name}.{attr}"
                    if attr.startswith("_") or name in UNTRACED or not inspect.isfunction(fn):
                        continue
                    self._patch(cls, attr, self._wrap(name, fn))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as columns of one JSON object."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent", "op", "bookkeeping"],
                    "name": self.name.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "op": self.op.tolist(),
                    "bookkeeping": self.bk.tolist(),
                    "op_seconds": self.op_times,
                },
                f,
            )

    def metrics(self) -> dict[str, float]:
        """Per-module metrics over the traced operations (see README.md)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n  # child spans' time plus their bookkeeping
        top_level: defaultdict[int, float] = defaultdict(float)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i] + self.bk[i]
            elif self.op[i] >= 0:
                top_level[self.op[i]] += dur[i] + self.bk[i]
        inclusive: defaultdict[str, float] = defaultdict(float)
        self_time: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i in range(n):
            if self.op[i] < 0 or self.op[i] in self.failed_ops:
                continue
            name = self.names[self.name[i]]
            calls[name] += 1
            self_time[name] += dur[i] - covered[i]
            if not self.nested[i]:
                inclusive[name] += dur[i]

        def incl(*names: str) -> float:
            return sum(inclusive[x] for x in names)

        c = self.counts
        products = sum(calls[x] for x in PRODUCTS)
        draws = calls["sampler.sample"]
        candidates = c["simplifier.candidates"]
        out = {
            "cli.self_s": sum(t - top_level[op] for op, t in self.op_times.items()),
            "policy.parse_policy_s": incl("policy.parse_policy"),
            "regex.parse_regex_s": incl("regex.parse_regex"),
            "regex.parse_regex_calls": calls["regex.parse_regex"],
            "regex.print_regex_s": incl("regex.print_regex"),
            "regex.printed_chars": c["regex.printed_chars"],
            "automata.from_regex_s": incl("automata.from_regex"),
            "automata.from_regex_calls": calls["automata.from_regex"],
            "automata.from_regex_states": c["automata.from_regex_states"],
            "automata.product_s": sum(self_time[x] for x in PRODUCTS),
            "automata.product_calls": products,
            "automata.product_distinct": c["automata.product_distinct"],
            "automata.product_distinct_ratio": c["automata.product_distinct"] / products if products else 0.0,
            "automata.product_states": c["automata.product_states"],
            "automata.complement_s": incl("automata.Dfa.complement"),
            "automata.complement_calls": calls["automata.Dfa.complement"],
            "automata.count_models_s": incl("automata.Dfa.count_models"),
            "automata.count_models_calls": calls["automata.Dfa.count_models"],
            "automata.extract_regex_s": incl("automata.Dfa.extract_regex"),
            "automata.extract_regex_calls": calls["automata.Dfa.extract_regex"],
            "automata.extract_regex_states": c["automata.extract_regex_states"],
            "requestsets.compile_policy_s": incl("requestsets.compile_policy"),
            "requestsets.compile_policy_calls": calls["requestsets.compile_policy"],
            "requestsets.set_difference_s": incl("requestsets.set_difference"),
            "requestsets.cubes_out": c["requestsets.cubes_out"],
            "requestsets.project_s": incl("requestsets.project"),
            "requestsets.sample_from_set_s": incl("requestsets.sample_from_set"),
            "requestsets.contains_calls": calls["requestsets.contains"],
            "sampler.sample_n_s": incl("sampler.sample_n"),
            "sampler.draws": draws,
            "sampler.distinct_ratio": c["sampler.distinct"] / draws if draws else 0.0,
            "sampler.sample_s": incl("sampler.sample"),
            "providers.complete_s": incl("providers.MockProvider.complete", "providers.HttpProvider.complete"),
            "providers.complete_calls": calls["providers.MockProvider.complete"] + calls["providers.HttpProvider.complete"],
            "providers.prompt_bytes": c["providers.prompt_bytes"],
            "simplifier.self_s": sum(v for k, v in self_time.items() if k.startswith("simplifier.")),
            "simplifier.candidates": candidates,
            "simplifier.candidates_distinct_ratio": c["simplifier.candidates_distinct"] / candidates if candidates else 0.0,
        }
        return out

    def stage_gaps(self) -> dict[str, float]:
        """Summarize stage timings from the reports minus the spans they cover,
        summed over operations: project, extract, sample and similarity."""
        n = len(self.start)
        gaps = {"project": 0.0, "extract": 0.0, "sample": 0.0, "similarity": 0.0}
        by_parent: defaultdict[int, list[int]] = defaultdict(list)
        pipeline = {i for i in range(n) if self.names[self.name[i]] == "simplifier.summarize_set"}
        for i in range(n):
            if self.parent[i] in pipeline:
                by_parent[self.parent[i]].append(i)
        for p in pipeline:
            timings = self.summary_timings.get(p)
            if timings is None or "project" not in timings:
                continue  # an empty policy skips the stages
            spans: defaultdict[str, float] = defaultdict(float)
            llm_end = max(
                (self.end[i] for i in by_parent[p] if self.names[self.name[i]] == "simplifier.generate_regex_from_llm"),
                default=float("inf"),
            )
            for i in by_parent[p]:
                name = self.names[self.name[i]]
                cost = self.end[i] - self.start[i] + self.bk[i]
                if name == "requestsets.project":
                    spans["project"] += cost
                elif name in ("automata.Dfa.extract_regex", "regex.print_regex"):
                    spans["extract"] += cost
                elif name == "sampler.sample_n":
                    spans["sample"] += cost
                elif self.start[i] > llm_end:
                    spans["similarity"] += cost
            for stage in gaps:
                gaps[stage] += timings[stage] - spans[stage]
        return gaps


# -- counters taken from arguments and results ----------------------------------


def _dfa_key(d) -> int:
    return hash((d.transitions, d.accepting))


def _product_observer(op: str):
    def observe(tr: Tracer, idx: int, args, result) -> None:
        tr._op_counts["automata.product_states"] += result.state_count
        tr._op_products.add((_dfa_key(args[0]), _dfa_key(args[1]), op))

    return observe


def _from_regex(tr: Tracer, idx: int, args, result) -> None:
    tr._op_counts["automata.from_regex_states"] += result.state_count


def _extract_regex(tr: Tracer, idx: int, args, result) -> None:
    tr._op_counts["automata.extract_regex_states"] += args[0].state_count


def _print_regex(tr: Tracer, idx: int, args, result) -> None:
    tr._op_counts["regex.printed_chars"] += len(result)


def _cubes(tr: Tracer, idx: int, args, result) -> None:
    tr._op_counts["requestsets.cubes_out"] += len(result.cubes)


def _sample(tr: Tracer, idx: int, args, result) -> None:
    tr._op_samples.add(result)


def _complete(tr: Tracer, idx: int, args, result) -> None:
    tr._op_counts["providers.prompt_bytes"] += len(args[1].encode("utf-8"))


def _candidate(tr: Tracer, idx: int, args, result) -> None:
    tr._op_counts["simplifier.candidates"] += 1
    tr._op_candidates.add(result.regex_text)


def _summarize_set(tr: Tracer, idx: int, args, result) -> None:
    tr.summary_timings[idx] = dict(result.timings)


_OBSERVERS = {
    "automata.Dfa.union": _product_observer("union"),
    "automata.Dfa.intersect": _product_observer("intersect"),
    "automata.Dfa.difference": _product_observer("difference"),
    "automata.from_regex": _from_regex,
    "automata.Dfa.extract_regex": _extract_regex,
    "regex.print_regex": _print_regex,
    "requestsets.set_difference": _cubes,
    "requestsets.set_union": _cubes,
    "requestsets.set_intersect": _cubes,
    "sampler.sample": _sample,
    "providers.MockProvider.complete": _complete,
    "providers.HttpProvider.complete": _complete,
    "simplifier.generate_regex_from_llm": _candidate,
    "simplifier.summarize_set": _summarize_set,
}
