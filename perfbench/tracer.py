"""Outside-in span tracer for the twistforms layers.

The tracer replaces every binding of a layer's public function or method
with a timing wrapper, in every ``twistforms`` module that holds it (the
modules import each other's names, so patching one binding is not enough).
The program's files are not touched.  Spans are kept in memory as
``[name, start_ns, end_ns, parent, job]`` and written out once, at the end
of a run.  A span's self time is its duration minus the time its direct
child spans cover; every job's root span is ``cli.main``.

``fiber_eval_ambient`` is deliberately not wrapped: it runs about 200k times
per pass, so its cost is derived from the shapes ``eval_matrix`` returns.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter_ns

from harness import program_modules

# Span name -> (module, attribute path, ...): each binding traced as one span.
SPANS = {
    "cli.main": ("cli", "main"),
    "exactalg.matmul": ("exactalg", "ExactMatrix.__matmul__"),
    "exactalg.rank": ("exactalg", "ExactMatrix.rank"),
    "exactalg.kernel": ("exactalg", "ExactMatrix.kernel_basis"),
    "exactalg.solve": ("exactalg", "ExactMatrix.solve"),
    "exactalg.construct": ("exactalg", "ExactMatrix.__init__"),
    "exactalg.snake_check": ("exactalg", "snake_check"),
    "display.build": ("display", "build_display"),
    "display.ledger": ("display", "ledger_for"),
    "forms.sections": ("forms", "h0_basis", "restricted_sections", "free_sections"),
    "forms.maps": ("forms", "_ambient_map"),
    "maxrank.eval": ("maxrank", "eval_matrix"),
    "maxrank.sample": ("maxrank", "random_points"),
    "maxrank.certify": ("maxrank", "maxrank_test"),
    "maxrank.replay": ("maxrank", "verify_certificate"),
    "horace.plan": ("horace", "plan"),
    "horace.audit": ("horace", "verify_tree"),
}

# Elimination routines, counted (entries eliminated) but not timed as spans.
ELIMINATIONS = ("ExactMatrix._rref_mod", "ExactMatrix._rref_rational", "ExactMatrix._rank_bareiss")

# The lru_cached section functions whose hit ratio is reported.
SECTION_CACHES = ("h0_basis", "restricted_sections", "free_sections")


def _count_matmul(counts, args, result):
    a, b = args[0], args[1]
    counts["exactalg.matmul.mults"] += a.rows * a.cols * b.cols


def _count_construct(counts, args, result):
    counts["exactalg.construct.entries"] += args[0].rows * args[0].cols


def _count_eval(counts, args, result):
    counts["maxrank.eval.entries"] += result.rows * result.cols
    # eval_matrix(n, p, d, pts): one fiber_eval_ambient call per point and section.
    counts["maxrank.eval.fiber_calls"] += len(args[3].points) * result.cols


def _count_certify(counts, args, result):
    counts["maxrank.certify.trials"] += result.trials


def _count_audit(counts, args, result):
    counts["horace.nodes"] += sum(1 for _ in result.tree.walk())


COUNTERS = {
    "exactalg.matmul": _count_matmul,
    "exactalg.construct": _count_construct,
    "maxrank.eval": _count_eval,
    "maxrank.certify": _count_certify,
    "horace.audit": _count_audit,
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric; every "count" must repeat exactly between runs."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_frac", "_ratio")):
        return "ratio"
    if metric == "maxrank.trials_per_cert":
        return "trials/cert"
    return "count"


def _resolve(module, path):
    """(owner, attribute name, current value) for 'name' or 'Class.name'."""
    owner = module
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Spans and counters for one process; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self.probes = []  # (start_ns, end_ns) of SpeedProbe samples
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._patches = []  # (owner, attribute, original value)
        self._section_caches = []
        self._cache_hits = 0
        self._cache_calls = 0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def _wrap_elimination(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(self_, *args, **kwargs):
            counts["exactalg.elim.entries"] += self_.rows * self_.cols
            return fn(self_, *args, **kwargs)

        return counted

    def _patch_everywhere(self, module, path, make):
        owner, attr, original = _resolve(module, path)
        wrapper = make(original)
        if owner is module:
            # Rebind the function wherever a package module imported it.
            for mod in program_modules():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        else:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return original

    def install(self):
        mods = {m.__name__.rpartition(".")[2]: m for m in program_modules()}
        for name, (modname, *paths) in SPANS.items():
            for path in paths:
                original = self._patch_everywhere(
                    mods[modname],
                    path,
                    lambda fn, name=name: self._wrap(name, fn, COUNTERS.get(name)),
                )
                if path in SECTION_CACHES:
                    self._section_caches.append(original)
        for path in ELIMINATIONS:
            self._patch_everywhere(mods["exactalg"], path, self._wrap_elimination)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def end_job(self):
        """Fold the section caches' statistics in before the next job clears them."""
        for cache in self._section_caches:
            info = cache.cache_info()
            self._cache_hits += info.hits
            self._cache_calls += info.hits + info.misses

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Seconds of self time and number of spans, per span name.

        A probe counts as a child of the innermost span around it."""
        child = [0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for p0, p1 in self.probes:
            around = [i for i, s in enumerate(self.spans) if s[1] <= p0 and p1 <= s[2]]
            if around:
                child[max(around, key=lambda i: self.spans[i][1])] += p1 - p0
        self_ns, calls = Counter(), Counter()
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            self_ns[name] += end - start - child[i]
            calls[name] += 1
        return {name: self_ns[name] / 1e9 for name in SPANS}, {name: calls[name] for name in SPANS}

    def metrics(self, traced_wall_s):
        """The per-layer metrics of one traced pass (times in s, counts exact)."""
        self_s, calls = self.self_times()
        out = {"cli.self_s": self_s["cli.main"]}
        for name in SPANS:
            if name != "cli.main":
                out[name + ".calls"] = calls[name]
                out[name + ".self_s"] = self_s[name]
        for key in (
            "exactalg.matmul.mults",
            "exactalg.elim.entries",
            "exactalg.construct.entries",
            "maxrank.eval.entries",
            "maxrank.eval.fiber_calls",
            "horace.nodes",
        ):
            out[key] = self.counts[key]
        out["forms.sections.hit_ratio"] = (
            self._cache_hits / self._cache_calls if self._cache_calls else 0.0
        )
        certs = calls["maxrank.certify"]
        out["maxrank.trials_per_cert"] = (
            self.counts["maxrank.certify.trials"] / certs if certs else 0.0
        )
        named = sum(v for k, v in self_s.items() if k != "cli.main")
        out["trace.coverage_frac"] = named / traced_wall_s
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, start_ns, end_ns, parent, job."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
