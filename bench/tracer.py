"""Per-layer tracing of hurwitzbias from outside the library.

`Tracer.install()` replaces selected public functions with timing wrappers
in every hurwitzbias module namespace that holds them, so calls made inside
the library are seen as well as the benchmark's own.  `Tracer.uninstall()`
puts every original object back.  The library source is never touched.

Each wrapped call is a span: name, start, end and the id of the nearest
recorded enclosing span.  Spans stay in memory and are written out by
`write_spans` at the end of a round.  The hottest leaves (`HOT`) are not
recorded one by one; their calls and times are summed per parent span.
Times are process CPU time, as in the untraced stream.  A span's self time
is its duration minus the time covered by its traced children.  Hit ratios come from `cache_info()` deltas between install and
`metrics()`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced callable: `module.attr`, or `module.owner.attr` for a method."""

    module: str
    attr: str
    name: str
    owner: str | None = None
    # name of the lru_cache object (in the same module) whose hits are counted
    cache: str | None = None
    # called as on_miss(extra, args, result) when the call missed `cache`
    on_miss: Callable | None = None
    # called as on_result(extra, args, result) after every call
    on_result: Callable | None = None


def _add(key: str, amount: Callable) -> Callable:
    def hook(extra, args, result):
        extra[key] = extra.get(key, 0) + amount(args, result)

    return hook


TARGETS = (
    Target("arith", "factorize", "arith.factorize", cache="factorize"),
    Target("arith", "kronecker", "arith.kronecker"),
    Target("hurwitz", "HurwitzTable", "hurwitz.sieve",
           on_result=_add("entries", lambda a, r: a[0] + 1)),
    Target("hurwitz", "moment_H", "hurwitz.moment_H", cache="moment_H"),
    Target("hurwitz", "lambda_moment", "hurwitz.lambda_moment", cache="lambda_moment"),
    Target("hurwitz", "moment_via_reduction", "hurwitz.moment_via_reduction"),
    Target("characters", "char_eval", "characters.char_eval"),
    Target("characters", "primitive_chars", "characters.primitive_chars",
           cache="primitive_chars", on_miss=_add("chars", lambda a, r: len(r))),
    Target("characters", "gauss_sum", "characters.gauss_sum", cache="gauss_sum"),
    Target("characters", "quad_decomp", "characters.quad_decomp"),
    Target("eisenstein", "build_expansion", "eisenstein.build_expansion",
           cache="build_expansion", on_miss=_add("terms", lambda a, r: len(r.terms))),
    Target("eisenstein", "in_S", "eisenstein.in_S",
           on_result=_add("admitted", lambda a, r: int(bool(r)))),
    Target("eisenstein", "coeff_a", "eisenstein.coeff_a"),
    Target("eisenstein", "evaluate", "eisenstein.evaluate", owner="MainTermExpansion"),
    Target("eisenstein", "sigma_twisted", "eisenstein.sigma_twisted",
           cache="_sigma_twisted_cached"),
    Target("eisenstein", "S_set", "eisenstein.S_set"),
    Target("frobenius", "trace_mass_table", "frobenius.trace_mass_table",
           cache="trace_mass_table", on_miss=_add("curves", lambda a, r: a[0] * a[0])),
    Target("frobenius", "S_direct", "frobenius.S_direct"),
    Target("frobenius", "S_via_moments", "frobenius.S_via_moments"),
    Target("bias", "A1_closed", "bias.A1_closed", cache="A1_closed"),
    Target("bias", "A2_closed", "bias.A2_closed"),
    Target("bias", "density_scan", "bias.density_scan",
           on_result=_add("pairs", lambda a, r: r.pairs)),
)

# Leaves called up to 10^5 times and more in one round: summed per parent span.
HOT = frozenset({
    "arith.factorize", "arith.kronecker", "characters.char_eval",
    "characters.quad_decomp", "eisenstein.in_S",
})


# Spans the benchmark opens itself around in-process CLI commands.
BENCH_SPANS = ("cli.scan", "cli.residual")


class NullTracer:
    """Stand-in for untraced rounds: spans and counters cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def add(self, name: str, key: str, amount) -> None:
        pass


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id)
        self.aggregated: dict[tuple, list] = {}  # (parent_id, name) -> [calls, total_ns, self_ns]
        self.stats: dict[str, list] = {}  # name -> [calls, total_ns, self_ns]
        self.extra: dict[str, dict] = {}  # name -> counters set by hooks
        self._stack: list[list] = []  # [child_ns, id of nearest recorded span]
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._cache_start: dict[str, tuple[int, int]] = {}
        self._caches: dict[str, object] = {}

    # -- spans -------------------------------------------------------------

    def _stat(self, name: str) -> list:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
            self.extra[name] = {}
        return stat

    def _close(self, name, stat, frame, parent, t0, t1, hot) -> None:
        dur = t1 - t0
        stack = self._stack
        if stack:
            stack[-1][0] += dur
        own = dur - frame[0]
        stat[0] += 1
        stat[1] += dur
        stat[2] += own
        if hot:
            agg = self.aggregated.get((parent, name))
            if agg is None:
                agg = self.aggregated[(parent, name)] = [0, 0, 0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += own
        else:
            self.spans.append((frame[1], name, t0, t1, parent))

    @contextlib.contextmanager
    def span(self, name: str):
        """A recorded span opened by the benchmark's own code."""
        stat = self._stat(name)
        stack = self._stack
        parent = stack[-1][1] if stack else 0
        frame = [0, next(self._ids)]
        stack.append(frame)
        t0 = time.process_time_ns()
        try:
            yield
        finally:
            t1 = time.process_time_ns()
            stack.pop()
            self._close(name, stat, frame, parent, t0, t1, False)

    def add(self, name: str, key: str, amount) -> None:
        self._stat(name)
        extra = self.extra[name]
        extra[key] = extra.get(key, 0) + amount

    def _wrap(self, target: Target, fn, cache):
        name = target.name
        stat = self._stat(name)
        extra = self.extra[name]
        hot = name in HOT
        stack = self._stack
        ids = self._ids
        close = self._close
        clock = time.process_time_ns
        on_miss = target.on_miss if cache is not None else None
        on_result = target.on_result

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            frame = [0, parent if hot else next(ids)]
            stack.append(frame)
            misses = cache.cache_info().misses if on_miss else 0
            t0 = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                close(name, stat, frame, parent, t0, t1, hot)
            if on_miss and cache.cache_info().misses > misses:
                on_miss(extra, args, return_value)
            if on_result:
                on_result(extra, args, return_value)
            return return_value

        functools.update_wrapper(wrapper, fn, updated=())
        wrapper.bench_traced = name
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = library_modules()
        plan = []
        for target in TARGETS:
            module = sys.modules[f"hurwitzbias.{target.module}"]
            cache = getattr(module, target.cache) if target.cache else None
            if target.owner:
                cls = getattr(module, target.owner)
                original = cls.__dict__[target.attr]
                plan.append((target, original, cache, [(cls, target.attr)]))
                continue
            original = getattr(module, target.attr)
            homes = [(mod, key) for mod in modules
                     for key, value in vars(mod).items() if value is original]
            plan.append((target, original, cache, homes))
        for target, original, cache, homes in plan:
            if cache is not None:
                self._caches[target.name] = cache
                info = cache.cache_info()
                self._cache_start[target.name] = (info.hits, info.misses)
            wrapper = self._wrap(target, original, cache)
            for owner, key in homes:
                self._patches.append((owner, key, original))
                setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results -----------------------------------------------------------

    def hit_ratio(self, name: str) -> float:
        cache = self._caches.get(name)
        if cache is None:
            return 0.0
        info = cache.cache_info()
        hits0, misses0 = self._cache_start[name]
        hits, misses = info.hits - hits0, info.misses - misses0
        return hits / (hits + misses) if hits + misses else 0.0

    def metrics(self) -> dict[str, float]:
        """Every per-layer number this tracer can give, by metric name."""
        out: dict[str, float] = {}
        for name, (calls, _total, own) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = own / 1e9
            for key, value in self.extra[name].items():
                out[f"{name}.{key}"] = value
        for target in TARGETS:
            if target.cache:
                out[f"{target.name}.hit_ratio"] = self.hit_ratio(target.name)
        for name in [t.name for t in TARGETS] + list(BENCH_SPANS):
            out.setdefault(f"{name}.calls", 0)
            out.setdefault(f"{name}.self_s", 0.0)
        # the sieve reads as builds and seconds; in_S as a share admitted
        out["hurwitz.sieve.builds"] = out["hurwitz.sieve.calls"]
        out["hurwitz.sieve.s"] = out["hurwitz.sieve.self_s"]
        out.setdefault("hurwitz.sieve.entries", 0)
        in_s = out["eisenstein.in_S.calls"]
        admitted = self.extra.get("eisenstein.in_S", {}).get("admitted", 0)
        out["eisenstein.in_S.admit_ratio"] = admitted / in_s if in_s else 0.0
        for key in ("characters.primitive_chars.chars", "eisenstein.build_expansion.terms",
                    "frobenius.trace_mass_table.curves", "bias.density_scan.pairs",
                    "cli.scan.bytes", "cli.residual.bytes"):
            out.setdefault(key, 0)
        return out

    def write_spans(self, path) -> None:
        """Write recorded spans, then per-parent aggregates, one JSON array a line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"span": ["id", "name", "start_ns", "end_ns", "parent"],
                                 "agg": ["parent", "name", "calls", "total_ns", "self_ns"]})
                     + "\n")
            for rec in self.spans:
                fh.write(json.dumps(["span", *rec]) + "\n")
            for (parent, name), (calls, total, own) in self.aggregated.items():
                fh.write(json.dumps(["agg", parent, name, calls, total, own]) + "\n")


def library_modules() -> list:
    """The loaded hurwitzbias package and its submodules."""
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "hurwitzbias" or key.startswith("hurwitzbias."))]


def leftover_wrappers() -> list[str]:
    """Names in library namespaces that still hold a tracing wrapper."""
    found = []
    for mod in library_modules():
        for key, value in vars(mod).items():
            if getattr(value, "bench_traced", None):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, "bench_traced", None):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found
