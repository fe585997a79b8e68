"""Outside-in layer tracer for qsov, installed from the benchmark's own files.

The tracer replaces public functions of the qsov modules (and the arithmetic
methods of the Laurent classes) with wrappers that keep a span stack.  Spans
are aggregated in memory as they close, per traced function: call count and
self time (the span's duration minus the time covered by its child spans).  Nothing under ``src/`` changes; the wrappers are bound in place of
every name that refers to the original function object, so aliases such as
``Laurent2.__rmul__`` and by-name imports such as ``sov.divide_exact`` are
traced too.

Spans recorded inside worker processes forked by ``suites.run_suite`` stay in
those processes and are not seen here: with ``--workers`` > 1 the parent only
sees ``suites.run_suite`` waiting on the pool.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

#: Modules whose public functions are traced, in layer order.
MODULES = ("exact", "qpoly", "macdonald", "sov", "numkernel", "ruijsenaars", "suites", "cli")

#: Leaf scalar helpers called once per coefficient; their time stays in the caller.
SKIP = {"exact": {"as_rational", "is_rational"}}

#: Traced Laurent methods and the metric name each one (with its aliases) gets.
LAURENT_METHODS = {
    "__mul__": "mul",
    "__add__": "add",
    "__sub__": "sub",
    "__neg__": "neg",
    "__pow__": "pow",
    "__eq__": "eq",
    "evaluate": "evaluate",
    "subs_scale": "subs_scale",
    "subs_invert_scale": "subs_invert_scale",
    "swap": "swap",
    "is_symmetric": "is_symmetric",
}


class Tracer:
    """Span-stack tracer; ``stats[name]`` is ``[calls, self_s, work]``."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn, work=None):
        """Return a wrapper of ``fn`` that records spans under ``name``.

        ``work(args)`` optionally returns a count of work units for the call.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                stats[2] += work(args)
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s layer modules in place."""
        modules = [getattr(package, name) for name in MODULES]
        wrapped = {}  # id(original) -> (original, wrapper)

        def add(name, fn, work=None):
            wrapped[id(fn)] = (fn, self.wrap(name, fn, work))

        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or attr in SKIP.get(short, ()):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                # plain functions, and lru_cache wrappers such as sov.basis
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    add(f"{short}.{attr}", obj)
        laurents = (package.exact.Laurent1, package.exact.Laurent2)
        for cls in laurents:
            for method, label in LAURENT_METHODS.items():
                if method not in vars(cls):
                    continue
                mul2 = cls is package.exact.Laurent2 and method == "__mul__"
                add(f"exact.{cls.__name__}.{label}", vars(cls)[method], _term_products if mul2 else None)
        # Rebind every name that refers to a wrapped function: class aliases
        # (__rmul__, __radd__) and by-name imports in every loaded qsov module.
        prefix = package.__name__ + "."
        owners = list(laurents) + [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package.__name__ or name.startswith(prefix))
        ]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(owner, attr, hit[1])

    def self_by_module(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (_, self_s, _) in self.stats.items():
            mod = name.split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + self_s
        return out


def _term_products(args) -> int:
    """Coefficient products one ``Laurent2.__mul__`` call computes."""
    a, b = args
    return len(a.c) * (len(b.c) if hasattr(b, "c") else 1)
