"""Per-layer spans for the traced benchmark pass, recorded from outside eiscong.

The layers are the package's modules.  `Tracer.install` wraps every public
function of each module (its `__all__`) and two hot methods, at every binding
a caller uses: the modules import names from each other, so the wrapper
replaces the function in each module namespace that holds it, not only where
it is defined.  Spans are kept in memory; `metrics` turns them into call
counts and self times (a span's duration less the spans nested in it), and
`dump` writes them out.
"""

from __future__ import annotations

import inspect
import json
import time
from importlib import import_module

MODULES = ("arith", "qexp", "gegenbauer", "quadform", "siegelseries", "eisen", "pullback", "cli")
# hot functions that the modules keep out of __all__
EXTRA = ("quadform.canonical_signed_perm",)
METHODS = {
    "eisen.coefficient": ("eisen", "EisensteinContext", "coefficient"),
    "gegenbauer.BivariatePoly.evaluate": ("gegenbauer", "BivariatePoly", "evaluate"),
}
LOCAL_F = "siegelseries.local_F"

# Functions reported one by one; every wrapped function counts in its module's rollup.
REPORTED = (
    LOCAL_F,
    "quadform.canonical_signed_perm",
    "quadform.nondeg_part",
    "quadform.chi_star",
    "quadform.enumerate_R",
    "eisen.coefficient",
    "arith.gen_bernoulli",
    "arith.bernoulli_poly",
    "arith.cohen_h",
    "arith.l_value_neg",
    "arith.factorize",
    "qexp.cohen_series",
    "qexp.eigen_basis",
    "qexp.miller_basis",
    "qexp.petersson_ratio",
    "qexp.std_l_value",
    "gegenbauer.eval_binary",
    "gegenbauer.BivariatePoly.evaluate",
    "pullback.epsilon",
    "pullback.cond2_determinant",
    "pullback.certify",
    "cli.main",
)
LOCAL_F_ROUTES = ("n1", "n2", "n3", "n3.d0", "n3.d1", "n3.d2", "n3.d3", "n3.d4plus")
# lru_cache'd functions whose hit ratio is reported
CACHES = ("arith.gen_bernoulli", "arith.cohen_h", "pullback.epsilon")


def metric_names() -> list[str]:
    """Every per-layer metric `metrics` reports, in a fixed order."""
    names = []
    for fn in REPORTED:
        names += [f"{fn}.calls", f"{fn}.self_s"]
        if fn == LOCAL_F:
            for route in LOCAL_F_ROUTES:
                names += [f"{fn}.{route}.calls", f"{fn}.{route}.self_s"]
            names.append("siegelseries.budget_exceeded")
    names += [f"{cache}.hit_ratio" for cache in CACHES]
    names += [f"{module}.self_s" for module in MODULES]
    return names


def _local_f_route(args: tuple, result) -> str:
    """n<size>, and for size 3 the degree of F_p as well."""
    p, b = args[0], args[1]
    if b.n < 3:
        return f"n{b.n}"
    if result is not None:
        # F_p keeps one coefficient per degree up to expected_degree
        degree = result.degree
    else:
        degree = import_module("eiscong.siegelseries").expected_degree(p, b)
    return f"n3.d{degree}" if degree < 4 else "n3.d4plus"


class Tracer:
    """Spans of the wrapped eiscong functions for one traced pass."""

    def __init__(self) -> None:
        # (name, route, parent span index or -1, start, duration, self time, error type)
        self.spans: list[tuple | None] = []
        self._stack: list[list] = []  # [span index, time spent in child spans]
        self._patches: list[tuple[object, str, object]] = []  # (owner, attribute, original)
        self._caches: dict[str, object] = {}

    # -- installation --------------------------------------------------------

    def _targets(self) -> list[tuple[str, object, str, object]]:
        """(metric name, owner, attribute, original) for every function to wrap."""
        out = []
        for module_name in MODULES:
            module = import_module(f"eiscong.{module_name}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                out.append((f"{module_name}.{attr}", module, attr, fn))
        for name in EXTRA:
            module_name, attr = name.split(".")
            module = import_module(f"eiscong.{module_name}")
            out.append((name, module, attr, getattr(module, attr)))
        for name, (module_name, cls_name, attr) in METHODS.items():
            cls = getattr(import_module(f"eiscong.{module_name}"), cls_name)
            out.append((name, cls, attr, cls.__dict__[attr]))
        return out

    def install(self) -> None:
        modules = [import_module(f"eiscong.{m}") for m in MODULES] + [import_module("eiscong")]
        for name, owner, attr, original in self._targets():
            wrapper = self._wrap(name, original, _local_f_route if name == LOCAL_F else None)
            if name in CACHES:
                self._caches[name] = original
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn, route):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append([index, 0.0])
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                duration = clock() - start
                _, nested = stack.pop()
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                spans[index] = (
                    name,
                    route(args, result) if route else None,
                    parent,
                    start,
                    duration,
                    duration - nested,
                    error,
                )

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = dict.fromkeys(metric_names(), 0)
        for name, route, _, _, _, self_s, error in self.spans:
            module = name.split(".", 1)[0]
            out[f"{module}.self_s"] += self_s
            keys = [name]
            if route is not None:
                keys.append(f"{name}.{route.split('.')[0]}")
                if "." in route:
                    keys.append(f"{name}.{route}")
            if name == LOCAL_F and error == "BudgetExceeded":
                out["siegelseries.budget_exceeded"] += 1
            for key in keys:
                if f"{key}.calls" in out:
                    out[f"{key}.calls"] += 1
                    out[f"{key}.self_s"] += self_s
        for name, fn in self._caches.items():
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, route, parent, start, duration, self, error."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
