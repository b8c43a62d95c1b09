"""Outside-in layer tracing: wrap cmreg's public functions from the benchmark.

`Tracer.install()` replaces each traced function by a timing wrapper in every
`cmreg` module namespace that holds it.  Patching the defining module alone is
not enough: `invariants`, `modops` and `verify` bind engine names with
`from .groebner import ...`.  `remove()` puts every original back.

Per traced function the tracer keeps `calls`, `total_s` (outermost spans only,
so recursion is not counted twice) and `self_s` (span time minus the time of
the child spans inside it).  Exact work counters are read from arguments,
return values and `cache_info()`; nothing inside the program is changed.
"""

from __future__ import annotations

import importlib
import sys
import time
from math import comb

# (module, function) per traced layer; `bounds` is one entry covering every
# closed form and every complex_* helper
LAYERS = {
    "groebner": (
        "buchberger",
        "autoreduce",
        "normal_form",
        "schreyer_syzygies",
        "schreyer_resolution",
        "syzygies_of",
    ),
    "invariants": (
        "minimalize_resolution",
        "hilbert_numerator",
        "numerator_of_cokernel",
        "b1_degrees",
        "module_invariants",
        "ring_invariants",
    ),
    "modops": (
        "colon_kernel",
        "h0_profile",
        "colon_with_irrelevant",
        "minimal_presentation",
        "sym_power",
        "fitting_ideal_0",
        "quotient_by_linear",
    ),
    "cli": ("parse_file",),
    "verify": ("audit", "section_check"),
}
BOUNDS_ENTRY = "bounds.closed_forms"

# process-wide lru_caches whose hit/miss counts are reported
CACHES = {
    "invariants.ring_invariants": ("invariants", "ring_invariants"),
    "groebner.quotient_groebner": ("groebner", "quotient_groebner"),
    "invariants.numerator_of_lead_terms": ("invariants", "_numerator_of_lead_terms"),
}

COUNTERS = (
    "groebner.normal_form.zero",
    "groebner.schreyer_syzygies.pairs",
    "groebner.schreyer_syzygies.kept",
    "groebner.autoreduce.in",
    "groebner.autoreduce.out",
    "invariants.minimalize_resolution.rank_in",
    "invariants.minimalize_resolution.rank_out",
    "modops.h0_profile.rounds",
)


def _module(name: str):
    return importlib.import_module(f"cmreg.{name}")


def _bounds_functions() -> list:
    """Every public function defined in cmreg.bounds, plus complexes.complex_*."""
    out = []
    for name, prefix in (("bounds", ""), ("complexes", "complex_")):
        mod = _module(name)
        for attr, val in vars(mod).items():
            if (
                callable(val)
                and not attr.startswith("_")
                and attr.startswith(prefix)
                and getattr(val, "__module__", None) == mod.__name__
                and not isinstance(val, type)
            ):
                out.append(val)
    return out


def entry_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
    return names + [BOUNDS_ENTRY]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{e}.{stat}" for e in entry_names() for stat in ("calls", "total_s", "self_s")]
    names += list(COUNTERS)
    names += [f"{c}.{k}" for c in CACHES for k in ("hits", "misses")]
    return names


def _cache_counts() -> dict[str, int]:
    out = {}
    for label, (mod, attr) in CACHES.items():
        fn = getattr(_module(mod), attr, None)
        if not hasattr(fn, "cache_info"):  # a traced wrapper around the cache
            fn = getattr(fn, "__wrapped__", None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[f"{label}.hits"] = info.hits if info else 0
        out[f"{label}.misses"] = info.misses if info else 0
    return out


def clear_caches() -> None:
    """Empty the program's process-wide caches, as a fresh process has them."""
    for mod, attr in CACHES.values():
        fn = getattr(_module(mod), attr, None)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {e: [0, 0.0, 0.0] for e in entry_names()}
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._depth: dict[str, int] = dict.fromkeys(self.spans, 0)
        self._child_time: list[float] = []  # one accumulator per open span
        self._patched: list[tuple[object, str, object]] = []
        self._cache_start: dict[str, int] = {}
        self._counting = {
            "groebner.normal_form": self._count_normal_form,
            "groebner.schreyer_syzygies": self._count_schreyer,
            "groebner.autoreduce": self._count_autoreduce,
            "invariants.minimalize_resolution": self._count_minimalize,
            "modops.colon_with_irrelevant": self._count_h0_round,
        }

    # -- counters read from arguments and results --------------------------------

    def _count_normal_form(self, args, result) -> None:
        if not result[0]:
            self.counters["groebner.normal_form.zero"] += 1

    def _count_schreyer(self, args, result) -> None:
        per_comp: dict[int, int] = {}
        for c, _ in args[0].lts:
            per_comp[c] = per_comp.get(c, 0) + 1
        self.counters["groebner.schreyer_syzygies.pairs"] += sum(comb(k, 2) for k in per_comp.values())
        self.counters["groebner.schreyer_syzygies.kept"] += len(result[0])

    def _count_autoreduce(self, args, result) -> None:
        self.counters["groebner.autoreduce.in"] += len(args[0])
        self.counters["groebner.autoreduce.out"] += len(result[0])

    def _count_minimalize(self, args, result) -> None:
        self.counters["invariants.minimalize_resolution.rank_in"] += sum(map(len, args[0].twists))
        self.counters["invariants.minimalize_resolution.rank_out"] += sum(map(len, result.twists))

    def _count_h0_round(self, args, result) -> None:
        if self._depth["modops.h0_profile"]:
            self.counters["modops.h0_profile.rounds"] += 1

    # -- patching ----------------------------------------------------------------

    def _wrap(self, entry: str, fn):
        record = self.spans[entry]
        depth = self._depth
        child_time = self._child_time
        count = self._counting.get(entry)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            depth[entry] += 1
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[entry] -= 1
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += dt
                record[0] += 1
                record[2] += dt - inner
                if not depth[entry]:
                    record[1] += dt
            if count is not None:
                count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for mod, fns in LAYERS.items():
            for fn_name in fns:
                fn = getattr(_module(mod), fn_name, None)
                if fn is not None:  # a later refactor may remove a layer
                    targets[id(fn)] = (fn, self._wrap(f"{mod}.{fn_name}", fn))
        for fn in _bounds_functions():
            targets[id(fn)] = (fn, self._wrap(BOUNDS_ENTRY, fn))
        for name, module in list(sys.modules.items()):
            if name != "cmreg" and not name.startswith("cmreg."):
                continue
            for attr, val in list(vars(module).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, val))
        self._cache_start = _cache_counts()

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results -----------------------------------------------------------------

    def cache_deltas(self) -> dict[str, int]:
        """Hits and misses since install(); call while still installed."""
        now = _cache_counts()
        return {k: now[k] - self._cache_start.get(k, 0) for k in now}

    def metrics(self, caches: dict[str, int]) -> dict[str, float]:
        out: dict[str, float] = {}
        for entry, (calls, total, self_time) in self.spans.items():
            out[f"{entry}.calls"] = calls
            out[f"{entry}.total_s"] = total
            out[f"{entry}.self_s"] = self_time
        out.update(self.counters)
        out.update(caches)
        return out

    @property
    def span_count(self) -> int:
        return sum(calls for calls, _, _ in self.spans.values())


def span_cost_s(reps: int = 20000) -> float:
    """Seconds one traced span adds, from a wrapped no-op against the bare one."""
    def noop(x):
        return x

    wrapped = Tracer()._wrap(BOUNDS_ENTRY, noop)  # a throwaway tracer's record
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(reps):
            noop(i)
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for i in range(reps):
            wrapped(i)
        best = min(best, (time.perf_counter() - t0 - bare) / reps)
    return max(best, 0.0)
