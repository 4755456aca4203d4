"""Outside-in tracer for muharmonic: times every call into each layer's public functions.

A layer is one module of the package.  The tracer wraps every public
module-level function of each layer, plus the criterion functions held in
``experiments.ACCEPTANCE``, and rebinds each wrapper at every place the
original is bound inside ``muharmonic.*``: the package re-exports names and
``experiments`` imports them with ``from .x import y``, so rebinding only the
defining module would miss most calls.  Leaving the ``with`` block puts
every original back.

Spans are aggregated in memory per function, not kept one by one, because
the suite makes hundreds of thousands of calls.  A span's self time is its
duration minus the time covered by its child spans; its inclusive time is
counted for outermost calls only, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "experiments", "groups", "freegroup", "measures", "operators",
          "subspaces", "harmonic", "ideals", "lp", "walks")

# complex128, the dtype the subspace routines convert their input to
_SVD_ITEMSIZE = 16
_SVD_FUNCS = ("subspaces.kernel", "subspaces.column_space", "subspaces.span_of_rows")
_SAMPLERS = ("walks.empirical_cylinder_measure", "walks.martingale_convergence_check",
             "walks.diamond_vs_pointwise_mc")
# samplers whose reports classify paths as conclusive or not
_CLASSIFYING_SAMPLERS = _SAMPLERS[:2]
_CRITERIA = range(1, 16)


class SpanStats:
    __slots__ = ("calls", "inclusive_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.inclusive_s = 0.0
        self.self_s = 0.0
        self.depth = 0


def _package_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "muharmonic" or name.startswith("muharmonic."))}


class Tracer:
    """Installed for one traced pass by ``with Tracer() as tracer:``."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.counters = {"svd_calls": 0, "svd_flop": 0, "svd_max_bytes": 0,
                         "cesaro_iterations": 0, "cesaro_converged": 0,
                         "path_steps": 0, "paths_attempted": 0, "paths_conclusive": 0}
        self._stack: list[float] = []
        # (module, attribute, original, wrapper) for every rebinding made
        self._bound: list[tuple] = []

    # ------------------------------------------------------------ hooks

    def _count_svd(self, args, kwargs, result):
        shape = np.shape(args[0])
        m, n = shape if len(shape) == 2 else (1, shape[0])
        c = self.counters
        c["svd_calls"] += 1
        c["svd_flop"] += m * n * min(m, n)
        c["svd_max_bytes"] = max(c["svd_max_bytes"], m * n * _SVD_ITEMSIZE)

    def _count_cesaro(self, args, kwargs, result):
        self.counters["cesaro_iterations"] += int(result.n_iterations)
        self.counters["cesaro_converged"] += int(bool(result.converged_iteratively))

    def _sampler_hook(self, fn, classifies):
        sig = inspect.signature(fn)

        def hook(args, kwargs, result):
            bound = sig.bind(*args, **kwargs).arguments
            n_paths = int(bound["n_paths"])
            self.counters["path_steps"] += int(bound["n_steps"]) * n_paths
            if classifies:
                self.counters["paths_attempted"] += n_paths
                self.counters["paths_conclusive"] += n_paths - int(result.inconclusive_count)
        return hook

    def _hook_for(self, name, fn):
        if name in _SVD_FUNCS:
            return self._count_svd
        if name == "harmonic.cesaro_projection":
            return self._count_cesaro
        if name in _SAMPLERS:
            return self._sampler_hook(fn, name in _CLASSIFYING_SAMPLERS)
        return None

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, fn, hook=None):
        st = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            st.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                st.depth -= 1
                child = stack.pop()
                st.calls += 1
                st.self_s += elapsed - child
                if st.depth == 0:
                    st.inclusive_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        # some layers (lp) are first imported inside a function call
        layer_modules = [importlib.import_module(f"muharmonic.{layer}") for layer in LAYERS]
        modules = _package_modules()
        replace = {}  # id(original) -> (original, wrapper)
        for layer, mod in zip(LAYERS, layer_modules):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    replace[id(obj)] = (obj, self._wrap(name, obj, self._hook_for(name, obj)))
        acceptance = modules["muharmonic.experiments"].ACCEPTANCE
        traced_acceptance = tuple(
            (num, title, self._wrap(f"experiments.crit{num:02d}", fn))
            for num, title, fn in acceptance)
        replace[id(acceptance)] = (acceptance, traced_acceptance)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None:
                    setattr(mod, attr, hit[1])
                    self._bound.append((mod, attr, obj, hit[1]))
        return self

    def __exit__(self, *exc):
        for mod, attr, original, _ in self._bound:
            setattr(mod, attr, original)
        return False

    # ------------------------------------------------------------ self-checks

    def check_installed(self) -> list[str]:
        """Problems with the rebinding while installed; empty when sound.

        Every binding holds its wrapper, that wrapper is the one the defining
        module holds (so ``experiments.cesaro_projection`` is
        ``harmonic.cesaro_projection``), and no module still holds an original.
        """
        problems = []
        for mod, attr, original, wrapper in self._bound:
            if getattr(mod, attr) is not wrapper:
                problems.append(f"{mod.__name__}.{attr} is not the installed wrapper")
            if inspect.isfunction(original):
                home = sys.modules[original.__module__]
                if getattr(home, original.__name__) is not wrapper:
                    problems.append(f"{mod.__name__}.{attr} is not "
                                    f"{original.__module__}.{original.__name__}")
        originals = {id(orig): orig for _, _, orig, _ in self._bound}
        for mod in _package_modules().values():
            for attr, obj in vars(mod).items():
                if originals.get(id(obj)) is obj:
                    problems.append(f"{mod.__name__}.{attr} still holds the original")
        return problems

    def check_restored(self) -> list[str]:
        """Problems left after restore; empty when every original is back."""
        problems = [f"{mod.__name__}.{attr} was not restored"
                    for mod, attr, original, _ in self._bound
                    if getattr(mod, attr) is not original]
        wrappers = {id(w): w for _, _, _, w in self._bound}
        for mod in _package_modules().values():
            for attr, obj in vars(mod).items():
                if wrappers.get(id(obj)) is obj:
                    problems.append(f"{mod.__name__}.{attr} still holds a wrapper")
        return problems

    def check_times(self, wall_s: float) -> list[str]:
        """Self time within inclusive time, per span and in total."""
        problems = [f"{name}: self {st.self_s:.6f} s > inclusive {st.inclusive_s:.6f} s"
                    for name, st in self.stats.items()
                    if st.self_s > st.inclusive_s + 1e-6]
        total_self = sum(st.self_s for st in self.stats.values())
        if total_self > wall_s + 1e-6:
            problems.append(f"self times sum to {total_self:.6f} s > traced wall {wall_s:.6f} s")
        return problems


# ---------------------------------------------------------------- per-layer metrics

def per_layer_metrics(tracer: Tracer, out_bytes: int, overhead_s: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}, from one traced pass."""
    stats, c = tracer.stats, tracer.counters

    def calls(name):
        return stats[name].calls if name in stats else 0

    def incl(name):
        return stats[name].inclusive_s if name in stats else 0.0

    out: dict = {}
    for layer in LAYERS:
        mine = [st for name, st in stats.items() if name.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = (sum(st.calls for st in mine), "count")
        out[f"{layer}.self_s"] = (sum(st.self_s for st in mine), "s")
    out["subspaces.svd_calls"] = (c["svd_calls"], "count")
    out["subspaces.svd_flop_computed"] = (c["svd_flop"], "flop")
    out["subspaces.max_matrix_mb"] = (c["svd_max_bytes"] / 1e6, "MB")
    out["harmonic.commutant.s"] = (incl("harmonic.commutant"), "s")
    out["harmonic.cesaro_projection.s"] = (incl("harmonic.cesaro_projection"), "s")
    out["harmonic.cesaro_iterations"] = (c["cesaro_iterations"], "count")
    n_proj = calls("harmonic.cesaro_projection")
    out["harmonic.cesaro_converged_ratio"] = (
        c["cesaro_converged"] / n_proj if n_proj else 0.0, "ratio")
    out["measures.cesaro_average.s"] = (incl("measures.cesaro_average"), "s")
    out["measures.convolve.calls"] = (calls("measures.convolve"), "count")
    sampler_s = sum(incl(name) for name in _SAMPLERS)
    out["walks.sampler.s"] = (sampler_s, "s")
    out["walks.path_steps"] = (c["path_steps"], "count")
    out["walks.path_steps_per_s"] = (c["path_steps"] / sampler_s if sampler_s else 0.0, "1/s")
    out["walks.conclusive_ratio"] = (
        c["paths_conclusive"] / c["paths_attempted"] if c["paths_attempted"] else 0.0, "ratio")
    out["walks.poisson_extension.calls"] = (calls("walks.poisson_extension"), "count")
    out["walks.poisson_extension.s"] = (incl("walks.poisson_extension"), "s")
    out["freegroup.free_mul.calls"] = (calls("freegroup.free_mul"), "count")
    out["ideals.operator_convolve.calls"] = (calls("ideals.operator_convolve"), "count")
    out["ideals.operator_convolve.s"] = (incl("ideals.operator_convolve"), "s")
    out["lp.l1_distance_to_span.calls"] = (calls("lp.l1_distance_to_span"), "count")
    out["lp.l1_distance_to_span.s"] = (incl("lp.l1_distance_to_span"), "s")
    for num in _CRITERIA:
        out[f"experiments.crit{num:02d}.s"] = (incl(f"experiments.crit{num:02d}"), "s")
    out["experiments.out_bytes"] = (out_bytes, "B")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
