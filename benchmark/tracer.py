"""Per-layer tracing of petersym from outside the package.

The tracer wraps the public entry points of each layer and restores
them afterwards.  A function bound into another module by
``from .x import f`` is patched at every such import site (found by
object identity across the loaded ``petersym`` modules); methods are
patched on their class.  Modules imported after installation (the lazy
``petersym.qexp``) are timed by an import hook and patched when they
finish loading.

Two kinds of target:

* stage -- a span (id, parent id, name, start, end) is kept per call;
* leaf  -- a hot function; only aggregated calls and self time.

Self time of a call is its duration minus the time spent in wrapped
calls below it; the tracer's own bookkeeping (nonzero counting) is
charged to no layer.  Spans are held in memory and returned by
``report()``.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import sys
import weakref
from collections import namedtuple
from time import perf_counter

STAGE = "stage"
LEAF = "leaf"

# The package modules, which are the layers.
LAYERS = (
    "cli", "farey", "spaces", "exact", "eisenstein", "pairing",
    "polyspace", "modgroup", "orbits", "qexp", "cyclo",
)

Target = namedtuple("Target", "module attr stat kind")

TARGETS = (
    Target("petersym.cli", "main", "cli.emit", STAGE),
    Target("petersym.cli", "cmd_*", "cli.cmd", STAGE),
    Target("petersym.farey", "subgroup_farey", "farey.unfold", STAGE),
    Target("petersym.farey", "CosetTable.locate", "farey.locate", LEAF),
    Target("petersym.spaces", "build_space", "spaces.build", STAGE),
    Target("petersym.spaces", "SymbolElement.eval_path", "spaces.eval_path", LEAF),
    Target("petersym.exact", "kernel_basis", "exact.kernel", STAGE),
    Target("petersym.exact", "solve_in_span", "exact.solve", LEAF),
    Target("petersym.eisenstein", "beta_moment", "eisenstein.moment", LEAF),
    Target("petersym.eisenstein", "TorsionFunction.act", "eisenstein.fn_act", LEAF),
    Target("petersym.eisenstein", "EisSymbol.cocycle", "eisenstein.cocycle", LEAF),
    Target("petersym.pairing", "cuspidal_subspace", "pairing.cuspidal", STAGE),
    Target("petersym.pairing", "eisenstein_pairing_matrix", "pairing.eis_matrix", STAGE),
    Target("petersym.pairing", "pair", "pairing.pair", LEAF),
    Target("petersym.pairing", "hecke_matrix", "pairing.hecke", STAGE),
    Target("petersym.polyspace", "Vk.act", "polyspace.act", LEAF),
    Target("petersym.modgroup", "cf_decompose", "modgroup.cf", LEAF),
    Target("petersym.orbits", "basis_v", "orbits.basis", STAGE),
    Target("petersym.orbits", "orbit_indicator", "orbits.indicator", LEAF),
    Target("petersym.qexp", "eis_qexp", "qexp.exact", STAGE),
    Target("petersym.qexp", "mellin_rational", "qexp.exact", LEAF),
    Target("petersym.qexp", "l_special", "qexp.exact", LEAF),
    Target("petersym.qexp", "mellin_numeric", "qexp.numeric", LEAF),
    Target("petersym.qexp", "l_special_numeric", "qexp.numeric", LEAF),
    Target("petersym.qexp", "delta_periods", "qexp.numeric", STAGE),
    Target("petersym.qexp", "petersson_norm_delta", "qexp.numeric", STAGE),
    Target("petersym.qexp", "period_haberland", "qexp.numeric", LEAF),
    Target("petersym.cyclo", "CycVec.reduced", "cyclo.reduce", LEAF),
    Target("petersym.cyclo", "CycVec.__add__", "cyclo.arith", LEAF),
    Target("petersym.cyclo", "CycVec.scale", "cyclo.arith", LEAF),
    Target("petersym.cyclo", "CycVec.rotate", "cyclo.arith", LEAF),
    Target("petersym.cyclo", "CycVec.add_root_multiple", "cyclo.arith", LEAF),
)


def _loaded_package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "petersym" or name.startswith("petersym."))]


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Install with ``install()``, run the program, then ``uninstall()``."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counters: dict[str, int] = {
            "farey.cosets": 0, "farey.arcs": 0,
            "exact.kernel_cols": 0, "exact.kernel_dim": 0,
            "spaces.relation_rows": 0, "spaces.relation_nnz": 0,
            "modgroup.cf_steps": 0, "orbits.basis_size": 0,
            "eisenstein.cocycle_distinct": 0,
        }
        self.spans: list[dict] = []
        self.missing: list[str] = []
        # frame: [time covered by wrapped children, stat name, span id]
        self._stack = [[0.0, None, None]]
        self._t0 = perf_counter()
        self._patches: list[tuple] = []        # (owner, name, original)
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._pending: dict[str, list[Target]] = {}
        self._hook = None
        self._cocycle_keys = weakref.WeakKeyDictionary()   # symbol -> matrices seen
        self._before = {"exact.kernel": self._relation_sizes}
        self._after = {
            "farey.unfold": self._unfold,
            "exact.kernel": self._kernel,
            "modgroup.cf": self._cf,
            "orbits.basis": self._basis,
            "eisenstein.cocycle": self._cocycle,
        }

    # -- frames and spans ----------------------------------------------

    def open_span(self, name: str, **attrs) -> int:
        span = {"id": len(self.spans), "parent": self._current_span(), "name": name,
                "start": perf_counter() - self._t0, "end": None, **attrs}
        self.spans.append(span)
        self._stack.append([0.0, name, span["id"]])
        return span["id"]

    def close_span(self, span_id: int) -> float:
        """Close the innermost open span; return its self time."""
        frame = self._stack.pop()
        span = self.spans[span_id]
        span["end"] = perf_counter() - self._t0
        duration = span["end"] - span["start"]
        self._stack[-1][0] += duration
        return duration - frame[0]

    def _current_span(self):
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def _stat(self, name: str) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    def _make_wrapper(self, fn, stat_name: str, kind: str):
        stat = self._stat(stat_name)
        before = self._before.get(stat_name)
        after = self._after.get(stat_name)
        stack = self._stack

        if kind == LEAF:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [0.0, stat_name, None]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    stat.calls += 1
                    stat.self_s += dt - frame[0]
                    stack[-1][0] += dt
                if after is not None:
                    after(args, kwargs, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                span_id = self.open_span(stat_name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stat.calls += 1
                    stat.self_s += self.close_span(span_id)
                if after is not None:
                    after(args, kwargs, result)
                return result
        return wrapper

    # -- counters beyond calls and time ---------------------------------

    def _relation_sizes(self, args, kwargs):
        """Size of the relation matrix build_space hands to the kernel.

        Counting is tracer work, so it is charged to no layer.
        """
        if self._stack[-1][1] != "spaces.build":
            return
        t0 = perf_counter()
        rows = args[0] if args else kwargs["rows"]
        self.counters["spaces.relation_rows"] += len(rows)
        self.counters["spaces.relation_nnz"] += sum(1 for row in rows for v in row if v)
        self._stack[-1][0] += perf_counter() - t0

    def _unfold(self, args, kwargs, result):
        sym, table = result
        self.counters["farey.cosets"] += len(table)
        self.counters["farey.arcs"] += sym.n_arcs()

    def _kernel(self, args, kwargs, result):
        self.counters["exact.kernel_cols"] += args[1] if len(args) > 1 else kwargs["ncols"]
        self.counters["exact.kernel_dim"] += len(result)

    def _cf(self, args, kwargs, result):
        self.counters["modgroup.cf_steps"] += len(result[1])

    def _basis(self, args, kwargs, result):
        self.counters["orbits.basis_size"] += len(result)

    def _cocycle(self, args, kwargs, result):
        symbol, g = args[0], args[1] if len(args) > 1 else kwargs["g"]
        seen = self._cocycle_keys.setdefault(symbol, set())
        if g not in seen:
            seen.add(g)
            self.counters["eisenstein.cocycle_distinct"] += 1

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        if self._patches or self._hook:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            if target.module in sys.modules:
                self._patch_target(target)
            else:
                self._pending.setdefault(target.module, []).append(target)
        self._hook = _ImportHook(self)
        sys.meta_path.insert(0, self._hook)

    def _patch_target(self, target: Target) -> None:
        module = sys.modules[target.module]
        if target.attr.endswith("*"):
            prefix = target.attr[:-1]
            names = [n for n, v in vars(module).items()
                     if n.startswith(prefix) and callable(v)]
            for name in names:
                self._patch_function(module, name, target)
            return
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            cls = getattr(module, cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if fn is None:
                self.missing.append(f"{target.module}.{target.attr}")
                return
            setattr(cls, meth, self._make_wrapper(fn, target.stat, target.kind))
            self._patches.append((cls, meth, fn))
            return
        self._patch_function(module, target.attr, target)

    def _patch_function(self, module, name: str, target: Target) -> None:
        fn = getattr(module, name, None)
        if fn is None:
            self.missing.append(f"{target.module}.{name}")
            return
        wrapper = self._make_wrapper(fn, target.stat, target.kind)
        self._wrappers[id(fn)] = (fn, wrapper)
        for mod in _loaded_package_modules():
            self._patch_sites(mod, fn, wrapper)

    def _patch_sites(self, module, fn, wrapper) -> None:
        for name, value in list(vars(module).items()):
            if value is fn:
                setattr(module, name, wrapper)
                self._patches.append((module, name, fn))

    def _module_loaded(self, module) -> None:
        """Patch a module imported while the tracer is installed."""
        for fn, wrapper in list(self._wrappers.values()):
            self._patch_sites(module, fn, wrapper)
        for target in self._pending.pop(module.__name__, []):
            self._patch_target(target)

    def uninstall(self) -> None:
        if self._hook is not None:
            sys.meta_path.remove(self._hook)
            self._hook = None
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)

    def restored(self) -> bool:
        """True when every patched name is bound to its original again."""
        return all(vars(owner).get(name) is original
                   for owner, name, original in self._patches)

    # -- results -------------------------------------------------------

    def report(self) -> dict:
        return {
            "stats": {k: {"calls": s.calls, "self_s": s.self_s}
                      for k, s in sorted(self.stats.items())},
            "counters": dict(self.counters),
            "spans": self.spans,
            "missing": self.missing,
        }


class _TimedLoader:
    """Loader proxy: times a module's execution and reports it loaded."""

    def __init__(self, inner, tracer: Tracer, stat_name: str):
        self._inner = inner
        self._tracer = tracer
        self._stat_name = stat_name

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module):
        tracer = self._tracer
        span_id = tracer.open_span(self._stat_name)
        try:
            self._inner.exec_module(module)
        finally:
            stat = tracer._stat(self._stat_name)
            stat.calls += 1
            stat.self_s += tracer.close_span(span_id)
        tracer._module_loaded(module)


class _ImportHook(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("petersym."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        layer = fullname.split(".", 1)[1]
        spec.loader = _TimedLoader(spec.loader, self._tracer, f"{layer}.import")
        return spec


def snapshot_bindings() -> dict[str, object]:
    """Every callable bound in the loaded package modules and their classes."""
    out = {}
    for mod in _loaded_package_modules():
        for name, value in vars(mod).items():
            if callable(value):
                out[f"{mod.__name__}:{name}"] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if callable(fn):
                        out[f"{mod.__name__}:{name}.{meth}"] = fn
    return out

