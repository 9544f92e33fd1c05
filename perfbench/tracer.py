"""Per-layer tracing from outside the program.

The tracer replaces selected public functions and methods of voablocks by
wrappers, at every module namespace and class where the same object is
bound (the modules import each other's functions by name).  A *span*
wrapper records calls and self time: the CPU time of its thread during the
call minus that of the traced calls it made, on a per-thread stack, so a
thread waiting for the interpreter lock is not counted as busy.  A *count* wrapper only
bumps a counter; it is used for the scalar arithmetic, which runs millions
of times.  Totals are kept in memory and read once at the end.

Everything is undone by ``uninstall``; untraced runs never import this
module's wrappers, so the end-to-end timings carry no tracing cost.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

# (metric prefix, module, attribute path) of each span
SPANS = (
    ("cli.main", "voablocks.cli", "main"),
    ("voa.mode_action", "voablocks.voa", "mode_action"),
    ("voa.mode_mono", "voablocks.voa", "_GeneratorAlgebra.mode_mono"),
    ("voa.mode_mono", "voablocks.voa", "TensorPowerAlgebra.mode_mono"),
    ("series.mul", "voablocks.series", "FracLaurent.__mul__"),
    ("coordchange.kth_root_shift", "voablocks.coordchange", "kth_root_shift"),
    ("coordchange.apply_coord_change", "voablocks.coordchange", "apply_coord_change"),
    ("blocks.heisenberg_correlator", "voablocks.blocks", "heisenberg_correlator"),
    ("blocks.RationalExpr.substitute", "voablocks.blocks", "RationalExpr.substitute"),
    ("blocks.RationalExpr.evaluate", "voablocks.blocks", "RationalExpr.evaluate"),
    ("blocks.propagate_eval", "voablocks.blocks", "propagate_eval"),
    ("sewing.sew_propagate_commute_check", "voablocks.sewing", "sew_propagate_commute_check"),
    ("sewing.sew", "voablocks.sewing", "sew"),
    ("twist.pairing_series", "voablocks.twist", "TwistedModule.pairing_series"),
    ("twist.mode_apply", "voablocks.twist", "TwistedModule.mode_apply"),
)

# the primitive field operations; division and powers are counted through
# the products and inverses they perform, and __radd__/__rmul__ are aliases
SCALAR_ARITH = ("__add__", "__sub__", "__mul__", "__neg__", "inverse")

# name -> (unit, better), in the order they are reported
PER_LAYER = {
    "cli.main.wall_s": ("s", "lower"),
    "cli.cores_used": ("cores", "higher"),
    "voa.mode_action.calls": ("count", "lower"),
    "voa.mode_action.self_s": ("s", "lower"),
    "voa.mode_mono.calls": ("count", "lower"),
    "voa.mode_mono.self_s": ("s", "lower"),
    "voa.mode_cache.entries": ("count", "lower"),
    "voa.mode_cache.hit_ratio": ("ratio", "higher"),
    "scalars.arith_ops": ("count", "lower"),
    "scalars.hash_calls": ("count", "lower"),
    "scalars.cyclotomic_ops": ("count", "lower"),
    "series.mul.calls": ("count", "lower"),
    "series.mul.self_s": ("s", "lower"),
    "series.inverse.calls": ("count", "lower"),
    "coordchange.kth_root_shift.calls": ("count", "lower"),
    "coordchange.kth_root_shift.distinct_inputs": ("count", "lower"),
    "coordchange.kth_root_shift.self_s": ("s", "lower"),
    "coordchange.apply_coord_change.calls": ("count", "lower"),
    "coordchange.apply_coord_change.self_s": ("s", "lower"),
    "blocks.heisenberg_correlator.calls": ("count", "lower"),
    "blocks.heisenberg_correlator.self_s": ("s", "lower"),
    "blocks.RationalExpr.substitute.self_s": ("s", "lower"),
    "blocks.RationalExpr.evaluate.self_s": ("s", "lower"),
    "blocks.propagate_eval.calls": ("count", "lower"),
    "blocks.propagate_eval.self_s": ("s", "lower"),
    "sewing.sew_propagate_commute_check.self_s": ("s", "lower"),
    "sewing.sew.self_s": ("s", "lower"),
    "twist.pairing_series.calls": ("count", "lower"),
    "twist.pairing_series.self_s": ("s", "lower"),
    "twist.mode_apply.calls": ("count", "lower"),
    "twist.mode_apply.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    def __init__(self, modules):
        """``modules``: the imported voablocks modules and every other module
        (such as the benchmark's workloads) whose namespace binds traced
        functions by name."""
        self._modules = list(modules)
        self._by_name = {m.__name__: m for m in self._modules}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []  # one {span name: [calls, self seconds]} per thread
        self._patches = []
        self._counters = {
            name: itertools.count()
            for name in ("arith", "cyclotomic", "hash", "inverse")
        }
        self._cli_wall = 0.0
        self._cli_cpu = 0.0
        self._root_inputs = set()
        self._algebras = []

    # ---- wrappers ---------------------------------------------------------

    def _table(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {})
            self._local.state = state
            with self._lock:
                self._tables.append(state[1])
        return state

    def _span(self, name, fn):
        clock = time.thread_time

        def wrapper(*args, **kwargs):
            stack, table = self._table()
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec = table.get(name)
                if rec is None:
                    rec = table[name] = [0, 0.0]
                rec[0] += 1
                rec[1] += dt - frame[0]

        return wrapper

    def _cli_main(self, fn):
        def wrapper(*args, **kwargs):
            c0, t0 = _cpu_seconds(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._cli_wall += time.perf_counter() - t0
                self._cli_cpu += _cpu_seconds() - c0

        return wrapper

    def _kth_root_shift(self, fn):
        def wrapper(k, order, s="s"):
            self._root_inputs.add((k, order, s))
            return fn(k, order, s)

        return wrapper

    def _scalar_op(self, fn):
        arith, cyc = self._counters["arith"], self._counters["cyclotomic"]

        def wrapper(self_, *args):
            next(arith)
            if self_.is_cyclotomic() or (
                args and getattr(args[0], "is_cyclotomic", None) is not None
                and args[0].is_cyclotomic()
            ):
                next(cyc)
            return fn(self_, *args)

        return wrapper

    def _counted(self, counter, fn):
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _algebra_init(self, fn):
        def wrapper(self_, *args, **kwargs):
            fn(self_, *args, **kwargs)
            self._algebras.append(self_)

        return wrapper

    # ---- installing -------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind ``original`` to ``replacement`` wherever it is bound."""
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__ == module.__name__:
                    for attr, member in list(vars(value).items()):
                        if member is original:
                            self._patches.append((value, attr, member))
                            setattr(value, attr, replacement)

    def _resolve(self, module_name, path):
        owner = self._by_name[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return vars(owner)[attr]

    def install(self):
        for name, module_name, path in SPANS:
            original = self._resolve(module_name, path)
            if name == "cli.main":
                wrapped = self._cli_main(original)
            elif name == "coordchange.kth_root_shift":
                wrapped = self._kth_root_shift(original)
            else:
                wrapped = original
            self._replace_everywhere(original, self._span(name, wrapped))
        series = self._by_name["voablocks.series"]
        self._replace_everywhere(
            series.FracLaurent.inverse,
            self._counted(self._counters["inverse"], series.FracLaurent.inverse),
        )
        scalar = self._by_name["voablocks.scalars"].Scalar
        for attr in SCALAR_ARITH:
            original = vars(scalar)[attr]
            self._replace_everywhere(original, self._scalar_op(original))
        self._replace_everywhere(
            scalar.__hash__, self._counted(self._counters["hash"], scalar.__hash__)
        )
        algebra = self._by_name["voablocks.voa"].Algebra
        self._replace_everywhere(algebra.__init__, self._algebra_init(algebra.__init__))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ---- reading ----------------------------------------------------------

    def _count(self, name):
        # the value a fresh next() would return is the number of calls so far
        return int(repr(self._counters[name])[6:-1])

    def metrics(self, overhead_s: float):
        """({per-layer metric: value}, {span: {"calls", "self_s"}})."""
        merged = {}
        for table in self._tables:
            for name, (calls, self_s) in table.items():
                rec = merged.setdefault(name, [0, 0.0])
                rec[0] += calls
                rec[1] += self_s

        def calls(name):
            return merged.get(name, [0, 0.0])[0]

        def self_s(name):
            return merged.get(name, [0, 0.0])[1]

        entries = sum(len(getattr(a, "_mode_cache", ())) for a in self._algebras)
        mono_calls = calls("voa.mode_mono")
        values = {
            "cli.main.wall_s": self._cli_wall,
            "cli.cores_used": self._cli_cpu / self._cli_wall if self._cli_wall else 0.0,
            "voa.mode_cache.entries": entries,
            "voa.mode_cache.hit_ratio": 1 - entries / mono_calls if mono_calls else 0.0,
            "scalars.arith_ops": self._count("arith"),
            "scalars.hash_calls": self._count("hash"),
            "scalars.cyclotomic_ops": self._count("cyclotomic"),
            "series.inverse.calls": self._count("inverse"),
            "coordchange.kth_root_shift.distinct_inputs": len(self._root_inputs),
            "trace.overhead_s": overhead_s,
        }
        for name in PER_LAYER:
            if name in values:
                continue
            prefix, _, kind = name.rpartition(".")
            values[name] = calls(prefix) if kind == "calls" else self_s(prefix)
        table = {name: {"calls": c, "self_s": s} for name, (c, s) in sorted(merged.items())}
        return values, table
