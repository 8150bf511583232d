"""Per-layer tracing of distpac from outside the package.

``Tracer.install`` replaces every binding of every public function of the
distpac modules (including the names a module imports with
``from .core import ...``), every public method of the classes those modules
define, the ``predict`` of every ``Concept`` subclass (also the ones built at
run time, such as the CLI's threshold class) and every entry of
``cli.PROTOCOLS`` with a wrapper that records a span.  ``uninstall`` puts
every original object back; nothing under ``src/`` is edited.

A span is named ``<module>.<function>``; all concept evaluations share the
name ``core.predict`` and all protocol runners ``cli.runner``.  Spans are
aggregated in memory per seed-point by (parent name, name) into call count,
total time, self time (total minus the time covered by child spans) and the
number of calls that raised.  Per-call records would cost hundreds of MB
(halving-noisy makes about 25 000 concept evaluations per seed-point); the
aggregate keeps the parent link and the seed-point id, which is what the
per-layer numbers need.
"""

from __future__ import annotations

import functools
import inspect
import types
from time import perf_counter

MODULES = ("core", "channel", "baseline", "closed", "parity", "declist",
           "linear", "boosting", "agnostic", "privacy", "cli")
ROOT = "seed-point"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.mods = {name: getattr(package, name) for name in MODULES}
        self.concept = self.mods["core"].Concept
        self.spans: dict = {}      # seed-point id -> {(parent, name): rec}
        self.counters: dict = {}   # seed-point id -> {counter: value}
        self._stack: list = [[ROOT, 0.0]]
        self._agg: dict = {}
        self._cnt: dict = {}
        self._patched: list = []   # (owner, attr, original), in patch order
        self._wrappers: dict = {}  # id(original) -> wrapper

    # -- seed-point scope -------------------------------------------------

    def begin(self, sp_id) -> None:
        self._agg = self.spans.setdefault(sp_id, {})
        self._cnt = self.counters.setdefault(sp_id, {})
        self._stack = [[ROOT, 0.0]]

    def counter(self, name: str) -> float:
        return self._cnt.get(name, 0)

    # -- wrappers ---------------------------------------------------------

    def _record(self, name, frame, dur, failed):
        parent = self._stack[-1]
        parent[1] += dur
        key = (parent[0], name)
        rec = self._agg.get(key)
        if rec is None:
            rec = self._agg[key] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[1]
        rec[3] += failed

    def add(self, counter: str, value) -> None:
        self._cnt[counter] = self._cnt.get(counter, 0) + value

    def _wrap(self, fn, name):
        known = self._wrappers.get(id(fn))
        if known is not None:
            return known

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack = self._stack
            stack.append(frame)
            failed = 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = 0
                return out
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self._record(name, frame, dur, failed)

        if name == "core.predict":
            span = traced

            def traced(self_, X, *args, **kwargs):
                self.add("core.predict.rows", len(X))
                return span(self_, X, *args, **kwargs)
        elif name == "channel.send":
            span = traced

            def traced(ledger, *args, **kwargs):
                bits, examples = ledger.bits, ledger.examples
                try:
                    return span(ledger, *args, **kwargs)
                finally:
                    self.add("channel.bits_sent", ledger.bits - bits)
                    self.add("channel.examples_sent",
                              ledger.examples - examples)
        functools.update_wrapper(traced, fn)
        self._wrappers[id(fn)] = traced
        return traced

    def _patch(self, owner, attr, new) -> None:
        if isinstance(owner, dict):
            self._patched.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    # -- install / uninstall ----------------------------------------------

    def targets(self):
        """Yield (owner, attr, original, span name) for everything wrapped."""
        prefix = self.package.__name__ + "."
        owners = [self.package] + list(self.mods.values())
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if attr.startswith("_"):
                    continue
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__.startswith(prefix)):
                    home = obj.__module__[len(prefix):]
                    yield owner, attr, obj, f"{home}.{obj.__name__}"
        for mod_name, mod in self.mods.items():
            for cls in vars(mod).values():
                if not (inspect.isclass(cls)
                        and cls.__module__ == mod.__name__):
                    continue
                for attr, obj in list(vars(cls).items()):
                    if attr.startswith("_") or \
                            not isinstance(obj, types.FunctionType):
                        continue
                    yield cls, attr, obj, self._method_name(cls, attr,
                                                            mod_name)

    def _method_name(self, cls, attr, mod_name):
        if attr == "predict" and issubclass(cls, self.concept):
            return "core.predict"
        return f"{mod_name}.{attr}"

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = []
        for owner, attr, obj, name in list(self.targets()):
            self._patch(owner, attr, self._wrap(obj, name))
            originals.append(obj)
        # A function passed as a default argument (boosting's
        # ``weak_learner=best_stump``) is bound too.
        swap = self._wrappers
        for fn in originals:
            if any(id(v) in swap for v in fn.__defaults__ or ()):
                self._patch(fn, "__defaults__", tuple(
                    swap.get(id(v), v) for v in fn.__defaults__))
            kw = fn.__kwdefaults__ or {}
            if any(id(v) in swap for v in kw.values()):
                self._patch(fn, "__kwdefaults__", {
                    k: swap.get(id(v), v) for k, v in kw.items()})
        protocols = self.mods["cli"].PROTOCOLS
        for key, runner in list(protocols.items()):
            self._patch(protocols, key, self._wrap(runner, "cli.runner"))
        # Concept subclasses created while tracing (the CLI builds its
        # threshold class per run) get a traced predict as they are made.
        tracer = self

        def init_subclass(cls, **kwargs):
            predict = cls.__dict__.get("predict")
            if isinstance(predict, types.FunctionType):
                cls.predict = tracer._wrap(predict, "core.predict")

        self.concept.__init_subclass__ = classmethod(init_subclass)

    def uninstall(self) -> None:
        if "__init_subclass__" in vars(self.concept):
            del self.concept.__init_subclass__
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._wrappers.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

