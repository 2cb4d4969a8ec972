"""Outside-in tracer: spans around calls into quiverqh's public functions.

The tracer rebinds module attributes from outside the program, so the
package itself carries no timing code.  Every ``quiverqh.*`` module
attribute (and every class attribute) whose value *is* one of the target
function objects is replaced by a wrapper; that catches both the defining
module and every ``from .x import f`` copy.  ``restore()`` puts the very
same function objects back.

A span is ``(name, start, end, parent)``: times in integer nanoseconds of
``time.perf_counter_ns`` and ``parent`` the index of the enclosing span (-1
for a root).  All spans of one tracer share its ``run_id``.  Spans stay in
memory until ``dump()`` writes them out.  A few targets also keep a small observation
of their arguments or result (basis fingerprints, generator term counts,
seed keys), taken after the span has ended so it is not counted in that
function's own time.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time

# (module, attribute) -> span name.  Attributes with a dot are methods.
TARGETS = {
    ("polycore", "exact_divide"): "polycore.exact_divide",
    ("polycore", "poly_to_text"): "polycore.poly_to_text",
    ("polycore", "MultiPoly.__mul__"): "polycore.mul",
    ("polycore", "MultiPoly.substitute"): "polycore.substitute",
    ("symfun", "antisymmetrize"): "symfun.antisymmetrize",
    ("symfun", "elementary"): "symfun.elementary",
    ("symfun", "complete"): "symfun.complete",
    ("quiver", "load_quiver"): "quiver.load_quiver",
    ("quiver", "weights"): "quiver.weights",
    ("quiver", "build_table"): "quiver.build_table",
    ("presentation", "build_ideal"): "presentation.build_ideal",
    ("groebner", "buchberger"): "groebner.buchberger",
    ("groebner", "normal_form"): "groebner.normal_form",
    ("groebner", "laurent_basis"): "groebner.laurent_basis",
    ("groebner", "laurent_contains"): "groebner.laurent_contains",
    ("cluster", "mutate"): "cluster.mutate",
    ("cluster", "cluster_variables"): "cluster.cluster_variables",
    ("cluster", "Seed.unlabeled_key"): "cluster.unlabeled_key",
    ("ifunction", "qde_check"): "ifunction.qde_check",
    ("ifunction", "ifun_coeff"): "ifunction.ifun_coeff",
    ("embed", "verify_exchange_image"): "embed.verify_exchange_image",
    ("embed", "verify_type_a"): "embed.verify_type_a",
    ("embed", "psi_of_cluster_variable"): "embed.psi_of_cluster_variable",
    ("cli", "main"): "cli.main",
}


def _terms(polys) -> int:
    return sum(len(p.terms) for p in polys)


def _observe_buchberger(args, kwargs, result):
    gens = args[0] if args else kwargs.get("generators", ())
    return [result.fingerprint, len(result.elements), _terms(gens)]


# span name -> fn(args, kwargs, result) returning a JSON-able observation
OBSERVERS = {
    "presentation.build_ideal": lambda a, k, r: [len(r.generators), _terms(r.generators)],
    "groebner.buchberger": _observe_buchberger,
    "groebner.normal_form": lambda a, k, r: not r.terms,
    "cluster.cluster_variables": lambda a, k, r: len(r),
    "cluster.unlabeled_key": lambda a, k, r: hash(r),
    "ifunction.qde_check": lambda a, k, r: r.skipped,
}


def package_modules() -> dict:
    """Import every quiverqh module; name -> module."""
    pkg = importlib.import_module("quiverqh")
    mods = {"quiverqh": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[f"quiverqh.{info.name}"] = importlib.import_module(f"quiverqh.{info.name}")
    return mods


def resolve_targets() -> dict:
    """id(original function) -> (span name, function), from TARGETS."""
    mods = package_modules()
    out = {}
    for (mod, attr), name in TARGETS.items():
        obj = mods[f"quiverqh.{mod}"]
        for part in attr.split("."):
            obj = getattr(obj, part)
        out[id(obj)] = (name, obj)
    return out


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.observations: dict = {name: [] for name in OBSERVERS}
        self._stack: list = []
        self._saved: list = []  # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        observe = OBSERVERS.get(name)
        seen = self.observations.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                seen.append(observe(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = resolve_targets()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod in package_modules().values():
            owners = [mod] + [
                cls for cls in vars(mod).values()
                if isinstance(cls, type) and cls.__module__ == mod.__name__
            ]
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    if id(val) in wrappers:
                        self._saved.append((owner, attr, val))
                        setattr(owner, attr, wrappers[id(val)])

    def restore(self) -> None:
        while self._saved:
            owner, attr, val = self._saved.pop()
            setattr(owner, attr, val)

    def dump(self, path: str) -> None:
        """Write the run id, the spans and the observations as JSON.

        Span names are written once in ``names``; each span is
        ``[name index, start, end, parent]``.
        """
        names = sorted({sp[0] for sp in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "run_id": self.run_id,
                "names": names,
                "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                "observations": self.observations,
            }, fh, separators=(",", ":"))


def load(path: str) -> dict:
    """Read a ``dump()`` file back; spans become ``(name, start, end, parent)``."""
    with open(path) as fh:
        data = json.load(fh)
    names = data.pop("names")
    data["spans"] = [(names[i], s, e, p) for i, s, e, p in data["spans"]]
    return data


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the durations of direct children.

    Spans of one thread nest, so direct children never overlap and their
    durations are exactly the covered part of the parent's interval.
    """
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


def layer_totals(spans: list) -> dict:
    """span name -> {"calls": n, "self_ns": nanoseconds}."""
    out: dict = {}
    for sp, own in zip(spans, self_times(spans)):
        agg = out.setdefault(sp[0], {"calls": 0, "self_ns": 0})
        agg["calls"] += 1
        agg["self_ns"] += own
    return out
