"""Per-layer spans and counts, recorded by wrapping the library from outside.

``Tracer.install`` replaces each public function named in ``LAYERS`` with a
recording wrapper in every ``graphstrata.*`` namespace that binds it (the
modules import each other's functions by name), and patches
``PermGroup.__iter__`` and ``__contains__`` on the class to count group
elements scanned and membership tests.  ``Tracer.restore`` puts every
original back.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent index, job]``.  ``canonical_form`` is
called hundreds of thousands of times per job, so its calls are aggregated
per parent span instead of recorded one by one.  A span's self time is its
duration minus the time its child spans and aggregated calls cover.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# Public functions wrapped, by the module that defines them.
LAYERS = {
    "perm": ("group_from_generators", "symmetric_group", "symmetric_group_on"),
    "stablegraph": ("enumerate_stable_graphs", "canonical_form", "census_to_doc", "dumps"),
    "gamma": ("enumerate_gamma_strata", "gamma_canonical_form", "gamma_census_to_doc"),
    "strata": ("build_quotient_table", "render_quotient_table"),
    "descent": (
        "parse_marking_document",
        "parse_morphism_document",
        "verify_star",
        "class_function",
        "equivalent",
        "verify_morphism",
        "render_star_report",
        "render_equivalence",
        "render_morphism_report",
    ),
    "cli": ("main",),
}
LEAVES = frozenset({"stablegraph.canonical_form"})

CLOSURE = ("perm.group_from_generators", "perm.symmetric_group", "perm.symmetric_group_on")
GAMMA = ("gamma.enumerate_gamma_strata", "gamma.gamma_canonical_form")
RENDER = (
    "stablegraph.census_to_doc",
    "stablegraph.dumps",
    "gamma.gamma_census_to_doc",
    "strata.render_quotient_table",
    "descent.render_star_report",
    "descent.render_equivalence",
    "descent.render_morphism_report",
)
PARSE = ("descent.parse_marking_document", "descent.parse_morphism_document")

# Per-layer metric -> (unit, the wrapped names it reads).  A metric is
# reported as absent when any of those names could not be wrapped.
METRICS = {
    "perm.closure_s": ("s", CLOSURE),
    "perm.elements_built": ("count", CLOSURE),
    "perm.elements_scanned": ("count", ("perm.PermGroup.__iter__",)),
    "perm.membership_tests": ("count", ("perm.PermGroup.__contains__",)),
    "stablegraph.census_s": ("s", ("stablegraph.enumerate_stable_graphs",)),
    "stablegraph.census_classes": ("count", ("stablegraph.enumerate_stable_graphs",)),
    "stablegraph.canonical_form_calls": ("count", ("stablegraph.canonical_form",)),
    "stablegraph.canonical_form_s": ("s", ("stablegraph.canonical_form",)),
    "gamma.fuse_s": ("s", GAMMA),
    "gamma.canonical_forms": ("count", GAMMA + ("stablegraph.canonical_form",)),
    "gamma.canon_per_labeled": ("ratio", GAMMA + ("stablegraph.canonical_form",)),
    "gamma.fused_classes": ("count", ("gamma.enumerate_gamma_strata",)),
    "strata.table_s": ("s", ("strata.build_quotient_table",)),
    "descent.parse_s": ("s", PARSE),
    "descent.star_calls": ("count", ("descent.verify_star",)),
    "descent.star_s": ("s", ("descent.verify_star",)),
    "descent.star_per_job": ("ratio", ("descent.verify_star",)),
    "descent.equivalent_s": ("s", ("descent.equivalent",)),
    "descent.morphism_s": ("s", ("descent.verify_morphism",)),
    "descent.class_function_calls": ("count", ("descent.class_function",)),
    "cli.main_s": ("s", ("cli.main",)),
    "cli.self_s": ("s", ("cli.main",)),
    "cli.render_s": ("s", RENDER),
    "trace.span_coverage": ("ratio", ("cli.main",)),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.leaves: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.job: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(len(self.spans))
            rec = [name, perf_counter(), None, parent, self.job]
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result, parent)
            return result

        return wrapper

    def _leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc = self.leaves[(self._stack[-1] if self._stack else None, name)]
                acc[0] += 1
                acc[1] += perf_counter() - start

        return wrapper

    def _built(self, group, parent) -> None:
        if parent is None or self.spans[parent][0] not in CLOSURE:
            self.counts["perm.elements_built"] += group.order

    def _census(self, census, parent) -> None:
        self.counts["stablegraph.census_classes"] += census.total

    def _fused(self, fused, parent) -> None:
        self.counts["gamma.fused_classes"] += fused.total
        self.counts["gamma.labeled_fused"] += sum(
            c.orbit_size for c in fused.all_classes()
        )

    # -- install / restore --------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "graphstrata" or key.startswith("graphstrata.")
        ]
        hooks = {
            **{name: self._built for name in CLOSURE},
            "stablegraph.enumerate_stable_graphs": self._census,
            "gamma.enumerate_gamma_strata": self._fused,
        }
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"graphstrata.{layer}")
            for fname in names:
                name = f"{layer}.{fname}"
                original = getattr(home, fname, None)
                if not callable(original):
                    self.missing.append(name)
                    continue
                if name in LEAVES:
                    wrapper = self._leaf(name, original)
                else:
                    wrapper = self._span(name, original, hooks.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)
        self._patch_group(sys.modules.get("graphstrata.perm"))

    def _patch_group(self, perm) -> None:
        cls = getattr(perm, "PermGroup", None)
        orig_iter = getattr(cls, "__dict__", {}).get("__iter__")
        orig_contains = getattr(cls, "__dict__", {}).get("__contains__")
        counts = self.counts
        if orig_iter is None:
            self.missing.append("perm.PermGroup.__iter__")
        else:

            def __iter__(group):
                n = 0
                try:
                    for element in orig_iter(group):
                        n += 1
                        yield element
                finally:
                    counts["perm.elements_scanned"] += n

            self._set(cls, "__iter__", __iter__)
        if orig_contains is None:
            self.missing.append("perm.PermGroup.__contains__")
        else:

            def __contains__(group, p):
                counts["perm.membership_tests"] += 1
                return orig_contains(group, p)

            self._set(cls, "__contains__", __contains__)

    def restore(self) -> bool:
        """Put every original back; True when each attribute reads back as it was."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        ok = all(owner.__dict__[attr] is original for owner, attr, original in self._patched)
        self._patched.clear()
        return ok

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its children cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        for (parent, _), (_, total) in self.leaves.items():
            if parent is not None:
                out[parent] -= total
        return out

    def leaf_counts_under(self, names, leaf: str) -> dict[int | None, int]:
        """Aggregated ``leaf`` calls whose parent span is one of ``names``, per job."""
        out: dict[int | None, int] = defaultdict(int)
        for (parent, name), (count, _) in self.leaves.items():
            if name == leaf and parent is not None and self.spans[parent][0] in names:
                out[self.spans[parent][4]] += count
        return out

    def metrics(self, descent_jobs: int, pass_wall: float) -> dict[str, dict]:
        """Every per-layer metric whose wrapped names were all present.

        ``pass_wall`` is the wall time of the whole traced pass, runner work
        included, against which the top-level spans' coverage is taken.
        """
        selfs = self.self_times()
        by_name: dict[str, list[int]] = defaultdict(list)
        for k, span in enumerate(self.spans):
            by_name[span[0]].append(k)

        def self_s(*names):
            return sum(selfs[k] for n in names for k in by_name[n])

        def total_s(*names):
            return sum(self.spans[k][2] - self.spans[k][1] for n in names for k in by_name[n])

        leaf = "stablegraph.canonical_form"
        canon = [v for (_, n), v in self.leaves.items() if n == leaf]
        gamma_canon = sum(self.leaf_counts_under(GAMMA, leaf).values())
        labeled = self.counts["gamma.labeled_fused"]
        star_calls = len(by_name["descent.verify_star"])
        top = sum(
            end - start for _, start, end, parent, _ in self.spans if parent is None
        )
        values = {
            "perm.closure_s": self_s(*CLOSURE),
            "perm.elements_built": self.counts["perm.elements_built"],
            "perm.elements_scanned": self.counts["perm.elements_scanned"],
            "perm.membership_tests": self.counts["perm.membership_tests"],
            "stablegraph.census_s": self_s("stablegraph.enumerate_stable_graphs"),
            "stablegraph.census_classes": self.counts["stablegraph.census_classes"],
            "stablegraph.canonical_form_calls": sum(c for c, _ in canon),
            "stablegraph.canonical_form_s": sum(t for _, t in canon),
            "gamma.fuse_s": self_s(*GAMMA),
            "gamma.canonical_forms": gamma_canon,
            "gamma.canon_per_labeled": gamma_canon / labeled if labeled else 0.0,
            "gamma.fused_classes": self.counts["gamma.fused_classes"],
            "strata.table_s": self_s("strata.build_quotient_table"),
            "descent.parse_s": self_s(*PARSE),
            "descent.star_calls": star_calls,
            "descent.star_s": self_s("descent.verify_star"),
            "descent.star_per_job": star_calls / descent_jobs if descent_jobs else 0.0,
            "descent.equivalent_s": self_s("descent.equivalent"),
            "descent.morphism_s": self_s("descent.verify_morphism"),
            "descent.class_function_calls": len(by_name["descent.class_function"]),
            "cli.main_s": total_s("cli.main"),
            "cli.self_s": self_s("cli.main"),
            "cli.render_s": self_s(*RENDER),
            "trace.span_coverage": top / pass_wall if pass_wall else 0.0,
        }
        absent = set(self.missing)
        return {
            name: {"value": value, "unit": METRICS[name][0]}
            for name, value in values.items()
            if not absent.intersection(METRICS[name][1])
        }

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [
                [parent, name, count, total]
                for (parent, name), (count, total) in self.leaves.items()
            ],
            "counts": dict(self.counts),
            "missing": self.missing,
        }
