"""Spans around every call into qprop's modules, installed from outside.

``Tracer.install`` replaces each public function of each qprop module
with a timing wrapper, both as the module attribute and wherever another
qprop module imported it by name, and wraps the methods that carry the
membership and equality traffic. Spans (name, start, end, parent, op id)
go to in-memory arrays; counters record the outcomes the per-layer
ratios need. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import qprop
import qprop.cli
import qprop.composition
import qprop.hasse
import qprop.lattices
import qprop.scenario
import qprop.subspaces
import qprop.valuation

LAYERS = ("subspaces", "lattices", "valuation", "composition", "scenario", "hasse", "cli")
ROOT_SPAN = "bench.op"
MEMBERSHIP = ("lattices.contains", "lattices.index_of", "lattices.sublattice_index_of")


def _modules():
    return [getattr(qprop, name) for name in LAYERS]


def _methods():
    """(class, attribute, span name) for the wrapped methods."""
    return [
        (qprop.subspaces.Subspace, "equals", "subspaces.equals"),
        (qprop.lattices.InvariantSubspaceLattice, "contains", "lattices.contains"),
        (qprop.lattices.InvariantSubspaceLattice, "index_of", "lattices.index_of"),
        (qprop.lattices.HilbertSublattice, "index_of", "lattices.sublattice_index_of"),
        (qprop.scenario.Scenario, "valuation_input", "scenario.valuation_input"),
        (qprop.scenario.Scenario, "collection", "scenario.collection"),
    ]


def _context_key(ctx) -> str:
    h = hashlib.sha1(ctx.label.encode("utf-8"))
    for p in ctx.projectors:
        h.update(np.ascontiguousarray(p.matrix).tobytes())
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: Counter = Counter()
        self.contexts_seen: set[tuple[int, str]] = set()  # (op id, context)
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_op(self, fn, arg):
        """Run one benchmark op inside a root span with the next op id."""
        self.op_id += 1
        idx = self._open(self._name_id(ROOT_SPAN))
        try:
            return fn(arg)
        finally:
            self._close(idx)

    def _wrap(self, span_name: str, fn, hook):
        nid = self._name_id(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(idx, args, result)
            return result

        return wrapper

    # -- counters ----------------------------------------------------------

    def _hooks(self):
        c = self.counters

        def span(idx, args, result):
            vectors = args[0]
            if hasattr(vectors, "__len__"):
                c["span.in"] += len(vectors)
                c["span.out"] += result.dim

        def equals(idx, args, result):
            c["equals.hits"] += bool(result)

        def membership(idx, args, result):
            parent = self.parent[idx]
            if parent >= 0 and self.names[self.name[parent]] in MEMBERSHIP:
                return  # contains() delegates to index_of(); count the query once
            c["membership.calls"] += 1
            c["membership.hits"] += result is True or (
                result is not None and result is not False
            )

        def lattice_of(idx, args, result):
            c["lattice_of.elements"] += len(result)
            self.contexts_seen.add((self.op_id, _context_key(args[0])))

        def evaluate(idx, args, result):
            c["evaluate.gaps"] += result is qprop.valuation.TruthValue.GAP

        def text_in(idx, args, result):
            c["scenario.input_bytes"] += len(args[0].encode("utf-8"))

        def covering(idx, args, result):
            c["covering.elements"] += len(args[0])

        def dot(idx, args, result):
            c["dot_bytes"] += len(result.encode("utf-8"))

        hooks = {
            "subspaces.subspace_from_spanning": span,
            "subspaces.equals": equals,
            "lattices.lattice_of": lattice_of,
            "valuation.evaluate": evaluate,
            "scenario.parse_scenario": text_in,
            "scenario.check_scenario": text_in,
            "hasse.covering_relation": covering,
            "hasse.emit_dot": dot,
        }
        hooks.update({name: membership for name in MEMBERSHIP})
        return hooks

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        wrappers = {}
        for mod in _modules():
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
        for mod in [qprop, *_modules()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patch(mod, attr, wrappers[id(obj)][1])
        for cls, attr, span_name in _methods():
            self._patch(cls, attr, self._wrap(span_name, getattr(cls, attr), hooks.get(span_name)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict:
        """The spans as numpy arrays, with each span's duration and self time."""
        start, end, parent = np.array(self.start), np.array(self.end), np.array(self.parent)
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
        return {
            "names": np.array(self.names),
            "name": np.array(self.name),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.array(self.op),
            "self": dur - child,
            "dur": dur,
        }

    def save(self, path) -> None:
        arrs = self.arrays()
        np.savez_compressed(
            path, **{k: arrs[k] for k in ("names", "name", "start", "end", "parent", "op")}
        )

    def layer_metrics(self, n_ops: int, untraced_s: float) -> dict:
        """Per-op per-layer metrics, named as in BENCHMARK.json."""
        arrs = self.arrays()
        names, name_of, n = self.names, arrs["name"], len(self.names)
        self_by = Counter(dict(zip(names, np.bincount(name_of, arrs["self"], n).tolist())))
        total_by = Counter(dict(zip(names, np.bincount(name_of, arrs["dur"], n).tolist())))
        calls_by = Counter(dict(zip(names, np.bincount(name_of, minlength=n).tolist())))
        c = self.counters

        def self_of(*spans):
            return sum(self_by[s] for s in spans) / n_ops

        def calls_of(*spans):
            return sum(calls_by[s] for s in spans) / n_ops

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for layer in LAYERS:
            in_layer = [s for s in names if s.split(".", 1)[0] == layer]
            m[f"{layer}.self_s"] = self_of(*in_layer)
            m[f"{layer}.calls"] = calls_of(*in_layer)
        m["subspaces.span.calls"] = calls_of("subspaces.subspace_from_spanning")
        m["subspaces.span.self_s"] = self_of("subspaces.subspace_from_spanning")
        m["subspaces.span.keep_ratio"] = ratio(c["span.out"], c["span.in"])
        m["subspaces.meet.calls"] = calls_of("subspaces.meet")
        m["subspaces.meet.self_s"] = self_of("subspaces.meet")
        m["subspaces.meet.total_s"] = total_by["subspaces.meet"] / n_ops
        m["subspaces.equals.calls"] = calls_of("subspaces.equals")
        m["subspaces.equals.self_s"] = self_of("subspaces.equals")
        m["subspaces.equals.hit_ratio"] = ratio(c["equals.hits"], calls_by["subspaces.equals"])
        m["subspaces.range_of.self_s"] = self_of("subspaces.range_of")
        m["subspaces.validate_projector.self_s"] = self_of("subspaces.validate_projector")
        m["lattices.lattice_of.calls"] = calls_of("lattices.lattice_of")
        m["lattices.lattice_of.self_s"] = self_of("lattices.lattice_of")
        m["lattices.lattice_of.distinct_ratio"] = ratio(
            len(self.contexts_seen), calls_by["lattices.lattice_of"]
        )
        m["lattices.elements_built"] = c["lattice_of.elements"] / n_ops
        m["lattices.membership.calls"] = c["membership.calls"] / n_ops
        m["lattices.membership.hit_ratio"] = ratio(c["membership.hits"], c["membership.calls"])
        m["lattices.find_common_lattices.self_s"] = self_of("lattices.find_common_lattices")
        m["lattices.paste_sublattice.self_s"] = self_of("lattices.paste_sublattice")
        m["lattices.context_new.self_s"] = self_of("lattices.context_new")
        m["valuation.evaluate.calls"] = calls_of("valuation.evaluate")
        m["valuation.gap_ratio"] = ratio(c["evaluate.gaps"], calls_by["valuation.evaluate"])
        m["composition.build_environment_scenario.self_s"] = self_of(
            "composition.build_environment_scenario"
        )
        m["composition.induced_bivalence.self_s"] = self_of("composition.induced_bivalence")
        m["composition.tensor.self_s"] = self_of(
            "composition.tensor_subspace", "composition.tensor_state", "composition.tensor_chain"
        )
        m["scenario.parse.self_s"] = self_of("scenario.parse_scenario", "scenario.scenario_from_data")
        m["scenario.check.self_s"] = self_of("scenario.check_scenario")
        m["scenario.input_bytes"] = c["scenario.input_bytes"] / n_ops
        m["scenario.valuation_input.calls"] = calls_of("scenario.valuation_input")
        m["hasse.covering_relation.self_s"] = self_of("hasse.covering_relation")
        m["hasse.covering_relation.elements"] = c["covering.elements"] / n_ops
        m["hasse.emit_dot.self_s"] = self_of("hasse.emit_dot")
        m["hasse.dot_bytes"] = c["dot_bytes"] / n_ops
        traced_s = total_by[ROOT_SPAN]
        m["trace.overhead_ratio"] = ratio(traced_s, untraced_s)
        m["trace.root_self_s"] = self_by[ROOT_SPAN] / n_ops
        m["trace.op_s"] = traced_s / n_ops
        return m
