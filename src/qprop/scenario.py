"""Scenario files: named states, contexts and propositions in JSON.

A scenario fixes the Hilbert-space dimension, declares named states (with
optional home subspaces), contexts, propositions, and an evaluation block
naming the state and the propositions to value. Composite scenarios embed
factor scenarios and may reference their objects inside tensor
expressions.

Format summary (all complex scalars are ``[re, im]`` pairs; a bare number
is shorthand for ``[x, 0]``):

- vector: list of scalars; matrix: list of rows of scalars.
- subspace spec: ``{"span": [vectors]}``, ``{"matrix": rows}`` (range of
  that projector), ``{"tensor": [elements]}``, ``{"full": n}`` or
  ``{"zero": n}``.
- projector spec: ``{"span": ...}`` (projector onto the span),
  ``{"matrix": ...}`` or ``{"tensor": [elements]}``.
- state spec: a vector or ``{"tensor": [elements]}``.
- tensor elements are specs or string references ``"FACTOR.name"`` into a
  factor's propositions (for subspaces/projectors) or states (for states).

The parsed form is normalized (every scalar an explicit pair); parsing the
serialization of a parsed scenario is the identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .composition import tensor_chain, tensor_state
from .errors import (
    QpropError,
    ScenarioSyntaxError,
    UnknownReference,
    ValidationFailed,
)
from .lattices import Context, LatticeCollection, collection_of, context_new, lattice_of
from .subspaces import (
    DEFAULT_EPS,
    Projector,
    StateVector,
    Subspace,
    full_space,
    is_invariant_under,
    contains_vector,
    projector_of,
    range_of,
    resolve_tol,
    subspace_from_spanning,
    validate_projector,
    zero_space,
)
from .valuation import Proposition, ValuationInput, default_home

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema",
    "description",
    "dimension",
    "eps",
    "factors",
    "composition",
    "states",
    "homes",
    "contexts",
    "propositions",
    "evaluation",
}


@dataclass(frozen=True)
class CompositionLayout:
    """Factor order of a composite scenario; system first, splice marked."""

    order: tuple[str, ...]
    system: str
    splice_index: int
    env_axis: str


@dataclass(frozen=True)
class Evaluation:
    state: str
    propositions: tuple[str, ...]
    context: str | None = None


@dataclass
class Scenario:
    """A parsed, validated scenario plus its normalized serializable form."""

    dimension: int
    eps: float | None = None
    description: str | None = None
    factors: dict[str, "Scenario"] = field(default_factory=dict)
    composition: CompositionLayout | None = None
    states: dict[str, StateVector] = field(default_factory=dict)
    homes: dict[str, Subspace] = field(default_factory=dict)
    contexts: dict[str, Context] = field(default_factory=dict)
    propositions: dict[str, Proposition] = field(default_factory=dict)
    evaluation: Evaluation | None = None
    data: dict = field(default_factory=dict)
    _inputs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def effective_eps(self, override: float | None = None) -> float:
        """Scenario eps wins over any CLI/environment override."""
        if self.eps is not None:
            return self.eps
        return resolve_tol(override)

    def collection(self, tol: float | None = None) -> LatticeCollection:
        return collection_of(self.contexts.values(), tol)

    def valuation_input(self, tol: float | None = None) -> ValuationInput:
        """The evaluation state, its declared or default home, and the
        lattices of every context at tol.

        This is the one place a valuation input is assembled: the CLI
        commands and induced_bivalence read their state, home and lattices
        from it instead of rebuilding them. The input is memoized per
        tolerance, so every caller at the same tol shares one set of
        lattices; a parsed scenario is not to be mutated.
        """
        if self.evaluation is None:
            raise ScenarioSyntaxError("scenario declares no evaluation block")
        tol = resolve_tol(tol)
        if tol not in self._inputs:
            state = self.states[self.evaluation.state]
            home = self.homes.get(self.evaluation.state) or default_home(state)
            self._inputs[tol] = ValuationInput(state, home, self.collection(tol))
        return self._inputs[tol]


# ---------------------------------------------------------------------------
# Scalar / vector / matrix literals
# ---------------------------------------------------------------------------


def _parse_scalar(x, path: str) -> complex:
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return complex(float(x), 0.0)
    if (
        isinstance(x, list)
        and len(x) == 2
        and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in x)
    ):
        return complex(float(x[0]), float(x[1]))
    raise ScenarioSyntaxError(f"{path}: expected a number or [re, im], got {x!r}")


def _norm_scalar(c: complex) -> list:
    return [float(c.real), float(c.imag)]


def _parse_vector(v, path: str) -> np.ndarray:
    if not isinstance(v, list) or not v:
        raise ScenarioSyntaxError(f"{path}: expected a nonempty vector")
    return np.array([_parse_scalar(x, f"{path}[{i}]") for i, x in enumerate(v)])


def _parse_matrix(rows, path: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ScenarioSyntaxError(f"{path}: expected a nonempty matrix")
    parsed = [_parse_vector(row, f"{path}[{i}]") for i, row in enumerate(rows)]
    widths = {row.shape[0] for row in parsed}
    if len(widths) != 1:
        raise ScenarioSyntaxError(f"{path}: ragged matrix rows {sorted(widths)}")
    return np.vstack(parsed)


def _norm_vector(v: np.ndarray) -> list:
    return [_norm_scalar(x) for x in v]


def _norm_matrix(m: np.ndarray) -> list:
    return [_norm_vector(row) for row in m]


# ---------------------------------------------------------------------------
# Spec resolution
# ---------------------------------------------------------------------------


def _resolve_ref(ref: str, factors: dict, kind: str, path: str):
    if "." not in ref:
        raise UnknownReference(
            f"{path}: reference {ref!r} must look like 'FACTOR.name'"
        )
    fname, oname = ref.split(".", 1)
    if fname not in factors:
        raise UnknownReference(f"{path}: unknown factor {fname!r} in {ref!r}")
    factor = factors[fname]
    registry = factor.states if kind == "state" else factor.propositions
    if oname not in registry:
        raise UnknownReference(
            f"{path}: factor {fname!r} defines no {kind} named {oname!r}"
        )
    obj = registry[oname]
    return obj if kind == "state" else obj.subspace


def _build_subspace(spec, factors: dict, tol: float, path: str) -> tuple[Subspace, object]:
    """Resolve a subspace spec; returns (subspace, normalized spec)."""
    if isinstance(spec, str):
        return _resolve_ref(spec, factors, "proposition", path), spec
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ScenarioSyntaxError(
            f"{path}: subspace spec must be a single-key object or a reference"
        )
    key, value = next(iter(spec.items()))
    if key == "span":
        if not isinstance(value, list):
            raise ScenarioSyntaxError(f"{path}.span: expected a list of vectors")
        vecs = [_parse_vector(v, f"{path}.span[{i}]") for i, v in enumerate(value)]
        try:
            sub = subspace_from_spanning(vecs, tol)
        except QpropError as exc:
            raise ValidationFailed(path, exc) from exc
        return sub, {"span": [_norm_vector(v) for v in vecs]}
    if key == "matrix":
        m = _parse_matrix(value, f"{path}.matrix")
        try:
            validate_projector(m, tol)
            sub = range_of(m, tol)
        except QpropError as exc:
            raise ValidationFailed(path, exc) from exc
        return sub, {"matrix": _norm_matrix(m)}
    if key == "tensor":
        if not isinstance(value, list) or not value:
            raise ScenarioSyntaxError(f"{path}.tensor: expected a nonempty list")
        parts, norms = [], []
        for i, elem in enumerate(value):
            sub, norm = _build_subspace(elem, factors, tol, f"{path}.tensor[{i}]")
            parts.append(sub)
            norms.append(norm)
        return tensor_chain(parts), {"tensor": norms}
    if key == "full":
        if not isinstance(value, int) or value < 1:
            raise ScenarioSyntaxError(f"{path}.full: expected a positive dimension")
        return full_space(value), {"full": value}
    if key == "zero":
        if not isinstance(value, int) or value < 1:
            raise ScenarioSyntaxError(f"{path}.zero: expected a positive dimension")
        return zero_space(value), {"zero": value}
    raise ScenarioSyntaxError(f"{path}: unknown subspace spec kind {key!r}")


def _build_projector(spec, factors: dict, tol: float, path: str) -> tuple[Projector, object]:
    if isinstance(spec, str):
        return projector_of(_resolve_ref(spec, factors, "proposition", path)), spec
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ScenarioSyntaxError(
            f"{path}: projector spec must be a single-key object or a reference"
        )
    key, value = next(iter(spec.items()))
    if key == "matrix":
        m = _parse_matrix(value, f"{path}.matrix")
        try:
            validate_projector(m, tol)
            proj = Projector(m.shape[0], m)
        except QpropError as exc:
            raise ValidationFailed(path, exc) from exc
        return proj, {"matrix": _norm_matrix(m)}
    if key in ("span", "full", "zero"):
        sub, norm = _build_subspace(spec, factors, tol, path)
        return projector_of(sub), norm
    if key == "tensor":
        if not isinstance(value, list) or not value:
            raise ScenarioSyntaxError(f"{path}.tensor: expected a nonempty list")
        mats, norms = [], []
        for i, elem in enumerate(value):
            proj, norm = _build_projector(elem, factors, tol, f"{path}.tensor[{i}]")
            mats.append(proj.matrix)
            norms.append(norm)
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return Projector(out.shape[0], out), {"tensor": norms}
    raise ScenarioSyntaxError(f"{path}: unknown projector spec kind {key!r}")


def _build_state(spec, factors: dict, tol: float, path: str) -> tuple[StateVector, object]:
    if isinstance(spec, list):
        v = _parse_vector(spec, path)
        try:
            return StateVector(v.shape[0], v), _norm_vector(v)
        except ValueError as exc:
            raise ValidationFailed(path, exc) from exc
    if isinstance(spec, dict) and set(spec) == {"tensor"}:
        value = spec["tensor"]
        if not isinstance(value, list) or not value:
            raise ScenarioSyntaxError(f"{path}.tensor: expected a nonempty list")
        parts, norms = [], []
        for i, elem in enumerate(value):
            if isinstance(elem, str):
                parts.append(_resolve_ref(elem, factors, "state", f"{path}.tensor[{i}]"))
                norms.append(elem)
            else:
                st, norm = _build_state(elem, factors, tol, f"{path}.tensor[{i}]")
                parts.append(st)
                norms.append(norm)
        out = parts[0]
        for st in parts[1:]:
            out = tensor_state(out, st)
        return out, {"tensor": norms}
    raise ScenarioSyntaxError(f"{path}: state spec must be a vector or a tensor object")


# ---------------------------------------------------------------------------
# Scenario construction
# ---------------------------------------------------------------------------


def _check_dim(what: str, n: int, dim: int, path: str) -> None:
    if n != dim:
        raise ValidationFailed(
            path, ValueError(f"{what} has dimension {n}, expected {dim}")
        )


class _Builder:
    """Walks raw scenario data; strict mode raises, check mode records rows."""

    def __init__(self, collect: bool = False):
        self.collect = collect
        self.rows: list[tuple[str, bool, str | None]] = []

    def _ok(self, path: str) -> None:
        if self.collect:
            self.rows.append((path, True, None))

    def _fail(self, path: str, exc: Exception) -> None:
        if self.collect:
            self.rows.append((path, False, f"{type(exc).__name__}: {exc}"))
            return
        if isinstance(exc, (ScenarioSyntaxError, UnknownReference, ValidationFailed)):
            raise exc
        raise ValidationFailed(path, exc) from exc

    def build(self, data, path: str = "$") -> Scenario:
        if not isinstance(data, dict):
            raise ScenarioSyntaxError(f"{path}: scenario must be a JSON object")
        unknown = set(data) - _TOP_KEYS
        if unknown:
            raise ScenarioSyntaxError(
                f"{path}: unknown key(s) {sorted(unknown)}"
            )
        schema = data.get("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ScenarioSyntaxError(
                f"{path}: unsupported schema version {schema!r}"
            )
        dim = data.get("dimension")
        if not isinstance(dim, int) or dim < 1:
            raise ScenarioSyntaxError(f"{path}: dimension must be a positive integer")
        eps = data.get("eps")
        if eps is not None:
            if (
                not isinstance(eps, (int, float))
                or isinstance(eps, bool)
                or not math.isfinite(eps)
                or eps <= 0
            ):
                raise ScenarioSyntaxError(f"{path}: eps must be a positive finite number")
            eps = float(eps)
        tol = eps if eps is not None else DEFAULT_EPS
        description = data.get("description")
        if description is not None and not isinstance(description, str):
            raise ScenarioSyntaxError(f"{path}: description must be a string")

        sc = Scenario(dimension=dim, eps=eps, description=description)
        norm: dict = {"schema": SCHEMA_VERSION}
        if description is not None:
            norm["description"] = description
        norm["dimension"] = dim
        if eps is not None:
            norm["eps"] = eps

        factors_data = data.get("factors", {})
        if not isinstance(factors_data, dict):
            raise ScenarioSyntaxError(f"{path}.factors: expected an object")
        if factors_data:
            norm["factors"] = {}
            for fname, fdata in factors_data.items():
                sub = self.build(fdata, f"{path}.factors.{fname}")
                sc.factors[fname] = sub
                norm["factors"][fname] = sub.data

        comp_data = data.get("composition")
        if comp_data is not None:
            sc.composition = self._build_composition(comp_data, sc, f"{path}.composition")
            norm["composition"] = {
                "order": list(sc.composition.order),
                "system": sc.composition.system,
                "splice_index": sc.composition.splice_index,
                "env_axis": sc.composition.env_axis,
            }

        norm["states"] = {}
        for name, spec in _as_object(data.get("states", {}), f"{path}.states").items():
            spath = f"{path}.states.{name}"
            try:
                state, nspec = _build_state(spec, sc.factors, tol, spath)
                _check_dim("state", state.ambient_dim, dim, spath)
                sc.states[name] = state
                norm["states"][name] = nspec
                self._ok(spath)
            except Exception as exc:
                self._fail(spath, exc)

        homes_data = _as_object(data.get("homes", {}), f"{path}.homes")
        if homes_data:
            norm["homes"] = {}
        for name, spec in homes_data.items():
            spath = f"{path}.homes.{name}"
            try:
                if name not in sc.states:
                    raise UnknownReference(
                        f"{spath}: home declared for unknown state {name!r}"
                    )
                home, nspec = _build_subspace(spec, sc.factors, tol, spath)
                _check_dim("home", home.ambient_dim, dim, spath)
                if not contains_vector(home, sc.states[name], tol):
                    raise ValidationFailed(
                        spath, ValueError("state does not lie in its declared home")
                    )
                sc.homes[name] = home
                norm["homes"][name] = nspec
                self._ok(spath)
            except Exception as exc:
                self._fail(spath, exc)

        norm["contexts"] = {}
        for label, specs in _as_object(data.get("contexts", {}), f"{path}.contexts").items():
            cpath = f"{path}.contexts.{label}"
            try:
                if not isinstance(specs, list):
                    raise ScenarioSyntaxError(f"{cpath}: expected a list of projector specs")
                projs, nspecs = [], []
                for i, spec in enumerate(specs):
                    proj, nspec = _build_projector(spec, sc.factors, tol, f"{cpath}[{i}]")
                    _check_dim("projector", proj.ambient_dim, dim, f"{cpath}[{i}]")
                    projs.append(proj)
                    nspecs.append(nspec)
                ctx = context_new(label, projs, tol)
                sc.contexts[label] = ctx
                norm["contexts"][label] = nspecs
                self._ok(cpath)
                if self.collect:
                    self._check_lattice(ctx, tol, cpath)
            except Exception as exc:
                self._fail(cpath, exc)

        norm["propositions"] = {}
        for name, spec in _as_object(
            data.get("propositions", {}), f"{path}.propositions"
        ).items():
            ppath = f"{path}.propositions.{name}"
            try:
                sub, nspec = _build_subspace(spec, sc.factors, tol, ppath)
                _check_dim("subspace", sub.ambient_dim, dim, ppath)
                sc.propositions[name] = Proposition(name, sub)
                norm["propositions"][name] = nspec
                self._ok(ppath)
            except Exception as exc:
                self._fail(ppath, exc)

        eval_data = data.get("evaluation")
        if eval_data is not None:
            epath = f"{path}.evaluation"
            try:
                sc.evaluation = self._build_evaluation(eval_data, sc, epath)
                norm["evaluation"] = {
                    "state": sc.evaluation.state,
                    "propositions": list(sc.evaluation.propositions),
                }
                if sc.evaluation.context is not None:
                    norm["evaluation"]["context"] = sc.evaluation.context
                self._ok(epath)
            except Exception as exc:
                self._fail(epath, exc)

        sc.data = norm
        return sc

    def _build_composition(self, data, sc: Scenario, path: str) -> CompositionLayout:
        if not isinstance(data, dict):
            raise ScenarioSyntaxError(f"{path}: expected an object")
        unknown = set(data) - {"order", "system", "splice_index", "env_axis"}
        if unknown:
            raise ScenarioSyntaxError(f"{path}: unknown key(s) {sorted(unknown)}")
        order = data.get("order")
        if not isinstance(order, list) or not all(isinstance(x, str) for x in order):
            raise ScenarioSyntaxError(f"{path}.order: expected a list of factor names")
        for fname in order:
            if fname not in sc.factors:
                raise UnknownReference(f"{path}.order: unknown factor {fname!r}")
        system = data.get("system")
        if system not in order:
            raise UnknownReference(f"{path}.system: {system!r} is not in the order")
        if order.index(system) != 0:
            raise ScenarioSyntaxError(f"{path}: the system factor must come first")
        splice = data.get("splice_index")
        if not isinstance(splice, int) or not 1 <= splice < len(order):
            raise ScenarioSyntaxError(
                f"{path}.splice_index: must be an environment slot in 1..{len(order) - 1}"
            )
        axis = data.get("env_axis")
        if axis not in ("z", "x", "y"):
            raise ScenarioSyntaxError(f"{path}.env_axis: must be z, x or y")
        total = 1
        for fname in order:
            total *= sc.factors[fname].dimension
        if total != sc.dimension:
            raise ScenarioSyntaxError(
                f"{path}: factor dimensions multiply to {total}, "
                f"scenario dimension is {sc.dimension}"
            )
        return CompositionLayout(tuple(order), system, splice, axis)

    def _build_evaluation(self, data, sc: Scenario, path: str) -> Evaluation:
        if not isinstance(data, dict):
            raise ScenarioSyntaxError(f"{path}: expected an object")
        unknown = set(data) - {"state", "propositions", "context"}
        if unknown:
            raise ScenarioSyntaxError(f"{path}: unknown key(s) {sorted(unknown)}")
        state = data.get("state")
        if state not in sc.states:
            raise UnknownReference(f"{path}.state: unknown state {state!r}")
        props = data.get("propositions", [])
        if not isinstance(props, list):
            raise ScenarioSyntaxError(f"{path}.propositions: expected a list of names")
        for p in props:
            if p not in sc.propositions:
                raise UnknownReference(f"{path}.propositions: unknown name {p!r}")
        ctx = data.get("context")
        if ctx is not None and ctx not in sc.contexts:
            raise UnknownReference(f"{path}.context: unknown context {ctx!r}")
        return Evaluation(state, tuple(props), ctx)

    def _check_lattice(self, ctx: Context, tol: float, path: str) -> None:
        """Check-mode extra: lattice elements invariant under every member."""
        try:
            lat = lattice_of(ctx, tol)
            for e in lat.elements:
                if not is_invariant_under(e, ctx.projectors, tol):
                    raise ValueError(
                        f"lattice element of dim {e.dim} not invariant under a member"
                    )
            self.rows.append((f"{path}/lattice", True, None))
        except Exception as exc:
            self.rows.append(
                (f"{path}/lattice", False, f"{type(exc).__name__}: {exc}")
            )


def _as_object(data, path: str) -> dict:
    if not isinstance(data, dict):
        raise ScenarioSyntaxError(f"{path}: expected an object")
    return data


def scenario_from_data(data: dict) -> Scenario:
    """Build and fully validate a scenario from decoded JSON data."""
    return _Builder(collect=False).build(data)


def parse_scenario(text: str) -> Scenario:
    """Parse scenario JSON text; the first invalid object raises with its path."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(f"invalid JSON: {exc}") from exc
    return scenario_from_data(data)


def serialize_scenario(sc: Scenario) -> str:
    """Normalized JSON text; parse(serialize(parse(t))) == parse(t) normalized."""
    return json.dumps(sc.data, indent=2, ensure_ascii=False) + "\n"


def check_scenario(text: str) -> list[tuple[str, bool, str | None]]:
    """Per-object validation rows (path, ok, reason) without evaluating."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return [("$", False, f"ScenarioSyntaxError: invalid JSON: {exc}")]
    builder = _Builder(collect=True)
    try:
        builder.build(data)
    except (ScenarioSyntaxError, UnknownReference, ValidationFailed) as exc:
        builder.rows.append(("$", False, f"{type(exc).__name__}: {exc}"))
    return builder.rows
