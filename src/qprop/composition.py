"""Tensor-product composites and environment-induced bivalence.

A system qubit tensored with a chain of environment qubits admits
composite contexts that splice the system's mutually incompatible ranges
with orthogonal preferred-basis ranges of one environment factor. Inside
the lattice of such a context, propositions that were gappy for the
isolated system acquire definite companions, and their falsity forces the
original proposition to be bivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidSplice,
    MissingContext,
    MissingEnvProp,
    TooLarge,
)
from .lattices import Context, context_new, find_common_lattices
from .subspaces import (
    Projector,
    StateVector,
    Subspace,
    commutator,
    full_space,
    qubit_projector,
    range_of,
    resolve_tol,
)
from .valuation import Proposition, TruthValue, evaluate

#: Largest composite dimension the builders will construct.
DEFAULT_DIM_CAP = 2**12


@dataclass(frozen=True)
class CompositeSpace:
    """Factor layout of a tensor-product space, system factor first."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"factor dims must be positive, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def total_dim(self) -> int:
        return prod(self.factor_dims)

    def embed(self, k: int, matrix: np.ndarray) -> np.ndarray:
        """Lift an operator on factor k to the composite (identity elsewhere)."""
        if not 0 <= k < len(self.factor_dims):
            raise IndexError(f"factor index {k} out of range")
        before = prod(self.factor_dims[:k])
        after = prod(self.factor_dims[k + 1 :])
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (self.factor_dims[k], self.factor_dims[k]):
            raise DimensionMismatch(
                f"operator shape {m.shape} does not match factor dim "
                f"{self.factor_dims[k]}"
            )
        return np.kron(np.kron(np.eye(before, dtype=complex), m), np.eye(after, dtype=complex))


def tensor_subspace(a: Subspace, b: Subspace) -> Subspace:
    """Kronecker product of two subspaces; dim multiplies, bases kron."""
    return Subspace(a.ambient_dim * b.ambient_dim, np.kron(a.basis, b.basis))


def tensor_state(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of two states, renormalized on construction."""
    return StateVector(
        a.ambient_dim * b.ambient_dim, np.kron(a.amplitudes, b.amplitudes)
    )


def tensor_chain(subspaces) -> Subspace:
    """Left fold of tensor_subspace over a nonempty list of factors."""
    subspaces = list(subspaces)
    if not subspaces:
        raise ValueError("tensor chain needs at least one factor")
    out = subspaces[0]
    for s in subspaces[1:]:
        out = tensor_subspace(out, s)
    return out


def build_sigma_A(tol: float | None = None) -> Context:
    """The two-qubit composite context pairing z-ranges with the env-minus
    range and x-ranges with the env-plus range."""
    pz = {s: qubit_projector("z", s) for s in (+1, -1)}
    px = {s: qubit_projector("x", s) for s in (+1, -1)}
    members = [
        Projector(4, np.kron(pz[+1].matrix, pz[-1].matrix)),
        Projector(4, np.kron(pz[-1].matrix, pz[-1].matrix)),
        Projector(4, np.kron(px[+1].matrix, pz[+1].matrix)),
        Projector(4, np.kron(px[-1].matrix, pz[+1].matrix)),
    ]
    return context_new("Sigma_A", members, tol)


@dataclass(frozen=True)
class BivalenceReport:
    """Outcome of the gap-to-bivalence inference for one proposition.

    ``post_status`` is "Bivalent" when the companion environment
    proposition and the conjunction are both false (or the proposition was
    determinate to begin with), else "StillGap". Bivalent reports the
    *status* only: the inference concludes a 0/1 value exists without
    selecting it.
    """

    proposition: str
    pre_value: TruthValue
    witness_lattice: str
    companion_env_prop: str
    companion_value: TruthValue
    conjunction_value: TruthValue
    post_status: str

    def to_json(self) -> dict:
        return {
            "proposition": self.proposition,
            "pre_value": self.pre_value.value,
            "witness_lattice": self.witness_lattice,
            "companion_env_prop": self.companion_env_prop,
            "companion_value": self.companion_value.value,
            "conjunction_value": self.conjunction_value.value,
            "post_status": self.post_status,
        }


def build_environment_scenario(
    n_env: int,
    splice_index: int,
    system_contexts,
    env_pref_axis: str,
    *,
    dim_cap: int = DEFAULT_DIM_CAP,
    tol: float | None = None,
):
    """Scenario for a system qubit coupled to ``n_env`` environment qubits.

    The two system contexts (incompatible in isolation) are spliced with
    the orthogonal preferred-basis ranges of environment qubit
    ``splice_index``: the first context pairs with the "minus" range, the
    second with "plus". All other environment factors enter as identity
    slots. The evaluation state is the first range of the first context
    tensored with the matching preferred environment state.
    """
    from .scenario import _norm_matrix, _norm_vector, scenario_from_data

    def span_spec(s: Subspace) -> dict:
        return {"span": _norm_matrix(s.basis.T)}

    contexts = list(system_contexts)
    if n_env < 1:
        raise InvalidSplice("need at least one environment qubit")
    if not 1 <= splice_index <= n_env:
        raise InvalidSplice(
            f"splice_index {splice_index} outside the chain 1..{n_env}"
        )
    total_dim = 2 ** (1 + n_env)
    if total_dim > dim_cap:
        raise TooLarge(
            f"composite dimension {total_dim} exceeds the cap {dim_cap}"
        )
    if len(contexts) != 2:
        raise InvalidSplice(
            "the splice factor is a qubit with two orthogonal preferred ranges; "
            f"exactly two system contexts can be paired, got {len(contexts)}"
        )
    for c in contexts:
        if c.ambient_dim != 2:
            raise DimensionMismatch("system contexts must act on a qubit")
    if env_pref_axis not in ("z", "x", "y"):
        raise ValueError(f"env_pref_axis must be z, x or y, got {env_pref_axis!r}")

    axis = env_pref_axis
    ranges = [[range_of(p, tol) for p in c.projectors] for c in contexts]
    prop_names = [
        [f"{c.label}[{i}]" for i in range(len(c))] for c in contexts
    ]
    home_range = ranges[0][0]
    state_vec = home_range.basis[:, 0]

    sys_props = {}
    for names, rs in zip(prop_names, ranges):
        for name, r in zip(names, rs):
            sys_props[name] = span_spec(r)
    sys_data = {
        "schema": 1,
        "dimension": 2,
        "states": {"psi": _norm_vector(state_vec)},
        "homes": {"psi": span_spec(home_range)},
        "contexts": {
            c.label: [
                {"matrix": _norm_matrix(p.matrix)}
                for p in c.projectors
            ]
            for c in contexts
        },
        "propositions": sys_props,
        "evaluation": {
            "state": "psi",
            "propositions": [n for names in prop_names for n in names],
        },
    }

    env_plus = range_of(qubit_projector(axis, +1), tol)
    env_minus = range_of(qubit_projector(axis, -1), tol)
    factors = {"S": sys_data}
    order = ["S"]
    for k in range(1, n_env + 1):
        fname = f"E{k}"
        order.append(fname)
        factors[fname] = {
            "schema": 1,
            "dimension": 2,
            "states": {
                "plus": _norm_vector(env_plus.basis[:, 0]),
                "minus": _norm_vector(env_minus.basis[:, 0]),
            },
            "propositions": {
                f"E{k}{axis}+": span_spec(env_plus),
                f"E{k}{axis}-": span_spec(env_minus),
            },
        }

    splice_factor = f"E{splice_index}"

    def env_slots(spliced_ref):
        slots = []
        for k in range(1, n_env + 1):
            if k == splice_index:
                slots.append(spliced_ref)
            else:
                slots.append({"full": 2})
        return slots

    env_ref = {+1: f"{splice_factor}.E{splice_index}{axis}+",
               -1: f"{splice_factor}.E{splice_index}{axis}-"}
    pairing = {0: -1, 1: +1}  # first context with minus, second with plus

    spliced_members = []
    for ci in (0, 1):
        for name in prop_names[ci]:
            spliced_members.append(
                {"tensor": [f"S.{name}"] + env_slots(env_ref[pairing[ci]])}
            )

    comp_contexts = {"Sigma_SE": spliced_members}
    for ci, c in enumerate(contexts):
        comp_contexts[f"lift_{c.label}"] = [
            {"tensor": [f"S.{name}"] + [{"full": 2}] * n_env}
            for name in prop_names[ci]
        ]

    comp_props = {}
    for names in prop_names:
        for name in names:
            comp_props[f"{name}_lifted"] = {
                "tensor": [f"S.{name}"] + [{"full": 2}] * n_env
            }
    for sign in ("+", "-"):
        ref = f"{splice_factor}.E{splice_index}{axis}{sign}"
        comp_props[f"E{splice_index}{axis}{sign}_lifted"] = {
            "tensor": [{"full": 2}] + env_slots(ref)
        }
    for name in prop_names[1]:
        comp_props[f"{name}&E{splice_index}{axis}+"] = {
            "tensor": [f"S.{name}"] + env_slots(env_ref[+1])
        }

    state_slots = ["S.psi"]
    for k in range(1, n_env + 1):
        state_slots.append(f"E{k}.minus" if k == splice_index else f"E{k}.plus")

    home_slots = [f"S.{prop_names[0][0]}"] + env_slots(env_ref[-1])

    data = {
        "schema": 1,
        "dimension": total_dim,
        "factors": factors,
        "composition": {
            "order": order,
            "system": "S",
            "splice_index": splice_index,
            "env_axis": axis,
        },
        "states": {"pair": {"tensor": state_slots}},
        "homes": {"pair": {"tensor": home_slots}},
        "contexts": comp_contexts,
        "propositions": comp_props,
        "evaluation": {
            "state": "pair",
            "propositions": sorted(comp_props),
            "context": "Sigma_SE",
        },
    }
    return scenario_from_data(data)


def induced_bivalence(scenario, prop_Q: Proposition, env_prop: Proposition,
                      tol: float | None = None) -> BivalenceReport:
    """Run the gap-to-bivalence inference for a system proposition.

    Evaluates the proposition against the isolated system first, then the
    lifted companion environment proposition and the conjunction inside
    the composite collection. Both false makes the proposition bivalent;
    a proposition already determinate in isolation is bivalent outright.
    The system factor and the composite each need an evaluation block.
    """
    comp = scenario.composition
    if comp is None:
        raise MissingContext("scenario declares no composite structure")
    sys_sc = scenario.factors[comp.system]
    sys_inp = sys_sc.valuation_input(tol)
    if prop_Q.subspace.ambient_dim != sys_sc.dimension:
        raise DimensionMismatch(
            f"proposition {prop_Q.name!r} does not act on the system factor"
        )
    pre = evaluate(sys_inp, prop_Q, tol)

    splice_name = comp.order[comp.splice_index]
    splice_sc = scenario.factors[splice_name]
    if env_prop.subspace.ambient_dim != splice_sc.dimension:
        raise MissingEnvProp(
            f"environment proposition {env_prop.name!r} does not act on the "
            f"splice factor {splice_name!r}"
        )
    preferred = [
        range_of(qubit_projector(comp.env_axis, +1), tol),
        range_of(qubit_projector(comp.env_axis, -1), tol),
    ]
    if not any(env_prop.subspace.equals(r, tol) for r in preferred):
        raise MissingEnvProp(
            f"{env_prop.name!r} is not a preferred-basis range on axis "
            f"{comp.env_axis!r}"
        )

    dims = [scenario.factors[name].dimension for name in comp.order]

    def lifted(system_part: Subspace) -> Subspace:
        slots = [system_part]
        for k in range(1, len(comp.order)):
            if k == comp.splice_index:
                slots.append(env_prop.subspace)
            else:
                slots.append(full_space(dims[k]))
        return tensor_chain(slots)

    companion_sub = lifted(full_space(dims[0]))
    conjunction_sub = lifted(prop_Q.subspace)

    inp = scenario.valuation_input(tol)
    witnesses = find_common_lattices(inp.collection, inp.home, conjunction_sub, tol)
    if not witnesses:
        raise MissingContext(
            "no composite lattice holds both the evaluation home and the "
            f"conjunction of {prop_Q.name!r} with {env_prop.name!r}"
        )

    companion_value = evaluate(inp, Proposition(env_prop.name, companion_sub), tol)
    conjunction_value = evaluate(
        inp, Proposition(f"{prop_Q.name} ∧ {env_prop.name}", conjunction_sub), tol
    )
    bivalent = pre is not TruthValue.GAP or (
        companion_value is TruthValue.FALSE
        and conjunction_value is TruthValue.FALSE
    )
    return BivalenceReport(
        proposition=prop_Q.name,
        pre_value=pre,
        witness_lattice=witnesses[0],
        companion_env_prop=env_prop.name,
        companion_value=companion_value,
        conjunction_value=conjunction_value,
        post_status="Bivalent" if bivalent else "StillGap",
    )


def stability_check(
    ctx: Context, env_axis: str, space: CompositeSpace, tol: float | None = None
) -> str | None:
    """Why a composite context disturbs the preferred basis, or None if stable.

    Stable means every member commutes with every lifted preferred-basis
    projector of every environment factor, i.e. environment factors are
    diagonal in the declared pointer basis.
    """
    tol = resolve_tol(tol)
    if ctx.ambient_dim != space.total_dim:
        raise DimensionMismatch("context dimension differs from the composite space")
    for k in range(1, len(space.factor_dims)):
        if space.factor_dims[k] != 2:
            return f"environment factor {k} is not a qubit"
        for sign in (+1, -1):
            lifted = space.embed(k, qubit_projector(env_axis, sign).matrix)
            for i, p in enumerate(ctx.projectors):
                c = commutator(p.matrix, lifted)
                if float(np.max(np.abs(c))) > tol:
                    return (
                        f"member {i} disturbs the {env_axis}-preferred basis "
                        f"of environment factor {k}"
                    )
    return None


def stability_filter(
    env_axis: str, candidate_contexts, space: CompositeSpace,
    tol: float | None = None,
) -> list[Context]:
    """Retain the composite contexts compatible with the preferred basis."""
    return [
        ctx
        for ctx in candidate_contexts
        if stability_check(ctx, env_axis, space, tol) is None
    ]
