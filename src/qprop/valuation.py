"""Three-valued semantics for experimental propositions.

A proposition is a named subspace; a state is evaluated against it through
the meet of the state's home subspace with the proposition's subspace, but
only where that meet exists, i.e. where both subspaces share a lattice of
the collection. There the meet is the block's own: the element whose mask
is the AND of the home's mask and the proposition's. Elsewhere the
proposition has a truth-value gap. The full space represents the
disjunction of any proposition with its negation and is true outright,
which is what makes the semantics supervaluationist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import HomeNotInContext, InvalidInput, TruthTableError
from .lattices import Context, LatticeCollection, lattice_of
from .subspaces import (
    StateVector,
    Subspace,
    complement,
    contains_vector,
    full_space,
    resolve_tol,
    subspace_from_spanning,
)


class TruthValue(Enum):
    TRUE = "true"
    FALSE = "false"
    GAP = "gap"

    @property
    def rendered(self) -> str:
        """Report form: "1", "0", or "0/0" for the gap."""
        return {"true": "1", "false": "0", "gap": "0/0"}[self.value]

    @property
    def json_value(self):
        """True/False, or None for the gap (status string carries the rest)."""
        return {"true": True, "false": False, "gap": None}[self.value]

    def __str__(self) -> str:
        return self.rendered


@dataclass(frozen=True)
class Proposition:
    """A named experimental proposition represented by a subspace."""

    name: str
    subspace: Subspace


@dataclass(frozen=True)
class ValuationInput:
    """A state, its declared home subspace, and the lattice collection.

    The input's check and the home's mask in each lattice are computed
    once per tolerance and kept with the input.
    """

    state: StateVector
    home: Subspace
    collection: LatticeCollection
    _masks_by_tol: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def default_home(state: StateVector) -> Subspace:
    """The one-dimensional span of the state, used when no home is declared."""
    return subspace_from_spanning([state.amplitudes])


def _home_masks(inp: ValuationInput, tol: float | None) -> tuple[int | None, ...]:
    """Check the input, then return the home's mask in each lattice (or None)."""
    tol = resolve_tol(tol)
    masks = inp._masks_by_tol.get(tol)
    if masks is None:
        if not contains_vector(inp.home, inp.state, tol):
            raise InvalidInput("state does not lie in its declared home subspace")
        masks = tuple(lat.mask_of(inp.home, tol) for lat in inp.collection.lattices)
        if all(m is None for m in masks):
            raise InvalidInput("home subspace is not an element of any lattice")
        inp._masks_by_tol[tol] = masks
    return masks


def evaluate(inp: ValuationInput, prop: Proposition, tol: float | None = None) -> TruthValue:
    """Three-valued value of a proposition in the given state.

    The full space is true outright (tautology precedence); a proposition
    sharing no lattice with the home has a gap; otherwise the first lattice
    holding both decides: the state is tested against that block's element
    for the AND of the home's and the proposition's masks.
    """
    home_masks = _home_masks(inp, tol)
    if prop.subspace.ambient_dim != inp.home.ambient_dim:
        raise InvalidInput(
            f"proposition {prop.name!r} has ambient dim "
            f"{prop.subspace.ambient_dim}, expected {inp.home.ambient_dim}"
        )
    if prop.subspace.is_full:
        return TruthValue.TRUE
    for lat, home_mask in zip(inp.collection.lattices, home_masks):
        if home_mask is None:
            continue
        prop_mask = lat.mask_of(prop.subspace, tol)
        if prop_mask is not None:
            if contains_vector(lat.element(home_mask & prop_mask), inp.state, tol):
                return TruthValue.TRUE
            return TruthValue.FALSE
    return TruthValue.GAP


def negation_of(prop: Proposition) -> Proposition:
    """Proposition on the orthogonal complement, named with a ¬ prefix."""
    return Proposition(f"¬{prop.name}", complement(prop.subspace))


def evaluate_disjunction_with_negation(
    inp: ValuationInput, prop: Proposition, tol: float | None = None
) -> TruthValue:
    """Value of prop ∨ ¬prop, represented by the full space: always true.

    True even when the proposition and its negation are both gaps — the
    supervaluationist signature.
    """
    d = prop.subspace.ambient_dim
    disjunction = Proposition(f"{prop.name} ∨ ¬{prop.name}", full_space(d))
    return evaluate(inp, disjunction, tol)


def context_valuation_profile(
    inp: ValuationInput, ctx: Context, tol: float | None = None
) -> dict[int, TruthValue]:
    """Per-member truth values when the home is one of the context ranges.

    Each member is valued as :func:`evaluate` values it: the state is
    tested against the block meet, the element for the AND of the home's
    mask and the member's bit. That meet is {0} for every member but the
    home's, so only the home's member can come out true, and it does when
    the state lies in that range. No member can be a gap because everything
    happens inside one Boolean block.
    """
    _home_masks(inp, tol)
    lat = lattice_of(ctx, tol)
    home_mask = lat.mask_of(inp.home, tol)
    if home_mask is None or home_mask.bit_count() != 1:
        raise HomeNotInContext(
            f"home subspace is not a range of context {ctx.label!r}"
        )
    profile: dict[int, TruthValue] = {}
    for i in range(len(ctx)):
        meet_i = lat.element(home_mask & (1 << i))
        profile[i] = (
            TruthValue.TRUE if contains_vector(meet_i, inp.state, tol) else TruthValue.FALSE
        )
    return profile


def truth_table(
    inp: ValuationInput, props, tol: float | None = None
) -> list[tuple[str, TruthValue]]:
    """Evaluate a list of propositions, preserving order.

    Per-proposition failures are collected and raised together as a
    TruthTableError after the whole batch has been attempted.
    """
    rows: list[tuple[str, TruthValue]] = []
    failures: dict[str, Exception] = {}
    for prop in props:
        try:
            rows.append((prop.name, evaluate(inp, prop, tol)))
        except Exception as exc:  # gather everything, report once
            failures[prop.name] = exc
    if failures:
        raise TruthTableError(failures)
    return rows
