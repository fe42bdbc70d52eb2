"""Contexts and their Boolean invariant-subspace lattices.

A context is a complete family of mutually annihilating nontrivial
projectors; its lattice is the 2^n subset-sums of the projector ranges,
held as the ranges plus one bitmask per element.
Collections of such lattices, and their pasting into a single sublattice
sharing the trivial elements, are the structures the valuation semantics
runs on. The spectral families of :func:`observable_commutator` are
contexts too, validated by the same :func:`context_new`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    Incomplete,
    InvalidSpectralDecomposition,
    NotAnElement,
    NotOrthogonal,
    QpropError,
    TooLarge,
    TrivialMember,
    UnknownLabel,
)
from .subspaces import (
    Projector,
    Subspace,
    commutator,
    equal_to,
    meet,
    join,
    range_of,
    resolve_tol,
    subspace_sum,
)

#: Refuse to enumerate lattices beyond 2^12 elements.
MAX_CONTEXT_SIZE = 12


@dataclass(frozen=True, eq=False)
class Context:
    """An ordered family of projectors; validate through :func:`context_new`."""

    label: str
    projectors: tuple[Projector, ...]

    def __post_init__(self):
        projs = tuple(self.projectors)
        if not projs:
            raise ValueError("context needs at least one projector")
        d = projs[0].ambient_dim
        if any(p.ambient_dim != d for p in projs):
            raise DimensionMismatch("context projectors live in different spaces")
        object.__setattr__(self, "projectors", projs)

    @property
    def ambient_dim(self) -> int:
        return self.projectors[0].ambient_dim

    def __len__(self) -> int:
        return len(self.projectors)

    def __repr__(self) -> str:
        return f"Context({self.label!r}, {len(self)} projectors on C^{self.ambient_dim})"


def context_new(label: str, projectors, tol: float | None = None) -> Context:
    """Validated context: nontrivial members, pairwise annihilation, completeness.

    Raises TrivialMember, NotOrthogonal or Incomplete in that order, so the
    first structural defect is the one reported.
    """
    tol = resolve_tol(tol)
    projs = tuple(projectors)
    ctx = Context(label, projs)
    d = ctx.ambient_dim
    for i, p in enumerate(projs):
        if not 0 < p.rank < d:
            raise TrivialMember(
                f"context {label!r}: projector {i} has rank {p.rank} on C^{d}"
            )
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            prod = projs[i].matrix @ projs[j].matrix
            worst = float(np.max(np.abs(prod)))
            if worst > tol:
                raise NotOrthogonal(
                    f"context {label!r}: projectors {i} and {j} do not annihilate "
                    f"(max |PP'| entry {worst:.3e})"
                )
    total = sum(p.matrix for p in projs)
    if float(np.max(np.abs(total - np.eye(d)))) > tol:
        raise Incomplete(
            f"context {label!r}: projectors sum to trace "
            f"{float(np.trace(total).real):.6g}, expected {d}"
        )
    if len(projs) < 2:
        raise Incomplete(f"context {label!r}: needs at least two members")
    return ctx


def observable_commutator(p_spec, q_spec, tol: float | None = None) -> np.ndarray:
    """Commutator of two observables given by spectral decompositions.

    Each spec is a list of (eigenvalue, Projector) pairs whose projectors
    form a context. Returns sum_n sum_m p_n q_m (P_n Q_m − Q_m P_n), which
    equals the commutator of the assembled operators.
    """
    tol = resolve_tol(tol)
    families = []
    for which, spec in (("p_spec", p_spec), ("q_spec", q_spec)):
        try:
            families.append(context_new(which, [p for _, p in spec], tol))
        except (QpropError, ValueError) as exc:
            raise InvalidSpectralDecomposition(f"{which}: {exc}") from exc
    d = families[0].ambient_dim
    if families[1].ambient_dim != d:
        raise DimensionMismatch("spectral families act on different spaces")
    out = np.zeros((d, d), dtype=complex)
    for pn, p in p_spec:
        for qm, q in q_spec:
            out += pn * qm * commutator(p, q)
    return out


def _index_in(elements, s: Subspace, tol: float | None) -> int | None:
    """Position of the first element equal to s at tol, or None."""
    hits = np.flatnonzero(equal_to(s, elements, tol))
    return int(hits[0]) if hits.size else None


@lru_cache(maxsize=None)
def _mask_order(n: int) -> dict[int, int]:
    """Position of each of the 2^n masks in (popcount, mask) order."""
    masks = sorted(range(2**n), key=lambda m: (m.bit_count(), m))
    return {m: i for i, m in enumerate(masks)}


@dataclass(frozen=True, eq=False)
class InvariantSubspaceLattice:
    """The Boolean lattice of subset-sums of a context's ranges.

    The lattice is stored as its member ranges. Element ``m``, a bitmask
    over the members, is the :func:`subspace_sum` of the ranges whose bits
    are set, taken at the lattice's tolerance ``tol``; it is built on first
    use and cached. Inside the block, meet, join and complement are AND, OR
    and NOT on masks. ``elements`` lists all 2^n elements ordered by
    (number of members, mask): {0} first, the full space last. Build with
    :func:`lattice_of`.
    """

    context_label: str
    ranges: tuple[Subspace, ...]
    tol: float
    _built: dict = field(default_factory=dict, init=False, repr=False)
    _adjoint: np.ndarray = field(init=False, repr=False)
    _owner: np.ndarray = field(init=False, repr=False)
    _ranks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # Row block i of the stacked adjoint is R_iᴴ, so one product with a
        # basis B gives every member's overlap R_iᴴB at once.
        ranks = np.array([r.dim for r in self.ranges])
        stacked = np.hstack([r.basis for r in self.ranges])
        object.__setattr__(self, "_adjoint", np.ascontiguousarray(stacked.conj().T))
        object.__setattr__(self, "_owner", np.repeat(np.arange(len(ranks)), ranks))
        object.__setattr__(self, "_ranks", ranks)

    @property
    def ambient_dim(self) -> int:
        return self.ranges[0].ambient_dim

    def __len__(self) -> int:
        return 2 ** len(self.ranges)

    def element(self, mask: int) -> Subspace:
        """The sum of the ranges selected by mask, built once."""
        e = self._built.get(mask)
        if e is None:
            parts = [r for i, r in enumerate(self.ranges) if mask >> i & 1]
            e = subspace_sum(parts, self.tol, ambient_dim=self.ambient_dim)
            self._built[mask] = e
        return e

    @cached_property
    def elements(self) -> tuple[Subspace, ...]:
        """Every element in (number of members, mask) order, built on first read."""
        return tuple(map(self.element, _mask_order(len(self.ranges))))

    def mask_of(self, s: Subspace, tol: float | None = None) -> int | None:
        """Mask of the element equal to s at tol, or None.

        The member weights w_i = ‖R_iᴴ B_s‖²_F pick the one candidate: for
        orthogonal ranges and an element E_m of dimension dim s,
        ‖P_s − P_{E_m}‖²_F = 2·Σ_{i∉m} w_i, so every member of m has
        w_i > rank_i / 2 and every other member w_i < rank_i / 2 whenever
        that distance is below 1. For tol < 1 the candidate is therefore
        the only element that can equal s, and ``Subspace.equals`` against
        it decides, as it would in a search of ``elements``. At tol ≥ 1,
        where subspaces 45° apart already count as equal, the search may
        find an element that this rule does not.
        """
        if s.ambient_dim != self.ambient_dim:
            return None
        overlap = self._adjoint @ s.basis
        per_row = np.einsum("ij,ij->i", overlap, overlap.conj()).real
        weights = np.bincount(self._owner, per_row, len(self.ranges))
        chosen = weights > self._ranks / 2
        if int(self._ranks[chosen].sum()) != s.dim:
            return None  # equals would reject the dimension mismatch
        mask = sum(1 << int(i) for i in np.flatnonzero(chosen))
        return mask if self.element(mask).equals(s, tol) else None

    def index_of(self, s: Subspace, tol: float | None = None) -> int | None:
        mask = self.mask_of(s, tol)
        return None if mask is None else _mask_order(len(self.ranges))[mask]

    def contains(self, s: Subspace, tol: float | None = None) -> bool:
        return self.mask_of(s, tol) is not None

    def __repr__(self) -> str:
        return (
            f"InvariantSubspaceLattice({self.context_label!r}, "
            f"{len(self)} elements on C^{self.ambient_dim})"
        )


def lattice_of(ctx: Context, tol: float | None = None) -> InvariantSubspaceLattice:
    """The Boolean lattice of a context: its ranges plus the full sum.

    Only the ranges and the top element are built here, so a context whose
    ranges do not sum directly raises NotOrthogonal at once: the top sum
    checks every pair, and a column that loses dimension inside a partial
    sum loses it in the full one too. Every other element is built when
    first asked for.
    """
    n = len(ctx)
    if n > MAX_CONTEXT_SIZE:
        raise TooLarge(
            f"context {ctx.label!r} has {n} members; lattice would hold 2^{n} elements"
        )
    tol = resolve_tol(tol)
    lat = InvariantSubspaceLattice(
        ctx.label, tuple(range_of(p, tol) for p in ctx.projectors), tol
    )
    lat.element(2**n - 1)
    return lat


@dataclass(frozen=True, eq=False)
class LatticeCollection:
    """The lattices of a context set, keyed by unique labels."""

    lattices: tuple[InvariantSubspaceLattice, ...]

    def __post_init__(self):
        lats = tuple(self.lattices)
        if not lats:
            raise ValueError("collection needs at least one lattice")
        labels = [lat.context_label for lat in lats]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate lattice labels in {labels}")
        d = lats[0].ambient_dim
        if any(lat.ambient_dim != d for lat in lats):
            raise DimensionMismatch("lattices live in different ambient spaces")
        object.__setattr__(self, "lattices", lats)

    @property
    def ambient_dim(self) -> int:
        return self.lattices[0].ambient_dim

    def by_label(self, label: str) -> InvariantSubspaceLattice:
        for lat in self.lattices:
            if lat.context_label == label:
                return lat
        raise UnknownLabel(f"no lattice labelled {label!r}")

    def labels(self) -> list[str]:
        return [lat.context_label for lat in self.lattices]


def collection_of(contexts, tol: float | None = None) -> LatticeCollection:
    """Build the lattice collection of a list of contexts."""
    return LatticeCollection(tuple(lattice_of(c, tol) for c in contexts))


def find_common_lattices(
    coll: LatticeCollection, a: Subspace, b: Subspace, tol: float | None = None
) -> list[str]:
    """Labels of every lattice containing both subspaces.

    An empty result means the meet of a and b is undefined within the
    collection: the truth-value-gap situation.
    """
    if a.ambient_dim != coll.ambient_dim or b.ambient_dim != coll.ambient_dim:
        raise DimensionMismatch("subspace dimension differs from the collection's")
    return [
        lat.context_label
        for lat in coll.lattices
        if lat.contains(a, tol) and lat.contains(b, tol)
    ]


def intertwined(c1: Context, c2: Context, tol: float | None = None) -> bool:
    """True iff the contexts share at least one projector."""
    if c1.ambient_dim != c2.ambient_dim:
        raise DimensionMismatch("contexts live in different spaces")
    tol = resolve_tol(tol)
    for p in c1.projectors:
        for q in c2.projectors:
            if float(np.linalg.norm(p.matrix - q.matrix)) <= tol:
                return True
    return False


def individual_subspaces(
    coll: LatticeCollection, lattice_label: str, tol: float | None = None
) -> list[Subspace]:
    """Nontrivial elements of one lattice appearing in no other lattice."""
    target = coll.by_label(lattice_label)
    others = [lat for lat in coll.lattices if lat.context_label != lattice_label]
    out = []
    for e in target.elements:
        if e.is_zero or e.is_full:
            continue
        if any(o.contains(e, tol) for o in others):
            continue
        out.append(e)
    return out


@dataclass(frozen=True, eq=False)
class HilbertSublattice:
    """Union of Boolean blocks pasted at the shared trivial subspaces.

    ``blocks`` maps each context label to the indices its elements occupy
    in the deduplicated ``elements`` tuple.
    """

    elements: tuple[Subspace, ...]
    blocks: dict[str, tuple[int, ...]]

    def index_of(self, s: Subspace, tol: float | None = None) -> int | None:
        if self.elements and self.elements[0].ambient_dim != s.ambient_dim:
            return None
        return _index_in(self.elements, s, tol)

    def __len__(self) -> int:
        return len(self.elements)

    def blocks_of(self, index: int) -> list[str]:
        return [lab for lab, idxs in self.blocks.items() if index in idxs]


def paste_sublattice(
    coll: LatticeCollection, tol: float | None = None
) -> HilbertSublattice:
    """Deduplicated union of all lattice elements, block membership retained.

    Each element is compared with the kept elements of its dimension only,
    and maps to the first of them it equals, in pasted order.
    """
    elements: list[Subspace] = []
    by_dim: dict[int, list[int]] = {}  # positions in elements, ascending
    blocks: dict[str, tuple[int, ...]] = {}
    for lat in coll.lattices:
        idxs = []
        for e in lat.elements:
            kept = by_dim.setdefault(e.dim, [])
            hit = _index_in([elements[k] for k in kept], e, tol)
            if hit is None:
                kept.append(len(elements))
                elements.append(e)
                hit = len(kept) - 1
            idxs.append(kept[hit])
        blocks[lat.context_label] = tuple(idxs)
    return HilbertSublattice(tuple(elements), blocks)


@dataclass(frozen=True, eq=False)
class DistributivityReport:
    """Both sides of a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c) and whether they agree."""

    lhs: Subspace
    rhs: Subspace
    equal: bool


def check_distributivity(
    structure, a: Subspace, b: Subspace, c: Subspace, tol: float | None = None
) -> DistributivityReport:
    """Evaluate the distributive law on three elements of a lattice structure.

    Meets and joins are computed in the ambient space (the quantum-logic
    reading); ``structure`` is any object with an ``index_of`` element test.
    """
    for name, s in (("a", a), ("b", b), ("c", c)):
        if structure.index_of(s, tol) is None:
            raise NotAnElement(f"argument {name} is not an element of the structure")
    lhs = meet(a, join(b, c, tol), tol)
    rhs = join(meet(a, b, tol), meet(a, c, tol), tol)
    return DistributivityReport(lhs, rhs, lhs.equals(rhs, tol))
