"""Tolerance-based linear algebra over closed subspaces of C^d.

Every subspace is held as a matrix with orthonormal columns; the zero
subspace {0} is the zero-column matrix, the full space is a d-column
basis. All operations are pure and deterministic: fixed algorithms, no
randomized pivoting, so repeated runs produce identical bases.

The kernel works on whole bases rather than single vectors: spans use
block classical Gram-Schmidt with one reorthogonalization pass (CGS2),
direct sums take one QR of the concatenated summand bases, and equality
is a basis residual, so no operation builds a d x d projector. Meet and
join read the principal angles between two subspaces from one thin SVD
of a basis residual, A − P_b A, whose singular values are the angles'
sines (``_principal``).

Direct sums are batched: :func:`subspace_sums` sums many part lists of
one total rank with one stacked Gram product for the pairwise overlaps,
one stacked QR and one |R_kk| test, and :func:`subspace_sum` is its
one-group case. Each basis is bitwise the one the group gets alone.
A :class:`Subspace` validates its basis with one reduction,
max |BᴴB − I| ≤ DEFAULT_EPS, which NaN fails; only a basis that fails
runs the finiteness and shape diagnostics, so each rule still raises
its own message, in the same order.

Tolerance contract. One tol (see :func:`resolve_tol`) is read in two ways:

- :meth:`Subspace.equals` is an absolute bound on the projector distance,
  ‖P_a − P_b‖_F ≤ tol, whatever the dimensions.
- :func:`contains_vector`, and :func:`_columns_in` behind
  :func:`contains_subspace` and :func:`is_invariant_under`, bound a
  residual relative to the vector: ‖v − P v‖ ≤ tol·‖v‖. The span's
  keep-or-drop rule in :func:`subspace_from_spanning` and the
  dimension-loss test of :func:`subspace_sum` are relative in the same way.
- :func:`meet` and :func:`join` apply :func:`contains_vector`'s rule to
  unit principal directions: a direction of a lies in b when its
  principal-angle sine to b is ≤ tol. The meet keeps those directions
  of a; the join adds to a the directions of b whose sine exceeds tol.
  So dim(a∧b) + dim(a∨b) = dim a + dim b at every tol < 1.
- Block membership (``InvariantSubspaceLattice.mask_of`` in
  ``lattices``) is :meth:`Subspace.equals` against the element of the one
  candidate mask, so it inherits the absolute bound.
- The batched predicates apply the same two rules: :func:`equal_to` is
  :meth:`Subspace.equals` against many subspaces, and
  :func:`contained_in` is :func:`contains_subspace` for many inner
  subspaces, each in one matrix product. Per-pair and batched forms share
  one core per rule (``_distances``, ``_column_passes``), so each rule is
  written once.

Valid range: tol < 1. Block membership by mask is exact only there; at
tol ≥ 1, subspaces 45° apart already count as equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotAProjector,
    NotOrthogonal,
)

#: Global default tolerance for rank decisions, membership and equality tests.
DEFAULT_EPS = 1e-9


def resolve_tol(tol: float | None) -> float:
    """Map None or 0 to the default tolerance; reject NaN, infinities and negatives."""
    if tol is None or tol == 0:
        return DEFAULT_EPS
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be finite, got {tol}")
    if tol < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    return float(tol)


def _as_complex(a, name: str = "array") -> np.ndarray:
    out = np.asarray(a, dtype=complex)
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Subspace:
    """A closed linear subspace of C^d, stored as an orthonormal basis.

    ``basis`` has shape ``(ambient_dim, r)`` with orthonormal columns;
    ``r = 0`` encodes {0} and ``r = ambient_dim`` the full space. The
    instance is immutable; compare with :meth:`equals`, never ``==``.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be positive")
        # One reduction, max |BᴴB − I|, accepts a valid basis; NaN fails it.
        # Only a basis that fails runs the diagnostics, in their usual order.
        b = np.asarray(self.basis, dtype=complex)
        err = math.nan
        if b.ndim == 2 and b.shape[0] == self.ambient_dim >= b.shape[1]:
            gram = b.conj().T @ b
            gram.ravel()[:: b.shape[1] + 1] -= 1  # BᴴB − I in place
            err = abs(gram).max(initial=0.0)
        if not err <= DEFAULT_EPS:
            _basis_diagnosis(b, self.ambient_dim)
        object.__setattr__(self, "basis", _frozen(b))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def projector_matrix(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def equals(self, other: "Subspace", tol: float | None = None) -> bool:
        """Subspace equality as projector distance ‖P_a − P_b‖_F ≤ tol.

        For bases A, B of equal rank, ‖P_a − P_b‖_F = √2·‖B − A(AᴴB)‖_F
        exactly, so the distance costs O(d·r²) and no projector is formed.
        """
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        return bool(_distances(self.basis, other.basis, 1)[0] <= resolve_tol(tol))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of C^{self.ambient_dim})"


def _basis_diagnosis(basis: np.ndarray, d: int) -> None:
    """Raise the first rule a candidate basis of C^d breaks, in checking order."""
    b = _as_complex(basis, "basis")
    if b.ndim != 2 or b.shape[0] != d:
        raise ValueError(f"basis must be {d}xr, got shape {b.shape}")
    if b.shape[1] > d:
        raise ValueError("more basis columns than ambient dimension")
    raise ValueError("basis columns are not orthonormal")


@dataclass(frozen=True, eq=False)
class Projector:
    """A Hermitian idempotent operator on C^d.

    Construction validates Hermiticity and idempotence at the global
    tolerance; :func:`projector_at` validates a raw matrix once at another
    tolerance instead.
    """

    ambient_dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex(self.matrix, "matrix")
        if m.shape != (self.ambient_dim, self.ambient_dim):
            raise ValueError(
                f"matrix must be {self.ambient_dim}x{self.ambient_dim}, got {m.shape}"
            )
        validate_projector(m, DEFAULT_EPS)
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.matrix).real)))

    def __repr__(self) -> str:
        return f"Projector(rank {self.rank} on C^{self.ambient_dim})"


@dataclass(frozen=True, eq=False)
class StateVector:
    """A nonzero pure state of C^d, normalized on construction."""

    ambient_dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        v = _as_complex(self.amplitudes, "amplitudes").reshape(-1)
        if v.shape != (self.ambient_dim,):
            raise ValueError(
                f"amplitudes must have length {self.ambient_dim}, got {v.shape[0]}"
            )
        n = float(np.linalg.norm(v))
        if n <= DEFAULT_EPS:
            raise ValueError("state vector must be nonzero")
        object.__setattr__(self, "amplitudes", _frozen(v / n))

    def __repr__(self) -> str:
        return f"StateVector(C^{self.ambient_dim})"


def validate_projector(matrix, tol: float | None = None) -> np.ndarray:
    """Check Hermiticity and idempotence; return the matrix as complex.

    Raises NotAProjector with the worst violation magnitude, so callers
    can report how far a candidate is from being a projector.
    """
    tol = resolve_tol(tol)
    m = _as_complex(matrix, "projector matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotAProjector(f"projector matrix must be square, got shape {m.shape}")
    asym = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if asym > tol:
        raise NotAProjector(f"not Hermitian: max asymmetry {asym:.3e} > {tol:.1e}")
    nonidem = float(np.max(np.abs(m @ m - m))) if m.size else 0.0
    if nonidem > tol:
        raise NotAProjector(
            f"not idempotent: max |P^2 - P| entry {nonidem:.3e} > {tol:.1e}"
        )
    return m


def projector_at(matrix, tol: float | None = None) -> Projector:
    """A Projector whose one validation is :func:`validate_projector` at tol.

    A scenario checks its members at its own eps; constructing them with
    ``Projector`` would check them again at the global tolerance and
    reject a member the scenario accepts.
    """
    m = validate_projector(matrix, tol)
    p = object.__new__(Projector)
    object.__setattr__(p, "ambient_dim", m.shape[0])
    object.__setattr__(p, "matrix", _frozen(m))
    return p


# ---------------------------------------------------------------------------
# Canonical constructions
# ---------------------------------------------------------------------------


def zero_space(d: int) -> Subspace:
    return Subspace(d, np.zeros((d, 0), dtype=complex))


def full_space(d: int) -> Subspace:
    return Subspace(d, np.eye(d, dtype=complex))


def identity_projector(d: int) -> Projector:
    return Projector(d, np.eye(d, dtype=complex))


_PAULI = {
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def qubit_projector(axis: str, sign: int) -> Projector:
    """Eigenprojector (1 ± sigma_axis)/2 of a spin component, axis in {z,x,y}."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of {sorted(_PAULI)}, got {axis!r}")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return Projector(2, (np.eye(2, dtype=complex) + sign * _PAULI[axis]) / 2)


def subspace_from_spanning(
    vectors, tol: float | None = None, *, ambient_dim: int | None = None
) -> Subspace:
    """Span of a list of vectors, canonicalized to an orthonormal basis.

    Classical Gram-Schmidt with one reorthogonalization pass (CGS2): each
    vector is projected against all accepted columns at once, twice, and
    is discarded when its residual is ≤ tol relative to its own norm, so
    the rank is deterministic for a fixed input order. ``vectors`` may be
    a (k, d) array holding the vectors as rows, converted in one piece.
    ``ambient_dim`` is required when ``vectors`` is empty.
    """
    tol = resolve_tol(tol)
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        vs = _as_complex(vectors, "spanning vector")
    else:
        vs = [_as_complex(v, "spanning vector").reshape(-1) for v in vectors]
        dims = {v.shape[0] for v in vs}
        if len(dims) > 1:
            raise DimensionMismatch(f"spanning vectors have mixed lengths {sorted(dims)}")
        if not vs:
            if ambient_dim is None:
                raise ValueError("ambient_dim is required for an empty spanning set")
            return zero_space(ambient_dim)
        vs = np.array(vs)
    d = vs.shape[1]
    if ambient_dim is not None and ambient_dim != d:
        raise DimensionMismatch(f"vectors have length {d}, ambient_dim says {ambient_dim}")

    # Accepted columns are kept as rows, plain and conjugated, so both
    # halves of each projection are one contiguous matrix-vector product.
    vs = np.ascontiguousarray(vs)
    rows = np.empty_like(vs)
    rows_h = np.empty_like(vs)
    k = 0
    for v in vs:
        scale = _norm(v)
        u = v
        if k:
            for _ in range(2):  # second pass restores orthogonality lost to cancellation
                u = u - (rows_h[:k] @ u) @ rows[:k]
        residual = _norm(u)
        if residual > tol * scale and residual > 0.0:
            rows[k] = u / residual
            rows_h[k] = rows[k].conj()
            k += 1
    if k == 0:
        return zero_space(d)
    return Subspace(d, rows[:k].T)


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a contiguous complex vector, by its own formula, unwrapped."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def projector_of(s: Subspace) -> Projector:
    """The projector whose range is s."""
    return Projector(s.ambient_dim, s.projector_matrix())


def range_of(p, tol: float | None = None) -> Subspace:
    """Orthonormal basis of the eigenvalue-1 eigenspace of a projector.

    Accepts a Projector or a raw matrix; the matrix is validated against
    ``tol`` first. The rank is fixed as round(trace(p)).
    """
    if isinstance(p, Projector):
        m = p.matrix
    else:
        m = validate_projector(p, tol)
    d = m.shape[0]
    rank = int(round(float(np.trace(m).real)))
    if rank <= 0:
        return zero_space(d)
    if rank >= d:
        return full_space(d)
    _, vecs = np.linalg.eigh(m)  # ascending eigenvalues: range is the tail block
    return Subspace(d, vecs[:, d - rank :])


def negate(p: Projector) -> Projector:
    """Complement projector 1 - p; its range is the kernel of p."""
    return Projector(p.ambient_dim, np.eye(p.ambient_dim, dtype=complex) - p.matrix)


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement s^perp; dim(s) + dim(s^perp) = d."""
    d, r = s.ambient_dim, s.dim
    if r == 0:
        return full_space(d)
    if r == d:
        return zero_space(d)
    u, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return Subspace(d, u[:, r:])


def join(a: Subspace, b: Subspace, tol: float | None = None) -> Subspace:
    """Closed span of the union: a plus b's directions whose sine to a exceeds tol.

    Those directions are left singular vectors of b's residual against a
    (:func:`_principal`); one QR of them beside a's basis restores the
    orthogonality that the division by small sines loses.
    """
    tol = resolve_tol(tol)
    out_dirs, sines, _ = _principal(b, a)
    outside = sines > tol
    if not outside.any():
        return a  # b lies in a
    q, _ = np.linalg.qr(np.hstack([a.basis, out_dirs[:, outside]]))
    return Subspace(a.ambient_dim, q)


def meet(a: Subspace, b: Subspace, tol: float | None = None) -> Subspace:
    """Intersection: the principal directions of a whose sine to b is ≤ tol.

    A unit direction x of a with ‖x − P_b x‖ ≤ tol passes
    :func:`contains_vector`'s rule against b. The directions are A·V for
    the right singular vectors V of a's residual against b, so they are
    orthonormal as they come.
    """
    tol = resolve_tol(tol)
    _, sines, v = _principal(a, b)
    inside = sines <= tol
    if inside.all():
        return a  # a lies in b
    return Subspace(a.ambient_dim, a.basis @ v[:, inside])


def subspace_sum(
    parts, tol: float | None = None, *, ambient_dim: int | None = None
) -> Subspace:
    """Internal direct sum of pairwise-orthogonal subspaces.

    Raises NotOrthogonal when any pair of parts fails orthogonality at
    ``tol``. The basis is the Q factor of one QR of the concatenated part
    bases. The sum also raises NotOrthogonal when it would lose dimension:
    more columns than d, or some |R_kk| ≤ tol·‖column k‖, which is the
    residual test :func:`subspace_from_spanning` applies to each vector.
    The empty sum is {0} and needs ``ambient_dim``. This is the one-group
    case of :func:`subspace_sums`.
    """
    return subspace_sums([parts], tol, ambient_dim=ambient_dim)[0]


def subspace_sums(
    groups, tol: float | None = None, *, ambient_dim: int | None = None
) -> list[Subspace]:
    """:func:`subspace_sum` of every part list in groups, all of one total rank.

    All groups are tested and summed together: one stacked Gram product
    gives every pairwise overlap, one stacked QR every basis, and one
    comparison every |R_kk| test. Numpy's stacked QR runs the same LAPACK
    routine on each matrix, so each basis is the one a group summed alone
    gets. When groups fail a test, the first of them is summed alone and
    raises its own NotOrthogonal.
    """
    tol = resolve_tol(tol)
    groups = [list(parts) for parts in groups]
    d = ambient_dim
    for parts in groups:
        if not parts:
            if ambient_dim is None:
                raise ValueError("ambient_dim is required for an empty sum")
            continue
        if any(s.ambient_dim != parts[0].ambient_dim for s in parts):
            raise DimensionMismatch("summands live in different ambient spaces")
        if ambient_dim is not None and ambient_dim != parts[0].ambient_dim:
            raise DimensionMismatch("ambient_dim disagrees with the summands")
        if d is not None and d != parts[0].ambient_dim:
            raise DimensionMismatch("summands live in different ambient spaces")
        d = parts[0].ambient_dim
    # owners[g][c]: the part that column c of group g's stacked basis comes from
    owners = [[i for i, s in enumerate(parts) for _ in range(s.dim)] for parts in groups]
    if len({len(o) for o in owners}) > 1:
        raise ValueError("groups differ in total rank")
    r = len(owners[0]) if owners else 0
    if r == 0:
        return [zero_space(d) for _ in groups]

    stacked = np.array([np.concatenate([s.basis for s in parts], axis=1) for parts in groups])
    gram = stacked.conj().transpose(0, 2, 1) @ stacked
    owner = np.array(owners)
    cross = owner[:, :, None] != owner[:, None, :]  # entries between two parts
    failed = (cross & (abs(gram) > tol)).any(axis=(1, 2))
    if r > d:
        failed[:] = True  # more columns than d: every group loses dimension
    else:
        q, rr = np.linalg.qr(stacked)
        diagonal = abs(np.diagonal(rr, axis1=1, axis2=2))
        failed |= np.any(diagonal <= tol * np.linalg.norm(stacked, axis=1), axis=1)
    if not failed.any():
        return [Subspace(d, basis) for basis in q]
    if len(groups) == 1:
        raise _sum_failure(groups[0], gram[0], tol)
    # A failing group is summed alone, so the first of them raises its own text.
    return [
        subspace_sum(parts, tol, ambient_dim=d) if failed[k] else Subspace(d, q[k])
        for k, parts in enumerate(groups)
    ]


def _sum_failure(parts: list[Subspace], gram: np.ndarray, tol: float) -> NotOrthogonal:
    """The NotOrthogonal a failing direct sum raises: its first pair over tol, else lost dimension."""
    ends = np.cumsum([s.dim for s in parts])
    starts = ends - [s.dim for s in parts]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            overlap = gram[starts[i] : ends[i], starts[j] : ends[j]]
            if overlap.size and float(np.max(abs(overlap))) > tol:
                return NotOrthogonal(
                    f"summands {i} and {j} are not orthogonal "
                    f"(max overlap {float(np.max(abs(overlap))):.3e})"
                )
    return NotOrthogonal("summands overlap: direct-sum dimension lost")


def contains_vector(s: Subspace, v, tol: float | None = None) -> bool:
    """True iff the projection of v onto s leaves v unchanged (relative tol)."""
    tol = resolve_tol(tol)
    vec = v.amplitudes if isinstance(v, StateVector) else _as_complex(v).reshape(-1)
    if vec.shape[0] != s.ambient_dim:
        raise DimensionMismatch(
            f"vector has length {vec.shape[0]}, subspace ambient dim {s.ambient_dim}"
        )
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        return True  # the zero vector belongs to every subspace
    return float(np.linalg.norm(_residual(s.basis, vec))) <= tol * norm


def _residual(basis: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """cols − P cols, where P projects onto span(basis).

    This one product is behind every equality and containment test and
    every meet and join.
    """
    return cols - basis @ (basis.conj().T @ cols)


def _principal(a: Subspace, b: Subspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD R = U·diag(sines)·Vᴴ of a's basis residual R = A − P_b A.

    The singular values are the sines of the principal angles from a to b,
    A·V holds a's matching principal directions, and U holds orthonormal
    directions outside b. Reading the sines from the residual, not as
    √(1 − cos²) from AᴴB, resolves angles far below 1e-8 (Björck & Golub,
    Math. Comp. 27 (1973) 579). Returns (U, sines, V).
    """
    _check_same_dim(a, b)
    u, sines, vh = np.linalg.svd(_residual(b.basis, a.basis), full_matrices=False)
    return u, sines, vh.conj().T


def _residual_sq(basis: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """‖C_k − P C_k‖²_F for each of n equal-width column blocks C_k of cols.

    P projects onto span(basis). With n = cols.shape[1] the blocks are
    single columns.
    """
    residual = np.ascontiguousarray(_residual(basis, cols))
    if not residual.size:
        return np.zeros(n)
    parts = residual.view(float).reshape(residual.shape[0], n, -1)
    return np.einsum("ijk,ijk->j", parts, parts)


def _distances(basis: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """‖P_a − P_b‖_F = √2·‖B − A(AᴴB)‖_F for n bases B of A's rank side by side in cols."""
    return np.sqrt(2.0 * _residual_sq(basis, cols, n))


def _column_passes(basis: np.ndarray, cols: np.ndarray, tol: float) -> np.ndarray:
    """contains_vector's rule, ‖c − P c‖ ≤ tol·‖c‖, for every column c: one bool each."""
    residual = np.sqrt(_residual_sq(basis, cols, cols.shape[1]))
    return residual <= tol * np.linalg.norm(cols, axis=0)


def _columns_in(s: Subspace, cols: np.ndarray, tol: float) -> bool:
    """True iff every column of cols passes contains_vector's rule against s."""
    return bool(np.all(_column_passes(s.basis, cols, tol)))


def contains_subspace(inner: Subspace, outer: Subspace, tol: float | None = None) -> bool:
    """True iff every basis column of inner lies in outer."""
    _check_same_dim(inner, outer)
    return _columns_in(outer, inner.basis, resolve_tol(tol))


def equal_to(s: Subspace, others, tol: float | None = None) -> np.ndarray:
    """``s.equals(o, tol)`` for every o in others, as one bool array.

    Only others of the dimension of s can be equal; their bases are
    tested together in one product. Raises DimensionMismatch when an
    other lives in a different ambient space.
    """
    tol = resolve_tol(tol)
    others = list(others)
    for o in others:
        _check_same_dim(s, o)
    out = np.zeros(len(others), dtype=bool)
    same = [k for k, o in enumerate(others) if o.dim == s.dim]
    if same:
        cols = np.hstack([others[k].basis for k in same])
        out[same] = _distances(s.basis, cols, len(same)) <= tol
    return out


def contained_in(inners, outer: Subspace, tol: float | None = None) -> np.ndarray:
    """``contains_subspace(i, outer, tol)`` for every i in inners, as one bool array.

    All inner bases are tested together in one product; an inner is
    contained when every one of its columns passes. Raises
    DimensionMismatch when an inner lives in a different ambient space.
    """
    tol = resolve_tol(tol)
    inners = list(inners)
    for i in inners:
        _check_same_dim(i, outer)
    if not inners:
        return np.zeros(0, dtype=bool)
    cols = np.hstack([i.basis for i in inners])
    owner = np.repeat(np.arange(len(inners)), [i.dim for i in inners])
    failed = owner[~_column_passes(outer.basis, cols, tol)]
    return np.bincount(failed, minlength=len(inners)) == 0


def is_invariant_under(s: Subspace, p, tol: float | None = None) -> bool:
    """True iff p, a Projector or a sequence of them, maps s into itself.

    An image with norm ≤ tol (columns are unit vectors) counts as the zero
    vector, which lies in every subspace. The images under every projector
    are tested together.
    """
    tol = resolve_tol(tol)
    ps = (p,) if isinstance(p, Projector) else tuple(p)
    if any(q.ambient_dim != s.ambient_dim for q in ps):
        raise DimensionMismatch("subspace and projector dimensions differ")
    images = np.hstack([q.matrix @ s.basis for q in ps])
    return _columns_in(s, images[:, np.linalg.norm(images, axis=0) > tol], tol)


def subspaces_commute(a: Subspace, b: Subspace, tol: float | None = None) -> bool:
    """Lattice-theoretic commutativity: a = (a∧b) ∨ (a∧b^perp).

    The two meets are orthogonal parts of a, so their join is a exactly
    when their dimensions add up to dim a. Agrees with the vanishing of the
    projector commutator; both members of a Boolean block pass, generic
    subspace pairs fail.
    """
    return meet(a, b, tol).dim + meet(a, complement(b), tol).dim == a.dim


def commutator(p, q) -> np.ndarray:
    """PQ - QP for two projectors (or raw square matrices); anti-Hermitian."""
    pm = p.matrix if isinstance(p, Projector) else _as_complex(p)
    qm = q.matrix if isinstance(q, Projector) else _as_complex(q)
    if pm.shape != qm.shape:
        raise DimensionMismatch(f"operand shapes differ: {pm.shape} vs {qm.shape}")
    return pm @ qm - qm @ pm


def _check_same_dim(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
