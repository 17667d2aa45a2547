"""Two-parameter evolution systems from time-dependent generator families.

A GeneratorFamily is a continuous, time-periodic map t -> A(t) of
dissipative matrices on [0, T] that broadcasts over time, so a whole
grid of generators comes from one call.  build_evolution freezes the
family on a uniform grid and forms the time-ordered product of the
frozen-coefficient exponentials,

    R(t, s) = S_k(t - t_k) S_{k-1}(h) ... S_{l+1}(h) S_l(t_{l+1} - s),

where S_j(a) = exp(a A(t_j + h/2)) acts on the cell [t_j, t_{j+1}): each
cell's generator is frozen at its midpoint, the cell's tag (cell_tags),
which makes the product the exponential midpoint rule, the second-order
Magnus integrator.  A partial piece of a cell takes the whole cell's
tag, so the cocycle law below holds exactly inside a cell too.  Each build
computes the n whole-cell steps S_j(h) with one stacked exponential call;
the n + 1 prefix products R(t_k, 0) are formed together the first time a
query reads one.  Every query goes through one batched pair kernel,
EvolutionSystem.operators, which returns R(t_i, s_i) for a whole array
of pairs with one stacked exponential for all their partial cells;
operator, apply, step_operators and the audits below are its callers.
The result is an exact evolution system for the piecewise-frozen family:
it satisfies the cocycle identity R(t, s) = R(t, r) R(r, s) for every
s <= r <= t up to roundoff, and converges to the evolution system of the
continuous family at order ORDER in 1/n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    InvalidInputError,
    PreconditionError,
    ResourceLimitError,
)
from .linop import as_matrix, as_vector, mat_exp
from .semigroup import metric_cholesky, metric_operator_norm

MAX_SUBDIVISION = 2 ** 14

# the product's convergence order in 1/n; every refinement check reads it
ORDER = 2

# queries within this distance of a grid node are treated as on-node
SNAP = 1e-12

# composite Gauss-Legendre rule of family_continuity_gap: GAP_POINTS nodes
# on each of GAP_CELLS equal cells of [0, T]
GAP_CELLS = 64
GAP_POINTS = 8
# family_continuity_gap starts its pairs at about this many nodes
GAP_STARTS = 64
# off-grid (t, s) pairs of contraction_check
CONTRACTION_SAMPLES = 64


@dataclass(frozen=True)
class GeneratorFamily:
    """Time-dependent generator family on [0, T].

    dim: state dimension
    A: map t -> A(t), continuous on [0, T] and broadcasting over time: a
       scalar t gives the (dim, dim) matrix, a 1-d array ts gives the
       (len(ts), dim, dim) stack whose slice i equals A(ts[i]) exactly
    T: period (length of the time window)
    metric: SPD matrix of the inner product the family is dissipative in
       (None = Euclidean); every rate is computed in it, where it is read

    Construction checks both shapes, A(0) and the stack A([0, T]), and
    raises InvalidInputError for a family that ignores an array t.
    """

    dim: int
    A: Callable[[float], np.ndarray]
    T: float
    metric: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInputError("dimension must be >= 1")
        if not (np.isfinite(self.T) and self.T > 0):
            raise InvalidInputError("period T must be positive and finite")
        if self.metric is not None:
            object.__setattr__(self, "metric", as_matrix(self.metric))
            metric_cholesky(self.metric)
        A0 = as_matrix(self.A(0.0))
        if A0.shape != (self.dim, self.dim):
            raise InvalidInputError(
                f"A(0) has shape {A0.shape}, expected ({self.dim}, {self.dim})"
            )
        self.stack(np.array([0.0, self.T]))

    def stack(self, ts) -> np.ndarray:
        """The generators at the 1-d times ts as one (len(ts), dim, dim) stack.

        One call A(ts); raises InvalidInputError if it has any other shape.
        """
        ts = np.asarray(ts, dtype=float)
        out = np.asarray(self.A(ts), dtype=float)
        want = (ts.size, self.dim, self.dim)
        if out.shape != want:
            raise InvalidInputError(
                f"A(ts) for {ts.size} times has shape {out.shape}, expected {want}"
            )
        return out


def affine_family(family: GeneratorFamily, a: float = 1.0,
                  B: Callable[[float], np.ndarray] | None = None) -> GeneratorFamily:
    """The family t -> a (A(t) + B(t)) for a >= 0, or t -> a A(t) without B.

    B broadcasts over time like A, or is one (dim, dim) matrix for all t.
    The result keeps the family's metric.
    """
    if a < 0 or not np.isfinite(a):
        raise InvalidInputError("scale factor must be nonnegative and finite")
    base = family.A
    if B is None:
        A = lambda t: a * base(t)
    else:
        A = lambda t: a * (base(t) + np.asarray(B(t), dtype=float))
    return GeneratorFamily(dim=family.dim, A=A, T=family.T, metric=family.metric)


@dataclass(frozen=True)
class EvolutionSystem:
    """Frozen-coefficient product evolution system on [0, T].

    The defining data never change once built, and queries are pure.
    The step exponentials are computed at build time and the prefix
    products R(t_k, 0) the first time a query reads one.  operators(t, s)
    answers every query for a batch of pairs at once: R(t_k, 0) is a
    prefix lookup, and any other pair multiplies its whole steps and at
    most two partial cells.  operator(t, s) is its one-pair case and
    apply(t, s, x) is x @ operator(t, s)^T.
    """

    family: GeneratorFamily
    n: int
    nodes: np.ndarray
    steps: np.ndarray        # steps[j] = exp(h A(t_j + h/2)), the cell's tag

    @property
    def T(self) -> float:
        return self.family.T

    @property
    def dim(self) -> int:
        return self.family.dim

    @property
    def h(self) -> float:
        return self.family.T / self.n

    @cached_property
    def prefix(self) -> np.ndarray:
        """The read-only (n + 1, d, d) stack prefix[k] = R(t_k, 0).

        Formed once, by the recurrence prefix[k + 1] = steps[k] @ prefix[k].
        Raises InvalidInputError, and caches nothing, when a product is not
        finite.
        """
        P = np.empty((self.n + 1, self.dim, self.dim))
        P[0] = np.eye(self.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            for step, cur, nxt in zip(self.steps, P[:-1], P[1:]):
                np.matmul(step, cur, out=nxt)
        if not np.all(np.isfinite(P)):
            raise InvalidInputError(f"a product R(t_j, 0), j <= {self.n}, overflows")
        P.flags.writeable = False
        return P

    def operators(self, t, s) -> np.ndarray:
        """The stack of R(t_i, s_i) over the broadcast arrays t and s.

        Returns shape broadcast_shapes(t, s) + (d, d); scalars give one
        matrix.  Raises InvalidInputError for a non-finite time and
        PreconditionError unless 0 <= s <= t <= T (within the snap).

        Times are clamped to [0, T] and located on the grid with one
        searchsorted; a time within SNAP * max(1, T) of a node is on it.
        A pair with t - s inside the snap is exactly I, and R(t_k, 0) is
        prefix[k]; a batch with no such pair leaves the prefix unformed.
        Any other pair covers grid cells j0..j1, whole cells come from
        steps, and only its first piece (starting off a node) and last
        piece (ending off a node) are partial: their generators, at the
        tags of their cells, come from one stack call on the distinct
        cells and their exponentials from one stacked mat_exp.  The
        pieces multiply onto the stack one position at a time, left to
        right, so every slice is the same product the cell-by-cell walk
        forms.
        """
        nodes, T, d = self.nodes, self.T, self.dim
        tol = SNAP * max(1.0, T)
        t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
        shape = t.shape
        t, s = t.ravel(), s.ravel()
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(s))):
            raise InvalidInputError("times must be finite")
        bad = np.flatnonzero((s < -tol) | (t > T + tol) | (t - s < -tol))
        if bad.size:
            i = bad[0]
            raise PreconditionError(
                f"need 0 <= s <= t <= T, got s={s[i]}, t={t[i]}, T={T}"
            )
        s, t = np.clip(s, 0.0, T), np.clip(t, 0.0, T)
        # k: first node >= time - tol; the time is on node k when within tol
        ks, kt = np.searchsorted(nodes, s - tol), np.searchsorted(nodes, t - tol)
        s_on, t_on = nodes[ks] <= s + tol, nodes[kt] <= t + tol
        E = np.broadcast_to(np.eye(d), (len(s), d, d)).copy()
        ident = t - s <= tol
        from_prefix = ~ident & (s <= tol) & t_on
        k = kt[from_prefix]
        if k.size:
            E[from_prefix] = self.prefix[k]
        cell = np.flatnonzero(~ident & ~from_prefix)
        s_on, t = s_on[cell], t[cell]
        j0 = ks[cell] - ~s_on            # an off-node start lies in cell k - 1
        cur0 = np.where(s_on, nodes[j0], s[cell])
        live = cur0 < t - tol            # else no piece is left: identity
        cell, s_on, t, j0, cur0 = cell[live], s_on[live], t[live], j0[live], cur0[live]
        j1 = kt[cell] - 1
        pieces = j1 - j0 + 1
        end1 = np.minimum(nodes[j1 + 1], t)
        end_whole = np.abs(end1 - nodes[j1 + 1]) <= tol
        first_part = ~(s_on & ((pieces > 1) | end_whole))
        last_part = (pieces > 1) & ~end_whole
        part_nodes = np.concatenate([j0[first_part], j1[last_part]])
        part_lengths = np.concatenate([
            (np.minimum(nodes[j0 + 1], t) - cur0)[first_part],
            (end1 - nodes[j1])[last_part],
        ])
        P = self.steps[j0]
        last = np.empty((len(cell), d, d))
        if part_nodes.size:
            uniq, inverse = np.unique(part_nodes, return_inverse=True)
            gens = self.family.stack(cell_tags(T, self.n)[uniq])
            partial = mat_exp(gens[inverse] * part_lengths[:, None, None])
            nf = np.count_nonzero(first_part)
            P[first_part] = partial[:nf]
            last[last_part] = partial[nf:]
        for p in range(1, int(pieces.max(initial=0))):
            c = np.flatnonzero(pieces > p)
            F = self.steps[j0[c] + p]
            tail = last_part[c] & (pieces[c] == p + 1)
            F[tail] = last[c[tail]]
            P[c] = F @ P[c]
        E[cell] = P
        return E.reshape(shape + (d, d))

    def operator(self, t: float, s: float) -> np.ndarray:
        """The matrix R(t, s), 0 <= s <= t <= T: the one-pair operators call.

        R(t, t) is exactly I.
        """
        return self.operators(t, s)

    def apply(self, t: float, s: float, x) -> np.ndarray:
        """R(t, s) applied to a vector (d,) or a batch (..., d): x @ R(t, s)^T."""
        M = self.operator(t, s)
        v = np.asarray(x, dtype=float)
        if v.shape[-1] != self.dim:
            raise InvalidInputError("state dimension mismatch")
        return v @ M.T

    def step_operators(self, times: np.ndarray) -> np.ndarray:
        """Read-only stack E_i = R(times[i+1], times[i]) for an increasing array.

        It is operators(times[1:], times[:-1]); on the system's own nodes
        it equals steps bit for bit.
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
            raise InvalidInputError("times must be strictly increasing, length >= 2")
        E = self.operators(times[1:], times[:-1])
        E.flags.writeable = False
        return E


def uniform_nodes(T: float, m: int) -> np.ndarray:
    """The m + 1 uniform nodes of [0, T]; ResourceLimitError for m > MAX_SUBDIVISION."""
    if m > MAX_SUBDIVISION:
        raise ResourceLimitError(f"subdivision {m} of [0, T] exceeds {MAX_SUBDIVISION}")
    return np.linspace(0.0, T, m + 1)


def cell_tags(T: float, n: int) -> np.ndarray:
    """The n times t_j + h/2, h = T/n, at which the product freezes each cell.

    Every frozen generator of build_evolution's steps, of the partial
    pieces of EvolutionSystem.operators and of the audits that must see
    the same generators is read at these times.
    """
    return uniform_nodes(T, n)[:-1] + 0.5 * (T / n)


def build_evolution(family: GeneratorFamily, n: int) -> EvolutionSystem:
    """Build the frozen-coefficient product system at subdivision n.

    The n cell generators come from one call A(cell_tags(T, n)) and are
    exponentiated by a single stacked mat_exp call with time h; the
    steps equal the cell-by-cell exponentials bit for bit.  No prefix
    product is formed here: the system forms them when a query reads one.

    Raises ResourceLimitError for n > 2^14 and InvalidInputError for
    n < 1, for a stack that is not (n, d, d), for a non-finite generator
    or for a step exponential that overflows.
    """
    if n < 1:
        raise InvalidInputError("subdivision n must be >= 1")
    nodes = uniform_nodes(family.T, n)
    steps = mat_exp(family.stack(cell_tags(family.T, n)), family.T / n)
    if not np.all(np.isfinite(steps)):
        raise InvalidInputError(f"a step exp(h A(t_j + h/2)) overflows at subdivision n = {n}")
    return EvolutionSystem(family=family, n=n, nodes=nodes, steps=steps)


def cocycle_defect(R: EvolutionSystem, t, r, s):
    """||R(t, s) - R(t, r) R(r, s)|| in the spectral norm, for s <= r <= t.

    t, r and s broadcast: scalars give a float, arrays the array of
    defects, all from one operators call.
    """
    t, r, s = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (t, r, s)))
    bad = np.flatnonzero(~((s <= r + SNAP) & (r <= t + SNAP)))
    if bad.size:
        i = np.unravel_index(bad[0], t.shape)
        raise PreconditionError(f"need s <= r <= t, got {s[i]}, {r[i]}, {t[i]}")
    whole, left, right = R.operators(np.stack([t, t, r]), np.stack([s, r, s]))
    defect = np.linalg.norm(whole - left @ right, 2, axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect


def contraction_check(R: EvolutionSystem, omega: float) -> float:
    """Max excess of ||R(t, s)||_G e^{omega (t - s)} - 1 over sampled (t, s).

    A nonpositive result certifies the sampled exponential contraction
    bound in the family's metric.  The samples are CONTRACTION_SAMPLES
    deterministic off-grid pairs plus the pairs of every (n // 8)-th node.
    """
    G = R.family.metric if R.family.metric is not None else np.eye(R.dim)
    # golden-ratio and sqrt(2) sequences: deterministic, fill (0, T)^2 off the grid
    i = np.arange(1, CONTRACTION_SAMPLES + 1)
    a = (i * ((np.sqrt(5.0) - 1.0) / 2.0)) % 1.0 * R.T
    b = (i * np.sqrt(2.0)) % 1.0 * R.T
    nodes = R.nodes[::max(1, R.n // 8)]
    lo, hi = np.triu_indices(len(nodes), 1)
    t = np.concatenate([np.maximum(a, b), nodes[hi]])
    s = np.concatenate([np.minimum(a, b), nodes[lo]])
    nrm = metric_operator_norm(R.operators(t, s), G)
    return float(np.max(nrm * np.exp(omega * (t - s)) - 1.0, initial=-np.inf))


def family_continuity_gap(F1: GeneratorFamily, perturbed: Sequence[GeneratorFamily],
                          n: int, v) -> list[tuple[float, float]]:
    """Compare evolution systems against the integrated generator gap.

    Returns one (lhs, rhs) per family F2 in perturbed, with
        lhs = max over sampled grid pairs (t, s) of ||R1(t, s) v - R2(t, s) v||,
        rhs = ||v||_V * integral_0^T ||A1(r) - A2(r)|| dr,
    where ||v||_V = ||A1(0) v|| + ||v|| and the integrand is the spectral
    norm (an upper bound for the V -> E norm, so the comparison is
    conservative).  For dissipative families lhs <= rhs.  The system R1
    of F1 is built once for all of them.

    The integral is a composite Gauss-Legendre rule: GAP_POINTS nodes on
    each of GAP_CELLS equal cells of [0, T], so each family is evaluated
    by one stack(ts) call.  It has degree 2 * GAP_POINTS - 1 on every
    cell; kinks of the norm that fall on cell edges (such as those of
    |cos(2 pi r / T)| at the quarter periods) cost no accuracy.

    The max is taken over the pairs whose start node is a multiple of
    max(1, n // GAP_STARTS); values of R are exact at every visited node.  All
    start nodes advance together, one batched product per step.
    Raises InvalidInputError for an empty perturbed sequence.
    """
    perturbed = list(perturbed)
    if not perturbed:
        raise InvalidInputError("need at least one perturbed family")
    for F2 in perturbed:
        if abs(F1.T - F2.T) > SNAP or F1.dim != F2.dim:
            raise PreconditionError("families must share period and dimension")
    x = as_vector(v, F1.dim)
    R1 = build_evolution(F1, n)
    stride = max(1, n // GAP_STARTS)
    starts = range(0, n, stride)
    norm_v = float(np.linalg.norm(np.asarray(F1.A(0.0)) @ x) + np.linalg.norm(x))
    nodes, weights = leggauss(GAP_POINTS)
    width = F1.T / GAP_CELLS
    rs = width * (np.arange(GAP_CELLS)[:, None] + 0.5 * (nodes + 1.0)).ravel()
    ws = np.tile(0.5 * width * weights, GAP_CELLS)
    A1s = F1.stack(rs)

    gaps = []
    for F2 in perturbed:
        R2 = build_evolution(F2, n)
        # row i of W[0] (W[1]) follows R1 (R2) from node starts[i]; the
        # starts ascend, so the rows under way at step j are a prefix
        steps_T = np.stack([R1.steps, R2.steps], axis=1).swapaxes(-1, -2)
        W = np.broadcast_to(x, (2, len(starts), F1.dim)).copy()
        lhs = 0.0
        for j in range(n):
            c = j // stride + 1
            W[:, :c] = W[:, :c] @ steps_T[j]
            lhs = max(lhs, float(np.max(np.linalg.norm(W[0, :c] - W[1, :c], axis=-1))))
        total = ws @ np.linalg.norm(A1s - F2.stack(rs), 2, axis=(1, 2))
        gaps.append((lhs, norm_v * float(total)))
    return gaps
