"""Theta-function embeddings and numerical rank probes for scroll construction.

Genus 1.  An elliptic curve C/(Z + tau*Z) is embedded in P^(m-1) by the m
sections

    s_j(z) = theta[j/m, 0](m*z, m*tau)
           = sum_r exp(pi*i*m*tau*(r + j/m)^2 + 2*pi*i*(r + j/m)*m*z)

for j = 0..m-1.  In this basis z -> z+1 fixes every section and z -> z+tau
multiplies the whole vector by one common analytic factor, so both act
trivially on the projective point; torsion translations act by diagonal
phase times index permutation.

Genus 2.  An abelian surface C^2/(D*Z^2 + Omega*Z^2) with D = diag(1, d) and
a polarization of type (1, d) is embedded (for d >= 5 and generic Omega) by

    s_j(z) = theta[(0, j/d), 0](z, Omega),   j = 0..d-1.

Both are one lattice sum in genus g: s_j(z) = theta[c_j, 0](w, Omega) with
w = s*z, c_j = (0, ..., 0, j/d) and D = diag(1, ..., 1, d).  Genus 1 is g = 1
with s = m, Omega = m*tau and D = (m); genus 2 has s = 1.  A torus point is a
Python complex (genus 1) or a complex128 array (genus 2), so plain + and -
serve both genera.

The sum at w runs over the (2R + 2)^g lattice vectors from k - R - 1 to
k + R, where k = ceil(-y) and y = (Im Omega)^-1 Im w, so every dropped term
lies more than R from the peak at -y in some coordinate (Deconinck, Heil,
Bobenko, van Hoeij, Schmies, Math. Comp. 73, 2004).  The radius R comes from
Im Omega alone, so that each dropped term is below e^-40 (~4e-18) of the peak
term; it is the same at every point and never set by the caller.  The box's
offsets from k and their quadratic term are therefore built once per
embedding, and a point adds only a term linear in the offsets and a constant
before exponentiating.  One call sums any number of points, and that one
exponent array gives both the values and the derivatives.

The probes sample the geometric conditions for smoothness of the scroll swept
out by the spans of torsion translates: fibre points must be independent, two
fibres over points not differing by the subgroup must span independently, and
the section values together with their first derivatives along a fibre must
have full rank (the immersion condition).  Each torus point is evaluated once
per base point and shared by all three probes: a fibre's points, with the
tangent, in one lattice sum and its partner's in another.  Ranks are decided
by singular value ratios with a hard threshold and a gray zone that yields an
"inconclusive" verdict rather than overclaiming, for a block of base points
at a time: one stacked SVD per probe kind.  Everything is deterministic for a
fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

HARD_TOL = 1e-8      # singular value ratio counted as nonzero
GRAY_LOW = 1e-10     # decisive ratio below this: clear rank drop
GRAY_HIGH = 1e-6     # decisive ratio in [GRAY_LOW, GRAY_HIGH]: inconclusive
_TAIL_LOG = 40.0     # truncation keeps relative tails below exp(-_TAIL_LOG)
_MAX_RADIUS = 10_000
_GRID_SIDE = 4       # deterministic coarse grid appended to random samples
_BLOCK = 64          # base points whose rank decisions share one SVD per probe kind
_NEAR_ONE = 4 * np.finfo(float).eps  # a norm this close to 1 is taken as exactly 1

TorusPoint = Union[complex, np.ndarray]


class EvaluationError(RuntimeError):
    """All sections vanished at the requested point."""


class ConfigurationError(ValueError):
    """Embedding parameters unusable for the truncated lattice sum."""


@dataclass(frozen=True)
class ThetaEmbedding:
    """A theta embedding of an elliptic curve (genus 1) or abelian surface.

    period is tau (complex, Im > 0) for genus 1 and a symmetric 2x2 complex
    matrix with positive definite imaginary part for genus 2.  degree is the
    embedding degree m (genus 1) or the d of a type (1, d) polarization
    (genus 2); the section count equals it in both cases.  truncation_radius
    is computed, not set: the lattice-sum cutoff R, from Im(period) alone and
    the same at every point.
    """

    genus: int
    period: object
    degree: int
    truncation_radius: int = field(init=False)

    def __post_init__(self) -> None:
        if self.genus not in (1, 2):
            raise ConfigurationError(f"genus must be 1 or 2, got {self.genus}")
        if self.degree < 3:
            raise ConfigurationError(f"need at least 3 sections, got degree {self.degree}")
        # the period is stored as complex (genus 1) or a complex 2x2 array
        period = complex(self.period) if self.genus == 1 else np.asarray(self.period, dtype=complex)
        if not np.all(np.isfinite(period)):
            raise ConfigurationError("period entries must be finite")
        object.__setattr__(self, "period", period)
        if self.genus == 1:
            if not period.imag > 0:
                raise ConfigurationError(f"Im(tau) must be positive, got {period}")
            scale = self.degree
        elif period.shape != (2, 2) or not np.allclose(period, period.T, atol=1e-14):
            raise ConfigurationError("genus-2 period must be a symmetric 2x2 matrix")
        else:
            scale = 1
        # per-embedding constants of the lattice sum, computed once here
        g = self.genus
        matrix = np.reshape(period, (g, g))
        omega = scale * matrix
        eig_min = float(np.linalg.eigvalsh(omega.imag)[0])
        if eig_min <= 0:
            raise ConfigurationError("Im(period) must be positive definite")
        radius = _radius_for(eig_min)
        side = np.arange(-radius - 1.0, radius + 1.0)
        box = np.stack(np.meshgrid(*[side] * g, indexing="ij")).reshape(g, 1, -1)
        chars = np.zeros((g, self.degree, 1))
        chars[-1, :, 0] = np.arange(self.degree) / self.degree
        offsets = box + chars  # (g, sections, box): lattice vector plus characteristic
        for name, value in (
            ("truncation_radius", radius),
            ("_scale", scale),                              # w = s*z
            ("_period", matrix),                            # z = (D/s)*x + P*y
            ("_steps", np.append(np.ones(g - 1), self.degree) / scale),  # D/s
            ("_inv_imag", np.linalg.inv(matrix.imag)),      # y = (Im P)^-1 Im z
            ("_offsets", offsets.reshape(g, -1)),
            ("_quad", 1j * math.pi * np.einsum("isn,ij,jsn->sn", offsets, omega, offsets)),
        ):
            object.__setattr__(self, name, value)

    @property
    def section_count(self) -> int:
        return self.degree


def elliptic_embedding(m: int, tau: complex) -> ThetaEmbedding:
    return ThetaEmbedding(genus=1, period=tau, degree=m)


def surface_embedding(d: int, omega) -> ThetaEmbedding:
    return ThetaEmbedding(genus=2, period=omega, degree=d)


@dataclass(frozen=True)
class EmbeddedPoint:
    """Projective image of a torus point: unit-norm coordinates and, when a
    tangent direction was supplied, the matching derivative vector (scaled by
    the same factor as the coordinates)."""

    base: TorusPoint
    coords: np.ndarray
    derivative: Optional[np.ndarray] = None


@dataclass(frozen=True)
class TorsionPoint:
    point: TorusPoint
    requested_order: int
    actual_order: int
    exact_order: bool


@dataclass(frozen=True)
class ClusterProbe:
    points: tuple
    expected_rank: int
    observed_rank: int
    margin: float
    verdict: str  # "pass" | "fail" | "inconclusive"


@dataclass(frozen=True)
class ProbeSummary:
    genus: int
    section_count: int
    group_order: int
    samples: int
    seed: int
    probes: int
    passes: int
    fails: int
    inconclusives: int
    min_margin: float


# ---------------------------------------------------------------- lattice sums

def _radius_for(scale: float) -> int:
    """Smallest integer R >= 1 with pi*scale*R^2 >= _TAIL_LOG."""
    radius = math.ceil(math.sqrt(_TAIL_LOG / (math.pi * scale)))
    if radius > _MAX_RADIUS:
        raise ConfigurationError(
            f"truncation radius {radius} exceeds {_MAX_RADIUS}; Im(period) too small"
        )
    return max(radius, 1)


def _section_terms(emb: ThetaEmbedding, points):
    """Box centres k, shape (P, g), and terms, shape (P, sections, box), of
    the lattice sums at P torus points.

    The term exp(pi*i*u^T Omega u + 2*pi*i*u^T w) at u = k + v, v an offset
    of the box, has the exponent pi*i*v^T Omega v (the table _quad) plus
    2*pi*i*v.(Omega*k + w) plus pi*i*k.(Omega*k + 2*w), which is the same for
    every term of the point; Omega*k + w = s*(P*k + z).
    """
    z = np.reshape(np.asarray(points, dtype=complex), (-1, emb.genus))
    centres = np.ceil(-z.imag @ emb._inv_imag)
    shift = emb._scale * (centres @ emb._period + z)
    common = 1j * math.pi * (centres * (shift + emb._scale * z)).sum(axis=1)
    linear = (2j * math.pi * (shift @ emb._offsets)).reshape(-1, *emb._quad.shape)
    exponents = emb._quad + linear + common[:, None, None]
    if exponents.real.max() > 600.0:
        raise ConfigurationError("lattice sum would overflow; move z toward the fundamental domain")
    return centres, np.exp(exponents)


def _derivative_sums(emb: ThetaEmbedding, centres, terms, tangent) -> np.ndarray:
    """d/dz of every section along `tangent`, (P, sections): the factor of each
    term is 2*pi*i*s*(u . tangent)."""
    if tangent is None:
        if emb.genus != 1:
            raise ValueError("genus-2 derivatives need an explicit tangent 2-vector")
        tangent = 1.0
    direction = np.reshape(np.asarray(tangent, dtype=complex), emb.genus)
    slopes = (direction @ emb._offsets).reshape(emb._quad.shape) + (centres @ direction)[:, None, None]
    return 2j * math.pi * emb._scale * (slopes * terms).sum(axis=2)


def _embed(emb: ThetaEmbedding, points: Sequence[TorusPoint], tangent=None) -> tuple:
    """Unit coordinate rows of `points` and, with a tangent, their derivative
    rows divided by the same norms (else None): one lattice sum for all."""
    centres, terms = _section_terms(emb, points)
    raw = terms.sum(axis=2)
    norms = np.array([np.linalg.norm(row) for row in raw])  # the norm normalize takes
    if not norms.all():
        raise EvaluationError(f"all sections vanish at {points[np.flatnonzero(norms == 0)[0]]!r}")
    coords = raw / np.where(np.abs(norms - 1.0) <= _NEAR_ONE, 1.0, norms)[:, None]
    if tangent is None:
        return coords, None
    return coords, _derivative_sums(emb, centres, terms, tangent) / norms[:, None]


def theta_values(emb: ThetaEmbedding, z: TorusPoint) -> np.ndarray:
    """Raw (unnormalized) values of all sections at z."""
    return _section_terms(emb, z)[1].sum(axis=2)[0]


def theta_derivatives(emb: ThetaEmbedding, z: TorusPoint, tangent=None) -> np.ndarray:
    """Term-wise derivative of every section along a tangent direction.

    For genus 1 the direction defaults to 1 (d/dz); for genus 2 it must be a
    complex 2-vector.
    """
    return _derivative_sums(emb, *_section_terms(emb, z), tangent)[0]


def normalize(vector: np.ndarray) -> np.ndarray:
    """Scale to unit Euclidean norm; idempotent to the last bit.

    Vectors already within a few ulps of unit norm are returned unchanged, so
    renormalizing is exactly the identity.
    """
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise EvaluationError("cannot normalize the zero vector")
    return vector if abs(norm - 1.0) <= _NEAR_ONE else vector / norm


def theta_basis_eval(emb: ThetaEmbedding, z: TorusPoint, tangent=None) -> EmbeddedPoint:
    """Projective image of z, optionally with the derivative along tangent.

    The derivative row is divided by the same norm as the coordinates, so the
    pair stays a consistent affine chart of the embedded curve/surface.
    """
    coords, derivatives = _embed(emb, [z], tangent)
    derivative = None if derivatives is None else derivatives[0]
    return EmbeddedPoint(base=z, coords=coords[0], derivative=derivative)


def chordal_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Fubini-Study chordal distance between projective points (unit vectors)."""
    overlap = abs(np.vdot(u, v))
    return math.sqrt(max(0.0, 1.0 - min(overlap, 1.0) ** 2))


def projective_residual(u: np.ndarray, v: np.ndarray) -> float:
    """Norm of u - e^(i*phi)*v at the optimal phase, for unit vectors.

    Unlike chordal_distance this has no cancellation floor near zero, so it
    can certify agreement well below 1e-8.
    """
    overlap = np.vdot(v, u)
    if overlap == 0:
        return math.sqrt(2.0)
    phase = overlap / abs(overlap)
    return float(np.linalg.norm(u - phase * v))


# ------------------------------------------------------------- torus geometry

def _lattice_coords(emb: ThetaEmbedding, points) -> np.ndarray:
    """Real coordinates (x, y) of each point, z = (D/s)*x + P*y: one row of
    length 2*genus per point."""
    z = np.reshape(np.asarray(points, dtype=complex), (-1, emb.genus))
    y = z.imag @ emb._inv_imag
    return np.concatenate([(z.real - y @ emb._period.real) / emb._steps, y], axis=1)


def _point_from_coords(emb: ThetaEmbedding, coords: np.ndarray) -> TorusPoint:
    """The torus point with lattice coordinates `coords` (length 2*genus)."""
    g = emb.genus
    z = emb._steps * coords[:g] + emb._period @ coords[g:]
    return complex(z[0]) if g == 1 else z


def _distances(emb: ThetaEmbedding, points) -> np.ndarray:
    """Max-norm distance from each point to the period lattice, in lattice coordinates."""
    coords = _lattice_coords(emb, points)
    return np.max(np.abs(coords - np.round(coords)), axis=1)


def lattice_distance(emb: ThetaEmbedding, z: TorusPoint) -> float:
    """Max-norm distance from z to the period lattice, in lattice coordinates."""
    return float(_distances(emb, z)[0])


def reduce_mod_lattice(emb: ThetaEmbedding, z: TorusPoint) -> TorusPoint:
    return _point_from_coords(emb, np.mod(_lattice_coords(emb, z)[0], 1.0))


def torsion_point(emb: ThetaEmbedding, a, b, order: int) -> TorsionPoint:
    """The torsion point (a + b*period)/order, with an exact-order flag.

    For genus 1, a and b are integers; for genus 2, integer pairs (components
    in the lattice basis D*Z^2 + Omega*Z^2).  Components are reduced mod
    `order` exactly, which moves the point by a lattice vector only.  The flag
    is true iff the point has order exactly `order`, i.e. gcd of all
    components with order is 1.
    """
    if order == 0:
        raise ValueError("torsion order must be nonzero")
    order = abs(order)
    components = [int(c) % order for c in np.ravel((a, b))]
    if len(components) != 2 * emb.genus:
        raise ValueError(f"genus-{emb.genus} torsion needs {2 * emb.genus} integer components")
    try:
        point = _point_from_coords(emb, np.array(components, dtype=float)) / order
    except OverflowError:
        raise ValueError("torsion order exceeds the floating-point range") from None
    g = math.gcd(*components, order)
    return TorsionPoint(
        point=point, requested_order=order, actual_order=order // g, exact_order=g == 1
    )


def _check_group_order(emb: ThetaEmbedding, order: int) -> None:
    """Refuse a subgroup order too large for the immersion probe's 2k rows."""
    if 2 * order > emb.section_count - 1:
        raise ValueError(
            f"group order {order} too large for {emb.section_count} sections: "
            "the immersion probe needs 2k <= section_count - 1"
        )


def cyclic_group(emb: ThetaEmbedding, generator: TorusPoint, order: int) -> list:
    """The cyclic subgroup {0, g, 2g, ...} of the given order, as torus points."""
    if order < 1:
        raise ValueError("group order must be positive")
    points = [_point_from_coords(emb, np.zeros(2 * emb.genus))]
    for _ in range(1, order):
        points.append(points[-1] + generator)
    return points


def _check_group(emb: ThetaEmbedding, group: Sequence[TorusPoint], tol: float = 1e-12) -> None:
    for p in group:
        sums = _distances(emb, [p + q - r for q in group for r in group])
        if sums.reshape(len(group), -1).min(axis=1).max() > tol:
            raise ValueError("point set is not closed under addition modulo the lattice")


# -------------------------------------------------------------------- probes

def _rank(stack, tol: float) -> list:
    """Singular value ratios, rank and margin of each matrix of a stack
    (B, rows, n), its rows normalized first: the one rank decision behind
    span_rank and every cluster probe.  A member with a zero row cannot be
    decided and gives None; one SVD call covers all the others.  A tol
    outside (0, 1), nan included, cannot tell a rank drop from full rank, so
    it is refused."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    matrices = np.asarray(stack, dtype=complex)
    if matrices.ndim != 3 or matrices.shape[1] == 0:
        raise ValueError("need a nonempty 2-d stack of vectors")
    norms = np.linalg.norm(matrices, axis=-1)
    usable = np.all(norms != 0.0, axis=-1)
    decided = [None] * len(matrices)
    if usable.any():
        singular = np.linalg.svd(matrices[usable] / norms[usable][..., None], compute_uv=False)
        for member, values in zip(np.flatnonzero(usable), singular):
            ratios = values / values[0]
            rank = int(np.count_nonzero(ratios >= tol))
            decided[member] = (ratios, rank, float(ratios[rank - 1]) if rank else 0.0)
    return decided


def _rank_one(vectors, tol: float, error: type):
    """_rank of a single matrix; a zero row raises `error`."""
    decided = _rank([vectors], tol)[0]
    if decided is None:
        raise error("zero vectors are not allowed in rank probes")
    return decided


def span_rank(vectors, tol: float = HARD_TOL):
    """Numerical rank and margin of a set of coordinate vectors.

    Rows are normalized to unit norm, then rank = number of singular values
    with sigma_i/sigma_1 >= tol and margin = (smallest counted)/sigma_1.
    """
    _, rank, margin = _rank_one(vectors, tol, ValueError)
    return rank, margin


def _verdict(ratios, observed: int, expected_rank: int) -> str:
    """Pass, fail or inconclusive, from the decisive ratio at expected_rank."""
    decisive = float(ratios[expected_rank - 1]) if expected_rank <= len(ratios) else 0.0
    if GRAY_LOW <= decisive <= GRAY_HIGH:
        return "inconclusive"
    if decisive > GRAY_HIGH and observed == expected_rank:
        return "pass"
    return "fail"


def _cluster_probe(points, vectors, expected_rank: int, tol: float) -> ClusterProbe:
    ratios, observed, margin = _rank_one(vectors, tol, EvaluationError)
    return ClusterProbe(
        points=tuple(points),
        expected_rank=expected_rank,
        observed_rank=observed,
        margin=margin,
        verdict=_verdict(ratios, observed, expected_rank),
    )


def _rows(embedded, with_derivatives: bool = False) -> list:
    rows = [p.coords for p in embedded]
    return rows + [p.derivative for p in embedded] if with_derivatives else rows


def fibre_independence_probe(
    emb: ThetaEmbedding, group: Sequence[TorusPoint], base: TorusPoint, tol: float = HARD_TOL
) -> ClusterProbe:
    """Check that the translates of one point by the subgroup embed to |G|
    independent points (base-point freeness of the scroll's fibres)."""
    _check_group(emb, group)
    embedded = [theta_basis_eval(emb, base + rho) for rho in group]
    return _cluster_probe(embedded, _rows(embedded), len(group), tol)


def very_ampleness_cluster_probe(
    emb: ThetaEmbedding,
    points: Sequence[TorusPoint],
    with_derivatives: bool,
    tangent=None,
    tol: float = HARD_TOL,
) -> ClusterProbe:
    """Rank probe for a sampled cluster.

    Without derivatives the cluster is the listed points and the probe checks
    that their coordinate vectors are independent.  With derivatives the
    cluster doubles each listed point infinitesimally: the probe stacks the
    value vectors z_i and the derivative vectors z_i' along `tangent` and
    checks for rank 2*len(points); a drop detects a non-immersive direction.
    """
    length = len(points) * (2 if with_derivatives else 1)
    if length > emb.section_count - 1:
        raise ValueError(
            f"cluster length {length} exceeds section_count-1 = {emb.section_count - 1}; "
            "independence is not expected"
        )
    if not with_derivatives:
        tangent = None
    elif tangent is None:
        tangent = np.eye(emb.genus)[0]  # along the first coordinate
    embedded = [theta_basis_eval(emb, p, tangent=tangent) for p in points]
    return _cluster_probe(embedded, _rows(embedded, with_derivatives), length, tol)


def _pair_offset(emb: ThetaEmbedding, group: Sequence[TorusPoint]) -> TorusPoint:
    """Deterministic offset whose difference from every group element stays
    away from the lattice, used to pair grid points into two-fibre clusters."""
    for t in range(64):
        coords = [(0.351 + 0.1733 * t) % 1.0, (0.273 + 0.1411 * t) % 1.0] * emb.genus
        offset = _point_from_coords(emb, np.array(coords))
        if _distances(emb, [offset - r for r in group]).min() > 1e-2:
            return offset
    raise ConfigurationError("could not find a pairing offset away from the subgroup")


def _random_point(emb: ThetaEmbedding, rng: np.random.Generator) -> TorusPoint:
    return _point_from_coords(emb, rng.random(2 * emb.genus))


def _grid_points(emb: ThetaEmbedding) -> list:
    offsets = [(i + 0.5) / _GRID_SIDE for i in range(_GRID_SIDE)]
    return [
        _point_from_coords(emb, np.array([x, y, y, x][: 2 * emb.genus]))
        for x in offsets
        for y in offsets
    ]


def scroll_smoothness_probe(
    emb: ThetaEmbedding,
    group: Sequence[TorusPoint],
    samples: int,
    seed: int,
    tol: float = HARD_TOL,
) -> ProbeSummary:
    """Sampled evidence for smoothness of the scroll defined by (emb, group).

    At each of `samples` seeded random base points plus a fixed coarse grid,
    runs the fibre independence probe, the two-fibre span probe (partner point
    kept away from the subgroup translates), and the derivative (immersion)
    probe.  Evaluation errors count as inconclusive; the summary is
    deterministic for fixed inputs.  Bases are evaluated one by one, and their
    ranks are decided in blocks of _BLOCK bases, one stacked SVD per probe kind.
    """
    if samples < 0:
        raise ValueError("samples must be non-negative")
    k = len(group)
    _check_group_order(emb, k)
    _check_group(emb, group)
    rng = np.random.default_rng(seed)
    grid = _grid_points(emb)
    randoms = [_random_point(emb, rng) for _ in range(samples)]
    offset = _pair_offset(emb, group)

    verdicts = {"pass": 0, "fail": 0, "inconclusive": 0}
    margins = []
    bases = randoms + grid
    for start in range(0, len(bases), _BLOCK):
        block = []
        for index in range(start, min(start + _BLOCK, len(bases))):
            base = bases[index]
            partner = _draw_partner(emb, group, base, rng, offset) if index < samples else base + offset
            if emb.genus == 1:
                tangent: object = 1.0
            else:
                raw = rng.normal(size=2) + 1j * rng.normal(size=2)
                tangent = raw / np.linalg.norm(raw)
            try:
                block.append(_base_rows(emb, group, base, partner, tangent))
            except (EvaluationError, ConfigurationError):
                verdicts["inconclusive"] += 1
        # a base with missing rows or a zero row counts one inconclusive and
        # gets no later probe; the probes before it stand
        for kind, expected in enumerate((k, 2 * k, 2 * k)):
            outcomes = _decide([rows[kind] for rows in block], tol)
            for outcome in outcomes:
                if outcome is None:
                    verdicts["inconclusive"] += 1
                else:
                    ratios, observed, margin = outcome
                    verdicts[_verdict(ratios, observed, expected)] += 1
                    margins.append(margin)
            block = [rows for rows, outcome in zip(block, outcomes) if outcome is not None]
    return ProbeSummary(
        genus=emb.genus,
        section_count=emb.section_count,
        group_order=k,
        samples=samples,
        seed=seed,
        probes=sum(verdicts.values()),
        passes=verdicts["pass"],
        fails=verdicts["fail"],
        inconclusives=verdicts["inconclusive"],
        min_margin=float(min(margins)) if margins else float("nan"),
    )


def _base_rows(emb, group, base, partner, tangent) -> tuple:
    """Rows of a base's fibre, two-fibre and immersion probes: the fibre's
    points, with derivatives along `tangent`, in one lattice sum and the
    partner's points in another.  The last two are None when the partners
    fail to evaluate, and the partners are not evaluated when a zero row (an
    overflowed norm) leaves the fibre probe undecided."""
    fibre, derivatives = _embed(emb, [base + rho for rho in group], tangent)
    if not np.all(np.linalg.norm(fibre, axis=-1)):
        return fibre, None, None
    try:
        partners, _ = _embed(emb, [partner + rho for rho in group])
    except (EvaluationError, ConfigurationError):
        return fibre, None, None
    return fibre, np.concatenate([fibre, partners]), np.concatenate([fibre, derivatives])


def _decide(stacks: list, tol: float) -> list:
    """_rank of each entry of `stacks` in one call; None where the entry is
    None or holds a zero row."""
    present = [rows for rows in stacks if rows is not None]
    decided = iter(_rank(present, tol) if present else ())
    return [None if rows is None else next(decided) for rows in stacks]


def _draw_partner(emb, group, base, rng, offset, attempts: int = 32) -> TorusPoint:
    for _ in range(attempts):
        candidate = _random_point(emb, rng)
        if _distances(emb, [candidate - base - r for r in group]).min() > 1e-3:
            return candidate
    return base + offset
