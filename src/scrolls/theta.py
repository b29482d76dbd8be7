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

All lattice sums are truncated so that the discarded tail is below e^-40
(~4e-18) of the largest retained term, input-dependently; one exponent
matrix per point gives both the values and the derivative.

The probes sample the geometric conditions for smoothness of the scroll swept
out by the spans of torsion translates: fibre points must be independent, two
fibres over points not differing by the subgroup must span independently, and
the section values together with their first derivatives along a fibre must
have full rank (the immersion condition).  Each torus point is evaluated once
per base point and shared by all three probes.  Ranks are decided by singular
value ratios with a hard threshold and a gray zone that yields an
"inconclusive" verdict rather than overclaiming; everything is deterministic
for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

HARD_TOL = 1e-8      # singular value ratio counted as nonzero
GRAY_LOW = 1e-10     # decisive ratio below this: clear rank drop
GRAY_HIGH = 1e-6     # decisive ratio in [GRAY_LOW, GRAY_HIGH]: inconclusive
_TAIL_LOG = 40.0     # truncation keeps relative tails below exp(-_TAIL_LOG)
_MAX_RADIUS = 10_000
_GRID_SIDE = 4       # deterministic coarse grid appended to random samples

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
    is the lattice-sum cutoff at the origin; evaluation widens it per point.
    """

    genus: int
    period: object
    degree: int
    truncation_radius: int = 0

    def __post_init__(self) -> None:
        if self.genus not in (1, 2):
            raise ConfigurationError(f"genus must be 1 or 2, got {self.genus}")
        if self.degree < 3:
            raise ConfigurationError(f"need at least 3 sections, got degree {self.degree}")
        # per-embedding constants of the lattice sums, computed once here
        if self.genus == 1:
            tau = complex(self.period)
            if not tau.imag > 0:
                raise ConfigurationError(f"Im(tau) must be positive, got {tau}")
            base_scale = self.degree * tau.imag
            object.__setattr__(self, "_chars", (np.arange(self.degree) / self.degree)[:, None])
        else:
            omega = np.asarray(self.period, dtype=complex)
            if omega.shape != (2, 2) or not np.allclose(omega, omega.T, atol=1e-14):
                raise ConfigurationError("genus-2 period must be a symmetric 2x2 matrix")
            eigs = np.linalg.eigvalsh(omega.imag)
            if eigs[0] <= 0:
                raise ConfigurationError("Im(period) must be positive definite")
            object.__setattr__(self, "period", omega)
            base_scale = float(eigs[0])
            chars = np.zeros((self.degree, 2))
            chars[:, 1] = np.arange(self.degree) / self.degree
            object.__setattr__(self, "_eig_min", base_scale)
            object.__setattr__(self, "_chars", chars[:, None, :])
        radius = _radius_for(base_scale, 0.0)
        if radius > self.truncation_radius:
            object.__setattr__(self, "truncation_radius", radius)

    @property
    def section_count(self) -> int:
        return self.degree


def elliptic_embedding(m: int, tau: complex) -> ThetaEmbedding:
    return ThetaEmbedding(genus=1, period=complex(tau), degree=m)


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

def _radius_for(scale: float, offset: float) -> int:
    """Smallest integer R with pi*scale*(R - offset)^2 >= _TAIL_LOG and R > offset."""
    if scale <= 0:
        raise ConfigurationError("period imaginary part must be positive")
    radius = math.ceil(offset + math.sqrt(_TAIL_LOG / (math.pi * scale)))
    if radius > _MAX_RADIUS:
        raise ConfigurationError(
            f"truncation radius {radius} exceeds {_MAX_RADIUS}; Im(period) too small"
        )
    return max(radius, 1)


def _genus1_exponents(emb: ThetaEmbedding, z: complex):
    """Index offsets u = r + j/m and exponent matrix, one row per section."""
    m = emb.degree
    w = m * z
    big_tau = m * complex(emb.period)
    y = big_tau.imag
    offset = abs(w.imag) / y
    radius = max(_radius_for(y, offset), emb.truncation_radius)
    center = -w.imag / y
    r = np.arange(math.ceil(center - radius), math.floor(center + radius) + 1)
    u = r[None, :] + emb._chars
    exponents = 1j * math.pi * big_tau * u * u + 2j * math.pi * u * w
    if exponents.real.max() > 600.0:
        raise ConfigurationError("lattice sum would overflow; move z toward the fundamental domain")
    return u, exponents


def _genus2_exponents(emb: ThetaEmbedding, z: np.ndarray):
    omega = emb.period
    center = -np.linalg.solve(omega.imag, z.imag)
    radius = max(_radius_for(emb._eig_min, float(np.linalg.norm(center))), emb.truncation_radius)
    lo = np.ceil(center - radius - 1).astype(int)
    hi = np.floor(center + radius + 1).astype(int)
    r1, r2 = np.meshgrid(
        np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1), indexing="ij"
    )
    lattice = np.stack([r1.ravel(), r2.ravel()], axis=1).astype(float)
    # u has shape (d, npoints, 2): lattice vector plus characteristic per section
    u = lattice[None, :, :] + emb._chars
    quad = np.einsum("sni,ij,snj->sn", u, omega, u)
    exponents = 1j * math.pi * quad + 2j * math.pi * (u @ z)
    if exponents.real.max() > 600.0:
        raise ConfigurationError("lattice sum would overflow; move z toward the fundamental domain")
    return u, exponents


def _section_terms(emb: ThetaEmbedding, z: TorusPoint):
    """Index offsets u and the term matrix exp(exponents): one build per point."""
    if emb.genus == 1:
        u, exponents = _genus1_exponents(emb, complex(z))
    else:
        u, exponents = _genus2_exponents(emb, np.asarray(z, dtype=complex))
    return u, np.exp(exponents)


def _derivative_sums(emb: ThetaEmbedding, u, terms, tangent) -> np.ndarray:
    if emb.genus == 1:
        direction = 1.0 if tangent is None else complex(tangent)
        return (2j * math.pi * emb.degree * direction * u * terms).sum(axis=1)
    if tangent is None:
        raise ValueError("genus-2 derivatives need an explicit tangent 2-vector")
    return ((u @ np.asarray(tangent, dtype=complex)) * 2j * math.pi * terms).sum(axis=1)


def theta_values(emb: ThetaEmbedding, z: TorusPoint) -> np.ndarray:
    """Raw (unnormalized) values of all sections at z."""
    return _section_terms(emb, z)[1].sum(axis=1)


def theta_derivatives(emb: ThetaEmbedding, z: TorusPoint, tangent=None) -> np.ndarray:
    """Term-wise derivative of every section along a tangent direction.

    For genus 1 the direction defaults to 1 (d/dz); for genus 2 it must be a
    complex 2-vector.
    """
    return _derivative_sums(emb, *_section_terms(emb, z), tangent)


def normalize(vector: np.ndarray) -> np.ndarray:
    """Scale to unit Euclidean norm; idempotent to the last bit.

    Vectors already within a few ulps of unit norm are returned unchanged, so
    renormalizing is exactly the identity.
    """
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise EvaluationError("cannot normalize the zero vector")
    if abs(norm - 1.0) <= 4 * np.finfo(vector.dtype).eps:
        return vector
    return vector / norm


def theta_basis_eval(emb: ThetaEmbedding, z: TorusPoint, tangent=None) -> EmbeddedPoint:
    """Projective image of z, optionally with the derivative along tangent.

    The derivative row is divided by the same norm as the coordinates, so the
    pair stays a consistent affine chart of the embedded curve/surface.
    """
    u, terms = _section_terms(emb, z)
    raw = terms.sum(axis=1)
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise EvaluationError(f"all sections vanish at {z!r}")
    coords = normalize(raw)
    derivative = None
    if tangent is not None:
        derivative = _derivative_sums(emb, u, terms, tangent) / norm
    return EmbeddedPoint(base=z, coords=coords, derivative=derivative)


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

def _lattice_coords(emb: ThetaEmbedding, z: TorusPoint) -> np.ndarray:
    """Real coordinates of z in the lattice basis (length 2 or 4)."""
    if emb.genus == 1:
        zc = complex(z)
        tau = complex(emb.period)
        y = zc.imag / tau.imag
        x = zc.real - y * tau.real
        return np.array([x, y])
    zv = np.asarray(z, dtype=complex)
    omega = emb.period
    y = np.linalg.solve(omega.imag, zv.imag)
    x = (zv.real - omega.real @ y) / np.array([1.0, float(emb.degree)])
    return np.concatenate([x, y])


def _point_from_coords(emb: ThetaEmbedding, coords: np.ndarray) -> TorusPoint:
    if emb.genus == 1:
        return complex(coords[0] + coords[1] * complex(emb.period))
    x, y = coords[:2], coords[2:]
    return np.array([1.0, float(emb.degree)]) * x + emb.period @ y


def lattice_distance(emb: ThetaEmbedding, z: TorusPoint) -> float:
    """Max-norm distance from z to the period lattice, in lattice coordinates."""
    coords = _lattice_coords(emb, z)
    return float(np.max(np.abs(coords - np.round(coords))))


def reduce_mod_lattice(emb: ThetaEmbedding, z: TorusPoint) -> TorusPoint:
    coords = np.mod(_lattice_coords(emb, z), 1.0)
    return _point_from_coords(emb, coords)


def _add(a: TorusPoint, b: TorusPoint) -> TorusPoint:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.asarray(a, dtype=complex) + np.asarray(b, dtype=complex)
    return a + b


def _sub(a: TorusPoint, b: TorusPoint) -> TorusPoint:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return a - b


def torsion_point(emb: ThetaEmbedding, a, b, order: int) -> TorsionPoint:
    """The torsion point (a + b*period)/order, with an exact-order flag.

    For genus 1, a and b are integers; for genus 2, integer pairs (components
    in the lattice basis D*Z^2 + Omega*Z^2).  The flag is true iff the point
    has order exactly `order`, i.e. gcd of all components with order is 1.
    """
    if order == 0:
        raise ValueError("torsion order must be nonzero")
    order = abs(order)
    if emb.genus == 1:
        a_int, b_int = int(a), int(b)
        point = (a_int + b_int * complex(emb.period)) / order
        g = math.gcd(a_int, b_int, order)
    else:
        av = np.asarray(a, dtype=int)
        bv = np.asarray(b, dtype=int)
        if av.shape != (2,) or bv.shape != (2,):
            raise ValueError("genus-2 torsion components must be integer pairs")
        point = (np.array([1.0, float(emb.degree)]) * av + emb.period @ bv) / order
        g = math.gcd(int(av[0]), int(av[1]), int(bv[0]), int(bv[1]), order)
    actual = order // g
    return TorsionPoint(
        point=point, requested_order=order, actual_order=actual, exact_order=g == 1
    )


def cyclic_group(emb: ThetaEmbedding, generator: TorusPoint, order: int) -> list:
    """The cyclic subgroup {0, g, 2g, ...} of the given order, as torus points."""
    if order < 1:
        raise ValueError("group order must be positive")
    if emb.genus == 1:
        zero_pt: TorusPoint = 0j
    else:
        zero_pt = np.zeros(2, dtype=complex)
    points = [zero_pt]
    for t in range(1, order):
        points.append(_add(points[-1], generator))
    return points


def _check_group(emb: ThetaEmbedding, group: Sequence[TorusPoint], tol: float = 1e-12) -> None:
    for p in group:
        for q in group:
            s = _add(p, q)
            if min(lattice_distance(emb, _sub(s, r)) for r in group) > tol:
                raise ValueError("point set is not closed under addition modulo the lattice")


# -------------------------------------------------------------------- probes

def _rank(vectors, tol: float, error: type):
    """Singular value ratios, rank and margin of row-normalized vectors: the
    one rank decision behind span_rank and every cluster probe.  Zero rows
    raise `error`."""
    matrix = np.asarray(vectors, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ValueError("need a nonempty 2-d stack of vectors")
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms == 0.0):
        raise error("zero vectors are not allowed in rank probes")
    singular = np.linalg.svd(matrix / norms[:, None], compute_uv=False)
    ratios = singular / singular[0]
    rank = int(np.count_nonzero(ratios >= tol))
    return ratios, rank, float(ratios[rank - 1]) if rank else 0.0


def span_rank(vectors, tol: float = HARD_TOL):
    """Numerical rank and margin of a set of coordinate vectors.

    Rows are normalized to unit norm, then rank = number of singular values
    with sigma_i/sigma_1 >= tol and margin = (smallest counted)/sigma_1.
    """
    _, rank, margin = _rank(vectors, tol, ValueError)
    return rank, margin


def _cluster_probe(points, vectors, expected_rank: int, tol: float) -> ClusterProbe:
    ratios, observed, margin = _rank(vectors, tol, EvaluationError)
    decisive = float(ratios[expected_rank - 1]) if expected_rank <= len(ratios) else 0.0
    if GRAY_LOW <= decisive <= GRAY_HIGH:
        verdict = "inconclusive"
    elif decisive > GRAY_HIGH and observed == expected_rank:
        verdict = "pass"
    else:
        verdict = "fail"
    return ClusterProbe(
        points=tuple(points),
        expected_rank=expected_rank,
        observed_rank=observed,
        margin=margin,
        verdict=verdict,
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
    embedded = [theta_basis_eval(emb, _add(base, rho)) for rho in group]
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
        tangent = 1.0 if emb.genus == 1 else np.array([1.0, 0.0], dtype=complex)
    embedded = [theta_basis_eval(emb, p, tangent=tangent) for p in points]
    return _cluster_probe(embedded, _rows(embedded, with_derivatives), length, tol)


def _pair_offset(emb: ThetaEmbedding, group: Sequence[TorusPoint]) -> TorusPoint:
    """Deterministic offset whose difference from every group element stays
    away from the lattice, used to pair grid points into two-fibre clusters."""
    dim = 1 if emb.genus == 1 else 2
    for t in range(64):
        coords = np.array(
            [(0.351 + 0.1733 * t) % 1.0, (0.273 + 0.1411 * t) % 1.0] * dim
        )[: 2 * dim]
        if emb.genus == 1:
            offset: TorusPoint = complex(coords[0] + coords[1] * complex(emb.period))
        else:
            offset = _point_from_coords(emb, coords)
        if min(lattice_distance(emb, _sub(offset, r)) for r in group) > 1e-2:
            return offset
    raise ConfigurationError("could not find a pairing offset away from the subgroup")


def _random_point(emb: ThetaEmbedding, rng: np.random.Generator) -> TorusPoint:
    dim = 1 if emb.genus == 1 else 2
    coords = rng.random(2 * dim)
    if emb.genus == 1:
        return complex(coords[0] + coords[1] * complex(emb.period))
    return _point_from_coords(emb, coords)


def _grid_points(emb: ThetaEmbedding) -> list:
    side = _GRID_SIDE
    offsets = [(i + 0.5) / side for i in range(side)]
    points = []
    if emb.genus == 1:
        tau = complex(emb.period)
        for x in offsets:
            for y in offsets:
                points.append(complex(x + y * tau))
    else:
        for x in offsets:
            for y in offsets:
                points.append(_point_from_coords(emb, np.array([x, y, y, x])))
    return points


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
    deterministic for fixed inputs.
    """
    if samples < 0:
        raise ValueError("samples must be non-negative")
    k = len(group)
    if 2 * k > emb.section_count - 1:
        raise ValueError(
            f"group order {k} too large for {emb.section_count} sections: "
            "the immersion probe needs 2k <= section_count - 1"
        )
    _check_group(emb, group)
    rng = np.random.default_rng(seed)
    grid = _grid_points(emb)
    randoms = [_random_point(emb, rng) for _ in range(samples)]
    offset = _pair_offset(emb, group)

    verdicts = {"pass": 0, "fail": 0, "inconclusive": 0}
    margins = []

    def record(probe: ClusterProbe) -> None:
        verdicts[probe.verdict] += 1
        margins.append(probe.margin)

    for index, base in enumerate(randoms + grid):
        if index < samples:
            partner = _draw_partner(emb, group, base, rng)
        else:
            partner = _add(base, offset)
        if emb.genus == 1:
            tangent: object = 1.0
        else:
            raw = rng.normal(size=2) + 1j * rng.normal(size=2)
            tangent = raw / np.linalg.norm(raw)
        # one evaluation per point, the fibre's with its derivative; partners
        # come after the fibre probe is recorded, so an error there keeps it
        try:
            fibre = [theta_basis_eval(emb, _add(base, rho), tangent=tangent) for rho in group]
            record(_cluster_probe(fibre, _rows(fibre), k, tol))
            cluster = fibre + [theta_basis_eval(emb, _add(partner, rho)) for rho in group]
            record(_cluster_probe(cluster, _rows(cluster), 2 * k, tol))
            record(_cluster_probe(fibre, _rows(fibre, with_derivatives=True), 2 * k, tol))
        except (EvaluationError, ConfigurationError):
            verdicts["inconclusive"] += 1
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


def _draw_partner(emb, group, base, rng, attempts: int = 32) -> TorusPoint:
    for _ in range(attempts):
        candidate = _random_point(emb, rng)
        difference = _sub(candidate, base)
        if min(lattice_distance(emb, _sub(difference, r)) for r in group) > 1e-3:
            return candidate
    return _add(base, _pair_offset(emb, group))
