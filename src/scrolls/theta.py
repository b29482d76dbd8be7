"""Theta-function embeddings and numerical rank probes for scroll construction.

Genus 1.  An elliptic curve C/(Z + tau*Z) is embedded in P^(m-1) by the m
sections

    s_j(z) = theta[j/m, 0](m*z, m*tau)
           = sum_r exp(pi*i*m*tau*(r + j/m)^2 + 2*pi*i*(r + j/m)*m*z)

for j = 0..m-1.  In this basis z -> z+1 fixes every section and z -> z+tau
multiplies the whole vector by one common analytic factor, so both act
trivially on the projective point; torsion translations act by diagonal
phase times index permutation.

Genus g >= 2.  An abelian variety C^g/(D*Z^g + Omega*Z^g) with a polarization
of type (1, ..., 1, d), D = diag(1, ..., 1, d), is embedded for generic Omega
once d > 2^g (Debarre, Hulek, Spandaw, Math. Ann. 300, 1994) by the d sections
s_j(z) = theta[c_j, 0](z, Omega), c_j = (0, ..., 0, j/d), j = 0..d-1.

Every genus is one lattice sum, s_j(z) = theta[c_j, 0](w, Omega) with w = s*z:
genus 1 is g = 1 with s = m, Omega = m*tau and D = (m); every other genus has
s = 1.  A public torus point is a Python complex (genus 1) or a complex128
array of length g; inside the module P points are the rows of a (P, g) array.

The sum at w runs over the (2R + 2)^g lattice vectors from k - R - 1 to
k + R, where k = ceil(-y) and y = (Im Omega)^-1 Im w, so every dropped term
lies more than R from the peak at -y in some coordinate (Deconinck, Heil,
Bobenko, van Hoeij, Schmies, Math. Comp. 73, 2004).  The radius R comes from
Im Omega alone, so that each dropped term is below e^-40 (~4e-18) of the peak
term; it is the same at every point and never set by the caller, and so is a
point's sections*(2R + 2)^g terms, refused above _MAX_POINT_TERMS.  The box's
offsets from k and their quadratic term are therefore built once per
embedding, and a point adds only a term linear in the offsets and a constant
before exponentiating.  One call sums any number of points, and that one
exponent array gives both the values and the derivatives.  Each point's terms
are divided by exp(M), M their largest real part, so that no projective image
overflows; only the raw values and derivatives multiply exp(M) back, and they
refuse M > 600; a lattice sum left non-finite is refused.

The probes sample the geometric conditions for smoothness of the scroll swept
out by the spans of torsion translates: fibre points must be independent, two
fibres over points not differing by the subgroup must span independently, and
the section values together with their first derivatives along a fibre must
have full rank (the immersion condition).  The subgroup is the paper's cyclic
one, taken by its generator g and order k, which is refused when 2k exceeds
sections - 1 and when it is not g's exact order: k distances show that k*g
lies on the lattice and no earlier multiple does.  Each torus point is
evaluated once and shared by all three probes.  The bases, their partners
and (genus >= 2) their tangents are all drawn before the first sum.  For a
block of base points, all fibre points (with their bases' tangents) go
through one pass of lattice sums of at most _TERMS terms each, their partners
through another, and each probe kind's ranks are decided by one stacked SVD
of column-equilibrated rows, by singular value ratios with a hard threshold
and a gray zone that yields an "inconclusive" verdict rather than
overclaiming.  A point whose sections all vanish gets zero rows, which leave
only its own base undecided.  The verdicts of a stack are one array
comparison, tallied by bincount, and a mask of the bases still decided
narrows the next probe kind.  Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

HARD_TOL = 1e-8      # singular value ratio counted as nonzero
GRAY_LOW = 1e-10     # decisive ratio below this: clear rank drop
GRAY_HIGH = 1e-6     # decisive ratio in [GRAY_LOW, GRAY_HIGH]: inconclusive
_TAIL_LOG = 40.0     # truncation keeps relative tails below exp(-_TAIL_LOG)
_MAX_RADIUS = 10_000
_MAX_POINT_TERMS = 1 << 20  # sections x (2R + 2)^g, the terms of one point's sum
_GRID_SIDE = 4       # deterministic coarse grid appended to random samples
_BLOCK = 64          # base points whose rank decisions share one SVD per probe kind
_TERMS = 4096        # terms (points x sections x box) one lattice-sum call may hold
_VERDICTS = ("pass", "fail", "inconclusive")

TorusPoint = Union[complex, np.ndarray]


class EvaluationError(RuntimeError):
    """All sections vanished at the requested point."""


class ConfigurationError(ValueError):
    """Embedding parameters unusable for the truncated lattice sum."""


class ThetaEmbedding:
    """A theta embedding of an abelian variety of dimension genus >= 1.

    period is tau (complex, Im > 0) for genus 1 and a symmetric g x g complex
    matrix with positive definite imaginary part for genus g >= 2.  degree,
    the section count, is m (genus 1) or the d of the type (1, ..., 1, d).
    truncation_radius is computed, not set: the lattice-sum cutoff R, from
    Im(period) alone and the same at every point.
    """

    def __init__(self, genus: int, period, degree: int) -> None:
        g = self.genus = genus
        self.degree = degree
        if g < 1:
            raise ConfigurationError(f"genus must be at least 1, got {g}")
        if degree < 3:
            raise ConfigurationError(f"need at least 3 sections, got degree {degree}")
        # the period is stored as complex (genus 1) or a complex g x g array
        period = self.period = complex(period) if g == 1 else np.asarray(period, dtype=complex)
        if not np.all(np.isfinite(period)):
            raise ConfigurationError("period entries must be finite")
        if g == 1:
            if not period.imag > 0:
                raise ConfigurationError(f"Im(tau) must be positive, got {period}")
            if degree > sys.float_info.max:  # scale * matrix below would overflow
                raise ConfigurationError("degree exceeds the floating-point range")
            scale = degree
        elif period.shape != (g, g) or not np.allclose(period, period.T, atol=1e-14):
            raise ConfigurationError(f"genus-{g} period must be a symmetric {g}x{g} matrix")
        else:
            scale = 1
        # per-embedding constants of the lattice sum, computed once here
        matrix = np.reshape(period, (g, g))
        with np.errstate(over="ignore", invalid="ignore"):
            omega = scale * matrix
        if not np.all(np.isfinite(omega)):  # only m*tau can leave the float range
            raise ConfigurationError("m*tau exceeds the floating-point range")
        eig_min = float(np.linalg.eigvalsh(omega.imag)[0])
        if eig_min <= 0:
            raise ConfigurationError("Im(period) must be positive definite")
        radius = self.truncation_radius = _radius_for(eig_min, g, degree)
        side = np.arange(-radius - 1.0, radius + 1.0)
        box = np.stack(np.meshgrid(*[side] * g, indexing="ij")).reshape(g, 1, -1)
        chars = np.zeros((g, degree, 1))
        chars[-1, :, 0] = np.arange(degree) / degree
        offsets = box + chars  # (g, sections, box): lattice vector plus characteristic
        with np.errstate(over="ignore", invalid="ignore"):
            quad = 1j * math.pi * np.einsum("isn,ij,jsn->sn", offsets, omega, offsets)
        if not np.all(np.isfinite(quad)):  # a finite period can still overflow here
            raise ConfigurationError("the lattice sum's quadratic terms exceed the floating-point range")
        self._scale = scale                                         # w = s*z
        self._period = matrix                                       # z = (D/s)*x + P*y
        self._steps = np.append(np.ones(g - 1), degree) / scale     # D/s
        self._inv_imag = np.linalg.inv(matrix.imag)                 # y = (Im P)^-1 Im z
        self._offsets = offsets.reshape(g, -1)
        self._quad = quad


class EmbeddedPoint(NamedTuple):
    """Projective image of a torus point: unit-norm coordinates and, when a
    tangent direction was supplied, the matching derivative vector (scaled by
    the same factor as the coordinates)."""

    coords: np.ndarray
    derivative: Optional[np.ndarray] = None


class TorsionPoint(NamedTuple):
    point: TorusPoint
    actual_order: int


class ClusterProbe(NamedTuple):
    points: tuple
    expected_rank: int
    observed_rank: int
    margin: float
    verdict: str  # "pass" | "fail" | "inconclusive"


class ProbeSummary(NamedTuple):
    """The probe report: its fields, in order, are the payload's keys."""

    genus: int
    sections: int
    group_order: int
    samples: int
    seed: int
    tol: float
    probes: int
    passes: int
    fails: int
    inconclusives: int
    min_margin: float


# ---------------------------------------------------------------- lattice sums

def _radius_for(scale: float, genus: int, sections: int) -> int:
    """Smallest R >= 1 with pi*scale*R^2 >= _TAIL_LOG; refused past _MAX_RADIUS or _MAX_POINT_TERMS."""
    reach = math.sqrt(_TAIL_LOG / (math.pi * scale))  # inf for a scale below ~4e-307
    radius = max(math.ceil(reach), 1) if reach < math.inf else reach
    if radius > _MAX_RADIUS:
        raise ConfigurationError(f"truncation radius {radius} exceeds {_MAX_RADIUS}; Im(period) too small")
    terms = sections * (2 * radius + 2) ** genus
    if terms > _MAX_POINT_TERMS:
        raise ConfigurationError(f"{terms} terms per point exceed {_MAX_POINT_TERMS}; Im(period) too small")
    return radius


def _rows(emb: ThetaEmbedding, points) -> np.ndarray:
    """Torus points, or tangent directions, as the rows of a (P, genus) complex array."""
    return np.reshape(np.asarray(points, dtype=complex), (-1, emb.genus))


def _section_terms(emb: ThetaEmbedding, points):
    """Box centres k, shape (P, g), terms, shape (P, sections, box), and
    peaks M, shape (P,), of the lattice sums at P torus points.  Each point's
    terms are divided by exp(M), M the largest real part among its exponents,
    a positive factor shared by all its sections and derivative sums.

    The term exp(pi*i*u^T Omega u + 2*pi*i*u^T w) at u = k + v, v an offset
    of the box, has the exponent pi*i*v^T Omega v (the table _quad) plus
    2*pi*i*v.(Omega*k + w) plus pi*i*k.(Omega*k + 2*w), which is the same for
    every term of the point; Omega*k + w = s*(P*k + z).  M is subtracted from
    that constant alone, so its rounding, large far from the fundamental
    domain, scales all the point's terms alike and moves no projective point.
    """
    z = _rows(emb, points)
    centres = np.ceil(-z.imag @ emb._inv_imag)
    shift = emb._scale * (centres @ emb._period + z)
    common = 1j * math.pi * (centres * (shift + emb._scale * z)).sum(axis=1)
    linear = (2j * math.pi * (shift @ emb._offsets)).reshape(-1, *emb._quad.shape)
    exponents = emb._quad + linear
    peaks = exponents.real.max(axis=(-2, -1)) + common.real
    exponents += (common - peaks)[:, None, None]
    return centres, np.exp(exponents), peaks


def _derivative_sums(emb: ThetaEmbedding, centres, terms, tangent) -> np.ndarray:
    """d/dz of every section along `tangent`, one direction or one per point,
    (P, sections): the factor of each term is 2*pi*i*s*(u . tangent)."""
    if tangent is None:
        raise ValueError(f"genus-{emb.genus} derivatives need an explicit tangent {emb.genus}-vector")
    direction = _rows(emb, tangent)
    slopes = (direction @ emb._offsets).reshape(-1, *emb._quad.shape)
    slopes = slopes + (centres * direction).sum(axis=1)[:, None, None]
    return 2j * math.pi * emb._scale * (slopes * terms).sum(axis=2)


def _check_range(values) -> None:
    """Refuse non-finite sums, whose exponents overflowed or rounded a term past exp's range."""
    if not np.isfinite(values).all():
        raise ConfigurationError("the lattice sum's terms exceed the floating-point range")


def _embed(emb: ThetaEmbedding, points: Sequence[TorusPoint], tangent=None) -> tuple:
    """Unit coordinate rows of `points` and, with a tangent (one direction or
    one per point), their derivative rows divided by the same norms (else
    None).  A point whose sections all vanish gets zero rows, which leave its
    rank probes undecided.  Each lattice sum covers at most _TERMS terms."""
    z = _rows(emb, points)
    if tangent is not None:
        tangent = np.broadcast_to(_rows(emb, tangent), z.shape)
    step = max(1, _TERMS // emb._quad.size)
    sums, derivatives = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _check_range
        for start in range(0, max(len(z), 1), step):  # one call for no points
            centres, terms, _ = _section_terms(emb, z[start:start + step])
            sums.append(terms.sum(axis=2))
            if tangent is not None:
                derivatives.append(_derivative_sums(emb, centres, terms, tangent[start:start + step]))
        raw = np.concatenate(sums)
        norms = np.linalg.norm(raw, axis=1)[:, None]
    _check_range(norms)
    norms[norms == 0.0] = 1.0  # the row stays zero
    return raw / norms, np.concatenate(derivatives) / norms if derivatives else None


def _raw_terms(emb: ThetaEmbedding, z: TorusPoint) -> tuple:
    """Centres, scaled terms and exp(M) at one point, refused once M > 600."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _check_range
        centres, terms, peaks = _section_terms(emb, z)
    _check_range(terms)
    if peaks[0] > 600.0:
        raise ConfigurationError("lattice sum would overflow; move z toward the fundamental domain")
    return centres, terms, math.exp(peaks[0])


def theta_values(emb: ThetaEmbedding, z: TorusPoint) -> np.ndarray:
    """Raw (unnormalized) values of all sections at z."""
    _, terms, factor = _raw_terms(emb, z)
    return terms.sum(axis=2)[0] * factor


def theta_derivatives(emb: ThetaEmbedding, z: TorusPoint, tangent=None) -> np.ndarray:
    """Term-wise derivative of every section along a tangent direction, a
    complex number (genus 1) or complex g-vector, which must be given."""
    centres, terms, factor = _raw_terms(emb, z)
    return _derivative_sums(emb, centres, terms, tangent)[0] * factor


def theta_basis_eval(emb: ThetaEmbedding, z: TorusPoint, tangent=None) -> EmbeddedPoint:
    """Projective image of z (its row of _embed), optionally with the
    derivative along tangent.

    The derivative row is divided by the same norm as the coordinates, so the
    pair stays a consistent affine chart of the embedded variety.
    """
    coords, derivatives = _embed(emb, [z], tangent)
    if not coords.any():
        raise EvaluationError(f"all sections vanish at {z!r}")
    derivative = None if derivatives is None else derivatives[0]
    return EmbeddedPoint(coords=coords[0], derivative=derivative)


def projective_residual(u: np.ndarray, v: np.ndarray) -> float:
    """Norm of u - e^(i*phi)*v at the optimal phase, for unit vectors.

    It lies between the chordal distance sqrt(1 - |<u, v>|^2) and sqrt(2)
    times it, but has no cancellation floor near zero, so it can certify
    agreement well below 1e-8.
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
    z = _rows(emb, points)
    y = z.imag @ emb._inv_imag
    return np.concatenate([(z.real - y @ emb._period.real) / emb._steps, y], axis=1)


def _point_from_coords(emb: ThetaEmbedding, coords: np.ndarray) -> np.ndarray:
    """The points z = (D/s)*x + P*y with lattice coordinates (x, y), the last
    axis of `coords` (length 2*genus), each with the bits of P @ y for its own
    row: shape (..., genus)."""
    g = emb.genus
    return emb._steps * coords[..., :g] + np.einsum("ij,...j->...i", emb._period, coords[..., g:])


def _torus_point(emb: ThetaEmbedding, row: np.ndarray) -> TorusPoint:
    """The public form of one point row: a Python complex in genus 1."""
    return complex(row[0]) if emb.genus == 1 else row


def _distances(emb: ThetaEmbedding, points) -> np.ndarray:
    """Max-norm distance from each point to the period lattice, in lattice coordinates."""
    coords = _lattice_coords(emb, points)
    return np.max(np.abs(coords - np.round(coords)), axis=1)


def lattice_distance(emb: ThetaEmbedding, z: TorusPoint) -> float:
    """Max-norm distance from z to the period lattice, in lattice coordinates."""
    return float(_distances(emb, z)[0])


def torsion_point(emb: ThetaEmbedding, a, b, order: int) -> TorsionPoint:
    """The torsion point (a + b*period)/order, with the order it actually has.

    For genus 1, a and b are integers; for genus g >= 2, integer g-tuples
    (components in the lattice basis D*Z^g + Omega*Z^g).  Components are
    reduced mod `order` exactly, which moves the point by a lattice vector
    only.  The actual order is |order| divided by the gcd of all components
    with it.
    """
    if order == 0:
        raise ValueError("torsion order must be nonzero")
    order = abs(order)
    components = [int(c) % order for c in np.ravel((a, b))]
    if len(components) != 2 * emb.genus:
        raise ValueError(f"genus-{emb.genus} torsion needs {2 * emb.genus} integer components")
    try:
        # divide the public form: a genus-1 complex and a numpy row round differently
        point = _torus_point(emb, _point_from_coords(emb, np.array(components, dtype=float))) / order
    except OverflowError:
        raise ValueError("torsion order exceeds the floating-point range") from None
    return TorsionPoint(point=point, actual_order=order // math.gcd(*components, order))


def cyclic_group(emb: ThetaEmbedding, generator: TorusPoint, order: int) -> list:
    """The cyclic subgroup {0, g, 2g, ...} of the given order, each element the one before plus g."""
    if order < 1:
        raise ValueError("group order must be positive")
    steps = np.zeros((order, emb.genus), dtype=complex)
    steps[1:] = _rows(emb, generator)
    return [_torus_point(emb, row) for row in np.cumsum(steps, axis=0)]


# -------------------------------------------------------------------- probes

def _rank(stack, tol: float) -> tuple:
    """The one rank decision behind span_rank and every cluster probe, for a
    stack (B, rows, n): a mask of the members without a zero row, and their
    singular value ratios, ranks and margins from one SVD call.  Each member's
    columns are scaled by the power of 2 that brings their largest modulus
    into [1/2, 1), exactly and keeping the rank, then its rows are normalized.
    A tol outside (0, 1), nan included, cannot tell a rank drop from full
    rank, so it is refused."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    matrices = np.array(stack, dtype=complex)  # a copy, equilibrated in place
    if matrices.ndim != 3 or matrices.shape[1] == 0:
        raise ValueError("need a nonempty 2-d stack of vectors")
    exponents = np.frexp(np.abs(matrices).max(axis=1, keepdims=True))[1]
    for part in (matrices.real, matrices.imag):
        np.ldexp(part, -exponents, out=part)
    norms = np.linalg.norm(matrices, axis=-1)
    decided = np.all(norms != 0.0, axis=-1)
    singular = np.ones((0, min(matrices.shape[1:])))
    if decided.any():
        singular = np.linalg.svd(matrices[decided] / norms[decided][..., None], compute_uv=False)
    ratios = singular / singular[:, :1]
    ranks = np.count_nonzero(ratios >= tol, axis=1)
    margins = np.where(ranks > 0, ratios[np.arange(len(ratios)), ranks - 1], 0.0)
    return decided, ratios, ranks, margins


def _rank_one(vectors, tol: float, error: type) -> list:
    """_rank of a single matrix, as arrays of one member; a zero row raises `error`."""
    decided, *outcome = _rank([vectors], tol)
    if not decided[0]:
        raise error("zero vectors are not allowed in rank probes")
    return outcome


def span_rank(vectors, tol: float = HARD_TOL):
    """Numerical rank and margin of a set of coordinate vectors.

    Columns and rows are scaled as in _rank, then rank = number of singular
    values with sigma_i/sigma_1 >= tol and margin = (smallest counted)/sigma_1.
    """
    _, ranks, margins = _rank_one(vectors, tol, ValueError)
    return int(ranks[0]), float(margins[0])


def _verdicts(ratios, ranks) -> np.ndarray:
    """Index into _VERDICTS of each member, from its last ratio: every probe
    stack has as many rows as the rank it expects, and fewer than its columns."""
    decisive = ratios[:, -1]
    passed = (decisive > GRAY_HIGH) & (ranks == ratios.shape[1])
    return np.where((GRAY_LOW <= decisive) & (decisive <= GRAY_HIGH), 2, np.where(passed, 0, 1))


def very_ampleness_cluster_probe(
    emb: ThetaEmbedding,
    points: Sequence[TorusPoint],
    tangent=None,
    tol: float = HARD_TOL,
) -> ClusterProbe:
    """Rank probe for a sampled cluster.

    Without a tangent the cluster is the listed points and the probe checks
    that their coordinate vectors are independent.  A tangent, one direction
    or one per point as for theta_basis_eval, doubles each listed point
    infinitesimally: the probe stacks the value vectors z_i and the derivative
    vectors z_i' along it and checks for rank 2*len(points); a drop detects a
    non-immersive direction.  All rows come from one _embed call.
    """
    length = len(points) * (1 if tangent is None else 2)
    if length > emb.degree - 1:
        raise ValueError(
            f"cluster length {length} exceeds section_count-1 = {emb.degree - 1}; "
            "independence is not expected"
        )
    coords, derivatives = _embed(emb, points, tangent)
    rows = coords if derivatives is None else np.concatenate([coords, derivatives])
    ratios, ranks, margins = _rank_one(rows, tol, EvaluationError)
    derivatives = [None] * len(coords) if derivatives is None else derivatives
    return ClusterProbe(
        points=tuple(map(EmbeddedPoint, coords, derivatives)),
        expected_rank=length,
        observed_rank=int(ranks[0]),
        margin=float(margins[0]),
        verdict=_VERDICTS[_verdicts(ratios, ranks)[0]],
    )


def _pair_offset(emb: ThetaEmbedding, shifts: np.ndarray) -> np.ndarray:
    """Deterministic offset whose difference from every group element (the
    rows of `shifts`) stays away from the lattice, used to pair grid points
    into two-fibre clusters: the first of 64 candidates that does."""
    t = np.arange(64)
    coords = np.stack([(0.351 + 0.1733 * t) % 1.0, (0.273 + 0.1411 * t) % 1.0] * emb.genus, axis=1)
    offsets = _point_from_coords(emb, coords)
    gaps = _distances(emb, (offsets[:, None] - shifts).reshape(-1, emb.genus))
    clear = gaps.reshape(len(t), -1).min(axis=1) > 1e-2
    if not clear.any():
        raise ConfigurationError("could not find a pairing offset away from the subgroup")
    return offsets[clear.argmax()]


def _grid_points(emb: ThetaEmbedding) -> np.ndarray:
    offsets = [(i + 0.5) / _GRID_SIDE for i in range(_GRID_SIDE)]
    coords = [([x, y, y, x] * emb.genus)[: 2 * emb.genus] for x in offsets for y in offsets]
    return _point_from_coords(emb, np.array(coords))


def scroll_smoothness_probe(
    emb: ThetaEmbedding,
    generator: TorusPoint,
    order: int,
    samples: int,
    seed: int,
    tol: float = HARD_TOL,
) -> ProbeSummary:
    """Sampled evidence for smoothness of the scroll defined by emb and the
    cyclic subgroup generated by `generator`, of exact order `order`.

    At each of `samples` seeded random base points plus a fixed coarse grid,
    runs the fibre independence probe, the two-fibre span probe (partner point
    kept away from the subgroup translates), and the derivative (immersion)
    probe.  Evaluation errors count as inconclusive; the summary is
    deterministic for fixed inputs.  Every draw comes before the first sum:
    the sampled bases, their partners (grid bases keep base + offset) and for
    genus >= 2 a unit tangent per base; genus 1 keeps the tangent 1.  Blocks
    of _BLOCK bases then only sum and rank, so no result depends on _BLOCK.
    """
    if 2 * order > emb.degree - 1:  # the immersion probe stacks 2k rows
        raise ValueError(f"group order {order} too large for {emb.degree} sections: "
                         "the immersion probe needs 2k <= section_count - 1")
    if samples < 0:
        raise ValueError("samples must be non-negative")
    k, g = order, emb.genus
    shifts = _rows(emb, cyclic_group(emb, generator, order))
    # k*g, the element after the last, lies on the lattice and no earlier multiple does
    gaps = _distances(emb, np.concatenate([shifts[1:], shifts[-1:] + _rows(emb, generator)]))
    if gaps[-1] > 1e-12 or gaps[:-1].min(initial=np.inf) <= 1e-12:
        raise ValueError(f"generator does not have exact order {order} modulo the lattice")
    rng = np.random.default_rng(seed)
    drawn, grid = _point_from_coords(emb, rng.random((samples, 2 * g))), _grid_points(emb)
    offset, bases = _pair_offset(emb, shifts), np.concatenate([drawn, grid])
    partners = np.concatenate([_draw_partners(emb, shifts, drawn, rng, offset), grid + offset])
    raw = rng.normal(size=bases.shape) + 1j * rng.normal(size=bases.shape) if g > 1 else np.ones_like(bases)
    tangents = raw / np.linalg.norm(raw, axis=1)[:, None]

    def translates(points, tangent=None):  # rows of the k translates of each point
        coords, derivatives = _embed(emb, (points[:, None] + shifts).reshape(-1, g), tangent)
        return coords.reshape(-1, k, emb.degree), derivatives

    counts = np.zeros(3, dtype=int)  # indexed as _VERDICTS
    min_margin = np.inf
    for start in range(0, len(bases), _BLOCK):
        block = slice(start, start + _BLOCK)
        fibres, derivatives = translates(bases[block], np.repeat(tangents[block], k, axis=0))
        # a point whose sections vanish has zero rows; a fibre with one counts
        # one inconclusive and gets no later probe
        stacks = (fibres, np.concatenate([fibres, translates(partners[block])[0]], axis=1),
                  np.concatenate([fibres, derivatives.reshape(fibres.shape)], axis=1))
        alive = np.ones(len(fibres), dtype=bool)  # bases decided by every probe kind so far
        for stack in stacks:
            decided, ratios, ranks, margins = _rank(stack[alive], tol)
            counts += np.bincount(_verdicts(ratios, ranks), minlength=3)
            counts[2] += np.count_nonzero(~decided)
            min_margin = min(min_margin, margins.min(initial=np.inf))
            alive[alive] = decided
    passes, fails, inconclusives = counts.tolist()  # Python ints, for JSON
    return ProbeSummary(
        genus=emb.genus, sections=emb.degree, group_order=k, samples=samples, seed=seed, tol=tol,
        probes=passes + fails + inconclusives, passes=passes, fails=fails, inconclusives=inconclusives,
        min_margin=float(min_margin) if min_margin < np.inf else float("nan"),
    )


def _draw_partners(emb, shifts, bases, rng, offset) -> np.ndarray:
    """A random point more than 1e-3 from every translate of each of `bases`:
    each of at most 32 rounds draws, in one call, a candidate for every base
    still missing one, checked _BLOCK bases at a time; a base missed 32 times
    keeps `base + offset`."""
    g, k = emb.genus, len(shifts)
    partners, todo = bases + offset, np.arange(len(bases))
    for _ in range(32):
        if not todo.size:
            break
        candidates = _point_from_coords(emb, rng.random((len(todo), 2 * g)))
        moves = candidates - bases[todo]
        gaps = [_distances(emb, (moves[i:i + _BLOCK, None] - shifts).reshape(-1, g)).reshape(-1, k).min(axis=1)
                for i in range(0, len(todo), _BLOCK)]
        clear = np.concatenate(gaps) > 1e-3
        partners[todo[clear]] = candidates[clear]
        todo = todo[~clear]
    return partners
