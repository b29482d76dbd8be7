import copy
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

from scrolls.theta import (
    HARD_TOL,
    ClusterProbe,
    ConfigurationError,
    EvaluationError,
    ThetaEmbedding,
    cyclic_group,
    lattice_distance,
    projective_residual,
    scroll_smoothness_probe,
    span_rank,
    theta_basis_eval,
    theta_derivatives,
    theta_values,
    torsion_point,
    very_ampleness_cluster_probe,
)

TAU = 1j
OMEGA = np.array([[0.31 + 1.12j, 0.07 + 0.21j], [0.07 + 0.21j, -0.18 + 1.35j]])


def _genus3_period():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    return 0.2 * (a + a.T) / 2 + 1j * (np.eye(3) + (b + b.T) / 16)


# an abelian threefold: eigenvalues of Im are 0.68, 0.97 and 1.13, so R = 5
OMEGA3 = _genus3_period()


def seeded_points(count, seed=0):
    rng = np.random.default_rng(seed)
    return [complex(x + y * TAU) for x, y in rng.random((count, 2))]


# -------------------------------------------------------------- construction

def test_embedding_validation():
    with pytest.raises(ConfigurationError):
        ThetaEmbedding(genus=1, period=1.0 - 0.2j, degree=5)
    with pytest.raises(ConfigurationError):
        ThetaEmbedding(genus=1, period=1j, degree=2)
    with pytest.raises(ConfigurationError, match="genus must be at least 1, got 0"):
        ThetaEmbedding(genus=0, period=1j, degree=5)
    with pytest.raises(ConfigurationError, match="genus-3 period must be a symmetric 3x3 matrix"):
        ThetaEmbedding(genus=3, period=1j, degree=5)
    with pytest.raises(ConfigurationError, match="genus-3 period must be a symmetric 3x3 matrix"):
        ThetaEmbedding(genus=3, period=OMEGA3 + np.triu(np.full((3, 3), 0.1), 1), degree=9)
    with pytest.raises(ConfigurationError, match="genus-2 period must be a symmetric 2x2 matrix"):
        ThetaEmbedding(genus=2, period=np.array([[1j, 0.5], [0.4, 1j]]), degree=7)  # not symmetric
    with pytest.raises(ConfigurationError):
        ThetaEmbedding(genus=2, period=np.array([[-1j, 0], [0, 1j]]), degree=7)  # Im not posdef
    for tau in (complex(math.inf, 1), complex(0, math.inf), complex(math.nan, 1)):
        with pytest.raises(ConfigurationError, match="finite"):
            ThetaEmbedding(genus=1, period=tau, degree=5)
    with pytest.raises(ConfigurationError, match="finite"):
        ThetaEmbedding(genus=2, period=np.array([[complex(math.nan, 1), 0], [0, 1j]]), degree=7)
    # m * tau would overflow a complex
    with pytest.raises(ConfigurationError, match="degree exceeds the floating-point range"):
        ThetaEmbedding(genus=1, period=1j, degree=10**400)


def test_elliptic_scaled_period_beyond_float_range_is_refused():
    # 9 * 1e308 overflows: refused by name, without numpy's overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in (1e308j, complex(1e308, 1)):
            with pytest.raises(ConfigurationError, match=r"m\*tau exceeds the floating-point range"):
                ThetaEmbedding(genus=1, period=tau, degree=9)
    assert ThetaEmbedding(genus=1, period=1e300j, degree=9).truncation_radius == 1


def test_quadratic_terms_beyond_float_range_are_refused():
    # m*tau = 9e307 is finite, but pi * u^2 * m*tau at offset |u| = 2 is not: refused by
    # name, without numpy's overflow warning, in genus 1 and 2 alike
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make in (lambda: ThetaEmbedding(genus=1, period=1e307j, degree=9),
                     lambda: ThetaEmbedding(genus=1, period=complex(1e307, 1), degree=9),
                     lambda: ThetaEmbedding(genus=2, period=[[1e307j, 0], [0, 1j]], degree=7)):
            with pytest.raises(ConfigurationError) as refused:
                make()
            assert str(refused.value) == "the lattice sum's quadratic terms exceed the floating-point range"
        assert np.all(np.isfinite(ThetaEmbedding(genus=1, period=1e305j, degree=9)._quad))



def test_lattice_sum_terms_beyond_float_range_are_refused():
    # finite quadratic tables whose per-point exponents leave the float range: at 3e305j
    # the rounding of the peak's subtraction puts a term near exp(2e290), at 1e306j the
    # quadratic plus linear exponent overflows, at 6e305 + 1j its imaginary part does;
    # refused by name, without numpy's warnings, in genus 1 and 2 alike
    message = "the lattice sum's terms exceed the floating-point range"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for genus, period, degree, a, b in ((1, 3e305j, 9, 1, 0), (1, 1e306j, 9, 1, 0),
                                            (1, complex(6e305, 1), 9, 1, 0),
                                            (2, [[1e306j, 0], [0, 1e306j]], 7, (0, 1), (0, 0))):
            emb = ThetaEmbedding(genus=genus, period=period, degree=degree)
            generator = torsion_point(emb, a, b, 2)
            with pytest.raises(ConfigurationError) as refused:
                scroll_smoothness_probe(emb, generator.point, 2, samples=1, seed=42)
            assert str(refused.value) == message
        with pytest.raises(ConfigurationError, match=message):
            theta_values(ThetaEmbedding(genus=1, period=3e305j, degree=9), 0.476 + 3.444e305j)
        # at 1e305 every scaled term stays at most 1: the probe runs (its fails are false)
        emb = ThetaEmbedding(genus=1, period=1e305j, degree=9)
        assert scroll_smoothness_probe(emb, 0.5, 2, samples=1, seed=42).probes > 0

def test_truncation_radius_positive_and_scaling():
    assert ThetaEmbedding(genus=1, period=1j, degree=5).truncation_radius >= 1
    # smaller Im(tau) needs a wider window
    assert (
        ThetaEmbedding(genus=1, period=0.02j, degree=5).truncation_radius
        > ThetaEmbedding(genus=1, period=2j, degree=5).truncation_radius
    )
    with pytest.raises(ConfigurationError) as refused:
        ThetaEmbedding(genus=1, period=1e-12j, degree=5)
    assert str(refused.value) == "truncation radius 1595770 exceeds 10000; Im(period) too small"
    # a scale so small that the radius overflows a float is refused the same way
    with pytest.raises(ConfigurationError, match="truncation radius inf exceeds 10000"):
        ThetaEmbedding(genus=1, period=1e-320j, degree=5)
    # computed from the period, never set by the caller
    with pytest.raises(TypeError):
        ThetaEmbedding(genus=1, period=1j, degree=5, truncation_radius=50)


def test_value_types_are_named_tuples():
    # the records are NamedTuples with the old field names and order, so they
    # compare equal to plain tuples; an embedding is a plain object
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    generator = torsion_point(emb, 1, 0, 2)
    assert generator == (0.5, 2) and generator._fields == ("point", "actual_order")
    point = theta_basis_eval(emb, 0.3 + 0.2j)
    assert point._fields == ("coords", "derivative") and point.derivative is None
    probe = very_ampleness_cluster_probe(emb, [0.1 + 0.2j, 0.4 + 0.7j])
    assert probe._fields == ("points", "expected_rank", "observed_rank", "margin", "verdict")
    assert isinstance(probe.points[0], tuple) and not isinstance(emb, tuple)
    assert {"genus", "period", "degree", "truncation_radius"} <= vars(emb).keys()


# ------------------------------------------------------------ theta numerics

def test_quasi_periodicity_integer_shift():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    for z in seeded_points(12, seed=3):
        a = theta_basis_eval(emb, z).coords
        b = theta_basis_eval(emb, z + 1).coords
        assert projective_residual(a, b) < 1e-9


def test_quasi_periodicity_tau_shift_common_factor():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    m = 5
    for z in seeded_points(12, seed=4):
        raw = theta_values(emb, z)
        shifted = theta_values(emb, z + TAU)
        factor = np.exp(-1j * math.pi * m * TAU - 2j * math.pi * m * z)
        assert np.linalg.norm(shifted - factor * raw) / np.linalg.norm(shifted) < 1e-9
        assert projective_residual(raw / np.linalg.norm(raw), shifted / np.linalg.norm(shifted)) < 1e-9


def test_torsion_translation_is_diagonal_phase():
    # z -> z + p/m multiplies section j by exp(2*pi*i*j*p/m)
    emb = ThetaEmbedding(genus=1, period=TAU, degree=7)
    z = 0.21 + 0.37j
    raw = theta_values(emb, z)
    shifted = theta_values(emb, z + 2.0 / 7.0)
    phases = np.exp(2j * math.pi * np.arange(7) * 2 / 7)
    assert np.linalg.norm(shifted - phases * raw) / np.linalg.norm(raw) < 1e-9


def test_random_points_embed_distinctly():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    points = [theta_basis_eval(emb, z).coords for z in seeded_points(5, seed=5)]
    for i in range(5):
        for j in range(i + 1, 5):
            # the chordal distance is at least this residual over sqrt(2)
            assert projective_residual(points[i], points[j]) > 2**0.5 * 1e-6


def test_projective_residual_of_orthogonal_vectors_is_sqrt_two():
    u, v = np.eye(3, dtype=complex)[:2]
    assert projective_residual(u, v) == math.sqrt(2)


def test_derivative_matches_finite_differences():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    step = 1e-5
    for z in seeded_points(50, seed=6):
        analytic = theta_derivatives(emb, z, 1)
        numeric = (theta_values(emb, z + step) - theta_values(emb, z - step)) / (2 * step)
        assert np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic) < 1e-6
    with pytest.raises(ValueError, match="genus-1 derivatives need an explicit tangent 1-vector"):
        theta_derivatives(emb, 0.3j)  # no genus has a default direction


def test_genus2_lattice_periodicity():
    emb = ThetaEmbedding(genus=2, period=OMEGA, degree=7)
    z = np.array([0.23 + 0.31j, -0.12 + 0.44j])
    base = theta_basis_eval(emb, z).coords
    for generator in (
        np.array([1.0, 0.0], complex),
        np.array([0.0, 7.0], complex),
        OMEGA[:, 0],
        OMEGA[:, 1],
    ):
        translated = theta_basis_eval(emb, z + generator).coords
        assert projective_residual(base, translated) < 1e-9


def test_genus2_derivative_matches_finite_differences():
    emb = ThetaEmbedding(genus=2, period=OMEGA, degree=7)
    rng = np.random.default_rng(9)
    step = 1e-5
    for _ in range(10):
        z = np.array([1.0, 7.0]) * rng.random(2) + OMEGA @ rng.random(2)
        raw_dir = rng.normal(size=2) + 1j * rng.normal(size=2)
        tangent = raw_dir / np.linalg.norm(raw_dir)
        analytic = theta_derivatives(emb, z, tangent)
        numeric = (
            theta_values(emb, z + step * tangent) - theta_values(emb, z - step * tangent)
        ) / (2 * step)
        assert np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic) < 1e-6


def test_genus3_box_and_lattice_periodicity():
    emb = ThetaEmbedding(genus=3, period=OMEGA3, degree=9)
    assert emb.truncation_radius == 5
    assert emb._quad.shape == (9, 12 ** 3)
    z = np.array([0.23 + 0.31j, -0.12 + 0.44j, 0.05 + 0.2j])
    base = theta_basis_eval(emb, z).coords
    for generator in (OMEGA3[:, 0], OMEGA3[:, 2], np.array([0, 0, 9.0]), np.array([1.0, 0, 0])):
        translated = theta_basis_eval(emb, z + generator).coords
        assert projective_residual(base, translated) < 1e-13


def test_genus3_derivative_needs_a_tangent_3_vector():
    emb = ThetaEmbedding(genus=3, period=OMEGA3, degree=9)
    with pytest.raises(ValueError, match="genus-3 derivatives need an explicit tangent 3-vector"):
        theta_derivatives(emb, np.zeros(3))


# ------------------------------------------------------------ torus geometry

def test_torsion_point_examples():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    origin = torsion_point(emb, 0, 0, 4)
    assert origin.point == 0
    assert origin.actual_order == 1

    half = torsion_point(emb, 1, 0, 2)
    assert half.point == 0.5
    assert half.actual_order == 2

    reduced = torsion_point(emb, 2, 0, 4)
    assert reduced.point == 0.5
    assert reduced.actual_order == 2

    # components beyond float precision move the point by a lattice vector only
    assert torsion_point(emb, 10**20 + 1, -(10**30), 2) == half

    with pytest.raises(ValueError):
        torsion_point(emb, 1, 0, 0)


def test_torsion_point_genus2():
    emb = ThetaEmbedding(genus=2, period=OMEGA, degree=7)
    eps = torsion_point(emb, (0, 1), (0, 0), 2)
    assert np.allclose(eps.point, [0.0, 3.5])
    assert eps.actual_order == 2
    assert lattice_distance(emb, 2 * np.asarray(eps.point)) < 1e-12
    mixed = torsion_point(emb, (0, 2), (2, 0), 4)
    assert mixed.actual_order == 2
    with pytest.raises(ValueError, match="4 integer components"):
        torsion_point(emb, 1, 0, 2)
    # components beyond int64 are reduced mod the order exactly
    huge = torsion_point(emb, (10**20, -(10**20) - 1), (0, 10**40), 2)
    assert np.array_equal(huge.point, eps.point)
    assert huge.actual_order == 2


def test_lattice_reduction():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    z = 0.3 + 0.4j
    assert lattice_distance(emb, (z + 3 + 2 * TAU) - z) < 1e-12
    # z = 0.3 + 0.4*tau: a lattice shift leaves its distance to the lattice at 0.4
    assert lattice_distance(emb, z + 5 - 3 * TAU) == pytest.approx(0.4, abs=1e-9)


# -------------------------------------------------------------------- probes

def test_span_rank_examples():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    point = theta_basis_eval(emb, 0.123 + 0.456j).coords
    assert span_rank([point, point])[0] == 1

    rank, margin = span_rank(np.eye(5))
    assert rank == 5
    assert margin == pytest.approx(1.0)

    other = theta_basis_eval(emb, 0.123 + 0.456j + 0.5).coords
    rank, margin = span_rank([point, other])
    assert rank == 2
    assert margin > 1e-6

    with pytest.raises(ValueError):
        span_rank([np.zeros(5), np.ones(5)])


def test_span_rank_does_not_depend_on_the_scale_of_a_column():
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(4, 7)) + 1j * rng.normal(size=(4, 7))
    matrix[:, 2] = [1.0, -0.5j, 0.75, 0.25 + 0.5j]  # dyadic: exact at any power-of-2 scale
    matrix[3] = 0.5 * matrix[0] - 2j * matrix[1]     # rank 3 of 4
    shrunk, subnormal = matrix.copy(), matrix.copy()
    shrunk[:, 5] *= 2.0 ** -600
    subnormal[:, 2] *= 2.0 ** -1060                 # its largest modulus, 2^-1060, is subnormal
    assert 0 < np.abs(subnormal[:, 2]).max() < np.finfo(float).tiny
    expected = span_rank(matrix)
    assert expected[0] == 3
    for scaled in (shrunk, subnormal):
        rank, margin = span_rank(scaled)
        assert (rank, float.hex(margin)) == (expected[0], float.hex(expected[1]))


def test_fibre_independence_quintic():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    group = cyclic_group(emb, torsion_point(emb, 1, 0, 2).point, 2)
    probe = very_ampleness_cluster_probe(emb, [0.31 + 0.17j + rho for rho in group])
    assert probe.verdict == "pass"
    assert probe.observed_rank == probe.expected_rank == 2


def test_fibre_independence_septic_order_three():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=7)
    group = cyclic_group(emb, torsion_point(emb, 1, 0, 3).point, 3)
    probe = very_ampleness_cluster_probe(emb, [0.05 + 0.81j + rho for rho in group])
    assert probe.verdict == "pass"
    assert probe.observed_rank == 3


def test_fibre_independence_trivial_group():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    probe = very_ampleness_cluster_probe(emb, [0.4 + 0.2j])
    assert probe.verdict == "pass"
    assert probe.expected_rank == 1


def test_group_closure_enforced():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    with pytest.raises(ValueError, match="exact order 2"):
        scroll_smoothness_probe(emb, 0.3, 2, samples=1, seed=0)


def test_probe_refuses_a_generator_of_another_order():
    # true order 2 claimed as order 4: the group would repeat its elements
    emb = ThetaEmbedding(genus=1, period=TAU, degree=9)
    with pytest.raises(ValueError, match="exact order 4"):
        scroll_smoothness_probe(emb, torsion_point(emb, 1, 0, 2).point, 4, samples=1, seed=0)
    # true order 4 claimed as order 2, and a genus-2 generator of order 2 claimed as 3
    with pytest.raises(ValueError, match="exact order 2"):
        scroll_smoothness_probe(emb, torsion_point(emb, 1, 0, 4).point, 2, samples=1, seed=0)
    emb = ThetaEmbedding(genus=2, period=OMEGA, degree=7)
    with pytest.raises(ValueError, match="exact order 3"):
        scroll_smoothness_probe(emb, torsion_point(emb, (0, 1), (0, 0), 2).point, 3, samples=1, seed=0)


def test_wrong_order_refused_in_little_memory():
    # at k = 1000 the old closure check's k^3 sums would need 16 GB
    import tracemalloc

    emb = ThetaEmbedding(genus=1, period=TAU, degree=2001)
    generator = torsion_point(emb, 1, 0, 999).point
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exact order 1000"):
            scroll_smoothness_probe(emb, generator, 1000, samples=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_cluster_probe_two_fibres():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    p, q = 0.12 + 0.61j, 0.77 + 0.29j
    probe = very_ampleness_cluster_probe(emb, [p, p + 0.5, q, q + 0.5])
    assert probe.verdict == "pass"
    assert probe.observed_rank == 4


def test_cluster_probe_with_derivatives():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    p = 0.12 + 0.61j
    probe = very_ampleness_cluster_probe(emb, [p, p + 0.5], tangent=1.0)
    assert probe.verdict == "pass"
    assert probe.expected_rank == 4
    assert probe.observed_rank == 4
    assert all(point.derivative is not None for point in probe.points)


@pytest.mark.parametrize("make, points, direction", [
    (lambda: ThetaEmbedding(genus=1, period=TAU, degree=7), [0.11 + 0.52j, 0.67 + 0.23j, 0.38 + 0.81j], 1.0),
    (lambda: ThetaEmbedding(genus=2, period=OMEGA, degree=7),
     list(np.array([[0.3 + 0.71j, 2.11 + 0.4j], [0.65 + 0.32j, 5.48 + 0.98j], [0.64 + 1.05j, 0.33 + 0.79j]])),
     np.array([0.6, 0.8j])),
])
def test_cluster_probe_takes_one_tangent_per_point(make, points, direction):
    emb = make()
    single = very_ampleness_cluster_probe(emb, points, tangent=direction)
    # the same direction once per point: shape (3,) in genus 1, (3, 2) in genus 2
    per_point = very_ampleness_cluster_probe(emb, points, tangent=np.array([direction] * len(points)))
    assert single.verdict == "pass"
    assert single.expected_rank == per_point.expected_rank == 2 * len(points)
    assert (per_point.observed_rank, per_point.verdict) == (single.observed_rank, single.verdict)
    assert float.hex(per_point.margin) == float.hex(single.margin)
    assert all(point.derivative is not None for point in per_point.points)


def test_cluster_probe_duplicate_point_fails():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    p = 0.4 + 0.33j
    probe = very_ampleness_cluster_probe(emb, [p, p])
    assert probe.verdict == "fail"
    assert probe.observed_rank == 1


def test_cluster_probe_rejects_overlong_cluster():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    with pytest.raises(ValueError, match="cluster length"):
        very_ampleness_cluster_probe(emb, [0.1j, 0.2j, 0.3j, 0.4j, 0.5j])
    with pytest.raises(ValueError, match="cluster length"):
        very_ampleness_cluster_probe(emb, [0.1j, 0.2j, 0.3j], tangent=1.0)


def test_smoothness_probe_deterministic_and_clean():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    generator = torsion_point(emb, 1, 0, 2).point
    first = scroll_smoothness_probe(emb, generator, 2, samples=25, seed=123)
    second = scroll_smoothness_probe(emb, generator, 2, samples=25, seed=123)
    assert first == second  # bit-identical, min_margin included
    assert first.fails == 0
    assert first.inconclusives == 0
    assert first.min_margin > 1e-6
    assert first.probes == first.passes
    other_seed = scroll_smoothness_probe(emb, generator, 2, samples=25, seed=124)
    assert other_seed.min_margin != first.min_margin


def test_smoothness_probe_group_too_large():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    with pytest.raises(ValueError, match="group order"):
        scroll_smoothness_probe(emb, torsion_point(emb, 1, 0, 3).point, 3, samples=5, seed=1)


def test_probe_refuses_an_empty_group_and_negative_samples():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    for order in (0, -1):
        with pytest.raises(ValueError, match="group order must be positive"):
            cyclic_group(emb, 0.5 + 0j, order)
        with pytest.raises(ValueError, match="group order must be positive"):
            scroll_smoothness_probe(emb, 0.5 + 0j, order, samples=1, seed=0)
    with pytest.raises(ValueError, match="samples must be non-negative"):
        scroll_smoothness_probe(emb, torsion_point(emb, 1, 0, 2).point, 2, samples=-1, seed=0)


def partner_setup(genus, degree, period, torsion, bases, seed):
    """A probe's group rows, pairing offset, `bases` random bases and the
    generator that drew them."""
    from scrolls import theta

    emb, generator, order = probe_setup(genus, degree, period, torsion)
    shifts = theta._rows(emb, cyclic_group(emb, generator, order))
    rng = np.random.default_rng(seed)
    points = theta._point_from_coords(emb, rng.random((bases, 2 * genus)))
    return emb, shifts, theta._pair_offset(emb, shifts), points, rng


def test_partners_lie_clear_of_every_translate_of_their_base():
    from scrolls import theta

    # 100 translates, each refusing a 2e-3 square: some first candidates miss
    emb, shifts, offset, points, rng = partner_setup(1, 201, TAU, (1, 0, 100), 20_000, seed=1)
    first = theta._point_from_coords(emb, copy.deepcopy(rng).random((len(points), 2)))
    partners = theta._draw_partners(emb, shifts, points, rng, offset)
    gaps = np.full(len(points), np.inf)
    for shift in shifts:
        gaps = np.minimum(gaps, theta._distances(emb, partners - points - shift))
    assert gaps.min() > 1e-3
    assert (partners != first).any(axis=1).sum() > 0  # bases whose first candidate missed
    assert not (partners == points + offset).all(axis=1).any()  # each drew a partner again


@pytest.mark.parametrize("genus, degree, period, torsion", [
    (1, 9, TAU, (1, 0, 4)),
    (2, 7, OMEGA, (0, 1, 0, 0, 2)),
], ids=["genus1", "genus2"])
def test_partners_fall_back_to_the_offset_after_32_rounds(monkeypatch, genus, degree, period, torsion):
    from scrolls import theta

    emb, shifts, offset, points, rng = partner_setup(genus, degree, period, torsion, 70, seed=2)
    reference = copy.deepcopy(rng)
    # every candidate lies on a translate of its base
    monkeypatch.setattr(theta, "_distances", lambda emb, points: np.zeros(np.shape(points)[0]))
    assert np.array_equal(theta._draw_partners(emb, shifts, points, rng, offset), points + offset)
    for _ in range(32):
        reference.random((len(points), 2 * genus))
    assert rng.bit_generator.state == reference.bit_generator.state


def test_genus1_partners_are_the_doubles_drawn_after_the_bases():
    from scrolls import theta

    emb, shifts, offset, points, rng = partner_setup(1, 9, TAU, (1, 0, 4), 1000, seed=1)
    reference = copy.deepcopy(rng)
    partners = theta._draw_partners(emb, shifts, points, rng, offset)
    assert np.array_equal(partners, theta._point_from_coords(emb, reference.random((len(points), 2))))
    assert rng.bit_generator.state == reference.bit_generator.state  # one round: no base missed


@pytest.mark.parametrize("genus, degree, period, torsion", [
    (1, 9, TAU, (1, 0, 4)),
    (2, 7, OMEGA, (0, 1, 0, 0, 2)),
], ids=["genus1", "genus2"])
def test_probe_draws_bases_partners_then_tangents_and_grid_bases_keep_the_offset(
        monkeypatch, genus, degree, period, torsion):
    from scrolls import theta

    samples = 70  # the second block holds 6 sampled bases, then the grid
    emb, shifts, offset, points, reference = partner_setup(genus, degree, period, torsion, samples, seed=4)
    grid = theta._grid_points(emb)
    partners = np.concatenate([theta._draw_partners(emb, shifts, points, reference, offset), grid + offset])
    tangents = np.ones_like(partners)
    if genus > 1:  # one normal call for the real parts of every base, one for the imaginary
        raw = reference.normal(size=partners.shape) + 1j * reference.normal(size=partners.shape)
        tangents = raw / np.linalg.norm(raw, axis=1)[:, None]
    embed, recorded = theta._embed, {"partners": [], "tangents": []}

    def record(emb, points, tangent=None):
        if tangent is None:  # the partners' translates
            recorded["partners"].append(np.array(points))
        else:
            recorded["tangents"].append(np.array(tangent))
        return embed(emb, points, tangent)

    monkeypatch.setattr(theta, "_embed", record)
    summary = scroll_smoothness_probe(emb, shifts[1] if genus > 1 else complex(shifts[1, 0]), len(shifts),
                                      samples=samples, seed=4)
    assert summary.probes == 3 * (samples + theta._GRID_SIDE ** 2)
    second_block = samples - theta._BLOCK + theta._GRID_SIDE ** 2
    k = len(shifts)
    assert [len(points) for points in recorded["partners"]] == [theta._BLOCK * k, second_block * k]
    assert np.array_equal(np.concatenate(recorded["partners"]), (partners[:, None] + shifts).reshape(-1, genus))
    assert np.array_equal(np.concatenate(recorded["tangents"]), np.repeat(tangents, k, axis=0))


def test_smoothness_probe_genus2():
    emb = ThetaEmbedding(genus=2, period=OMEGA, degree=7)
    summary = scroll_smoothness_probe(emb, torsion_point(emb, (0, 1), (0, 0), 2).point, 2,
                                      samples=10, seed=42)
    assert summary.fails == 0
    assert summary.inconclusives == 0
    assert summary.min_margin > 1e-6
    assert summary.genus == 2


def test_probe_gray_zone_is_inconclusive():
    # two nearly identical points: decisive singular ratio falls in the gray
    # zone and must not be reported as pass or fail
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    p = 0.4 + 0.33j
    probe = very_ampleness_cluster_probe(emb, [p, p + 2e-8])
    assert probe.verdict == "inconclusive"


def test_cluster_probe_points_are_unit_norm():
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    probe = very_ampleness_cluster_probe(emb, [0.1 + 0.2j, 0.6 + 0.2j])
    assert isinstance(probe, ClusterProbe)
    for point in probe.points:
        assert np.linalg.norm(point.coords) == pytest.approx(1.0, abs=1e-12)


def test_any_m_minus_one_points_independent():
    # sampled version of the classical fact for elliptic normal curves of
    # degree m: every set of m-1 distinct points has full rank
    rng = np.random.default_rng(21)
    for m in (5, 6, 7):
        emb = ThetaEmbedding(genus=1, period=TAU, degree=m)
        for _ in range(15):
            points = [complex(x + y * TAU) for x, y in rng.random((m - 1, 2))]
            vectors = [theta_basis_eval(emb, z).coords for z in points]
            rank, margin = span_rank(vectors)
            assert rank == m - 1
            assert margin > 1e-6


def test_infinitely_near_cluster_of_length_m_minus_one():
    # m = 7: three distinct points doubled by derivative rows, length 6 <= 6
    emb = ThetaEmbedding(genus=1, period=TAU, degree=7)
    probe = very_ampleness_cluster_probe(emb, [0.11 + 0.52j, 0.67 + 0.23j, 0.38 + 0.81j], tangent=1.0)
    assert probe.verdict == "pass"
    assert probe.observed_rank == 6


# ------------------------------------------------- probe engine: pins, counts

# (genus, degree, torsion, samples, seed) -> (probes, passes, fails,
# inconclusives, float.hex(min_margin)), re-recorded when every random draw
# moved ahead of the lattice sums and the rank decision came to equilibrate
# columns; each row kept its counts.  The m = 11 case has fibre points whose
# terms pass 1e154, beyond an unscaled norm, and
# test_m11_points_beyond_the_norm_range_match_mpmath checks them.  Every
# decisive ratio of these rows lies at least three decades from the gray-zone
# cutoffs, so their verdict counts are exact across BLAS builds; min_margin
# is compared to a relative 1e-9, since SVDs of different builds may differ
# in the last bits.  A change to any verdict must update
# this table with its evidence.
PINNED_SUMMARIES = [
    ((1, 5, 1j, (1, 0, 2), 30, 7), (138, 138, 0, 0, "0x1.da0c71c9b6e0dp-5")),
    ((1, 7, 1j, (1, 0, 3), 30, 11), (138, 138, 0, 0, "0x1.ea9745b9ad8abp-5")),
    ((1, 9, 1j, (1, 0, 4), 20, 3), (108, 108, 0, 0, "0x1.a198e2737d297p-6")),
    ((1, 11, 0.1 + 6j, (0, 1, 5), 12, 2), (84, 84, 0, 0, "0x1.22a52a85d2960p-7")),
    ((2, 7, OMEGA, (0, 1, 0, 0, 2), 12, 42), (84, 84, 0, 0, "0x1.2dc531208c664p-8")),
    ((2, 11, OMEGA, (0, 1, 0, 0, 5), 4, 5), (60, 60, 0, 0, "0x1.2a110050c0ecap-6")),
    ((3, 9, OMEGA3, (0, 0, 1, 0, 0, 0, 2), 40, 1), (168, 168, 0, 0, "0x1.b265f1a63f8b2p-7")),
]
# The d = 9 torsion (1,0,0,0,3) case fails today (ROADMAP item 2).  Its
# decisive ratios sit next to the gray-zone cutoffs, so only the failure and
# the probe count (set by which bases evaluate, not by any SVD) are pinned;
# with this numpy build it gives (66, 43, 11, 12, "0x1.0f4339c191c8fp-26"),
# and the CLI's probe-surface --d 9 --torsion 1,0,0,0,3 --samples 6 --seed 1
# gives 66 probes: 44 pass, 7 fail, 15 inconclusive, exit 1.
GRAY_SUMMARY = ((2, 9, OMEGA, (1, 0, 0, 0, 3), 6, 42), 66)


def probe_setup(genus, degree, period, torsion):
    emb = ThetaEmbedding(genus=genus, period=period, degree=degree)
    *components, order = torsion
    generator = torsion_point(emb, components[:genus], components[genus:], order)
    return emb, generator.point, generator.actual_order


def pinned_probe(config):
    genus, degree, period, torsion, samples, seed = config
    emb, generator, order = probe_setup(genus, degree, period, torsion)
    summary = scroll_smoothness_probe(emb, generator, order, samples=samples, seed=seed)
    assert (summary.genus, summary.sections, summary.group_order) == (genus, degree, order)
    assert (summary.samples, summary.seed, summary.tol) == (samples, seed, HARD_TOL)
    return summary


@pytest.mark.parametrize("config, expected", PINNED_SUMMARIES)
def test_probe_summaries_pinned(config, expected):
    summary = pinned_probe(config)
    probes, passes, fails, inconclusives, margin_hex = expected
    assert (summary.probes, summary.passes, summary.fails, summary.inconclusives) == (
        probes, passes, fails, inconclusives
    )
    assert summary.min_margin == pytest.approx(float.fromhex(margin_hex), rel=1e-9)


def test_gray_zone_probe_summary_still_fails():
    config, probes = GRAY_SUMMARY
    summary = pinned_probe(config)
    assert summary.probes == probes
    assert summary.fails > 0


@pytest.mark.parametrize("genus, degree, period, torsion", [
    (1, 9, 1j, (1, 0, 4)),
    (2, 7, OMEGA, (0, 1, 0, 0, 2)),
])
def test_smoothness_probe_evaluates_each_point_once(monkeypatch, genus, degree, period, torsion):
    import scrolls.theta as theta

    emb, generator, k = probe_setup(genus, degree, period, torsion)
    group, samples = cyclic_group(emb, generator, k), 5
    summed, tangents = [], {}  # points of each lattice sum; call index -> tangent rows
    section_terms, derivative_sums = theta._section_terms, theta._derivative_sums

    def counted_terms(emb, points):
        summed.append(np.reshape(points, (-1, genus)))
        return section_terms(emb, points)

    def counted_derivatives(emb, centres, terms, tangent):
        rows = np.reshape(np.asarray(tangent, dtype=complex), (-1, genus))
        tangents[len(summed) - 1] = np.broadcast_to(rows, (len(centres), genus))
        return derivative_sums(emb, centres, terms, tangent)

    monkeypatch.setattr(theta, "_section_terms", counted_terms)
    monkeypatch.setattr(theta, "_derivative_sums", counted_derivatives)
    summary = scroll_smoothness_probe(emb, generator, k, samples=samples, seed=1)
    bases = np.concatenate([
        theta._point_from_coords(emb, np.random.default_rng(1).random((samples, 2 * genus))),
        theta._grid_points(emb),
    ])
    assert summary.probes == summary.passes == 3 * len(bases)
    # the fibre points of all bases with their tangents, then all partners:
    # each point in one lattice sum, each sum within the term budget
    step = max(1, theta._TERMS // emb._quad.size)
    assert all(len(points) <= step for points in summed)
    assert len(summed) == 2 * math.ceil(k * len(bases) / step) < 2 * len(bases)
    fibres = np.concatenate([summed[i] for i in sorted(tangents)])
    expected = np.reshape([base + rho for base in bases for rho in group], (-1, genus))
    assert np.array_equal(fibres, expected)
    directions = np.concatenate([tangents[i] for i in sorted(tangents)]).reshape(len(bases), k, genus)
    assert np.all(directions == directions[:, :1])  # one tangent per base
    assert np.allclose(np.linalg.norm(directions, axis=2), 1.0)
    # the rest are the k translates of each base's partner, k per base
    partners = np.concatenate([p for i, p in enumerate(summed) if i not in tangents])
    assert partners.shape == (k * len(bases), genus)
    partners = partners.reshape(len(bases), k, genus)
    group_rows = np.reshape(np.asarray(group, dtype=complex), (k, genus))
    assert np.allclose(partners - partners[:, :1], group_rows - group_rows[0], atol=1e-12)


def test_smoothness_probe_partner_error_keeps_fibre_verdict(monkeypatch):
    # the partner points are the only ones evaluated without a tangent; a
    # point whose sections vanish comes back as zero rows
    import scrolls.theta as theta

    emb, generator, order = probe_setup(2, 7, OMEGA, (0, 1, 0, 0, 2))
    embed = theta._embed

    def failing_partners(emb, points, tangent=None):
        coords, derivatives = embed(emb, points, tangent)
        return (np.zeros_like(coords) if tangent is None else coords), derivatives

    monkeypatch.setattr(theta, "_embed", failing_partners)
    summary = scroll_smoothness_probe(emb, generator, order, samples=5, seed=1)
    bases = 5 + theta._GRID_SIDE ** 2
    # one fibre verdict and one inconclusive per base; no later probe runs
    assert (summary.probes, summary.passes, summary.fails, summary.inconclusives) == (
        2 * bases, bases, 0, bases
    )


@pytest.mark.parametrize("genus, degree, period, torsion", [
    (1, 9, 1j, (1, 0, 4)),
    (2, 7, OMEGA, (0, 1, 0, 0, 2)),
])
def test_smoothness_probe_zero_derivative_rows_are_inconclusive(
    monkeypatch, genus, degree, period, torsion
):
    import scrolls.theta as theta

    emb, generator, order = probe_setup(genus, degree, period, torsion)
    monkeypatch.setattr(
        theta, "_derivative_sums",
        lambda emb, centres, terms, tangent: np.zeros(terms.shape[:2], dtype=complex),
    )
    summary = scroll_smoothness_probe(emb, generator, order, samples=5, seed=1)
    bases = 5 + theta._GRID_SIDE ** 2
    # fibre and two-fibre verdicts recorded, the immersion probe inconclusive
    assert (summary.probes, summary.passes, summary.fails, summary.inconclusives) == (
        3 * bases, 2 * bases, 0, bases
    )


@pytest.mark.parametrize("config", [config for config, _ in PINNED_SUMMARIES])
def test_probe_summary_does_not_depend_on_block_or_term_budget(monkeypatch, config):
    # one base per block and one fibre per lattice sum, as the probe once
    # evaluated them
    import scrolls.theta as theta

    default = pinned_probe(config)
    emb, _, order = probe_setup(*config[:4])
    monkeypatch.setattr(theta, "_BLOCK", 1)
    monkeypatch.setattr(theta, "_TERMS", order * emb._quad.size)
    budgeted = pinned_probe(config)
    if emb.genus < 3:
        assert budgeted == default  # min_margin to the last bit
    else:
        # a genus-3 point's 15552 terms exceed _TERMS, so by default each
        # lattice sum holds one point, and numpy's matmul forms its three-term
        # products v.(Omega*k + w) with BLAS gemv, not the gemm of a two-point
        # sum: the last bits may move, the verdicts may not
        assert budgeted._replace(min_margin=default.min_margin) == default
        assert budgeted.min_margin == pytest.approx(default.min_margin, rel=1e-12)


@pytest.mark.parametrize("make", [lambda: ThetaEmbedding(genus=1, period=0.3 + 0.9j, degree=7),
                                  lambda: ThetaEmbedding(genus=2, period=OMEGA, degree=7)])
def test_random_bases_drawn_in_one_call_match_one_at_a_time(make):
    from scrolls.theta import _point_from_coords

    emb = make()
    together = _point_from_coords(emb, np.random.default_rng(5).random((40, 2 * emb.genus)))
    assert together.shape == (40, emb.genus)
    rng = np.random.default_rng(5)
    for point in together:
        alone = _point_from_coords(emb, rng.random(2 * emb.genus))
        assert alone.shape == (emb.genus,)
        assert np.array_equal(point, alone)


def test_basis_eval_derivative_is_scaled_theta_derivative():
    from scrolls.theta import _embed

    rng = np.random.default_rng(13)
    curve = ThetaEmbedding(genus=1, period=0.3 + 0.9j, degree=7)
    cases = [(curve, complex(x + y * curve.period), 1.0) for x, y in rng.random((4, 2))]
    cases.append((ThetaEmbedding(genus=1, period=TAU, degree=5), 3.3 + 2.1j, 0.6 - 0.8j))
    surface = ThetaEmbedding(genus=2, period=OMEGA, degree=7)
    for _ in range(4):
        z = np.array([1.0, 7.0]) * rng.random(2) + OMEGA @ rng.random(2)
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        cases.append((surface, z, raw / np.linalg.norm(raw)))
    for emb, z, tangent in cases:
        point = theta_basis_eval(emb, z, tangent)
        coords, derivatives = _embed(emb, [z], tangent)
        assert np.array_equal(point.coords, coords[0])
        assert np.array_equal(point.derivative, derivatives[0])
        # the scaled sums divided by their norm, against the raw ones
        values = theta_values(emb, z)
        norm = np.linalg.norm(values)
        assert np.linalg.norm(point.coords - values / norm) < 1e-14
        derivative = theta_derivatives(emb, z, tangent) / norm
        assert np.linalg.norm(point.derivative - derivative) < 1e-14 * np.linalg.norm(derivative)


def test_points_whose_sections_vanish_are_refused(monkeypatch):
    import scrolls.theta as theta

    section_terms = theta._section_terms

    def vanishing(emb, points):
        centres, terms, peaks = section_terms(emb, points)
        return centres, np.zeros_like(terms), peaks

    monkeypatch.setattr(theta, "_section_terms", vanishing)
    emb = ThetaEmbedding(genus=1, period=TAU, degree=5)
    with pytest.raises(EvaluationError, match="all sections vanish"):
        theta_basis_eval(emb, 0.3 + 0.4j)
    with pytest.raises(EvaluationError, match="zero vectors"):
        very_ampleness_cluster_probe(emb, [0.1 + 0.2j, 0.6 + 0.2j])


# ------------------------------------ one lattice sum, box and stacked ranks

def _cache_cases():
    """(make embedding, point, tangent) with points whose boxes differ:
    seeded points, their lattice translates and points far from the
    fundamental domain."""
    rng = np.random.default_rng(17)
    tau = 0.3 + 0.9j
    curve_points = [complex(x + y * tau) for x, y in rng.random((3, 2))]
    curve_points += [z + a + b * tau for z in curve_points[:2] for a, b in ((1, 0), (0, 1), (-3, 2))]
    curve_points += [5.7 - 3.2j, -4.1 + 2.6j]
    cases = [(lambda: ThetaEmbedding(genus=1, period=tau, degree=7), z, 0.6 - 0.8j) for z in curve_points]
    surface_points = [np.array([1.0, 7.0]) * rng.random(2) + OMEGA @ rng.random(2) for _ in range(3)]
    shifts = [np.array([1.0, 0.0]), np.array([0.0, 7.0]), OMEGA[:, 0], 2 * OMEGA[:, 1] - OMEGA[:, 0]]
    surface_points += [z + shift for z in surface_points[:2] for shift in shifts]
    surface_points += [np.array([2.1 + 1.3j, 4.0 + 1.9j]), np.array([-3.0 - 2.2j, 1.5 - 3.1j])]
    tangent = np.array([0.6 + 0.1j, -0.3 + 0.73j])
    cases += [(lambda: ThetaEmbedding(genus=2, period=OMEGA, degree=7), z, tangent) for z in surface_points]
    return cases


def test_point_in_a_fibre_matches_its_own_evaluation():
    from scrolls.theta import _embed

    fibres = {}  # genus -> (embedding, tangent, points): one batch per genus
    for make, z, tangent in _cache_cases():
        emb = make()
        fibres.setdefault(emb.genus, (emb, tangent, []))[2].append(z)
    for emb, tangent, points in fibres.values():
        coords, derivatives = _embed(emb, points, tangent)
        for z, row, derivative in zip(points, coords, derivatives):
            alone = theta_basis_eval(emb, z, tangent)
            assert projective_residual(row, alone.coords) < 1e-14
            assert np.linalg.norm(derivative - alone.derivative) < 1e-14 * np.linalg.norm(
                alone.derivative
            )


def test_genus2_box_is_fixed_by_the_period():
    from scrolls.theta import _section_terms

    emb = ThetaEmbedding(genus=2, period=OMEGA, degree=7)
    side = 2 * emb.truncation_radius + 2
    far = np.array([0.0, 8j])
    for z in (np.zeros(2, dtype=complex), far):
        assert _section_terms(emb, z)[1].shape == (1, 7, side ** 2)
    tangent = np.array([0.6 + 0.1j, -0.3 + 0.73j])
    values, derivatives = mp_theta(7, OMEGA, far, tangent)
    assert relative_error(theta_values(emb, far), values) < 1e-12
    assert relative_error(theta_derivatives(emb, far, tangent), derivatives) < 1e-12


def test_genus2_far_point_is_refused_in_little_memory():
    import tracemalloc

    emb = ThetaEmbedding(genus=2, period=OMEGA, degree=7)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="overflow"):
            theta_values(emb, np.array([0.0, 3000j]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def test_genus2_far_point_embeds_in_little_memory():
    import tracemalloc

    emb = ThetaEmbedding(genus=2, period=OMEGA, degree=7)
    far = np.array([0.0, 3000j])
    tracemalloc.start()
    try:
        point = theta_basis_eval(emb, far, np.array([0.6 + 0.1j, -0.3 + 0.73j]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    assert np.linalg.norm(point.coords) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.isfinite(point.derivative))


@pytest.mark.parametrize("config", [PINNED_SUMMARIES[1][0], PINNED_SUMMARIES[3][0],
                                    PINNED_SUMMARIES[4][0]])
def test_probe_results_do_not_depend_on_call_history(config):
    genus, degree, period, torsion, samples, seed = config
    emb, generator, order = probe_setup(genus, degree, period, torsion)
    first = scroll_smoothness_probe(emb, generator, order, samples=samples, seed=seed)
    second = scroll_smoothness_probe(emb, generator, order, samples=samples, seed=seed)
    fresh = pinned_probe(config)
    assert first == second == fresh  # min_margin to the last bit


def test_stacked_rank_matches_one_matrix_at_a_time():
    from scrolls.theta import _rank

    rng = np.random.default_rng(23)
    stack = rng.normal(size=(6, 4, 9)) + 1j * rng.normal(size=(6, 4, 9))
    stack[2, 3] = 2.5 * stack[2, 0] - 1j * stack[2, 1]  # rank 3 of 4
    given = stack.copy()
    decided, stacked_ratios, ranks, margins = _rank(stack, HARD_TOL)
    assert np.array_equal(stack, given)  # the caller's stack is not equilibrated in place
    assert decided.tolist() == [True] * 6
    assert ranks.tolist() == [4, 4, 3, 4, 4, 4]
    for matrix, ratios, rank, margin in zip(stack, stacked_ratios, ranks, margins):
        alone_decided, alone_ratios, alone_ranks, alone_margins = _rank([matrix], HARD_TOL)
        assert alone_decided.tolist() == [True]
        assert np.array_equal(ratios, alone_ratios[0])
        assert (rank, float.hex(margin)) == (alone_ranks[0], float.hex(alone_margins[0]))
        # the one-matrix arithmetic written out: columns scaled by 2^-e, e the
        # exponent of their largest modulus, then rows normalized
        exponents = np.frexp(np.abs(matrix).max(axis=0))[1]
        scaled = np.ldexp(matrix.real, -exponents) + 1j * np.ldexp(matrix.imag, -exponents)
        singular = np.linalg.svd(scaled / np.linalg.norm(scaled, axis=1)[:, None], compute_uv=False)
        assert np.array_equal(ratios, singular / singular[0])
        assert float.hex(margin) == float.hex(float(ratios[rank - 1]))
    # a zero row leaves its own member undecided and no other
    stack[4, 1] = 0.0
    with_zero = _rank(stack, HARD_TOL)
    assert with_zero[0].tolist() == [True, True, True, True, False, True]
    others = with_zero[0]
    assert np.array_equal(with_zero[1], stacked_ratios[others])
    assert np.array_equal(with_zero[2], ranks[others])
    assert np.array_equal(with_zero[3], margins[others])


def test_stacked_verdicts_match_the_scalar_rule():
    from scrolls.theta import GRAY_HIGH, GRAY_LOW, _VERDICTS, _verdicts

    def scalar(ratios, rank, expected):  # one member at a time, written out
        decisive = float(ratios[expected - 1])
        if GRAY_LOW <= decisive <= GRAY_HIGH:
            return "inconclusive"
        return "pass" if decisive > GRAY_HIGH and rank == expected else "fail"

    ratios = np.array([[1.0, 0.5, 1e-3], [1.0, 0.5, 1e-8], [1.0, 0.5, 1e-12],
                       [1.0, 0.5, GRAY_HIGH], [1.0, 0.5, GRAY_LOW], [1.0, 0.5, np.nan],
                       [1.0, 1e-9, 0.0]])
    ranks = np.array([3, 3, 2, 3, 2, 2, 1])
    for expected in (1, 2, 3):  # a stack of `expected` rows has that many ratios
        verdicts = [_VERDICTS[v] for v in _verdicts(ratios[:, :expected], ranks)]
        assert verdicts == [scalar(r, rank, expected) for r, rank in zip(ratios, ranks)]
    assert _verdicts(ratios[:0, :2], ranks[:0]).shape == (0,)


@pytest.mark.parametrize("make, order", [(lambda: ThetaEmbedding(genus=1, period=0.3 + 0.9j, degree=9), 4),
                                         (lambda: ThetaEmbedding(genus=2, period=OMEGA, degree=11), 5)])
def test_group_geometry_matches_one_element_at_a_time(make, order):
    from scrolls.theta import _distances, _pair_offset, _point_from_coords

    emb = make()
    b = (1, 0) if emb.genus == 1 else ((0, 1), (0, 0))
    generator = torsion_point(emb, *b, order).point
    group = cyclic_group(emb, generator, order)
    expected = [0j if emb.genus == 1 else np.zeros(2, dtype=complex)]  # the sums, written out
    for _ in range(1, order):
        expected.append(expected[-1] + generator)
    assert [type(p) for p in group] == [type(p) for p in expected]
    assert all(np.array_equal(p, q) for p, q in zip(group, expected))
    scroll_smoothness_probe(emb, generator, order, samples=0, seed=0)
    with pytest.raises(ValueError, match=f"exact order {order - 1}"):
        scroll_smoothness_probe(emb, generator, order - 1, samples=0, seed=0)  # one element short
    for t in range(64):  # the first candidate offset clear of every element
        coords = [(0.351 + 0.1733 * t) % 1.0, (0.273 + 0.1411 * t) % 1.0] * emb.genus
        offset = _point_from_coords(emb, np.array(coords))
        if _distances(emb, [offset - np.reshape(r, emb.genus) for r in group]).min() > 1e-2:
            break
    assert np.array_equal(_pair_offset(emb, np.reshape(group, (order, emb.genus))), offset)


def test_span_rank_refuses_a_stack():
    with pytest.raises(ValueError, match="need a nonempty 2-d stack of vectors"):
        span_rank(np.ones((2, 3, 5)))
    with pytest.raises(ValueError, match="need a nonempty 2-d stack of vectors"):
        span_rank(np.ones(5))


# ----------------------------------------------------- mpmath theta oracle

ORACLE_DPS = 30


def mp_theta_genus1(m, tau, z, direction, projective=False):
    """Direct 30-digit sums of s_j(z) and their derivatives along direction;
    with `projective`, both divided by the norm of the values first, so that
    sums beyond the float range still convert."""
    with mpmath.workdps(ORACLE_DPS):
        tau, z, direction = mpmath.mpc(tau), mpmath.mpc(z), mpmath.mpc(direction)
        center = round(-m * float(z.imag) / (m * float(tau.imag)))
        values, derivatives = [], []
        for j in range(m):
            value = derivative = mpmath.mpc(0)
            for r in range(center - 30, center + 31):
                u = r + mpmath.mpf(j) / m
                term = mpmath.exp(1j * mpmath.pi * m * tau * u * u + 2j * mpmath.pi * u * m * z)
                value += term
                derivative += 2j * mpmath.pi * m * direction * u * term
            values.append(value)
            derivatives.append(derivative)
        norm = mpmath.sqrt(mpmath.fsum(abs(v) ** 2 for v in values)) if projective else 1
        return (np.array([complex(v / norm) for v in values]),
                np.array([complex(d / norm) for d in derivatives]))


def mp_theta(d, omega, z, tangent, reach=12):
    """Direct 30-digit sums of s_j(z) = theta[(0, ..., 0, j/d), 0](z, omega) in
    genus g = len(z), and their derivatives along tangent, over the lattice
    vectors within `reach` of the peak in each coordinate."""
    g = len(z)
    with mpmath.workdps(ORACLE_DPS):
        om = [[mpmath.mpc(omega[i, j]) for j in range(g)] for i in range(g)]
        zv = [mpmath.mpc(c) for c in z]
        tv = [mpmath.mpc(c) for c in tangent]
        center = np.rint(-np.linalg.solve(omega.imag, np.asarray(z).imag)).astype(int)
        box = list(itertools.product(*[range(c - reach, c + reach + 1) for c in center]))
        values, derivatives = [], []
        for j in range(d):
            value = derivative = mpmath.mpc(0)
            for n in box:
                u = [mpmath.mpf(c) for c in n[:-1]] + [n[-1] + mpmath.mpf(j) / d]
                quad = sum(u[a] * om[a][b] * u[b] for a in range(g) for b in range(g))
                linear = sum(u[a] * zv[a] for a in range(g))
                term = mpmath.exp(1j * mpmath.pi * quad + 2j * mpmath.pi * linear)
                value += term
                derivative += 2j * mpmath.pi * sum(u[a] * tv[a] for a in range(g)) * term
            values.append(complex(value))
            derivatives.append(complex(derivative))
    return np.array(values), np.array(derivatives)


def relative_error(ours, oracle):
    return float(np.linalg.norm(ours - oracle) / np.linalg.norm(oracle))


@pytest.mark.parametrize("m, tau, z", [
    (5, 1j, 0.31 + 0.47j),
    (5, 1j, 3.3 + 2.1j),       # far from the fundamental domain
    (7, 0.3 + 0.9j, -1.7 + 0.2j),
])
def test_genus1_theta_matches_mpmath(m, tau, z):
    emb = ThetaEmbedding(genus=1, period=tau, degree=m)
    direction = 0.6 - 0.8j
    values, derivatives = mp_theta_genus1(m, tau, z, direction)
    assert relative_error(theta_values(emb, z), values) < 1e-12
    assert relative_error(theta_derivatives(emb, z, direction), derivatives) < 1e-12


@pytest.mark.parametrize("z", [
    np.array([0.23 + 0.31j, -0.12 + 0.44j]),
    np.array([2.1 + 1.3j, 4.0 + 1.9j]),  # far from the fundamental domain
])
def test_genus2_theta_matches_mpmath(z):
    emb = ThetaEmbedding(genus=2, period=OMEGA, degree=7)
    tangent = np.array([0.6 + 0.1j, -0.3 + 0.73j])
    values, derivatives = mp_theta(7, OMEGA, z, tangent)
    assert relative_error(theta_values(emb, z), values) < 1e-12
    assert relative_error(theta_derivatives(emb, z, tangent), derivatives) < 1e-12


def test_genus3_theta_matches_mpmath():
    emb = ThetaEmbedding(genus=3, period=OMEGA3, degree=9)
    z = np.array([0.23 + 0.31j, -0.12 + 0.44j, 0.05 + 0.2j])
    tangent = np.array([0.6 + 0.1j, -0.3 + 0.73j, 0.2 - 0.4j])
    # a +-4 box agrees to about 4e-16 here; +-3 drops terms of relative size 2e-11
    values, derivatives = mp_theta(9, OMEGA3, z, tangent, reach=4)
    assert relative_error(theta_values(emb, z), values) < 1e-12
    assert relative_error(theta_derivatives(emb, z, tangent), derivatives) < 1e-12


@pytest.mark.parametrize("m, tau, z", [
    (11, 0.1 + 6j, 0.3 + 1.4 * (0.1 + 6j)),  # terms near 1e176: the unscaled norm overflows
    (5, 1j, 0.31 + 60.47j),                  # terms near e^57438, beyond the float range
], ids=["norm-overflow", "beyond-float-range"])
def test_far_point_projective_image_matches_mpmath(m, tau, z):
    point = theta_basis_eval(ThetaEmbedding(genus=1, period=tau, degree=m), z, 1.0)
    values, derivatives = mp_theta_genus1(m, tau, z, 1.0, projective=True)
    # the scaling is a positive factor, so no phase is left to fit
    assert np.linalg.norm(point.coords - values) < 1e-12
    assert np.linalg.norm(point.derivative - derivatives) < 1e-12 * np.linalg.norm(derivatives)


def test_m11_points_beyond_the_norm_range_match_mpmath():
    # the fibre points of the m = 11 pin whose largest term passes 1e154
    # (e^354.9), where an unscaled norm overflows: their bases were
    # inconclusive before the terms were scaled
    from scrolls.theta import _embed, _grid_points, _point_from_coords, _section_terms

    (genus, m, tau, torsion, samples, seed), _ = PINNED_SUMMARIES[3]
    emb, generator, order = probe_setup(genus, m, tau, torsion)
    group = cyclic_group(emb, generator, order)
    bases = np.concatenate([
        _point_from_coords(emb, np.random.default_rng(seed).random((samples, 2))), _grid_points(emb)
    ])[:, 0]
    points = [base + rho for base in bases for rho in group]
    points = [z for z, peak in zip(points, _section_terms(emb, points)[2]) if peak > 354.9]
    assert len(points) >= 10
    coords, derivatives = _embed(emb, points, 1.0)
    for z, row, derivative in zip(points, coords, derivatives):
        values, oracle_derivatives = mp_theta_genus1(m, tau, z, 1.0, projective=True)
        assert np.linalg.norm(row - values) < 1e-12
        assert np.linalg.norm(derivative - oracle_derivatives) < 1e-12 * np.linalg.norm(oracle_derivatives)
