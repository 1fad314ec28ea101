"""Bracket family generation, rank evaluation, regularity audits."""

from __future__ import annotations

import numpy as np
import pytest

from geoctrl.fields import VectorField
from geoctrl.lie import (
    NotRegularError,
    audit_regularity,
    codimension,
    generate_bracket_basis,
    matrix_rank,
    window_grid,
)

N2 = ("x1", "x2")
N3 = ("x1", "x2", "x3")


def _heisenberg():
    g1 = VectorField.parse(["1", "0", "-x2/2"], N3)
    g2 = VectorField.parse(["0", "1", "x1/2"], N3)
    return [g1, g2]


def test_heisenberg_closure():
    fam = generate_bracket_basis(_heisenberg())
    assert len(fam.fields) == 3
    depths = sorted(d for _, d, _ in fam.generated)
    assert depths == [1, 1, 2]
    words = [w for _, _, w in fam.generated]
    assert words[:2] == ["g1", "g2"]
    assert "[" in words[2]
    p = np.array([0.3, -0.7, 2.0])
    bracket = fam.fields[2](p)
    assert np.allclose(bracket, [0, 0, 1], atol=1e-14)


def test_commuting_constants_stay_two():
    g1 = VectorField.constant([1, 0, 0], N3)
    g2 = VectorField.constant([0, 1, 0], N3)
    fam = generate_bracket_basis([g1, g2])
    assert len(fam.fields) == 2


def test_single_generator():
    g = VectorField.constant([0, 0, 1], N3)
    fam = generate_bracket_basis([g])
    assert len(fam.fields) == 1


def _rank_at(fam, p):
    return matrix_rank(fam.evaluate_matrix(p))


def test_rank_at_examples():
    fam = generate_bracket_basis(_heisenberg())
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = rng.uniform(-2, 2, size=3)
        assert _rank_at(fam, p) == 3

    g1 = VectorField.parse(["1", "0"], N2)
    g2 = VectorField.parse(["0", "x1"], N2)
    fam2 = generate_bracket_basis([g1, g2], depth_cap=1)
    assert _rank_at(fam2, np.array([0.0, 5.0])) == 1
    assert _rank_at(fam2, np.array([2.0, 5.0])) == 2
    # a stack of points gives the rank at each point
    assert _rank_at(fam2, np.array([[0.0, 5.0], [2.0, 5.0]])).tolist() == [1, 2]

    single = generate_bracket_basis([VectorField.constant([0, 1], N2)])
    assert _rank_at(single, np.array([0.7, 0.0])) == 1


def test_rank_invariances():
    fam = generate_bracket_basis(_heisenberg())
    rng = np.random.default_rng(5)
    p = rng.uniform(-1, 1, size=3)
    M = fam.evaluate_matrix(p)
    base = matrix_rank(M)
    for _ in range(10):
        perm = rng.permutation(M.shape[1])
        scales = rng.uniform(0.5, 3.0, size=M.shape[1]) * rng.choice([-1, 1], size=M.shape[1])
        assert matrix_rank(M[:, perm] * scales) == base


def test_rank_monotone_in_depth_cap():
    gens = _heisenberg()
    probes = [np.array([0.1, 0.2, 0.3])]
    prev = 0
    for cap in range(1, 5):
        fam = generate_bracket_basis(gens, depth_cap=cap, probe_points=probes)
        r = _rank_at(fam, probes[0])
        assert r >= prev
        prev = r


def test_audit_constant_rank_line_field():
    g = VectorField.constant([0, 1], N2)
    fam = generate_bracket_basis([g])
    rep = audit_regularity(fam, [(-2, 2), (-2, 2)], grid_per_axis=11)
    assert rep.constant_rank
    assert rep.rank == 1
    assert rep.codim == 1
    assert codimension(rep) == 1
    assert len(rep.singular_points) == 0


def test_audit_detects_rank_drop():
    g1 = VectorField.parse(["1", "0"], N2)
    g2 = VectorField.parse(["0", "x1"], N2)
    fam = generate_bracket_basis([g1, g2], depth_cap=1)
    rep = audit_regularity(fam, [(-2, 2), (-2, 2)], grid_per_axis=11)
    assert not rep.constant_rank
    assert rep.rank is None
    # the grid contains the x1=0 line, where the second field vanishes
    assert len(rep.singular_points) == 11
    assert np.allclose(rep.singular_points[:, 0], 0.0)
    with pytest.raises(NotRegularError):
        codimension(rep)


def test_audit_unicycle_steering_only():
    g = VectorField.constant([0, 0, 1], N3)
    fam = generate_bracket_basis([g])
    rep = audit_regularity(
        fam, [(-2, 2), (-2, 2), (-np.pi, np.pi)], grid_per_axis=5
    )
    assert rep.constant_rank
    assert rep.codim == 2


def test_codimension_small_cases():
    g = VectorField.constant([0, 1], N2)
    rep = audit_regularity(generate_bracket_basis([g]), [(-1, 1), (-1, 1)], 3)
    assert codimension(rep) == 1


def test_window_grid_shape():
    pts = window_grid([(-1, 1), (0, 2), (3, 4)], 4)
    assert pts.shape == (64, 3)
    assert pts[:, 0].min() == -1 and pts[:, 0].max() == 1
    assert pts[:, 2].min() == 3 and pts[:, 2].max() == 4


def test_empty_generators_rejected():
    with pytest.raises(ValueError):
        generate_bracket_basis([])


def test_a_singularity_the_kernel_maps_to_a_finite_value_is_audited():
    # exp(0 - 1/x1) is 0 in the kernel at x1 = 0, a grid point of the
    # 3-per-axis grid; the audit reads that value and does not refuse
    g = VectorField.parse(["1", "exp(0 - 1/x1)"], N2)
    rep = audit_regularity(generate_bracket_basis([g]), [(-1.0, 1.0), (-1.0, 1.0)], 3)
    assert rep.constant_rank and rep.rank == 1
