import numpy as np
import pytest

from cjopt.alternating import gamma_nullspace_param
from cjopt.errors import InfeasibleProgram, RankDeficient
from cjopt.kernel import (
    Box,
    ConvexProgram,
    LinearIneq,
    Quadratic,
    ReciprocalSum,
    phase_one,
    solve,
)


def test_min_x_above_one():
    prog = ConvexProgram(
        n_vars=1,
        objective=np.array([1.0]),
        constraints=[Box(idx=0, lo=1.0, hi=10.0)],
        strictly_feasible_point=np.array([2.0]),
    )
    sol = solve(prog)
    assert sol.status == "Converged"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-6)


def test_reciprocal_structure_closed_form():
    # min eta s.t. a x <= eta, c / x <= b, 0 < x <= u  ->  x* = c/b.
    a, c, b, u = 2.0, 3.0, 1.5, 10.0
    prog = ConvexProgram(
        n_vars=2,
        objective=np.array([0.0, 1.0]),
        constraints=[
            LinearIneq(a=np.array([a, -1.0]), b=0.0),
            ReciprocalSum(idx=np.array([0]), coeff=np.array([c]),
                          power=np.array([1.0]), a=np.zeros(2), b=b),
            Box(idx=0, lo=1e-9, hi=u),
        ],
        strictly_feasible_point=np.array([4.0, 10.0]),
    )
    sol = solve(prog, gap_ref=0.0)
    assert sol.status == "Converged"
    assert sol.x[0] == pytest.approx(c / b, rel=1e-6)
    assert sol.objective_value == pytest.approx(a * c / b, rel=1e-6)


def test_random_programs_match_vertex_enumeration():
    # 2-variable linear programs over a box; a bounded LP attains its optimum
    # at a vertex, so enumerating half-plane intersections is an exact oracle.
    for seed in range(8):
        rng = np.random.default_rng(seed)
        cons = [Box(idx=0, lo=0.0, hi=1.0), Box(idx=1, lo=0.0, hi=1.0)]
        center = np.array([0.5, 0.5])
        half_planes = [
            (np.array([-1.0, 0.0]), 0.0), (np.array([1.0, 0.0]), 1.0),
            (np.array([0.0, -1.0]), 0.0), (np.array([0.0, 1.0]), 1.0),
        ]
        for _ in range(3):
            a = rng.standard_normal(2)
            b = float(a @ center) + rng.uniform(0.1, 0.5)
            cons.append(LinearIneq(a=a, b=b))
            half_planes.append((a, b))
        obj = rng.standard_normal(2)
        prog = ConvexProgram(n_vars=2, objective=obj, constraints=cons,
                             strictly_feasible_point=center.copy())
        sol = solve(prog)
        best = np.inf
        for i in range(len(half_planes)):
            for j in range(i + 1, len(half_planes)):
                A = np.array([half_planes[i][0], half_planes[j][0]])
                b = np.array([half_planes[i][1], half_planes[j][1]])
                if abs(np.linalg.det(A)) < 1e-12:
                    continue
                v = np.linalg.solve(A, b)
                if all(a @ v <= c + 1e-9 for a, c in half_planes):
                    best = min(best, float(obj @ v))
        assert sol.objective_value == pytest.approx(best, rel=1e-5, abs=1e-5)


def test_quadratic_constraint():
    # min -x s.t. x^2 <= 4  ->  x = 2.
    prog = ConvexProgram(
        n_vars=1,
        objective=np.array([-1.0]),
        constraints=[Quadratic(M=np.array([[1.0]]), d=np.zeros(1), a=np.zeros(1), b=4.0)],
        strictly_feasible_point=np.array([0.0]),
    )
    sol = solve(prog)
    assert sol.x[0] == pytest.approx(2.0, rel=1e-6)


def test_path_objectives_non_increasing():
    prog = ConvexProgram(
        n_vars=2,
        objective=np.array([1.0, 1.0]),
        constraints=[Box(idx=0, lo=0.5, hi=5.0), Box(idx=1, lo=0.25, hi=5.0)],
        strictly_feasible_point=np.array([4.0, 4.0]),
    )
    sol = solve(prog)
    diffs = np.diff(sol.path_objectives)
    assert np.all(diffs <= 1e-9)


class TestPhaseOne:
    def test_finds_interior_point(self):
        prog = ConvexProgram(
            n_vars=2,
            objective=np.zeros(2),
            constraints=[
                LinearIneq(a=np.array([1.0, 1.0]), b=1.0),
                Box(idx=0, lo=0.0),
                Box(idx=1, lo=0.0),
            ],
        )
        v = phase_one(prog)
        for con in prog.atoms():
            assert con.value(v) < 0.0

    def test_detects_infeasible(self):
        prog = ConvexProgram(
            n_vars=1,
            objective=np.zeros(1),
            constraints=[
                LinearIneq(a=np.array([1.0]), b=0.0),   # x <= 0
                LinearIneq(a=np.array([-1.0]), b=-1.0),  # x >= 1
            ],
        )
        with pytest.raises(InfeasibleProgram):
            phase_one(prog)


# The null-space parametrization is part of cjopt.alternating, its only user.
class TestGammaNullspaceParam:
    def test_orthonormal_columns(self):
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 2))
                            + 1j * np.random.default_rng(1).standard_normal((5, 2)))
        particular, _ = gamma_nullspace_param(Q)
        assert np.allclose(particular, Q, atol=1e-12)

    def test_square_case_has_empty_basis(self):
        rng = np.random.default_rng(2)
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        _, basis = gamma_nullspace_param(G)
        assert basis.shape == (3, 0)

    def test_basis_spans_nullspace(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        _, B = gamma_nullspace_param(G)
        assert np.abs(G.conj().T @ B).max() <= 1e-10
        assert np.allclose(B.conj().T @ B, np.eye(3), atol=1e-12)

    def test_reconstruction_for_random_w(self):
        rng = np.random.default_rng(4)
        G = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        target = np.array([1.5, 0.25])
        particular, basis = gamma_nullspace_param(G)
        for _ in range(10):
            W = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            gh = particular @ np.diag(target) + basis @ W
            assert np.abs(G.conj().T @ gh - np.diag(target)).max() <= 1e-9

    def test_rank_deficient_rejected(self):
        G = np.ones((4, 2), dtype=complex)
        with pytest.raises(RankDeficient):
            gamma_nullspace_param(G)
