from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cjopt import experiments, kernel
from cjopt.alternating import solve_alternating
from cjopt.baselines import fixed_split_spectrum
from cjopt.errors import CjoptError, InfeasibleProgram, NumericalFailure, RankDeficient
from cjopt.feasibility import check_existence
from cjopt.kernel import (
    Box,
    ConvexProgram,
    LinearIneq,
    Quadratic,
    ReciprocalSum,
    _Stacked,
    _compile,
    phase_one,
    solve,
    solve_batch,
)
from cjopt.model import SystemParams, channel_inversion_precoder, generate_rayleigh
from cjopt.numerics import gamma_nullspace_param
from cjopt.optimal import compute_phi, optimal_spectrum, solve_optimal
from reference import eq14_dual_bound
from util import feasible_instance, sweep_cli_spec


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
            assert con.a @ v - con.b < 0.0

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


    def test_nonlinear_atoms(self):
        # min v0 s.t. ||v - (3, 3)||^2 <= 1, 1/v0 + 1/v1^2 <= 2, v1 <= 10  ->  v = (2, 3).
        prog = ConvexProgram(
            n_vars=2,
            objective=np.array([1.0, 0.0]),
            constraints=[
                Quadratic(M=np.eye(2), d=np.array([-3.0, -3.0]), a=np.zeros(2), b=1.0),
                ReciprocalSum(idx=np.array([0, 1]), coeff=np.ones(2), power=np.array([1.0, 2.0]),
                              a=np.zeros(2), b=2.0),
                Box(idx=1, hi=10.0),
            ],
        )
        v = phase_one(prog)
        assert np.sum((v - 3.0) ** 2) < 1.0
        assert v[0] > 0.0 and v[1] > 0.0 and 1.0 / v[0] + 1.0 / v[1] ** 2 < 2.0
        assert v[1] < 10.0
        sol = solve(prog)
        assert sol.status == "Converged"
        assert sol.x == pytest.approx([2.0, 3.0], abs=1e-6)


def _direct_values(cons, v):
    """g_i(v) of every barrier term, straight from the dataclass formulas,
    boxes expanded as (lo side, hi side)."""
    out = []
    for c in cons:
        if isinstance(c, Box):
            out += [c.lo - v[c.idx]] if np.isfinite(c.lo) else []
            out += [v[c.idx] - c.hi] if np.isfinite(c.hi) else []
        elif isinstance(c, ReciprocalSum):
            out.append(np.sum(c.coeff / v[c.idx] ** c.power) + c.a @ v - c.b)
        elif isinstance(c, Quadratic):
            out.append(np.sum((c.M @ v + c.d) ** 2) + c.a @ v - c.b)
        else:
            out.append(c.a @ v - c.b)
    return np.array(out)


def _random_program(rng, n):
    """A program mixing the four kinds, strictly feasible at the returned
    point, which has every variable in [0.5, 2]. It may lack reciprocal or
    quadratic terms, and a reciprocal sum may name one variable twice."""
    v = rng.uniform(0.5, 2.0, n)
    cons = []
    for _ in range(rng.integers(0, 3)):
        k = int(rng.integers(1, n + 1))
        cons.append(ReciprocalSum(idx=rng.choice(n, k, replace=True), coeff=rng.uniform(0.1, 2.0, k),
                                  power=rng.choice([1.0, 2.0], k), a=rng.standard_normal(n), b=0.0))
    for _ in range(rng.integers(0, 3)):
        rows = int(rng.integers(1, n + 2))
        cons.append(Quadratic(M=rng.standard_normal((rows, n)), d=rng.standard_normal(rows),
                              a=rng.standard_normal(n), b=0.0))
    cons.append(LinearIneq(a=rng.standard_normal(n), b=0.0))
    # Put every right-hand side strictly above the value at v.
    g = _direct_values(cons, v)
    cons = [replace(c, b=float(gi + rng.uniform(0.1, 1.0))) for c, gi in zip(cons, g)]
    for j in range(n):
        lo, hi = v[j] - rng.uniform(0.1, 0.4), v[j] + rng.uniform(0.1, 1.0)
        cons.append(Box(idx=j, lo=lo, hi=hi) if j % 3 == 0 else
                    Box(idx=j, lo=lo) if j % 3 == 1 else Box(idx=j, hi=hi))
    rng.shuffle(cons)
    return ConvexProgram(n_vars=n, objective=np.zeros(n), constraints=cons), v


def _bounded_objective(rng, n):
    """A random objective that the boxes of _random_program bound: v_j has
    both bounds for j % 3 == 0, a lower bound only for 1, an upper only for 2."""
    c = rng.standard_normal(n)
    return np.where(np.arange(n) % 3 == 1, np.abs(c), np.where(np.arange(n) % 3 == 2, -np.abs(c), c))


def _col(x):
    """A vector as the column the compiled form of one program takes."""
    return np.reshape(x, (-1, 1))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_stacked_form_matches_formulas_and_differences(seed, n):
    rng = np.random.default_rng(seed)
    prog, v = _random_program(rng, n)
    S = _Stacked([_compile(prog)])
    assert S.m == len(prog.atoms())
    g = S.g(_col(v))[0][:, 0]
    assert g == pytest.approx(_direct_values(prog.constraints, v), rel=1e-12, abs=1e-12)
    assert S.interior(_col(v))[1] is None and np.all(g < 0)  # None: every point is interior

    h = 1e-6
    w = rng.uniform(0.1, 2.0, S.m)
    A = S.A.copy()

    def jac(v):
        return S.jac(_col(v), S.g(_col(v))[2])

    J, H = jac(v), S.hess(_col(v), _col(w), np.zeros((S.n, S.n)), S.g(_col(v))[2])
    # A second evaluation agrees, and neither edits the compiled A in place.
    assert np.array_equal(jac(v), J)
    assert np.array_equal(S.hess(_col(v), _col(w), np.zeros((S.n, S.n)), S.g(_col(v))[2]), H)
    assert np.array_equal(S.A, A)
    for j in range(S.n):
        e = np.zeros(S.n)
        e[j] = h
        dg = (S.g(_col(v + e))[0][:, 0] - S.g(_col(v - e))[0][:, 0]) / (2 * h)
        assert J[:, j] == pytest.approx(dg, rel=1e-6, abs=1e-6)
        dgrad = (jac(v + e).T @ w - jac(v - e).T @ w) / (2 * h)
        assert H[:, j] == pytest.approx(dgrad, rel=1e-5, abs=1e-5)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_phase_one_finds_interior_point_of_random_programs(seed, n):
    # The programs have an interior but no start point: the optimum of the
    # auxiliary-slack program lies strictly inside every constraint.
    prog, _ = _random_program(np.random.default_rng(seed), n)
    assert prog.strictly_feasible_point is None
    assert np.all(_direct_values(prog.constraints, phase_one(prog)) < 0.0)


def test_phase_one_cut_short_claims_no_infeasibility(monkeypatch):
    # This program has an interior point; a phase-one solve that the step
    # limit stops before it reaches one proves nothing, so it may not
    # raise InfeasibleProgram.
    monkeypatch.setattr(kernel, "_MAX_STEPS", 4)
    prog, v = _random_program(np.random.default_rng(0), 5)
    assert np.all(_direct_values(prog.constraints, v) < 0.0)
    with pytest.raises(NumericalFailure, match="phase one stopped"):
        phase_one(prog)


@pytest.mark.parametrize("seed", [1374, 1436])
@pytest.mark.parametrize("gap_ref", [0.0, 1.0])
def test_decrement_is_recomputed_after_t_rises(seed, gap_ref):
    # After t rises at a centered point, the next line search's decrease
    # test reads the decrement at the new t. With the old t's decrement
    # these programs stop with MaxIterations after 2-3 steps. Alone they
    # run on _lone, and stacked with a copy on _path.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    prog, v = _random_program(rng, n)
    prog = replace(prog, objective=_bounded_objective(rng, n), strictly_feasible_point=v)
    for sol in [solve(prog, gap_ref), *solve_batch([prog, prog], gap_ref)]:
        assert sol.status == "Converged"


def _closed_form_program():
    # min eta s.t. 2 x <= eta, 3 / x <= 1.5, 0 < x <= 10  ->  x* = 2.
    return ConvexProgram(
        n_vars=2,
        objective=np.array([0.0, 1.0]),
        constraints=[
            LinearIneq(a=np.array([2.0, -1.0]), b=0.0),
            ReciprocalSum(idx=np.array([0]), coeff=np.array([3.0]),
                          power=np.array([1.0]), a=np.zeros(2), b=1.5),
            Box(idx=0, lo=1e-9, hi=10.0),
        ],
        strictly_feasible_point=np.array([4.0, 10.0]),
    )


def _nonlinear_program():
    # min v0 s.t. ||v - (3, 3)||^2 <= 1, 1/v0 + 1/v1^2 <= 2, v1 <= 10, from phase one.
    return ConvexProgram(
        n_vars=2,
        objective=np.array([1.0, 0.0]),
        constraints=[
            Quadratic(M=np.eye(2), d=np.array([-3.0, -3.0]), a=np.zeros(2), b=1.0),
            ReciprocalSum(idx=np.array([0, 1]), coeff=np.ones(2), power=np.array([1.0, 2.0]),
                          a=np.zeros(2), b=2.0),
            Box(idx=1, hi=10.0),
        ],
    )


@pytest.mark.parametrize("build, gap_ref", [(_closed_form_program, 0.0), (_nonlinear_program, 1.0)])
def test_kkt_residual_small_when_converged(build, gap_ref):
    sol = solve(build(), gap_ref)
    assert sol.status == "Converged"
    assert 0.0 <= sol.kkt_residual <= 1e-9


@pytest.mark.parametrize("limits", [{"_MAX_STEPS": 3}, {"_DECREASE": 1e12}])
def test_stalled_solve_is_not_converged(monkeypatch, limits):
    # A step limit reached, or a line search that can never lower the
    # barrier, must not be reported as a converged solve.
    for name, value in limits.items():
        monkeypatch.setattr(kernel, name, value)
    prog = _closed_form_program()
    sol = solve(prog, gap_ref=0.0)
    assert sol.status == "MaxIterations"
    assert sol.iterations <= 3
    assert _Stacked([_compile(prog)]).interior(_col(sol.x))[1] is None


def _counting_kernel(monkeypatch):
    """Record every KernelSolution that kernel.solve returns."""
    sols = []
    real = kernel.solve

    def counted(prog, gap_ref=1.0):
        sols.append(real(prog, gap_ref))
        return sols[-1]

    monkeypatch.setattr(kernel, "solve", counted)
    return sols


@pytest.fixture(scope="module")
def eve_sweep_solves():
    """solve_optimal on the paper's Eve-antenna sweep (N=20, K=10, L=35,
    Z=5..20, rng_seed 0-11): the feasible draws with their designs, and
    every kernel solution."""
    with pytest.MonkeyPatch.context() as mp:
        sols = _counting_kernel(mp)
        draws = []
        for z in (5, 10, 15, 20):
            params = SystemParams(n=20, k=10, l=35, z=z, sigma2=1.0, tau=10.0, p_tot=10.0)
            for seed in range(12):
                ch = generate_rayleigh(params, rng_seed=seed)
                pre = channel_inversion_precoder(ch, params.tau)
                if check_existence(pre, params).feasible:
                    draws.append((params, ch, pre, solve_optimal(pre, ch, params)))
    return draws, sols


class TestPaperSizeSolves:
    def test_eq14_dual_certificate(self, eve_sweep_solves):
        # The final point must be centered well enough that the central-path
        # weights 1 / (eta - c_k.x) give a Lagrange bound within 1e-6 of eta.
        draws, _ = eve_sweep_solves
        assert len(draws) == 24
        for params, ch, pre, d in draws:
            assert d.status == "Converged"
            lb = eq14_dual_bound(np.abs(pre.A) ** 2, d.p, compute_phi(ch), params.sigma2,
                                 params.p_tot, d.x, d.eta)
            assert -1e-9 * d.eta <= d.eta - lb <= 1e-6 * d.eta

    def test_kkt_residual_small(self, eve_sweep_solves):
        _, sols = eve_sweep_solves
        assert all(s.status == "Converged" and s.kkt_residual <= 1e-9 for s in sols)

    def test_eq14_newton_steps_halved(self, eve_sweep_solves):
        # The log-barrier schedule (t0 = 1, mu = 10) took 62.5 steps per solve here.
        draws, sols = eve_sweep_solves
        assert len(sols) == len(draws)
        assert np.mean([s.iterations for s in sols]) <= 62.5 / 2

    def test_alternating_newton_steps_halved(self, monkeypatch):
        # The leaky regime (L < K + Z): the log-barrier schedule took 95
        # steps per block program on such draws.
        params = SystemParams(n=10, k=3, l=17, z=15, sigma2=1.0, tau=10 ** 0.3, p_tot=1e4)
        ch = generate_rayleigh(params, gain_db_b=-30.0, rng_seed=0)
        pre = channel_inversion_precoder(ch, params.tau)
        assert check_existence(pre, params).feasible
        sols = _counting_kernel(monkeypatch)
        _, design = solve_alternating(pre, ch, params)
        assert design.status == "Converged"
        # Two block programs per outer iteration; the leak probe's cap-free
        # spectrum is solved in its dual.
        assert len(sols) == 2 * design.iterations >= 5
        assert all(s.status == "Converged" and s.kkt_residual <= 1e-9 for s in sols)
        assert np.mean([s.iterations for s in sols]) <= 95 / 2


# The null-space parametrization behind ChannelSet.eve_nullspace, on arbitrary G.
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


def _eq14_programs(count, seed0=0):
    """Kernel programs of eq14 (N=8, K=3, L=6, Z=2) on random feasible
    draws: one shape, each program with its own data and start point."""
    progs, seed = [], seed0
    while len(progs) < count:
        params, ch, pre = feasible_instance(seed, p_tot=10 ** (1.5 + 0.05 * seed))
        progs.append(optimal_spectrum(pre, ch, params).program)
        seed += 1
    return progs


def _same(a, b):
    """Bit-identical kernel results (or identical errors)."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return (np.array_equal(a.x, b.x) and a.objective_value == b.objective_value
            and a.iterations == b.iterations and a.status == b.status
            and a.kkt_residual == b.kkt_residual and a.path_objectives == b.path_objectives)


def _alone(prog, gap_ref):
    try:
        return solve(prog, gap_ref)
    except NumericalFailure as exc:
        return exc


class TestSolveBatch:
    def test_batch_results_equal_lone_solves(self):
        # Each program of a batch of 32 gets exactly (to the last bit) what
        # it gets alone, whatever step the others finish at.
        progs = _eq14_programs(32)
        batch = solve_batch(progs, gap_ref=0.0)
        assert all(_same(sol, _alone(p, 0.0)) for p, sol in zip(progs, batch))
        assert all(s.status == "Converged" for s in batch)
        assert len({s.iterations for s in batch}) > 3  # the programs end at their own steps

    def test_position_in_batch_does_not_matter(self):
        progs = _eq14_programs(8)
        forward = solve_batch(progs, gap_ref=0.0)
        backward = solve_batch(progs[::-1], gap_ref=0.0)[::-1]
        assert all(_same(a, b) for a, b in zip(forward, backward))

    def test_failed_program_leaves_the_rest(self):
        # A NaN objective makes the Newton system unsolvable at every ridge:
        # that program alone reports NumericalFailure.
        progs = _eq14_programs(6)
        progs[2] = replace(progs[2], objective=np.full(progs[2].n_vars, np.nan))
        batch = solve_batch(progs, gap_ref=0.0)
        assert isinstance(batch[2], NumericalFailure)
        with pytest.raises(NumericalFailure):
            solve(progs[2], gap_ref=0.0)
        assert all(_same(sol, _alone(p, 0.0)) for k, (p, sol) in enumerate(zip(progs, batch)) if k != 2)

    def test_capped_programs_leave_the_rest(self, monkeypatch):
        # Below the longest solve's step count, some programs end in
        # MaxIterations and the others still converge as they do alone.
        progs = _eq14_programs(12)
        steps = sorted(s.iterations for s in solve_batch(progs, gap_ref=0.0))
        monkeypatch.setattr(kernel, "_MAX_STEPS", steps[len(steps) // 2])
        batch = solve_batch(progs, gap_ref=0.0)
        assert {s.status for s in batch} == {"Converged", "MaxIterations"}
        assert all(_same(sol, _alone(p, 0.0)) for p, sol in zip(progs, batch))

    def test_programs_of_any_structures_match_lone_solves(self, monkeypatch):
        # One list interleaves eq14 and fixed-split programs of two (Z, K)
        # shapes (one structure per shape) with the block programs of
        # alternating runs at L < K + Z: four structures, each stacked on its
        # own, and every entry is what its lone solve gives.
        progs, blocks = [], []
        monkeypatch.setattr(kernel, "solve", lambda prog, gap_ref=1.0: blocks.append(prog) or solve(prog, gap_ref))
        for seed in range(4):
            for shape in ({}, {"k": 2, "l": 7, "z": 3}):
                params, ch, pre = feasible_instance(seed, p_tot=10 ** (1.5 + 0.05 * seed), **shape)
                progs.append(optimal_spectrum(pre, ch, params).program)
                progs.append(fixed_split_spectrum(pre, ch, params).program)
            params, ch, pre = feasible_instance(seed, l=4, gain_db_b=-10.0)
            solve_alternating(pre, ch, params, max_iters=1)
            progs += blocks[:2]  # _step1 and _step2
            blocks.clear()
        assert len({_compile(p)[1] for p in progs}) == 4
        batch = solve_batch(progs, gap_ref=0.0)
        assert all(s.status == "Converged" for s in batch)
        assert all(_same(sol, _alone(p, 0.0)) for p, sol in zip(progs, batch))

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), gap_ref=st.sampled_from([0.0, 1.0]))
    def test_lone_path_matches_the_stacked_path(self, seed, n, gap_ref):
        # Two random programs of one structure (other objectives, other
        # starts) are stepped together; a third, of another size, takes the
        # lone path in the same batch. Each equals its lone solve to the bit.
        rng = np.random.default_rng(seed)
        prog, v = _random_program(rng, n)
        other, w = _random_program(rng, n % 5 + 1)
        progs = [replace(prog, objective=_bounded_objective(rng, n), strictly_feasible_point=v),
                 replace(prog, objective=_bounded_objective(rng, n), strictly_feasible_point=0.5 * (v + 1.0)),
                 replace(other, objective=_bounded_objective(rng, len(w)), strictly_feasible_point=w)]
        batch = solve_batch(progs, gap_ref)
        assert all(_same(sol, _alone(p, gap_ref)) for p, sol in zip(progs, batch))
        assert all(isinstance(sol, kernel.KernelSolution) for sol in batch)

    def test_lone_path_edge_cases_match_the_stacked_path(self, monkeypatch):
        # v[1] is in no constraint and not in the objective, so every Newton
        # matrix is singular and each step climbs the ridge ladder, which
        # rescues it.
        calls, real = [], kernel._solve
        monkeypatch.setattr(kernel, "_solve", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        ridge = [ConvexProgram(n_vars=2, objective=np.array([1.0, 0.0]), constraints=[Box(idx=0, lo=lo, hi=10.0)],
                               strictly_feasible_point=np.array([2.0 * lo, 0.5])) for lo in (1.0, 2.0)]
        batch = solve_batch(ridge)
        assert [s.status for s in batch] == ["Converged"] * 2
        assert [s.x[0] for s in batch] == pytest.approx([1.0, 2.0], rel=1e-8)
        assert len(calls) > 2 * max(s.iterations + 1 for s in batch)  # ridge solves besides the plain ones
        assert all(_same(sol, _alone(p, 1.0)) for p, sol in zip(ridge, batch))
        # A NaN objective leaves no ridge that helps.
        progs = _eq14_programs(3)
        nan = [replace(p, objective=np.full(p.n_vars, np.nan)) for p in progs[:2]]
        assert all(isinstance(sol, NumericalFailure) for sol in solve_batch(nan, gap_ref=0.0))
        assert all(isinstance(_alone(p, 0.0), NumericalFailure) for p in nan)
        # A step cap ends every solve in MaxIterations, alone and stacked.
        monkeypatch.setattr(kernel, "_MAX_STEPS", 4)
        batch = solve_batch(progs, gap_ref=0.0)
        assert [s.status for s in batch] == ["MaxIterations"] * 3
        assert all(_same(sol, _alone(p, 0.0)) for p, sol in zip(progs, batch))

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), size=st.integers(6, 8),
           gap_ref=st.sampled_from([0.0, 1.0]))
    def test_larger_batches_match_lone_solves(self, seed, n, size, gap_ref):
        # size programs of one structure, each with its own objective and a
        # start near the program's interior point (phase one finds another
        # when it is not interior), and a copy with a NaN objective are
        # stepped together. Each equals its lone solve to the bit, uncapped
        # and under a step cap below the median step count.
        rng = np.random.default_rng(seed)
        prog, v = _random_program(rng, n)
        progs = [replace(prog, objective=_bounded_objective(rng, n),
                         strictly_feasible_point=v + rng.uniform(-0.05, 0.05, n)) for _ in range(size)]
        progs.insert(int(rng.integers(0, size + 1)), replace(progs[0], objective=np.full(n, np.nan)))

        def lone(p):
            try:
                return solve(p, gap_ref)
            except CjoptError as exc:
                return exc

        batch = solve_batch(progs, gap_ref)
        assert all(_same(sol, lone(p)) for p, sol in zip(progs, batch))
        assert sum(isinstance(sol, NumericalFailure) for sol in batch) >= 1
        steps = sorted(s.iterations for s in batch if isinstance(s, kernel.KernelSolution))
        with mock.patch.object(kernel, "_MAX_STEPS", max(steps[len(steps) // 2] - 1, 1)):
            batch = solve_batch(progs, gap_ref)
            assert any(getattr(s, "status", None) == "MaxIterations" for s in batch)
            assert all(_same(sol, lone(p)) for p, sol in zip(progs, batch))

    def test_sweep_cli_batch_matches_lone_solves(self, monkeypatch):
        # The one batch of a sweep shaped like the benchmark's `cjopt
        # sweep` call (eq14, fixed-split and limit programs, all of one
        # structure) gives each program its lone solve.
        batches, real = [], kernel.solve_batch
        monkeypatch.setattr(kernel, "solve_batch",
                            lambda progs, gap_ref=1.0: batches.append(progs) or real(progs, gap_ref))
        experiments.run_sweep(sweep_cli_spec())
        [progs] = batches
        assert len(progs) >= 120 and len({_compile(p)[1] for p in progs}) == 1
        batch = real(progs, gap_ref=0.0)
        assert all(_same(sol, _alone(p, 0.0)) for p, sol in zip(progs, batch))
