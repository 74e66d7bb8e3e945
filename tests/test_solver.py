import numpy as np
import pytest

from crossloc import residuals as res
from crossloc import solver
from crossloc.estimator import EstimatorConfig
from crossloc.liegroup import Pose, se3_exp
from crossloc.solver import Problem, SolverOptions


class VectorResidualFactor:
    """Generic test factor: residual_fn(x) over a single vector block."""

    def __init__(self, key, residual_fn, jacobian_fn, kernel=res.RobustKernel()):
        self.blocks = (key,)
        self.residual_fn = residual_fn
        self.jacobian_fn = jacobian_fn
        self.kernel = kernel
        self.sqrt_info = 1.0

    def evaluate(self, values, jacobian=True):
        x = values[self.blocks[0]]
        return self.residual_fn(x), [self.jacobian_fn(x)]


def quadratic_bowl_problem():
    problem = Problem()
    problem.add_vector_block("x", np.zeros(2))
    problem.add_factor(
        VectorResidualFactor("x", lambda x: x - np.array([1.0, 2.0]), lambda x: np.eye(2))
    )
    return problem


class TestSolve:
    def test_quadratic_bowl(self):
        problem = quadratic_bowl_problem()
        report = solver.solve(problem)
        assert report.termination == "converged"
        assert report.iterations <= 5
        assert np.allclose(problem.value("x"), [1.0, 2.0], atol=1e-8)

    def test_rosenbrock(self):
        problem = Problem()
        problem.add_vector_block("x", np.array([-1.2, 1.0]))

        def r(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def jac(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

        problem.add_factor(VectorResidualFactor("x", r, jac))
        report = solver.solve(problem, SolverOptions(max_iterations=200))
        assert np.allclose(problem.value("x"), [1.0, 1.0], atol=1e-6)
        assert report.final_cost <= report.initial_cost

    def test_pose_alignment_recovers_offset(self):
        rng = np.random.default_rng(0)
        xi = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
        xi[:3] *= 0.3 / np.linalg.norm(xi[:3])
        xi[3:] *= 1.0 / np.linalg.norm(xi[3:])
        true_anchor = se3_exp(xi)

        problem = Problem()
        problem.add_pose_block("anchor", Pose.identity())
        for i in range(50):
            src = rng.uniform(-5, 5, size=3)
            dst = true_anchor.apply(src)
            key = f"lm{i}"
            problem.add_vector_block(key, src, fixed=True)
            c = res.MapConstraint(i, dst, None, np.eye(3), res.POINT_TO_POINT)
            problem.add_factor(res.PointToPointFactor("anchor", key, c))
        report = solver.solve(problem)
        assert report.termination == "converged"
        est = problem.value("anchor")
        diff = est.inverse() @ true_anchor
        assert np.linalg.norm(diff.translation) < 1e-6
        assert np.linalg.norm(diff.rotation - np.eye(3)) < 1e-6

    def test_fixed_blocks_never_change(self):
        problem = Problem()
        problem.add_vector_block("free", np.zeros(2))
        problem.add_vector_block("fixed", np.array([5.0, 6.0]), fixed=True)
        problem.add_factor(
            VectorResidualFactor("free", lambda x: x - np.array([1.0, 1.0]), lambda x: np.eye(2))
        )
        before = problem.value("fixed").copy()
        solver.solve(problem)
        assert np.array_equal(problem.value("fixed"), before)

    def test_monotone_costs_over_iteration_budget(self):
        costs = []
        for k in range(1, 8):
            problem = Problem()
            problem.add_vector_block("x", np.array([-1.2, 1.0]))
            problem.add_factor(
                VectorResidualFactor(
                    "x",
                    lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
                    lambda x: np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]),
                )
            )
            report = solver.solve(problem, SolverOptions(max_iterations=k))
            costs.append(report.final_cost)
        assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))

    def test_determinism_bitwise(self):
        reports = []
        values = []
        for _ in range(2):
            problem = Problem()
            problem.add_vector_block("x", np.array([-1.2, 1.0]))
            problem.add_factor(
                VectorResidualFactor(
                    "x",
                    lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
                    lambda x: np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]),
                )
            )
            reports.append(solver.solve(problem, SolverOptions(max_iterations=37)))
            values.append(problem.value("x").copy())
        assert reports[0] == reports[1]
        assert np.array_equal(values[0], values[1])

    def test_no_free_blocks_rejected(self):
        problem = Problem()
        problem.add_vector_block("x", np.zeros(2), fixed=True)
        with pytest.raises(ValueError):
            solver.solve(problem)

    def test_unknown_block_rejected(self):
        problem = Problem()
        with pytest.raises(ValueError):
            problem.add_factor(
                VectorResidualFactor("nope", lambda x: x, lambda x: np.eye(2))
            )


class TestEvaluateCost:
    def test_empty_factor_list(self):
        problem = Problem()
        problem.add_vector_block("x", np.zeros(2))
        assert solver.evaluate_cost(problem) == 0.0

    def test_zero_residual_factor(self):
        problem = Problem()
        problem.add_pose_block("anchor", Pose.identity())
        problem.add_vector_block("lm", np.array([1.0, 2.0, 3.0]))
        c = res.MapConstraint(0, np.array([1.0, 2.0, 3.0]), None, np.eye(3), res.POINT_TO_POINT)
        problem.add_factor(res.PointToPointFactor("anchor", "lm", c))
        assert solver.evaluate_cost(problem) == 0.0

    def test_matches_factorwise_sum(self):
        problem = Problem()
        problem.add_pose_block("anchor", se3_exp(np.array([0.1, 0, 0, 0.5, 0, 0])))
        problem.add_vector_block("lm", np.array([1.0, -1.0, 2.0]))
        kernel = res.RobustKernel("cauchy", 1.3)
        c1 = res.MapConstraint(0, np.array([1.5, -1.0, 2.2]), None, np.eye(3) / 0.05**2, res.POINT_TO_POINT)
        n = np.array([0.0, 0.0, 1.0])
        c2 = res.MapConstraint(0, np.array([1.0, -1.0, 2.5]), n, np.eye(3) / 0.05**2, res.POINT_TO_PLANE)
        # Anisotropic information in the same point-to-point batch as c1, so
        # scalar and matrix square roots are whitened together.
        c3 = res.MapConstraint(0, np.array([1.5, -1.0, 2.2]), None, np.diag([400.0, 100.0, 25.0]), res.POINT_TO_POINT)
        f1 = res.PointToPointFactor("anchor", "lm", c1, kernel=kernel)
        f2 = res.PointToPlaneFactor("anchor", "lm", c2, kernel=kernel)
        f3 = res.PointToPointFactor("anchor", "lm", c3, kernel=kernel)
        # Two anchor priors with anisotropic information: a class without
        # evaluate_batch, evaluated one by one and whitened as one stack.
        info = EstimatorConfig().prior_information()
        priors = [
            res.AnchorPriorFactor("anchor", se3_exp(np.array([0.0, 0.02, 0, 0.4, 0.1, 0])), info, kernel),
            res.AnchorPriorFactor("anchor", se3_exp(np.array([0.05, 0, 0.01, 0.6, 0, -0.2])), info * 4.0),
        ]
        for f in (f1, f2, f3, *priors):
            problem.add_factor(f)

        total = solver.evaluate_cost(problem)
        # Oracle: rho(r^T info r) per factor, with r from the bare residual
        # functions and info straight from the information, so it holds
        # whatever form the factor's sqrt_info takes.
        expected = 0.0
        anchor = problem.value("anchor")
        lm = res.Landmark(problem.value("lm"), 0)
        for f in (f1, f3):
            r, _, _ = res.point_to_point_residual(anchor, lm, f.constraint)
            expected += kernel.loss(float(r @ f.constraint.information @ r))[0]
        r_n, _, _ = res.point_to_plane_residual(anchor, lm, c2)
        r = r_n * n
        expected += kernel.loss(float(r @ c2.information @ r))[0]
        for f, f_info in zip(priors, (info, info * 4.0)):
            r, _ = res.anchor_prior_residual(anchor, f.prior_mean)
            expected += f.kernel.loss(float(r @ f_info @ r))[0]
        assert total == pytest.approx(expected, rel=1e-12)


class TestSchurElimination:
    def _mini_ba(self, eliminate):
        rng = np.random.default_rng(42)
        cam = res.CameraModel(fx=400, fy=400, cx=320, cy=240, width=640, height=480)
        true_poses = [
            Pose.identity(),
            se3_exp(np.array([0.0, 0.05, 0.02, 0.4, 0.1, 0.0])),
            se3_exp(np.array([0.0, 0.1, 0.04, 0.8, 0.2, 0.0])),
        ]
        true_points = rng.uniform([-2, -2, 4], [2, 2, 8], size=(12, 3))

        problem = Problem()
        for i, pose in enumerate(true_poses):
            noisy = pose if i == 0 else pose.retract(rng.normal(size=6) * 0.01)
            problem.add_pose_block(f"pose{i}", noisy, fixed=(i == 0))
        for j, pt in enumerate(true_points):
            problem.add_vector_block(
                f"lm{j}", pt + rng.normal(size=3) * 0.05, eliminate=eliminate
            )
        for i, pose in enumerate(true_poses):
            for j, pt in enumerate(true_points):
                pix = cam.project(pose.inverse().apply(pt))
                problem.add_factor(
                    res.ReprojectionFactor(f"pose{i}", f"lm{j}", pix, cam)
                )
        return problem

    def test_schur_matches_dense(self):
        p_schur = self._mini_ba(eliminate=True)
        p_dense = self._mini_ba(eliminate=False)
        r_schur = solver.solve(p_schur, SolverOptions(max_iterations=60))
        r_dense = solver.solve(p_dense, SolverOptions(max_iterations=60))
        assert r_schur.final_cost == pytest.approx(r_dense.final_cost, abs=1e-10)
        for j in range(12):
            assert np.allclose(
                p_schur.value(f"lm{j}"), p_dense.value(f"lm{j}"), atol=1e-7
            )

    def test_mini_ba_converges_to_truth(self):
        problem = self._mini_ba(eliminate=True)
        report = solver.solve(problem, SolverOptions(max_iterations=60))
        assert report.final_cost < 1e-14

    def test_factor_with_two_eliminated_blocks_rejected(self):
        problem = Problem()
        problem.add_vector_block("a", np.zeros(3), eliminate=True)
        problem.add_vector_block("b", np.zeros(3), eliminate=True)

        class PairFactor:
            blocks = ("a", "b")
            kernel = res.RobustKernel()
            sqrt_info = 1.0

            def evaluate(self, values, jacobian=True):
                return values["a"] - values["b"], [np.eye(3), -np.eye(3)]

        with pytest.raises(ValueError):
            problem.add_factor(PairFactor())
