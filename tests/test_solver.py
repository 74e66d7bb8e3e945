import numpy as np
import pytest

from crossloc import residuals as res
from crossloc import solver
from crossloc.estimator import EstimatorConfig
from crossloc.liegroup import Pose, se3_exp
from crossloc.simulator import default_rig
from crossloc.solver import Problem, SolverOptions


class VectorResidualFactor:
    """Generic test factor: residual_fn(x) over a single vector block."""

    def __init__(self, key, residual_fn, jacobian_fn, kernel=res.RobustKernel()):
        self.blocks = (key,)
        self.residual_fn = residual_fn
        self.jacobian_fn = jacobian_fn
        self.kernel = kernel
        self.information = np.eye(2)

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
        # Anisotropic information in the same point-to-point group as c1, so
        # one group whitens by differing square roots.
        c3 = res.MapConstraint(0, np.array([1.5, -1.0, 2.2]), None, np.diag([400.0, 100.0, 25.0]), res.POINT_TO_POINT)
        f1 = res.PointToPointFactor("anchor", "lm", c1, kernel=kernel)
        f2 = res.PointToPlaneFactor("anchor", "lm", c2, kernel=kernel)
        f3 = res.PointToPointFactor("anchor", "lm", c3, kernel=kernel)
        # Two anchor priors with anisotropic information and different
        # kernels: a class without evaluate_batch, evaluated one by one, and
        # filed in one group per kernel.
        info = EstimatorConfig().prior_information()
        priors = [
            res.AnchorPriorFactor("anchor", se3_exp(np.array([0.0, 0.02, 0, 0.4, 0.1, 0])), info, kernel),
            res.AnchorPriorFactor("anchor", se3_exp(np.array([0.05, 0, 0.01, 0.6, 0, -0.2])), info * 4.0),
        ]
        for f in (f1, f2, f3, *priors):
            problem.add_factor(f)

        total = solver.evaluate_cost(problem)
        # Oracle: rho(r^T info r) per factor, with r from the bare residual
        # functions and info straight from the information, with no square
        # root taken.
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


class TestFactorGroups:
    def test_mixed_group_square_roots(self):
        """One group's S, whatever mix of informations, is upper triangular
        with S^T S the symmetrized information of each factor."""
        problem = Problem()
        problem.add_pose_block("anchor", Pose.identity())
        problem.add_vector_block("lm", np.zeros(3))
        lower = np.tril(np.random.default_rng(5).normal(size=(3, 3)), -1)
        skewed = lower @ lower.T + np.diag([2.0, 3.0, 4.0])
        skewed[0, 2] += 1e-9  # rounding that leaves it slightly asymmetric
        infos = [np.eye(3) * 400.0, np.diag([400.0, 100.0, 25.0]), np.eye(3), skewed]
        kernel = res.RobustKernel("cauchy", 1.0)
        for info in infos:
            c = res.MapConstraint(0, np.zeros(3), None, info, res.POINT_TO_POINT)
            problem.add_factor(res.PointToPointFactor("anchor", "lm", c, kernel))
        (batch,) = problem.batches()
        assert batch.kernel == kernel and batch.sqrt_info.shape == (4, 3, 3)
        for s, info in zip(batch.sqrt_info, infos):
            assert np.array_equal(s, np.triu(s))
            np.testing.assert_allclose(s.T @ s, 0.5 * (info + info.T), rtol=1e-14, atol=1e-12)

    def test_one_kernel_per_group(self):
        """Factors of one class and batch key split by kernel; equal kernels
        share a group whichever object holds them."""
        problem = Problem()
        problem.add_pose_block("anchor", Pose.identity())
        problem.add_vector_block("lm", np.zeros(3))
        cauchy, plain = res.RobustKernel("cauchy", 1.0), res.RobustKernel()
        for kernel in (cauchy, plain, res.RobustKernel("cauchy", 1.0)):
            c = res.MapConstraint(0, np.ones(3), None, np.eye(3), res.POINT_TO_POINT)
            problem.add_factor(res.PointToPointFactor("anchor", "lm", c, kernel))
        assert [(len(b), b.kernel) for b in problem.batches()] == [(2, cauchy), (1, plain)]


class TestSchurElimination:
    def _mini_ba(self, eliminate):
        rng = np.random.default_rng(42)
        cam = res.CameraModel(fx=400, fy=400, cx=320, cy=240, width=640, height=480)
        cam_right = res.CameraModel(
            fx=400, fy=400, cx=320, cy=240, width=640, height=480,
            body_t_cam=Pose(np.eye(3), np.array([0.3, 0.0, 0.0])),
        )
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
                p_body = pose.inverse().apply(pt)
                pix = np.concatenate(
                    [c.project(c.body_t_cam.inverse().apply(p_body)) for c in (cam, cam_right)]
                )
                problem.add_factor(
                    res.StereoReprojectionFactor(f"pose{i}", f"lm{j}", pix, cam, cam_right)
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
            information = np.eye(3)

            def evaluate(self, values, jacobian=True):
                return values["a"] - values["b"], [np.eye(3), -np.eye(3)]

        with pytest.raises(ValueError):
            problem.add_factor(PairFactor())

    def test_eliminated_block_of_another_size_rejected(self):
        problem = Problem()
        problem.add_vector_block("a", np.zeros(3), eliminate=True)
        # Neither a kept nor a fixed block is eliminated, so any size passes.
        problem.add_vector_block("b", np.zeros(2))
        problem.add_vector_block("c", np.zeros(2), fixed=True, eliminate=True)
        with pytest.raises(ValueError):
            problem.add_vector_block("d", np.zeros(2), eliminate=True)


class TestNormalEquations:
    def test_matches_dense_jacobian(self):
        """Stacked H_cc, H_cl, H_ll and b are the blocks of J^T J and -J^T r.

        J and r stack each factor's whitened, robust-weighted Jacobian and
        residual, with the whitening taken from the information itself.
        """
        rng = np.random.default_rng(3)
        rig = default_rig()
        cams = (rig.camera, rig.right_camera())
        kernel = res.RobustKernel("cauchy", 2.0)
        problem = Problem()
        problem.add_pose_block("pose0", Pose.identity(), fixed=True)
        problem.add_pose_block("pose1", se3_exp(np.array([0.02, -0.01, 0.03, 0.5, 0.1, 0.0])))
        problem.add_pose_block("anchor", se3_exp(np.array([0.01, 0.02, -0.02, 0.3, -0.2, 0.1])))
        problem.add_vector_block("lm0", np.array([6.0, 0.5, 0.3]), eliminate=True)
        problem.add_vector_block("lm1", np.array([8.0, -1.0, -0.2]), eliminate=True)
        # Camera columns in insertion order, then three per eliminated block.
        cols = {
            "pose1": slice(0, 6), "anchor": slice(6, 12), "lm0": slice(12, 15), "lm1": slice(15, 18)
        }
        values = problem.values()

        factors = []  # (factor, information)
        for pose in ("pose0", "pose1"):
            for lm, s_info in (("lm0", 1.5), ("lm1", 0.5)):
                p_body = values[pose].inverse().apply(values[lm])
                pixels = np.concatenate(
                    [c.project(c.body_t_cam.inverse().apply(p_body)) for c in cams]
                ) + rng.normal(0.0, 3.0, 4)
                f = res.StereoReprojectionFactor(pose, lm, pixels, *cams, kernel=kernel)
                # a pixel noise other than the shared 1 px, to exercise the whitening
                f.information = s_info**2 * np.eye(4)
                factors.append((f, f.information))
        info_plane = np.eye(3) / 0.05**2
        c_plane = res.MapConstraint(
            0, np.array([6.1, 0.4, 0.5]), np.array([0.0, 0.6, 0.8]), info_plane, res.POINT_TO_PLANE
        )
        info_point = np.diag([400.0, 100.0, 25.0])
        c_point = res.MapConstraint(
            1, np.array([8.2, -1.3, 0.1]), None, info_point, res.POINT_TO_POINT
        )
        info_prior = EstimatorConfig().prior_information()
        prior_mean = se3_exp(np.array([0.0, 0.01, 0.0, 0.4, -0.1, 0.0]))
        factors += [
            (res.PointToPlaneFactor("anchor", "lm0", c_plane, kernel), info_plane),
            (res.PointToPointFactor("anchor", "lm1", c_point, kernel), info_point),
            (res.AnchorPriorFactor("anchor", prior_mean, info_prior), info_prior),
        ]

        j_rows, r_rows, expected_cost = [], [], 0.0
        for f, info in factors:
            problem.add_factor(f)
            s_mat = np.linalg.cholesky(info).T
            if hasattr(type(f), "evaluate_batch"):
                r, jacs = type(f).evaluate_batch([f], values)
                r, jacs = r[0], [j[0] for j in jacs]
            else:
                r, jacs = f.evaluate(values)
            rho, drho = f.kernel.loss(float(np.sum((s_mat @ r) ** 2)))
            expected_cost += rho
            w = np.sqrt(drho) * s_mat
            j_dense = np.zeros((len(r), 18))
            for key, jac in zip(f.blocks, jacs):
                if key in cols:
                    j_dense[:, cols[key]] += w @ jac
            j_rows.append(j_dense)
            r_rows.append(w @ r)
        jac = np.vstack(j_rows)
        r = np.concatenate(r_rows)
        h = jac.T @ jac
        b = -jac.T @ r

        system = solver._System(problem)
        h_cc, b_c, h_ll, b_l, h_cl, cost = solver._build_normal_equations(problem, system, values)
        assert h_cc.shape == (12, 12) and h_ll.shape == (2, 3, 3) and h_cl.shape == (2, 12, 3)

        def close(got, want, ref):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

        close(h_cc, h[:12, :12], h)
        close(b_c, b[:12], b)
        for row in range(2):
            lm = slice(12 + 3 * row, 15 + 3 * row)
            close(h_ll[row], h[lm, lm], h)
            close(h_cl[row], h[:12, lm], h)
            close(b_l[row], b[lm], b)
        assert cost == pytest.approx(expected_cost, rel=1e-12)
