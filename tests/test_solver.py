import numpy as np
import pytest

from crossloc import residuals as res
from crossloc import solver
from crossloc.estimator import EstimatorConfig
from crossloc.liegroup import Pose, se3_exp
from crossloc.simulator import default_rig
from crossloc.solver import FactorBatch, Problem

from oracles import (
    POINT_TO_PLANE,
    POINT_TO_POINT,
    Landmark,
    MapConstraint,
    levenberg_marquardt_two_evaluations,
    point_to_plane_residual,
    point_to_point_residual,
)


class VectorResidualFactor:
    """Generic test kind: one vector row per factor; data (residual_fn, jacobian_fn)."""

    @classmethod
    def evaluate_batch(cls, batch, values, jacobian=True):
        residual_fn, jacobian_fn = batch.data
        xs = batch.vectors(values, 0)
        residual = np.stack([residual_fn(x) for x in xs])
        return residual, [np.stack([jacobian_fn(x) for x in xs])] if jacobian else None


def add_vector_residual(problem, family, residual_fn, jacobian_fn, row=0):
    problem.add_factors(
        VectorResidualFactor, [(family, [row])], (residual_fn, jacobian_fn), np.eye(2), res.RobustKernel()
    )


def add_point_to_point(problem, lm_rows, points, information, kernel=res.RobustKernel()):
    """Rows of the ``lm`` family against ``points``, through row 0 of ``anchor``."""
    problem.add_factors(
        res.PointToPointFactor, [("anchor", np.zeros(len(lm_rows), int)), ("lm", lm_rows)],
        (np.array(points),), information, kernel,
    )


def pose_row(problem, family, row=0):
    rot, trans = problem.value[family]
    return Pose(rot[row], trans[row])


def quadratic_bowl_problem():
    problem = Problem()
    problem.add_vectors("x", np.zeros((1, 2)))
    add_vector_residual(problem, "x", lambda x: x - np.array([1.0, 2.0]), lambda x: np.eye(2))
    return problem


class TestSolve:
    def test_quadratic_bowl(self):
        problem = quadratic_bowl_problem()
        report = solver.solve(problem)
        assert report.termination == "converged"
        assert report.iterations <= 5
        assert np.allclose(problem.value["x"][0], [1.0, 2.0], atol=1e-8)

    def test_rosenbrock(self):
        problem = Problem()
        problem.add_vectors("x", [[-1.2, 1.0]])

        def r(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def jac(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

        add_vector_residual(problem, "x", r, jac)
        report = solver.solve(problem, max_iterations=200)
        assert np.allclose(problem.value["x"][0], [1.0, 1.0], atol=1e-6)
        assert report.final_cost <= report.initial_cost

    def test_pose_alignment_recovers_offset(self):
        rng = np.random.default_rng(0)
        xi = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
        xi[:3] *= 0.3 / np.linalg.norm(xi[:3])
        xi[3:] *= 1.0 / np.linalg.norm(xi[3:])
        true_anchor = se3_exp(xi)

        problem = Problem()
        problem.add_poses("anchor", Pose.stack([Pose.identity()]))
        src = np.array([rng.uniform(-5, 5, size=3) for _ in range(50)])
        problem.add_vectors("lm", src, fixed=True)
        add_point_to_point(problem, np.arange(50), true_anchor.apply(src), np.eye(3))
        report = solver.solve(problem)
        assert report.termination == "converged"
        est = pose_row(problem, "anchor")
        diff = est.inverse() @ true_anchor
        assert np.linalg.norm(diff.translation) < 1e-6
        assert np.linalg.norm(diff.rotation - np.eye(3)) < 1e-6

    def test_fixed_blocks_never_change(self):
        """A fixed row keeps its value bitwise, in a fixed family and next
        to free rows of its own family, even when a factor touches it."""
        problem = Problem()
        problem.add_vectors("x", [[0.0, 0.0], [5.0, 6.0], [0.1, -0.3]], fixed=[False, True, False])
        problem.add_vectors("fixed", [[5.0, 6.0]], fixed=True)
        for row, target in ((0, [1.0, 1.0]), (1, [2.0, 2.0]), (2, [-1.0, 3.0])):
            add_vector_residual(problem, "x", lambda x, t=np.array(target): x - t, lambda x: np.eye(2), row)
        add_vector_residual(problem, "fixed", lambda x: x, lambda x: np.eye(2))
        before = {name: value.copy() for name, value in problem.value.items()}
        solver.solve(problem)
        assert np.array_equal(problem.value["fixed"], before["fixed"])
        assert np.array_equal(problem.value["x"][1], before["x"][1])
        np.testing.assert_allclose(problem.value["x"][[0, 2]], [[1.0, 1.0], [-1.0, 3.0]], atol=1e-8)

    def test_monotone_costs_over_iteration_budget(self):
        costs = []
        for k in range(1, 8):
            problem = Problem()
            problem.add_vectors("x", [[-1.2, 1.0]])
            add_vector_residual(
                problem,
                "x",
                lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
                lambda x: np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]),
            )
            report = solver.solve(problem, max_iterations=k)
            costs.append(report.final_cost)
        assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))

    def test_determinism_bitwise(self):
        reports = []
        values = []
        for _ in range(2):
            problem = Problem()
            problem.add_vectors("x", [[-1.2, 1.0]])
            add_vector_residual(
                problem,
                "x",
                lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
                lambda x: np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]),
            )
            reports.append(solver.solve(problem, max_iterations=37))
            values.append(problem.value["x"].copy())
        assert reports[0] == reports[1]
        assert np.array_equal(values[0], values[1])

    def test_no_free_blocks_rejected(self):
        problem = Problem()
        problem.add_vectors("x", np.zeros((2, 2)), fixed=True)
        with pytest.raises(ValueError):
            solver.solve(problem)

    def test_unknown_block_rejected(self):
        """An unknown family, or a row outside a known one."""
        problem = Problem()
        problem.add_vectors("x", np.zeros((2, 2)))
        for family, row in (("nope", 0), ("x", 2), ("x", -1)):
            with pytest.raises(ValueError):
                add_vector_residual(problem, family, lambda x: x, lambda x: np.eye(2), row)
        assert problem.groups == []


def rosenbrock_problem(kind=VectorResidualFactor):
    problem = Problem()
    problem.add_vectors("x", [[-1.2, 1.0]])
    problem.add_factors(
        kind,
        [("x", [0])],
        (
            lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
            lambda x: np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]),
        ),
        np.eye(2),
        res.RobustKernel(),
    )
    return problem


class TestOneLinearizationPerIterate:
    @pytest.mark.parametrize("max_iterations", range(1, 9))
    def test_rosenbrock_matches_two_evaluation_loop(self, max_iterations):
        """Linearizing each candidate instead of costing it and then
        linearizing it again leaves the value and the report bitwise equal."""
        problem, reference = rosenbrock_problem(), rosenbrock_problem()
        report = solver.solve(problem, max_iterations)
        value, want = levenberg_marquardt_two_evaluations(
            solver._System(reference), reference.value, max_iterations
        )
        assert report == want
        np.testing.assert_array_equal(problem.value["x"], value["x"])

    @pytest.mark.parametrize("max_iterations", range(1, 9))
    def test_evaluations_per_solve(self, max_iterations):
        """With every step accepted, a solve capped at k iterations makes k
        evaluations with Jacobians (the start value and k - 1 candidates) and
        one without (the last candidate)."""
        calls = []

        class Counted(VectorResidualFactor):
            @classmethod
            def evaluate_batch(cls, batch, values, jacobian=True):
                calls.append(jacobian)
                return super().evaluate_batch(batch, values, jacobian)

        def squares(kind):
            # r = x^2 per coordinate: Gauss-Newton halves x, so every step is
            # accepted and none meets a tolerance within 8 iterations
            problem = Problem()
            problem.add_vectors("x", [[1.0, 2.0]])
            data = (lambda x: x**2, lambda x: np.diag(2.0 * x))
            problem.add_factors(kind, [("x", [0])], data, np.eye(2), res.RobustKernel())
            return problem

        costs = [solver.solve(squares(VectorResidualFactor), k).final_cost for k in range(max_iterations + 1)]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        report = solver.solve(squares(Counted), max_iterations)
        assert (report.iterations, report.termination) == (max_iterations, "max_iter")
        assert calls.count(True) == max_iterations
        assert calls.count(False) == 1


class TestEvaluateCost:
    def test_empty_factor_list(self):
        problem = Problem()
        problem.add_vectors("x", np.zeros((1, 2)))
        assert solver.evaluate_cost(problem) == 0.0

    def test_zero_residual_factor(self):
        problem = Problem()
        problem.add_poses("anchor", Pose.stack([Pose.identity()]))
        problem.add_vectors("lm", [[1.0, 2.0, 3.0]])
        add_point_to_point(problem, [0], [[1.0, 2.0, 3.0]], np.eye(3))
        assert solver.evaluate_cost(problem) == 0.0

    def test_matches_factorwise_sum(self):
        problem = Problem()
        problem.add_poses("anchor", Pose.stack([se3_exp(np.array([0.1, 0, 0, 0.5, 0, 0]))]))
        problem.add_vectors("lm", [[1.0, -1.0, 2.0]])
        kernel = res.RobustKernel("cauchy", 1.3)
        c1 = MapConstraint(0, np.array([1.5, -1.0, 2.2]), None, np.eye(3) / 0.05**2, POINT_TO_POINT)
        n = np.array([0.0, 0.0, 1.0])
        c2 = MapConstraint(0, np.array([1.0, -1.0, 2.5]), n, np.eye(3) / 0.05**2, POINT_TO_PLANE)
        # Anisotropic information in the same point-to-point group as c1, so
        # one group whitens by differing square roots.
        c3 = MapConstraint(0, np.array([1.5, -1.0, 2.2]), None, np.diag([400.0, 100.0, 25.0]), POINT_TO_POINT)
        add_point_to_point(
            problem, [0, 0], [c1.point, c3.point], [c1.information, c3.information], kernel
        )
        problem.add_factors(
            res.PointToPlaneFactor, [("anchor", [0]), ("lm", [0])], (c2.point[None], n[None]),
            c2.information, kernel,
        )
        # Two anchor priors with anisotropic information and different
        # kernels, one group each.
        info = EstimatorConfig().prior_information()
        priors = [
            (se3_exp(np.array([0.0, 0.02, 0, 0.4, 0.1, 0])), info, kernel),
            (se3_exp(np.array([0.05, 0, 0.01, 0.6, 0, -0.2])), info * 4.0, res.RobustKernel()),
        ]
        for mean, f_info, f_kernel in priors:
            problem.add_factors(res.AnchorPriorFactor, [("anchor", [0])], Pose.stack([mean]), f_info, f_kernel)

        total = solver.evaluate_cost(problem)
        # Oracle: rho(r^T info r) per row, with r from the one-row
        # references and info straight from the information, with no square
        # root taken.
        expected = 0.0
        anchor = pose_row(problem, "anchor")
        lm = Landmark(problem.value["lm"][0], 0)
        for c in (c1, c3):
            r, _, _ = point_to_point_residual(anchor, lm, c)
            expected += kernel.loss(float(r @ c.information @ r))[0]
        r_n, _, _ = point_to_plane_residual(anchor, lm, c2)
        r = r_n * n
        expected += kernel.loss(float(r @ c2.information @ r))[0]
        for mean, f_info, f_kernel in priors:
            r, _ = res.AnchorPriorFactor.evaluate((anchor,), mean)
            expected += f_kernel.loss(float(r @ f_info @ r))[0]
        assert total == pytest.approx(expected, rel=1e-12)


class TestFactorGroups:
    def test_mixed_group_square_roots(self):
        """One group's S, whatever mix of informations, is upper triangular
        with S^T S the symmetrized information of each factor."""
        problem = Problem()
        problem.add_poses("anchor", Pose.stack([Pose.identity()]))
        problem.add_vectors("lm", np.zeros((1, 3)))
        lower = np.tril(np.random.default_rng(5).normal(size=(3, 3)), -1)
        skewed = lower @ lower.T + np.diag([2.0, 3.0, 4.0])
        skewed[0, 2] += 1e-9  # rounding that leaves it slightly asymmetric
        infos = [np.eye(3) * 400.0, np.diag([400.0, 100.0, 25.0]), np.eye(3), skewed]
        kernel = res.RobustKernel("cauchy", 1.0)
        add_point_to_point(problem, [0] * 4, np.zeros((4, 3)), infos, kernel)
        (batch,) = problem.groups
        assert batch.kernel == kernel and batch.sqrt_info.shape == (4, 3, 3)
        for s, info in zip(batch.sqrt_info, infos):
            assert np.array_equal(s, np.triu(s))
            np.testing.assert_allclose(s.T @ s, 0.5 * (info + info.T), rtol=1e-14, atol=1e-12)

    def test_one_kernel_per_group(self):
        """Each ``add_factors`` call is one group with its one kernel, in the
        order added; a shared information has one square root for every row,
        and a group of no rows is not added."""
        problem = Problem()
        problem.add_poses("anchor", Pose.stack([Pose.identity()]))
        problem.add_vectors("lm", np.zeros((1, 3)))
        cauchy, plain = res.RobustKernel("cauchy", 1.0), res.RobustKernel()
        add_point_to_point(problem, [0, 0], np.ones((2, 3)), 4.0 * np.eye(3), cauchy)
        add_point_to_point(problem, [], np.zeros((0, 3)), np.eye(3), cauchy)
        add_point_to_point(problem, [0], np.ones((1, 3)), np.eye(3), plain)
        assert [(len(b), b.kernel) for b in problem.groups] == [(2, cauchy), (1, plain)]
        np.testing.assert_array_equal(problem.groups[0].sqrt_info, 2.0 * np.eye(3))
        with pytest.raises(ValueError):  # slots of unequal length
            problem.add_factors(
                res.PointToPointFactor, [("anchor", [0]), ("lm", [0, 0])], (np.ones((2, 3)),), np.eye(3), plain
            )


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
        noisy = [pose if i == 0 else pose.retract(rng.normal(size=6) * 0.01) for i, pose in enumerate(true_poses)]
        problem.add_poses("pose", Pose.stack(noisy), fixed=[True, False, False])
        problem.add_vectors(
            "lm", [pt + rng.normal(size=3) * 0.05 for pt in true_points], eliminate=eliminate
        )
        pixels = [
            np.concatenate([c.project(c.body_t_cam.inverse().apply(pose.inverse().apply(pt)))
                            for c in (cam, cam_right)])
            for pose in true_poses for pt in true_points
        ]
        problem.add_factors(
            res.StereoReprojectionFactor,
            [("pose", np.repeat(np.arange(3), 12)), ("lm", np.tile(np.arange(12), 3))],
            (np.array(pixels), cam, cam_right), res.PIXEL_INFORMATION, res.RobustKernel(),
        )
        return problem

    def test_schur_matches_dense(self):
        p_schur = self._mini_ba(eliminate=True)
        p_dense = self._mini_ba(eliminate=False)
        r_schur = solver.solve(p_schur, max_iterations=60)
        r_dense = solver.solve(p_dense, max_iterations=60)
        assert r_schur.final_cost == pytest.approx(r_dense.final_cost, abs=1e-10)
        for j in range(12):
            assert np.allclose(p_schur.value["lm"][j], p_dense.value["lm"][j], atol=1e-7)

    def test_mini_ba_converges_to_truth(self):
        problem = self._mini_ba(eliminate=True)
        report = solver.solve(problem, max_iterations=60)
        assert report.final_cost < 1e-14

    @staticmethod
    def _uncoupled_problem(eliminate):
        """Stereo rows on a [fixed, free, free] pose family and eliminated
        landmarks; a ``vel`` family that no landmark group touches, tied to
        the free poses by point rows and to itself by a bias-style group;
        and a prior on the fixed pose row only, which adds its cost alone."""
        rng = np.random.default_rng(43)
        rig = default_rig()
        cams = (rig.camera, rig.right_camera())
        poses = [Pose.identity(), se3_exp(np.array([0.01, 0.03, -0.02, 0.5, 0.1, 0.05])),
                 se3_exp(np.array([-0.02, 0.05, 0.01, 1.0, -0.1, 0.1]))]
        points = rng.uniform([4.0, -2.0, -1.0], [9.0, 2.0, 1.0], size=(5, 3))
        problem = Problem()
        problem.add_poses("pose", Pose.stack(poses), fixed=[True, False, False])
        problem.add_vectors("vel", rng.normal(size=(3, 3)))
        problem.add_vectors("lm", points + rng.normal(size=(5, 3)) * 0.05, eliminate=eliminate)
        pixels = [
            np.concatenate([c.project(c.body_t_cam.inverse().apply(pose.inverse().apply(pt))) for c in cams])
            + rng.normal(size=4)
            for pose in poses for pt in points
        ]
        problem.add_factors(
            res.StereoReprojectionFactor, [("pose", np.repeat(np.arange(3), 5)), ("lm", np.tile(np.arange(5), 3))],
            (np.array(pixels), *cams), res.PIXEL_INFORMATION, res.RobustKernel("cauchy", 2.0),
        )
        problem.add_factors(
            res.PointToPointFactor, [("pose", [1, 2, 2]), ("vel", [0, 1, 2])], (rng.normal(size=(3, 3)),),
            np.eye(3) * 4.0, res.RobustKernel(),
        )
        problem.add_factors(
            res.BiasRandomWalkFactor, [("vel", [0, 1]), ("vel", [1, 2]), ("vel", [1, 2]), ("vel", [2, 0])],
            None, np.eye(6), res.RobustKernel(),
        )
        problem.add_factors(
            res.AnchorPriorFactor, [("pose", [0])], Pose.stack([poses[1]]), np.eye(6), res.RobustKernel()
        )
        return problem

    @pytest.mark.parametrize("lam", [1e-4, 1e-1])
    def test_schur_step_with_uncoupled_columns(self, lam):
        """The Schur step equals the solve of the same damped normal
        equations with the landmarks not eliminated (their columns last)."""
        problem, dense = self._uncoupled_problem(True), self._uncoupled_problem(False)
        system, dense_system = solver._System(problem), solver._System(dense)
        np.testing.assert_array_equal(system.coupled, np.arange(12))  # the free poses' columns only
        assert system.nc == 21 and dense_system.nc == 36
        delta_c, delta_l = system.solve_damped(system.linearize(problem.value)[0], lam)
        h, b, _, _, _ = dense_system.linearize(dense.value)[0]
        want = np.linalg.solve(solver._damp(h, lam), b)
        got = np.concatenate([delta_c, delta_l.ravel()])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())

    def test_factor_with_two_eliminated_blocks_rejected(self):
        problem = Problem()
        problem.add_vectors("lm", np.zeros((2, 3)), eliminate=True)

        class PairFactor:
            @classmethod
            def evaluate_batch(cls, batch, values, jacobian=True):
                raise AssertionError("never evaluated")

        with pytest.raises(ValueError):
            problem.add_factors(PairFactor, [("lm", [0]), ("lm", [1])], None, np.eye(3), res.RobustKernel())
        assert problem.groups == []

    def test_one_eliminated_family_with_free_rows(self):
        """A second eliminated family, or an eliminated family with a fixed
        row, is rejected; families that are not eliminated may have any size."""
        problem = Problem()
        with pytest.raises(ValueError):
            problem.add_vectors("lm", np.zeros((2, 3)), fixed=[False, True], eliminate=True)
        problem.add_vectors("lm", np.zeros((2, 3)), eliminate=True)
        problem.add_vectors("b", np.zeros((1, 2)))
        problem.add_vectors("c", np.zeros((1, 2)), fixed=True)
        with pytest.raises(ValueError):
            problem.add_vectors("d", np.zeros((1, 3)), eliminate=True)
        with pytest.raises(ValueError):  # a name is one family
            problem.add_vectors("b", np.zeros((1, 2)))
        assert list(problem.families) == ["lm", "b", "c"]


class TestNormalEquations:
    def test_matches_dense_jacobian(self):
        """Stacked H_cc, H_lc, H_ll and b are the blocks of J^T J and -J^T r.

        J and r stack each row's whitened, robust-weighted Jacobian and
        residual, with the whitening taken from the information itself.
        H_lc holds the camera columns that meet a landmark only: the
        ``vel`` family's, between the pose's and the anchor's, meet none.
        """
        rng = np.random.default_rng(3)
        rig = default_rig()
        cams = (rig.camera, rig.right_camera())
        kernel = res.RobustKernel("cauchy", 2.0)
        poses = [Pose.identity(), se3_exp(np.array([0.02, -0.01, 0.03, 0.5, 0.1, 0.0]))]
        anchor = se3_exp(np.array([0.01, 0.02, -0.02, 0.3, -0.2, 0.1]))
        landmarks = np.array([[6.0, 0.5, 0.3], [8.0, -1.0, -0.2]])
        problem = Problem()
        problem.add_poses("pose", Pose.stack(poses), fixed=[True, False])
        problem.add_vectors("vel", [[0.5, -0.2, 0.1], [0.3, 0.4, -0.6]])
        problem.add_poses("anchor", Pose.stack([anchor]))
        problem.add_vectors("lm", landmarks, eliminate=True)
        # Camera columns: the free rows family by family, then three per eliminated row.
        cols = {
            ("pose", 1): slice(0, 6), ("vel", 0): slice(6, 9), ("vel", 1): slice(9, 12),
            ("anchor", 0): slice(12, 18), ("lm", 0): slice(18, 21), ("lm", 1): slice(21, 24),
        }
        coupled = np.r_[0:6, 12:18]
        values = problem.value

        groups = []  # (kind, slots, data, information, kernel)
        pose_rows, lm_rows, pixels, infos = [], [], [], []
        for pose_row, pose in enumerate(poses):
            for lm_row, s_info in ((0, 1.5), (1, 0.5)):
                p_body = pose.inverse().apply(landmarks[lm_row])
                pose_rows.append(pose_row)
                lm_rows.append(lm_row)
                pixels.append(np.concatenate(
                    [c.project(c.body_t_cam.inverse().apply(p_body)) for c in cams]
                ) + rng.normal(0.0, 3.0, 4))
                # a pixel noise other than the shared 1 px, to exercise the whitening
                infos.append(s_info**2 * np.eye(4))
        groups.append((
            res.StereoReprojectionFactor, [("pose", pose_rows), ("lm", lm_rows)], (np.array(pixels), *cams),
            np.array(infos), kernel,
        ))
        info_plane = np.eye(3) / 0.05**2
        info_point = np.diag([400.0, 100.0, 25.0])
        info_prior = EstimatorConfig().prior_information()
        prior_mean = se3_exp(np.array([0.0, 0.01, 0.0, 0.4, -0.1, 0.0]))
        groups += [
            (res.PointToPlaneFactor, [("anchor", [0]), ("lm", [0])],
             (np.array([[6.1, 0.4, 0.5]]), np.array([[0.0, 0.6, 0.8]])), info_plane, kernel),
            (res.PointToPointFactor, [("anchor", [0]), ("lm", [1])],
             (np.array([[8.2, -1.3, 0.1]]),), info_point, kernel),
            (res.AnchorPriorFactor, [("anchor", [0])], Pose.stack([prior_mean]), info_prior, res.RobustKernel()),
            # a row whose slots meet the same block twice
            (res.BiasRandomWalkFactor, [("vel", [0, 1]), ("vel", [1, 1]), ("vel", [1, 0]), ("vel", [0, 0])],
             None, np.diag([4.0, 1.0, 2.0, 3.0, 1.0, 0.5]), kernel),
        ]

        j_rows, r_rows, expected_cost = [], [], 0.0
        for kind, slots, data, info, f_kernel in groups:
            problem.add_factors(kind, slots, data, info, f_kernel)
            residual, jacs = kind.evaluate_batch(FactorBatch(kind, slots, data, info, f_kernel), values)
            for i, r in enumerate(residual):
                s_mat = np.linalg.cholesky(info if np.ndim(info) == 2 else info[i]).T
                rho, drho = f_kernel.loss(float(np.sum((s_mat @ r) ** 2)))
                expected_cost += rho
                w = np.sqrt(drho) * s_mat
                j_dense = np.zeros((len(r), 24))
                for (family, rows), jac in zip(slots, jacs):
                    if (family, rows[i]) in cols:
                        j_dense[:, cols[family, rows[i]]] += w @ jac[i]
                j_rows.append(j_dense)
                r_rows.append(w @ r)
        jac = np.vstack(j_rows)
        r = np.concatenate(r_rows)
        h = jac.T @ jac
        b = -jac.T @ r

        system = solver._System(problem)
        (h_cc, b_c, h_ll, b_l, h_lc), cost, grad_norm = system.linearize(values)
        np.testing.assert_array_equal(system.coupled, coupled)
        assert h_cc.shape == (18, 18) and h_ll.shape == (2, 3, 3) and h_lc.shape == (2, 3, 12)
        assert not h[6:12, 18:].any()  # the velocity columns meet no landmark

        def close(got, want, ref):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

        close(h_cc, h[:18, :18], h)
        close(b_c, b[:18], b)
        for row in range(2):
            lm = slice(18 + 3 * row, 21 + 3 * row)
            close(h_ll[row], h[lm, lm], h)
            close(h_lc[row], h[lm, coupled], h)
            close(b_l[row], b[lm], b)
        assert cost == pytest.approx(expected_cost, rel=1e-12)
        assert grad_norm == pytest.approx(np.abs(b).max(), rel=1e-12)

    def test_one_bincount_per_linearization(self, monkeypatch):
        """Every group's J^T r and J^T J entries reach the flat buffer by one
        ``np.bincount`` call, whatever the number of groups and targets."""
        problem = TestSchurElimination()._mini_ba(eliminate=True)
        problem.add_vectors("vel", np.ones((2, 3)))
        problem.add_factors(
            res.BiasRandomWalkFactor, [("vel", [0]), ("vel", [1]), ("vel", [1]), ("vel", [0])],
            None, np.eye(6), res.RobustKernel(),
        )
        problem.add_poses("anchor", Pose.stack([Pose.identity()]))
        add_point_to_point(problem, [0, 1], np.ones((2, 3)), np.eye(3))
        problem.add_factors(
            res.AnchorPriorFactor, [("anchor", [0])], Pose.stack([Pose.identity()]), np.eye(6), res.RobustKernel()
        )
        system = solver._System(problem)
        calls = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(len(a[0])) or bincount(*a, **k))
        system.linearize(problem.value)
        assert calls == [len(system.entries)]


class TestRetraction:
    def test_family_retraction_matches_pose_retract(self):
        """One step of the Schur system's layout, retracted family by family:
        free pose rows as ``Pose.retract`` to 1e-12 (a zero step included),
        free vector and eliminated rows by addition, fixed rows bitwise
        unchanged."""
        rng = np.random.default_rng(17)
        poses = [se3_exp(rng.normal(size=6)) for _ in range(6)]
        # a rotation drifted off orthonormality, as composition chains leave it
        poses[4] = Pose(poses[4].rotation * (1.0 + 1e-7), poses[4].translation)
        fixed = np.array([True, False, False, True, False, False])
        problem = Problem()
        problem.add_poses("pose", Pose.stack(poses), fixed=fixed)
        problem.add_vectors("vel", rng.normal(size=(3, 3)), fixed=[False, True, False])
        problem.add_vectors("lm", rng.normal(size=(4, 3)), eliminate=True)
        problem.add_vectors("held", rng.normal(size=(2, 2)), fixed=True)
        system = solver._System(problem)
        assert system.nc == 4 * 6 + 2 * 3
        steps = rng.normal(size=(6, 6)) * [0.3, 0.3, 0.3, 1.0, 1.0, 1.0]
        steps[2] = 0.0  # a zero step on a free row
        steps[5, :3] = 1e-8  # a rotation step on the series branch
        vel_steps = rng.normal(size=(3, 3))
        delta_c = np.concatenate([steps[~fixed].ravel(), vel_steps[[0, 2]].ravel()])
        delta_l = rng.normal(size=(4, 3))

        before = problem.value
        after = system.retract(before, (delta_c, delta_l))
        rot, trans = after["pose"]
        for i, pose in enumerate(poses):
            if fixed[i]:
                assert np.array_equal(rot[i], before["pose"][0][i])
                assert np.array_equal(trans[i], before["pose"][1][i])
                continue
            want = pose.retract(steps[i])
            np.testing.assert_allclose(rot[i], want.rotation, rtol=0, atol=1e-12)
            np.testing.assert_allclose(trans[i], want.translation, rtol=0, atol=1e-12)
        assert np.array_equal(after["vel"][1], before["vel"][1])
        np.testing.assert_array_equal(after["vel"][[0, 2]], before["vel"][[0, 2]] + vel_steps[[0, 2]])
        np.testing.assert_array_equal(after["lm"], before["lm"] + delta_l)
        assert np.array_equal(after["held"], before["held"])
        # the value retracted from is left as it was
        np.testing.assert_array_equal(before["pose"][0], np.array([p.rotation for p in poses]))


    def test_pose_families_retract_in_one_call(self, monkeypatch):
        """Every pose family's free rows go through one ``Pose.retract`` call
        on their stack, bitwise equal to a call per family."""
        rng = np.random.default_rng(19)
        problem = Problem()
        poses = [se3_exp(rng.normal(size=6)) for _ in range(4)]
        problem.add_poses("pose", Pose.stack(poses), fixed=[True, False, False, False])
        problem.add_vectors("vel", rng.normal(size=(2, 3)))
        problem.add_poses("anchor", Pose.stack([se3_exp(rng.normal(size=6))]))
        system = solver._System(problem)
        delta_c = rng.normal(size=system.nc) * 0.3
        before = problem.value

        calls = []
        retract = Pose.retract
        monkeypatch.setattr(Pose, "retract", lambda pose, d: calls.append(len(pose.rotation)) or retract(pose, d))
        after = system.retract(before, (delta_c, np.zeros((0, 0))))
        assert calls == [4]

        pose_step, anchor_step = delta_c[:18].reshape(3, 6), delta_c[24:].reshape(1, 6)
        for name, free, step in (("pose", slice(1, None), pose_step), ("anchor", slice(None), anchor_step)):
            want = retract(Pose(before[name][0][free], before[name][1][free]), step)
            np.testing.assert_array_equal(after[name][0][free], want.rotation)
            np.testing.assert_array_equal(after[name][1][free], want.translation)
        np.testing.assert_array_equal(after["pose"][0][0], before["pose"][0][0])
        np.testing.assert_array_equal(after["vel"], before["vel"] + delta_c[18:24].reshape(2, 3))


class TestOneFreeRow:
    def test_one_free_vector_row_takes_the_schur_path(self):
        """A problem whose one free row is a vector reaches the closed-form
        minimum: the mean of the points, taken into the fixed anchor's frame."""
        rng = np.random.default_rng(23)
        anchor = se3_exp(rng.normal(size=6) * 0.3)
        points = rng.normal(size=(6, 3))
        problem = Problem()
        problem.add_poses("anchor", Pose.stack([anchor]), fixed=True)
        problem.add_vectors("lm", rng.normal(size=(3, 3)), fixed=[True, False, True])
        add_point_to_point(problem, np.ones(6, dtype=int), points, np.eye(3))
        report = solver.solve(problem)
        assert report.termination == "converged"
        want = anchor.inverse().apply(points.mean(axis=0))
        np.testing.assert_allclose(problem.value["lm"][1], want, rtol=0, atol=1e-9)

    def test_a_group_partly_on_the_free_row_solves(self):
        """One prior group on both rows of a [fixed, free] pose family reaches
        the value and the final cost of two one-row groups: the free row
        lands on its prior mean, the fixed row's prior keeps its cost."""
        poses = [se3_exp(np.full(6, 0.1)), se3_exp(np.full(6, -0.2))]

        def problem_with(prior_rows):
            problem = Problem()
            problem.add_poses("pose", Pose.stack([Pose.identity()] * 2), fixed=[True, False])
            for rows in prior_rows:
                problem.add_factors(
                    res.AnchorPriorFactor, [("pose", rows)], Pose.stack([poses[r] for r in rows]),
                    np.eye(6), res.RobustKernel(),
                )
            return problem

        for prior_rows in ([[0], [1]], [[0, 1]]):
            problem = problem_with(prior_rows)
            report = solver.solve(problem)
            assert report.termination == "converged"
            assert report.final_cost == pytest.approx(6 * 0.01, rel=1e-9)  # the fixed row's prior
            solved = pose_row(problem, "pose", 1)
            np.testing.assert_allclose(solved.rotation, poses[1].rotation, rtol=0, atol=1e-9)
            np.testing.assert_allclose(solved.translation, poses[1].translation, rtol=0, atol=1e-9)
