"""Levenberg-Marquardt over mixed Euclidean/manifold variable blocks.

A Problem is a set of named blocks (SE(3) poses updated by right
retraction, or plain vectors) plus factors. A factor provides:

- ``blocks``: tuple of block keys it touches,
- either ``evaluate(values, jacobian=True)`` returning
  ``(residual (d,), [J (d, k) per block])``, or a classmethod
  ``evaluate_batch(factors, values, jacobian=True)`` returning
  ``(residual (n, d), [J (n, d, k) per block])`` for n factors at once plus
  ``batch_key()``: factors of one class with equal keys form one batch,
- ``sqrt_info``: scalar s meaning S = s * I, or a (d, d) matrix S, with
  information = S^T S,
- ``kernel``: robust loss with ``loss(s) -> (rho, drho)``.

Factors of a class without ``evaluate_batch`` are evaluated one by one and
stacked into one group per class, so they must share their residual and
Jacobian shapes. Every group is then whitened, weighted and assembled the
same way.

The cost is the sum over factors of ``rho(||S r||^2)``. Robust terms are
handled by square-root re-weighting (no second-order kernel correction).
Vector blocks may be marked ``eliminate=True``; they are condensed out of
the damped normal equations by a dense Schur complement (intended for
landmarks: many small independent blocks, each touched together with
non-eliminated blocks only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liegroup import Pose


@dataclass
class SolverOptions:
    max_iterations: int = 50
    gradient_tol: float = 1e-8
    step_tol: float = 1e-10  # relative cost decrease
    initial_lambda: float = 1e-4
    lambda_increase: float = 10.0
    lambda_decrease: float = 1.0 / 3.0
    max_lambda: float = 1e10


@dataclass
class SolverReport:
    initial_cost: float
    final_cost: float
    iterations: int
    termination: str  # converged | max_iter | stalled | failure
    gradient_norm: float = float("nan")


@dataclass
class _Block:
    key: str
    value: object
    kind: str  # pose | vector
    size: int
    fixed: bool = False
    eliminate: bool = False


class Problem:
    """Named variable blocks plus the factors that couple them."""

    def __init__(self):
        self._blocks: dict[str, _Block] = {}
        self._factors: list = []

    # -- construction -----------------------------------------------------
    def add_pose_block(self, key: str, value: Pose, fixed: bool = False):
        if key in self._blocks:
            raise ValueError(f"duplicate block {key!r}")
        self._blocks[key] = _Block(key, value, "pose", 6, fixed=fixed)

    def add_vector_block(self, key: str, value, fixed: bool = False, eliminate: bool = False):
        if key in self._blocks:
            raise ValueError(f"duplicate block {key!r}")
        value = np.asarray(value, dtype=float).copy()
        self._blocks[key] = _Block(
            key, value, "vector", value.size, fixed=fixed, eliminate=eliminate and not fixed
        )

    def add_factor(self, factor):
        for key in factor.blocks:
            if key not in self._blocks:
                raise ValueError(f"factor references unknown block {key!r}")
        n_elim = sum(
            1
            for key in factor.blocks
            if self._blocks[key].eliminate and not self._blocks[key].fixed
        )
        if n_elim > 1:
            raise ValueError("a factor may touch at most one eliminated block")
        self._factors.append(factor)

    # -- access ------------------------------------------------------------
    @property
    def factors(self):
        return list(self._factors)

    def value(self, key: str):
        return self._blocks[key].value

    def values(self) -> dict:
        return {k: b.value for k, b in self._blocks.items()}

    def set_value(self, key: str, value):
        self._blocks[key].value = value


def _group_factors(factors):
    """Split factors into evaluation groups, keyed by (class, batch key).

    Classes with ``evaluate_batch`` are grouped by ``batch_key()``; every
    other class forms one group of its own.
    """
    groups: dict = {}
    for f in factors:
        cls = type(f)
        key = (cls, f.batch_key() if hasattr(cls, "evaluate_batch") else None)
        groups.setdefault(key, []).append(f)
    return groups


def _evaluate_group(cls, factors, values, jacobian):
    """Stacked residuals (n, d) and per-block Jacobians (n, d, k) of a group."""
    if hasattr(cls, "evaluate_batch"):
        return cls.evaluate_batch(factors, values, jacobian=jacobian)
    evaluated = [f.evaluate(values, jacobian) for f in factors]
    residual = np.stack([r for r, _ in evaluated])
    if not jacobian:
        return residual, None
    return residual, [np.stack(per_block) for per_block in zip(*(j for _, j in evaluated))]


def _batch_whiten(factors, residual, jacs, jacobian):
    """Whiten a batch and apply robust weights; returns rho as well."""
    n, d = residual.shape
    s_infos = [f.sqrt_info for f in factors]
    if all(np.isscalar(s) for s in s_infos):
        s = np.asarray(s_infos, dtype=float)
        w_res = residual * s[:, None]
        w_jacs = [j * s[:, None, None] for j in jacs] if jacobian else None
    else:
        stack = np.stack([np.eye(d) * s if np.isscalar(s) else s for s in s_infos])
        w_res = np.einsum("nij,nj->ni", stack, residual)
        w_jacs = [np.einsum("nij,njk->nik", stack, j) for j in jacs] if jacobian else None
    sq = np.einsum("ni,ni->n", w_res, w_res)
    rho = np.empty(n)
    drho = np.empty(n)
    by_kernel: dict = {}
    for i, f in enumerate(factors):
        by_kernel.setdefault((f.kernel.kind, f.kernel.scale), ([], f.kernel))[0].append(i)
    for idxs, kernel in by_kernel.values():
        idxs = np.asarray(idxs)
        rho[idxs], drho[idxs] = kernel.loss(sq[idxs])
    return w_res, w_jacs, rho, drho


def evaluate_cost(problem: Problem, values: dict | None = None) -> float:
    """Sum of robustified factor costs at the given (or current) values."""
    if values is None:
        values = problem.values()
    cost = 0.0
    for (cls, _), fs in _group_factors(problem._factors).items():
        residual, _ = _evaluate_group(cls, fs, values, jacobian=False)
        _, _, rho, _ = _batch_whiten(fs, residual, None, jacobian=False)
        cost += float(rho.sum())
    return cost


class _System:
    """Offset bookkeeping for one solve."""

    def __init__(self, problem: Problem):
        self.cam_blocks = []
        self.elim_blocks = []
        for blk in problem._blocks.values():
            if blk.fixed:
                continue
            if blk.eliminate:
                self.elim_blocks.append(blk)
            else:
                self.cam_blocks.append(blk)
        if not self.cam_blocks and not self.elim_blocks:
            raise ValueError("problem has no free blocks")
        self.cam_offset = {}
        off = 0
        for blk in self.cam_blocks:
            self.cam_offset[blk.key] = off
            off += blk.size
        self.nc = off
        self.elim_index = {blk.key: j for j, blk in enumerate(self.elim_blocks)}
        self.elim_sizes = [blk.size for blk in self.elim_blocks]


def _build_normal_equations(problem, system, values):
    """Assemble H, b (camera part), per-eliminated-block H_ll/b_l/H_cl."""
    nc = system.nc
    h_cc = np.zeros((nc, nc))
    b_c = np.zeros(nc)
    h_ll = [np.zeros((s, s)) for s in system.elim_sizes]
    b_l = [np.zeros(s) for s in system.elim_sizes]
    h_cl = [np.zeros((nc, s)) for s in system.elim_sizes]
    cost = 0.0

    def scatter(factor, w_res, jacs):
        entries = []  # (kind, offset_or_index, J)
        for key, jac in zip(factor.blocks, jacs):
            blk = problem._blocks[key]
            if blk.fixed:
                continue
            if blk.eliminate:
                entries.append(("elim", system.elim_index[key], jac))
            else:
                entries.append(("cam", system.cam_offset[key], jac))
        for kind_a, loc_a, jac_a in entries:
            jt_r = jac_a.T @ w_res
            # b is the negative gradient so that delta = H^-1 b descends
            if kind_a == "cam":
                b_c[loc_a : loc_a + jac_a.shape[1]] -= jt_r
            else:
                b_l[loc_a] -= jt_r
            for kind_b, loc_b, jac_b in entries:
                block = jac_a.T @ jac_b
                if kind_a == "cam" and kind_b == "cam":
                    h_cc[loc_a : loc_a + jac_a.shape[1], loc_b : loc_b + jac_b.shape[1]] += block
                elif kind_a == "cam" and kind_b == "elim":
                    h_cl[loc_b][loc_a : loc_a + jac_a.shape[1], :] += block
                elif kind_a == "elim" and kind_b == "elim":
                    h_ll[loc_a] += block
                # elim-cam handled symmetrically by the cam-elim case

    for (cls, _), fs in _group_factors(problem._factors).items():
        residual, jacs = _evaluate_group(cls, fs, values, jacobian=True)
        w_res, w_jacs, rho, drho = _batch_whiten(fs, residual, jacs, jacobian=True)
        cost += float(rho.sum())
        sw = np.sqrt(np.maximum(drho, 0.0))
        w_res = w_res * sw[:, None]
        w_jacs = [j * sw[:, None, None] for j in w_jacs]
        for i, factor in enumerate(fs):
            if sw[i] == 0.0:
                continue
            scatter(factor, w_res[i], [j[i] for j in w_jacs])
    return h_cc, b_c, h_ll, b_l, h_cl, cost


def _solve_damped(system, h_cc, b_c, h_ll, b_l, h_cl, lam):
    """Schur-condensed damped solve; returns per-block updates or None."""
    nc = system.nc
    h_d = h_cc.copy()
    diag = np.abs(np.diag(h_cc))
    h_d[np.arange(nc), np.arange(nc)] += lam * np.maximum(diag, 1e-12)
    b_red = b_c.copy()
    ll_solves = []
    for j, blk in enumerate(system.elim_blocks):
        hd_j = h_ll[j].copy()
        dj = np.abs(np.diag(hd_j))
        hd_j[np.arange(blk.size), np.arange(blk.size)] += lam * np.maximum(dj, 1e-12)
        try:
            np.linalg.cholesky(hd_j)  # positive-definiteness check only
        except np.linalg.LinAlgError:
            return None
        # x = H_ll^-1 [b_l | H_cl^T], kept for the back-substitution
        rhs = np.concatenate([b_l[j][:, None], h_cl[j].T], axis=1)
        x = np.linalg.solve(hd_j, rhs)
        b_red -= h_cl[j] @ x[:, 0]
        h_d -= h_cl[j] @ x[:, 1:]
        ll_solves.append(x)
    if nc > 0:
        try:
            delta_c = np.linalg.solve(h_d, b_red)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta_c)):
            return None
    else:
        delta_c = np.zeros(0)
    # delta_l = H_ll^-1 (b_l - H_cl^T delta_c)
    deltas_l = [x[:, 0] - x[:, 1:] @ delta_c for x in ll_solves]
    return delta_c, deltas_l


def _retract_all(system, values, delta_c, deltas_l):
    new_values = dict(values)
    for blk in system.cam_blocks:
        off = system.cam_offset[blk.key]
        step = delta_c[off : off + blk.size]
        if blk.kind == "pose":
            new_values[blk.key] = values[blk.key].retract(step)
        else:
            new_values[blk.key] = values[blk.key] + step
    for j, blk in enumerate(system.elim_blocks):
        new_values[blk.key] = values[blk.key] + deltas_l[j]
    return new_values


def solve(problem: Problem, options: SolverOptions | None = None) -> SolverReport:
    """Minimize the robustified cost; updates the problem's blocks in place."""
    opts = options or SolverOptions()
    system = _System(problem)
    values = problem.values()

    initial_cost = evaluate_cost(problem, values)
    if not np.isfinite(initial_cost):
        return SolverReport(initial_cost, initial_cost, 0, "failure")
    cost = initial_cost
    lam = opts.initial_lambda
    iterations = 0
    termination = "max_iter"
    grad_norm = float("nan")

    while iterations < opts.max_iterations:
        h_cc, b_c, h_ll, b_l, h_cl, cost = _build_normal_equations(problem, system, values)
        grad_parts = [np.abs(b_c).max(initial=0.0)] + [
            np.abs(b).max(initial=0.0) for b in b_l
        ]
        grad_norm = max(grad_parts)
        if grad_norm < opts.gradient_tol:
            termination = "converged"
            break

        accepted = False
        while lam <= opts.max_lambda:
            iterations += 1
            solved = _solve_damped(system, h_cc, b_c, h_ll, b_l, h_cl, lam)
            if solved is None:
                lam *= opts.lambda_increase
                if iterations >= opts.max_iterations:
                    break
                continue
            candidate = _retract_all(system, values, *solved)
            new_cost = evaluate_cost(problem, candidate)
            if np.isfinite(new_cost) and new_cost < cost:
                rel_decrease = (cost - new_cost) / max(cost, 1e-300)
                values = candidate
                cost = new_cost
                lam = max(lam * opts.lambda_decrease, 1e-12)
                accepted = True
                if rel_decrease < opts.step_tol:
                    termination = "converged"
                break
            lam *= opts.lambda_increase
            if iterations >= opts.max_iterations:
                break
        if not accepted:
            if lam > opts.max_lambda:
                termination = "stalled"
            break
        if termination == "converged":
            break

    for key, value in values.items():
        problem.set_value(key, value)
    return SolverReport(initial_cost, cost, iterations, termination, grad_norm)
