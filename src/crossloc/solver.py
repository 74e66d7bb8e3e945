"""Levenberg-Marquardt over mixed Euclidean/manifold variable blocks.

One LM loop (damping, acceptance, termination) runs over two linear-algebra
backends: a ``Problem``, solved through its Schur complement, and a
``DenseProblem``, a small problem whose dense normal equations are built
from the term groups it states (the rigid step's anchor-only alignment).
Each backend linearizes, evaluates the cost, solves the damped system and
retracts; ``solve`` picks the backend by the problem's type.

A Problem is a set of named blocks (SE(3) poses updated by right
retraction, or plain vectors) plus factor groups. A group is n rows of one
factor kind, added at once by ``Problem.add_factors(kind, blocks, data,
information, kernel)``:

- ``blocks``: one key sequence per block slot, n keys each; row i touches
  the i-th key of every slot;
- ``data``: whatever ``kind.evaluate_batch`` reads besides the block values
  (stacked pixels, map points and normals, preintegrated deltas), fixed for
  the group's life;
- ``information``: the information of a row's residual, one (d, d) shared
  by every row or an (n, d, d) stack;
- ``kernel``: the group's robust loss, ``loss(s) -> (rho, drho)``.

``kind`` is a class with a classmethod ``evaluate_batch(batch, values,
jacobian=True)`` returning ``(residual (n, d), [J (n, d, k) per slot])``
(the Jacobians are read only if ``jacobian``), where ``batch`` is the
group's ``FactorBatch``: its ``data``, ``len`` the number of rows, and
``poses`` and ``vectors`` to gather each row's block values. The batch is
compiled when the group is added: the upper-triangular square root S
(S^T S = information) of its information, taken by one (batched) Cholesky,
and index arrays from each row to its slots' distinct blocks. Every
evaluation, of the cost or of the normal equations, then takes one path per
group: evaluate it, whiten it by ``_whiten`` (one ``matmul`` by S), apply
its kernel. The dense backend's term groups are whitened by the same
``_whiten``.

The cost is the sum over rows of ``rho(||S r||^2)``. Robust terms are
handled by square-root re-weighting (no second-order kernel correction).
Vector blocks may be marked ``eliminate=True``; they are condensed out of
the damped normal equations by a Schur complement (intended for landmarks:
many small independent blocks, each touched together with non-eliminated
blocks only). All eliminated blocks must have one size s, so that for L of
them and nc free camera (non-eliminated) coordinates the system is stacked
as ``H_cc (nc, nc)``, ``b_c (nc,)``, ``H_ll (L, s, s)``, ``b_l (L, s)`` and
``H_cl (L, nc, s)``. A solve maps each row's blocks to their camera offset
and landmark row once, and from them each group's scatter maps: flat index
arrays from its rows' J^T J and J^T r entries into those arrays. Every
LM iteration then adds each group in with one ``bincount`` per array, and
damps, checks and solves all landmark blocks as one batch.

Both backends damp a diagonal entry h by ``lam * max(|h|, 1e-12)``.
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
    """Named variable blocks plus the factor groups that couple them."""

    def __init__(self):
        self._blocks: dict[str, _Block] = {}
        self.groups: list[FactorBatch] = []
        self._elim_size: int | None = None

    # -- construction -----------------------------------------------------
    def add_pose_block(self, key: str, value: Pose, fixed: bool = False):
        if key in self._blocks:
            raise ValueError(f"duplicate block {key!r}")
        self._blocks[key] = _Block(key, value, "pose", 6, fixed=fixed)

    def add_vector_block(self, key: str, value, fixed: bool = False, eliminate: bool = False):
        if key in self._blocks:
            raise ValueError(f"duplicate block {key!r}")
        value = np.asarray(value, dtype=float).copy()
        eliminate = eliminate and not fixed
        if eliminate:
            if self._elim_size not in (None, value.size):
                raise ValueError(
                    f"eliminated block {key!r} has size {value.size}, "
                    f"the other eliminated blocks {self._elim_size}"
                )
            self._elim_size = value.size
        self._blocks[key] = _Block(
            key, value, "vector", value.size, fixed=fixed, eliminate=eliminate
        )

    def add_factors(self, kind, blocks, data, information, kernel):
        """Add n rows of ``kind`` as one group (see the module docstring);
        a group of no rows is not added."""
        if len(blocks[0]) == 0:
            return
        batch = FactorBatch(kind, blocks, data, information, kernel)
        eliminated = 0
        for keys, index in zip(batch.keys, batch.index):
            for key in keys:
                if key not in self._blocks:
                    raise ValueError(f"factor references unknown block {key!r}")
            eliminated = eliminated + np.array([self._blocks[k].eliminate for k in keys])[index]
        if np.any(eliminated > 1):
            raise ValueError("a factor may touch at most one eliminated block")
        self.groups.append(batch)

    # -- access ------------------------------------------------------------
    def value(self, key: str):
        return self._blocks[key].value

    def values(self) -> dict:
        return {k: b.value for k, b in self._blocks.items()}

    def set_value(self, key: str, value):
        self._blocks[key].value = value


class FactorBatch:
    """One factor group, compiled for every evaluation of a solve.

    - ``kind``, ``data`` and ``kernel``: as given to ``Problem.add_factors``;
    - ``sqrt_info``: the upper-triangular S (S^T S = information), (d, d)
      for a shared information, (n, d, d) for a stack;
    - ``keys[a]`` and ``index[a]`` per block slot a: the slot's distinct
      block keys and, per row, the position of its key among them.

    ``poses`` and ``vectors`` gather one slot's block values for every row:
    each distinct block is stacked once, then indexed.
    """

    def __init__(self, kind, blocks, data, information, kernel):
        self.kind, self.data, self.kernel = kind, data, kernel
        self.keys, self.index = [], []
        for slot in blocks:
            keys, index = np.unique(np.asarray(slot), return_inverse=True)
            self.keys.append(keys.tolist())
            self.index.append(index)
        if len({len(index) for index in self.index}) != 1:
            raise ValueError("every block slot needs one key per row")
        self.sqrt_info = _sqrt_information(np.asarray(information, dtype=float))

    def __len__(self) -> int:
        return len(self.index[0])

    def vectors(self, values, slot: int) -> np.ndarray:
        """Vector block of ``slot`` per row, (n, k)."""
        return np.stack([values[k] for k in self.keys[slot]])[self.index[slot]]

    def poses(self, values, slot: int):
        """Pose block of ``slot`` per row: rotations (n, 3, 3), translations (n, 3)."""
        poses = [values[k] for k in self.keys[slot]]
        idx = self.index[slot]
        return np.stack([p.rotation for p in poses])[idx], np.stack([p.translation for p in poses])[idx]


def _sqrt_information(information):
    """Upper-triangular S with S^T S = information, for one (d, d) or a stack (n, d, d).

    The information is symmetrized first: rounding may leave it slightly
    asymmetric, and the Cholesky factorization reads one triangle only.
    """
    information = 0.5 * (information + np.swapaxes(information, -1, -2))
    return np.swapaxes(np.linalg.cholesky(information), -1, -2)


def _whiten(sqrt_info, kernel, residual, jacs=None):
    """Whitened residuals and Jacobians (None if not given), rho and rho' of a group.

    ``sqrt_info`` is one S per residual row, (n, d, d), or one S for all of
    them, (d, d): ``matmul`` broadcasts both alike.
    """
    w_res = (sqrt_info @ residual[:, :, None])[:, :, 0]
    w_jacs = None if jacs is None else [sqrt_info @ j for j in jacs]
    rho, drho = kernel.loss(np.einsum("ni,ni->n", w_res, w_res))
    return w_res, w_jacs, rho, drho


def _reweighted(w_res, w_jacs, drho):
    """The rows of r and J of the re-weighted system: the whitened residuals
    (n, d) and Jacobians concatenated over blocks (n, d, K), scaled by
    sqrt(rho') per row."""
    sw = np.sqrt(np.maximum(drho, 0.0))
    return w_res * sw[:, None], np.concatenate(w_jacs, axis=2) * sw[:, None, None]


def evaluate_cost(problem: Problem, values: dict | None = None) -> float:
    """Sum of robustified factor costs at the given (or current) values."""
    if values is None:
        values = problem.values()
    cost = 0.0
    for batch in problem.groups:
        residual, _ = batch.kind.evaluate_batch(batch, values, jacobian=False)
        _, _, rho, _ = _whiten(batch.sqrt_info, batch.kernel, residual)
        cost += float(rho.sum())
    return cost


class _System:
    """Block layout of one solve of a Problem and its Schur-complement algebra.

    Camera blocks (free and not eliminated) take consecutive offsets of the
    reduced vector in insertion order; eliminated blocks are the rows of the
    stacked landmark arrays, in insertion order. Building it maps, per
    factor group, its rows' blocks to those (``_scatter_maps``), which add
    the rows' normal-equation entries into the stacked system.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        blocks = problem._blocks.values()
        self.cam_blocks = [blk for blk in blocks if not blk.fixed and not blk.eliminate]
        self.elim_blocks = [blk for blk in blocks if blk.eliminate]
        if not self.cam_blocks and not self.elim_blocks:
            raise ValueError("problem has no free blocks")
        self.cam_offset = {}
        off = 0
        for blk in self.cam_blocks:
            self.cam_offset[blk.key] = off
            off += blk.size
        self.nc = off
        self.elim_size = problem._elim_size or 0
        lm_row = {blk.key: j for j, blk in enumerate(self.elim_blocks)}

        def per_slot(batch, table):
            """(n, slots): each row block's entry in table, -1 if absent."""
            return np.stack(
                [np.array([table.get(k, -1) for k in keys])[idx]
                 for keys, idx in zip(batch.keys, batch.index)],
                axis=1,
            )

        self.scatter = [
            _scatter_maps(
                per_slot(batch, self.cam_offset),
                per_slot(batch, lm_row),
                [problem._blocks[keys[0]].size for keys in batch.keys],
                self.nc,
                self.elim_size,
            )
            for batch in problem.groups
        ]

    def cost(self, values):
        return evaluate_cost(self.problem, values)

    def linearize(self, values):
        h_cc, b_c, h_ll, b_l, h_cl, cost = _build_normal_equations(self.problem, self, values)
        grad_norm = max(np.abs(b_c).max(initial=0.0), np.abs(b_l).max(initial=0.0))
        return (h_cc, b_c, h_ll, b_l, h_cl), cost, grad_norm

    def solve_damped(self, linear, lam):
        """Schur-condensed damped solve; returns (delta_c, delta_l (L, s)) or None."""
        h_cc, b_c, h_ll, b_l, h_cl = linear
        hd_l = _damp(h_ll, lam)
        try:
            np.linalg.cholesky(hd_l)  # positive-definiteness check only
        except np.linalg.LinAlgError:
            return None
        # x = H_ll^-1 [b_l | H_cl^T] per landmark, kept for the back-substitution
        x = np.linalg.solve(hd_l, np.concatenate([b_l[:, :, None], h_cl.transpose(0, 2, 1)], axis=2))
        # sum over landmarks of H_cl x: the Schur terms of b and of H
        schur = np.tensordot(h_cl, x, axes=([0, 2], [0, 1]))
        delta_c = _solve_or_none(_damp(h_cc, lam) - schur[:, 1:], b_c - schur[:, 0])
        if delta_c is None:
            return None
        # delta_l = H_ll^-1 (b_l - H_cl^T delta_c)
        return delta_c, x[:, :, 0] - x[:, :, 1:] @ delta_c

    def retract(self, values, delta):
        delta_c, delta_l = delta
        new_values = dict(values)
        for blk in self.cam_blocks:
            off = self.cam_offset[blk.key]
            step = delta_c[off : off + blk.size]
            if blk.kind == "pose":
                new_values[blk.key] = values[blk.key].retract(step)
            else:
                new_values[blk.key] = values[blk.key] + step
        for j, blk in enumerate(self.elim_blocks):
            new_values[blk.key] = values[blk.key] + delta_l[j]
        return new_values


def _scatter_maps(cam, lm, sizes, nc, s):
    """Where one group's normal-equation entries land in the stacked system.

    The group's per-row Jacobians are concatenated over its block slots
    (sizes ``sizes``) into K columns; ``cam`` and ``lm`` (n, slots) give each
    row block's camera offset and landmark row, -1 if it has none.
    Returns one (source, destination) pair of flat index arrays per target:
    J^T r (n, K) into b_c and b_l, then J^T J (n, K, K) into H_cc, H_cl and
    H_ll. Fixed blocks' columns land nowhere.
    """
    n, k_all = len(cam), sum(sizes)
    col = np.full((n, k_all), -1)  # camera coordinate of each column
    row = np.full((n, k_all), -1)  # landmark row of each column
    coord = np.zeros((n, k_all), dtype=int)  # coordinate within its block
    off = 0
    for a, k in enumerate(sizes):
        cols = slice(off, off + k)
        on_cam = cam[:, a] >= 0
        col[on_cam, cols] = cam[on_cam, a, None] + np.arange(k)
        on_lm = lm[:, a] >= 0
        row[on_lm, cols] = lm[on_lm, a, None]
        coord[:, cols] = np.arange(k)
        off += k
    g_src = np.arange(n * k_all).reshape(n, k_all)
    h_src = np.arange(n * k_all * k_all).reshape(n, k_all, k_all)
    ci, cj = col[:, :, None], col[:, None, :]
    ri, rj = row[:, :, None], row[:, None, :]
    oi, oj = coord[:, :, None], coord[:, None, :]

    def pick(mask, src, dst):
        mask = np.broadcast_to(mask, src.shape)
        return src[mask], np.broadcast_to(dst, src.shape)[mask]

    return (
        pick(col >= 0, g_src, col),
        pick(row >= 0, g_src, row * s + coord),
        pick((ci >= 0) & (cj >= 0), h_src, ci * nc + cj),
        pick((ci >= 0) & (rj >= 0), h_src, (rj * nc + ci) * s + oj),
        # a row touches at most one eliminated block: its landmark columns pair up
        pick((ri >= 0) & (rj >= 0), h_src, (ri * s + oi) * s + oj),
    )


def _build_normal_equations(problem, system, values):
    """Assemble H_cc, b_c and the stacked H_ll (L, s, s), b_l (L, s), H_cl (L, nc, s).

    b is the negative gradient, so that delta = H^-1 b descends. The
    landmark part of H is block diagonal because a row touches at most
    one eliminated block. Each group's entries are summed into the system
    by its scatter maps, one ``bincount`` per target; a row of zero
    robust weight adds zeros.
    """
    nc, s, n_l = system.nc, system.elim_size, len(system.elim_blocks)
    h_cc = np.zeros((nc, nc))
    b_c = np.zeros(nc)
    h_ll = np.zeros((n_l, s, s))
    b_l = np.zeros((n_l, s))
    h_cl = np.zeros((n_l, nc, s))
    cost = 0.0
    for batch, maps in zip(problem.groups, system.scatter):
        residual, jacs = batch.kind.evaluate_batch(batch, values, jacobian=True)
        w_res, w_jacs, rho, drho = _whiten(batch.sqrt_info, batch.kernel, residual, jacs)
        cost += float(rho.sum())
        r, jac = _reweighted(w_res, w_jacs, drho)
        neg_g = -np.einsum("ndk,nd->nk", jac, r).ravel()
        jtj = np.einsum("ndi,ndj->nij", jac, jac).ravel()
        for out, entries, (src, dst) in zip(
            (b_c, b_l, h_cc, h_cl, h_ll), (neg_g, neg_g, jtj, jtj, jtj), maps
        ):
            if len(src):
                out.reshape(-1)[:] += np.bincount(dst, weights=entries[src], minlength=out.size)
    return h_cc, b_c, h_ll, b_l, h_cl, cost


class DenseProblem:
    """Base of a small problem solved on its dense normal equations.

    A subclass states its cost as term groups. It passes its initial
    estimate and each group's ``(information (d, d), kernel)`` to
    ``__init__``, and provides ``terms(value, jacobian)``: per group, in
    that order, ``(residual (m, d), J (m, d, k) or None)`` with J the
    Jacobian with respect to the value (None unless ``jacobian``); plus
    ``retract(value, delta (k,))``. Each information's square root is taken
    once, here, by ``_sqrt_information``; every group is whitened by
    ``_whiten`` and re-weighted as a Problem's factor group is, so the cost
    and the normal equations are those of a Problem with one free block and
    those groups.
    """

    def __init__(self, value, groups):
        self.value = value
        self.groups = [(_sqrt_information(info), kernel) for info, kernel in groups]

    def _whitened(self, value, jacobian: bool):
        terms = self.terms(value, jacobian)
        for (residual, jac), (sqrt_info, kernel) in zip(terms, self.groups, strict=True):
            yield _whiten(sqrt_info, kernel, residual, None if jac is None else [jac])

    def cost(self, value) -> float:
        return sum(float(rho.sum()) for _, _, rho, _ in self._whitened(value, False))

    def normal_equations(self, value):
        """h (k, k), b (k,) the negative gradient, and the cost at ``value``."""
        h, b, cost = 0.0, 0.0, 0.0
        for w_res, w_jacs, rho, drho in self._whitened(value, True):
            cost += float(rho.sum())
            r, jac = _reweighted(w_res, w_jacs, drho)
            h = h + np.einsum("ndi,ndj->ij", jac, jac)
            b = b - np.einsum("ndi,nd->i", jac, r)
        return h, b, cost

    def linearize(self, value):
        h, b, cost = self.normal_equations(value)
        return (h, b), cost, np.abs(b).max(initial=0.0)

    def solve_damped(self, linear, lam):
        h, b = linear
        return _solve_or_none(_damp(h, lam), b)


def _damp(h, lam):
    """Copy of h (..., k, k) with lam * max(|diag|, 1e-12) added to its diagonal."""
    d = np.arange(h.shape[-1])
    out = h.copy()
    out[..., d, d] += lam * np.maximum(np.abs(h[..., d, d]), 1e-12)
    return out


def _solve_or_none(h, b):
    """h^-1 b, or None when h is singular or the solution is not finite."""
    try:
        x = np.linalg.solve(h, b)
    except np.linalg.LinAlgError:
        return None
    return x if np.all(np.isfinite(x)) else None


def _levenberg_marquardt(system, value, opts: SolverOptions):
    """The LM loop over either backend; returns (final value, report)."""
    initial_cost = system.cost(value)
    if not np.isfinite(initial_cost):
        return value, SolverReport(initial_cost, initial_cost, 0, "failure")
    cost = initial_cost
    lam = opts.initial_lambda
    iterations = 0
    termination = "max_iter"
    grad_norm = float("nan")

    while iterations < opts.max_iterations:
        linear, cost, grad_norm = system.linearize(value)
        if grad_norm < opts.gradient_tol:
            termination = "converged"
            break

        accepted = False
        while lam <= opts.max_lambda:
            iterations += 1
            delta = system.solve_damped(linear, lam)
            if delta is None:
                lam *= opts.lambda_increase
                if iterations >= opts.max_iterations:
                    break
                continue
            candidate = system.retract(value, delta)
            new_cost = system.cost(candidate)
            if np.isfinite(new_cost) and new_cost < cost:
                rel_decrease = (cost - new_cost) / max(cost, 1e-300)
                value = candidate
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

    return value, SolverReport(initial_cost, cost, iterations, termination, grad_norm)


def solve(problem: Problem | DenseProblem, options: SolverOptions | None = None) -> SolverReport:
    """Minimize the robustified cost; updates the problem's estimate in place."""
    opts = options or SolverOptions()
    if isinstance(problem, DenseProblem):
        problem.value, report = _levenberg_marquardt(problem, problem.value, opts)
        return report
    values, report = _levenberg_marquardt(_System(problem), problem.values(), opts)
    for key, value in values.items():
        problem.set_value(key, value)
    return report
