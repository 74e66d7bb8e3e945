"""Levenberg-Marquardt over block families of SE(3) poses and vectors.

There is one problem statement, ``Problem``, one LM loop (damping,
acceptance, termination) and one linear-algebra backend, ``_System``: the
Schur-complement system below, for every problem, the rigid step's
anchor-only alignment (one free pose row, nothing eliminated) included.
It linearizes, evaluates the cost, solves the damped system and retracts;
``solve`` leaves the minimizer in the problem's ``value``. The loop
linearizes each iterate once: a trial linearizes its candidate, whose cost
decides the acceptance and whose normal equations, when accepted, the next
iteration solves. Only the trial that uses up the last allowed iteration
evaluates the cost alone. A linearization's cost is the sum of the same
group costs, in the same order, as ``evaluate_cost``.

A Problem's variables are named block families, each stacked in one array
of n rows: ``add_poses(name, poses, fixed)`` (SE(3) poses, updated by right
retraction) and ``add_vectors(name, values (n, k), fixed, eliminate)``;
``fixed`` is one bool per row or one for all. Its ``value`` is a dict from
family to array: ``(n, k)`` for vectors, ``(R (n, 3, 3), t (n, 3))`` for
poses. A factor group is n rows of one factor kind, added at once by
``Problem.add_factors(kind, slots, data, information, kernel)``:

- ``slots``: one ``(family, rows)`` pair per block slot, ``rows`` n integer
  row indices; row i of the group touches row ``rows[i]`` of each slot's
  family;
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
``poses`` and ``vectors``, which gather a slot's rows of ``values`` by
fancy indexing. The batch takes the upper-triangular square root S
(S^T S = information) of its information when the group is added, by one
(batched) Cholesky. Every evaluation, of the cost or of the normal
equations, then takes one path per group: evaluate it, whiten it by
``_whiten`` (one ``matmul`` by S), apply its kernel.

The cost is the sum over rows of ``rho(||S r||^2)``. Robust terms are
handled by square-root re-weighting (no second-order kernel correction).
One vector family, every row of it free, may be marked ``eliminate=True``;
it is condensed out of the damped normal equations by a Schur complement
(intended for landmarks: many small independent blocks, so a group has at
most one slot on that family). For its L rows of size s and nc free camera
coordinates (the free rows of the other families, family by family) the
system is stacked as ``H_cc (nc, nc)``, ``b_c (nc,)``, ``H_ll (L, s, s)``,
``b_l (L, s)`` and ``H_cl (L, nc, s)``. A solve maps each group's rows to
their camera offset and landmark row once, and from them the group's
scatter maps: flat index arrays from its rows' J^T J and J^T r entries into
those of the arrays that they reach. Only the slots with a free row take
columns: a slot whose rows are all fixed (the alignment's landmarks) takes
none, and a group with no such slot adds its cost only. With no family
eliminated, L is 0 and the landmark arrays are empty. Every LM iteration
then adds each group in with one ``bincount`` per array, damps, checks the
landmark blocks by one batched Cholesky and inverts them by one batched
inverse (cheaper, for s x s blocks, than a solve with 1 + nc right-hand
sides), and retracts the free rows of every pose family, stacked, by one
``Pose.retract`` and those of each vector family by one update.

The damping adds ``lam * max(|h|, 1e-12)`` to each diagonal entry h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liegroup import Pose


# LM convergence tolerances, then the damping schedule
GRADIENT_TOL = 1e-8  # max-norm of the gradient
STEP_TOL = 1e-10  # relative cost decrease
INITIAL_LAMBDA = 1e-4
LAMBDA_INCREASE = 10.0
LAMBDA_DECREASE = 1.0 / 3.0
MAX_LAMBDA = 1e10


@dataclass
class SolverReport:
    initial_cost: float
    final_cost: float
    iterations: int
    termination: str  # converged | max_iter | stalled | failure
    gradient_norm: float = float("nan")


@dataclass
class _Family:
    """Row layout of one block family; its values live in ``Problem.value``."""

    pose: bool
    size: int  # tangent dimension of one row
    fixed: np.ndarray  # (n,) bool
    eliminate: bool = False


class Problem:
    """Block families plus the factor groups that couple their rows."""

    def __init__(self):
        self.families: dict[str, _Family] = {}
        self.value: dict = {}  # family name -> its stacked value
        self.groups: list[FactorBatch] = []

    def add_poses(self, name: str, poses, fixed=False):
        """A family of SE(3) poses, one row per ``Pose``."""
        rot = np.array([p.rotation for p in poses], dtype=float).reshape(-1, 3, 3)
        trans = np.array([p.translation for p in poses], dtype=float).reshape(-1, 3)
        self._add(name, (rot, trans), _Family(True, 6, _row_mask(fixed, len(rot))))

    def add_vectors(self, name: str, values, fixed=False, eliminate: bool = False):
        """A family of vectors, one row of ``values`` (n, k) each."""
        values = np.array(values, dtype=float)
        family = _Family(False, values.shape[1], _row_mask(fixed, len(values)), eliminate)
        if eliminate and (family.fixed.any() or any(f.eliminate for f in self.families.values())):
            raise ValueError(f"cannot eliminate {name!r}: one eliminated family, every row free")
        self._add(name, values, family)

    def _add(self, name, value, family):
        if name in self.families:
            raise ValueError(f"duplicate family {name!r}")
        self.families[name] = family
        self.value[name] = value

    def add_factors(self, kind, slots, data, information, kernel):
        """Add n rows of ``kind`` as one group (see the module docstring);
        a group of no rows is not added."""
        if len(slots[0][1]) == 0:
            return
        batch = FactorBatch(kind, slots, data, information, kernel)
        for family, rows in batch.slots:
            if family not in self.families:
                raise ValueError(f"factor references unknown family {family!r}")
            if rows.min() < 0 or rows.max() >= len(self.families[family].fixed):
                raise ValueError(f"factor references a row outside family {family!r}")
        if sum(self.families[family].eliminate for family, _ in batch.slots) > 1:
            raise ValueError("a factor may touch at most one eliminated block")
        self.groups.append(batch)


def _row_mask(fixed, n: int) -> np.ndarray:
    """``fixed``, one bool for every row or one per row, as an (n,) mask."""
    return np.broadcast_to(np.asarray(fixed, dtype=bool), (n,)).copy()


class FactorBatch:
    """One factor group, compiled for every evaluation of a solve.

    - ``kind``, ``data`` and ``kernel``: as given to ``Problem.add_factors``;
    - ``slots``: per block slot, its family name and the (n,) integer rows;
    - ``sqrt_info``: the upper-triangular S (S^T S = information), (d, d)
      for a shared information, (n, d, d) for a stack.

    ``poses`` and ``vectors`` gather one slot's block values for every row.
    """

    def __init__(self, kind, slots, data, information, kernel):
        self.kind, self.data, self.kernel = kind, data, kernel
        self.slots = [(family, np.asarray(rows, dtype=int)) for family, rows in slots]
        if len({len(rows) for _, rows in self.slots}) != 1:
            raise ValueError("every block slot needs one row per factor")
        self.sqrt_info = _sqrt_information(np.asarray(information, dtype=float))

    def __len__(self) -> int:
        return len(self.slots[0][1])

    def vectors(self, values, slot: int) -> np.ndarray:
        """Vector block of ``slot`` per row, (n, k)."""
        family, rows = self.slots[slot]
        return values[family][rows]

    def poses(self, values, slot: int):
        """Pose block of ``slot`` per row: rotations (n, 3, 3), translations (n, 3)."""
        family, rows = self.slots[slot]
        rot, trans = values[family]
        return rot[rows], trans[rows]


def _sqrt_information(information):
    """Upper-triangular S with S^T S = information, for one (d, d) or a stack (n, d, d).

    The information is symmetrized first: rounding may leave it slightly
    asymmetric, and the Cholesky factorization reads one triangle only.
    """
    information = 0.5 * (information + np.swapaxes(information, -1, -2))
    return np.swapaxes(np.linalg.cholesky(information), -1, -2)


def _whiten(sqrt_info, kernel, residual, jac=None):
    """Whitened residuals (n, d) and Jacobian (None if not given, else
    (n, d, K) as ``jac``), rho and rho' of a group.

    ``sqrt_info`` is one S per residual row, (n, d, d), or one S for all of
    them, (d, d): ``matmul`` broadcasts both alike.
    """
    w_res = (sqrt_info @ residual[:, :, None])[:, :, 0]
    w_jac = None if jac is None else sqrt_info @ jac
    rho, drho = kernel.loss(np.einsum("ni,ni->n", w_res, w_res))
    return w_res, w_jac, rho, drho


def evaluate_cost(problem: Problem, values: dict | None = None) -> float:
    """Sum of robustified factor costs at the given (or current) values."""
    values = problem.value if values is None else values
    cost = 0.0
    for batch in problem.groups:
        residual, _ = batch.kind.evaluate_batch(batch, values, jacobian=False)
        _, _, rho, _ = _whiten(batch.sqrt_info, batch.kernel, residual)
        cost += float(rho.sum())
    return cost


class _System:
    """Block layout of one solve of a Problem and its Schur-complement algebra.

    The free rows of the families that are not eliminated take consecutive
    offsets of the reduced (camera) vector, family by family in insertion
    order; the eliminated family's rows are the rows of the stacked
    landmark arrays. Building it maps, per factor group, its rows' blocks
    to those (``_scatter_maps``), which add the rows' normal-equation
    entries into the stacked system.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        offsets = {}  # family -> each row's camera offset, -1 if fixed or eliminated
        lm_rows = {}  # family -> each row's landmark row, -1 unless eliminated
        self.free = {}  # family with free camera rows -> (mask, (n_free, size) offsets)
        self.elim, self.n_l, self.elim_size, self.nc = None, 0, 0, 0
        for name, family in problem.families.items():
            n = len(family.fixed)
            offsets[name], lm_rows[name] = np.full(n, -1), np.full(n, -1)
            if family.eliminate:
                self.elim, self.n_l, self.elim_size = name, n, family.size
                lm_rows[name] = np.arange(n)
            elif not family.fixed.all():
                free = ~family.fixed
                offsets[name][free] = self.nc + family.size * np.arange(free.sum())
                self.nc += family.size * int(free.sum())
                self.free[name] = (free, offsets[name][free, None] + np.arange(family.size))
        if not self.nc and not self.n_l:
            raise ValueError("problem has no free blocks")
        # every pose family's free rows, family by family, for one retraction of all
        self.poses = [name for name in self.free if problem.families[name].pose]
        if self.poses:
            self.pose_index = np.concatenate([self.free[name][1] for name in self.poses])
            self.pose_bounds = np.cumsum([0] + [self.free[name][0].sum() for name in self.poses]).tolist()
        # per group, the slots with a free row and the scatter maps of their columns
        self.scatter = []
        for batch in problem.groups:
            live = [a for a, (f, rows) in enumerate(batch.slots) if not problem.families[f].fixed[rows].all()]
            slots = [batch.slots[a] for a in live]
            maps = _scatter_maps(
                [offsets[f][rows] for f, rows in slots],
                [lm_rows[f][rows] for f, rows in slots],
                [problem.families[f].size for f, _ in slots],
                self.nc,
                self.elim_size,
            )
            self.scatter.append((live, maps))

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
        x = np.linalg.inv(hd_l) @ np.concatenate([b_l[:, :, None], h_cl.transpose(0, 2, 1)], axis=2)
        # sum over landmarks of H_cl x: the Schur terms of b and of H
        schur = np.tensordot(h_cl, x, axes=([0, 2], [0, 1]))
        delta_c = _solve_or_none(_damp(h_cc, lam) - schur[:, 1:], b_c - schur[:, 0])
        if delta_c is None:
            return None
        # delta_l = H_ll^-1 (b_l - H_cl^T delta_c)
        return delta_c, x[:, :, 0] - x[:, :, 1:] @ delta_c

    def retract(self, values, delta):
        """One vectorized update of each vector family's free rows and one of
        every pose family's free rows together; fixed rows are copied as they are."""
        delta_c, delta_l = delta
        new_values = dict(values)
        if self.poses:
            # (rotations, translations) of each family's free rows, stacked into one Pose
            free_rows = [[part[self.free[name][0]] for part in values[name]] for name in self.poses]
            moved = Pose(*map(np.concatenate, zip(*free_rows))).retract(delta_c[self.pose_index])
            for name, start, stop in zip(self.poses, self.pose_bounds, self.pose_bounds[1:]):
                free = self.free[name][0]
                rot, trans = (a.copy() for a in values[name])
                rot[free], trans[free] = moved.rotation[start:stop], moved.translation[start:stop]
                new_values[name] = (rot, trans)
        for name, (free, index) in self.free.items():
            if name not in self.poses:
                new_values[name] = values[name].copy()
                new_values[name][free] += delta_c[index]
        if self.elim is not None:
            new_values[self.elim] = values[self.elim] + delta_l
        return new_values


def _scatter_maps(cam, lm, sizes, nc, s):
    """Where one group's normal-equation entries land in the stacked system.

    The group's per-row Jacobians are concatenated over the block slots that
    have a free row (sizes ``sizes``) into K columns; ``cam`` and ``lm``, one
    (n,) array per slot, give each row block's camera offset and landmark
    row, -1 if it has none. Returns (target, source, destination) triples of
    flat index arrays, one per target that receives entries: J^T r (n, K)
    into b_c and b_l (targets 0 and 1), J^T J (n, K, K) into H_cc, H_cl and
    H_ll (targets 2, 3 and 4). Fixed row blocks' columns land nowhere.
    """
    if not sizes:
        return []
    # camera coordinate and landmark row of each column (n, K), -1 if none,
    # and each column's coordinate within its block (K,)
    col = np.concatenate(
        [np.where(c[:, None] < 0, -1, c[:, None] + np.arange(k)) for c, k in zip(cam, sizes)], axis=1
    )
    row = np.concatenate([np.repeat(r[:, None], k, axis=1) for r, k in zip(lm, sizes)], axis=1)
    coord = np.concatenate([np.arange(k) for k in sizes])
    ci, cj = col[:, :, None], col[:, None, :]

    def pick(target, mask, dst):
        return target, np.flatnonzero(mask), dst[mask]

    maps = [pick(0, col >= 0, col), pick(2, (ci >= 0) & (cj >= 0), ci * nc + cj)]
    if (row >= 0).any():  # only a group on the eliminated family reaches its targets
        ri, rj = row[:, :, None], row[:, None, :]
        maps += [
            pick(1, row >= 0, row * s + coord),
            pick(3, (ci >= 0) & (rj >= 0), (rj * nc + ci) * s + coord),
            # a row touches at most one eliminated block: its landmark columns pair up
            pick(4, (ri >= 0) & (rj >= 0), (ri * s + coord[:, None]) * s + coord),
        ]
    return [m for m in maps if len(m[1])]


def _build_normal_equations(problem, system, values):
    """Assemble H_cc, b_c and the stacked H_ll (L, s, s), b_l (L, s), H_cl (L, nc, s).

    b is the negative gradient, so that delta = H^-1 b descends. The
    landmark part of H is block diagonal because a row touches at most
    one eliminated block. Each group's entries are summed into the system
    by its scatter maps, one ``bincount`` per target; a row of zero
    robust weight adds zeros, and a group with no free row adds its cost only.
    """
    nc, s, n_l = system.nc, system.elim_size, system.n_l
    h_cc = np.zeros((nc, nc))
    b_c = np.zeros(nc)
    h_ll = np.zeros((n_l, s, s))
    b_l = np.zeros((n_l, s))
    h_cl = np.zeros((n_l, nc, s))
    targets = (b_c, b_l, h_cc, h_cl, h_ll)
    cost = 0.0
    for batch, (live, maps) in zip(problem.groups, system.scatter):
        residual, jacs = batch.kind.evaluate_batch(batch, values, jacobian=bool(live))
        jac = np.concatenate([jacs[a] for a in live], axis=2) if live else None
        w_res, w_jac, rho, drho = _whiten(batch.sqrt_info, batch.kernel, residual, jac)
        cost += float(rho.sum())
        if not live:
            continue
        # square-root re-weighting of the whitened rows by sqrt(rho')
        sw = np.sqrt(np.maximum(drho, 0.0))
        r, jac = w_res * sw[:, None], w_jac * sw[:, None, None]
        neg_g = -np.einsum("ndk,nd->nk", jac, r).ravel()
        jtj = np.einsum("ndi,ndj->nij", jac, jac).ravel()
        for target, src, dst in maps:
            out = targets[target]
            entries = neg_g if target < 2 else jtj
            out.reshape(-1)[:] += np.bincount(dst, weights=entries[src], minlength=out.size)
    return h_cc, b_c, h_ll, b_l, h_cl, cost


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


def _levenberg_marquardt(system, value, max_iterations: int):
    """The LM loop over a ``_System``, one linearization per iterate (see
    the module docstring); returns (final value, report). The report's
    gradient norm is the one at the iterate that the last iteration started from."""
    linearized = system.linearize(value)
    initial_cost = linearized[1]
    if not np.isfinite(initial_cost):
        return value, SolverReport(initial_cost, initial_cost, 0, "failure")
    cost = initial_cost
    lam = INITIAL_LAMBDA
    iterations = 0
    termination = "max_iter"
    grad_norm = float("nan")

    while iterations < max_iterations:
        linear, cost, grad_norm = linearized
        if grad_norm < GRADIENT_TOL:
            termination = "converged"
            break

        accepted = False
        while lam <= MAX_LAMBDA:
            iterations += 1
            delta = system.solve_damped(linear, lam)
            if delta is None:
                lam *= LAMBDA_INCREASE
                if iterations >= max_iterations:
                    break
                continue
            candidate = system.retract(value, delta)
            if iterations < max_iterations:
                trial = system.linearize(candidate)
                new_cost = trial[1]
            else:
                trial, new_cost = None, system.cost(candidate)
            if np.isfinite(new_cost) and new_cost < cost:
                rel_decrease = (cost - new_cost) / max(cost, 1e-300)
                value = candidate
                cost = new_cost
                linearized = trial
                lam = max(lam * LAMBDA_DECREASE, 1e-12)
                accepted = True
                if rel_decrease < STEP_TOL:
                    termination = "converged"
                break
            lam *= LAMBDA_INCREASE
            if iterations >= max_iterations:
                break
        if not accepted:
            if lam > MAX_LAMBDA:
                termination = "stalled"
            break
        if termination == "converged":
            break

    return value, SolverReport(initial_cost, cost, iterations, termination, grad_norm)


def solve(problem: Problem, max_iterations: int = 50) -> SolverReport:
    """Minimize the robustified cost; leaves the minimizer in ``problem.value``."""
    problem.value, report = _levenberg_marquardt(_System(problem), problem.value, max_iterations)
    return report
