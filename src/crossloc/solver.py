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
of n rows: ``add_poses(name, poses, fixed)`` (a ``Pose`` stack, updated by
right retraction) and ``add_vectors(name, values (n, k), fixed, eliminate)``;
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
jacobian=True)`` returning ``(residual (n, d), J (n, d, K))``: one Jacobian
whose K columns are the slots' tangent coordinates, slot after slot (read
only if ``jacobian``, else None), where ``batch`` is the
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
system is stacked as ``b_c (nc,)``, ``b_l (L, s)``, ``H_cc (nc, nc)``,
``H_lc (L, s, ncl)`` and ``H_ll (L, s, s)``, laid out in that order in one
flat buffer. ``H_lc`` is the landmark rows' part of H in the ncl camera
columns that meet a landmark, those of the groups on the eliminated family
(the poses and the anchor, not the velocities and biases): H_cl over those
columns, transposed block by block, as the Schur step reads it. A solve
maps each group's rows to their camera columns and landmark row once, and
from them every entry of the rows' J^T r and J^T J to its place in the
buffer. Only the slots with a free row take columns: a slot whose rows are
all fixed (the alignment's landmarks) takes none, and a group with no such
slot adds its cost only. A group with such a fixed slot and a free one
keeps the free slots' columns of J by one column index, computed once per
solve; every other group's J is used as the kind returns it. With no
family eliminated, L is 0 and the landmark arrays are empty. Every
linearization then writes each group's J^T r and J^T J by ``matmul`` into
one entries vector and sums it into the buffer by one ``bincount``; the
five arrays are views of the result. Every LM iteration damps, checks the
landmark blocks by one batched Cholesky and inverts them by one batched
inverse (cheaper, for s x s blocks, than a solve with 1 + ncl right-hand
sides), adds the Schur terms into the coupled rows and columns of the
damped ``H_cc``, and retracts the free rows of every pose family, stacked,
by one ``Pose.retract`` and those of each vector family by one update.

The damping adds ``lam * max(|h|, 1e-12)`` to each diagonal entry h.
"""

from __future__ import annotations

import math
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

    def add_poses(self, name: str, poses: Pose, fixed=False):
        """A family of SE(3) poses, one row per pose of the stack ``poses``."""
        fixed = _row_mask(fixed, len(poses.rotation))
        self._add(name, (poses.rotation, poses.translation), _Family(True, 6, fixed))

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
    landmark arrays. The camera columns that meet a landmark, those of the
    groups on the eliminated family, are ``coupled`` (sorted); ``H_lc``
    holds them only. Building it lays the five arrays out in one flat
    buffer (``parts``: each one's slice and shape) and maps every group's
    J^T r and J^T J entries to their place in it (``dst``), or to a last,
    discarded bin where they land nowhere.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        offsets = {}  # family -> each row's camera offset, -1 if fixed or eliminated
        self.free = {}  # family with free camera rows -> (mask, (n_free, size) offsets)
        self.elim, self.n_l, self.elim_size, self.nc = None, 0, 0, 0
        for name, family in problem.families.items():
            n = len(family.fixed)
            offsets[name] = np.full(n, -1)
            if family.eliminate:
                self.elim, self.n_l, self.elim_size = name, n, family.size
            elif not family.fixed.all():
                free = ~family.fixed
                offsets[name][free] = self.nc + family.size * np.arange(free.sum())
                self.nc += family.size * int(free.sum())
                self.free[name] = (free, offsets[name][free, None] + np.arange(family.size))
        if not self.nc and not self.n_l:
            raise ValueError("problem has no free blocks")
        nc, s, n_l = self.nc, self.elim_size, self.n_l
        # every pose family's free rows, family by family, for one retraction of all
        self.poses = [name for name in self.free if problem.families[name].pose]
        if self.poses:
            self.pose_index = np.concatenate([self.free[name][1] for name in self.poses])
            self.pose_bounds = np.cumsum([0] + [self.free[name][0].sum() for name in self.poses]).tolist()
        # per group, its slots with a free row, their columns, and the pick
        # of those columns from the kind's J where some slot has none
        layouts, coupled = [], np.zeros(nc, dtype=bool)
        for batch in problem.groups:
            families = [problem.families[f] for f, _ in batch.slots]
            live = [a for a, (_, rows) in enumerate(batch.slots) if not families[a].fixed[rows].all()]
            columns = take = None
            if live:
                columns = _columns([batch.slots[a] for a in live], problem.families, offsets, self.elim)
                col, _, _, lm = columns
                if lm is not None:  # a group on the eliminated family
                    coupled[col[col >= 0]] = True
            if live and len(live) < len(families):
                starts = np.cumsum([0] + [f.size for f in families])
                take = np.concatenate([np.arange(starts[a], starts[a + 1]) for a in live])
            layouts.append((live, columns, take))
        self.coupled = np.flatnonzero(coupled)
        self.coupled_block = np.ix_(self.coupled, self.coupled)
        ncl = len(self.coupled)
        shapes = [(nc,), (n_l, s), (nc, nc), (n_l, s, ncl), (n_l, s, s)]  # b_c, b_l, H_cc, H_lc, H_ll
        bounds = np.cumsum([0] + [math.prod(shape) for shape in shapes]).tolist()
        self.parts = [(slice(a, b), shape) for a, b, shape in zip(bounds, bounds[1:], shapes)]
        self.size = bounds[-1]
        # camera column -> its index among the coupled ones
        coupled_index = np.full(nc, -1)
        coupled_index[self.coupled] = np.arange(ncl)
        # per group, whether it has a free row, its pick of J's columns
        # and its span of the entries vector
        self.groups, dst, start = [], [np.zeros(0, dtype=np.intp)], 0
        for live, columns, take in layouts:
            if live:
                dst.append(_destinations(*columns, coupled_index, bounds, s))
            stop = start + (dst[-1].size if live else 0)
            self.groups.append((bool(live), take, start, stop))
            start = stop
        self.dst = np.concatenate(dst)
        self.entries = np.empty(start)  # every group's J^T r and J^T J entries, rewritten per linearization

    def cost(self, values):
        return evaluate_cost(self.problem, values)

    def linearize(self, values):
        flat, cost = _build_normal_equations(self.problem, self, values)
        grad_norm = np.abs(flat[: self.parts[1][0].stop]).max(initial=0.0)  # over b_c and b_l
        b_c, b_l, h_cc, h_lc, h_ll = (flat[span].reshape(shape) for span, shape in self.parts)
        return (h_cc, b_c, h_ll, b_l, h_lc), cost, grad_norm

    def solve_damped(self, linear, lam):
        """Schur-condensed damped solve; returns (delta_c, delta_l (L, s)) or None."""
        h_cc, b_c, h_ll, b_l, h_lc = linear
        if not self.n_l:  # nothing eliminated: the damped camera system alone
            delta_c = _solve_or_none(_damp(h_cc, lam), b_c)
            return None if delta_c is None else (delta_c, b_l)  # b_l is (0, s)
        hd_l = _damp(h_ll, lam)
        try:
            np.linalg.cholesky(hd_l)  # positive-definiteness check only
        except np.linalg.LinAlgError:
            return None
        # x = H_ll^-1 [b_l | H_lc] per landmark, kept for the back-substitution
        x = np.linalg.inv(hd_l) @ np.concatenate([b_l[:, :, None], h_lc], axis=2)
        # sum over landmarks of H_lc^T x: the Schur terms of b and of H, on the coupled columns
        schur = np.tensordot(h_lc, x, axes=([0, 1], [0, 1]))
        hd_c, rhs = _damp(h_cc, lam), b_c.copy()
        hd_c[self.coupled_block] -= schur[:, 1:]
        rhs[self.coupled] -= schur[:, 0]
        delta_c = _solve_or_none(hd_c, rhs)
        if delta_c is None:
            return None
        # delta_l = H_ll^-1 (b_l - H_lc delta_c)
        return delta_c, x[:, :, 0] - x[:, :, 1:] @ delta_c[self.coupled]

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


def _columns(slots, families, offsets, elim):
    """The K columns of a group's slots with a free row, the slots' block
    columns concatenated: each row's camera column (n, K), -1 where it has
    none; which columns are the eliminated family's (K,); each column's
    coordinate within its block (K,); and each row's landmark (n,), None if
    no slot is on the eliminated family ``elim``."""
    col = np.concatenate(
        [np.where(offsets[f][rows, None] < 0, -1, offsets[f][rows, None] + np.arange(families[f].size))
         for f, rows in slots], axis=1,
    )
    on_elim = np.concatenate([np.full(families[f].size, f == elim) for f, _ in slots])
    coord = np.concatenate([np.arange(families[f].size) for f, _ in slots])
    # the eliminated family's rows are the landmark rows
    lm = next((rows for f, rows in slots if f == elim), None)
    return col, on_elim, coord, lm


def _destinations(col, on_elim, coord, lm, coupled_index, bounds, s):
    """Flat-buffer index of each of one group's J^T r (n, K) and J^T J
    (n, K, K) entries, ravelled and concatenated; the last bin where an
    entry lands nowhere.

    ``col``, ``on_elim``, ``coord`` and ``lm`` are the group's ``_columns``.
    ``bounds`` are the starts of b_c, b_l, H_cc, H_lc and H_ll in the buffer
    and its size. J^T r lands in b_c and b_l, J^T J in H_cc, in H_lc
    (landmark row, camera column: the transposed entries land nowhere) and
    in H_ll; fixed row blocks' columns land nowhere. Entry (i, j) is a term
    of row i plus a term of column j, chosen by their kinds. A row touches
    at most one landmark, so its landmark columns pair up in H_ll.
    """
    b_c, b_l, h_cc, h_lc, h_ll, trash = bounds
    nc, ncl = b_l - b_c, int(coupled_index.max(initial=-1)) + 1
    n, k = col.shape
    nowhere = -trash - 1  # a sum with it stays negative
    cam = col >= 0
    out = np.empty(n * k * (k + 1), dtype=np.intp)
    to_g, to_h = out[: n * k].reshape(n, k), out[n * k :].reshape(n, k, k)
    np.copyto(to_g, np.where(cam, b_c + col, trash))
    # camera row i, camera column j
    by_row, by_col = np.where(cam, h_cc + col * nc, nowhere), np.where(cam, col, nowhere)
    np.add(by_row[:, :, None], by_col[:, None, :], out=to_h)
    if lm is not None:
        lm_coord = lm[:, None] * s + coord[on_elim]  # (n, s): each landmark row's place in b_l
        to_g[:, on_elim] = b_l + lm_coord
        # landmark row i, camera column j (H_lc) or landmark column j (H_ll)
        lm_coord = lm_coord[:, :, None]
        to_h[:, on_elim] = np.where(
            cam[:, None, :],
            h_lc + lm_coord * ncl + coupled_index[col][:, None, :],
            np.where(on_elim, h_ll + lm_coord * s + coord, nowhere),
        )
    np.copyto(to_h, trash, where=to_h < 0)
    return out


def _build_normal_equations(problem, system, values):
    """The flat normal-equation buffer (``system.parts``) and the cost.

    b is the negative gradient, so that delta = H^-1 b descends. The
    landmark part of H is block diagonal because a row touches at most
    one eliminated block. Each group writes its rows' J^T r and J^T J, by
    ``matmul``, into its span of ``system.entries``; one ``bincount`` then
    sums every entry into its place. A row of zero robust weight adds
    zeros, and a group with no free row adds its cost only.
    """
    entries = system.entries
    cost = 0.0
    for batch, (live, take, start, stop) in zip(problem.groups, system.groups):
        residual, jac = batch.kind.evaluate_batch(batch, values, jacobian=live)
        if take is not None:
            jac = jac[:, :, take]
        w_res, w_jac, rho, drho = _whiten(batch.sqrt_info, batch.kernel, residual, jac)
        cost += float(rho.sum())
        if not live:
            continue
        # square-root re-weighting of the whitened rows by sqrt(rho'); the
        # residual's sign flipped, so that J^T r is the negative gradient
        sw = np.sqrt(np.maximum(drho, 0.0))
        r, jac = w_res * -sw[:, None], w_jac * sw[:, None, None]
        n, k = jac.shape[0], jac.shape[2]
        jt = jac.transpose(0, 2, 1)
        mid = start + n * k
        np.matmul(jt, r[:, :, None], out=entries[start:mid].reshape(n, k, 1))
        np.matmul(jt, jac, out=entries[mid:stop].reshape(n, k, k))
    flat = np.bincount(system.dst, weights=entries, minlength=system.size + 1)
    return flat[:-1], cost


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
    the module docstring); returns (final value, report). Each pass makes
    one damped try, an iteration: a finite cost decrease is accepted, and
    anything else raises the damping, past ``MAX_LAMBDA`` to a stall."""
    linear, cost, grad_norm = system.linearize(value)
    initial_cost = cost
    if not np.isfinite(initial_cost):
        return value, SolverReport(initial_cost, initial_cost, 0, "failure")
    lam = INITIAL_LAMBDA
    iterations = 0
    termination = "max_iter"

    while iterations < max_iterations:
        if grad_norm < GRADIENT_TOL:
            termination = "converged"
            break
        iterations += 1
        delta = system.solve_damped(linear, lam)
        new_cost = np.nan  # a failed solve has no candidate
        if delta is not None:
            candidate = system.retract(value, delta)
            if iterations < max_iterations:
                trial = system.linearize(candidate)
                new_cost = trial[1]
            else:
                new_cost = system.cost(candidate)
        if np.isfinite(new_cost) and new_cost < cost:
            rel_decrease = (cost - new_cost) / max(cost, 1e-300)
            value = candidate
            cost = new_cost
            lam = max(lam * LAMBDA_DECREASE, 1e-12)
            if rel_decrease < STEP_TOL:
                termination = "converged"
                break
            if iterations < max_iterations:
                linear, _, grad_norm = trial
        else:
            lam *= LAMBDA_INCREASE
            if lam > MAX_LAMBDA:
                termination = "stalled"
                break

    return value, SolverReport(initial_cost, cost, iterations, termination)


def solve(problem: Problem, max_iterations: int = 50) -> SolverReport:
    """Minimize the robustified cost; leaves the minimizer in ``problem.value``."""
    problem.value, report = _levenberg_marquardt(_System(problem), problem.value, max_iterations)
    return report
