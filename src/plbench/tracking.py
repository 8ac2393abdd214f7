"""Baseline front-end: EPnP pose estimation (frame-to-frame and
map-to-frame) with incremental landmark fusion.

Data association uses the ground-truth landmark ids carried by the
measurements, so there is one fusion path, by known id, and no
nearest-neighbour search; the geometric gates (radius/angle/distance
thresholds) then decide whether an observation also updates the fused
landmark estimate.
Lines never enter the pose solver; they matter only for map building and
the factor graph. A merged line is refit through all its samples by the
principal axis of their 3x3 scatter, every line a frame merges in one
call, with the axis turned along the stored segment so that start and end
keep their order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factor_graph import _pose_jacobian, _project_points
from .geometry import (
    CameraIntrinsics,
    GeometryError,
    Points,
    Pose,
    Segments,
    _column,
    backproject,
    line_angles,
    matrix_to_quat,
    pose_quat_batch,
    quat_to_matrix,
    rigid_fit,
    row_dots,
    row_norms,
    se3_exp_update,
)
from .simulator import Sequence


class PnPError(ValueError):
    """A PnP problem without a solution. ``problem`` is its index in the
    batch given to ``solve_pnp_batch`` (0 for ``solve_pnp``)."""

    def __init__(self, message: str, problem: int = 0):
        super().__init__(message)
        self.problem = problem


class InsufficientDataError(PnPError):
    pass


class DegenerateGeometryError(PnPError):
    pass


class TrackingLostError(RuntimeError):
    def __init__(self, frame_id: int, message: str):
        self.frame_id = frame_id
        super().__init__(f"tracking lost at frame {frame_id}: {message}")


# ---------------------------------------------------------------------------
# EPnP


@dataclass(frozen=True)
class PnPResult:
    pose: Pose
    mean_error: float  # mean reprojection error over all correspondences, px


# the Gauss-Newton iterations of a refinement (0: EPnP alone), and the
# backtracking step sizes of one step, tried as one batch
_ITERATIONS = 10
_STEPS = 0.5 ** np.arange(6)
# the damping of the 6x6 pose and the 2x2 EPnP beta normal equations
_DAMP_6 = 1e-12 * np.eye(6)
_DAMP_2 = 1e-12 * np.eye(2)
# the control-point pairs (i, j), i < j, for 4 and 3 control points
_PAIRS = {m: np.triu_indices(m, 1) for m in (3, 4)}

# correspondences per batch of ``solve_pnp_batch``, and projected rows per
# span of line-search tries: a whole sequence in one batch with all its
# tries at once holds some 40 MB of per-row arrays. These bounds keep a
# batch within about 1 MB and keep most of the saving in call overhead.
_BATCH_ROWS = 1024
_TRY_ROWS = 4096


def _segment_rows(offsets, counts) -> np.ndarray:
    """Row indices of the segments [offsets[s], offsets[s] + counts[s]),
    concatenated in order."""
    counts = np.asarray(counts)
    begin = np.cumsum(counts) - counts
    return np.arange(counts.sum()) + np.repeat(np.asarray(offsets) - begin, counts)


def _take(x, rows):
    """The rows ``rows`` of x, all of x for None. ``np.take`` copies rows
    several times faster than indexing with an index array."""
    return x if rows is None else np.take(x, rows, axis=0)


def _by_runs(f, counts, rows, segments=()):
    """Apply f to each run of consecutive equal-length segments: segment s
    owns counts[s] consecutive rows of each array in ``rows``, which f gets
    as a (c, n, ...) stack, followed by the run's slice of each per-segment
    array in ``segments``. f returns an array or a tuple of arrays with one
    entry per segment of the run; these are concatenated over the runs.

    Stacks of one shape run the same kernel on each segment as on that
    segment alone (a mean down its rows, one BLAS or LAPACK call), so each
    result equals that of the segment alone bit for bit. Zero-padding
    ragged segments to one shape would not, nor would ``np.add.reduceat``.
    """
    runs: list[list[int]] = []  # [segments, length] of each run
    for n in np.asarray(counts).tolist():
        if runs and runs[-1][1] == n:
            runs[-1][0] += 1
        else:
            runs.append([1, n])
    outs, a, lo = [], 0, 0
    for c, n in runs:
        hi = lo + c * n
        outs.append(f(*(x[lo:hi].reshape(c, n, *x.shape[1:]) for x in rows),
                      *(x[a:a + c] for x in segments)))
        a, lo = a + c, hi
    if len(outs) == 1:
        return outs[0]
    if isinstance(outs[0], tuple):
        return tuple(np.concatenate(parts) for parts in zip(*outs))
    return np.concatenate(outs)


def _solve_each(A, b):
    """``np.linalg.solve`` of each system A (k, d, d), b (k, d, 1), and
    whether it was solvable. One singular system makes the stacked call
    raise; then each is solved alone and an unsolvable one gets NaN."""
    try:
        return np.linalg.solve(A, b), np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        x, ok = np.full(b.shape, np.nan), np.zeros(len(A), dtype=bool)
        for i in range(len(A)):
            try:
                x[i] = np.linalg.solve(A[i], b[i])
                ok[i] = True
            except np.linalg.LinAlgError:
                pass
        return x, ok


def _mean_errors(proj, valid, u, counts):
    """Mean pixel distance of the projections proj (N, 2) to u (N, 2) over
    each segment of counts[s] rows; a point behind the camera counts 1e9."""
    d = proj - u
    err = np.sqrt(np.add.reduce(d * d, axis=1))  # np.linalg.norm(d, axis=1)
    err[~valid] = 1e9
    return _by_runs(lambda e: e.mean(axis=1), counts, (err,))


def _refine_poses(R, t, P_w, u, counts, intr):
    """Reprojection-error refinement of k starting poses, R (k, 3, 3) and
    t (k, 3). Start s is refined against its own segment of counts[s]
    consecutive rows of P_w (N, 3) and u (N, 2); segments of equal length
    should be consecutive, so that their reductions stack (see
    ``_by_runs``). Returns the refined poses as the q (k, 4) and t (k, 3)
    that ``Pose`` stores, and their mean errors (k,), px.

    Each start is first stored as ``Pose.from_rt(R[s], t[s])``. Each
    iteration solves, per start, (JᵀJ) delta = Jᵀr with r = u - proj and
    J = ∂r/∂δ, and tries the steps 0.5**i · delta, i = 0..5: the first try
    whose mean error is no higher than the current one is accepted and its
    projection becomes the next residual. A start leaves the batch where a
    refinement of it alone would stop: fewer than 4 points in front of the
    camera, a singular or non-finite solve, no accepted try, or a step
    below 1e-14. That delta is an ascent direction of |r|², so on the
    shipped presets almost every start returns unmoved (1, 4 and 4 of 495
    refinements move on sphere, box and corridor).

    The starts still in the batch share one ``_pose_jacobian`` call over
    their rows, one stacked solve of the 6×6 normal equations and one
    ``se3_exp_update`` call; their tries are projected in spans of
    about ``_TRY_ROWS`` rows (``_try_errors``), and a start that accepts a
    try is projected once more at its new pose. Only the segment reductions
    (the normal equations and the mean errors) run once per run of
    equal-length segments. Every kernel works row by row or sees the same
    arrays as a refinement of its start alone, so each start's result
    equals refining that start alone, bit for bit, whatever else the
    batch holds.
    """
    counts = np.asarray(counts)
    offsets = np.cumsum(counts) - counts
    m = len(_STEPS)
    q = pose_quat_batch(matrix_to_quat(R))
    R = quat_to_matrix(q)
    t = np.array(t, dtype=float)
    P_c, valid, zs, proj = _project_points(np.repeat(R, counts, axis=0),
                                           np.repeat(t, counts, axis=0), P_w, intr)
    err = _mean_errors(proj, valid, u, counts)
    active = np.arange(len(R))
    for _ in range(_ITERATIONS):
        n_valid = np.add.reduceat(valid.astype(np.intp), offsets)
        active = active[n_valid[active] >= 4]
        if not len(active):
            break
        rows = None if len(active) == len(R) else _segment_rows(offsets[active], counts[active])
        valid_a = _take(valid, rows)
        res = _take(u, rows) - _take(proj, rows)
        res[~valid_a] = 0.0
        J_pose, _ = _pose_jacobian(_take(P_c, rows), _take(zs, rows), valid_a, intr)
        JtJ, Jtr = _by_runs(_normal_equations, counts[active], (J_pose, res))
        deltas, ok = _solve_each(JtJ + _DAMP_6, Jtr)
        deltas = deltas[:, :, 0]
        ok &= np.all(np.isfinite(deltas), axis=1)
        moving, deltas = active[ok], deltas[ok]
        if not len(moving):
            break
        steps = (_STEPS[:, None] * deltas[:, None, :]).reshape(-1, 6)
        q_k, R_k, t_k = se3_exp_update(np.repeat(R[moving], m, axis=0),
                                       np.repeat(t[moving], m, axis=0), steps)
        errs = _try_errors(R_k, t_k, np.repeat(offsets[moving], m), np.repeat(counts[moving], m),
                           P_w, u, intr)
        accepted = errs.reshape(-1, m) <= err[moving, None]
        took = accepted.any(axis=1)
        if not took.any():
            break
        j = np.flatnonzero(took) * m + accepted[took].argmax(axis=1)
        s = moving[took]
        q[s], R[s], t[s], err[s] = q_k[j], R_k[j], t_k[j], errs[j]
        rows = _segment_rows(offsets[s], counts[s])
        P_c[rows], valid[rows], zs[rows], proj[rows] = _project_points(
            np.repeat(R[s], counts[s], axis=0), np.repeat(t[s], counts[s], axis=0),
            _take(P_w, rows), intr)
        active = s[row_norms(steps[j]) >= 1e-14]
    return q, t, err


def _try_errors(R, t, offsets, counts, P_w, u, intr):
    """Mean errors of the poses R (T, 3, 3), t (T, 3), pose i against the
    rows [offsets[i], offsets[i] + counts[i]) of P_w and u. The tries are
    projected in spans of about ``_TRY_ROWS`` rows, so that the per-row
    arrays of a batch's six tries per start do not all live at once."""
    errs, lo, ends = [], 0, np.cumsum(counts)
    while lo < len(counts):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + _TRY_ROWS, "right")))
        rows = _segment_rows(offsets[lo:hi], counts[lo:hi])
        _, valid, _, proj = _project_points(np.repeat(R[lo:hi], counts[lo:hi], axis=0),
                                            np.repeat(t[lo:hi], counts[lo:hi], axis=0),
                                            _take(P_w, rows), intr)
        errs.append(_mean_errors(proj, valid, _take(u, rows), counts[lo:hi]))
        lo = hi
    return errs[0] if len(errs) == 1 else np.concatenate(errs)


def _normal_equations(J, r):
    """JᵀJ (c, 6, 6) and Jᵀr (c, 6, 1) of a stack of c starts, from their
    pose Jacobians J (c, n, 2, 6) and residuals r (c, n, 2)."""
    J = J.reshape(len(J), -1, 6)
    Jt = J.transpose(0, 2, 1)
    return Jt @ J, Jt @ r.reshape(len(r), -1, 1)


def _epnp_control_points(P_w, counts):
    """EPnP control points of k problems whose points P_w (N, 3) are
    stacked, counts[i] rows for problem i: the centroid, then the centroid
    moved along each principal axis by the root of its variance. Returns
    (ctrl (k, 4, 3), planar (k,), degenerate (k,)); a planar problem uses
    its first 3 control points, a degenerate one (collinear or coincident
    points) none."""
    counts = np.asarray(counts)
    c0 = _by_runs(lambda X: X.mean(axis=1), counts, (P_w,))
    centered = P_w - np.repeat(c0, counts, axis=0)
    cov = _by_runs(lambda X: X.transpose(0, 2, 1) @ X, counts, (centered,))
    evals, evecs = np.linalg.eigh(cov / counts[:, None, None])
    evals, evecs = evals[:, ::-1], evecs[:, :, ::-1]
    degenerate = (evals[:, 0] <= 0) | (evals[:, 1] < 1e-12 * evals[:, 0])
    planar = evals[:, 2] < 1e-8 * evals[:, 0]
    axes = np.sqrt(np.maximum(evals, 0.0))[:, :, None] * evecs.transpose(0, 2, 1)
    return np.concatenate([c0[:, None], c0[:, None] + axes], axis=1), planar, degenerate


def _epnp_candidates(ctrl, P_w, u, counts, intr):
    """Camera-frame control points from the EPnP null space, for k problems
    with m control points each, ctrl (k, m, 3), and their correspondences
    P_w (N, 3), u (N, 2) stacked as in ``_epnp_control_points``.

    Returns (alphas (N, m), candidates (k, 2, m, 3), exists (k, 2)): the
    first candidate matches the inter-control-point distances along a
    one-dimensional null space, the second solves the two-dimensional case
    and polishes it by 5 Gauss-Newton steps; each is negated if its mean
    depth is negative.
    """
    k, m = ctrl.shape[:2]
    counts = np.asarray(counts)
    B = (ctrl[:, 1:] - ctrl[:, :1]).transpose(0, 2, 1)  # (k, 3, m-1)
    rel = P_w - np.repeat(ctrl[:, 0], counts, axis=0)
    alphas = np.empty((len(P_w), m))
    if m == 4:
        alphas[:, 1:] = _by_runs(
            lambda X, B_run: np.linalg.solve(B_run, X.transpose(0, 2, 1)).transpose(0, 2, 1)
            .reshape(-1, 3), counts, (rel,), (B,))
    else:
        ends = np.cumsum(counts)
        alphas[:, 1:] = np.concatenate([
            np.linalg.lstsq(B[i], rel[end - n:end].T, rcond=None)[0].T
            for i, (end, n) in enumerate(zip(ends, counts))])
    alphas[:, 0] = 1.0 - alphas[:, 1:].sum(axis=1)

    M = np.zeros((2 * len(P_w), 3 * m))
    M[0::2, 0::3] = alphas * intr.fx
    M[0::2, 2::3] = alphas * (intr.cx - u[:, :1])
    M[1::2, 1::3] = alphas * intr.fy
    M[1::2, 2::3] = alphas * (intr.cy - u[:, 1:])
    _, vecs = np.linalg.eigh(_by_runs(lambda X: X.transpose(0, 2, 1) @ X, 2 * counts, (M,)))
    v1 = vecs[:, :, 0].reshape(k, m, 3)
    v2 = vecs[:, :, 1].reshape(k, m, 3)

    i, j = _PAIRS[m]
    dc = row_norms((ctrl[:, i] - ctrl[:, j]).reshape(-1, 3)).reshape(k, -1)
    dv1 = np.ascontiguousarray(v1[:, i] - v1[:, j])
    dv2 = np.ascontiguousarray(v2[:, i] - v2[:, j])
    candidates = np.zeros((k, 2, m, 3))
    exists = np.zeros((k, 2), dtype=bool)

    # one-dimensional null space: match inter-control-point distances
    norm1 = np.sqrt(np.add.reduce(dv1 * dv1, axis=2))  # np.linalg.norm(dv1, axis=2)
    denom = row_dots(norm1, norm1)
    exists[:, 0] = denom > 1e-18
    beta = row_dots(norm1, dc) / np.where(exists[:, 0], denom, 1.0)
    candidates[:, 0] = beta[:, None, None] * v1

    # two-dimensional case: solve for (b1^2, b1 b2, b2^2) then polish
    A = np.stack([np.add.reduce(dv1 * dv1, axis=2), 2.0 * np.add.reduce(dv1 * dv2, axis=2),
                  np.add.reduce(dv2 * dv2, axis=2)], axis=2)
    dc2 = dc**2
    b11, b12, b22 = np.array([np.linalg.lstsq(A_p, dc2_p, rcond=None)[0]
                              for A_p, dc2_p in zip(A, dc2)]).T
    b1 = np.sqrt(np.maximum(b11, 0.0))
    b2 = np.sqrt(np.maximum(b22, 0.0)) * np.where(b12 >= 0, 1.0, -1.0)
    exists[:, 1] = b1 > 1e-12
    polish = np.flatnonzero(exists[:, 1])
    betas = np.stack([b1, b2], axis=1)[polish]
    # Gauss-Newton on the distance residuals; a problem whose solve fails
    # keeps its betas and takes no further step
    live, b, d1, d2, c2 = np.arange(len(polish)), betas, dv1[polish], dv2[polish], dc2[polish]
    for _ in range(5):
        dvc = b[:, :1, None] * d1 + b[:, 1:, None] * d2
        r = np.add.reduce(dvc * dvc, axis=2) - c2
        J = np.empty(r.shape + (2,))
        J[:, :, 0] = 2 * np.add.reduce(dvc * d1, axis=2)
        J[:, :, 1] = 2 * np.add.reduce(dvc * d2, axis=2)
        Jt = J.transpose(0, 2, 1)
        step, ok = _solve_each(Jt @ J + _DAMP_2, Jt @ r[:, :, None])
        if not ok.all():
            betas[live] = b
            live, b, d1, d2, c2, step = live[ok], b[ok], d1[ok], d2[ok], c2[ok], step[ok]
        b = b - step[:, :, 0]
    betas[live] = b
    candidates[polish, 1] = betas[:, :1, None] * v1[polish] + betas[:, 1:, None] * v2[polish]

    # positive-depth disambiguation: each candidate or its negation
    flip = candidates[:, :, :, 2].mean(axis=2) < 0
    return alphas, np.where(flip[:, :, None, None], -candidates, candidates), exists


def solve_pnp(world_points, pixels, intr: CameraIntrinsics,
              initial: Pose | None = None) -> PnPResult:
    """Camera pose from 3D-2D correspondences: EPnP control-point
    formulation followed by Gauss-Newton refinement; ``initial``, when
    given, is a further start (a motion prior). A batch of one of
    ``solve_pnp_batch``, which documents the method and the errors.
    """
    return solve_pnp_batch([(world_points, pixels, initial)], intr)[0]


def solve_pnp_batch(problems, intr: CameraIntrinsics) -> list[PnPResult]:
    """Solve independent PnP problems, each a triple (world_points (n, 3),
    pixels (n, 2), initial) with ``initial`` a ``Pose`` (a motion prior) or
    None; returns their results in order.

    Per problem: the EPnP candidates (Lepetit et al., IJCV 2009), each
    fitted rigidly and stored as a ``Pose``, then ``initial``, are the
    starts; all starts are refined by ``_refine_poses``, and the refined
    pose with the lowest mean reprojection error wins, the earlier start on
    a tie. A problem raises ``InsufficientDataError`` when its points and
    pixels differ in length, number fewer than 4 or hold a value that is
    not finite, and
    ``DegenerateGeometryError`` when its points are collinear or coincident
    or EPnP yields no start; the call raises the error of the first failing
    problem, with that problem's index as ``problem``.

    Each result equals that of solving its problem alone bit for bit. The
    problems are read from ``problems``, which may be a generator, and
    solved batch by batch, in order: a batch holds at most
    ``_BATCH_ROWS`` correspondences, and is sorted by problem size so that
    equal-size problems share their reductions (see ``_by_runs``).
    """
    results: list[PnPResult] = []
    batch, rows = [], 0
    for P_w, u, initial in problems:
        P_w = np.asarray(P_w, dtype=float).reshape(-1, 3)
        if batch and rows + len(P_w) > _BATCH_ROWS:
            results += _solve_batch(batch, intr, len(results))
            batch, rows = [], 0
        batch.append((P_w, np.asarray(u, dtype=float).reshape(-1, 2), initial))
        rows += len(P_w)
    if batch:
        results += _solve_batch(batch, intr, len(results))
    return results


def _solve_batch(problems, intr, first) -> list[PnPResult]:
    """``solve_pnp_batch`` of one batch of (P_w, u, initial) triples, whose
    first problem has index ``first`` in the whole call."""
    failures: dict[int, PnPError] = {}
    for i, (P, x, _) in enumerate(problems):
        if len(P) != len(x):
            failures[i] = InsufficientDataError("points and pixels differ in length", first + i)
        elif len(P) < 4:
            failures[i] = InsufficientDataError(
                f"need at least 4 correspondences, got {len(P)}", first + i)
        elif not (np.isfinite(P).all() and np.isfinite(x).all()):
            failures[i] = InsufficientDataError("points and pixels must be finite", first + i)
        if failures:  # the problems after it cannot fail before it
            break
    k = min(failures, default=len(problems))
    if k == 0:
        raise failures[0]

    # problems sorted by size; `order[i]` is the input index of sorted problem i
    order = sorted(range(k), key=lambda i: len(problems[i][0]))
    counts = np.array([len(problems[i][0]) for i in order])
    offsets = np.cumsum(counts) - counts
    P = np.concatenate([problems[i][0] for i in order])
    U = np.concatenate([problems[i][1] for i in order])

    ctrl, planar, degenerate = _epnp_control_points(P, counts)
    fit_R, fit_t = np.zeros((k, 2, 3, 3)), np.zeros((k, 2, 3))
    exists = np.zeros((k, 2), dtype=bool)
    for m, group in ((4, ~planar & ~degenerate), (3, planar & ~degenerate)):
        if group.all():
            idx, rows = slice(None), None
        elif group.any():
            idx = np.flatnonzero(group)
            rows = _segment_rows(offsets[idx], counts[idx])
        else:
            continue
        alphas, candidates, exists[idx] = _epnp_candidates(
            ctrl[idx, :m], _take(P, rows), _take(U, rows), counts[idx], intr)
        # each candidate's camera-frame points, alphas @ candidate, then the
        # rigid fit of the problem's world points onto them
        fit_R[idx], fit_t[idx] = _by_runs(
            lambda A, X, C: rigid_fit(X[:, None], A[:, None] @ C),
            counts[idx], (alphas, _take(P, rows)), (candidates,))

    # the starts of each problem in order: its candidates, each stored as a
    # Pose, then its motion prior
    has = np.empty((k, 3), dtype=bool)
    has[:, :2] = exists
    start_q, start_t = np.empty((k, 3, 4)), np.empty((k, 3, 3))
    start_q[:, :2] = pose_quat_batch(matrix_to_quat(fit_R.reshape(-1, 3, 3))).reshape(k, 2, 4)
    start_t[:, :2] = fit_t
    for i, p in enumerate(order):
        prior = problems[p][2]
        has[i, 2] = prior is not None
        if prior is not None:
            start_q[i, 2], start_t[i, 2] = prior.q, prior.t
    for i in np.flatnonzero(degenerate | ~has.any(axis=1)).tolist():
        failures[order[i]] = DegenerateGeometryError(
            "points are collinear or coincident" if degenerate[i] else "EPnP found no candidate pose",
            first + order[i])
    if failures:
        raise failures[min(failures)]

    n_starts = has.sum(axis=1)
    start_counts = np.repeat(counts, n_starts)
    rows = _segment_rows(np.repeat(offsets, n_starts), start_counts)
    q, t, err = _refine_poses(quat_to_matrix(start_q[has]), start_t[has], _take(P, rows),
                              _take(U, rows), start_counts, intr)
    results: list[PnPResult] = [None] * k  # type: ignore[list-item]
    ends = np.cumsum(n_starts)
    for p, end, n in zip(order, ends.tolist(), n_starts.tolist()):
        best = min(range(end - n, end), key=err.__getitem__)
        results[p] = PnPResult(pose=Pose(q[best], t[best]), mean_error=float(err[best]))
    return results


# ---------------------------------------------------------------------------
# sparse map

# SparseMap's fusion gates: a point's distance to its landmark, and a
# segment's angle to its line and its midpoint's distance from that line
_FUSE_RADIUS = 0.5  # m
_FUSE_ANGLE_DEG = 15.0
_FUSE_DIST = 0.5  # m


@dataclass(frozen=True)
class MapPoints(Points):
    """Fused point landmarks: ``Points`` with the number of samples
    ``count`` (N,) int64 in each running mean."""

    count: np.ndarray
    _COLUMNS = Points._COLUMNS + (("count", np.int64, ()),)


@dataclass(frozen=True)
class MapSegments(Segments):
    """Fused line landmarks: ``Segments`` with the number of segments
    ``count`` (L,) int64 each line was fit through."""

    count: np.ndarray
    _COLUMNS = Segments._COLUMNS + (("count", np.int64, ()),)


class SparseMap:
    """Point/line landmark store, fused by known landmark id.

    Every measurement carries the id of its landmark, so fusion needs no
    search: a candidate for a mapped landmark merges into it when it passes
    the geometric gates and otherwise leaves its estimate alone; a candidate
    for an unmapped id inserts that landmark. The gates (``_FUSE_RADIUS``,
    ``_FUSE_ANGLE_DEG``, ``_FUSE_DIST``) are sized to the depth-noise model
    (about 3 sigma of the disparity noise at working depths): narrower gates
    starve the running means and the map never averages its noise away.

    The map is two frozen, id-sorted records, ``points`` (``MapPoints``)
    and ``lines`` (``MapSegments``), which each fusion replaces, and
    ``line_samples``: per line id, one (2 s, 3) array of the start and end
    of each of the s segments its line was fit through, oldest first, so
    that the samples of all lines a frame merges join in one
    ``np.concatenate`` of one array per line.
    """

    def __init__(self):
        self.points = MapPoints([], [], [])
        self.lines = MapSegments([], [], [])
        self.line_samples: dict[int, np.ndarray] = {}

    # -- fusion ------------------------------------------------------------

    def fuse_point(self, position, landmark_id: int) -> int:
        """``fuse_points`` of one candidate; returns its landmark id."""
        self.fuse_points([position], [landmark_id])
        return landmark_id

    def fuse_points(self, positions, landmark_ids) -> None:
        """Fuse each row of ``positions`` (n, 3) into the landmark of its id,
        in one pass. A candidate within ``_FUSE_RADIUS`` of its mapped
        landmark moves it to the running mean of its samples; the result
        equals n sequential ``fuse_point`` calls bit for bit. The ids must be
        distinct: a landmark is observed at most once per frame.
        """
        positions = _column(positions, float, (None, 3), "positions", copy=False)
        ids = _batch_ids(landmark_ids, len(positions), "positions")
        rows, known = self.points.find(ids)
        rows = rows[known]
        position, count = self.points.position.copy(), self.points.count.copy()
        diff = positions[known] - position[rows]
        inside = row_norms(diff) <= _FUSE_RADIUS
        merged = position[rows] + diff / (count[rows] + 1)[:, None]
        position[rows[inside]] = merged[inside]
        count[rows[inside]] += 1
        new = ~known
        self.points = MapPoints(np.concatenate([self.points.id, ids[new]]),
                                np.concatenate([position, positions[new]]),
                                np.concatenate([count, np.ones_like(ids[new])]))

    def fuse_line(self, endpoints, landmark_id: int) -> int:
        """``fuse_lines`` of one segment; returns its landmark id."""
        self.fuse_lines([endpoints], [landmark_id])
        return landmark_id

    def fuse_lines(self, endpoints, landmark_ids) -> None:
        """Fuse each segment of ``endpoints`` (n, 2, 3) into the landmark of
        its id. A candidate merges when its direction angle and its
        midpoint-to-line distance pass their gates; a merged line is refit
        over all its accumulated endpoint samples, its start and end kept in
        the order of its stored segment. The gates are tested in one pass and
        all merged lines are refit in one ``_refit_lines`` call over their
        concatenated samples. A line's refit reads only its own samples, so
        the result equals n sequential calls bit for bit. The ids must be
        distinct: a landmark is observed at most once per frame.
        """
        endpoints = _column(endpoints, float, (None, 2, 3), "endpoints", copy=False)
        ids = _batch_ids(landmark_ids, len(endpoints), "endpoints")
        rows, known = self.lines.find(ids)
        ends, count = self.lines.endpoints.copy(), self.lines.count.copy()
        inside = _line_gates(ends[rows[known]], endpoints[known])
        merged = known.copy()
        merged[known] = inside
        count[rows[merged]] += 1
        stacks = []
        for lid, sample in zip(ids[merged].tolist(), endpoints[merged]):
            stacks.append(np.concatenate([self.line_samples[lid], sample]))
            self.line_samples[lid] = stacks[-1]
        if stacks:
            sizes = np.array([len(stack) for stack in stacks])
            ends[rows[merged]] = _refit_lines(np.concatenate(stacks), sizes, ends[rows[merged]])
        new = ~known
        self.line_samples.update(zip(ids[new].tolist(), endpoints[new]))
        self.lines = MapSegments(np.concatenate([self.lines.id, ids[new]]),
                                 np.concatenate([ends, endpoints[new]]),
                                 np.concatenate([count, np.ones_like(ids[new])]))


def _batch_ids(landmark_ids, n: int, what: str) -> np.ndarray:
    """The n landmark ids of one fusion batch as int64; they must be
    distinct."""
    ids = _column(landmark_ids, np.int64, (None,), "landmark_ids", copy=False)
    if len(ids) != n:
        raise ValueError(f"{what} and landmark ids differ in length")
    if len(np.unique(ids)) != n:
        raise ValueError("landmark ids repeat within one batch")
    return ids


def _line_gates(stored, candidates) -> np.ndarray:
    """Merge gate of each candidate segment against the stored segment in
    the same row, both (n, 2, 3): the undirected angle between their
    directions and the distance from the candidate's midpoint to the stored
    line must be within ``_FUSE_ANGLE_DEG`` and ``_FUSE_DIST``."""
    d_stored = stored[:, 1] - stored[:, 0]
    angle = np.degrees(line_angles(d_stored, candidates[:, 1] - candidates[:, 0]))
    rel = 0.5 * (candidates[:, 0] + candidates[:, 1]) - stored[:, 0]
    d_hat = d_stored / row_norms(d_stored)[:, None]
    dist = row_norms(rel - row_dots(rel, d_hat)[:, None] * d_hat)
    return (angle <= _FUSE_ANGLE_DEG) & (dist <= _FUSE_DIST)


def _refit_lines(samples, sizes, stored) -> np.ndarray:
    """Principal-axis fit of each line through its endpoint samples, all
    lines in one pass: line i owns the next sizes[i] rows of samples (N, 3).
    Its axis is the eigenvector of the largest eigenvalue of the 3x3
    scatter of its centred samples, turned to point along its stored
    segment's end - start (``stored`` (g, 2, 3)); the extreme projections
    onto that axis become its new start and end, (g, 2, 3).

    Sums, minima and maxima run per line (``reduceat``) and ``eigh`` per
    matrix of its stack, so each fit equals a fit of its samples alone
    bit for bit."""
    starts = np.cumsum(sizes) - sizes
    center = np.add.reduceat(samples, starts) / sizes[:, None]
    centered = samples - np.repeat(center, sizes, axis=0)
    scatter = np.add.reduceat(centered[:, :, None] * centered[:, None, :], starts)
    axis = np.linalg.eigh(scatter)[1][:, :, 2]
    axis = axis * np.where(row_dots(axis, stored[:, 1] - stored[:, 0]) < 0, -1.0, 1.0)[:, None]
    t = row_dots(centered, np.repeat(axis, sizes, axis=0))
    extremes = np.stack([np.minimum.reduceat(t, starts), np.maximum.reduceat(t, starts)], axis=1)
    return center[:, None] + extremes[:, :, None] * axis[:, None]


# ---------------------------------------------------------------------------
# trackers


def track_frame_to_frame(seq: Sequence) -> list[Pose]:
    """Chain relative poses: back-project the previous frame's measured
    depths, match by landmark id, solve PnP in the previous camera frame.

    The first pose is anchored to ground truth (gauge fixing). Each
    relative pose depends only on its two frames, so the problems of the
    frames up to the first one that shares fewer than 4 landmarks with its
    predecessor go to one ``solve_pnp_batch`` call, which builds them as
    its batches need them; the chain is composed afterwards. The tracks
    equal those of solving frame by frame bit for bit, and tracking is lost
    at the same frame with the same message: at the first failing problem,
    else at the frame that shares too few landmarks or whose shared points
    cannot be back-projected (a ``GeometryError``, the cause of the
    ``TrackingLostError`` naming that frame).
    """
    intr = seq.intrinsics
    short: list[TrackingLostError] = []

    def problems():
        for j in range(1, len(seq.frames)):
            prev, frame = seq.frames[j - 1], seq.frames[j]
            index = {lid: i for i, lid in enumerate(prev.point_ids.tolist())}
            shared = [(index[lid], i) for i, lid in enumerate(frame.point_ids.tolist())
                      if lid in index]
            if len(shared) < 4:
                short.append(TrackingLostError(j, f"only {len(shared)} shared landmarks"))
                return
            a, b = np.array(shared).T
            try:
                P_prev = backproject(prev.point_pixels[a], prev.point_depths[a], intr)
            except GeometryError as exc:
                short.append(TrackingLostError(j - 1, str(exc)))
                short[-1].__cause__ = exc
                return
            yield P_prev, frame.point_pixels[b], None

    try:
        results = solve_pnp_batch(problems(), intr)
    except PnPError as exc:
        raise TrackingLostError(exc.problem + 1, str(exc)) from exc
    if short:
        raise short[0]
    traj = [seq.gt_trajectory[0]]
    for result in results:
        traj.append(result.pose.compose(traj[-1]))
    return traj


def track_map_to_frame(seq: Sequence) -> tuple[list[Pose], SparseMap]:
    """Track against an incrementally fused map.

    The map starts from frame 0 at the ground-truth pose; each new frame
    is solved against the mapped points seen in it, then its measurements
    are back-projected and fused with ``SparseMap``'s gates
    (co-visible ones update landmarks inside the gates, new ids are
    inserted). A PnP failure, or a point or line row whose depth cannot be
    back-projected, becomes ``TrackingLostError`` naming the frame, raised
    from the original.
    """
    intr = seq.intrinsics
    sparse_map = SparseMap()
    traj: list[Pose] = []
    for j, frame in enumerate(seq.frames):
        u = frame.point_pixels
        try:
            if j == 0:
                T = seq.gt_trajectory[0]
            else:
                rows, known = sparse_map.points.find(frame.point_ids)
                if known.sum() < 4:
                    raise TrackingLostError(j, f"only {known.sum()} mapped landmarks visible")
                T = solve_pnp(sparse_map.points.position[rows[known]], u[known], intr,
                              initial=traj[j - 1]).pose
            P_c = backproject(u, frame.point_depths, intr)
            ends_c = backproject(frame.line_pixels.reshape(-1, 2), frame.line_depths.reshape(-1),
                                 intr).reshape(-1, 2, 3)
        except (PnPError, GeometryError) as exc:
            raise TrackingLostError(j, str(exc)) from exc
        traj.append(T)

        # fuse the frame: the back-projected points and line endpoints moved
        # to the world in one batch each; each point is a block of one, so
        # that it gets the bits of transforming it alone
        T_inv = T.inverse()
        sparse_map.fuse_points(T_inv.transform(P_c[:, None, :])[:, 0, :], frame.point_ids)
        sparse_map.fuse_lines(T_inv.transform(ends_c), frame.line_ids)

    return traj, sparse_map
