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

import functools
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .factor_graph import _point_residuals, _pose_jacobian
from .geometry import (
    CameraIntrinsics,
    GeometryError,
    Points,
    Pose,
    Segments,
    Trajectory,
    _column,
    _rigid_from_moments,
    _rigid_moments,
    backproject,
    line_angles,
    matrix_to_quat,
    quat_to_matrix,
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

# rows per span of the stages that would otherwise hold per-row arrays of
# a whole ``solve_pnp_batch`` call, which is one batch (``_by_spans``):
# EPnP's design matrix, the rigid fits, the pose Jacobians and every
# projection. The batch holds each problem's rows once, joined, and frees
# each problem's own arrays before EPnP runs: every pose hypothesis, an
# EPnP candidate, the motion prior or a line-search try, reads its
# problem's rows by (offset, count), gathered span by span. A call pays
# its fixed cost once; the spans bound its memory instead: frame-to-frame
# tracking, one call, peaks 1.42, 1.48 and 1.12 MB of traced memory above
# solving frame by frame on sphere, box and corridor.
_SPAN_ROWS = 4096


def _segment_index(offsets, counts):
    """Row indices of the segments [offsets[s], offsets[s] + counts[s]),
    concatenated in order; segments may overlap or repeat. This is how
    every pose hypothesis, a start or a try, gathers its problem's rows
    from the batch's one copy of them, by ``ndarray.take``, which copies
    rows several times faster than indexing with an index array."""
    begin = counts.cumsum() - counts
    return np.arange(counts.sum()) + (offsets - begin).repeat(counts)


def _join(outs):
    """One array, or one tuple of arrays, from the per-part results
    ``outs``, concatenated in order."""
    if len(outs) == 1:
        return outs[0]
    if isinstance(outs[0], tuple):
        return tuple(np.concatenate(parts) for parts in zip(*outs))
    return np.concatenate(outs)


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
    # (segments, length) of each run
    runs = [(len(list(run)), n) for n, run in groupby(counts.tolist())]
    outs, a, lo = [], 0, 0
    for c, n in runs:
        hi = lo + c * n
        outs.append(f(*[x[lo:hi].reshape(c, n, *x.shape[1:]) for x in rows],
                      *[x[a:a + c] for x in segments]))
        a, lo = a + c, hi
    return _join(outs)


def _by_spans(f, counts):
    """Apply f to each span of consecutive segments, given as a slice of
    segment indices: a span holds as many whole segments as fit in
    ``_SPAN_ROWS`` rows, and at least one. The results are joined as in
    ``_by_runs``. A span splits a run of equal-length segments where it
    must; since each kernel works row by row or on each segment's own
    stack entry, every segment's result stays that of the segment alone."""
    ends = counts.cumsum()
    if ends[-1] <= _SPAN_ROWS:
        return f(slice(0, len(ends)))
    outs, lo = [], 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + _SPAN_ROWS, "right")))
        outs.append(f(slice(lo, hi)))
        lo = hi
    return _join(outs)


def _solve_each(A, b):
    """``np.linalg.solve`` of each system A (k, d, d), b (k, d, 1), and
    whether it was solvable: None if every system was, else a (k,) mask.
    One singular system makes the stacked call raise; then each is solved
    alone and an unsolvable one gets NaN."""
    try:
        return np.linalg.solve(A, b), None
    except np.linalg.LinAlgError:
        x, ok = np.full(b.shape, np.nan), np.zeros(len(A), dtype=bool)
        for i in range(len(A)):
            try:
                x[i] = np.linalg.solve(A[i], b[i])
                ok[i] = True
            except np.linalg.LinAlgError:
                pass
        return x, ok


def _refine_poses(R, t, P_w, u, offsets, counts, intr):
    """Reprojection-error refinement of k starting poses, R (k, 3, 3) and
    t (k, 3). Start s is refined against the rows [offsets[s], offsets[s] +
    counts[s]) of P_w (N, 3) and u (N, 2), which starts of one problem
    share; starts of equal counts should be consecutive, so that their
    reductions stack (see ``_by_runs``). Returns the refined poses as the
    q (k, 4) and t (k, 3) that ``Pose`` stores, and their mean errors (k,),
    px.

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

    Starts and tries alike get their residuals from ``_residuals``, which
    gathers their rows by (offset, count), span by span, so no per-row
    array is held for the whole batch (``_by_spans``): each iteration
    projects the starts still in the batch at their poses and sums the
    normal equations of their pose Jacobians, then projects the tries
    (``_errors``). The 6×6 solves and the ``se3_exp_update`` of the tries
    run once over the batch. Every kernel works row by row or sees the
    same arrays as a refinement of its start alone, so each start's result
    equals refining that start alone, bit for bit, whatever else the batch
    holds and wherever a span ends.
    """
    offsets, counts = np.asarray(offsets), np.asarray(counts)
    m = len(_STEPS)
    q = matrix_to_quat(R)  # as Pose stores it, see matrix_to_quat
    R = quat_to_matrix(q)
    t = np.array(t, dtype=float)

    def linearize(span):
        """For the starts ``active[span]`` at their poses: their points in
        front of the camera, their mean errors while ``err`` is unset (none
        after), and JᵀJ and Jᵀr."""
        s = active[span]
        n = counts[s]
        res, valid, (P_c, zs) = _residuals(R[s], t[s], offsets[s], n, P_w, u, intr)
        errs = _mean_errors(res, valid, n) if err is None else np.empty(0)
        J_pose, _ = _pose_jacobian(P_c, zs, valid, intr)
        n_valid = np.add.reduceat(valid.astype(np.intp), n.cumsum() - n)
        return (n_valid, errs) + _by_runs(_normal_equations, n, (J_pose, res))

    active, err = np.arange(len(R)), None
    for _ in range(_ITERATIONS):
        if not len(active):
            break
        n_valid, errs, JtJ, Jtr = _by_spans(linearize, counts[active])
        if err is None:  # the mean errors at the starting poses
            err = errs
        enough = n_valid >= 4
        if not enough.all():
            active = active[enough]
            JtJ, Jtr = JtJ[enough], Jtr[enough]
        deltas, ok = _solve_each(JtJ + _DAMP_6, Jtr)
        del JtJ, Jtr  # not held through the tries
        deltas = deltas[:, :, 0]
        finite = np.logical_and.reduce(np.isfinite(deltas), axis=1)
        ok = finite if ok is None else ok & finite
        moving = active
        if not ok.all():
            moving = active[ok]
            deltas = deltas[ok]
        if not len(moving):
            break
        q_k, R_k, t_k = se3_exp_update(R[moving].repeat(m, axis=0), t[moving].repeat(m, axis=0),
                                       (_STEPS[:, None] * deltas[:, None, :]).reshape(-1, 6))
        errs = _errors(R_k, t_k, offsets[moving].repeat(m), counts[moving].repeat(m), P_w, u, intr)
        accepted = errs.reshape(-1, m) <= err[moving, None]
        if not accepted.any():
            break
        took = np.logical_or.reduce(accepted, axis=1)
        j = took.nonzero()[0] * m + accepted[took].argmax(axis=1)
        s = moving[took]
        q[s], R[s], t[s], err[s] = q_k[j], R_k[j], t_k[j], errs[j]
        # the accepted steps, 0.5**i · delta, as the tries were made
        active = s[row_norms(_STEPS[j % m, None] * deltas[j // m]) >= 1e-14]
    if err is None:  # _ITERATIONS = 0, as when EPnP's starts are checked alone
        err = _errors(R, t, offsets, counts, P_w, u, intr)
    return q, t, err


def _residuals(R, t, offsets, counts, P_w, u, intr):
    """The residuals of the pose hypotheses R (T, 3, 3), t (T, 3), pose i
    against the rows [offsets[i], offsets[i] + counts[i]) of P_w and u,
    gathered by ``_segment_index``: ``factor_graph._point_residuals`` of
    the gathered rows, (res, valid, (P_c, zs)) with one row per gathered
    row and the rows behind the camera zeroed."""
    rows = _segment_index(offsets, counts)
    return _point_residuals(R.repeat(counts, axis=0), t.repeat(counts, axis=0),
                            P_w.take(rows, axis=0), u.take(rows, axis=0), intr)


def _errors(R, t, offsets, counts, P_w, u, intr):
    """Mean errors of the pose hypotheses R (T, 3, 3), t (T, 3), pose i
    against the rows [offsets[i], offsets[i] + counts[i]) of P_w and u,
    span by span (``_by_spans``)."""
    def span(s):
        res, valid, _ = _residuals(R[s], t[s], offsets[s], counts[s], P_w, u, intr)
        return _mean_errors(res, valid, counts[s])

    return _by_spans(span, counts)


def _mean_errors(res, valid, counts):
    """Mean pixel length of the residuals res (N, 2) over each segment of
    counts[s] rows; a point behind the camera counts 1e9."""
    # each row's np.linalg.norm, or 1e9
    err = np.where(valid, np.sqrt(np.add.reduce(res * res, axis=1)), 1e9)
    # e.mean(axis=1), without np.mean's per-call set-up
    return _by_runs(lambda e: np.add.reduce(e, axis=1) / e.shape[1], counts, (err,))


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

    def moments(X):
        """Centroids (X.mean(axis=1), without np.mean's per-call set-up)
        and scatter matrices of a stack of problems."""
        c0 = np.add.reduce(X, axis=1) / X.shape[1]
        X = X - c0[:, None]
        return c0, X.transpose(0, 2, 1) @ X

    c0, cov = _by_runs(moments, counts, (P_w,))
    evals, evecs = np.linalg.eigh(cov / counts[:, None, None])
    evals, evecs = evals[:, ::-1], evecs[:, :, ::-1]
    degenerate = (evals[:, 0] <= 0.0) | (evals[:, 1] < 1e-12 * evals[:, 0])
    planar = evals[:, 2] < 1e-8 * evals[:, 0]
    axes = np.sqrt(np.maximum(evals, 0.0))[:, :, None] * evecs.transpose(0, 2, 1)
    return np.concatenate([c0[:, None], c0[:, None] + axes], axis=1), planar, degenerate


# the products dv_a * dv_b, (a, b) = (1, 1), (1, 2), (2, 2), of the EPnP
# beta system, and their weights in its rows (b1^2, b1 b2, b2^2)
_BETA_A, _BETA_B = [0, 0, 1], [0, 1, 1]
_BETA_WEIGHTS = np.array([1.0, 2.0, 1.0])[:, None]


def _epnp_candidates(ctrl, P_w, u, counts, intr):
    """Camera-frame control points from the EPnP null space, for k problems
    with m control points each, ctrl (k, m, 3), and their correspondences
    P_w (N, 3), u (N, 2) stacked as in ``_epnp_control_points``.

    Returns (alphas (N, m), candidates (k, 2, m, 3), exists (k, 2)): the
    first candidate matches the inter-control-point distances along a
    one-dimensional null space, the second solves the two-dimensional case
    and polishes it by 5 Gauss-Newton steps; each is negated if its mean
    depth is negative. The design matrix M (2N, 3m) and its MᵀM are formed
    span by span (``_by_spans``), so no M of the whole batch is held.

    The planar alphas and the betas of the two-dimensional case take one
    ``lstsq`` per problem: numpy has no stacked ``lstsq``, and solving the
    normal equations instead, or a stacked ``pinv``, rounds differently.
    """
    k, m = ctrl.shape[:2]
    B = (ctrl[:, 1:] - ctrl[:, :1]).transpose(0, 2, 1)  # (k, 3, m-1)
    alphas = np.empty((len(P_w), m))
    if m == 4:
        alphas[:, 1:] = _by_runs(
            lambda X, c, B_run: np.linalg.solve(B_run, (X - c[:, None]).transpose(0, 2, 1))
            .transpose(0, 2, 1).reshape(-1, 3), counts, (P_w,), (ctrl[:, 0], B))
    else:
        rel = P_w - ctrl[:, 0].repeat(counts, axis=0)
        ends = counts.cumsum()
        alphas[:, 1:] = np.concatenate([
            np.linalg.lstsq(B[i], rel[end - n:end].T, rcond=None)[0].T
            for i, (end, n) in enumerate(zip(ends, counts))])
    alphas[:, 0] = 1.0 - np.add.reduce(alphas[:, 1:], axis=1)
    ends = counts.cumsum()

    def gram(s):
        """MᵀM of the problems s, M being the design matrix of their rows,
        two rows of 3m per correspondence."""
        rows = slice(ends[s.start] - counts[s.start], ends[s.stop - 1])
        a, x = alphas[rows], u[rows]
        M = np.zeros((2 * len(a), 3 * m))
        M[0::2, 0::3] = a * intr.fx
        M[0::2, 2::3] = a * (intr.cx - x[:, :1])
        M[1::2, 1::3] = a * intr.fy
        M[1::2, 2::3] = a * (intr.cy - x[:, 1:])
        return _by_runs(lambda X: X.transpose(0, 2, 1) @ X, 2 * counts[s], (M,))

    _, vecs = np.linalg.eigh(_by_spans(gram, counts))
    # the two null-space vectors v1, v2 as (k, 2, m, 3), and their
    # differences over the control-point pairs, (k, 2, pairs, 3); the
    # stacks are gathered by np.take, whose result is C-ordered, since an
    # index array on a later axis may order it otherwise, and the products
    # below must see the layouts a problem alone gives them
    V = vecs[:, :, :2].transpose(0, 2, 1).reshape(k, 2, m, 3)
    i, j = _PAIRS[m]
    dV = V.take(i, axis=2) - V.take(j, axis=2)
    dc = row_norms((ctrl[:, i] - ctrl[:, j]).reshape(-1, 3)).reshape(k, -1)
    # dv1·dv1, dv1·dv2 and dv2·dv2 of each pair, (k, 3, pairs)
    dots = np.add.reduce(dV.take(_BETA_A, axis=1) * dV.take(_BETA_B, axis=1), axis=3)
    candidates = np.zeros((k, 2, m, 3))
    exists = np.zeros((k, 2), dtype=bool)

    # one-dimensional null space: match inter-control-point distances
    norm1 = np.sqrt(dots[:, 0])  # np.linalg.norm(dv1, axis=2)
    denom = row_dots(norm1, norm1)
    exists[:, 0] = denom > 1e-18
    beta = row_dots(norm1, dc) / np.where(exists[:, 0], denom, 1.0)
    candidates[:, 0] = beta[:, None, None] * V[:, 0]

    # two-dimensional case: solve for (b1^2, b1 b2, b2^2) then polish
    A = (dots * _BETA_WEIGHTS).transpose(0, 2, 1)  # lstsq copies each matrix to its own layout
    dc2 = dc**2
    sol = np.array([np.linalg.lstsq(A_p, dc2_p, rcond=None)[0] for A_p, dc2_p in zip(A, dc2)])
    betas = np.sqrt(np.maximum(sol[:, ::2], 0.0))  # b1 and |b2|
    betas[:, 1] *= np.where(sol[:, 1] >= 0.0, 1.0, -1.0)
    exists[:, 1] = betas[:, 0] > 1e-12
    polish = exists[:, 1].nonzero()[0]
    if len(polish) == k:  # every problem: views, not copies
        polish = slice(None)
    betas = betas[polish]
    # Gauss-Newton on the distance residuals; a problem whose solve fails
    # keeps its betas and takes no further step. D holds (dv1, dv2) of each
    # pair, (k, pairs, 2, 3)
    D = np.ascontiguousarray(dV.transpose(0, 2, 1, 3)[polish])
    live, b, c2 = np.arange(len(betas)), betas, dc2[polish]
    for _ in range(5):
        terms = b[:, None, :, None] * D
        dvc = terms[:, :, 0] + terms[:, :, 1]  # b1 dv1 + b2 dv2
        r = np.add.reduce(dvc * dvc, axis=2) - c2
        J = 2.0 * np.add.reduce(dvc[:, :, None] * D, axis=3)
        Jt = J.transpose(0, 2, 1)
        step, ok = _solve_each(Jt @ J + _DAMP_2, Jt @ r[:, :, None])
        if ok is not None:
            betas[live] = b
            live, b, D, c2, step = live[ok], b[ok], D[ok], c2[ok], step[ok]
        b = b - step[:, :, 0]
    betas[live] = b
    candidates[polish, 1] = betas[:, :1, None] * V[polish, 0] + betas[:, 1:, None] * V[polish, 1]

    # positive-depth disambiguation: each candidate or its negation; the
    # mean depth as np.mean forms it
    flip = np.add.reduce(candidates[:, :, :, 2], axis=2) / m < 0.0
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
    a tie. A problem raises ``InsufficientDataError`` when its points are
    not of shape (n, 3) or its pixels not of shape (n, 2), when they differ
    in length, number fewer than 4 or hold a value that is not finite, and
    ``DegenerateGeometryError`` when its points are collinear or coincident
    or EPnP yields no start; the call raises the error of the first failing
    problem, with that problem's index as ``problem``.

    Each result equals that of solving its problem alone bit for bit. The
    problems are read from ``problems``, which may be a generator, in one
    pass: each is cast and checked as it is read. A call is one batch:
    once every problem is read, ``_solve_batch`` solves them all at once.
    A read that fails, a problem failing its check or ``problems`` itself
    raising, first solves the problems read before it, so that an earlier
    degenerate problem fails first, and else raises its own exception
    unchanged. The batch holds each problem's rows once, joined, and frees
    each problem's own arrays before EPnP runs; ``problems`` itself is left
    as it is. Each stage that makes per-row arrays (EPnP's design matrix,
    the rigid fits, the pose Jacobians, the projections) runs in spans of
    at most ``_SPAN_ROWS`` rows of whole problems, starts or tries
    (``_by_spans``), so the call pays its fixed cost once while its memory
    stays near that of one span.
    """
    read = []
    try:
        for i, (P_w, u, initial) in enumerate(problems):
            read.append(_checked(i, P_w, u) + (initial,))
    except Exception:
        if read:  # a degenerate problem read before it fails first
            _solve_batch(read, intr)
        raise
    return _solve_batch(read, intr) if read else []


def _checked(i, P_w, u):
    """The points and pixels of problem i cast to float (n, 3) and (n, 2);
    raises the problem's ``InsufficientDataError``."""
    error = functools.partial(InsufficientDataError, problem=i)
    P_w = _column(P_w, float, (None, 3), "world points", error, copy=False)
    u = _column(u, float, (None, 2), "pixels", error, copy=False)
    if len(P_w) != len(u):
        raise error("points and pixels differ in length")
    if len(P_w) < 4:
        raise error(f"need at least 4 correspondences, got {len(P_w)}")
    if not (np.isfinite(P_w).all() and np.isfinite(u).all()):
        raise error("points and pixels must be finite")
    return P_w, u


def _epnp_fits(P, U, counts, intr):
    """The EPnP candidates of k problems stacked as in
    ``_epnp_control_points``, each fitted rigidly: (R (k, 2, 3, 3),
    t (k, 2, 3), exists (k, 2), degenerate (k,)). General problems use 4
    control points, planar ones 3, degenerate ones none; a group that is not
    the whole batch gathers its problems' rows by ``_segment_index``."""
    k = len(counts)
    ctrl, planar, degenerate = _epnp_control_points(P, counts)
    fit_R, fit_t = np.zeros((k, 2, 3, 3)), np.zeros((k, 2, 3))
    exists = np.zeros((k, 2), dtype=bool)
    for m, group in ((4, ~(planar | degenerate)), (3, planar & ~degenerate)):
        idx = group.nonzero()[0]
        if not len(idx):
            continue
        if len(idx) == k:  # the whole batch, as it is
            idx, P_g, U_g = slice(None), P, U
        else:  # the group's rows, one block
            rows = _segment_index((counts.cumsum() - counts)[idx], counts[idx])
            P_g, U_g = P.take(rows, axis=0), U.take(rows, axis=0)
        n = counts[idx]
        alphas, candidates, exists[idx] = _epnp_candidates(ctrl[idx, :m], P_g, U_g, n, intr)
        ends = n.cumsum()

        def fit(s):
            """Each candidate's camera-frame points, alphas @ candidate, and
            the rigid fit of its problem's world points onto them: the
            moments run by run, the SVDs of the span at once."""
            r = slice(ends[s.start] - n[s.start], ends[s.stop - 1])  # the group's rows: one block
            return _rigid_from_moments(*_by_runs(
                lambda A, X, C: _rigid_moments(X[:, None], A[:, None] @ C),
                n[s], (alphas[r], P_g[r]), (candidates[s],)))

        fit_R[idx], fit_t[idx] = _by_spans(fit, n)
    return fit_R, fit_t, exists, degenerate


def _solve_batch(problems, intr) -> list[PnPResult]:
    """``solve_pnp_batch`` of a non-empty list of checked (P_w, u,
    initial) triples, P_w float (n, 3) and u float (n, 2) with n >= 4 and
    finite, all in one batch; raises the ``DegenerateGeometryError`` of the
    first degenerate problem in input order. The problems' rows, sorted by
    size so that equal-size problems share their reductions (``_by_runs``),
    are joined once into P and U, and then ``problems`` is emptied, so that
    each problem's own arrays are freed before EPnP runs; each start reads
    its problem's rows in P and U by (offset, count), with no copy of its
    own."""
    k = len(problems)
    # problems sorted by size; `order[i]` is the input index of sorted problem i
    order = sorted(range(k), key=lambda i: len(problems[i][0]))
    counts = np.array([len(problems[i][0]) for i in order])
    P = np.concatenate([problems[i][0] for i in order])
    U = np.concatenate([problems[i][1] for i in order])
    priors = [problems[i][2] for i in order]
    problems.clear()

    # the starts of each problem in order: its candidates, each stored as a
    # Pose, then its motion prior
    has = np.empty((k, 3), dtype=bool)
    fit_R, fit_t, has[:, :2], degenerate = _epnp_fits(P, U, counts, intr)
    start_q, start_t = np.empty((k, 3, 4)), np.empty((k, 3, 3))
    start_q[:, :2] = matrix_to_quat(fit_R)  # as Pose stores it, see matrix_to_quat
    start_t[:, :2] = fit_t
    has[:, 2] = [prior is not None for prior in priors]
    for i in has[:, 2].nonzero()[0].tolist():
        start_q[i, 2], start_t[i, 2] = priors[i].q, priors[i].t
    failed = (degenerate | ~np.logical_or.reduce(has, axis=1)).nonzero()[0].tolist()
    if failed:  # the first in input order
        i = min(failed, key=order.__getitem__)
        raise DegenerateGeometryError("points are collinear or coincident" if degenerate[i]
                                      else "EPnP found no candidate pose", order[i])

    n_starts = np.add.reduce(has, axis=1)
    q, t, err = _refine_poses(quat_to_matrix(start_q[has]), start_t[has], P, U,
                              (counts.cumsum() - counts).repeat(n_starts),
                              counts.repeat(n_starts), intr)
    results: list[PnPResult] = [None] * k  # type: ignore[list-item]
    errs, end = err.tolist(), 0
    for p, n in zip(order, n_starts.tolist()):
        best = min(range(end, end + n), key=errs.__getitem__)
        end += n
        results[p] = PnPResult(pose=Pose(q[best], t[best]), mean_error=errs[best])
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
        stacks = [np.concatenate([self.line_samples[lid], sample])
                  for lid, sample in zip(ids[merged].tolist(), endpoints[merged])]
        if stacks:
            sizes = np.array([len(stack) for stack in stacks])
            ends[rows[merged]] = _refit_lines(np.concatenate(stacks), sizes, ends[rows[merged]])
        new = ~known
        self.lines = MapSegments(np.concatenate([self.lines.id, ids[new]]),
                                 np.concatenate([ends, endpoints[new]]),
                                 np.concatenate([count, np.ones_like(ids[new])]))
        # the samples change only once the record that holds their fit is
        # built, so that a refused fusion leaves the map as it was
        self.line_samples.update(zip(ids[merged].tolist(), stacks))
        self.line_samples.update(zip(ids[new].tolist(), endpoints[new]))


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


def track_frame_to_frame(seq: Sequence) -> Trajectory:
    """Chain relative poses: back-project the previous frame's measured
    depths, match by landmark id, solve PnP in the previous camera frame.

    The first pose is anchored to ground truth (gauge fixing). Each
    relative pose depends only on its two frames, so the problems of the
    frames up to the first one that shares fewer than 4 landmarks with its
    predecessor go to one ``solve_pnp_batch`` call, one batch, as a
    generator: the call frees each problem's arrays once it has joined
    their rows, which a list of the problems held here would keep through
    the solve. The chain is composed afterwards, each frame's
    ``Pose`` onto the one before, into the rows of the returned record. The
    tracks equal those of solving frame by frame bit for bit, and tracking
    is lost at the same frame with the same message. The problems'
    generator raises ``TrackingLostError`` where it finds a loss: at a
    frame that shares fewer than 4 landmarks with its predecessor, or at a
    predecessor whose shared points cannot be back-projected, raised from
    the ``GeometryError``; ``solve_pnp_batch`` solves the problems read
    before it first, so that an earlier ``PnPError`` wins, and that becomes
    the ``TrackingLostError`` of its problem's frame, raised from it.
    """
    intr = seq.intrinsics

    def problems():
        for j in range(1, len(seq.frames)):
            prev, frame = seq.frames[j - 1], seq.frames[j]
            # the previous frame's row a of each shared id, in the order of
            # this frame's rows b, by one search in its sorted ids
            order = np.argsort(prev.point_ids)
            prev_ids = prev.point_ids[order]
            at = np.searchsorted(prev_ids, frame.point_ids)
            hit = at < len(prev_ids)
            hit[hit] = prev_ids[at[hit]] == frame.point_ids[hit]
            b = np.flatnonzero(hit)
            a = order[at[b]]
            if len(b) < 4:
                raise TrackingLostError(j, f"only {len(b)} shared landmarks")
            try:
                P_prev = backproject(prev.point_pixels[a], prev.point_depths[a], intr)
            except GeometryError as exc:
                raise TrackingLostError(j - 1, str(exc)) from exc
            yield P_prev, frame.point_pixels[b], None

    try:
        results = solve_pnp_batch(problems(), intr)
    except PnPError as exc:
        raise TrackingLostError(exc.problem + 1, str(exc)) from exc
    q, t = np.empty((len(seq.frames), 4)), np.empty((len(seq.frames), 3))
    if seq.frames:  # the anchor
        T = seq.gt_trajectory[0]
        q[0], t[0] = T.q, T.t
    for j, result in enumerate(results, 1):
        T = result.pose.compose(T)
        q[j], t[j] = T.q, T.t
    return Trajectory(q, t)


def track_map_to_frame(seq: Sequence) -> tuple[Trajectory, SparseMap]:
    """Track against an incrementally fused map.

    The map starts from frame 0 at the ground-truth pose; each new frame
    is solved against the mapped points seen in it, then its measurements
    are back-projected and fused with ``SparseMap``'s gates
    (co-visible ones update landmarks inside the gates, new ids are
    inserted). A frame that sees fewer than 4 mapped points, and any
    ``ValueError`` of its PnP solve, back-projection or fusion (a
    ``PnPError``, a ``GeometryError`` of a pixel or depth, a refused
    fusion batch such as one whose landmark ids repeat), becomes a
    ``TrackingLostError`` naming the frame, raised from the original. Each
    frame's ``Pose`` is the next one's motion prior; the track's record is
    built once, at the end.
    """
    intr = seq.intrinsics
    sparse_map = SparseMap()
    q, t = np.empty((len(seq.frames), 4)), np.empty((len(seq.frames), 3))
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
                              initial=T).pose
            P_c = backproject(u, frame.point_depths, intr)
            ends_c = backproject(frame.line_pixels.reshape(-1, 2), frame.line_depths.reshape(-1),
                                 intr).reshape(-1, 2, 3)
            # fuse the frame: the back-projected points and line endpoints
            # moved to the world in one batch each; each point is a block of
            # one, so that it gets the bits of transforming it alone
            T_inv = T.inverse()
            sparse_map.fuse_points(T_inv.transform(P_c[:, None, :])[:, 0, :], frame.point_ids)
            sparse_map.fuse_lines(T_inv.transform(ends_c), frame.line_ids)
        except ValueError as exc:
            raise TrackingLostError(j, str(exc)) from exc
        q[j], t[j] = T.q, T.t

    return Trajectory(q, t), sparse_map
