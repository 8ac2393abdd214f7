"""Baseline front-end: EPnP pose estimation (frame-to-frame and
map-to-frame) with incremental landmark fusion.

Data association uses the ground-truth landmark ids carried by the
measurements, so there is one fusion path, by known id, and no
nearest-neighbour search; the geometric gates (radius/angle/distance
thresholds) then decide whether an observation also updates the fused
landmark estimate.
Lines never enter the pose solver; they matter only for map building and
the factor graph.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .factor_graph import _pose_jacobian, _project_points
from .geometry import (
    CameraIntrinsics,
    Pose,
    backproject,
    line_angles,
    rigid_fit,
    row_dots,
    row_norms,
    se3_exp_update_batch,
)
from .simulator import Sequence


class InsufficientDataError(ValueError):
    pass


class DegenerateGeometryError(ValueError):
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


# the backtracking step sizes of one Gauss-Newton step, tried as one batch
_STEPS = 0.5 ** np.arange(6)


def _mean_errors(proj, valid, u):
    """Mean pixel distance to u (n, 2) of each of the stacked projections
    proj (tries, n, 2); 1e9 for a point behind the camera."""
    err = np.linalg.norm(proj - u, axis=-1)
    err[~valid] = 1e9
    return err.mean(axis=-1)


def _per_start(arrays, k):
    """Split each array of row-stacked per-start blocks into (k, n, ...)."""
    return [x.reshape(k, -1, *x.shape[1:]) for x in arrays]


def _refine_poses(R, t, P_w, u, intr, iterations=10):
    """Reprojection-error refinement of k starting poses, R (k, 3, 3) and
    t (k, 3), against the same correspondences, with left-multiplicative
    updates and a backtracking line search. Returns the k refined poses and
    their mean errors (k,), px.

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
    their rows, one ``se3_exp_update_batch`` and one ``_project_points``
    call over all their tries; only the 6×6 normal equations are solved
    start by start. Every kernel works row by row and each solve sees the
    same arrays as a refinement of its start alone, so each result equals
    that of the former one-start, one-try-at-a-time loop bit for bit.
    """
    k, n, m = len(R), len(P_w), len(_STEPS)
    poses = [Pose.from_rt(R_s, t_s) for R_s, t_s in zip(R, t)]
    R = np.array([T.rotation() for T in poses])
    t = np.array([T.t for T in poses])
    P_c, valid, zs, proj = _per_start(_project_points(
        np.repeat(R, n, axis=0), np.repeat(t, n, axis=0), np.tile(P_w, (k, 1)), intr), k)
    err = _mean_errors(proj, valid, u)
    active = list(range(k))
    for _ in range(iterations):
        active = [s for s in active if valid[s].sum() >= 4]
        if not active:
            break
        res = u - proj[active]
        res[~valid[active]] = 0.0
        J_pose, _ = _pose_jacobian(P_c[active].reshape(-1, 3), zs[active].ravel(),
                                   valid[active].ravel(), intr)
        J_pose = J_pose.reshape(len(active), -1, 6)
        moving, deltas = [], []
        for i, s in enumerate(active):
            J, r = J_pose[i], res[i].reshape(-1)
            try:
                delta = np.linalg.solve(J.T @ J + 1e-12 * np.eye(6), J.T @ r)
            except np.linalg.LinAlgError:
                continue
            if np.all(np.isfinite(delta)):
                moving.append(s)
                deltas.append(delta)
        if not moving:
            break
        tries = len(moving) * m
        steps = (_STEPS[:, None] * np.array(deltas)[:, None, :]).reshape(tries, 6)
        q_k, R_k, t_k = se3_exp_update_batch(np.repeat(R[moving], m, axis=0),
                                             np.repeat(t[moving], m, axis=0), steps)
        P_c_k, valid_k, zs_k, proj_k = _per_start(_project_points(
            np.repeat(R_k, n, axis=0), np.repeat(t_k, n, axis=0), np.tile(P_w, (tries, 1)),
            intr), tries)
        errs = _mean_errors(proj_k, valid_k, u)
        active = []
        for i, s in enumerate(moving):
            accepted = np.flatnonzero(errs[i * m:(i + 1) * m] <= err[s])
            if not len(accepted):
                continue
            j = i * m + accepted[0]
            poses[s], R[s], t[s], err[s] = Pose(q_k[j], t_k[j]), R_k[j], t_k[j], errs[j]
            P_c[s], valid[s], zs[s], proj[s] = P_c_k[j], valid_k[j], zs_k[j], proj_k[j]
            if np.linalg.norm(steps[j]) >= 1e-14:
                active.append(s)
    return poses, err


def _epnp_control_points(P_w):
    c0 = P_w.mean(axis=0)
    centered = P_w - c0
    cov = centered.T @ centered / len(P_w)
    evals, evecs = np.linalg.eigh(cov)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    if evals[0] <= 0 or evals[1] < 1e-12 * evals[0]:
        raise DegenerateGeometryError("points are collinear or coincident")
    planar = evals[2] < 1e-8 * evals[0]
    k = 2 if planar else 3
    ctrl = [c0]
    for i in range(k):
        ctrl.append(c0 + np.sqrt(evals[i]) * evecs[:, i])
    return np.array(ctrl)


def _epnp_candidates(P_w, u, intr):
    """Camera-frame control-point candidates from the EPnP null space."""
    n = len(P_w)
    ctrl_w = _epnp_control_points(P_w)
    m = len(ctrl_w)

    B = (ctrl_w[1:] - ctrl_w[0]).T  # 3 x (m-1)
    rel = (P_w - ctrl_w[0]).T
    if m == 4:
        alpha_rest = np.linalg.solve(B, rel)
    else:
        alpha_rest = np.linalg.lstsq(B, rel, rcond=None)[0]
    alphas = np.empty((n, m))
    alphas[:, 1:] = alpha_rest.T
    alphas[:, 0] = 1.0 - alphas[:, 1:].sum(axis=1)

    M = np.zeros((2 * n, 3 * m))
    M[0::2, 0::3] = alphas * intr.fx
    M[0::2, 2::3] = alphas * (intr.cx - u[:, :1])
    M[1::2, 1::3] = alphas * intr.fy
    M[1::2, 2::3] = alphas * (intr.cy - u[:, 1:])
    _, vecs = np.linalg.eigh(M.T @ M)
    v1 = vecs[:, 0].reshape(m, 3)
    v2 = vecs[:, 1].reshape(m, 3)

    i, j = np.triu_indices(m, 1)
    dc = row_norms(ctrl_w[i] - ctrl_w[j])
    dv1 = v1[i] - v1[j]
    dv2 = v2[i] - v2[j]

    candidates = []

    # one-dimensional null space: match inter-control-point distances
    norm1 = np.linalg.norm(dv1, axis=1)
    denom = float(norm1 @ norm1)
    if denom > 1e-18:
        beta = float(norm1 @ dc) / denom
        candidates.append(beta * v1)

    # two-dimensional case: solve for (b1^2, b1 b2, b2^2) then polish
    A = np.stack(
        [
            np.sum(dv1 * dv1, axis=1),
            2.0 * np.sum(dv1 * dv2, axis=1),
            np.sum(dv2 * dv2, axis=1),
        ],
        axis=1,
    )
    sol, *_ = np.linalg.lstsq(A, dc**2, rcond=None)
    b11, b12, b22 = sol
    b1 = np.sqrt(max(b11, 0.0))
    b2 = np.sqrt(max(b22, 0.0)) * (1.0 if b12 >= 0 else -1.0)
    if b1 > 1e-12:
        betas = np.array([b1, b2])
        for _ in range(5):  # Gauss-Newton on the distance residuals
            dvc = betas[0] * dv1 + betas[1] * dv2
            r = np.sum(dvc * dvc, axis=1) - dc**2
            J = np.stack([2 * np.sum(dvc * dv1, axis=1), 2 * np.sum(dvc * dv2, axis=1)], axis=1)
            JtJ = J.T @ J
            try:
                step = np.linalg.solve(JtJ + 1e-12 * np.eye(2), J.T @ r)
            except np.linalg.LinAlgError:
                break
            betas = betas - step
        candidates.append(betas[0] * v1 + betas[1] * v2)

    # positive-depth disambiguation: each candidate or its negation
    out = []
    for x in candidates:
        if np.mean(x[:, 2]) < 0:
            x = -x
        out.append(x)
    return ctrl_w, alphas, out


def solve_pnp(
    world_points,
    pixels,
    intr: CameraIntrinsics,
    refine_iters: int = 10,
    initial: Pose | None = None,
) -> PnPResult:
    """Camera pose from 3D-2D correspondences: EPnP control-point
    formulation followed by Gauss-Newton refinement.

    ``initial``, when given, competes with the EPnP candidates (useful as
    a motion prior). All starts, the EPnP candidates then ``initial``, are
    refined as one batch by ``_refine_poses``, which gives each start the
    result of refining it alone; the refined pose with the lowest mean
    reprojection error wins, the earlier start on a tie. Raises
    ``InsufficientDataError`` for fewer than 4 correspondences and
    ``DegenerateGeometryError`` when EPnP yields no start.
    """
    P_w = np.asarray(world_points, dtype=float).reshape(-1, 3)
    u = np.asarray(pixels, dtype=float).reshape(-1, 2)
    if len(P_w) != len(u):
        raise InsufficientDataError("points and pixels differ in length")
    if len(P_w) < 4:
        raise InsufficientDataError(f"need at least 4 correspondences, got {len(P_w)}")

    ctrl_w, alphas, candidates = _epnp_candidates(P_w, u, intr)

    poses = []
    for ctrl_cam in candidates:
        P_cam = alphas @ ctrl_cam
        R, t = rigid_fit(P_w, P_cam)
        poses.append(Pose.from_rt(R, t))
    if initial is not None:
        poses.append(initial)
    if not poses:
        raise DegenerateGeometryError("EPnP found no candidate pose")

    refined, errs = _refine_poses(np.array([T.rotation() for T in poses]),
                                  np.array([T.t for T in poses]), P_w, u, intr,
                                  iterations=refine_iters)
    best = min(range(len(poses)), key=errs.__getitem__)
    return PnPResult(pose=refined[best], mean_error=float(errs[best]))


# ---------------------------------------------------------------------------
# sparse map


@dataclass
class MapPoint:
    id: int
    position: np.ndarray
    count: int = 1  # fused samples in the running mean


@dataclass
class MapLine:
    id: int
    endpoints: np.ndarray  # (2, 3)
    samples: list = field(default_factory=list)  # accumulated endpoint pairs
    count: int = 1


class SparseMap:
    """Point/line landmark store, fused by known landmark id.

    Every measurement carries the id of its landmark, so fusion needs no
    search: a candidate for a mapped landmark merges into it when it passes
    the geometric gates and otherwise leaves its estimate alone; a candidate
    for an unmapped id inserts that landmark. The default gates are sized to
    the depth-noise model (about 3 sigma of the disparity noise at working
    depths): narrower gates starve the running means and the map never
    averages its noise away.
    """

    def __init__(self):
        self.points: dict[int, MapPoint] = {}
        self.lines: dict[int, MapLine] = {}

    def point_positions(self) -> dict[int, np.ndarray]:
        return {i: p.position for i, p in self.points.items()}

    def line_endpoints(self) -> dict[int, np.ndarray]:
        return {i: l.endpoints for i, l in self.lines.items()}

    # -- fusion ------------------------------------------------------------

    def fuse_point(self, position, landmark_id: int, **gates) -> int:
        """``fuse_points`` of one candidate; returns its landmark id."""
        self.fuse_points(np.asarray(position, dtype=float).reshape(1, 3), [landmark_id], **gates)
        return landmark_id

    def fuse_points(self, positions, landmark_ids, radius_thresh: float = 0.5) -> None:
        """Fuse each row of ``positions`` (n, 3) into the landmark of its id,
        in one pass. A candidate within ``radius_thresh`` of its mapped
        landmark moves it to the running mean of its samples; the result
        equals n sequential ``fuse_point`` calls bit for bit. The ids must be
        distinct: a landmark is observed at most once per frame.
        """
        positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        ids = list(landmark_ids)
        if len(ids) != len(positions):
            raise ValueError("positions and landmark ids differ in length")
        if len(set(ids)) != len(ids):
            raise ValueError("landmark ids repeat within one batch")
        known = [i for i, lid in enumerate(ids) if lid in self.points]
        new = [i for i, lid in enumerate(ids) if lid not in self.points]
        if known:
            mps = [self.points[ids[i]] for i in known]
            old = np.array([mp.position for mp in mps])
            diff = positions[known] - old
            inside = row_norms(diff) <= radius_thresh
            counts = np.array([mp.count for mp in mps])
            merged = old + diff / (counts + 1)[:, None]
            for mp, ok, position in zip(mps, inside, merged):
                if ok:
                    mp.position = position
                    mp.count += 1
        for i in new:
            self.points[ids[i]] = MapPoint(ids[i], positions[i].copy())

    def fuse_line(self, endpoints, landmark_id: int, **gates) -> int:
        """``fuse_lines`` of one segment; returns its landmark id."""
        self.fuse_lines(np.asarray(endpoints, dtype=float).reshape(1, 2, 3), [landmark_id], **gates)
        return landmark_id

    def fuse_lines(
        self,
        endpoints,
        landmark_ids,
        angle_thresh_deg: float = 15.0,
        dist_thresh: float = 0.5,
    ) -> None:
        """Fuse each segment of ``endpoints`` (n, 2, 3) into the landmark of
        its id. A candidate merges when its direction angle and its
        midpoint-to-line distance pass their gates; a merged line is refit
        over all its accumulated endpoint samples. The gates are tested in
        one pass and only merged lines are refit, one ``_refit_lines`` call per group of merged lines with
        the same sample count, so their samples stack into one array. A
        line's refit reads only its own samples, so the result equals n
        sequential calls bit for bit. The ids must be distinct: a landmark
        is observed at most once per frame.
        """
        endpoints = np.asarray(endpoints, dtype=float).reshape(-1, 2, 3)
        ids = list(landmark_ids)
        if len(ids) != len(endpoints):
            raise ValueError("endpoints and landmark ids differ in length")
        if len(set(ids)) != len(ids):
            raise ValueError("landmark ids repeat within one batch")
        known = [i for i, lid in enumerate(ids) if lid in self.lines]
        new = [i for i, lid in enumerate(ids) if lid not in self.lines]
        if known:
            mls = [self.lines[ids[i]] for i in known]
            stored = np.array([ml.endpoints for ml in mls])
            inside = _line_gates(stored, endpoints[known], angle_thresh_deg, dist_thresh)
            groups: dict[int, list[MapLine]] = {}  # merged lines by sample count
            for ml, ok, i in zip(mls, inside, known):
                if ok:
                    ml.samples.append(endpoints[i].copy())
                    ml.count += 1
                    groups.setdefault(len(ml.samples), []).append(ml)
            for count, group in groups.items():
                samples = np.array([ml.samples for ml in group]).reshape(len(group), 2 * count, 3)
                for ml, ends in zip(group, _refit_lines(samples)):
                    ml.endpoints = ends
        for i in new:
            self.lines[ids[i]] = MapLine(ids[i], endpoints[i].copy(),
                                         samples=[endpoints[i].copy()])


def _line_gates(stored, candidates, angle_thresh_deg, dist_thresh) -> np.ndarray:
    """Merge gate of each candidate segment against the stored segment in
    the same row, both (n, 2, 3): the undirected angle between their
    directions and the distance from the candidate's midpoint to the stored
    line must both be within their thresholds."""
    d_stored = stored[:, 1] - stored[:, 0]
    angle = np.degrees(line_angles(d_stored, candidates[:, 1] - candidates[:, 0]))
    rel = 0.5 * (candidates[:, 0] + candidates[:, 1]) - stored[:, 0]
    d_hat = d_stored / row_norms(d_stored)[:, None]
    dist = row_norms(rel - row_dots(rel, d_hat)[:, None] * d_hat)
    return (angle <= angle_thresh_deg) & (dist <= dist_thresh)


def _refit_lines(samples: np.ndarray) -> np.ndarray:
    """Principal-axis fit through each stack of endpoint samples, samples
    (g, N, 3); the extreme projections onto each axis become that line's
    new endpoints, (g, 2, 3).

    The g fits share one stacked mean, one stacked ``np.linalg.svd`` and one
    stacked projection. Each of these runs the same kernel on each stack as
    on that stack alone (a mean down the rows, one LAPACK call, one
    matrix-vector product), so each fit equals a fit of its samples alone
    bit for bit."""
    center = samples.mean(axis=1)
    centered = samples - center[:, None]
    _, _, Vt = np.linalg.svd(centered, full_matrices=False)
    d_hat = Vt[:, 0]
    t = (centered @ d_hat[:, :, None])[:, :, 0]
    extremes = np.stack([t.min(axis=1), t.max(axis=1)], axis=1)
    return center[:, None] + extremes[:, :, None] * d_hat[:, None]


# ---------------------------------------------------------------------------
# trackers


def _transform_blocks(T: Pose, V) -> np.ndarray:
    """``T.transform`` of every block V[i] (k, 3) of V (n, k, 3) in one
    stacked product, bit-identical to one ``T.transform(V[i])`` per block.
    For single points (k = 1) the flat ``V.reshape(-1, 3) @ R.T`` is not:
    it rounds about half of the rows differently."""
    return V @ np.broadcast_to(T.rotation().T, (len(V), 3, 3)) + T.t


def _solve_frame(frame_id: int, P_w, u, intr, initial=None) -> PnPResult:
    """``solve_pnp`` for one frame of a tracker: a PnP failure becomes
    ``TrackingLostError`` naming the frame, raised from the original."""
    try:
        return solve_pnp(P_w, u, intr, initial=initial)
    except (DegenerateGeometryError, InsufficientDataError) as exc:
        raise TrackingLostError(frame_id, str(exc)) from exc


def track_frame_to_frame(seq: Sequence) -> list[Pose]:
    """Chain relative poses: back-project the previous frame's measured
    depths, match by landmark id, solve PnP in the previous camera frame.

    The first pose is anchored to ground truth (gauge fixing).
    """
    traj = [seq.gt_trajectory[0]]
    for j in range(1, len(seq.frames)):
        prev, frame = seq.frames[j - 1], seq.frames[j]
        index = {lid: i for i, lid in enumerate(prev.point_ids.tolist())}
        shared = [(index[lid], i) for i, lid in enumerate(frame.point_ids.tolist()) if lid in index]
        if len(shared) < 4:
            raise TrackingLostError(j, f"only {len(shared)} shared landmarks")
        a, b = np.array(shared).T
        P_prev = backproject(prev.point_pixels[a], prev.point_depths[a], seq.intrinsics)
        rel = _solve_frame(j, P_prev, frame.point_pixels[b], seq.intrinsics).pose
        traj.append(rel.compose(traj[j - 1]))
    return traj


def track_map_to_frame(seq: Sequence) -> tuple[list[Pose], SparseMap]:
    """Track against an incrementally fused map.

    The map starts from frame 0 at the ground-truth pose; each new frame
    is solved against the mapped points seen in it, then its measurements
    are back-projected and fused with ``SparseMap``'s default gates
    (co-visible ones update landmarks inside the gates, new ids are
    inserted).
    """
    intr = seq.intrinsics
    sparse_map = SparseMap()
    traj: list[Pose] = []
    for j, frame in enumerate(seq.frames):
        ids, u = frame.point_ids.tolist(), frame.point_pixels
        if j == 0:
            T = seq.gt_trajectory[0]
        else:
            known = [i for i, lid in enumerate(ids) if lid in sparse_map.points]
            if len(known) < 4:
                raise TrackingLostError(j, f"only {len(known)} mapped landmarks visible")
            P_w = np.array([sparse_map.points[ids[i]].position for i in known])
            T = _solve_frame(j, P_w, u[known], intr, initial=traj[j - 1]).pose
        traj.append(T)

        # fuse the frame: every point and every line endpoint back-projected
        # and moved to the world in one batch each
        T_inv = T.inverse()
        P_c = backproject(u, frame.point_depths, intr)
        sparse_map.fuse_points(_transform_blocks(T_inv, P_c[:, None, :])[:, 0, :], ids)
        ends_c = backproject(frame.line_pixels.reshape(-1, 2), frame.line_depths.reshape(-1),
                             intr).reshape(-1, 2, 3)
        sparse_map.fuse_lines(_transform_blocks(T_inv, ends_c), frame.line_ids.tolist())

    return traj, sparse_map
