import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobilabel import initlabel
from mobilabel.errors import DimensionMismatch, NonPositiveDepth
from mobilabel.initlabel import (
    CameraIntrinsics,
    DbscanParams,
    InstanceLabel,
    LabelSet,
    _core,
    _level_cut,
    _window,
    binarize_motion,
    dbscan_partition,
    make_initial_labels,
    project,
    unproject,
)
from mobilabel.io import read_motion, write_motion
from mobilabel.maskcore import PreparedMask, rle_decode, rle_encode
from mobilabel.synthgen import SceneSpec, generate_scene

from oracles import dbscan_ref

K_PLAIN = CameraIntrinsics(fx=50.0, fy=50.0, cx=10.0, cy=10.0)


def masks_to_pixel_sets(masks):
    return {frozenset(zip(*np.nonzero(m))) for m in masks}


def clusters_from_ref(points, params):
    ordered = sorted(points, key=lambda p: (p[0], p[1]))
    return set(dbscan_ref(ordered, params.eps, params.min_pts, params.pixel_window))


# -- binarize ----------------------------------------------------------

def test_binarize_basic():
    m = np.array([[0.5, 0.0], [0.10, 0.09]])
    out = binarize_motion(m, 0.1)
    assert out[0, 0] and not out[0, 1]
    assert out[1, 0]  # boundary is inclusive
    assert not out[1, 1]


def test_binarize_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        binarize_motion(np.array([[1.5]]), 0.1)
    with pytest.raises(ValueError):
        binarize_motion(np.array([[np.nan]]), 0.1)
    with pytest.raises(ValueError):
        binarize_motion(np.zeros(4, dtype=np.uint8), 0.1)


_CUTS = np.arange(256) / 255.0
# every level's probability and the floats either side of it, within [0, 1]
_THRESHOLDS = [t for t in (*_CUTS, *np.nextafter(_CUTS, -np.inf), *np.nextafter(_CUTS, np.inf))
               if 0 <= t <= 1]


def test_level_cut_selects_what_binarize_motion_selects(tmp_path):
    p = tmp_path / "m.pgm"
    write_motion(p, np.arange(256).reshape(16, 16) / 255.0)
    levels = read_motion(p)
    assert np.array_equal(levels.ravel(), np.arange(256))
    motion = levels / 255.0
    for t in _THRESHOLDS:
        assert np.array_equal(levels >= _level_cut(t), binarize_motion(motion, t)), t


def test_binarize_motion_cuts_levels_as_their_probabilities():
    levels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    for t in _THRESHOLDS:
        assert np.array_equal(binarize_motion(levels, t), binarize_motion(levels / 255.0, t)), t


@pytest.mark.parametrize("threshold", [np.nan, True, -0.1, np.nextafter(1.0, 2.0), "0.1", None])
def test_a_motion_threshold_outside_the_unit_interval_is_refused(threshold):
    # NaN once cut nothing, so a frame with moving objects gave no instances
    depth, motion, k, _ = generate_scene(SceneSpec(seed=1), 0)
    assert len(make_initial_labels(depth, motion, k, DbscanParams(), motion_threshold=0.1).instances) == 2
    with pytest.raises(ValueError, match="threshold"):
        make_initial_labels(depth, motion, k, DbscanParams(), motion_threshold=threshold)
    for m in (motion, np.round(motion * 255).astype(np.uint8)):
        with pytest.raises(ValueError, match="threshold"):
            binarize_motion(m, threshold)


# -- unproject ---------------------------------------------------------

def test_unproject_identity_intrinsics():
    k = CameraIntrinsics(fx=1, fy=1, cx=0, cy=0)
    depth = np.full((5, 5), 4.0)
    moving = np.zeros((5, 5), dtype=bool)
    moving[3, 2] = True
    (p,) = unproject(depth, k, moving)
    assert tuple(p) == (3, 2, 8.0, 12.0, 4.0)


def test_unproject_principal_point():
    k = CameraIntrinsics(fx=2, fy=2, cx=1, cy=1)
    depth = np.full((3, 3), 5.0)
    moving = np.zeros((3, 3), dtype=bool)
    moving[1, 1] = True
    (p,) = unproject(depth, k, moving)
    assert tuple(p[2:]) == (0.0, 0.0, 5.0)


def test_unproject_nonpositive_depth():
    depth = np.full((2, 2), 1.0)
    depth[1, 0] = 0.0
    moving = np.ones((2, 2), dtype=bool)
    with pytest.raises(NonPositiveDepth) as exc:
        unproject(depth, K_PLAIN, moving)
    assert (exc.value.row, exc.value.col) == (1, 0)


@pytest.mark.parametrize("dtype", [np.float32, np.int32, np.uint16])
def test_unproject_widens_any_depth_dtype_like_float64(dtype):
    rng = np.random.default_rng(3)
    depth = (rng.integers(1, 60, (9, 11)) * 1.5).astype(dtype)
    moving = rng.random((9, 11)) < 0.4
    got = unproject(depth, K_PLAIN, moving)
    assert got.dtype == np.float64
    assert np.array_equal(got, unproject(depth.astype(np.float64), K_PLAIN, moving))


def test_unproject_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        unproject(np.ones((2, 2)), K_PLAIN, np.ones((2, 3), dtype=bool))


def unproject_2d_ref(depth, k, moving):
    """unproject by a 2-D scan of the mask and fancy indexing of the depth."""
    rows, cols = np.nonzero(moving)
    d = depth[rows, cols].astype(np.float64)
    return np.column_stack((rows, cols, (cols - k.cx) / k.fx * d, (rows - k.cy) / k.fy * d, d))


@pytest.mark.parametrize("case", ["fortran", "strided", "int-mask", "empty", "full"])
def test_unproject_matches_a_2d_scan(case):
    rng = np.random.default_rng(5)
    k = CameraIntrinsics(fx=700.0, fy=650.0, cx=8.5, cy=6.0)
    depth = rng.uniform(0.5, 60.0, (13, 17))
    moving = rng.random((13, 17)) < 0.3
    if case == "fortran":
        depth, moving = np.asfortranarray(depth), np.asfortranarray(moving)
    elif case == "strided":
        depth = rng.uniform(0.5, 60.0, (26, 51))[::2, ::3]
    elif case == "int-mask":
        moving = moving.astype(np.int64)
    elif case == "empty":
        moving = np.zeros_like(moving)
    else:
        moving = np.ones_like(moving)
    got = unproject(depth, k, moving)
    assert got.shape == (np.count_nonzero(moving), 5)
    assert np.array_equal(got, unproject_2d_ref(depth, k, moving != 0))


def test_unproject_names_the_row_major_first_bad_pixel():
    depth = np.full((3, 4), 2.0)
    depth[2, 0] = 0.0  # first in column-major order
    depth[0, 3] = -1.0  # first in row-major order
    with pytest.raises(NonPositiveDepth) as exc:
        unproject(np.asfortranarray(depth), K_PLAIN, np.ones((3, 4), dtype=bool))
    assert (exc.value.row, exc.value.col, exc.value.value) == (0, 3, -1.0)


@given(
    st.floats(10, 2000),
    st.floats(10, 2000),
    st.floats(-500, 500),
    st.floats(-500, 500),
    st.integers(0, 1199),
    st.integers(0, 1199),
    st.floats(0.1, 500),
)
def test_unproject_reprojects_to_source_pixel(fx, fy, cx, cy, row, col, d):
    k = CameraIntrinsics(fx, fy, cx, cy)
    depth = np.full((1200, 1200), d)
    moving = np.zeros((1200, 1200), dtype=bool)
    moving[row, col] = True
    (p,) = unproject(depth, k, moving)
    v, u = project(p, k)
    assert abs(v - row) < 1e-9 and abs(u - col) < 1e-9


# -- dbscan ------------------------------------------------------------

def points_from(depth, moving, k=K_PLAIN):
    return unproject(depth, k, moving)


def test_dbscan_two_distant_blobs():
    moving = np.zeros((20, 70), dtype=bool)
    moving[2:8, 2:8] = True
    moving[2:8, 52:58] = True
    depth = np.full((20, 70), 10.0)
    params = DbscanParams(eps=1.0, min_pts=4, pixel_window=10)
    pts = points_from(depth, moving)
    got = dbscan_partition(pts, params, moving.shape)
    assert len(got) == 2
    assert masks_to_pixel_sets(got) == clusters_from_ref(pts, params)


def test_dbscan_single_blob_uniform_depth():
    moving = np.zeros((20, 20), dtype=bool)
    moving[3:9, 3:6] = True
    moving[8:12, 5:11] = True  # 8-connected extension
    depth = np.full((20, 20), 10.0)
    params = DbscanParams(eps=1.0, min_pts=4, pixel_window=10)
    pts = points_from(depth, moving)
    got = dbscan_partition(pts, params, moving.shape)
    assert len(got) == 1
    assert np.array_equal(got[0], moving)


def test_dbscan_depth_separates_adjacent_blobs():
    moving = np.zeros((12, 20), dtype=bool)
    moving[2:8, 2:7] = True   # at 5 m
    moving[2:8, 7:12] = True  # at 50 m, touching the first in 2D
    depth = np.full((12, 20), 5.0)
    depth[:, 7:] = 50.0
    params = DbscanParams(eps=1.0, min_pts=4, pixel_window=10)
    k = CameraIntrinsics(fx=60.0, fy=60.0, cx=10.0, cy=6.0)  # pixel pitch 0.83 m at 50 m
    pts = points_from(depth, moving, k)
    got = dbscan_partition(pts, params, moving.shape)
    assert len(got) == 2
    assert masks_to_pixel_sets(got) == clusters_from_ref(pts, params)
    areas = sorted(int(m.sum()) for m in got)
    assert areas == [30, 30]


def test_dbscan_all_noise_gives_empty():
    moving = np.zeros((30, 30), dtype=bool)
    moving[5, 5] = True
    moving[25, 25] = True
    depth = np.full((30, 30), 10.0)
    pts = points_from(depth, moving)
    assert dbscan_partition(pts, DbscanParams(min_pts=4), moving.shape) == []


def test_dbscan_empty_points():
    assert dbscan_partition([], DbscanParams(), (4, 4)) == []


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_dbscan_matches_bruteforce_on_random_scenes(seed):
    rng = np.random.default_rng(seed)
    h = w = 24
    n_pix = int(rng.integers(1, 140))
    flat = rng.choice(h * w, size=n_pix, replace=False)
    moving = np.zeros((h, w), dtype=bool)
    moving[np.unravel_index(flat, (h, w))] = True
    depth = rng.choice([4.0, 4.3, 9.0, 30.0], size=(h, w)) + rng.normal(0, 0.05, (h, w))
    depth = np.clip(depth, 0.5, None)
    k = CameraIntrinsics(fx=float(rng.uniform(10, 80)), fy=float(rng.uniform(10, 80)),
                         cx=w / 2, cy=h / 2)
    params = DbscanParams(
        eps=float(rng.choice([0.4, 1.0, 2.5])),
        min_pts=int(rng.integers(1, 9)),
        pixel_window=int(rng.choice([1, 2, 3, 5, 7, 10, 11])),
    )
    pts = unproject(depth, k, moving)
    got = dbscan_partition(pts, params, (h, w))
    assert masks_to_pixel_sets(got) == clusters_from_ref(pts, params)
    union = np.zeros((h, w), dtype=bool)
    total = 0
    for m in got:
        union |= m
        total += int(m.sum())
    assert not (union & ~moving).any()  # clusters only on moving pixels
    assert total == int(union.sum())    # pairwise disjoint


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_dbscan_invariant_to_point_order(seed):
    rng = np.random.default_rng(seed)
    moving = rng.random((20, 20)) < 0.25
    depth = rng.choice([5.0, 20.0], size=(20, 20))
    pts = points_from(depth, moving)
    if len(pts) == 0:
        return
    params = DbscanParams(eps=1.5, min_pts=3, pixel_window=7)
    base = dbscan_partition(pts, params, moving.shape)
    shuffled = [tuple(p) for p in pts]  # a list of tuples clusters like the array
    rng.shuffle(shuffled)
    perm = dbscan_partition(shuffled, params, moving.shape)
    assert len(base) == len(perm)
    for a, b in zip(base, perm):
        assert np.array_equal(a, b)


def test_dbscan_border_point_joins_earliest_created_cluster():
    # the border point (1, 4) is within eps of core (2, 3) of cluster A and
    # core (1, 3) of cluster B; A is created first, at (0, 0), so the point
    # joins A although B's neighbor of it comes first in (row, col) order
    a = [(0, 0, 0.0), (0, 1, 0.1), (0, 2, 0.2), (2, 3, 0.3)]
    b = [(1, 0, 2.5), (1, 1, 2.4), (1, 2, 2.3), (1, 3, 2.2)]
    pts = [(r, c, x, 0.0, 10.0) for r, c, x in a + b + [(1, 4, 1.25)]]
    params = DbscanParams(eps=1.0, min_pts=4, pixel_window=11)
    got = dbscan_partition(pts, params, (3, 5))
    assert [set(zip(*np.nonzero(m))) for m in got] == [
        {(0, 0), (0, 1), (0, 2), (2, 3), (1, 4)}, {(1, 0), (1, 1), (1, 2), (1, 3)}]
    assert masks_to_pixel_sets(got) == clusters_from_ref(pts, params)


def test_dbscan_rejects_two_points_on_one_pixel():
    pts = [(1, 1, 0.0, 0.0, 5.0), (2, 2, 0.0, 0.1, 5.0), (1, 1, 0.1, 0.0, 5.0)]
    with pytest.raises(ValueError):
        dbscan_partition(pts, DbscanParams(), (4, 4))


def test_dbscan_orders_by_box_corner_not_first_pixel():
    # a is an L whose box corner (0, 0) is background: its first foreground
    # pixel in row-major order, (0, 6), comes after b's (0, 2), but its box
    # corner comes first. Depth alone keeps the two apart.
    a = np.zeros((8, 10), dtype=bool)
    a[:, 6] = True
    a[7, :7] = True
    b = np.zeros((8, 10), dtype=bool)
    b[0:3, 2:4] = True
    pts = [(r, c, 0.0, 0.0, z) for m, z in ((b, 50.0), (a, 5.0)) for r, c in zip(*np.nonzero(m))]
    got = dbscan_partition(pts, DbscanParams(), (8, 10))
    assert len(got) == 2
    assert np.array_equal(got[0], a) and np.array_equal(got[1], b)


# Neighbors are read off a flat index raster padded by the window
# half-width. An offset that wrapped across a row would pair points at the
# ends of adjacent rows; these layouts put points where that shows.

def scatter_points(rng, cells):
    """(row, col, x, y, z) points on the given pixels, in 3D loosely spaced
    like the pixels so that about half the window pairs lie within eps 1."""
    cells = sorted(cells)
    jitter = rng.normal(0, 0.5, (len(cells), 2))
    depth = rng.choice([10.0, 10.3, 12.0], len(cells))
    return [(r, c, 0.3 * c + jx, 0.3 * r + jy, z)
            for (r, c), (jx, jy), z in zip(cells, jitter, depth)]


def box_cells(rng, h, w, fill):
    """A random subset of an h x w pixel box placed at (5, 7)."""
    flat = rng.choice(h * w, size=max(1, round(fill * h * w)), replace=False)
    return [(5 + int(f) // w, 7 + int(f) % w) for f in flat]


@pytest.mark.parametrize("layout, pixel_window", [
    ("row", 3), ("row", 10), ("row", 21),
    ("column", 3), ("column", 10), ("column", 21),
    ("narrow", 11), ("narrow", 21),
    ("square", 2), ("square", 4),
])
@pytest.mark.parametrize("seed", range(4))
def test_dbscan_flat_raster_layouts_match_bruteforce(layout, pixel_window, seed):
    rng = np.random.default_rng(seed)
    h, w = {"row": (1, 40), "column": (40, 1), "narrow": (int(rng.integers(2, 6)), 3),
            "square": (12, 12)}[layout]
    pts = scatter_points(rng, box_cells(rng, h, w, 0.6))
    for min_pts in (1, 2, 3, 5):
        params = DbscanParams(eps=1.0, min_pts=min_pts, pixel_window=pixel_window)
        got = dbscan_partition(pts, params, (60, 60))
        assert masks_to_pixel_sets(got) == clusters_from_ref(pts, params)


@pytest.mark.parametrize("min_pts", [1, 2])
def test_dbscan_pixel_window_one_has_no_neighbors(min_pts):
    # no pixel offsets at all: every point is its own cluster, or noise
    pts = scatter_points(np.random.default_rng(0), [(0, 0), (0, 1), (1, 0), (3, 3)])
    params = DbscanParams(eps=5.0, min_pts=min_pts, pixel_window=1)
    got = dbscan_partition(pts, params, (4, 4))
    assert masks_to_pixel_sets(got) == clusters_from_ref(pts, params)
    assert len(got) == (4 if min_pts == 1 else 0)


@pytest.mark.parametrize("axis", [2, 3, 4])
@pytest.mark.parametrize("eps", [1.0, 0.5, 0.25])
def test_dbscan_pair_exactly_eps_apart_are_neighbors(axis, eps):
    a = [1, 2, 0.0, 0.0, 10.0]
    params = DbscanParams(eps=eps, min_pts=2, pixel_window=3)
    for far, clusters in ((a[axis] + eps, 1), (np.nextafter(a[axis] + eps, np.inf), 0)):
        b = [1, 3, 0.0, 0.0, 10.0]
        b[axis] = far
        got = dbscan_partition([a, b], params, (3, 5))
        assert len(got) == clusters
        assert masks_to_pixel_sets(got) == clusters_from_ref([a, b], params)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_window_steps_reach_each_forward_neighbor_once_nearest_first(seed):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    pts = np.array(scatter_points(rng, box_cells(rng, h, w, rng.uniform(0.1, 1.0))))
    half = int(rng.choice([1, 2, 3, 4, 5, 10, 11, 21])) // 2
    rows, cols = pts[:, 0].astype(np.int64), pts[:, 1].astype(np.int64)
    raster, at, steps = _window(rows, cols, half)
    assert len(steps) == ((2 * half + 1) ** 2 - 1) // 2
    got, offset = [], {}
    for s in steps:
        for i in range(len(pts)):
            j = int(raster[at[i] + s])
            if j >= 0:
                got.append((i, j))
                # one step is one pixel offset: a step that wrapped to
                # another row would reach some points at another offset
                assert offset.setdefault(s, (rows[j] - rows[i], cols[j] - cols[i])) == \
                    (rows[j] - rows[i], cols[j] - cols[i])
    want = {(i, j) for i in range(len(pts)) for j in range(len(pts))
            if (rows[j], cols[j]) > (rows[i], cols[i])
            and rows[j] - rows[i] <= half and abs(cols[j] - cols[i]) <= half}
    assert len(got) == len(set(got))  # each pair once
    assert set(got) == want
    # on a full forward window every step reaches its offset from the
    # point at (0, half): the offsets come nearest first
    full = np.array([(r, c) for r in range(half + 1) for c in range(2 * half + 1)])
    raster, at, steps = _window(full[:, 0], full[:, 1], half)
    reached = [tuple(full[raster[at[half] + s]] - (0, half)) for s in steps]
    assert sorted(reached) == sorted((dr, dc) for dr in range(half + 1)
                                     for dc in range(-half if dr else 1, half + 1))
    dist = [dr * dr + dc * dc for dr, dc in reached]
    assert dist == sorted(dist)


def dense_cloud(rng):
    """Points on a box of up to 20 x 20 pixels at fill 0.5 to 1.0, 0.2 apart
    in x and y, on two or three depth layers: bands of columns with a tenth
    of the pixels moved to another layer. Most points reach min_pts within
    a few steps and most window pairs fall in sets already joined."""
    h, w = int(rng.integers(1, 21)), int(rng.integers(1, 21))
    cells = np.array(sorted(box_cells(rng, h, w, rng.uniform(0.5, 1.0))))
    depths = rng.choice([10.0, 10.5, 12.0, 15.0], int(rng.integers(2, 4)), replace=False)
    layer = (cells[:, 1] - 7) * len(depths) // w
    moved = rng.random(len(cells)) < 0.1
    layer[moved] = rng.integers(0, len(depths), int(moved.sum()))
    jitter = rng.normal(0, 0.05, (len(cells), 3))
    return [(int(r), int(c), 0.2 * c + jx, 0.2 * r + jy, depths[l] + jz)
            for (r, c), l, (jx, jy, jz) in zip(cells, layer, jitter)]


def dense_params(rng):
    return DbscanParams(eps=float(rng.choice([0.3, 0.6, 1.0, 2.0])),
                        min_pts=int(rng.integers(1, 41)),
                        pixel_window=int(rng.choice([1, 2, 3, 5, 10, 11, 21])))


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_dbscan_matches_bruteforce_on_dense_clouds(seed):
    # dense enough that the core pass runs out of open points and the
    # union pass skips pairs already joined
    rng = np.random.default_rng(seed)
    pts, params = dense_cloud(rng), dense_params(rng)
    got = dbscan_partition(pts, params, (30, 30))
    assert masks_to_pixel_sets(got) == clusters_from_ref(pts, params)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_core_points_are_those_with_min_pts_neighbors(seed):
    rng = np.random.default_rng(seed)
    pts, params = np.array(dense_cloud(rng)), dense_params(rng)
    rows, cols = pts[:, 0].astype(np.int64), pts[:, 1].astype(np.int64)
    half, eps2 = params.pixel_window // 2, params.eps * params.eps
    d = [pts[:, None, a] - pts[None, :, a] for a in (2, 3, 4)]
    neighbor = ((np.abs(rows[:, None] - rows[None, :]) <= half)
                & (np.abs(cols[:, None] - cols[None, :]) <= half)
                & (d[0] * d[0] + d[1] * d[1] + d[2] * d[2] <= eps2))
    raster, at, steps = _window(rows, cols, half)
    got = _core(np.ascontiguousarray(pts[:, 2:].T), raster, at, steps, eps2, params.min_pts)
    assert np.array_equal(got, neighbor.sum(axis=1) >= params.min_pts)


def test_dbscan_computes_few_distances_on_a_dense_cloud(monkeypatch):
    # a work count, not a timing: both passes together may compute at most
    # a quarter of the distances of the two full passes over every
    # in-window pair
    rng = np.random.default_rng(0)
    cells = box_cells(rng, 60, 80, 0.9)
    depth = np.where(np.array([c for _, c in cells]) < 47, 14.0, 18.0) + rng.normal(0, 0.05, len(cells))
    pts = [(r, c, 0.02 * c, 0.02 * r, z) for (r, c), z in zip(cells, depth)]
    params = DbscanParams()
    half, taken = params.pixel_window // 2, set(cells)
    candidates = sum((r + dr, c + dc) in taken for r, c in cells
                     for dr in range(half + 1) for dc in range(-half if dr else 1, half + 1))
    near, computed = initlabel._near, []

    def counting(xyz, i, j, eps2):
        computed.append(len(i))
        return near(xyz, i, j, eps2)

    monkeypatch.setattr(initlabel, "_near", counting)
    got = dbscan_partition(pts, params, (70, 90))
    assert len(got) == 2
    assert sum(computed) <= 2 * candidates / 4


# -- contour baseline: 8-connected components of the motion blob ------

def contour_blobs(moving):
    """The depth-blind baseline: DBSCAN over flat points, 8-neighbors only."""
    pts = [(r, c, 0.0, 0.0, 0.0) for r, c in zip(*np.nonzero(moving))]
    return dbscan_partition(pts, DbscanParams(min_pts=1, pixel_window=3), moving.shape)


def test_contour_two_regions():
    moving = np.zeros((10, 10), dtype=bool)
    moving[1:3, 1:3] = True
    moving[6:9, 6:9] = True
    assert len(contour_blobs(moving)) == 2


def test_contour_merges_depth_separated_objects():
    # the known failure of the depth-blind baseline
    moving = np.zeros((12, 20), dtype=bool)
    moving[2:8, 2:7] = True
    moving[2:8, 7:12] = True
    assert len(contour_blobs(moving)) == 1


def test_contour_empty():
    assert contour_blobs(np.zeros((5, 5), dtype=bool)) == []


# -- end-to-end L0 ------------------------------------------------------

def test_make_initial_labels_zero_motion():
    out = make_initial_labels(np.full((16, 16), 5.0), np.zeros((16, 16)), K_PLAIN,
                              DbscanParams(), frame_id="f0")
    assert out.frame_id == "f0"
    assert out.instances == []


def test_make_initial_labels_min_area_filter():
    motion = np.zeros((30, 30))
    motion[4:7, 4:7] = 1.0  # 9 px blob
    out = make_initial_labels(np.full((30, 30), 5.0), motion, K_PLAIN,
                              DbscanParams(min_pts=3), min_area=16)
    assert out.instances == []


def test_make_initial_labels_two_objects():
    motion = np.zeros((20, 40))
    motion[2:8, 2:8] = 0.9
    motion[10:17, 20:28] = 0.8
    depth = np.full((20, 40), 8.0)
    out = make_initial_labels(depth, motion, K_PLAIN, DbscanParams(), min_area=16)
    assert [i.instance_id for i in out.instances] == [0, 1]
    assert all(i.score == 1.0 for i in out.instances)
    areas = sorted(i.area for i in out.instances)
    assert areas == [36, 56]


def test_make_initial_labels_ignores_static_objects():
    motion = np.zeros((20, 40))
    motion[2:8, 2:8] = 1.0          # moving
    static_mask = np.zeros((20, 40), dtype=bool)
    static_mask[10:16, 20:30] = True  # static object: depth structure, no motion
    depth = np.full((20, 40), 8.0)
    depth[static_mask] = 3.0
    out = make_initial_labels(depth, motion, K_PLAIN, DbscanParams(), min_area=16)
    assert len(out.instances) == 1
    got = rle_decode(out.instances[0].mask)
    assert not (got & static_mask).any()


# -- label containers ----------------------------------------------------

def test_instance_label_rejects_bad_score():
    m = np.ones((2, 2), dtype=bool)
    with pytest.raises(ValueError):
        InstanceLabel.from_mask(m, score=1.5, instance_id=0)


def test_label_set_rejects_duplicate_ids():
    m = np.ones((2, 2), dtype=bool)
    a = InstanceLabel.from_mask(m, 1.0, 3)
    b = InstanceLabel.from_mask(m, 0.5, 3)
    with pytest.raises(ValueError):
        LabelSet("f", 2, 2, [a, b])


def test_label_set_rejects_foreign_mask_shape():
    a = InstanceLabel.from_mask(np.ones((2, 2), dtype=bool), 1.0, 0)
    with pytest.raises(DimensionMismatch):
        LabelSet("f", 4, 4, [a])


def test_instance_from_prepared_mask_equals_from_frame():
    m = np.zeros((6, 9), dtype=bool)
    m[2:5, 3] = True
    m[4, 3:8] = True
    crop = PreparedMask.from_bits(m[1:6, 2:9], 1, 2, m.shape)
    assert InstanceLabel.from_mask(crop, 0.5, 1) == InstanceLabel.from_mask(m, 0.5, 1)


def test_instance_area_from_rle():
    m = np.zeros((4, 4), dtype=bool)
    m[1:3, 1:4] = True
    inst = InstanceLabel.from_mask(m, 1.0, 0)
    assert inst.area == 6
    assert rle_encode(rle_decode(inst.mask)) == inst.mask
