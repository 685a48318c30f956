"""Region rasters: exactness, containment, SVG determinism."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opsplit import figures
from opsplit.calculus import INParams, compose_general
from opsplit.errors import DomainError
from opsplit.figures import (
    PRESET_NAMES,
    Raster,
    class_region,
    composition_region_exact,
    emit_svg,
    preset_figure,
    region_membership,
)

from conftest import disk_contains, marked_points, raster_contains


def test_class_region_named_disks():
    for p in (INParams(0.0, 0.8), INParams(0.7, 0.7), INParams(0.5, 0.5), INParams(-0.2, 1.2)):
        assert class_region(p) is p


def test_region_membership_known_points():
    p = INParams(0.5, 0.5)
    pts = np.array(
        [
            [1.0, 0.0],   # identity edge: on the boundary
            [0.0, 0.0],   # zero map is reachable
            [0.0, 0.5],   # tangency of an intermediate disk
            [-1.0 / 3.0, 0.0],  # inside the certified disk but not reachable
            [1.01, 0.0],  # beyond the tangency point
        ]
    )
    got = region_membership(pts, p, p)
    assert got.tolist() == [True, True, True, False, False]


def test_region_membership_negative_second_identity_coefficient():
    # second factor conic 1.7: alpha2 = -0.7 flips the sweep orientation
    p1, p2 = INParams(0.5, 0.5), INParams(-0.7, 1.7)
    pts = np.array([[(0.5 + 0.5) * (-0.7 + 1.7), 0.0], [2.5, 0.0]])
    got = region_membership(pts, p1, p2)
    assert got.tolist() == [True, False]


def test_raster_idempotent_and_symmetric():
    p = INParams(0.5, 0.5)
    r1 = composition_region_exact(p, p, 128)
    r2 = composition_region_exact(p, p, 128)
    assert np.array_equal(r1.grid, r2.grid)
    assert np.array_equal(r1.grid, r1.grid[::-1])  # mirror symmetry in y


def test_raster_contained_in_certified_disk():
    p = INParams(0.5, 0.5)
    r = composition_region_exact(p, p, 256)
    disk = class_region(compose_general(p, p))
    pts = marked_points(r)
    assert disk_contains(disk, pts).all()
    assert raster_contains(r, (1.0, 0.0))  # boundary contact at the marker


def test_identity_second_factor_reproduces_first_disk():
    p1 = INParams(0.3, 0.7)
    r = composition_region_exact(p1, INParams(1.0, 0.0), 128)
    d1 = class_region(p1)
    assert disk_contains(d1, marked_points(r)).all()
    # and disk points are marked up to one pixel of dilation
    for ang in np.linspace(0, 2 * np.pi, 40):
        pt = (0.3 + 0.69 * np.cos(ang), 0.69 * np.sin(ang))
        assert raster_contains(r, pt, dilate=1)


def test_degenerate_first_disk_is_a_point_sweep():
    r = composition_region_exact(INParams(0.5, 0.0), INParams(0.5, 0.5), 128)
    # region = disk around (0.25, 0) with radius 0.25
    pts = marked_points(r)
    d = INParams(0.25, 0.25)
    assert disk_contains(d, pts).all()
    assert raster_contains(r, (0.5, 0.0), dilate=1)
    assert not raster_contains(r, (-0.2, 0.0), dilate=1)


def test_identity_edge_point_always_marked():
    for p1, p2 in (
        (INParams(0.5, 0.5), INParams(0.5, 0.5)),
        (INParams(0.3, 0.7), INParams(0.4, 0.6)),
        (INParams(-0.7, 1.7), INParams(0.55, 0.45)),
    ):
        r = composition_region_exact(p1, p2, 128)
        pt = ((p1.alpha + p1.beta) * (p2.alpha + p2.beta), 0.0)
        assert raster_contains(r, pt, dilate=1)


def test_failing_conic_pair_region_extends_past_marker():
    # parameter product 1.7*0.7 > 1: the region reaches beyond (1, 0), so no
    # disk anchored at the marker and extending only leftward can contain it
    p1, p2 = INParams(-0.7, 1.7), INParams(0.3, 0.7)
    r = composition_region_exact(p1, p2, 256)
    pts = marked_points(r)
    assert pts[:, 0].max() > 1.0 + r.pixel
    # while the certified pair (1.7, 0.45) stays weakly left of the marker
    ok = composition_region_exact(INParams(-0.7, 1.7), INParams(0.55, 0.45), 256)
    assert marked_points(ok)[:, 0].max() <= 1.0 + 1e-12


def test_relaxed_region_is_shifted_and_shrunk():
    p1, p2 = INParams(0.5, 0.5), INParams(0.5, 0.5)
    w = 0.5
    r = composition_region_exact(p1, p2, 128, relax_weight=w)
    # the relaxed region is (1-w)*e + w*(base region)
    base = region_membership(np.array([[0.0, 0.0], [1.0, 0.0]]), p1, p2)
    assert base.tolist() == [True, True]
    assert raster_contains(r, (0.5, 0.0), dilate=1)  # image of the origin
    assert raster_contains(r, (1.0, 0.0), dilate=1)  # image of the marker
    assert not raster_contains(r, (-0.4, 0.0), dilate=1)


def test_resolution_floor():
    with pytest.raises(DomainError):
        composition_region_exact(INParams(0.5, 0.5), INParams(0.5, 0.5), 32)
    # used to fail with a TypeError on slice indices
    for bad in (64.5, True, "64", None):
        with pytest.raises(DomainError) as e:
            composition_region_exact(INParams(0.5, 0.5), INParams(0.5, 0.5), bad)
        assert str(e.value) == f"resolution must be an integer >= 64, got {bad!r}"
    r = composition_region_exact(INParams(0.5, 0.5), INParams(0.5, 0.5), np.int64(64))
    assert np.array_equal(r.grid, composition_region_exact(INParams(0.5, 0.5),
                                                           INParams(0.5, 0.5), 64).grid)


# ---------------------------------------------------------------------------
# SVG


def test_svg_single_disk_has_one_region_circle():
    text = emit_svg([(INParams(0.0, 0.8), {"fill": "none", "stroke": "#000000"})])
    assert text.count("<circle") == 3  # region + unit guide + marker dot
    assert 'stroke-dasharray' in text


def test_svg_of_a_descriptor_region_is_its_disk():
    # a circle of radius beta about (alpha, 0), on a canvas sized by |alpha| + beta
    style = {"fill": "none", "stroke": "#1f6fb4", "stroke-width": "1.5"}
    assert emit_svg([(INParams(-0.2, 1.2), style)]) == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="600" height="600" '
        'viewBox="0 0 600 600">\n'
        '<rect width="600" height="600" fill="#ffffff"/>\n'
        '<line x1="0" y1="300.0000" x2="600" y2="300.0000" stroke="#cccccc" stroke-width="1"/>\n'
        '<line x1="300.0000" y1="0" x2="300.0000" y2="600" stroke="#cccccc" stroke-width="1"/>\n'
        '<circle cx="259.1837" cy="300.0000" r="244.8980" fill="none" stroke="#1f6fb4" '
        'stroke-width="1.5"/>\n'
        '<circle cx="300.0000" cy="300.0000" r="204.0816" fill="none" stroke="#999999" '
        'stroke-dasharray="4,4" stroke-width="1"/>\n'
        '<circle cx="504.0816" cy="300.0000" r="3" fill="#000000"/>\n'
        '</svg>\n'
    )


def test_svg_empty_regions_has_guides_only():
    text = emit_svg([])
    assert text.count("<circle") == 2
    assert "<path" not in text


def test_svg_deterministic(tmp_path):
    regions, markers = preset_figure("averaged-averaged-0.5-0.5", resolution=128)
    a = emit_svg(regions, markers, tmp_path / "a.svg")
    b = emit_svg(regions, markers, tmp_path / "b.svg")
    assert a == b
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_all_presets_render():
    for name in PRESET_NAMES:
        regions, markers = preset_figure(name, resolution=64 if name != "single-class" else 512)
        text = emit_svg(regions, markers)
        assert text.startswith("<?xml") and text.endswith("</svg>\n")
    with pytest.raises(DomainError):
        preset_figure("unknown")


# ---------------------------------------------------------------------------
# Reference implementations: the per-point meshgrid raster and the per-pixel
# run-length loop that the broadcast raster and the np.diff runs replaced.
# The rewrite keeps every float operation, so results must be bit-equal.


def _reference_membership(points, p1, p2):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    a1, b1 = p1.alpha, p1.beta
    a2, b2 = p2.alpha, p2.beta
    c = np.array([a1, 0.0])
    rho_max = abs(a1) + b1
    if a2 == 0.0:
        return np.hypot(pts[:, 0], pts[:, 1]) <= b2 * rho_max
    w = pts / a2
    k = b2 / abs(a2)
    nw = np.hypot(w[:, 0], w[:, 1])
    s = 1.0 - k * k
    lhs = np.hypot(w[:, 0] - s * c[0], w[:, 1] - s * c[1])
    if s > 0.0:
        return lhs <= k * nw + s * b1
    if s < 0.0:
        return lhs >= k * nw + s * b1
    return w @ c + b1 * nw >= 0.5 * nw * nw


def _meshgrid_points(extent, resolution, w):
    ax = -extent + (2.0 * extent / resolution) * np.arange(resolution + 1)
    gx, gy = np.meshgrid(ax, ax)
    shifted = np.column_stack([gx.ravel(), gy.ravel()])
    shifted[:, 0] -= 1.0 - w
    shifted /= w
    return shifted, gx.shape


def _reference_grid(p1, p2, resolution=512, relax_weight=1.0):
    w = relax_weight
    base = (abs(p1.alpha) + p1.beta) * (abs(p2.alpha) + p2.beta)
    extent = abs(1.0 - w) + w * base
    if extent == 0.0:
        extent = 1.0
    pts, shape = _meshgrid_points(extent, resolution, w)
    return _reference_membership(pts, p1, p2).reshape(shape), extent


def _reference_region(p1, p2, resolution=512, relax_weight=1.0):
    grid, extent = _reference_grid(p1, p2, resolution, relax_weight)
    return _dense_raster(grid, np.arange(len(grid)), extent, resolution)


def _runs_of(rows):
    """The ``(row, first, last)`` runs of a dense grid of rows, found by the
    edge scan the raster path ran before rasters stored runs."""
    distinct = rows.astype(bool, copy=False)
    m, n = distinct.shape
    edges = np.empty((m, n + 1), bool)
    edges[:, 0], edges[:, n] = distinct[:, 0], distinct[:, -1]
    np.not_equal(distinct[:, 1:], distinct[:, :-1], out=edges[:, 1:n])
    rows, cols = np.divmod(np.flatnonzero(edges), n + 1)
    return np.column_stack((rows[::2], cols[::2], cols[1::2] - 1))


def _dense_raster(rows, row_of, extent, resolution):
    """The raster whose grid row ``j`` is ``rows[row_of[j]]``."""
    return Raster(_runs_of(rows), row_of, extent, resolution)


def _reference_raster_path(raster, tx, ty, attr_text):
    h = raster.pixel
    half = h / 2.0
    ax = raster.axis()
    parts = []
    for j in range(raster.grid.shape[0]):
        row = raster.grid[j]
        i = 0
        n = len(row)
        while i < n:
            if row[i]:
                i0 = i
                while i < n and row[i]:
                    i += 1
                x0 = tx(ax[i0] - half)
                x1 = tx(ax[i - 1] + half)
                y0 = ty(ax[j] + half)
                y1 = ty(ax[j] - half)
                parts.append(
                    f"M {figures._fmt(x0)} {figures._fmt(y0)} H {figures._fmt(x1)} "
                    f"V {figures._fmt(y1)} H {figures._fmt(x0)} Z"
                )
            else:
                i += 1
    return f'<path d="{" ".join(parts)}" {attr_text}/>'


@pytest.mark.parametrize("resolution", [64, 128, 129])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_svg_bytes_match_reference(name, resolution, monkeypatch):
    regions, markers = preset_figure(name, resolution)
    text = emit_svg(regions, markers)
    monkeypatch.setattr(figures, "composition_region_exact", _reference_region)
    monkeypatch.setattr(figures, "_raster_path", _reference_raster_path)
    ref_regions, ref_markers = preset_figure(name, resolution)
    for (got, _), (ref, _) in zip(regions, ref_regions):
        if isinstance(got, Raster):
            assert got.grid.dtype == ref.grid.dtype and np.array_equal(got.grid, ref.grid)
    assert text.encode() == emit_svg(ref_regions, ref_markers).encode()


def _hand_grids(n=64):
    m = n + 1
    edges = np.zeros((m, m), bool)
    edges[:, :3] = edges[:, -3:] = True
    edges[5, :] = True
    single = np.zeros((m, m), bool)
    single[[0, 0, 7, m - 1, m - 1], [0, m - 1, 30, 0, m - 1]] = True
    alternating = np.zeros((m, m), bool)
    alternating[:, ::2] = True
    alternating[1::2] = ~alternating[1::2]
    return {
        "empty": np.zeros((m, m), bool),
        "full": np.ones((m, m), bool),
        "edges": edges,
        "single": single,
        "alternating": alternating,
        "random": np.random.default_rng(3).random((m, m)) < 0.5,
        "counts": np.random.default_rng(4).integers(0, 3, (m, m)),
    }


@pytest.mark.parametrize("kind", sorted(_hand_grids()))
def test_hand_made_grid_svg_matches_reference(kind, monkeypatch):
    grid = _hand_grids()[kind]
    regions = [(_dense_raster(grid, np.arange(len(grid)), 1.3, 64), {"fill": "#b8b8b8"})]
    text = emit_svg(regions)
    monkeypatch.setattr(figures, "_raster_path", _reference_raster_path)
    assert text.encode() == emit_svg(regions).encode()
    if kind == "empty":
        assert '<path d="" fill="#b8b8b8"/>' in text


_SIGN_OF_S = {"s>0": (0.0, 0.95), "s<0": (1.05, 3.0)}


@st.composite
def _descriptor_pairs(draw):
    p1 = INParams(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 2.0)))
    case = draw(st.sampled_from(["s>0", "s<0", "s==0", "a2==0"]))
    if case == "a2==0":
        return p1, INParams(0.0, draw(st.floats(0.0, 2.0))), case
    a2 = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    if case == "s==0":
        return p1, INParams(a2, abs(a2)), case
    return p1, INParams(a2, abs(a2) * draw(st.floats(*_SIGN_OF_S[case]))), case


@settings(max_examples=200, deadline=None)
@given(_descriptor_pairs(), st.one_of(st.just(1.0), st.floats(0.01, 3.0)),
       st.sampled_from([64, 65]))
def test_broadcast_raster_is_bit_equal_to_meshgrid(pair, w, resolution):
    p1, p2, case = pair
    k = p2.beta / abs(p2.alpha) if p2.alpha else 0.0
    s = 1.0 - k * k
    assert {"s>0": s > 0, "s<0": s < 0, "s==0": s == 0, "a2==0": p2.alpha == 0}[case]
    r = composition_region_exact(p1, p2, resolution, relax_weight=w)
    pts, shape = _meshgrid_points(r.extent, resolution, w)
    assert np.array_equal(r.grid, region_membership(pts, p1, p2).reshape(shape))
    assert np.array_equal(r.grid, _reference_region(p1, p2, resolution, w).grid)


# ---------------------------------------------------------------------------
# Non-finite inputs are rejected where they enter


@pytest.mark.parametrize("w", [float("inf"), float("nan"), 1e308])
def test_relax_weight_must_give_finite_extent(w):
    with pytest.raises(DomainError):
        composition_region_exact(INParams(0.5, 0.5), INParams(0.5, 0.5), 64, relax_weight=w)


def test_overflowing_descriptors_are_rejected():
    big = INParams(1e200, 1e200)
    with pytest.raises(DomainError):
        composition_region_exact(big, big, 64)


def test_raster_contains_far_points_are_outside():
    r = composition_region_exact(INParams(0.5, 0.5), INParams(0.5, 0.5), 64)
    for point in ((1e308, 0.0), (0.0, -1.7e308), (1e300, 1e300)):
        assert not raster_contains(r, point, dilate=2)


def test_region_membership_rejects_non_finite_points():
    p = INParams(0.5, 0.5)
    for bad in ([[0.0, float("inf")]], [[float("nan"), 0.0]]):
        with pytest.raises(DomainError):
            region_membership(np.array(bad), p, p)


@pytest.mark.parametrize(
    "regions, markers",
    [
        ([(_dense_raster(np.zeros((65, 65), bool), np.arange(65), float("inf"), 64), {})], ()),
        ([], [(float("inf"), 0.0)]),
        ([], [(0.0, float("nan"))]),
        ([], [(1.75e308, 0.0)]),
    ],
)
def test_emit_svg_rejects_non_finite_inputs(regions, markers, tmp_path):
    out = tmp_path / "x.svg"
    with pytest.raises(DomainError):
        emit_svg(regions, markers, out)
    assert not out.exists()


# ---------------------------------------------------------------------------
# The screened raster: a sqrt screen on the distinct |y| rows, with
# _membership deciding every pixel whose screened margin is too small to sign.


@st.composite
def _scaled_descriptor_pairs(draw):
    def scale():
        return 10.0 ** draw(st.floats(-170.0, 150.0))

    s1, s2 = scale(), scale()
    b1 = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))) * s1
    p1 = INParams(draw(st.floats(-2.0, 2.0)) * s1, b1)
    case = draw(st.sampled_from(["s>0", "s<0", "s==0", "a2==0"]))
    if case == "a2==0":
        return p1, INParams(0.0, draw(st.floats(0.0, 2.0)) * s2), case
    a2 = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([-1.0, 1.0])) * s2
    if case == "s==0":
        return p1, INParams(a2, abs(a2)), case
    return p1, INParams(a2, abs(a2) * draw(st.floats(*_SIGN_OF_S[case]))), case


@settings(max_examples=300, deadline=None)
@given(_scaled_descriptor_pairs(), st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
       st.sampled_from([64, 65, 100]))
def test_screened_raster_is_bit_equal_to_reference_over_scales(pair, w, resolution):
    p1, p2, case = pair
    k = p2.beta / abs(p2.alpha) if p2.alpha else 0.0
    s = 1.0 - k * k
    assert {"s>0": s > 0, "s<0": s < 0, "s==0": s == 0, "a2==0": p2.alpha == 0}[case]
    r = composition_region_exact(p1, p2, resolution, relax_weight=w)
    with np.errstate(all="ignore"):
        ref = _reference_region(p1, p2, resolution, w)
    assert r.extent == ref.extent
    assert np.array_equal(r.grid, ref.grid)


# The raster's runs come straight from the tile signs and the screened
# blocks.  Resolution 1023 gives n % 16 == 0 and 300 gives 13-column edge
# tiles.  The example's region is the single point (-1, 0), which no pixel
# centre hits at an odd resolution, so no tile is left undecided.
@settings(max_examples=100, deadline=None)
@given(_scaled_descriptor_pairs(), st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
       st.sampled_from([64, 65, 100, 300, 1023]))
@example((INParams(0.5, 0.5), INParams(0.0, 0.0), "a2==0"), 2.0, 65)
def test_raster_runs_are_the_runs_of_the_reference_grid(pair, w, resolution):
    p1, p2, _ = pair
    r = composition_region_exact(p1, p2, resolution, relax_weight=w)
    with np.errstate(all="ignore"):
        grid, extent = _reference_grid(p1, p2, resolution, w)
    _, first = np.unique(r.row_of, return_index=True)
    assert r.extent == extent and np.array_equal(grid, grid[first][r.row_of])
    assert r.runs.shape[1] == 3 and np.array_equal(r.runs, _runs_of(grid[first]))


def test_point_region_leaves_no_tile_undecided():
    p1, p2, w = INParams(0.5, 0.5), INParams(0.0, 0.0), 2.0
    xs, ys = _tile_inputs(p1, p2, 65, w)
    decided, _ = figures._signed_tiles(xs, ys, p1, p2)
    assert decided.all()
    assert composition_region_exact(p1, p2, 65, relax_weight=w).runs.shape == (0, 3)


def test_screen_falls_back_to_membership_on_the_boundary(monkeypatch):
    # extent 1 at resolution 128 puts pixel centres exactly on the origin,
    # on the marker (1, 0) and on the tangency points (0, +-0.5), all of
    # which lie on the region's boundary, so the screen cannot sign them.
    p = INParams(0.5, 0.5)
    exact, sizes = figures._membership, []

    def counting(x, y, p1, p2):
        sizes.append(np.broadcast(x, y).size)
        return exact(x, y, p1, p2)

    monkeypatch.setattr(figures, "_membership", counting)
    r = composition_region_exact(p, p, 128)
    assert 0 < sum(sizes) <= 16
    ref = _reference_region(p, p, 128)
    assert np.array_equal(r.grid, ref.grid)
    for point in ((0.0, 0.0), (1.0, 0.0), (0.0, 0.5), (0.0, -0.5)):
        assert raster_contains(r, point)


@pytest.mark.parametrize("resolution", [512, 2048])
@pytest.mark.parametrize("name", [n for n in PRESET_NAMES if n != "single-class"])
def test_preset_grid_and_svg_match_reference_at_benchmark_resolutions(name, resolution,
                                                                      monkeypatch):
    regions, markers = preset_figure(name, resolution)
    text = emit_svg(regions, markers)
    monkeypatch.setattr(figures, "composition_region_exact", _reference_region)
    ref_regions, ref_markers = preset_figure(name, resolution)
    rasters = [(got, ref) for (got, _), (ref, _) in zip(regions, ref_regions)
               if isinstance(got, Raster)]
    assert len(rasters) == 1
    for got, ref in rasters:
        assert got.grid.dtype == ref.grid.dtype and np.array_equal(got.grid, ref.grid)
    assert text.encode() == emit_svg(ref_regions, ref_markers).encode()


# ---------------------------------------------------------------------------
# The tile pass: whole tiles signed from one Lipschitz-bounded centre margin.


def _tile_inputs(p1, p2, resolution, w):
    ax = composition_region_exact(p1, p2, resolution, relax_weight=w).axis()
    return (ax - (1.0 - w)) / w, np.unique(np.abs(ax / w))


# At resolution 65 a tile spans a quarter of each axis, so the curvature
# term of the tile bound is large against the gradient term.  The two
# explicit examples sign a pixel wrongly if that term is dropped, halved
# (s == 0) or used without its 2*rad guard (s > 0).
@settings(max_examples=200, deadline=None)
@given(st.one_of(_descriptor_pairs(), _scaled_descriptor_pairs()),
       st.one_of(st.just(1.0), st.floats(1e-3, 1e3)), st.sampled_from([65, 257, 300]))
@example((INParams(1.6, 1.9), INParams(1.2, 1.2), "s==0"), 1.0, 65)
@example((INParams(-0.5, 0.5), INParams(0.5, 0.4), "s>0"), 1.0, 65)
def test_signed_tiles_agree_with_membership_at_every_pixel(pair, w, resolution):
    p1, p2, _ = pair
    xs, ys = _tile_inputs(p1, p2, resolution, w)
    with np.errstate(all="ignore"):
        decided, inside = figures._signed_tiles(xs, ys, p1, p2)
        exact = figures._membership(xs[None, :], ys[:, None], p1, p2)
    heights, widths = figures._tile_sizes(len(ys)), figures._tile_sizes(len(xs))
    assert decided.shape == inside.shape == (len(heights), len(widths))
    signed = np.repeat(np.repeat(decided, heights, axis=0), widths, axis=1)
    sign = np.repeat(np.repeat(inside, heights, axis=0), widths, axis=1)
    assert np.array_equal(exact[signed], sign[signed])


def test_tiles_keep_most_pixels_from_the_screen(monkeypatch):
    # The boundary of the region crosses O(n) of the n^2 pixels, so at the
    # benchmark's top resolution most tiles are signed whole.
    screened, pixels = figures._screened, []

    def counting(x, y, p1, p2):
        pixels.append(np.broadcast(x, y).size)
        return screened(x, y, p1, p2)

    monkeypatch.setattr(figures, "_screened", counting)
    regions, _ = preset_figure("conic-conic-1.7-0.45", 2048)
    ax = regions[0][0].axis()
    assert 0 < sum(pixels) <= 0.25 * len(ax) * len(np.unique(np.abs(ax)))


@pytest.mark.parametrize("resolution, share", [(512, 0.25), (2048, 0.05)])
def test_curvature_keeps_the_conic_pair_from_the_screen(resolution, share, monkeypatch):
    # The margin of conic-conic-1.7-0.45 has gradient 1 + k = 1.82 at most
    # but near 1 - k = 0.18 along much of its boundary; the Taylor bound at
    # each tile centre keeps the undecided band a few tiles wide.
    screened, pixels = figures._screened, []

    def counting(x, y, p1, p2):
        pixels.append(np.broadcast(x, y).size)
        return screened(x, y, p1, p2)

    monkeypatch.setattr(figures, "_screened", counting)
    regions, _ = preset_figure("conic-conic-1.7-0.45", resolution)
    ax = regions[0][0].axis()
    assert 0 < sum(pixels) <= share * len(ax) * len(np.unique(np.abs(ax)))


# ---------------------------------------------------------------------------
# Raster paths: every run formatted by _format_runs, byte-equal to the loop.


@st.composite
def _bool_rasters(draw):
    """A raster of random rows and those rows: either a whole grid, or
    distinct rows with a random, unsorted and repeating ``row_of``."""
    m = draw(st.integers(65, 300))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extent = 10.0 ** draw(st.floats(-300.0, 300.0))
    if not draw(st.booleans()):
        rows = rng.random((m, m)) < density
        return _dense_raster(rows, np.arange(m), extent, m - 1), rows
    rows = rng.random((draw(st.integers(1, m)), m)) < density
    return _dense_raster(rows, rng.integers(0, len(rows), m), extent, m - 1), rows


@settings(max_examples=100, deadline=None)
@given(_bool_rasters())
def test_raster_path_is_byte_equal_to_the_run_loop(drawn):
    raster, rows = drawn
    grid = rows[raster.row_of]
    assert raster.grid.dtype == bool and np.array_equal(raster.grid, grid)
    style = {"fill": "#b8b8b8", "stroke": "none"}
    text = emit_svg([(raster, style)])
    # The reference loop reads the materialised grid of a whole-grid raster.
    whole = _dense_raster(grid, np.arange(len(grid)), raster.extent, raster.resolution)
    assert np.array_equal(whole.grid, grid) and np.array_equal(whole.row_of, np.arange(len(grid)))
    with mock.patch.object(figures, "_raster_path", _reference_raster_path):
        assert text.encode() == emit_svg([(whole, style)]).encode()


def _path_numbers(seed: int, m: int) -> np.ndarray:
    """An ``(m, 5)`` array of numbers in the formatter's domain ``[1, 9999)``,
    each drawn from one of: uniform values, binary fractions ``k/2**j`` (some
    are exact 4-decimal ties: the k/2**5 with odd k) and the floats on both
    sides of the double nearest a 4-decimal tie."""
    rng = np.random.default_rng(seed)
    n = 5 * m
    uniform = rng.uniform(1.0, 9999.0, n)
    scale = 2 ** rng.integers(0, 31, n)
    fractions = rng.integers(scale, 9999 * scale) / scale
    near = (rng.integers(10**4, 9999 * 10**4, n) + 0.5) / 1e4
    near = np.nextafter(near, near + rng.choice([-np.inf, 0.0, np.inf], n))
    return np.choose(rng.integers(0, 3, n), (uniform, fractions, near)).reshape(m, 5)


@settings(max_examples=300, deadline=None)
@given(st.builds(_path_numbers, st.integers(0, 2**32 - 1), st.integers(0, 50)))
@example([])
@example([1.0, float(np.nextafter(9999.0, 0)), 9998.99995, 1.00005, 590.03125])
def test_format_runs_prints_every_number_as_percent_does(numbers):
    values = np.array(numbers, float).reshape(-1, 5)
    expected = " ".join([figures._RUN] * len(values)) % tuple(values.ravel().tolist())
    assert figures._format_runs(values) == expected


@pytest.mark.parametrize("bad", [
    -2.0**48, -0.03125, -5e-5, -0.0, 0.0, 5e-324, 1e-300, 2.0**-15, 0.03125, 0.09375,
    float(np.nextafter(1.0, 0)), 9999.0, 9999.99995, 1e4, 99999999.99995, 1e12, 1e12 + 2.0**-5,
    float(np.nextafter(2.0**48, 0)), 2.0**48, 1e300, np.inf, -np.inf, np.nan,
])
def test_format_runs_rejects_values_past_its_limit(bad):
    values = np.full((3, 5), 300.0)
    values[1, 2] = bad
    with pytest.raises(DomainError, match=r"must be in \[1, 9999\)"):
        figures._format_runs(values)


# ---------------------------------------------------------------------------
# The blocked screen: every undecided tile in one call, edge tiles filled out
# with points past the grid, so each pixel is screened at most once.


@pytest.mark.parametrize("resolution", [65, 300, 2048])
@pytest.mark.parametrize("p1, p2, w", [
    (INParams(0.5, 0.5), INParams(0.5, 0.5), 1.0),
    (INParams(-0.7, 1.7), INParams(0.55, 0.45), 1.0),
    (INParams(-0.95, 1.95), INParams(0.5, 0.5), 0.04),
])
def test_each_pixel_is_screened_once(p1, p2, w, resolution, monkeypatch):
    screened, exact = figures._screened, figures._membership
    at_screen, at_membership = [], []

    def counting_screen(x, y, p1, p2):
        at_screen.append(np.broadcast_arrays(x, y))
        return screened(x, y, p1, p2)

    def counting_membership(x, y, p1, p2):
        at_membership.extend(zip(*(a.ravel().tolist() for a in np.broadcast_arrays(x, y))))
        return exact(x, y, p1, p2)

    monkeypatch.setattr(figures, "_screened", counting_screen)
    monkeypatch.setattr(figures, "_membership", counting_membership)
    r = composition_region_exact(p1, p2, resolution, relax_weight=w)
    monkeypatch.undo()
    assert np.array_equal(r.grid, _reference_region(p1, p2, resolution, w).grid)

    xs, ys = _tile_inputs(p1, p2, resolution, w)
    with np.errstate(all="ignore"):
        decided, _ = figures._signed_tiles(xs, ys, p1, p2)
    heights, widths = figures._tile_sizes(len(ys)), figures._tile_sizes(len(xs))
    undecided = np.repeat(np.repeat(~decided, heights, axis=0), widths, axis=1)

    assert len(at_screen) == 1
    x, y = (a.ravel() for a in at_screen[0])
    on_grid = (x <= xs[-1]) & (y <= ys[-1])
    i, j = np.searchsorted(xs, x[on_grid]), np.searchsorted(ys, y[on_grid])
    assert np.array_equal(xs[i], x[on_grid]) and np.array_equal(ys[j], y[on_grid])
    times = np.zeros(undecided.shape, int)
    np.add.at(times, (j, i), 1)
    assert np.array_equal(times, undecided)
    assert len(set(at_membership)) == len(at_membership)
