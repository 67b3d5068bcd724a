"""The array heatmap writer against the per-cell renderer it replaced,
byte for byte."""

import numpy as np
import pytest

import handcoded
from noonbell import density_grid
from noonbell.svgplot import heatmap_svg

DIVERGING = (None, True, False)


def assert_same_bytes(values, modes=DIVERGING, **kwargs):
    for diverging in modes:
        args = (values, -3.0, 3.0)
        expected = handcoded.heatmap_svg(*args, diverging=diverging, **kwargs)
        assert heatmap_svg(*args, diverging=diverging, **kwargs) == expected


@pytest.mark.parametrize(
    "kind,n,count",
    [
        ("q-marginal", 2, 16),
        ("w-marginal", 2, 16),
        ("q-marginal", 3, 64),
        ("w-marginal", 3, 64),
        ("w-marginal", 40, 64),
        ("q-marginal", 2, 128),
        ("q-marginal", 1, 333),
        ("w-marginal", 1, 333),
    ],
)
def test_marginal_grids_match_per_cell_renderer(kind, n, count):
    grid = density_grid(kind, n, 3.0, count)
    modes = DIVERGING if count <= 64 else (grid.kind == "w-marginal",)  # the CLI's choice
    assert_same_bytes(grid.values, modes, title=f"{kind}, N = {n} <&>")


@pytest.mark.parametrize("exponent", [-200, -120, -40, 0, 40, 120, 200])
def test_random_grids_at_extreme_magnitudes(exponent):
    rng = np.random.default_rng(exponent + 1000)
    assert_same_bytes(rng.normal(size=(37, 37)) * 10.0**exponent)
    assert_same_bytes(rng.uniform(size=(20, 20)) * 10.0**exponent)


def test_every_anchor_boundary_and_half_channel():
    # t = k / 4096 is exact, so the grid hits every anchor (t = j/4 and j/2)
    # and every channel that lands on .5, where rounding is half to even
    t = np.arange(4097) / 4096
    grid = np.concatenate([t, np.ones(65 * 65 - t.size)]).reshape(65, 65)
    assert_same_bytes(grid)  # sequential: min 0 and max 1 make t = value
    assert_same_bytes(2.0 * grid - 1.0)  # diverging: peak 1 makes t = (value + 1) / 2


@pytest.mark.parametrize("value", [0.0795774715459477, -2.5, 1e-290, 0.0])
def test_constant_grid_draws_the_first_colour(value):
    svg = heatmap_svg(np.full((16, 16), value), -1.0, 1.0)
    first = "rgb(40,60,150)" if value < 0 else "rgb(68,1,84)"
    assert svg.count(f'fill="{first}"/>') == 256
    if abs(value) <= 1e-284:  # the per-cell renderer handles these already
        assert_same_bytes(np.full((16, 16), value))
