"""Tests for the experiment harness: report, loc, configs, runners."""

import pytest

from repro.apps import run_app
from repro.harness import (
    APP_NAMES,
    GPU_COUNTS,
    TABLE2_SIZES,
    TABLE3_SIZES,
    app_loc_counts,
    dataset_for,
    efficiency_curve,
    render_series,
    render_table,
    sample_factor_for,
    strong_scaling_sizes,
    table1,
    table4,
)
from repro.harness.experiments import chunk_elements_for, mm_tile_for
from repro.harness.loc import count_loc


# -- report -------------------------------------------------------------------

def test_render_table_alignment():
    text = render_table(["a", "bee"], [[1, 2.5], [100, 0.001]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bee" in lines[1]
    assert len({len(l) for l in lines[1:]}) == 1  # consistent width


def test_render_table_float_formatting():
    text = render_table(["x"], [[0.00001], [12345.6], [1.5], [0]])
    assert "1e-05" in text
    assert "1.23e+04" in text
    assert "1.500" in text


def test_render_series_pads_missing():
    text = render_series("x", [1, 2, 3], [("s", [10, 20])])
    assert "3" in text  # row exists even without a y value


# -- loc -------------------------------------------------------------------

def test_count_loc_ignores_comments_and_docstrings(tmp_path):
    f = tmp_path / "m.py"
    f.write_text(
        '"""Module docstring\nspanning lines."""\n'
        "# comment\n"
        "\n"
        "x = 1  # trailing comment still counts the line\n"
        "def f():\n"
        '    """doc"""\n'
        "    return x\n"
    )
    assert count_loc(f) == 3  # "x = 1", "def f():", "return x"


def test_app_loc_counts_cover_all_apps():
    counts = app_loc_counts()
    assert set(counts) == {"MM", "KMC", "WO", "SIO", "LR"}
    for app, n in counts.items():
        assert 50 < n < 700, (app, n)


# -- experiment configs ---------------------------------------------------

def test_gpu_counts_match_paper():
    assert GPU_COUNTS == (1, 4, 8, 16, 32, 64)


def test_strong_scaling_sizes_quick_subset():
    full = strong_scaling_sizes("SIO")
    quick = strong_scaling_sizes("SIO", quick=True)
    assert set(quick) <= set(full)
    assert len(quick) < len(full)


def test_sample_factor_keeps_functional_size_bounded():
    for app in APP_NAMES:
        for size in strong_scaling_sizes(app):
            sf = sample_factor_for(app, size)
            if app == "MM":
                assert mm_tile_for(size) // sf >= 32
            else:
                assert size // sf <= 4 << 20


def test_chunk_policy_gives_parallelism_at_table_sizes():
    # Table 2/3 runs use 4 GPUs: every dataset must have >= 4 chunks.
    for app, size in {**TABLE2_SIZES, **TABLE3_SIZES}.items():
        ds = dataset_for(app, size)
        assert ds.n_chunks >= 4, (app, size, ds.n_chunks)


def test_chunk_policy_bounds():
    m = 1 << 20
    assert chunk_elements_for("SIO", 1 * m) == 1 * m
    assert chunk_elements_for("SIO", 1024 * m) == 16 * m
    with pytest.raises(ValueError):
        chunk_elements_for("MM", 1024)


def test_dataset_for_unknown_app():
    with pytest.raises(ValueError):
        dataset_for("FFT", 100)


def test_mm_tile_rule():
    assert mm_tile_for(16384) == 1024
    assert mm_tile_for(1024) == 256
    assert mm_tile_for(128) == 64


# -- runners ----------------------------------------------------------------

@pytest.mark.parametrize("app", ["SIO", "WO", "KMC", "LR", "MM"])
def test_run_app_all_apps_small(app):
    size = 256 if app == "MM" else 1 << 20
    ds = dataset_for(app, size, seed=1)
    run = run_app(app, ds, 2)
    assert run.elapsed > 0
    assert run.n_gpus == 2
    assert abs(sum(run.stats.stage_fractions.values()) - 1.0) < 1e-9


def test_run_app_unknown():
    with pytest.raises(ValueError):
        run_app("NOPE", None, 1)


def test_efficiency_curve_structure():
    curve = efficiency_curve("LR", 1 << 20, gpu_counts=(1, 2, 4))
    assert curve.gpu_counts == [1, 2, 4]
    assert curve.efficiency_at(1) == pytest.approx(1.0)
    assert len(curve.speedups) == 3
    assert all(s > 0 for s in curve.speedups)


# -- cheap tables -----------------------------------------------------------

def test_table1_is_static():
    t = table1()
    assert "Dataset sizes" in t.render()


def test_table4_counts_render():
    t = table4()
    text = t.render()
    assert "GPMR (this repo)" in text
    assert "397" in text  # paper's WO figure appears
