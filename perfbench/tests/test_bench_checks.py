"""Tests of the benchmark's own checks: each one accepts the program's
output and rejects a perturbed copy of it.

    python3 -m pytest perfbench/tests -q
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import morsekit.cli  # noqa: E402

MK = types.SimpleNamespace(**{m: sys.modules[f"morsekit.{m}"]
                              for m in ("core", "props", "superfamily", "transform", "cli")})


# ---------------------------------------------------------------------------
# map_sweep
# ---------------------------------------------------------------------------


def _map_cells():
    b = np.array([0.55, 3.0, 9.0, 58.60182037, 60.0])
    g = np.array([0.3, 3.0, 1.0, 0.3215674, 30.0])
    return b, g, np.array([ref.heisenberg_area(x, y) for x, y in zip(b, g)])


def test_map_areas_accept_exact_values():
    b, g, a = _map_cells()
    assert checks.check_areas(b, g, a, range(len(a))) == []


def test_map_cell_below_half_is_rejected():
    b, g, a = _map_cells()
    a[1] = 0.4999999
    problems = checks.check_areas(b, g, a, [])  # the bound holds for every cell
    assert len(problems) == 1 and "below 1/2" in problems[0]


def test_map_cell_off_from_30_digit_value_is_rejected():
    b, g, a = _map_cells()
    a[3] *= 1 + 1e-8
    problems = checks.check_areas(b, g, a, range(len(a)))
    assert len(problems) == 1 and "30-digit" in problems[0]


def test_program_skewness_zero_passes_and_offset_is_rejected():
    p = MK.core.MorseParams
    from scipy.optimize import brentq

    rows = [(b, brentq(lambda g: MK.props.skewness_freq(p(b, g)), 0.3, 30.0,
                       xtol=1e-12, rtol=1e-10)) for b in (0.55, 5.0, 60.0)]
    assert checks.check_skewness_zero(rows, 60.0) == []
    moved = rows[:1] + [(rows[1][0], rows[1][1] * (1 + 1e-6))] + rows[2:]
    assert len(checks.check_skewness_zero(moved, 60.0)) == 1


def test_p_lines_reject_a_moved_beta():
    rows = [(3.0, 9.0 / g, g) for g in (0.5, 1.0, 7.0)]
    assert checks.check_p_lines(rows, [3.0]) == []
    rows[1] = (3.0, 9.0 * (1 + 1e-9), 1.0)
    assert len(checks.check_p_lines(rows, [3.0])) == 1


# ---------------------------------------------------------------------------
# bessel_fit
# ---------------------------------------------------------------------------


def test_trapezoid_alpha_sq_matches_program():
    sf = MK.superfamily
    for b, g in [(22.0, 0.1), (1.0, 0.02), (50.0, 2.0), (3.0, 0.5)]:
        prog = sf.similarity_alpha_sq(sf.gmw_wavelet(MK.core.MorseParams(b, g)),
                                      sf.bessel_wavelet())
        assert abs(prog - ref.bessel_alpha_sq(b, g)) <= checks.ALPHA_ATOL


@pytest.fixture(scope="module")
def fit12(tmp_path_factory):
    """A real 12x12 fit; the compass search stalls outside the box."""
    out = tmp_path_factory.mktemp("fit") / "t.csv"
    assert MK.cli.main(["besselfit", "--beta", "1:50:12", "--gamma", "0.02:2:12",
                        "--out", str(out)]) == 0
    meta, _, rows = checks.read_table(out)
    trace = [tuple(float(c) for c in r) for r in rows]
    best = tuple(float(meta[k]) for k in ("best_beta", "best_gamma", "best_alpha_sq"))
    return trace, best


def test_fit_checks_accept_program_output(fit12):
    trace, best = fit12
    assert checks.check_fit(trace, best, 12, workloads.BesselFit.BOX, [0, 50, 150]) == []
    assert not ref.in_box(best[0], best[1])  # the kept fault: counted as failed


def test_fit_point_moved_out_of_the_box_is_rejected():
    b, g, a2 = ref.bessel_optimum()
    assert ref.in_box(b, g)
    assert not ref.in_box(b + 2.5, g) and not ref.in_box(b, g - 0.03)


def test_fit_point_moved_is_rejected_by_alpha_sq(fit12):
    trace, best = fit12
    moved = (best[0] * 1.01, best[1], best[2])
    problems = checks.check_fit(trace, moved, 12, workloads.BesselFit.BOX, [])
    assert any("trapezoid" in p for p in problems)


def test_fit_alpha_sq_above_one_is_rejected(fit12):
    trace, best = fit12
    bad = list(trace)
    bad[7] = (bad[7][0], bad[7][1], 1.0000001)
    problems = checks.check_fit(bad, best, 12, workloads.BesselFit.BOX, [])
    assert any("outside (0, 1]" in p for p in problems)


# ---------------------------------------------------------------------------
# CWT
# ---------------------------------------------------------------------------


def test_scale_grid_matches_reference_and_moved_endpoint_is_rejected():
    p = MK.core.MorseParams(*workloads.WAVELET)
    grid = MK.transform.scale_grid(1 << 14, p, density=8)
    args = (1 << 14, *workloads.WAVELET, 8, 0.1, 5.0)
    assert checks.check_scales(grid.scales, *args) == []
    moved = grid.scales.copy()
    moved[0] *= 1 + 1e-9
    assert len(checks.check_scales(moved, *args)) >= 1


@pytest.mark.parametrize("boundary", ["periodic", "zero", "mirror"])
def test_cwt_column_off_by_1e_8_is_rejected(boundary):
    x = workloads._signal(np.random.default_rng(5), 3000)
    p = MK.core.MorseParams(*workloads.WAVELET)
    grid = MK.transform.scale_grid(len(x), p, density=4)
    res = MK.transform.transform(MK.transform.SignalBuffer(x), grid, boundary=boundary)
    reference = ref.CwtReference(x, boundary, *workloads.WAVELET)
    for j in (0, len(grid) // 2, len(grid) - 1):
        want = reference.column(grid.scales[j])
        got = res.coefficients[:, j]
        assert checks.check_column(got, want, "col") == []
        off = got.copy()
        off[len(off) // 3] += 1e-8 * np.abs(want).max()
        assert len(checks.check_column(off, want, "col")) == 1


class SmallCwtCsv(workloads.CwtCsv):
    N = 512


def _perturb_last_digit(path: Path, row: int, col: int):
    lines = path.read_text().split("\n")
    cells = lines[3 + row].split(",")
    re_part = repr(complex(cells[col]).real)
    digit = str((int(re_part[-1]) + 1) % 10)
    cells[col] = cells[col].replace(re_part, re_part[:-1] + digit, 1)
    lines[3 + row] = ",".join(cells)
    path.write_text("\n".join(lines))


def test_cwt_csv_program_output_passes(tmp_path):
    w = SmallCwtCsv(7, tmp_path)
    for _ in range(2):
        res = w.run_pass(MK, workloads.Clock())
        assert res.problems == [] and res.attempted == 1 and res.failed == 0


def test_cwt_csv_cell_not_shortest_repr_is_rejected(tmp_path):
    w = SmallCwtCsv(7, tmp_path)
    w.run_pass(MK, workloads.Clock())
    text = w.out.read_text().split("\n")
    cells = text[3 + 10].split(",")
    cells[4] = "0.30000000000000005+0.1j"  # parses to 0.30000000000000004
    text[3 + 10] = ",".join(cells)
    w.out.write_text("\n".join(text))
    _, _, problems = checks.read_cwt_csv(w.out, w.N, w.DT)
    assert any("shortest repr" in p for p in problems)


def test_cwt_csv_cell_off_in_last_digit_is_rejected(tmp_path):
    """A later pass that differs from the first in one digit fails the
    identical-bytes check, whether or not the new cell still round-trips."""
    w = SmallCwtCsv(7, tmp_path)
    assert w.run_pass(MK, workloads.Clock()).problems == []
    main = MK.cli.main

    def perturbed_main(argv):
        rc = main(argv)
        _perturb_last_digit(w.out, 100, 5)
        return rc

    fake = types.SimpleNamespace(**vars(MK))
    fake.cli = types.SimpleNamespace(main=perturbed_main)
    res = w.run_pass(fake, workloads.Clock())
    assert res.problems == ["a later pass wrote different bytes"]


def test_cwt_csv_column_off_by_1e_8_is_rejected(tmp_path):
    w = SmallCwtCsv(7, tmp_path)
    main = MK.cli.main

    def shifted_main(argv):
        rc = main(argv)
        lines = w.out.read_text().split("\n")
        cells = lines[3 + 40].split(",")
        v = complex(cells[9]) + 1e-8
        cells[9] = checks._canonical(v)
        lines[3 + 40] = ",".join(cells)
        w.out.write_text("\n".join(lines))
        return rc

    fake = types.SimpleNamespace(**vars(MK))
    fake.cli = types.SimpleNamespace(main=shifted_main)
    res = w.run_pass(fake, workloads.Clock())
    assert len(res.problems) == 1 and "column 8" in res.problems[0]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_layer_self_times_add_up_and_counts_are_exact():
    tracer = tracing.Tracer({m: sys.modules[m] for m in tracing.MODULES})
    tracer.install()
    try:
        x = np.cos(0.3 * np.arange(1000))
        p = MK.core.MorseParams(*workloads.WAVELET)
        grid = tracer.root(MK.transform.scale_grid, len(x), p, density=4)
        tracer.root(MK.transform.transform, MK.transform.SignalBuffer(x), grid,
                    boundary="mirror")
        spans = tracer.take()
    finally:
        tracer.uninstall()
    assert MK.transform.np is np and MK.cli.scale_grid is MK.transform.scale_grid
    selfs = tracing.self_times(spans)
    assert sum(selfs.values()) == pytest.approx(tracing.root_time(spans), rel=1e-9)
    cnt = tracing.counts(spans)
    assert cnt["transform.fft_points"] == (1 + len(grid)) * 2048
    assert cnt["transform.coeff_bytes"] == 1000 * len(grid) * 16
    assert cnt["core.spectrum.calls"] >= len(grid)
