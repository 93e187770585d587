import ast
import io
import json
import math
import os
import struct
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from morsekit import core, props, superfamily
from morsekit.cli import _fmt, main
from morsekit.core import MorseParams, peak_frequency
from morsekit.transform import SignalBuffer, scale_grid, transform

CLI = sys.modules["morsekit.cli"]


def run(*argv):
    return main(list(argv))


def _read_csv(path):
    """(columns, rows-as-strings) skipping comment lines."""
    lines = [
        ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")
    ]
    cols = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return cols, rows


@pytest.fixture()
def cosine_file(tmp_path):
    n = 1024
    w0 = 2.0 * np.pi * 100 / n
    path = tmp_path / "cosine.txt"
    body = "\n".join(repr(float(v)) for v in np.cos(w0 * np.arange(n)))
    path.write_text("# dt=1\n" + body + "\n")
    return path, w0


class TestProps:
    def test_values(self, tmp_path, capsys):
        out = tmp_path / "props.csv"
        assert run("props", "9,3", "--out", str(out)) == 0
        cols, rows = _read_csv(out)
        row = dict(zip(cols, rows[0]))
        assert float(row["char_frequency"]) == pytest.approx(3 ** (1 / 3), rel=1e-12)
        assert float(row["duration"]) == pytest.approx(math.sqrt(27.0), rel=1e-12)

    def test_beta_zero_row(self, tmp_path):
        out = tmp_path / "props.csv"
        assert run("props", "0,2", "--out", str(out)) == 0
        cols, rows = _read_csv(out)
        row = dict(zip(cols, rows[0]))
        assert float(row["char_frequency"]) == pytest.approx(
            math.log(2.0) ** 0.5, rel=1e-12
        )
        assert row["sigma_t"] == "inf"
        assert row["sigma_omega"] == ""
        assert row["skewness"] == ""

    def test_stdout_when_no_out(self, capsys):
        assert run("props", "1,1") == 0
        captured = capsys.readouterr().out
        assert "heisenberg_area" in captured

    def test_bad_pair(self, capsys):
        assert run("props", "1;1") == 2
        assert "error:" in capsys.readouterr().err

    def test_more_than_six_pairs(self, tmp_path, capsys):
        pairs = ["9,3", "3,3", "0,2", "0.4,3", "60,0.3", "58.6,0.32", "0.55,30", "1,1", "2,0.05"]
        out = tmp_path / "props.csv"
        assert run("props", *pairs, "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        lines = out.read_text().splitlines()
        assert lines[0] == "# morsekit props format=csv pairs=[(9.0, 3.0)..(2.0, 0.05)]x9"
        _, rows = _read_csv(out)
        assert [(float(r[0]), float(r[1])) for r in rows] == [
            tuple(float(v) for v in p.split(",")) for p in pairs
        ]


class TestMap:
    def test_out_with_suffix_is_a_directory(self, tmp_path):
        out = tmp_path / "out.v2"
        assert run("map", "--beta", "1,2", "--gamma", "1,2", "--out", str(out)) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "constant_p_lines.csv", "heisenberg_map.csv",
            "localization_border.csv", "skewness_zero.csv",
        ]

    def test_small_map(self, tmp_path):
        out = tmp_path / "map"
        assert (
            run(
                "map",
                "--out", str(out),
                "--beta", "0.3:60:14",  # dips below 1/2 to exercise inf cells
                "--gamma", "0.3:30:12",
            )
            == 0
        )
        cols, rows = _read_csv(out / "heisenberg_map.csv")
        assert cols == ["beta", "gamma", "heisenberg_area"]
        assert len(rows) == 14 * 12
        areas = [r[2] for r in rows]
        finite = [float(a) for a in areas if a != "inf"]
        assert all(a >= 0.5 - 1e-9 for a in finite)
        assert any(a == "inf" for a in areas)  # beta <= 1/2 cells

        # zero-skewness rows for beta > 2 cross in (2, 5)
        _, sk = _read_csv(out / "skewness_zero.csv")
        for b_str, g_str in sk:
            if float(b_str) > 2.0:
                assert 2.0 < float(g_str) < 5.0

        _, loc = _read_csv(out / "localization_border.csv")
        for g_str, b_str in loc:
            assert float(b_str) == pytest.approx((float(g_str) - 1.0) / 2.0)

        _, plines = _read_csv(out / "constant_p_lines.csv")
        for p_str, b_str, g_str in plines:
            assert float(b_str) * float(g_str) == pytest.approx(
                float(p_str) ** 2, rel=1e-9
            )

    def test_cell_value(self, tmp_path):
        out = tmp_path / "map"
        assert run("map", "--out", str(out), "--beta", "1", "--gamma", "1") == 0
        _, rows = _read_csv(out / "heisenberg_map.csv")
        assert float(rows[0][2]) == pytest.approx(math.sqrt(0.75), rel=1e-10)

    def test_requires_out(self, capsys):
        assert run("map") == 2
        assert "required" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--beta", "--gamma"])
    def test_empty_list_rejected_before_writing(self, tmp_path, capsys, flag):
        out = tmp_path / "map"
        out.mkdir()
        assert run("map", "--out", str(out), flag, ",") == 2
        assert capsys.readouterr().err == "error: list must hold at least one value (got ',')\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("p_lines, shown", [("-3", "-3.0"), ("1,nan", "nan"), ("inf", "inf")])
    def test_bad_p_lines_rejected_before_writing(self, tmp_path, capsys, p_lines, shown):
        out = tmp_path / "map"
        argv = ["map", "--out", str(out), "--beta", "1,2", "--gamma", "1,2"]
        assert run(*argv, f"--p-lines={p_lines}") == 2
        assert capsys.readouterr().err == (
            f"error: p-lines must be finite and >= 0 (got {shown})\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("gamma, p_lines, shown", [
        ("1:2:2", "1e200", "P=1e+200, gamma=1.0"),  # P^2 overflows and raises
        ("0.5:2:2", "1e154", "P=1e+154, gamma=0.5"),  # P^2 is finite, P^2/gamma inf
        ("1:2:2", "1,1e-200", "P=1e-200, gamma=1.0"),  # beta underflows to 0 while P > 0
    ])
    def test_p_lines_beyond_double_range_rejected_before_writing(self, tmp_path, capsys,
                                                                 gamma, p_lines, shown):
        out = tmp_path / "map"
        assert run("map", "--out", str(out), "--beta", "1:2:2", "--gamma", gamma,
                   "--p-lines", p_lines) == 2
        assert capsys.readouterr().err == (
            f"error: p-lines: beta = P^2/gamma is beyond double range at {shown}\n"
        )
        assert not out.exists()

    def test_p_lines_finite_beta_written_when_p_squared_overflows(self, tmp_path):
        out = tmp_path / "map"
        assert run("map", "--out", str(out), "--beta", "1:2:2", "--gamma", "100:400:2",
                   "--p-lines", "1e155") == 0
        _, plines = _read_csv(out / "constant_p_lines.csv")
        assert plines == [["1e+155", "1e+308", "100.0"], ["1e+155", "2.5e+307", "400.0"]]

    @pytest.mark.parametrize(
        "beta, gamma, error",
        [
            ("-1,2", "1,2", "beta must be finite and >= 0 (got -1.0)"),
            ("1,nan", "1,2", "beta must be finite and >= 0 (got nan)"),
            ("1,2", "0,1", "gamma must be finite and > 0 (got 0.0)"),
            ("1,2", "1,-0.5", "gamma must be finite and > 0 (got -0.5)"),
            ("0,0.3,0.5,4", "1,3,9", None),
        ],
    )
    def test_guards(self, tmp_path, capsys, beta, gamma, error):
        out = tmp_path / "map"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run("map", "--out", str(out), f"--beta={beta}", f"--gamma={gamma}")
        err = capsys.readouterr().err
        if error is not None:
            assert rc == 2
            assert err == f"error: {error}\n"
            return
        assert rc == 0 and err == ""
        _, rows = _read_csv(out / "heisenberg_map.csv")
        for b, _, a in rows:
            assert (a == "inf") == (float(b) <= 0.5)
        # beta = 0 has no skewness; the other rows all cross in [1, 9]
        _, sk = _read_csv(out / "skewness_zero.csv")
        assert [b for b, _ in sk] == ["0.3", "0.5", "4.0"]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_forked_area_table_bytes_equal_the_serial_writer(self, tmp_path, monkeypatch,
                                                             workers):
        args = ["--beta", "0.3:60:14", "--gamma", "0.3:30:12"]
        monkeypatch.setattr(core, "CPU_COUNT", 1)
        assert run("map", "--out", str(tmp_path / "serial"), *args) == 0
        # five rows a block: 168 rows end in a block of 3
        monkeypatch.setattr(CLI, "_FORMAT_CELLS", 5 * 3)
        monkeypatch.setattr(core, "CPU_COUNT", workers)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert run("map", "--out", str(tmp_path / "forked"), *args) == 0
        serial = sorted((tmp_path / "serial").iterdir())
        assert [f.name for f in serial] == sorted(f.name for f in (tmp_path / "forked").iterdir())
        for f in serial:
            assert (tmp_path / "forked" / f.name).read_bytes() == f.read_bytes()
        # the area table (34 blocks) and the constant-P lines (12 blocks) are
        # float arrays; the other two go row by row
        assert len(forks) == (0 if workers == 1 else 2 * workers)

    def test_repeat_run_byte_identical(self, tmp_path):
        args = ["--beta", "1:10:5", "--gamma", "1:10:5"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run("map", "--out", str(out1), *args) == 0
        assert run("map", "--out", str(out2), *args) == 0
        assert (out1 / "heisenberg_map.csv").read_bytes() == (
            out2 / "heisenberg_map.csv"
        ).read_bytes()


class TestGallery:
    def test_single_pair(self, tmp_path):
        out = tmp_path / "gal"
        assert run("gallery", "--out", str(out), "--beta", "3", "--gamma", "3") == 0
        _, idx = _read_csv(out / "index.csv")
        fname = idx[0][0]
        cols, rows = _read_csv(out / fname)
        data = {c: np.array([float(r[i]) for r in rows]) for i, c in enumerate(cols)}
        # spectrum peaks at value 2 exactly at rescaled frequency 1 (on grid)
        imax = int(np.argmax(data["spectrum"]))
        assert data["spectrum"][imax] == pytest.approx(2.0, abs=1e-12)
        assert data["freq_scaled"][imax] == 1.0
        # cubic term absent at gamma=3: the approximants differ only by the
        # (tiny, even) quartic factor near the peak.  At x = 0.05 that
        # factor is ~2*|quartic|*x^4 ~ 9e-6 for beta=3, so the 1e-6 level
        # is reached by |x| <= 0.02; evenness pins the missing cubic.
        near = np.abs(data["freq_scaled"] - 1.0) <= 0.02
        diff = data["gaussian_approx"] - data["quartic_approx"]
        assert np.max(np.abs(diff[near])) < 1e-6
        wider = np.abs(data["freq_scaled"] - 1.0) <= 0.05
        assert np.max(np.abs(diff[wider])) < 1e-5
        x = data["freq_scaled"] - 1.0
        sel = (x > 0) & (x <= 0.5)
        mirrored = np.interp(-x[sel], x, diff)
        assert np.max(np.abs(diff[sel] - mirrored)) < 1e-12
        # |z| as abs() gives it on each value, to the last bit
        mod = data["wavelet_modulus"]
        z = data["wavelet_real"] + 1j * data["wavelet_imag"]
        assert mod.tolist() == [abs(v) for v in z.tolist()]
        # modulus symmetric about the center (odd length: all samples pair)
        n = len(mod)
        assert n % 2 == 1
        assert np.max(np.abs(mod[n // 2 + 1 :] - mod[: n // 2][::-1])) < 1e-10

    def test_full_default_grid_indexes_25_pairs(self, tmp_path):
        out = tmp_path / "gal"
        assert run("gallery", "--out", str(out)) == 0
        _, idx = _read_csv(out / "index.csv")
        assert len(idx) == 25
        # the most oscillatory corner member keeps its modulus symmetry
        cols, rows = _read_csv(out / "pair_beta27p0_gamma27p0.csv")
        jm = cols.index("wavelet_modulus")
        mod = np.array([float(r[jm]) for r in rows])
        n = len(mod)
        assert np.max(np.abs(mod[n // 2 + 1 :] - mod[: n // 2][::-1])) < 1e-10


    def test_bad_pair_rejected_before_any_file(self, tmp_path, capsys):
        out = tmp_path / "gal"
        assert run("gallery", "--beta", "3", "--gamma", "3,-1", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: gamma must be finite and > 0 (got -1.0)\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta, gamma, word", [
        ("0.5", "0.001", "overflows"),
        ("0.5", "3,0.001", "overflows"),  # a good pair first: still no file
        ("1e-300", "0.01", "underflows"),
    ])
    def test_peak_out_of_range_rejected_before_any_file(self, tmp_path, capsys, beta,
                                                        gamma, word):
        out = tmp_path / "gal"
        assert run("gallery", "--beta", beta, "--gamma", gamma, "--out", str(out)) == 2
        bad = gamma.split(",")[-1]
        assert capsys.readouterr().err == (
            f"error: peak frequency (beta/gamma)**(1/gamma) {word} double range "
            f"at beta={float(beta)}, gamma={float(bad)}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("beta, gamma, duration, cause", [
        # long: the spectrum aliases at the window's Nyquist rate, or its
        # peak lies above it
        ("2100", "3", "79.3725", "aliasing: spectrum at Nyquist is 0.67 of peak (threshold 0.1)"),
        ("1e4", "3", "173.205", "scaled peak frequency exceeds the Nyquist rate"),
        # short, with a heavy tail that still aliases
        ("0.01", "0.1", "0.0316228",
         "aliasing: spectrum at Nyquist is 0.96 of peak (threshold 0.1)"),
    ])
    def test_pair_outside_the_window_rejected_before_any_file(self, tmp_path, capsys,
                                                             beta, gamma, duration, cause):
        out = tmp_path / "gal"
        # a good pair, (3, gamma), comes first
        assert run("gallery", "--beta", f"3,{beta}", "--gamma", gamma, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: beta={float(beta)}, gamma={float(gamma)} (duration {duration}) does not "
            f"fit the gallery window of 511 samples over 20 P / w_p: {cause}\n"
        )
        assert not out.exists()

    def test_out_with_suffix_is_a_directory(self, tmp_path):
        out = tmp_path / "gal.v2"
        assert run("gallery", "--beta", "3", "--gamma", "3", "--out", str(out)) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "index.csv", "pair_beta3p0_gamma3p0.csv"
        ]


class TestCurves:
    def test_structure_and_blanks(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert (
            run("curves", "--pgrid", "0.6:0.2:2.4", "--out", str(out)) == 0
        )
        cols, rows = _read_csv(out)
        gamma1 = cols.index("inv_area_gamma1.0")
        gamma3 = cols.index("inv_area_gamma3.0")
        by_p = {float(r[0]): r for r in rows}
        # gamma=1 diverges below P = sqrt(1/2); gamma=3 below sqrt(3/2)
        assert by_p[0.6][gamma1] == ""
        assert by_p[0.8][gamma1] != ""
        assert by_p[1.0][gamma3] == ""
        # all finite inverse areas bounded by the uncertainty limit
        for r in rows:
            for c in r[1:8]:
                if c:
                    assert float(c) <= 2.0 + 1e-12
        # airy column dominates the other families at P >= 2
        row = by_p[2.4]
        inv = [float(row[cols.index(f"inv_area_gamma{g}.0")]) for g in range(1, 7)]
        assert max(inv) == inv[2]

    def test_morlet_blank_below_reachable_duration(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        assert run("curves", "--pgrid", "1.2:0.4:2.0", "--out", str(out)) == 0
        cols, rows = _read_csv(out)
        jm = cols.index("inv_area_morlet")
        by_p = {float(r[0]): r for r in rows}
        assert by_p[1.2][jm] == ""
        assert by_p[2.0][jm] != ""
        assert "warning" in capsys.readouterr().err

    def test_one_warning_for_all_unreachable_durations(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        assert run("curves", "--pgrid", "0.5:0.1:1.5", "--gamma", "3", "--out", str(out)) == 0
        assert capsys.readouterr().err == (
            "warning: Morlet columns blank for P in [0.5, 1.4]: "
            "no Morlet wavelet has duration at or below 1.432\n"
        )
        cols, rows = _read_csv(out)
        blank = [float(r[0]) for r in rows if r[cols.index("rho2_morlet")] == ""]
        assert len(blank) == 10 and max(blank) < 1.432 < float(rows[-1][0])


    def test_no_quadrature(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("curves called the quadrature oracle")

        for mod, name in [(props, "quadrature_integral"), (props, "quad"),
                          (superfamily, "quadrature_integral")]:
            monkeypatch.setattr(mod, name, refuse)
        out = tmp_path / "curves.csv"
        assert run("curves", "--pgrid", "0.5:0.5:4", "--out", str(out)) == 0
        _, rows = _read_csv(out)
        assert len(rows) == 8 and all(rows[-1])

    def test_duration_beyond_morlet_reach_rejected(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        assert run("curves", "--pgrid", "190:20:250", "--gamma", "3", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: no Morlet wavelet with nu <= 200 has duration 250 "
            "(maximum reachable is 200)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("pgrid", ["0.5:0.05:inf", "nan:0.05:1", "0.5:inf:8"])
    def test_non_finite_pgrid_rejected(self, tmp_path, capsys, pgrid):
        out = tmp_path / "curves.csv"
        assert run("curves", f"--pgrid={pgrid}", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: pgrid values must be finite (got {pgrid!r})\n"
        )
        assert not out.exists()


class TestGammaGuard:
    @pytest.mark.parametrize("cmd", ["curves", "limits"])
    @pytest.mark.parametrize("gamma, shown", [("0", "0.0"), ("-1", "-1.0"), ("2,nan", "nan")])
    def test_rejected_before_writing(self, tmp_path, capsys, cmd, gamma, shown):
        out = tmp_path / "out.csv"
        argv = [cmd, f"--gamma={gamma}", "--out", str(out)]
        if cmd == "curves":
            argv += ["--pgrid", "2:1:3"]
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: gamma must be finite and > 0 (got {shown})\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # no numpy warning may reach stderr
    @pytest.mark.parametrize("argv, named", [
        (["limits", "--pvalue", "1e200"], "P=1e+200, gamma=1.0"),
        (["limits", "--pvalue", "1e155", "--gamma", "0.5"], "P=1e+155, gamma=0.5"),
        (["limits", "--pvalue", "1e154", "--gamma", "1e-10"], "P=1e+154, gamma=1e-10"),
        (["limits", "--pvalue", "1e-200", "--gamma", "1"], "P=1e-200, gamma=1.0"),
        (["curves", "--pgrid", "0:1e160:1e160", "--gamma", "3"], "P=1e+160, gamma=3.0"),
    ])
    def test_beta_beyond_double_range_rejected_before_writing(self, tmp_path, capsys, argv,
                                                              named):
        out = tmp_path / "out.csv"
        assert run(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: beta = P^2/gamma is beyond double range at {named}\n"
        )
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # no numpy warning may reach stderr
    @pytest.mark.parametrize("pgrid, gamma, named", [
        ("1:1:2", "1e-300", "P=1.0, gamma=1e-300"),  # beta = 1e300 is finite
        ("0:1:0.5", "1e-310", "P=0.0, gamma=1e-310"),  # beta = 0, 1/gamma overflows
    ])
    def test_curves_beta_over_gamma_beyond_double_range(self, tmp_path, capsys, pgrid,
                                                         gamma, named):
        out = tmp_path / "out.csv"
        assert run("curves", "--pgrid", pgrid, "--gamma", gamma, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: (2 beta + 1)/gamma is beyond double range at {named}\n"
        )
        assert not out.exists()

    def test_limits_lognormal_p_squared_beyond_double_range(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run("limits", "--pvalue", "1e200", "--gamma", "1e100", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: P^2 is beyond double range at P=1e+200\n"
        assert not out.exists()

    def test_limits_beta_normal_where_p_squared_underflows(self, tmp_path):
        out = tmp_path / "out.csv"
        assert run("limits", "--pvalue", "1e-170", "--gamma", "1e-170", "--out", str(out)) == 0
        assert _read_csv(out)[1] == [["1e-170", "1e-170", "0.0"]]


class TestCwt:
    def test_ridge_at_predicted_scale(self, tmp_path, cosine_file):
        path, w0 = cosine_file
        out = tmp_path / "cwt.csv"
        assert (
            run("cwt", "--signal", str(path), "--out", str(out), "--density", "16")
            == 0
        )
        cols, rows = _read_csv(out)
        scales = np.array([float(c.split("=")[1]) for c in cols[1:]])
        mods = np.zeros(len(scales))
        for r in rows:
            vals = np.array([complex(c.replace(" ", "")) for c in r[1:]])
            mods += np.abs(vals)
        j = int(np.argmax(mods))
        predicted = peak_frequency(MorseParams(9, 3)) / w0
        step = math.log(2.0) / 16
        assert abs(math.log(scales[j] / predicted)) <= step
        assert mods[j] / len(rows) == pytest.approx(1.0, abs=0.01)

    def test_json_output(self, tmp_path, cosine_file):
        path, _ = cosine_file
        out = tmp_path / "cwt.json"
        assert (
            run("cwt", "--signal", str(path), "--out", str(out), "--format", "json")
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["normalization"] == "bandpass_n1"
        assert len(payload["real"]) == 1024
        assert len(payload["real"][0]) == len(payload["scales"])

    def test_json_bytes_equal_whole_payload_dump(self, tmp_path, cosine_file):
        path, _ = cosine_file
        out = tmp_path / "cwt.json"
        argv = ["--signal", str(path), "--out", str(out), "--format", "json",
                "--boundary", "mirror", "--norm", "nhalf", "--density", "6"]
        assert run("cwt", *argv) == 0
        x = np.array([float(v) for v in path.read_text().splitlines()[1:]])
        grid = scale_grid(len(x), MorseParams(9, 3), density=6)
        res = transform(SignalBuffer(x, dt=1.0), grid, "unitary_n_half", "mirror")
        payload = {
            "command": "cwt",
            "config": "morsekit cwt format=json boundary=mirror density=6 eta=0.1 "
            f"norm=nhalf p0=5.0 signal={path} wavelet_beta=9.0 wavelet_gamma=3.0",
            "dt": 1.0,
            "normalization": "unitary_n_half",
            "boundary": "mirror",
            "scales": [float(s) for s in grid.scales],
            "peak_frequencies": [float(f) for f in grid.peak_frequencies(1.0)],
            "real": [[float(v) for v in row] for row in res.coefficients.real],
            "imag": [[float(v) for v in row] for row in res.coefficients.imag],
        }
        text, expected = out.read_text(), json.dumps(payload, allow_nan=False) + "\n"
        # a plain bool: pytest's diff of two 1.6 MB strings would take minutes
        same = text == expected
        first = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), None)
        assert same, f"lengths {len(text)}, {len(expected)}; first difference at {first}"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_is_coefficients_plus_one_row(self, tmp_path, monkeypatch, fmt):
        n = 4096
        path = tmp_path / "noise.txt"
        noise = np.random.default_rng(0).standard_normal(n).tolist()
        path.write_text("\n".join(map(repr, noise)) + "\n")
        monkeypatch.setattr(core, "CPU_COUNT", 2)
        n_scales = len(scale_grid(n, MorseParams(9, 3), density=8))
        out = tmp_path / f"cwt.{fmt}"
        tracemalloc.start()
        try:
            assert run("cwt", "--signal", str(path), "--density", "8",
                       "--format", fmt, "--out", str(out)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the transform's own bound (coefficients, one row per worker, a few
        # dozen bytes per sample), plus one row as Python floats and text
        assert peak <= 16 * n * n_scales + 2 * 16 * n + 96 * n + 128 * n_scales

    def test_json_overflow_rejected_before_writing(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("1e308\n-1e308\n" * 64)  # the FFT overflows to inf
        out = tmp_path / "cwt.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = run("cwt", "--signal", str(path), "--format", "json", "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: coefficients hold inf or nan, which JSON cannot represent\n"
        )
        assert not out.exists()

    def test_nan_p0_rejected_before_writing(self, tmp_path, capsys, cosine_file):
        path, _ = cosine_file
        out = tmp_path / "cwt.csv"
        assert run("cwt", "--signal", str(path), "--p0", "nan", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: p0 must be at least 1 (got nan)\n"
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_infinite_dt_rejected_before_writing(self, tmp_path, capsys, fmt):
        path = tmp_path / "sig.txt"
        path.write_text("# dt=inf\n" + "1.0\n-1.0\n" * 32)
        out = tmp_path / f"cwt.{fmt}"
        assert run("cwt", "--signal", str(path), "--format", fmt, "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: dt must be positive and finite (got inf)\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dt_whose_scale_products_overflow_is_written(self, tmp_path, fmt):
        # s*dt overflows at the largest scales, but no output holds it: the
        # times, the scales and w_p/(s*dt) are all finite
        n, dt = 256, 1e300
        path = tmp_path / "sig.txt"
        path.write_text(f"# dt={dt!r}\n" + "1.0\n-1.0\n" * (n // 2))
        out = tmp_path / f"cwt.{fmt}"
        assert run("cwt", "--signal", str(path), "--wavelet-beta", "60",
                   "--wavelet-gamma", "0.3", "--format", fmt, "--out", str(out)) == 0
        grid = scale_grid(n, MorseParams(60, 0.3))
        with np.errstate(over="ignore"):
            assert not np.isfinite(grid.scales * dt).all()
        if fmt == "json":
            payload = json.loads(out.read_text())
            assert payload["scales"] == grid.scales.tolist()
            freqs = payload["peak_frequencies"]
            assert freqs == grid.peak_frequencies(dt).tolist() and all(map(math.isfinite, freqs))
            return
        cols, rows = _read_csv(out)
        assert cols[1:] == [f"scale={s!r}" for s in grid.scales.tolist()]
        assert [float(r[0]) for r in rows] == (np.arange(n) * dt).tolist()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("dt", ["1e308", "5e-324"])
    def test_dt_out_of_range_rejected_before_writing(self, tmp_path, capsys, fmt, dt):
        # 1e308 overflows the sample times, 5e-324 the peak frequencies
        path = tmp_path / "sig.txt"
        path.write_text(f"# dt={dt}\n" + "1.0\n-1.0\n" * 128)
        out = tmp_path / f"cwt.{fmt}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("cwt", "--signal", str(path), "--format", fmt, "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: dt={float(dt)!r} puts the sample times or the scales' peak "
            "frequencies outside double range\n"
        )
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_peak_frequency_rejected_before_writing(
        self, tmp_path, capsys, cosine_file
    ):
        path, _ = cosine_file
        out = tmp_path / "cwt.csv"
        argv = ["--wavelet-beta", "1", "--wavelet-gamma", "0.001", "--out", str(out)]
        assert run("cwt", "--signal", str(path), *argv) == 2
        assert capsys.readouterr().err == (
            "error: peak frequency (beta/gamma)**(1/gamma) overflows double range "
            "at beta=1.0, gamma=0.001\n"
        )
        assert not out.exists()

    def test_complex_two_column_input(self, tmp_path):
        n = 256
        w0 = 2.0 * np.pi * 32 / n
        z = np.exp(1j * w0 * np.arange(n))
        path = tmp_path / "z.txt"
        path.write_text(
            "\n".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in z) + "\n"
        )
        out = tmp_path / "cwt.csv"
        assert run("cwt", "--signal", str(path), "--out", str(out)) == 0

    def test_malformed_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0\nnot-a-number\n")
        assert run("cwt", "--signal", str(path)) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "error:" in err

    def test_missing_file(self, capsys):
        assert run("cwt", "--signal", "/does/not/exist") == 2
        assert "error:" in capsys.readouterr().err


def _unpicklable(*args):
    """An error that no pickle can carry: its class is local to this call."""
    class Unpicklable(Exception):
        pass

    return Unpicklable(*args)


class TestCwtWorkers:
    """`cwt` tables of several blocks are formatted by forked workers; their
    loop, `_format_blocks`, also runs here in-process on a pipe."""

    @staticmethod
    def _cwt(capsys, path, fmt, out=None):
        argv = ["cwt", "--signal", str(path), "--format", fmt, "--boundary", "mirror"]
        assert main(argv + (["--out", str(out)] if out else [])) == 0
        return out.read_text() if out else capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bytes_equal_the_serial_writer(self, tmp_path, capsys, monkeypatch, cosine_file,
                                           fmt, workers):
        path, _ = cosine_file
        monkeypatch.setattr(core, "CPU_COUNT", 1)
        serial = self._cwt(capsys, path, fmt, tmp_path / f"serial.{fmt}")
        # seven rows a block (CSV and JSON alike): 1024 rows end in a block of 2
        n_scales = len(scale_grid(1024, MorseParams(9, 3)))
        monkeypatch.setattr(CLI, "_FORMAT_CELLS", 7 * (n_scales + 1))
        monkeypatch.setattr(core, "CPU_COUNT", workers)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert self._cwt(capsys, path, fmt, tmp_path / f"cwt.{fmt}") == serial
        assert self._cwt(capsys, path, fmt) == serial
        # once per table for CSV, once per part (real, imag) for JSON
        per_run = 0 if workers == 1 else workers * (1 if fmt == "csv" else 2)
        assert len(forks) == 2 * per_run

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_block_never_forks(self, tmp_path, capsys, monkeypatch, cosine_file, fmt):
        path, _ = cosine_file
        monkeypatch.setattr(core, "CPU_COUNT", 1)
        serial = self._cwt(capsys, path, fmt, tmp_path / f"serial.{fmt}")
        monkeypatch.setattr(CLI, "_FORMAT_CELLS", 1 << 30)
        monkeypatch.setattr(core, "CPU_COUNT", 3)

        def no_fork():
            raise AssertionError("a table of one block forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert self._cwt(capsys, path, fmt, tmp_path / f"cwt.{fmt}") == serial

    def test_worker_error_fails_the_run_and_leaves_no_child(self, tmp_path, capsys,
                                                            monkeypatch, cosine_file):
        path, _ = cosine_file
        monkeypatch.setattr(CLI, "_FORMAT_CELLS", 1000)
        monkeypatch.setattr(core, "CPU_COUNT", 2)

        csv_block = CLI._cwt_csv_block

        def block(times, coef):
            if 500.0 in times:  # the block that holds row 500, in the middle
                raise ValueError(f"cannot format t=500.0 in process {os.getpid()}")
            return csv_block(times, coef)

        monkeypatch.setattr(CLI, "_cwt_csv_block", block)
        out = tmp_path / "cwt.csv"
        assert run("cwt", "--signal", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot format t=500.0 in process ")
        assert int(err.split()[-1]) != os.getpid()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("error, shown", [
        (_unpicklable("cannot format t=500.0 \u00b5s"), "cannot format t=500.0 \u00b5s"),
        (_unpicklable(), "Unpicklable"),  # an empty message shows the type's name
        (KeyError("t"), "'t'"),
    ], ids=["utf8-message", "empty-message", "key-error"])
    def test_worker_error_of_any_type_reaches_the_user(self, tmp_path, capsys, monkeypatch,
                                                       cosine_file, error, shown):
        path, _ = cosine_file
        monkeypatch.setattr(CLI, "_FORMAT_CELLS", 1000)
        monkeypatch.setattr(core, "CPU_COUNT", 2)
        csv_block = CLI._cwt_csv_block

        def block(times, coef):
            if 500.0 in times:
                raise error
            return csv_block(times, coef)

        monkeypatch.setattr(CLI, "_cwt_csv_block", block)
        assert run("cwt", "--signal", str(path), "--out", str(tmp_path / "cwt.csv")) == 2
        assert capsys.readouterr().err == f"error: {shown}\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_that_exits_early_fails_the_run_and_leaves_no_child(
            self, tmp_path, capsys, monkeypatch, cosine_file):
        path, _ = cosine_file
        monkeypatch.setattr(CLI, "_FORMAT_CELLS", 1000)
        monkeypatch.setattr(core, "CPU_COUNT", 2)
        # each worker exits at once, with no record
        monkeypatch.setattr(CLI, "_format_blocks", lambda w, reads, blocks, block: 1)
        assert run("cwt", "--signal", str(path), "--out", str(tmp_path / "cwt.csv")) == 2
        assert capsys.readouterr().err == "error: a formatting worker exited before its block\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _loop(blocks, block):
        """Run a worker's loop in this process on a new pipe: its exit
        status, its records as (length, bytes), and the read ends it was
        given, which it closes."""
        r, w = os.pipe()
        other = os.pipe()
        os.close(other[1])
        reads = [open(other[0], "rb")]
        code = CLI._format_blocks(w, reads, blocks, block)
        with open(r, "rb") as f:  # reads to the end: the loop closed w
            data = f.read()
        records = []
        while data:
            (size,) = struct.unpack("<q", data[:8])
            records.append((size, data[8:8 + abs(size)]))
            data = data[8 + abs(size):]
        return code, records, reads

    def test_worker_loop_sends_each_block_as_a_record(self):
        code, records, reads = self._loop([(0, 2), (5, 6), (9, 9)],
                                          lambda i0, i1: "1.0\n" * (i1 - i0))
        assert code == 0
        assert records == [(8, b"1.0\n1.0\n"), (4, b"1.0\n"), (0, b"")]
        assert all(r.closed for r in reads)

    @pytest.mark.parametrize("error, text", [
        (ValueError("bad block"), "bad block"),
        (_unpicklable("cannot format \u00b5"), "cannot format \u00b5"),
        (_unpicklable(), "Unpicklable"),
    ], ids=["value-error", "utf8-message", "empty-message"])
    def test_worker_loop_sends_the_first_error_as_text(self, error, text):
        def block(i0, i1):
            if i0 == 4:
                raise error
            return f"{i0}\n"

        code, records, reads = self._loop([(0, 4), (4, 8), (8, 12)], block)
        message = text.encode()
        assert code == 1
        assert records == [(2, b"0\n"), (-len(message), message)]
        assert all(r.closed for r in reads)


@pytest.mark.parametrize("argv", [
    ["gallery", "--beta", "3", "--gamma", "1,3", "--out", "{out}"],
    ["curves", "--out", "{out}/curves.csv"],
    ["map", "--beta", "1:10:5", "--gamma", "1:10:5", "--out", "{out}"],
    # the default area table is 8 blocks, the default trace 2
    ["map", "--out", "{out}"],
    ["besselfit", "--out", "{out}/fit.csv"],
])
def test_one_block_tables_never_fork(tmp_path, monkeypatch, argv):
    monkeypatch.setattr(core, "CPU_COUNT", 3)

    def no_fork():
        raise AssertionError("a table of at most _SERIAL_BLOCKS blocks forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run(*(a.format(out=tmp_path) for a in argv)) == 0


class TestBesselfitAndLimits:
    def test_besselfit_small_grid(self, capsys):
        assert (
            run("besselfit", "--beta", "15:30:8", "--gamma", "0.05:0.2:8") == 0
        )
        out = capsys.readouterr().out
        assert "alpha_sq=0.999" in out

    @pytest.mark.parametrize("flag, text", [("--beta", "1,30,50"), ("--gamma", "0.1")])
    def test_besselfit_list_rejected_before_fitting(self, tmp_path, capsys, monkeypatch,
                                                     flag, text):
        monkeypatch.setattr(
            "morsekit.cli.bessel_fit", lambda grid: pytest.fail("the fit started")
        )
        out = tmp_path / "fit.csv"
        assert run("besselfit", flag, text, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} must be a lo:hi:n range (got {text!r})\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("pvalue", ["nan", "inf", "0"])
    def test_limits_bad_pvalue_rejected_before_writing(self, tmp_path, capsys, pvalue):
        out = tmp_path / "lim.csv"
        assert run("limits", "--pvalue", pvalue, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: duration must be finite and > 0 (got {float(pvalue)})\n"
        )
        assert not out.exists()

    def test_limits_table(self, tmp_path):
        out = tmp_path / "lim.csv"
        assert (
            run(
                "limits",
                "--pvalue", "3",
                "--gamma", "1,0.1",
                "--target", "lognormal",
                "--out", str(out),
            )
            == 0
        )
        _, rows = _read_csv(out)
        assert float(rows[0][2]) > float(rows[1][2])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_limits_gamma_range_is_its_list(self, tmp_path, fmt):
        listed = ",".join(repr(float(g)) for g in np.geomspace(0.1, 1.0, 3))
        for name, gamma in (("range", "0.1:1:3"), ("list", listed)):
            out = tmp_path / f"{name}.{fmt}"
            assert run("limits", "--gamma", gamma, "--format", fmt, "--out", str(out)) == 0
        assert (tmp_path / f"range.{fmt}").read_bytes() == (tmp_path / f"list.{fmt}").read_bytes()

    def test_limits_shannon(self, capsys):
        assert (
            run("limits", "--pvalue", "1.5", "--gamma", "1000", "--target", "shannon")
            == 0
        )
        out = capsys.readouterr().out
        dev = float(out.strip().splitlines()[-1].split(",")[2])
        assert dev < 0.02

    @pytest.mark.filterwarnings("error")  # no numpy warning may reach stderr
    @pytest.mark.parametrize("flag, text", [("--beta", "1:inf:4"), ("--gamma", "0.05:nan:4")])
    def test_besselfit_non_finite_bound_rejected_before_fitting(
        self, tmp_path, capsys, monkeypatch, flag, text
    ):
        monkeypatch.setattr(
            "morsekit.cli.bessel_fit", lambda grid: pytest.fail("the fit started")
        )
        ranges = {"--beta": "1:50:4", "--gamma": "0.05:0.2:4", flag: text}
        out = tmp_path / "fit.csv"
        argv = [v for item in ranges.items() for v in item]
        assert run("besselfit", *argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: bad range {text!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_besselfit_trace_file(self, tmp_path, capsys, fmt):
        out = tmp_path / f"fit.{fmt}"
        argv = ["--beta", "15:30:3", "--gamma", "0.05:0.2:4", "--format", fmt]
        assert run("besselfit", *argv, "--out", str(out)) == 0
        line = capsys.readouterr().out
        if fmt == "csv":
            comments = [ln for ln in out.read_text().splitlines() if ln.startswith("# ")]
            meta = dict(ln[2:].split("=", 1) for ln in comments[1:])
            _, rows = _read_csv(out)
            rows = [[float(v) for v in row] for row in rows]
        else:
            payload = json.loads(out.read_text())
            assert payload["columns"] == ["beta", "gamma", "alpha_sq"]
            meta = {k: _fmt(v) for k, v in payload["meta"].items()}
            rows = payload["rows"]
        assert line == (
            f"best beta={meta['best_beta']} gamma={meta['best_gamma']} "
            f"alpha_sq={meta['best_alpha_sq']} ({len(rows)} evaluations)\n"
        )
        # the coarse grid first, row-major (beta outer), then the refinement
        betas, gammas = np.geomspace(15.0, 30.0, 3), np.geomspace(0.05, 0.2, 4)
        assert [row[:2] for row in rows[:12]] == [[b, g] for b in betas for g in gammas]
        assert len(rows) > 12
        assert float(meta["best_alpha_sq"]) == max(row[2] for row in rows)


class TestInputParsing:
    """The signal-file reader and the range parsers, each error case by
    its exit status and its one error line."""

    @pytest.mark.parametrize(
        "body, error",
        [
            ("# dt=0.5\n\n1\n  \n2,0.5\n3\n", None),  # blank lines skipped
            ("# dt=abc\n1\n2\n", "line 1: bad dt header 'dt=abc'"),
            (
                "1\n1 2 3\n",
                "line 2: could not parse '1 2 3': "
                "expected 1 (real) or 2 (real imag) columns",
            ),
            ("# dt=1\n\n5\n\n", "signal file holds fewer than 2 samples"),
        ],
    )
    def test_read_signal_file(self, tmp_path, capsys, body, error):
        path = tmp_path / "signal.txt"
        path.write_text(body)
        if error is None:
            sig = CLI._read_signal_file(path)
            assert sig.dt == 0.5
            assert sig.samples.tolist() == [1, 2 + 0.5j, 3]
            return
        out = tmp_path / "cwt.csv"
        assert run("cwt", "--signal", str(path), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, error",
        [
            ("0.1:1:3", None),
            ("0.1:1", "range must be lo:hi:count (got '0.1:1')"),
            ("0.1:1:3:4", "range must be lo:hi:count (got '0.1:1:3:4')"),
            ("0.1:1:1", "bad range '0.1:1:1'"),
            ("1:0.1:3", "bad range '1:0.1:3'"),
            ("0.1:inf:3", "bad range '0.1:inf:3'"),
            ("nan:1:3", "bad range 'nan:1:3'"),
            ("0:1:3", "bad range '0:1:3'"),
            ("-1:1:3", "bad range '-1:1:3'"),
        ],
    )
    @pytest.mark.filterwarnings("error")  # no numpy warning may reach stderr
    def test_parse_list_or_range(self, tmp_path, capsys, text, error):
        out = tmp_path / "lim.csv"
        rc = run("limits", f"--gamma={text}", "--out", str(out))
        if error is None:
            assert rc == 0
            _, rows = _read_csv(out)
            assert [float(row[0]) for row in rows] == np.geomspace(0.1, 1.0, 3).tolist()
            return
        assert rc == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, error",
        [
            ("2:0.5:3", None),
            ("2:3", "pgrid must be start:step:stop (got '2:3')"),
            ("2:0.5:3:4", "pgrid must be start:step:stop (got '2:0.5:3:4')"),
            ("2:0:3", "bad pgrid '2:0:3'"),
            ("2:-0.5:3", "bad pgrid '2:-0.5:3'"),
            ("3:0.5:2", "bad pgrid '3:0.5:2'"),
            # beta = P^2/gamma would drop the sign and copy the rows of -P
            ("-1:0.5:1", "pgrid durations must be >= 0 (got '-1:0.5:1')"),
            ("-0.5:0.5:0", "pgrid durations must be >= 0 (got '-0.5:0.5:0')"),
            # (stop - start) / step overflows to inf
            ("0:1e-308:1e308", "pgrid '0:1e-308:1e308' holds too many durations to count"),
        ],
    )
    def test_parse_pgrid(self, tmp_path, capsys, text, error):
        out = tmp_path / "curves.csv"
        rc = run("curves", f"--pgrid={text}", "--gamma", "3", "--out", str(out))
        if error is None:
            assert rc == 0
            _, rows = _read_csv(out)
            assert [float(row[0]) for row in rows] == [2.0, 2.5, 3.0]
            return
        assert rc == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()


class TestCsvContract:
    def test_config_comment_and_header(self, tmp_path):
        out = tmp_path / "props.csv"
        assert run("props", "2,3", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# morsekit props")
        assert lines[1].split(",")[0] == "beta"

    def test_every_map_file_carries_config(self, tmp_path):
        out = tmp_path / "map"
        assert run("map", "--out", str(out), "--beta", "1,2", "--gamma", "1,2") == 0
        for f in out.glob("*.csv"):
            assert f.read_text().startswith("# morsekit map")


class TestDeterminismAcrossFormats:
    def test_json_mirrors_csv(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.json"
        assert run("props", "2,3", "--out", str(a)) == 0
        assert run("props", "2,3", "--out", str(b), "--format", "json") == 0
        _, rows = _read_csv(a)
        payload = json.loads(b.read_text())
        for txt, val in zip(rows[0], payload["rows"][0]):
            if txt == "":
                assert val is None or val == ""
            elif txt == "inf":
                assert val == "inf"
            else:
                assert float(txt) == pytest.approx(float(val), rel=0, abs=0)


class TestFmt:
    @pytest.mark.parametrize(
        "value, text",
        [
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (math.nan, "nan"),
            (0.1, "0.1"),
            (np.float64(0.1), "0.1"),
            (np.float64(-math.inf), "-inf"),
            (np.float32(0.5), "0.5"),
            (np.int64(-7), "-7"),
            (3, "3"),
            (None, ""),
            ("beta", "beta"),
        ],
    )
    def test_cells(self, value, text):
        assert _fmt(value) == text


# every float kind a cell can hold: signed zeros, nan of either sign,
# infinities, the smallest subnormal, and reprs on both sides of the
# switch to exponent notation
SPECIALS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
            1e-5, -1e-5, 1e-4, 9999999999999998.0, 1e16, -1e16, -2.5]


def _mixed(shape, seed):
    """Seeded floats of many magnitudes, at least half of them (and every
    one of SPECIALS) taken from SPECIALS."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    spots = rng.permutation(x.size)[: max(x.size // 2, len(SPECIALS))]
    x.ravel()[spots] = np.resize(SPECIALS, len(spots))
    bits = set(x.ravel().view(np.int64).tolist())
    assert set(np.array(SPECIALS).view(np.int64).tolist()) <= bits
    return x


def _complex_cell(v) -> str:
    """The complex CSV cell rule, one value at a time: re+imj with the sign
    from imag >= 0 and the magnitude of imag."""
    sign = "+" if v.imag >= 0 else "-"
    return f"{float.__repr__(v.real)}{sign}{float.__repr__(abs(v.imag))}j"


def _cwt_lines(times, coef) -> str:
    return "".join(
        ",".join([float.__repr__(t)] + [_complex_cell(v) for v in row]) + "\n"
        for t, row in zip(times.tolist(), coef.tolist())
    )


class TestCwtCsvBlock:
    """`cwt` CSV blocks, formatted with one repr per block, hold the bytes
    of the per-cell rule."""

    ROWS, SCALES = 17, 13

    @pytest.fixture(scope="class")
    def table(self):
        coef = np.empty((self.ROWS, self.SCALES), dtype=complex)
        coef.real = _mixed(coef.shape, 1)
        coef.imag = _mixed(coef.shape, 2)
        return _mixed(self.ROWS, 3), coef

    @pytest.mark.parametrize(
        "value, text",
        [
            (complex(1.5, 0.0), "1.5+0.0j"),
            (complex(1.5, -0.0), "1.5+0.0j"),  # the sign comes from imag >= 0
            (complex(-0.0, -2.0), "-0.0-2.0j"),
            (complex(math.inf, -math.inf), "inf-infj"),
            (complex(-math.inf, math.inf), "-inf+infj"),
            (complex(math.nan, math.nan), "nan-nanj"),
            (np.complex128(0.1 - 0.2j), "0.1-0.2j"),
        ],
    )
    def test_cells(self, value, text):
        assert CLI._cwt_csv_block(np.array([2.0]), np.array([[value]])) == f"2.0,{text}\n"

    def test_cells_rows_and_columns(self, table):
        times, coef = table

        def check(t, c):
            assert CLI._cwt_csv_block(t, c) == _cwt_lines(t, c)

        # every 1x1, 1xS and Rx1 block, then the whole table in Fortran
        # order, as the transform returns its coefficients
        for i in range(self.ROWS):
            for j in range(self.SCALES):
                check(times[i:i + 1], coef[i:i + 1, j:j + 1])
            check(times[i:i + 1], coef[i:i + 1])
        for j in range(self.SCALES):
            check(times, coef[:, j:j + 1])
        check(times, np.asfortranarray(coef))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_write_lines_in_blocks(self, monkeypatch, table, workers):
        times, coef = table
        # one row a block: 17 blocks, more than a table formats in-process
        monkeypatch.setattr(CLI, "_FORMAT_CELLS", self.SCALES + 1)
        monkeypatch.setattr(core, "CPU_COUNT", workers)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        f = io.StringIO()
        CLI._write_lines(f, self.ROWS, self.SCALES + 1,
                         lambda i0, i1: CLI._cwt_csv_block(times[i0:i1], coef[i0:i1]))
        assert f.getvalue() == _cwt_lines(times, coef)
        assert len(forks) == (0 if workers == 1 else workers)


class TestRealCsvBlocks:
    """A float ndarray given to `_write_csv` is written in blocks with the
    bytes of `_fmt` on every cell."""

    @pytest.mark.parametrize("cells", [1, 20, 1 << 14])
    def test_bytes_equal_per_cell_rows(self, monkeypatch, cells):
        table = _mixed((23, 9), 4)
        monkeypatch.setattr(CLI, "_FORMAT_CELLS", cells)
        # 1x1, 1xS, Rx1 and RxS blocks of the table
        blocks = [table[i:i + 1, j:j + 1] for i in range(23) for j in range(9)]
        blocks += [table[i:i + 1] for i in range(23)] + [table[:, j:j + 1] for j in range(9)]
        for block in blocks + [table]:
            f = io.StringIO()
            CLI._write_csv(f, ["note"], ["a"], block)
            expected = "".join(",".join(map(_fmt, row)) + "\n" for row in block.tolist())
            assert f.getvalue() == "# note\na\n" + expected


class TestFloatCsvBlock:
    """Each distinct float of a block is formatted once, found by its bit
    pattern, and every cell keeps the bytes of `_fmt`."""

    @staticmethod
    def table():
        # signed zeros, nans of both signs and several payloads, infinities
        # and repeated finite values: table[i, j] = VALUES[(i + j) % n], so
        # every row and every column holds each of them
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
                         0xFFFC0000000000AB], dtype=np.uint64).view(np.float64)
        values = np.concatenate([[0.0, -0.0, math.inf, -math.inf, 0.1, -2.5, 5e-324, 1e16],
                                 nans])
        n = len(values)
        table = values[(np.arange(n)[:, None] + np.arange(n)) % n]
        assert len(set(table[0].view(np.int64).tolist())) == n
        return table

    @pytest.mark.parametrize("cells", [1, 12, 30, 1 << 14])
    def test_bytes_equal_per_cell_rows(self, monkeypatch, cells):
        table = self.table()
        monkeypatch.setattr(CLI, "_FORMAT_CELLS", cells)
        # the whole table, and strided views of it, as the column slices
        # of `TestRealCsvBlocks`
        for block in (table, table.T, table[::-1, ::2], table[1::3, 5:]):
            f = io.StringIO()
            CLI._write_csv(f, [], ["a"], block)
            expected = "".join(",".join(map(_fmt, row)) + "\n" for row in block.tolist())
            assert f.getvalue() == "a\n" + expected
        f = io.StringIO()
        CLI._write_csv(f, [], ["a"], table[:1])
        assert f.getvalue() == "a\n0.0,-0.0,inf,-inf,0.1,-2.5,5e-324,1e+16,nan,nan,nan,nan\n"

    def test_only_float64_tables(self):
        with pytest.raises(AssertionError):
            CLI._write_csv(io.StringIO(), [], ["a"], np.array([[1, 2]]))


class TestForkRule:
    """`_write_lines` formats a table of at most `_SERIAL_BLOCKS` blocks
    in-process, and forks one worker per CPU for a longer one."""

    @staticmethod
    def write(monkeypatch, n_blocks, workers, fork):
        # eight rows a block: 8 (n - 1) + 1 rows are n blocks, the last of one row
        table = _mixed((8 * (n_blocks - 1) + 1, 3), 5)
        monkeypatch.setattr(CLI, "_FORMAT_CELLS", 8 * 3)
        monkeypatch.setattr(core, "CPU_COUNT", workers)
        monkeypatch.setattr(os, "fork", fork)
        f = io.StringIO()
        CLI._write_csv(f, [], ["a", "b", "c"], table)
        expected = "".join(",".join(map(_fmt, row)) + "\n" for row in table.tolist())
        assert f.getvalue() == "a,b,c\n" + expected

    @pytest.mark.parametrize("n_blocks", [2, CLI._SERIAL_BLOCKS])
    def test_tables_at_the_threshold_never_fork(self, monkeypatch, n_blocks):
        def no_fork():
            raise AssertionError(f"a table of {n_blocks} blocks forked")

        self.write(monkeypatch, n_blocks, 3, no_fork)

    @pytest.mark.parametrize("n_blocks", [CLI._SERIAL_BLOCKS + 1, 20])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_longer_tables_fork_one_worker_per_cpu(self, monkeypatch, n_blocks, workers):
        forks = []
        fork = os.fork
        self.write(monkeypatch, n_blocks, workers, lambda: forks.append(1) or fork())
        assert len(forks) == workers


class TestLibraryBoundary:
    """`cli` parses, checks and formats; the library computes.  So `cli`
    takes no private name from another morsekit module: it imports none,
    reads none as an attribute of a morsekit module it imported, and looks
    up no module in ``sys.modules``, which would hide such a read."""

    def test_cli_reads_only_public_library_names(self):
        def private(name):
            return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

        tree = ast.parse(Path(CLI.__file__).read_text())
        modules, found = set(), []  # the names cli binds to morsekit modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "morsekit"
            ):
                package = node.module in (None, "morsekit")  # `from . import core`
                for alias in node.names:
                    if private(alias.name):
                        found.append(f"import of {alias.name} from {node.module or '.'}")
                    elif package:
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                modules.update((a.asname or a.name).split(".")[0] for a in node.names
                               if a.name.split(".")[0] == "morsekit")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules and private(node.attr):
                found.append(f"read of {ast.unparse(node)}")
            if isinstance(root, ast.Name) and root.id == "sys" and node.attr == "modules":
                found.append(f"lookup in {ast.unparse(node)}")
        assert found == []
