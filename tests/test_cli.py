"""End-to-end command line behavior through cli.main: option merging,
filtering, sweeps, metrics, determinism, and exit codes."""

import json
import math
import re
import warnings
from dataclasses import fields
from pathlib import Path

import mpmath
import numpy as np
import pytest

from fracfilt import cli
from fracfilt.errors import PoleError, ValidationError
from fracfilt.fracops import SampledSignal, gl_weights
from fracfilt.hahn import (
    HahnFilterParams,
    apply_discrete_filter,
    default_history,
    gram_n1_weights,
    hahn_weights,
)
from fracfilt.transfer import hahn_truncated_transfer, truncated_dc_gain

HALF_DERIVATIVE_OF_SQUARE = 1.5045055561273502


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_signal(path, x, values):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,value\n")
        for xi, vi in zip(x, values):
            fh.write(f"{float(xi)!r},{float(vi)!r}\n")


def read_values(path):
    rows = [line.split(",") for line in
            open(path, encoding="ascii").read().splitlines()[1:]]
    out = np.array([float(r[1]) for r in rows])
    valid = np.array([int(r[2]) for r in rows])
    return out, valid


class TestConfigHandling:
    def test_parse_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "\n"
            "family = gram\n"
            "nu = 0.5\n"
            "N = 7\n"
            "causal = yes\n"
        )
        parsed = cli.parse_config_file(str(cfg))
        assert parsed == {"family": "gram", "nu": 0.5, "N": 7, "causal": True}

    def test_unknown_key_points_at_the_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = gram\nwavelength = 3\n")
        with pytest.raises(ValidationError, match=r"run\.cfg:2: unknown config key"):
            cli.parse_config_file(str(cfg))

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ValidationError, match="expected key=value"):
            cli.parse_config_file(str(cfg))

    def test_bad_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu = fast\n")
        with pytest.raises(ValidationError, match="bad value for nu"):
            cli.parse_config_file(str(cfg))

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = gram\nnu = 0.5\ndelta = 1.0\nN = 7\nM = 64\n")
        code, out, _ = run(
            ["metrics", "--config", str(cfg), "--nu", "0.25"], capsys
        )
        assert code == 0
        assert "nu = 0.25" in out

    def test_unknown_family_rejected(self, capsys):
        code, _, err = run(["sweep", "--family", "bessel", "-o", "x.txt"], capsys)
        assert code == 1
        assert "unknown family" in err

    def test_unknown_preset_rejected(self, capsys):
        code, _, err = run(["sweep", "--preset", "fig9", "-o", "x.txt"], capsys)
        assert code == 1
        assert "unknown preset" in err


class TestFilterMode:
    def test_first_derivative_of_ramp(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        x = [0.1 * i for i in range(30)]
        write_signal(src, x, x)
        code, _, _ = run(
            ["filter", "--family", "gl", "--nu", "1", "-i", str(src), "-o", str(dst)],
            capsys,
        )
        assert code == 0
        values, valid = read_values(dst)
        assert valid[0] == 0  # one sample of unknown history
        assert np.all(valid[1:] == 1)
        np.testing.assert_allclose(values[1:], 1.0, rtol=1e-10)
        assert math.isnan(values[0])

    def test_positions_survive_bit_for_bit(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        x = [0.1 * i for i in range(20)]
        write_signal(src, x, [xi * xi for xi in x])
        run(["filter", "--family", "gl", "--nu", "0.5", "--causal",
             "-i", str(src), "-o", str(dst)], capsys)
        col_in = [line.split(",")[0] for line in src.read_text().splitlines()[1:]]
        col_out = [line.split(",")[0] for line in dst.read_text().splitlines()[1:]]
        assert col_in == col_out

    def test_half_derivative_window_bias_shrinks_with_the_step(self, tmp_path, capsys):
        """family gram on f = x^2: the windowed scheme carries an O(delta)
        offset next to the exact half derivative, halving with the step."""
        biases = {}
        for delta, count in ((1e-3, 1201), (5e-4, 2401)):
            src = tmp_path / f"in{count}.csv"
            dst = tmp_path / f"out{count}.csv"
            x = [delta * i for i in range(count)]
            write_signal(src, x, [xi * xi for xi in x])
            # history long enough to reach back to the support edge; the
            # default 128 would chop the slowly decaying backward tail
            code, _, _ = run(
                ["filter", "--family", "gram", "--nu", "0.5", "--N", "4",
                 "--M", str(round(1.0 / delta)), "--causal",
                 "-i", str(src), "-o", str(dst)],
                capsys,
            )
            assert code == 0
            values, valid = read_values(dst)
            at = round(1.0 / delta)
            assert valid[at] == 1
            biases[delta] = values[at] - HALF_DERIVATIVE_OF_SQUARE
        assert abs(biases[1e-3]) < 0.03
        assert abs(biases[5e-4]) < 0.6 * abs(biases[1e-3])

    def test_hahn_filter_matches_the_library_call(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        rng = np.random.default_rng(42)
        samples = rng.standard_normal(24)
        x = [0.5 * i for i in range(24)]
        write_signal(src, x, samples)
        code, _, _ = run(
            ["filter", "--family", "hahn", "--nu", "0.5", "--N", "3", "--n", "1",
             "--M", "6", "-i", str(src), "-o", str(dst)],
            capsys,
        )
        assert code == 0
        values, valid = read_values(dst)
        assert np.all(valid[:6] == 0) and np.all(valid[-3:] == 0)
        sig = SampledSignal(x0=0.0, delta=0.5, samples=samples)
        w = hahn_weights(HahnFilterParams(alpha=0.0, beta=0.0, N=3, n=1,
                                          nu=0.5, delta=0.5, M=6))
        expected = apply_discrete_filter(sig, w, 12)
        assert values[12] == pytest.approx(expected, rel=1e-12)

    def test_short_record_has_no_lookahead(self, tmp_path, capsys):
        """N = 4 forward taps on 3 rows: no row has its lookahead, so every
        row is flagged, as apply_discrete_filter refuses every index."""
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        samples = [1.0, 2.0, 4.0]
        write_signal(src, [0.0, 0.1, 0.2], samples)
        code, _, _ = run(["filter", "--family", "gram", "--nu", "0.5", "--N", "4",
                          "--M", "2", "--causal", "-i", str(src), "-o", str(dst)], capsys)
        assert code == 0
        assert dst.read_text().splitlines()[1:] == [f"{x!r},nan,0" for x in (0.0, 0.1, 0.2)]
        sig = SampledSignal(x0=0.0, delta=0.1, samples=samples, causal=True)
        for i in range(3):
            with pytest.raises(ValidationError, match="lookahead"):
                apply_discrete_filter(sig, gram_n1_weights(4, 0.5, 0.1, 2), i)

    def test_filtering_a_filter_output_keeps_honest_flags(self, tmp_path, capsys):
        """A valid = 0 input row is a missing sample: the second pass flags
        every row whose window meets one, and every flagged-valid value is
        finite."""
        src, once, twice = (tmp_path / f for f in ("in.csv", "once.csv", "twice.csv"))
        x = [0.1 * i for i in range(50)]
        write_signal(src, x, np.cos(x))
        argv = ["filter", "--family", "gram", "--nu", "0.5", "--N", "2", "--M", "3"]
        assert run(argv + ["-i", str(src), "-o", str(once)], capsys)[0] == 0
        assert run(argv + ["-i", str(once), "-o", str(twice)], capsys)[0] == 0
        _, first = read_values(once)
        values, valid = read_values(twice)
        inside = [i for i in range(50) if 3 <= i < 48 and first[i - 3:i + 3].all()]
        assert np.flatnonzero(valid).tolist() == inside and len(inside) == 40
        assert np.isfinite(values[valid == 1]).all() and np.isnan(values[valid == 0]).all()

    def test_non_finite_sample_flags_its_windows(self, tmp_path, capsys):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        samples = np.cos(np.arange(50.0))
        samples[20] = math.inf
        write_signal(src, [0.1 * i for i in range(50)], samples)
        code, _, _ = run(["filter", "--family", "gram", "--nu", "0.5", "--N", "2",
                          "--M", "3", "-i", str(src), "-o", str(dst)], capsys)
        assert code == 0
        values, valid = read_values(dst)
        expected = [i for i in range(3, 48) if not 18 <= i <= 23]
        assert np.flatnonzero(valid).tolist() == expected
        assert np.isfinite(values[valid == 1]).all() and np.isnan(values[valid == 0]).all()

    def test_three_column_input_accepted(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        with open(src, "w", encoding="ascii") as fh:
            fh.write("x,value,valid\n")
            for i in range(12):
                fh.write(f"{0.1 * i!r},{1.0!r},1\n")
        code, _, _ = run(
            ["filter", "--family", "gl", "--nu", "1", "-i", str(src), "-o", str(dst)],
            capsys,
        )
        assert code == 0

    def test_nonuniform_spacing_rejected(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        write_signal(src, [0.0, 0.1, 0.3, 0.4], [0.0, 1.0, 2.0, 3.0])
        code, _, err = run(
            ["filter", "--family", "gl", "--nu", "1",
             "-i", str(src), "-o", str(src) + ".out"],
            capsys,
        )
        assert code == 1
        assert "not uniform" in err

    @pytest.mark.parametrize("x", [(0.0, math.inf), (0.0, math.nan), (-math.inf, 0.0),
                                   (math.inf, math.inf)])
    def test_non_finite_positions_rejected(self, tmp_path, capsys, x):
        """x = 0, inf used to exit 0, writing two valid rows of 0.0 after
        a numpy RuntimeWarning from the spacing test."""
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        write_signal(src, x, [1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(["filter", "--family", "gl", "--nu", "0.5", "--causal",
                                "-i", str(src), "-o", str(dst)], capsys)
        assert code == 1
        assert err == "fracfilt: error: sample positions must be finite\n"
        assert not dst.exists()

    def test_delta_cross_check(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        write_signal(src, [0.0, 0.1, 0.2, 0.3], [0.0, 1.0, 2.0, 3.0])
        code, _, err = run(
            ["filter", "--family", "gl", "--nu", "1", "--delta", "0.5",
             "-i", str(src), "-o", str(src) + ".out"],
            capsys,
        )
        assert code == 1
        assert "disagrees with the file spacing" in err

    def test_continuous_families_cannot_filter_samples(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        write_signal(src, [0.0, 0.1, 0.2, 0.3], [0.0, 1.0, 2.0, 3.0])
        code, _, err = run(
            ["filter", "--family", "jacobi", "--nu", "0.5",
             "-i", str(src), "-o", str(src) + ".out"],
            capsys,
        )
        assert code == 1
        assert "use gl, gram, or hahn" in err


# CLI flags and the library weights they select, all at nu = 0.5, as
# functions of (delta, signal length)
SHARED_LAYOUT_DESIGNS = {
    "gram-N4": (["--family", "gram", "--N", "4"],
                lambda d, L: gram_n1_weights(4, 0.5, d, default_history(4, 1, 0.5))),
    "gram-N16": (["--family", "gram", "--N", "16"],
                 lambda d, L: gram_n1_weights(16, 0.5, d, default_history(16, 1, 0.5))),
    "hahn-N16": (["--family", "hahn", "--N", "16", "--alpha", "0.5", "--beta", "0.5"],
                 lambda d, L: hahn_weights(HahnFilterParams(
                     alpha=0.5, beta=0.5, N=16, n=1, nu=0.5, delta=d))),
    "gl": (["--family", "gl"], lambda d, L: gl_weights(0.5, L, d)),
}


class TestSharedTapLayout:
    """The CLI hands the taps of its family row to filter_signal, which
    correlates them over the padded signal, and apply_discrete_filter
    returns a row of the same correlation, so they agree bit for bit on
    every row, zero-history rows of a causal signal included."""

    @pytest.mark.parametrize("causal", [False, True], ids=["noncausal", "causal"])
    @pytest.mark.parametrize("design", sorted(SHARED_LAYOUT_DESIGNS))
    def test_filter_rows_equal_the_library_call(self, tmp_path, capsys, design, causal):
        delta, L = 0.5, 700
        x = delta * np.arange(L)
        samples = x * x + 0.01 * np.random.default_rng(7).standard_normal(L)
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        write_signal(src, x, samples)
        flags, build = SHARED_LAYOUT_DESIGNS[design]
        argv = ["filter", *flags, "--nu", "0.5", "-i", str(src), "-o", str(dst)]
        code, _, _ = run(argv + (["--causal"] if causal else []), capsys)
        assert code == 0
        values, _ = read_values(dst)
        w = build(delta, L)
        M, N = w.backward.size, w.forward.size - 1
        sig = SampledSignal(x0=0.0, delta=delta, samples=samples, causal=causal)
        for i in range(0 if causal else M, L - N):
            assert apply_discrete_filter(sig, w, i) == values[i]


class TestSweepMode:
    def test_family_sweep_text(self, tmp_path, capsys):
        out = tmp_path / "ideal.txt"
        code, stdout, _ = run(
            ["sweep", "--family", "ideal", "--nu", "0.5", "-o", str(out)], capsys
        )
        assert code == 0
        assert stdout.strip() == f"wrote {out}"
        lines = out.read_text().splitlines()
        header = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 121  # default grid
        assert any(l.startswith("# family = ideal") for l in header)
        assert any(l.startswith("# run_id = ") for l in header)
        assert any(l.startswith("# grid = ") for l in header)

    def test_grid_override(self, tmp_path, capsys):
        out = tmp_path / "ideal.txt"
        run(["sweep", "--family", "ideal", "--nu", "0.5",
             "--grid", "1:10:5:lin", "-o", str(out)], capsys)
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(data) == 5
        assert data[0].split()[0] == "1.0"
        assert data[-1].split()[0] == "10.0"

    def test_json_output_with_configured_run_id(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("run_id = mytag123\n")
        out = tmp_path / "ideal.json"
        code, _, _ = run(
            ["sweep", "--config", str(cfg), "--family", "ideal", "--nu", "0.5",
             "-o", str(out)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["run_id"] == "mytag123"
        assert len(doc["samples"]) == 121

    def test_output_is_deterministic_and_path_independent(self, tmp_path, capsys):
        args = ["sweep", "--family", "gl", "--nu", "0.5", "--delta", "0.1"]
        out1 = tmp_path / "a" / "one.txt"
        out2 = tmp_path / "b" / "два.txt"
        out1.parent.mkdir()
        out2.parent.mkdir()
        run(args + ["-o", str(out1)], capsys)
        run(args + ["-o", str(out1)], capsys)  # same target twice
        first = out1.read_bytes()
        run(args + ["-o", str(out2)], capsys)
        assert out1.read_bytes() == first
        assert out2.read_bytes() == first

    def test_preset_writes_one_file_per_curve(self, tmp_path, capsys):
        out = tmp_path / "resp.txt"
        code, stdout, _ = run(["sweep", "--preset", "fig5", "-o", str(out)], capsys)
        assert code == 0
        written = sorted(tmp_path.glob("resp_N*.txt"))
        assert [p.name for p in written] == [
            "resp_N1.txt", "resp_N16.txt", "resp_N2.txt", "resp_N4.txt", "resp_N8.txt"
        ]
        assert stdout.count("wrote ") == 5
        for p in written:
            data = [l for l in p.read_text().splitlines() if not l.startswith("#")]
            assert len(data) == 121

    def test_laguerre_has_no_transfer(self, tmp_path, capsys):
        code, _, err = run(
            ["sweep", "--family", "laguerre", "--nu", "0.5",
             "-o", str(tmp_path / "x.txt")],
            capsys,
        )
        assert code == 1
        assert "no closed transfer" in err

    def test_bad_grid_spec(self, tmp_path, capsys):
        code, _, err = run(
            ["sweep", "--family", "ideal", "--nu", "0.5",
             "--grid", "1:10:5", "-o", str(tmp_path / "x.txt")],
            capsys,
        )
        assert code == 1
        assert "LO:HI:POINTS" in err

    def test_grid_count_above_the_cap(self, tmp_path, capsys):
        """A count no memory could hold exits 1; it used to end in a bare
        MemoryError traceback."""
        code, _, err = run(
            ["sweep", "--family", "ideal", "--nu", "0.5",
             "--grid", "1:2:1000000000000:lin", "-o", str(tmp_path / "x.txt")],
            capsys,
        )
        assert code == 1
        assert err == ("fracfilt: error: grid point count 1000000000000 is above "
                       "the cap of 10000000\n")
        assert list(tmp_path.iterdir()) == []


def _preset_family_args(name, flags):
    """(family, grid, {label: flags}) that the README table gives for a
    preset: each curve is this --family sweep."""
    d = flags.get("--delta", "1")
    pi = repr(math.pi)
    return {
        "fig1": ("ideal", "0.01:100:121:log", {f"n{v}": ["--nu", v] for v in ("1", "2", "5")}),
        "fig2": ("legendre", "0.001:100:101:log",
                 {"n1": ["--n", "1", "--nu", "1", "--delta", d]}),
        "fig3": ("ideal", "0.01:100:121:log",
                 {f"nu{v}": ["--nu", v] for v in ("1", "1.5", "2")}),
        "fig4": ("legendre", "0.001:100:61:log",
                 {f"nu{v}": ["--n", "1", "--nu", v, "--delta", d] for v in ("0.5", "0.75", "1")}),
        "fig5": ("gram", f"0.01:{pi}:121:log",
                 {f"N{v}": ["--N", v, "--nu", "0.5", "--delta", d]
                  for v in ("1", "2", "4", "8", "16")}),
        "fig6": ("gram", f"0.0001:{pi}:121:log",
                 {f"M{v}": ["--N", "7", "--M", v, "--nu", "0.5", "--delta", d]
                  for v in ("16", "64", "256", "1024")}),
        "fig7": ("butterworth", "0.01:1000:121:log",
                 {"n7": ["--n", "7", "--nu", flags.get("--nu", "0.5"),
                         "--omega0", flags.get("--omega0", "1")]}),
    }[name]


class TestPresets:
    """Each preset curve is the --family sweep with the preset's options."""

    OVERRIDES = {"--delta": "0.5", "--nu": "0.3", "--omega0": "2.5",
                 "--grid": "0.1:3:9:lin", "--M": "32", "--n": "3", "--alpha": "0.5"}

    @pytest.mark.parametrize("flags", [{}, OVERRIDES], ids=["defaults", "overrides"])
    @pytest.mark.parametrize("name", [f"fig{k}" for k in range(1, 8)])
    def test_curves_equal_family_sweeps(self, tmp_path, capsys, name, flags):
        extra = [a for kv in flags.items() for a in kv]
        code, _, _ = run(["sweep", "--preset", name, *extra,
                          "-o", str(tmp_path / "p.json")], capsys)
        assert code == 0
        family, grid, curves = _preset_family_args(name, flags)
        grid = flags.get("--grid", grid)
        multi = len(curves) > 1
        written = {p.name for p in tmp_path.glob("p*.json")}
        assert written == {f"p_{label}.json" if multi else "p.json" for label in curves}
        for label, args in curves.items():
            fam = tmp_path / f"f_{label}.json"
            code, _, _ = run(["sweep", "--family", family, *args, "--grid", grid,
                              "-o", str(fam)], capsys)
            assert code == 0
            got = json.loads((tmp_path / (f"p_{label}.json" if multi else "p.json")).read_text())
            want = json.loads(fam.read_text())
            assert got["samples"] == want["samples"]
            meta, ref = got["metadata"], want["metadata"]
            assert (meta.pop("preset"), meta.pop("label"), ref.pop("label")) == (name, label, "all")
            meta.pop("run_id")
            ref.pop("run_id")
            assert meta == ref

    def test_invalid_design_exits_one_like_the_family(self, tmp_path, capsys):
        code, _, err = run(["sweep", "--preset", "fig5", "--delta", "-1",
                            "-o", str(tmp_path / "p.txt")], capsys)
        assert code == 1
        assert list(tmp_path.iterdir()) == []
        assert run(["sweep", "--family", "gram", "--nu", "0.5", "--N", "4", "--delta", "-1",
                    "-o", str(tmp_path / "f.txt")], capsys)[2] == err

    @pytest.mark.parametrize("delta", ["-1", "0"])
    def test_every_step_family_refuses_a_non_positive_step(self, tmp_path, capsys, delta):
        """gl and legendre used to write all-NaN rows and exit 0 here."""
        errs = set()
        for i, argv in enumerate([
            ["--family", "gl", "--nu", "0.5"],
            ["--family", "legendre", "--nu", "0.5"],
            ["--family", "jacobi", "--nu", "0.5"],
            ["--family", "gram", "--nu", "0.5", "--N", "4"],
            ["--family", "hahn", "--nu", "0.5", "--N", "4"],
            ["--preset", "fig2"],
            ["--preset", "fig4"],
        ]):
            code, _, err = run(["sweep", *argv, "--delta", delta, "--grid", "0.1:1:3:lin",
                                "-o", str(tmp_path / f"{i}.txt")], capsys)
            assert code == 1
            errs.add(err)
        assert list(tmp_path.iterdir()) == []
        assert errs == {f"fracfilt: error: step must be positive, got --delta {delta}\n"}

    def test_gram_metadata_has_no_weight_exponents(self, tmp_path, capsys):
        base = ["sweep", "--nu", "0.5", "--delta", "1", "--N", "4", "--grid", "0.1:1:3:lin"]
        run(base + ["--family", "gram", "-o", str(tmp_path / "g.json")], capsys)
        run(base + ["--family", "hahn", "-o", str(tmp_path / "h.json")], capsys)
        gram = json.loads((tmp_path / "g.json").read_text())
        hahn = json.loads((tmp_path / "h.json").read_text())
        assert "alpha" not in gram["metadata"] and "beta" not in gram["metadata"]
        assert (hahn["metadata"]["alpha"], hahn["metadata"]["beta"]) == (0.0, 0.0)
        assert gram["samples"] == hahn["samples"]


# Each family's sweep metadata for FAMILY_FLAGS (pinned, run_id included)
# and its message when no option is given.  gram records n = 1 and no
# weight exponents whatever --n, --alpha and --beta say.
FAMILY_FLAGS = ["--nu", "0.5", "--delta", "0.5", "--N", "4", "--M", "32", "--n", "2",
                "--alpha", "0.25", "--beta", "0.75", "--omega0", "2", "--grid", "0.1:1:3:lin"]
_SWEEP_META = {"grid": "0.1:1:3:lin", "label": "all", "mode": "sweep", "nu": 0.5}
_RL = {"convention": "riemann_liouville"}
_NO_TRANSFER = ("family laguerre has no closed transfer here; sweep families: "
                "gl, gram, hahn, jacobi, legendre, ideal, butterworth")
FAMILY_SWEEPS = {
    "gl": ({**_RL, "delta": 0.5, "run_id": "c509f84ed3a9"},
           "family gl needs --nu and --delta"),
    "gram": ({**_RL, "delta": 0.5, "N": 4, "M": 32, "n": 1, "run_id": "e875da6624c2"},
             "family gram needs --nu, --delta, and --N"),
    "hahn": ({**_RL, "delta": 0.5, "N": 4, "M": 32, "n": 2, "alpha": 0.25, "beta": 0.75,
              "run_id": "1fe97bb3b663"}, "family hahn needs --nu, --delta, and --N"),
    "jacobi": ({"convention": "weyl", "delta": 0.5, "n": 2, "alpha": 0.25, "beta": 0.75,
                "run_id": "1a041d9df9b3"}, "family jacobi needs --nu and --delta"),
    "legendre": ({"convention": "weyl", "delta": 0.5, "n": 2, "run_id": "94b2a3fe6c6e"},
                 "family legendre needs --nu and --delta"),
    "laguerre": (None, _NO_TRANSFER),
    "ideal": ({**_RL, "run_id": "0d74c6cd107b"}, "family ideal needs --nu"),
    "butterworth": ({**_RL, "n": 2, "omega0": 2.0, "run_id": "ce1adba8fd3d"},
                    "family butterworth needs --nu"),
}


def test_every_family_is_pinned():
    assert tuple(FAMILY_SWEEPS) == cli._FAMILIES


@pytest.mark.parametrize("family", cli._FAMILIES)
def test_family_sweep_metadata_and_needs(tmp_path, capsys, family):
    meta, needs = FAMILY_SWEEPS[family]
    out = tmp_path / "s.json"
    code, _, err = run(["sweep", "--family", family, *FAMILY_FLAGS, "-o", str(out)], capsys)
    if meta is None:
        assert (code, err) == (1, f"fracfilt: error: {needs}\n")
    else:
        assert code == 0
        assert json.loads(out.read_text())["metadata"] == {**_SWEEP_META, **meta,
                                                          "family": family}
    code, _, err = run(["sweep", "--family", family, "-o", str(tmp_path / "x.json")], capsys)
    assert (code, err) == (1, f"fracfilt: error: {needs}\n")
    assert not (tmp_path / "x.json").exists()


def test_option_table_is_the_config_fields():
    """One row of cli._OPTIONS per RunConfig field but mode, in order."""
    assert list(cli._OPTIONS) == [f.name for f in fields(cli.RunConfig)][1:]


def test_readme_usage_names_every_long_flag():
    """The usage block under README's "Command line" lists exactly the
    long flags the parser accepts, in every mode."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = readme.split("## Command line", 1)[1].split("```")[1]
    documented = set(re.findall(r"--\w+", usage))
    parser = cli.build_parser()
    modes = next(a for a in parser._actions if a.dest == "mode").choices
    assert set(modes) == {"filter", "sweep", "metrics"}
    for sub in modes.values():
        accepted = {s for a in sub._actions for s in a.option_strings
                    if s.startswith("--")} - {"--help"}
        assert accepted == documented


class TestMetricsMode:
    def test_report_values(self, tmp_path, capsys):
        out = tmp_path / "metrics.txt"
        code, stdout, _ = run(
            ["metrics", "--family", "gram", "--nu", "0.5", "--delta", "1",
             "--N", "7", "--M", "64", "-o", str(out)],
            capsys,
        )
        assert code == 0
        report = dict(
            line.split(" = ", 1) for line in stdout.strip().splitlines()
        )
        assert report["family"] == "gram"
        assert report["N"] == "7" and report["M"] == "64"
        assert float(report["h_zero"]) == pytest.approx(
            truncated_dc_gain(7, 0.5, 1.0, 64), rel=1e-15
        )
        assert float(report["omega_lower"]) == pytest.approx(
            float(report["h_zero"]) ** 2.0, rel=1e-12
        )
        assert float(report["bandwidth"]) > 0.0
        assert out.read_text() == stdout

    def test_integer_order_edge_is_flagged(self, capsys):
        code, stdout, _ = run(
            ["metrics", "--family", "gram", "--nu", "1", "--delta", "1",
             "--N", "7", "--M", "64"],
            capsys,
        )
        assert code == 0
        assert "bandwidth = none (band empty)" in stdout
        assert "integer-order edge" in stdout

    def test_metrics_scheme_restrictions(self, capsys):
        code, _, err = run(
            ["metrics", "--family", "hahn", "--nu", "0.5", "--delta", "1",
             "--N", "4", "--n", "2"],
            capsys,
        )
        assert code == 1
        assert "first-order flat-weight" in err
        code, _, err = run(
            ["metrics", "--family", "gl", "--nu", "0.5", "--delta", "1", "--N", "4"],
            capsys,
        )
        assert code == 1
        assert "covers families gram and hahn" in err


class TestLargeGammaArguments:
    """Gamma arguments between 142 and 171 are finite doubles; designs
    that need them must run, not die with an overflow traceback."""

    def test_metrics_with_history_near_the_lgamma_switch(self, capsys):
        code, stdout, _ = run(
            ["metrics", "--family", "gram", "--nu", "0.5", "--delta", "1e-3",
             "--N", "7", "--M", "150"],
            capsys,
        )
        assert code == 0
        report = dict(line.split(" = ", 1) for line in stdout.strip().splitlines())
        w = gram_n1_weights(7, 0.5, 1e-3, 150)
        taps = w.prefactor * np.concatenate([w.forward, w.backward])
        assert abs(float(report["h_zero"]) - abs(taps.sum())) <= 1e-10 * np.abs(taps).sum()

    def test_hahn_sweep_with_a_wide_window(self, tmp_path, capsys):
        out = tmp_path / "h.txt"
        code, _, _ = run(
            ["sweep", "--family", "hahn", "--nu", "0.5", "--delta", "1e-3",
             "--N", "145", "-o", str(out)],
            capsys,
        )
        assert code == 0
        data = [l.split() for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(data) == 121
        assert all(row[5] == "1" and math.isfinite(float(row[3])) for row in data)

    def test_saturated_hahn_sweep_past_gamma_overflow(self, tmp_path, capsys):
        """N = n = 70: every Gamma product in the gain overflows on its own."""
        out = tmp_path / "h.json"
        code, _, _ = run(
            ["sweep", "--family", "hahn", "--N", "70", "--n", "70", "--nu", "0.5",
             "--delta", "1", "-o", str(out)],
            capsys,
        )
        assert code == 0
        samples = json.loads(out.read_text())["samples"]
        assert samples and all(
            math.isfinite(s["re"]) and math.isfinite(s["im"]) for s in samples if s["valid"]
        )

    def test_filter_order_past_factorial_range(self, tmp_path, capsys):
        x = 0.01 * np.arange(400)
        write_signal(tmp_path / "in.csv", x, x * x)
        code, _, err = run(
            ["filter", "--family", "hahn", "--nu", "0.5", "--N", "200", "--n", "171",
             "--M", "5", "-i", str(tmp_path / "in.csv"), "-o", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err


class TestExitCodes:
    def test_missing_input_file_is_io(self, tmp_path, capsys):
        code, _, err = run(
            ["filter", "--family", "gl", "--nu", "1",
             "-i", str(tmp_path / "absent.csv"), "-o", str(tmp_path / "out.csv")],
            capsys,
        )
        assert code == 2
        assert err.startswith("fracfilt: i/o error:")

    def test_validation_prefix(self, capsys):
        code, _, err = run(["filter", "--family", "gl"], capsys)
        assert code == 1
        assert err.startswith("fracfilt: error:")

    def test_numeric_failure_is_exit_three(self, tmp_path, capsys, monkeypatch):
        def boom(cfg):
            raise PoleError("gamma pole at x = -3")

        monkeypatch.setattr(cli, "run_sweep", boom)
        code, _, err = run(
            ["sweep", "--family", "ideal", "--nu", "0.5",
             "-o", str(tmp_path / "x.txt")],
            capsys,
        )
        assert code == 3
        assert err.startswith("fracfilt: numeric failure:")

    def test_non_ascii_config_is_validation(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("family = gl\nnu = 0.5 # \u00b5s\n".encode("utf-8"))
        with pytest.raises(ValidationError, match="not ASCII"):
            cli.parse_config_file(str(cfg))
        code, _, err = run(
            ["sweep", "--config", str(cfg), "--delta", "1", "-o", str(tmp_path / "x.txt")],
            capsys,
        )
        assert code == 1
        assert err.startswith("fracfilt: error:")

    def test_unknown_flag_is_validation(self, capsys):
        code, _, err = run(["sweep", "--wavelength", "3"], capsys)
        assert code == 1
        assert err.startswith("fracfilt: error:")

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "filter|sweep|metrics" in capsys.readouterr().out


def _legendre_ref(n, nu, omega):
    """(i w)^nu (2n+1)!! j_n(w)/w^n at delta = 1, from mpmath."""
    with mpmath.workdps(40):
        w = mpmath.mpf(omega)
        jn = mpmath.sqrt(mpmath.pi / (2 * w)) * mpmath.besselj(n + 0.5, w)
        return complex(mpmath.power(1j * w, nu) * mpmath.fac2(2 * n + 1) * jn / w ** n)


def _sweep_rows(path):
    return [line.split() for line in path.read_text().splitlines()
            if not line.startswith("#")]


class TestRobustness:
    """Inputs that once ended in a traceback or a wrong valid row."""

    def test_legendre_sweep_at_multiples_of_pi(self, tmp_path, capsys):
        out = tmp_path / "l4.txt"
        code, _, _ = run(
            ["sweep", "--family", "legendre", "--n", "4", "--nu", "0.5", "--delta", "1",
             "--grid", f"{math.pi!r}:4:2:lin", "-o", str(out)],
            capsys,
        )
        assert code == 0
        omega, re_h, im_h, abs_h, _, valid = _sweep_rows(out)[0]
        ref = _legendre_ref(4, 0.5, float(omega))
        assert valid == "1"
        assert abs(complex(float(re_h), float(im_h)) - ref) <= 1e-12 * abs(ref)
        assert float(abs_h) == pytest.approx(abs(ref), rel=1e-12)

        out = tmp_path / "l8.txt"
        code, _, _ = run(
            ["sweep", "--family", "legendre", "--n", "8", "--nu", "0.5", "--delta", "1",
             "--grid", f"{2 * math.pi!r}:7:2:lin", "-o", str(out)],
            capsys,
        )
        assert code == 0
        assert all(row[5] == "1" for row in _sweep_rows(out))

    @pytest.mark.parametrize("family,nu,alpha", [("hahn", 0.5, 0.5), ("gram", -0.5, 0.0)])
    def test_truncated_sweep_of_a_design_outside_gram_n1_weights(
            self, tmp_path, capsys, family, nu, alpha):
        """A hahn design with alpha != 0, and a gram design below
        gram_n1_weights' nu range, once wrote every row as nan ... 0."""
        out = tmp_path / "h.txt"
        argv = ["sweep", "--family", family, "--nu", str(nu), "--delta", "1", "--N", "4",
                "--M", "64", "--grid", "0.1:1:3:log", "-o", str(out)]
        if family == "hahn":
            argv += ["--alpha", str(alpha)]
        code, _, _ = run(argv, capsys)
        assert code == 0
        rows = _sweep_rows(out)
        omega = np.array([float(row[0]) for row in rows])
        expected = hahn_truncated_transfer(
            HahnFilterParams(alpha, 0.0, 4, 1, nu, 1.0, 64), omega)
        assert len(rows) == 3 and all(row[5] == "1" for row in rows)
        for row, h in zip(rows, expected):
            assert complex(float(row[1]), float(row[2])) == h

    def test_legendre_order_past_gamma_range_poisons_points(self, tmp_path, capsys):
        out = tmp_path / "l200.json"
        code, _, _ = run(
            ["sweep", "--family", "legendre", "--nu", "0.5", "--delta", "1", "--n", "200",
             "-o", str(out)],
            capsys,
        )
        assert code == 0
        samples = json.loads(out.read_text())["samples"]
        assert len(samples) == 121
        assert all(not s["valid"] and "overflows" in s["note"] for s in samples)

    @pytest.mark.parametrize("nu,code", [("nan", 1), ("inf", 1), ("1e300", 3),
                                         ("200", 3), ("1030", 3)])
    def test_gl_order_out_of_range(self, tmp_path, capsys, nu, code):
        x = 0.01 * np.arange(300)
        write_signal(tmp_path / "in.csv", x, np.sin(x))
        got, _, err = run(
            ["filter", "--family", "gl", "--nu", nu, "--delta", "0.01",
             "-i", str(tmp_path / "in.csv"), "-o", str(tmp_path / "o.csv")],
            capsys,
        )
        assert got == code
        assert err.startswith("fracfilt: error:" if code == 1 else "fracfilt: numeric failure:")

    def test_gl_taps_past_double_range_exit_3(self, tmp_path, capsys):
        # prefactor 1 at delta = 1, but (-nu)_k / k! overflows near k = 550
        x = np.arange(3000.0)
        write_signal(tmp_path / "in.csv", x, np.exp(-1e-3 * x))
        code, _, err = run(
            ["filter", "--family", "gl", "--nu", "1100.5", "--causal",
             "-i", str(tmp_path / "in.csv"), "-o", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 3
        assert "overflow" in err and not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("nu", ["1e300", "1030"])
    def test_gl_integer_order_refused_before_taps_at_unit_step(self, tmp_path, capsys, nu):
        # delta = 1 keeps delta**-nu finite, so only the order cap stops
        # 1e300 + 1 taps from being built
        x = np.arange(50.0)
        write_signal(tmp_path / "in.csv", x, np.exp(-0.1 * x))
        code, _, err = run(
            ["filter", "--family", "gl", "--nu", nu,
             "-i", str(tmp_path / "in.csv"), "-o", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 3
        assert err.startswith("fracfilt: numeric failure:") and "integer order" in err

    def test_overflowing_sweep_points_are_not_valid(self, tmp_path, capsys):
        out = tmp_path / "ideal.txt"
        code, _, _ = run(["sweep", "--family", "ideal", "--nu", "200", "-o", str(out)],
                         capsys)
        assert code == 0
        rows = _sweep_rows(out)
        overflowed = [r for r in rows if "inf" in r[1:5]]
        assert len(overflowed) == 14
        assert all(r[5] == "0" for r in overflowed)
        assert all(r[5] == "1" for r in rows if r not in overflowed)

    @pytest.mark.parametrize("argv", [
        ["metrics", "--family", "gram", "--nu", "1e-300", "--delta", "0.01", "--N", "7"],
        ["filter", "--family", "hahn", "--nu", "200", "--n", "200", "--N", "200"],
    ])
    def test_overflowing_design_is_a_numeric_failure(self, tmp_path, capsys, argv):
        x = 0.01 * np.arange(300)
        write_signal(tmp_path / "in.csv", x, np.sin(x))
        io_args = ["-i", str(tmp_path / "in.csv")] if argv[0] == "filter" else []
        code, _, err = run(argv + io_args + ["-o", str(tmp_path / "o.txt")], capsys)
        assert code == 3
        assert "overflows double precision" in err or "leaves double range" in err

    def test_non_finite_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = legendre\nnu = 0.5\ndelta = inf\n")
        code, _, err = run(["sweep", "--config", str(cfg), "-o", str(tmp_path / "x.txt")],
                           capsys)
        assert code == 1
        assert "delta must be a finite number" in err

    def test_random_invocations_exit_cleanly(self, tmp_path, capsys):
        """Seeded random flag sets over every mode, family and preset, then
        the cases above: each run returns an exit code from 0 to 3 and
        raises nothing."""
        x = 0.01 * np.arange(300)
        csv = str(tmp_path / "in.csv")
        write_signal(csv, x, np.sin(x))
        floats = ("0", "1", "-1", "0.5", "7", "170", "171", "200", "1e-300", "1e300",
                  "nan", "inf", repr(math.pi), "1e-3")
        ints = ("0", "1", "-1", "1", "7", "7", "170", "171", "200")
        grids = (f"{math.pi!r}:{6 * math.pi!r}:6:lin", f"{2 * math.pi!r}:7:2:lin",
                 f"{math.pi!r}:4:2:lin", "1e-3:1e3:30:log", "1e-300:1e300:5:log",
                 "1:inf:3:lin", "nan:1:3:lin")
        flags = (("--nu", 0.9, floats), ("--delta", 0.7, floats + ("0.01",) * 4),
                 ("--n", 0.4, ints), ("--N", 0.8, ints), ("--M", 0.3, ints),
                 ("--alpha", 0.2, floats), ("--beta", 0.2, floats),
                 ("--omega0", 0.2, floats))
        rng = np.random.default_rng(20141)
        cases = []
        for i in range(300):
            mode = ("filter", "sweep", "metrics")[i % 3]
            own = {"filter": ("gl", "gram", "hahn"), "metrics": ("gram", "hahn")}
            families = own.get(mode, cli._FAMILIES) if rng.random() < 0.9 else cli._FAMILIES
            argv = [mode]
            if mode == "sweep" and rng.random() < 0.25:
                argv += ["--preset", f"fig{rng.integers(1, 8)}"]
            else:
                argv += ["--family", families[rng.integers(len(families))]]
            for flag, p, pool in flags:
                if rng.random() < p:
                    argv += [flag, pool[rng.integers(len(pool))]]
            if mode == "sweep" and rng.random() < 0.6:
                argv += ["--grid", grids[rng.integers(len(grids))]]
            if rng.random() < 0.5:
                argv.append("--causal")
            if mode == "filter":
                argv += ["-i", csv]
            cases.append(argv + ["-o", str(tmp_path / ("o.json" if i % 2 else "o.txt"))])
        legendre = ["sweep", "--family", "legendre", "--nu", "0.5", "--delta", "1",
                    "-o", str(tmp_path / "l.json")]
        cases += [
            legendre + ["--n", "4", "--grid", f"{math.pi!r}:4:2:lin"],
            legendre + ["--n", "8", "--grid", f"{2 * math.pi!r}:7:2:lin"],
            legendre + ["--n", "200"],
        ] + [
            ["filter", "--family", "gl", "--nu", nu, "--delta", "0.01", "-i", csv,
             "-o", str(tmp_path / "d.csv")]
            for nu in ("nan", "inf", "1e300", "200")
        ]
        for argv in cases:
            code = cli.main(argv)
            capsys.readouterr()
            assert code in (0, 1, 2, 3), argv
