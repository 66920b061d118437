"""End-to-end command line behavior through cli.main: option merging,
filtering, sweeps, metrics, determinism, and exit codes."""

import json
import math

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
from fracfilt.transfer import truncated_dc_gain

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
    """The CLI correlates w.taps over the padded signal and
    apply_discrete_filter dots a slice of the same array, so they agree
    bit for bit wherever the whole history is there."""

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
        for i in range(M, L - N):
            assert apply_discrete_filter(sig, w, i) == values[i]
        if causal:
            # zero history: the CLI sums the zero padding, the library skips it
            for i in range(min(M, L - N)):
                terms = w.taps[M - i:] * samples[:i + N + 1]
                scale = abs(w.prefactor) * np.abs(terms).sum()
                assert abs(apply_discrete_filter(sig, w, i) - values[i]) <= 1e-15 * scale


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
