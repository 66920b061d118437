"""Command line front end: `fracfilt filter|sweep|metrics`.

filter   apply a discrete fractional differentiator to a sampled signal
         (two-column CSV in, three-column CSV out with validity flags)
sweep    evaluate transfer functions over a frequency grid, either a
         named figure preset or a hand-assembled family, to columnar
         text or JSON
metrics  usable-band report for the truncated first-order filter

Every option is one row of `_OPTIONS`: the row makes the long flag, the
config key and the `RunConfig` field of the same name, with its default,
and a config value is converted with the flag's type.  Every family is
one row of `_FAMILY_ROWS`: the options it needs and records, its
convention, and how it sweeps and filters.  Options may come from a flat
key=value config file (--config); explicit flags override config values,
which override defaults.  A figure preset is one row of `_PRESETS`: a
family, the option it sweeps and the options it fixes, so each preset
curve is the `--family` sweep with those options.  All output is a pure
function of the inputs: no timestamps, and the run id recorded in sweep
metadata is settable through the config key run_id.

Exit codes: 0 success, 1 validation problem, 2 I/O problem, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import re
import sys
from dataclasses import asdict, fields, make_dataclass, replace
from functools import partial

import numpy as np

from .errors import DomainError, FracfiltError, ValidationError
# gl_coefficients is not called here, but bench/tracing.py wraps it as
# an attribute of this module
from .fracops import SampledSignal, gl_coefficients, gl_weights  # noqa: F401
from .hahn import (FilterWeights, HahnFilterParams, default_history, filter_signal,
                   gram_n1_weights, hahn_weights)
from .kernels import JacobiKernelParams
from .transfer import (
    Convention,
    FrequencyGrid,
    butterworth_fractional_transfer,
    filter_metrics,
    gl_transfer,
    hahn_transfer,
    hahn_truncated_transfer,
    ideal_transfer,
    jacobi_transfer,
    legendre_transfer,
    sweep,
    write_sweep_json,
    write_sweep_text,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

_SPACING_RTOL = 1e-9


def _hahn_params(cfg, delta: float) -> HahnFilterParams:
    return HahnFilterParams(alpha=cfg.alpha, beta=cfg.beta, N=cfg.N, n=cfg.n,
                            nu=cfg.nu, delta=delta, M=cfg.M)


def _hahn_curve(cfg):
    transfer = hahn_transfer if cfg.M is None else hahn_truncated_transfer
    return partial(transfer, _hahn_params(cfg, cfg.delta))


def _gl_taps(cfg, signal: SampledSignal):
    k = round(cfg.nu)
    if abs(cfg.nu - k) < 1e-12 and k >= 0:  # integer order: k + 1 taps
        if k > 1029:  # from k = 1030 on, C(k, k/2) overflows
            raise DomainError(f"gl taps of integer order {cfg.nu:g} overflow double precision")
        return gl_weights(cfg.nu, k + 1, signal.delta)
    return gl_weights(cfg.nu, len(signal), signal.delta)


_RL, _WEYL = Convention.RIEMANN_LIOUVILLE, Convention.WEYL

# family -> (options its sweep needs, further options its sweep metadata
# records when set, convention, config -> transfer closure or None (no
# sweep), (config, signal) -> filter weights or None (no filter mode)).
# The builders check the design before a sweep or filter starts, and call
# the tap builders by their names in this module, which bench/tracing.py
# wraps.  A family reads its step only if "delta" is among its needs.
_FAMILY_ROWS = {
    "gl": (("nu", "delta"), (), _RL, lambda c: partial(gl_transfer, c.nu, c.delta), _gl_taps),
    "gram": (("nu", "delta", "N"), ("n", "M"), _RL, _hahn_curve, lambda c, s: gram_n1_weights(
        c.N, c.nu, s.delta, default_history(c.N, 1, c.nu) if c.M is None else c.M)),
    "hahn": (("nu", "delta", "N"), ("n", "alpha", "beta", "M"), _RL, _hahn_curve,
             lambda c, s: hahn_weights(_hahn_params(c, s.delta))),
    "jacobi": (("nu", "delta"), ("n", "alpha", "beta"), _WEYL, lambda c: partial(
        jacobi_transfer, JacobiKernelParams(c.alpha, c.beta, c.n, c.nu, c.delta)), None),
    "legendre": (("nu", "delta"), ("n",), _WEYL,
                 lambda c: partial(legendre_transfer, c.n, c.nu, c.delta), None),
    "laguerre": ((), (), _WEYL, None, None),
    "ideal": (("nu",), (), _RL, lambda c: partial(ideal_transfer, c.nu, convention=_RL), None),
    "butterworth": (("nu",), ("n", "omega0"), _RL, lambda c: partial(
        butterworth_fractional_transfer, c.nu, c.n, c.omega0), None),
}
_FAMILIES = tuple(_FAMILY_ROWS)


def _listing(words, conjunction: str) -> str:
    """'a', 'a and b', or 'a, b, and c'."""
    if len(words) < 3:
        return f" {conjunction} ".join(words)
    return f"{', '.join(words[:-1])}, {conjunction} {words[-1]}"


def _design(cfg):
    """The config a family's design reads: gram is the hahn design at
    n = 1, alpha = beta = 0.  Applied after the run id hashed the config."""
    return replace(cfg, n=1, alpha=0.0, beta=0.0) if cfg.family == "gram" else cfg


def _require(cfg, needs) -> None:
    """Refuse a non-positive step of a family that reads it, then a config
    missing any option the family needs."""
    if "delta" in needs and cfg.delta is not None and not cfg.delta > 0.0:
        raise ValidationError(f"step must be positive, got --delta {cfg.delta:g}")
    if any(getattr(cfg, name) is None for name in needs):
        flags = _listing([f"--{name}" for name in needs], "and")
        raise ValidationError(f"family {cfg.family} needs {flags}")


def _to_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"expected a boolean, got {text!r}")


# name -> (type, default, metavar, help).  Each name is a config key and,
# in this order after mode, a RunConfig field (the run id hashes the
# fields in that order); all but run_id are also long flags.  A config value is converted with the type; causal is a
# switch on the command line.
_OPTIONS = {
    "family": (str, None, "F", f"one of {', '.join(_FAMILIES)}"),
    "nu": (float, None, "X", "fractional order"),
    "delta": (float, None, "X", "sample step"),
    "n": (int, 1, "N", "integer scheme order"),
    "N": (int, None, "W", "window degree / forward taps"),
    "M": (int, None, "M", "backward history length"),
    "alpha": (float, 0.0, "A", "left weight exponent"),
    "beta": (float, 0.0, "B", "right weight exponent"),
    "omega0": (float, 1.0, "W0", "corner frequency"),
    "grid": (str, None, "LO:HI:POINTS:log|lin", "frequency grid"),
    "preset": (str, None, "figN", "figure preset fig1..fig7"),
    "causal": (_to_bool, False, None, "treat samples before the first row as exact zeros"),
    "input": (str, None, "IN", "input CSV"),
    "output": (str, None, "OUT", "output path"),
    "run_id": (str, None, None, None),
}

RunConfig = make_dataclass("RunConfig", [("mode", str)] + [
    (name, row[0], row[1]) for name, row in _OPTIONS.items()], frozen=True, namespace={
    "__module__": __name__, "__doc__": "Fully merged options for one invocation."})


def _read_ascii_lines(path: str) -> list[str]:
    """The file's lines; a byte outside ASCII is a ValidationError."""
    with open(path, encoding="ascii") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start]
            raise ValidationError(f"{path}: not ASCII text (byte {bad:#04x})") from None


def parse_config_file(path: str) -> dict:
    """Flat key=value lines; blank lines and # comments ignored."""
    out: dict = {}
    for lineno, raw in enumerate(_read_ascii_lines(path), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _OPTIONS:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _OPTIONS[key][0](value)
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    merged: dict = {"mode": args.mode}
    if args.config:
        merged.update(parse_config_file(args.config))
    for name in _OPTIONS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            merged[name] = flag_value
    for key, value in merged.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{key} must be a finite number, got {value!r}")
    cfg = RunConfig(**merged)
    if cfg.family is not None and cfg.family not in _FAMILIES:
        raise ValidationError(
            f"unknown family {cfg.family!r}; choose from {', '.join(_FAMILIES)}"
        )
    if cfg.preset is not None and cfg.preset not in _PRESETS:
        raise ValidationError(
            f"unknown preset {cfg.preset!r}; choose from {', '.join(_PRESETS)}"
        )
    return cfg


def _default_run_id(cfg: RunConfig) -> str:
    # hash the mathematical content only, so renaming files or moving
    # directories cannot change the recorded id
    skip = ("run_id", "input", "output")
    canon = ";".join(
        f"{f.name}={getattr(cfg, f.name)}" for f in fields(RunConfig) if f.name not in skip
    )
    return hashlib.sha256(canon.encode("ascii")).hexdigest()[:12]


# ---------------------------------------------------------------- filter


# a row of only these characters holds no sample: whitespace, separators
# and the quotes of empty quoted cells
_BLANK_ROW = ' \t\r\n\v\f,"'


# a row's first cell as numpy's reader cuts it: a leading quote opens a
# quoted span, where "" is one quote and commas and the line end belong
# to the cell; after the span the cell runs on to the next comma
_FIRST_CELL = re.compile(r'(?:"((?:[^"]|"")*)"?)?([^,\n]*)')


def _is_header(line: str) -> bool:
    """Whether the row's first cell is not a number (float() decides).

    The cell is cut as numpy's string reader cuts it, with trailing NULs
    dropped as numpy's string arrays drop them; no numpy parse runs per
    row."""
    quoted, rest = _FIRST_CELL.match(line).groups()
    try:
        float(((quoted or "").replace('""', '"') + rest).rstrip("\x00"))
    except ValueError:
        return True
    return False


def read_signal_file(path: str):
    """CSV (x, value[, valid]) -> (x, values, valid-or-None).

    Leading rows whose first cell is not a number are headers; rows of
    only separators and whitespace are skipped.  numpy's reader parses
    every float with CPython's string-to-double, so writing the arrays
    back out reproduces the file byte for byte; unlike float() it refuses
    digit-grouping underscores."""
    lines = [line for line in _read_ascii_lines(path) if line.strip(_BLANK_ROW)]
    start = 0
    while start < len(lines) and _is_header(lines[start]):
        start += 1
    if start == len(lines):
        raise ValidationError(f"{path}: no samples found")
    try:
        table = np.loadtxt(lines[start:], delimiter=",", ndmin=2, comments=None,
                           quotechar='"')
    except ValueError as exc:
        raise ValidationError(f"{path}: unreadable samples: {exc}") from None
    if table.shape[1] not in (2, 3):
        raise ValidationError(f"{path}: expected uniform rows of 2 or 3 columns")
    columns = table.T.copy()  # one contiguous array per column
    valid = None
    if columns.shape[0] == 3:
        if not np.all(np.abs(columns[2]) < 2.0 ** 63):  # nan and inf fail too
            raise ValidationError(f"{path}: valid flag not finite or beyond 64 bits")
        valid = columns[2].astype(np.int64)
    return columns[0], columns[1], valid


def write_signal_file(path: str, x, values, valid) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write("x,value,valid\n")
        fh.writelines(f"{xi!r},{vi!r},{fi}\n" for xi, vi, fi in
                      zip(x.tolist(), values.tolist(), valid.tolist()))


def _signal_from_columns(cfg: RunConfig, x: np.ndarray, values: np.ndarray) -> SampledSignal:
    if x.size < 2:
        raise ValidationError("need at least two samples to establish the spacing")
    delta = (x[-1] - x[0]) / (x.size - 1)
    if not delta > 0.0:
        raise ValidationError("sample positions must increase")
    tol = _SPACING_RTOL * max(delta, float(np.max(np.abs(x))))
    if float(np.max(np.abs(np.diff(x) - delta))) > tol:
        raise ValidationError(
            f"sample spacing is not uniform to {_SPACING_RTOL:g} relative"
        )
    if cfg.delta is not None and abs(cfg.delta - delta) > tol:
        raise ValidationError(
            f"--delta {cfg.delta:g} disagrees with the file spacing {delta:g}"
        )
    return SampledSignal(x0=float(x[0]), delta=float(delta), samples=values,
                         causal=cfg.causal)


def _filter_taps(cfg: RunConfig, signal: SampledSignal):
    """Return (backward count M, forward count N, taps in offset order
    -M..N, prefactor)."""
    needs, _, _, _, taps = _FAMILY_ROWS[cfg.family]
    if taps is None:
        filtering = _listing([f for f, row in _FAMILY_ROWS.items() if row[4]], "or")
        raise ValidationError(
            f"family {cfg.family} has no filter mode; for sampled data use {filtering}")
    cfg = _design(cfg)
    _require(cfg, tuple(name for name in needs if name != "delta"))  # the file sets it
    w = taps(cfg, signal)
    return w.backward.size, w.forward.size - 1, w.taps, w.prefactor


def run_filter(cfg: RunConfig) -> int:
    if cfg.family is None:
        raise ValidationError("filter mode needs --family (gl, gram, or hahn)")
    if cfg.input is None or cfg.output is None:
        raise ValidationError("filter mode needs -i input.csv and -o output.csv")
    x, values, flags = read_signal_file(cfg.input)
    if flags is not None:  # a row flagged invalid holds no sample
        values = np.where(flags == 0, math.nan, values)
    signal = _signal_from_columns(cfg, x, values)
    M, _, taps, prefactor = _filter_taps(cfg, signal)
    out, valid = filter_signal(signal, FilterWeights(taps[M:], taps[:M][::-1], prefactor))
    write_signal_file(cfg.output, x, out, valid)
    return EXIT_OK


# ----------------------------------------------------------------- sweep


def _parse_grid(text: str) -> FrequencyGrid:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValidationError(f"grid must be LO:HI:POINTS:log|lin, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"bad grid {text!r}: {exc}") from None
    if count < 2:
        raise ValidationError("grid needs at least two points")
    if parts[3] == "log":
        return FrequencyGrid.logarithmic(lo, hi, count)
    if parts[3] == "lin":
        return FrequencyGrid.linear(lo, hi, count)
    raise ValidationError(f"grid spacing must be log or lin, got {parts[3]!r}")


def _grid_label(grid: FrequencyGrid) -> str:
    kind = "log" if grid.spacing.name == "LOGARITHMIC" else "lin"
    return f"{grid.points[0]:g}:{grid.points[-1]:g}:{grid.points.size}:{kind}"


# name -> (family, logarithmic grid (lo, hi, points), label format,
# swept option, its values, fixed options, options a given flag sets).
# Each curve is the --family sweep with these options; all others keep
# their defaults, and --grid replaces the grid.  Parameters follow the
# reference plots.
_PRESETS = {
    "fig1": ("ideal", (1e-2, 1e2, 121), "n{nu:g}", "nu", (1.0, 2.0, 5.0), {}, ()),
    "fig2": ("legendre", (1e-3, 1e2, 101), "n{n}", "n", (1,),
             {"nu": 1.0, "delta": 1.0}, ("delta",)),
    "fig3": ("ideal", (1e-2, 1e2, 121), "nu{nu:g}", "nu", (1.0, 1.5, 2.0), {}, ()),
    "fig4": ("legendre", (1e-3, 1e2, 61), "nu{nu:g}", "nu", (0.5, 0.75, 1.0),
             {"n": 1, "delta": 1.0}, ("delta",)),
    "fig5": ("gram", (1e-2, math.pi, 121), "N{N}", "N", (1, 2, 4, 8, 16),
             {"nu": 0.5, "delta": 1.0}, ("delta",)),
    "fig6": ("gram", (1e-4, math.pi, 121), "M{M}", "M", (16, 64, 256, 1024),
             {"N": 7, "nu": 0.5, "delta": 1.0}, ("delta",)),
    "fig7": ("butterworth", (1e-2, 1e3, 121), "n{n}", "n", (7,),
             {"nu": 0.5}, ("nu", "omega0")),
}


def _preset_curves(cfg: RunConfig):
    """(grid, [(label, closure, meta), ...]) for a figure preset."""
    family, grid, label, swept, values, options, honours = _PRESETS[cfg.preset]
    flags = {k: getattr(cfg, k) for k in honours if getattr(cfg, k) is not None}
    base = RunConfig(mode=cfg.mode, family=family, **{**options, **flags})
    curves = []
    for value in values:
        one = replace(base, **{swept: value})
        closure, meta = _family_curve(one)
        curves.append((label.format(**asdict(one)), closure, dict(meta, preset=cfg.preset)))
    return FrequencyGrid.logarithmic(*grid), curves


def _family_curve(cfg: RunConfig):
    """(transfer closure, metadata) of a --family sweep; the design is
    checked here, before the sweep starts."""
    needs, records, convention, transfer, _ = _FAMILY_ROWS[cfg.family]
    cfg = _design(cfg)
    _require(cfg, needs)
    if transfer is None:
        sweeping = ", ".join(f for f, row in _FAMILY_ROWS.items() if row[3])
        raise ValidationError(
            f"family {cfg.family} has no closed transfer here; sweep families: {sweeping}")
    meta = {"family": cfg.family, "convention": convention.value}
    meta.update((k, getattr(cfg, k)) for k in needs + records if getattr(cfg, k) is not None)
    return transfer(cfg), meta


def _curve_path(output: str, label: str, multi: bool) -> str:
    if not multi:
        return output
    stem, dot, ext = output.rpartition(".")
    if not dot:
        return f"{output}_{label}"
    return f"{stem}_{label}.{ext}"


def run_sweep(cfg: RunConfig) -> int:
    if cfg.output is None:
        raise ValidationError("sweep mode needs -o output (.txt or .json)")
    if cfg.preset is not None:
        grid, curves = _preset_curves(cfg)
    elif cfg.family is None:
        raise ValidationError("sweep mode needs --family or --preset")
    else:
        closure, meta = _family_curve(cfg)
        grid = FrequencyGrid.logarithmic(1e-2, 1e2, 121)
        curves = [("all", closure, meta)]
    if cfg.grid is not None:
        grid = _parse_grid(cfg.grid)
    run_id = cfg.run_id if cfg.run_id is not None else _default_run_id(cfg)
    multi = len(curves) > 1
    for label, closure, meta in curves:
        samples = sweep(closure, grid)
        meta = dict(meta, mode="sweep", label=label, run_id=run_id,
                    grid=_grid_label(grid))
        path = _curve_path(cfg.output, label, multi)
        if path.endswith(".json"):
            write_sweep_json(samples, path, meta)
        else:
            write_sweep_text(samples, path, meta)
        print(f"wrote {path}")
    return EXIT_OK


# --------------------------------------------------------------- metrics


def run_metrics(cfg: RunConfig) -> int:
    if cfg.family not in ("gram", "hahn"):
        raise ValidationError("metrics mode covers families gram and hahn")
    cfg = _design(cfg)
    _require(cfg, _FAMILY_ROWS[cfg.family][0])
    params = _hahn_params(cfg, cfg.delta)
    m = filter_metrics(params)  # rejects all but n = 1, alpha = beta = 0
    lines = [f"family = {cfg.family}"]
    lines += [f"{k} = {getattr(params, k)!r}" for k in ("N", "M", "nu", "delta")]
    lines += [f"{k} = {'none (band empty)' if v is None else repr(v)}"
              for k, v in asdict(m).items()]
    if m.omega_max == 0.0:
        lines.append("note = nu = 1 is the integer-order edge: the validity "
                     "window closes and omega_max degenerates to 0")
    text = "\n".join(lines) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="ascii") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


# ------------------------------------------------------------------ main


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); remap
        raise ValidationError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="flat key=value option file")
    for name, (conv, _, metavar, text) in _OPTIONS.items():
        if text is None:  # run_id is a config key only
            continue
        flags = [f"--{name}"]
        if name in ("input", "output"):
            flags.insert(0, f"-{name[0]}")
        if conv is _to_bool:
            p.add_argument(*flags, action="store_const", const=True, help=text)
        else:
            p.add_argument(*flags, type=conv, metavar=metavar, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fracfilt",
        description="fractional differentiation filters: apply, sweep, assess",
        epilog="config keys mirror the long flags (plus run_id); flags win",
    )
    sub = parser.add_subparsers(dest="mode", required=True, metavar="filter|sweep|metrics")
    for mode, brief in (
        ("filter", "apply a discrete fractional differentiator to a CSV signal"),
        ("sweep", "write transfer-function data over a frequency grid"),
        ("metrics", "report the usable band of a truncated filter"),
    ):
        _add_common(sub.add_parser(mode, help=brief, description=brief))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        if cfg.mode == "filter":
            return run_filter(cfg)
        if cfg.mode == "sweep":
            return run_sweep(cfg)
        return run_metrics(cfg)
    except ValidationError as exc:
        print(f"fracfilt: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"fracfilt: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FracfiltError as exc:
        print(f"fracfilt: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
