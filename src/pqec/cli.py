"""Command-line front end: deterministic experiments, CSV and SVG output.

Subcommands: ``purify``, ``cycle``, ``sweep``, ``threshold``, ``sample``,
``twirl-check``. Every run writes a CSV with a provenance header (artifact
version, command, seed, canonical config and its hash), so identical
(config, seed) pairs reproduce byte-identical files. Exit codes: 0 success,
1 error, 2 threshold-without-crossing.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import operator
import os
import re
import sys

import numpy as np

from . import __version__
from .channels import CHANNEL_KINDS, DEFAULT_SEED, NoiseModel, make_channel
from .montecarlo import ratio_estimate, simulate_shots
from .purify import extract_observable_exact, purified_state
from .states import MAX_PAULI_QUBITS, ValidationError, bloch_state, density_from_pure, \
    fidelity, pauli_matrix, plus_state, zero_state
from .svgplot import line_chart
from .threshold import find_threshold, run_cycles, sweep

OUTPUT_DIR_ENV = "PQEC_OUTPUT_DIR"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CROSSING = 2


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


# ----------------------------------------------------------------------
# Value parsers
# ----------------------------------------------------------------------

def parse_real_grid(text: str) -> np.ndarray:
    """``v`` single value, ``a,b,c`` list, or ``min:max:count`` inclusive grid."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid spec {text!r} is not min:max:count")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValidationError("grid count must be >= 1")
        return np.linspace(lo, hi, count)
    if "," in text:
        return np.array([float(v) for v in text.split(",")])
    return np.array([float(text)])


def parse_int_list(text: str) -> tuple[int, ...]:
    """``v`` single value, ``a,b,c`` list, or ``a..b`` inclusive range."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    if "," in text:
        return tuple(int(v) for v in text.split(","))
    return (int(text),)


_ANGLE_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.UAdd: operator.pos, ast.USub: operator.neg}


def _angle_value(node) -> float:
    """Evaluate a parsed angle made of numbers, ``pi``, + - * / and parentheses."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _ANGLE_OPS:
        return _ANGLE_OPS[type(node.op)](_angle_value(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _ANGLE_OPS:
        return _ANGLE_OPS[type(node.op)](_angle_value(node.left), _angle_value(node.right))
    raise ValueError("only numbers, pi, + - * / and parentheses are allowed")


def _parse_angle(text: str) -> float:
    """Float literal, optionally using ``pi`` (e.g. ``pi/3``, ``0.5pi``)."""
    # a number directly before pi multiplies it: 0.5pi -> 0.5*pi
    cleaned = re.sub(r"(?<=[0-9.])\s*pi", "*pi", text.strip())
    try:
        value = _angle_value(ast.parse(cleaned, mode="eval").body)
    # the parser reports deeply nested input as RecursionError or MemoryError
    except (SyntaxError, ValueError, ZeroDivisionError, OverflowError,
            RecursionError, MemoryError) as exc:
        raise ValidationError(f"bad angle literal {text!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(f"bad angle literal {text!r}: not finite")
    return value


def parse_state(spec: str) -> np.ndarray:
    """Target-state spec: ``plus^M``, ``zero^M``, or ``bloch:theta,phi[^M]``."""
    spec = spec.strip()
    reps = 1
    if "^" in spec:
        spec, reps_text = spec.rsplit("^", 1)
        reps = int(reps_text)
        if reps < 1:
            raise ValidationError("state repetition count must be >= 1")
    if spec == "plus":
        return plus_state(reps)
    if spec == "zero":
        return zero_state(reps)
    if spec.startswith("bloch:"):
        angles = spec[len("bloch:"):].split(",")
        if len(angles) != 2:
            raise ValidationError("bloch state needs theta,phi")
        theta, phi = _parse_angle(angles[0]), _parse_angle(angles[1])
        return bloch_state(theta, phi, reps)
    raise ValidationError(f"unknown state spec {spec!r}")


# ----------------------------------------------------------------------
# Result tables with provenance headers
# ----------------------------------------------------------------------

def _fmt_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


class ResultTable:
    """Ordered columns plus rows, serialized with a ``#`` provenance header."""

    def __init__(self, columns, rows, config: dict, seed: int, command: str,
                 extra_comments=()):
        self.columns = list(columns)
        self.rows = [tuple(r) for r in rows]
        self.config = config
        self.seed = seed
        self.command = command
        self.extra_comments = list(extra_comments)

    def format_csv(self) -> str:
        config_json = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(config_json.encode()).hexdigest()
        lines = [
            f"# pqec-version: {__version__}",
            f"# command: {self.command}",
            f"# seed: {self.seed}",
            f"# config: {config_json}",
            f"# config-hash: {digest}",
        ]
        lines.extend(f"# {c}" for c in self.extra_comments)
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt_value(v) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.format_csv())
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc}") from exc


def _write_table(args, columns, rows, comments=()) -> str:
    """Write the command's CSV with its provenance header; return the path.

    ``--out`` wins; otherwise ``<command>.csv`` in $PQEC_OUTPUT_DIR or here.
    """
    path = args.out or os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), f"{args.command}.csv")
    ResultTable(columns, rows, _config_dict(args), args.seed, args.command, comments).write(path)
    return path


# ----------------------------------------------------------------------
# Argument handling
# ----------------------------------------------------------------------

def _add_common(sub, *, channel=False, state=False, shots=False):
    sub.add_argument("--config", help="JSON file whose keys mirror the flag names")
    sub.add_argument("--seed", type=int, help=f"RNG/twirl seed (default {DEFAULT_SEED})")
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--svg", help="also write an SVG line chart here")
    sub.add_argument("--M", type=int, dest="m", help="number of register qubits")
    if channel:
        sub.add_argument("--channel", choices=CHANNEL_KINDS, help="noise channel kind")
        sub.add_argument("--p", help="error probability: value, list, or min:max:count")
        sub.add_argument("--twirl", type=float, dest="twirl",
                         help="twirl fraction in (0,1]; turns dephasing into twirled-dephasing")
    if state:
        sub.add_argument("--state", help="target state: plus^M, zero^M, bloch:theta,phi[^M]")
    if shots:
        sub.add_argument("--shots", type=int, help="shots per batch (default 100000)")
        sub.add_argument("--batches", type=int, help="number of batches (default 1)")
        sub.add_argument("--observable", help="Pauli string observable (default Z on qubit 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="pqec", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("purify", parents=[], help="noise once, then purification rounds")
    _add_common(p, channel=True, state=True)
    p.add_argument("--ell", help="purification rounds: value, list, or a..b")

    p = subs.add_parser("cycle", help="iterate channel-then-purify cycles")
    _add_common(p, channel=True, state=True)
    p.add_argument("--ell", help="purification rounds per cycle (single value)")
    p.add_argument("--cycles", type=int, help="number of cycles (default 30)")

    p = subs.add_parser("sweep", help="grid of (p, rounds) cycle experiments")
    _add_common(p, channel=True, state=True)
    p.add_argument("--ell", help="rounds values: list or a..b")
    p.add_argument("--cycles", type=int, help="cycles per cell (default 30)")
    p.add_argument("--jobs", type=int, help="parallel workers (default: cpu count)")
    p.add_argument("--traces", help="also write per-trace CSV (p, ell, t, F) here")

    p = subs.add_parser("threshold", help="sweep plus crossing-point extraction")
    _add_common(p, channel=True, state=True)
    p.add_argument("--ell", help="rounds values (default 0,1,2,3,5)")
    p.add_argument("--cycles", type=int, help="cycles per cell (default 30)")
    p.add_argument("--jobs", type=int, help="parallel workers (default: cpu count)")

    p = subs.add_parser("sample", help="shot-level ratio estimation of an observable")
    _add_common(p, channel=True, state=True, shots=True)
    p.add_argument("--ell", help="purification rounds (single value)")

    p = subs.add_parser("twirl-check", help="full-twirl dephasing vs local depolarizing")
    _add_common(p, channel=False)
    p.add_argument("--p", help="error probability: value or list")

    return parser


def _command_keys(args: argparse.Namespace) -> set:
    """Option names of the parsed subcommand: argparse fills in every one."""
    return set(vars(args)) - {"command"}


def merge_config(args: argparse.Namespace, parser: _Parser) -> argparse.Namespace:
    """Overlay config-file values under explicit flags; reject unknown keys."""
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config, encoding="utf-8") as fh:
            file_values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {args.config}: {exc}")
    if not isinstance(file_values, dict):
        parser.error("config file must hold a JSON object")
    allowed = _command_keys(args)
    for key, value in file_values.items():
        dest = key.replace("-", "_")
        if dest == "M":
            dest = "m"
        if dest not in allowed or dest == "config":
            parser.error(f"unknown config key {key!r} for command {args.command}")
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)
    return args


def _resolve_state(args, parser) -> np.ndarray:
    spec = args.state
    if spec is None:
        if args.m is None:
            parser.error("need --state or --M")
        spec = f"plus^{args.m}"
    try:
        psi = parse_state(str(spec))
    except (ValidationError, ValueError) as exc:
        parser.error(f"--state: {exc}")
    m = psi.size.bit_length() - 1
    if args.m is not None and args.m != m:
        parser.error(f"--M {args.m} conflicts with state on {m} qubits")
    args.m = m
    return psi


def _resolve_model(args, parser, p_value: float) -> NoiseModel:
    kind = args.channel
    if kind is None:
        parser.error("--channel is required")
    fraction = getattr(args, "twirl", None)
    if fraction is not None:
        if kind == "dephasing":
            kind = "twirled-dephasing"
        elif kind != "twirled-dephasing":
            parser.error(f"--twirl does not apply to channel {kind!r}")
    model = NoiseModel(kind=kind, p=float(p_value),
                       twirl_fraction=float(fraction) if fraction is not None else 1.0,
                       twirl_seed=args.seed)
    try:
        model.validate()
    except ValidationError as exc:
        parser.error(str(exc))
    return model


def _p_grid(args, parser, default: str | None = None) -> np.ndarray:
    if args.p is None:
        if default is None:
            parser.error("--p is required")
        args.p = default
    try:
        grid = parse_real_grid(str(args.p))
    except (ValidationError, ValueError) as exc:
        parser.error(f"--p: {exc}")
    if np.any(grid < 0.0) or np.any(grid > 1.0):
        parser.error(f"--p: values must lie in [0, 1], got {args.p}")
    return grid


def _ell_list(args, parser, default=None) -> tuple[int, ...]:
    if args.ell is None:
        if default is not None:
            args.ell = ",".join(str(e) for e in default)
            return default
        parser.error("--ell is required")
    try:
        ells = parse_int_list(str(args.ell))
    except ValueError as exc:
        parser.error(f"--ell: {exc}")
    if any(e < 0 for e in ells):
        parser.error("--ell: rounds must be >= 0")
    return ells


# Keys that do not influence the computed values: output locations and the
# worker count stay out of the provenance config, so reruns are byte-identical
# wherever they are written.
_NON_PROVENANCE = {"config", "out", "svg", "traces", "jobs"}


def _config_dict(args) -> dict:
    out = {}
    for key in sorted(_command_keys(args) - _NON_PROVENANCE):
        value = getattr(args, key, None)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        out[key] = value
    return out


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def _cmd_purify(args, parser) -> int:
    psi = _resolve_state(args, parser)
    p = float(_p_grid(args, parser)[0])
    ells = _ell_list(args, parser)
    model = _resolve_model(args, parser, p)
    channel = make_channel(model, args.m)
    noisy = channel(density_from_pure(psi))
    rows = [(ell, fidelity(purified_state(noisy, ell), psi)) for ell in ells]
    path = _write_table(args, ["ell", "fidelity"], rows)
    print(f"wrote {path}")
    if args.svg:
        line_chart([("F", [r[0] for r in rows], [r[1] for r in rows])],
                   args.svg, title="fidelity vs purification rounds",
                   xlabel="rounds", ylabel="fidelity")
        print(f"wrote {args.svg}")
    return EXIT_OK


def _cmd_cycle(args, parser) -> int:
    psi = _resolve_state(args, parser)
    p = float(_p_grid(args, parser)[0])
    ells = _ell_list(args, parser)
    if len(ells) != 1:
        parser.error("--ell must be a single value for cycle")
    if args.cycles is None:
        args.cycles = 30
    model = _resolve_model(args, parser, p)
    trace = run_cycles(psi, model, ells[0], args.cycles)
    rows = list(enumerate(trace.fidelities))
    path = _write_table(args, ["t", "fidelity"], rows)
    print(f"wrote {path} (final F = {trace.fidelities[-1]:.10f})")
    if args.svg:
        line_chart([(f"ell={ells[0]}", [r[0] for r in rows], [r[1] for r in rows])],
                   args.svg, title="fidelity vs cycles", xlabel="t", ylabel="fidelity")
        print(f"wrote {args.svg}")
    return EXIT_OK


def _run_sweep(args, parser):
    psi = _resolve_state(args, parser)
    p_values = _p_grid(args, parser, default="0:1:41")
    ells = _ell_list(args, parser, default=(0, 1, 2, 3, 5))
    if args.cycles is None:
        args.cycles = 30
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    model = _resolve_model(args, parser, float(p_values[0]))
    return sweep(psi, model, p_values, ells, cycles=args.cycles, jobs=jobs), model


def _sweep_rows(result, model):
    rows = []
    for i, p in enumerate(result.p_values):
        for j, ell in enumerate(result.rounds):
            rows.append((model.kind, result.qubits, float(p), ell, result.cycles,
                         float(result.gamma[i, j]), float(result.steady_fidelity[i, j])))
    return rows


def _sweep_svg(result, path):
    series = [(f"ell={ell}", result.p_values, result.gamma[:, j])
              for j, ell in enumerate(result.rounds)]
    line_chart(series, path, title="logical error rate vs physical error rate",
               xlabel="p", ylabel="gamma_L")


def _cmd_sweep(args, parser) -> int:
    result, model = _run_sweep(args, parser)
    rows = _sweep_rows(result, model)
    path = _write_table(args, ["channel", "M", "p", "ell", "t_max", "gamma_L", "F_steady"], rows)
    print(f"wrote {path}")
    if args.traces:
        trace_rows = []
        for i, p in enumerate(result.p_values):
            for j, ell in enumerate(result.rounds):
                for t, f in enumerate(result.traces[i, j]):
                    trace_rows.append((float(p), ell, t, float(f)))
        ResultTable(["p", "ell", "t", "fidelity"], trace_rows, _config_dict(args),
                    args.seed, "sweep-traces").write(args.traces)
        print(f"wrote {args.traces}")
    if args.svg:
        _sweep_svg(result, args.svg)
        print(f"wrote {args.svg}")
    return EXIT_OK


def _cmd_threshold(args, parser) -> int:
    result, model = _run_sweep(args, parser)
    estimate = find_threshold(result)
    rows = [(pair.rounds_low, pair.rounds_high,
             float("nan") if pair.p_cross is None else pair.p_cross,
             pair.direction,
             float("nan") if pair.bracket is None else pair.bracket)
            for pair in estimate.crossing_pairs]
    comments = [f"grid-step: {estimate.grid_step:.17g}", f"status: {estimate.status}"]
    if estimate.p_threshold is not None:
        comments.insert(0, f"p-threshold: {estimate.p_threshold:.17g}")
    path = _write_table(args, ["ell_low", "ell_high", "p_cross", "direction", "bracket"],
                        rows, comments)
    if args.svg:
        _sweep_svg(result, args.svg)
        print(f"wrote {args.svg}")
    if estimate.status == "no-crossing":
        print(f"wrote {path} (no crossing found)")
        return EXIT_NO_CROSSING
    print(f"wrote {path} (p_threshold = {estimate.p_threshold:.6f} "
          f"+- {estimate.grid_step:.6f})")
    return EXIT_OK


def _cmd_sample(args, parser) -> int:
    psi = _resolve_state(args, parser)
    p = float(_p_grid(args, parser)[0])
    ells = _ell_list(args, parser)
    if len(ells) != 1:
        parser.error("--ell must be a single value for sample")
    if args.shots is None:
        args.shots = 100000
    if args.batches is None:
        args.batches = 1
    shots, batches = args.shots, args.batches
    if shots < 2 or batches < 1:
        parser.error("--shots must be >= 2 and --batches >= 1")
    if args.observable is None:
        args.observable = "Z" + "I" * (args.m - 1)
    obs_text = args.observable
    if len(obs_text) != args.m:
        parser.error(f"--observable length {len(obs_text)} != M={args.m}")
    try:
        obs = pauli_matrix(obs_text.upper())
    except ValidationError as exc:
        parser.error(f"--observable: {exc}")
    model = _resolve_model(args, parser, p)
    channel = make_channel(model, args.m)
    noisy = channel(density_from_pure(psi))
    exact = extract_observable_exact(obs, noisy, ells[0])
    rng = np.random.default_rng(args.seed)
    rows = []
    any_unstable = False
    for b in range(batches):
        res = ratio_estimate(simulate_shots(noisy, obs, ells[0], shots, rng))
        any_unstable |= res.unstable_denominator
        rows.append((b, res.n_samples, res.numerator_mean, res.denominator_mean,
                     res.estimate, res.standard_error))
    path = _write_table(args, ["batch", "n", "A_hat", "B_hat", "estimate", "se"], rows,
                        [f"exact: {exact:.17g}"])
    print(f"wrote {path} (exact value {exact:.10f})")
    if any_unstable:
        print("warning: denominator mean close to zero; estimates unstable",
              file=sys.stderr)
    return EXIT_OK


def _cmd_twirl_check(args, parser) -> int:
    if args.m is None:
        parser.error("--M is required")
    if not 1 <= args.m <= MAX_PAULI_QUBITS:
        parser.error(f"--M must be in 1..{MAX_PAULI_QUBITS} for the exhaustive channel comparison")
    p_values = _p_grid(args, parser)
    rows = []
    for p in p_values:
        # Both channels are Pauli diagonal, so they agree on every input
        # exactly when their transfer-eigenvalue tensors agree.
        twirled = NoiseModel("twirled-dephasing", float(p), twirl_seed=args.seed)
        depol = NoiseModel("local-depol", float(p))
        dev = np.max(np.abs(twirled.transfer_eigenvalues(args.m)
                            - depol.transfer_eigenvalues(args.m)))
        rows.append((args.m, float(p), float(dev)))
    path = _write_table(args, ["M", "p", "max_deviation"], rows)
    worst = max(r[2] for r in rows)
    print(f"wrote {path} (max deviation {worst:.3e})")
    return EXIT_OK


_DISPATCH = {
    "purify": _cmd_purify,
    "cycle": _cmd_cycle,
    "sweep": _cmd_sweep,
    "threshold": _cmd_threshold,
    "sample": _cmd_sample,
    "twirl-check": _cmd_twirl_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args = merge_config(args, parser)
    if args.seed is None:
        args.seed = DEFAULT_SEED
    try:
        return _DISPATCH[args.command](args, parser)
    except SystemExit:
        raise
    except ValidationError as exc:
        print(f"pqec: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
