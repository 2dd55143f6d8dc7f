"""Command-line front end: deterministic experiments, CSV and SVG output.

Subcommands: ``purify``, ``cycle``, ``sweep``, ``threshold``, ``sample``,
``twirl-check``. Every run writes a CSV with a provenance header (artifact
version, command, seed, canonical config and its hash), so identical
(config, seed) pairs reproduce byte-identical files. Exit codes: 0 success,
1 error, 2 threshold-without-crossing. ``main`` returns them, except that a
flag argparse or ``--config`` rejects while parsing raises ``SystemExit(1)``.
"""

from __future__ import annotations

import argparse
import ast
import functools
import hashlib
import json
import math
import operator
import os
import re
import sys
from collections import namedtuple

import numpy as np

from . import __version__
from .channels import CHANNEL_KINDS, DEFAULT_SEED, NoiseModel, make_channel
from .montecarlo import check_sampling_budget, ratio_estimate, sampling_tree, simulate_shots
from .purify import MAX_SPECTRAL_ROUNDS, extract_observable_exact
from .states import MAX_DENSE_QUBITS, MAX_PAULI_QUBITS, ProductState, ResourceLimitError, \
    ValidationError, check_register, density_from_pure, pauli_matrix
from .svgplot import line_chart
from .threshold import DEFAULT_CYCLES, DEFAULT_P_COUNT, DEFAULT_ROUNDS, MAX_PRODUCT_QUBITS, \
    MAX_TRACE_ROWS, MIN_WORKER_WORK, available_cpus, check_threshold_grid, find_threshold, \
    run_cycles, sweep

OUTPUT_DIR_ENV = "PQEC_OUTPUT_DIR"

# Most values ``--p`` or ``--ell`` may hold, in any form, and most
# ``--cycles``. A ``min:max:count`` grid or an ``a..b`` range is checked
# before it is built, a list once it is parsed.
MAX_GRID_POINTS = 10_000

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CROSSING = 2


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors print one line and exit with code 1."""

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)

    def config_flags(self, path: str) -> list[str]:
        """The entries of a JSON config file as ``--key=value`` tokens.

        Keys are this parser's long flag names. String values pass through
        and other JSON values as their JSON text, so argparse converts and
        checks them exactly like flags on the command line.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                entries = json.load(fh)
        except (OSError, ValueError) as exc:
            self.error(f"cannot read config {path}: {exc}")
        if not isinstance(entries, dict):
            self.error("config file must hold a JSON object")
        tokens = []
        for key, value in entries.items():
            action = self._option_string_actions.get(f"--{key}")
            if action is None or action.dest in ("config", "help"):
                self.error(f"unknown config key {key!r}")
            tokens.append(f"--{key}={value if isinstance(value, str) else json.dumps(value)}")
        return tokens


# ----------------------------------------------------------------------
# Value parsers
# ----------------------------------------------------------------------

def _check_grid_size(count: int) -> None:
    if count < 1:
        raise ValidationError("a grid or range needs at least one value")
    if count > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"{count} values exceed the limit of {MAX_GRID_POINTS} per grid or range")


def parse_real_grid(text: str) -> np.ndarray:
    """``v`` single value, ``a,b,c`` list, or ``min:max:count`` inclusive grid."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid spec {text!r} is not min:max:count")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        _check_grid_size(count)
        return np.linspace(lo, hi, count)
    return np.array([float(v) for v in text.split(",")])


def parse_int_list(text: str) -> tuple[int, ...]:
    """``v`` single value, ``a,b,c`` list, or ``a..b`` inclusive range."""
    text = text.strip()
    if ".." in text:
        lo, hi = (int(v) for v in text.split(".."))
        _check_grid_size(hi - lo + 1)
        return tuple(range(lo, hi + 1))
    return tuple(int(v) for v in text.split(","))


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


def parse_state(spec: str) -> ProductState:
    """Target-state spec ``plus^M``, ``zero^M`` or ``bloch:theta,phi[^M]``, as a ``ProductState``.

    No vector is built; each run checks M against the limit of the form
    it holds the register in.
    """
    spec = spec.strip()
    reps = 1
    if "^" in spec:
        spec, reps_text = spec.rsplit("^", 1)
        reps = int(reps_text)
        if reps < 1:
            raise ValidationError("state repetition count must be >= 1")
    if spec in ("plus", "zero"):
        return ProductState(spec, reps)
    if spec.startswith("bloch:"):
        angles = spec[len("bloch:"):].split(",")
        if len(angles) != 2:
            raise ValidationError("bloch state needs theta,phi")
        return ProductState("bloch", reps, (_parse_angle(angles[0]), _parse_angle(angles[1])))
    raise ValidationError(f"unknown state spec {spec!r}")


# ----------------------------------------------------------------------
# Result tables with provenance headers
# ----------------------------------------------------------------------

def _fmt_value(v) -> str:
    """A CSV cell or header value: ints and bools as integers, floats to 13 decimals.

    Every reported float is at most 1 in size, with float error near 1e-15,
    or carries a statistical error far above 1e-13, so the digits beyond it
    are rounding noise. ``+ 0.0`` prints -0.0 as 0.0.
    """
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(round(float(v), 13) + 0.0)
    return str(v)


def _prints_apart(values: np.ndarray) -> bool:
    """Whether each value prints as itself at the CSV's resolution: nonzero, apart from the rest.

    A nonzero value that prints as 0.0 prints as zero does, so zero joins
    the values. ``_fmt_value`` is nondecreasing, so two values print alike
    only if two unequal neighbours among the sorted values do, and those lie
    within 1e-13 of each other: only neighbours within 2e-13 are printed.
    """
    ordered = sorted(values.tolist() + [0.0])
    return not any(_fmt_value(a) == _fmt_value(b) for a, b in zip(ordered, ordered[1:])
                   if 0.0 < b - a <= 2e-13)


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


def _write_table(args, columns, rows, comments=(), note="", chart=None) -> None:
    """Write the command's CSV and, given ``--svg``, its chart; say where.

    ``--out`` wins; otherwise ``<command>.csv`` in $PQEC_OUTPUT_DIR or here.
    ``chart`` holds the ``line_chart`` arguments after ``path``.
    """
    path = args.out or os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), f"{args.command}.csv")
    ResultTable(columns, rows, _config_dict(args), args.seed, args.command, comments).write(path)
    print(f"wrote {path}{note}")
    if chart and args.svg:
        try:
            line_chart(path=args.svg, **chart)
        except OSError as exc:
            raise ValidationError(f"cannot write {args.svg}: {exc}") from exc
        print(f"wrote {args.svg}")


# ----------------------------------------------------------------------
# Argument handling
# ----------------------------------------------------------------------

def _seed(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def _cycles(text: str) -> int:
    if not text.strip().isdecimal() or not 1 <= int(text) <= MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"cycles must be an integer in 1..{MAX_GRID_POINTS}, got {text!r}")
    return int(text)


class _Help(argparse.HelpFormatter):
    """Help that names a flag's default, where it has one."""

    def _get_help_string(self, action):
        if action.default in (None, argparse.SUPPRESS):
            return action.help
        return action.help + " (default %(default)s)"


# Every flag once, by its long name: its argparse keywords on any command.
_FLAGS = {
    "config": dict(help="JSON file of flag values; explicit flags win"),
    "seed": dict(type=_seed, default=DEFAULT_SEED, help="RNG/twirl seed"),
    "out": dict(help="output CSV path"),
    "M": dict(type=int, dest="m", help="number of register qubits, the target plus^M; at most "
                                       f"{MAX_PRODUCT_QUBITS} where each cell runs on one qubit or "
                                       f"a Werner state, {MAX_DENSE_QUBITS} for a twirl subset "
                                       "and for sample"),
    "channel": dict(choices=CHANNEL_KINDS, help="noise channel kind"),
    "twirl": dict(type=float, help="twirl fraction in (0,1] for --channel dephasing"),
    "state": dict(help="target state: plus^M, zero^M, bloch:theta,phi[^M], M limited as --M"),
    "p": dict(help="error probability: value; list or min:max:count where a command runs several"),
    "ell": dict(help="purification rounds: value; list or a..b where a command runs several; "
                     f"values above {MAX_SPECTRAL_ROUNDS} give the state of {MAX_SPECTRAL_ROUNDS}, "
                     "yet each still costs a cell"),
    "cycles": dict(type=_cycles, default=DEFAULT_CYCLES,
                   help="channel-then-purify cycles; threshold reads only the first"),
    "jobs": dict(type=int, help="worker threads, capped at the CPUs available and at one per "
                                f"{MIN_WORKER_WORK:,} of cells x cycles run x per-cell work "
                                "(d^3 for a d x d matrix; diagonals and Werner states run on "
                                "one thread)"),
    "traces": dict(help="also write per-trace CSV (p, ell, t, F) here"),
    "shots": dict(type=int, default=100000, help="shots per batch"),
    "batches": dict(type=int, default=1, help="number of batches"),
    "observable": dict(help="Pauli string observable (default Z on qubit 0)"),
    "svg": dict(help="also write an SVG line chart here"),
}

# A subcommand: its help, handler, flags in the order --help lists them, the
# flags that take exactly one value, and the defaults it alone gives its flags.
_Command = namedtuple("_Command", "help run flags single defaults", defaults=((), {}))


@functools.cache
def build_parser() -> _Parser:
    """The ``pqec`` parser, built on the first call and shared by every later one.

    ``main`` parses every command line of the process with it, also from
    several threads at once; parsing fills a fresh namespace and leaves the
    parser as it was. Callers must not mutate it.
    """
    parser = _Parser(prog="pqec", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help, formatter_class=_Help)
        for flag in command.flags:
            sub.add_argument(f"--{flag}", **_FLAGS[flag])
        sub.set_defaults(**command.defaults)
        if "jobs" in command.flags:
            sub.set_defaults(jobs=available_cpus())   # the CPUs at the first build, not at import
    return parser


def _flag_values(args, flag: str):
    """The checked values of ``--p`` (a float array) or ``--ell`` (an int tuple)."""
    text = getattr(args, flag)
    if text is None:
        raise ValidationError(f"--{flag} is required")
    try:
        values = parse_real_grid(text) if flag == "p" else parse_int_list(text)
        # a list (from the command line or --config) is only counted once parsed
        _check_grid_size(len(values))
    except ValueError as exc:
        raise ValidationError(f"--{flag}: {exc}") from exc
    if flag == "p" and not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValidationError(f"--p: values must lie in [0, 1], got {text}")
    if flag == "p" and not _prints_apart(values):
        raise ValidationError(f"--p: {text} holds a nonzero value that prints as 0.0, or two "
                              "that print alike, at the 1e-13 resolution of the CSV")
    if flag == "ell" and any(e < 0 for e in values):
        raise ValidationError("--ell: rounds must be >= 0")
    if flag in _COMMANDS[args.command].single and len(values) != 1:
        raise ValidationError(f"--{flag} must be a single value for {args.command}")
    return values


def _experiment(args):
    """``(target, model, p_values, ells)``, in the order ``sweep`` takes them.

    Sets ``args.m`` from the target state. The model carries the first p value.
    """
    if args.state is None and args.m is None:
        raise ValidationError("need --state or --M")
    flag, spec = ("--M", f"plus^{args.m}") if args.state is None else ("--state", args.state)
    try:
        target = parse_state(spec)
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from exc
    if args.m is not None and args.m != target.qubits:
        raise ValidationError(f"--M {args.m} conflicts with state on {target.qubits} qubits")
    args.m = target.qubits
    p_values = _flag_values(args, "p")
    ells = _flag_values(args, "ell")
    kind = args.channel
    if kind is None:
        raise ValidationError("--channel is required")
    if args.twirl is not None:
        if kind == "dephasing":
            kind = "twirled-dephasing"
        elif kind != "twirled-dephasing":
            raise ValidationError(f"--twirl does not apply to channel {kind!r}")
    model = NoiseModel(kind=kind, p=float(p_values[0]),
                       twirl_fraction=1.0 if args.twirl is None else args.twirl,
                       twirl_seed=args.seed).validate()
    return target, model, p_values, ells


# Keys that do not influence the computed values: output locations and the
# worker count stay out of the provenance config, so reruns are byte-identical
# wherever they are written. The command has a header line of its own.
_NON_PROVENANCE = {"command", "config", "out", "svg", "traces", "jobs"}


def _config_dict(args) -> dict:
    """Every option of the parsed subcommand that shapes the results."""
    return {k: v for k, v in sorted(vars(args).items()) if k not in _NON_PROVENANCE}


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def _cmd_purify(args) -> int:
    target, model, _, ells = _experiment(args)
    # the first cycle's fidelities: one decomposition serves every rounds
    # value, and no purified state is built
    fids = run_cycles(target, model, ells, 1).fidelities[:, 1]
    _write_table(args, ["ell", "fidelity"], list(zip(ells, fids)),
                 chart=dict(series=[("F", ells, fids)],
                            title="fidelity vs purification rounds",
                            xlabel="rounds", ylabel="fidelity"))
    return EXIT_OK


def _cmd_cycle(args) -> int:
    target, model, _, (ell,) = _experiment(args)
    trace = run_cycles(target, model, ell, args.cycles)
    _write_table(args, ["t", "fidelity"], list(enumerate(trace.fidelities)),
                 note=f" (final F = {trace.fidelities[-1]:.10f})",
                 chart=dict(series=[(f"ell={ell}", range(args.cycles + 1), trace.fidelities)],
                            title="fidelity vs cycles", xlabel="t", ylabel="fidelity"))
    return EXIT_OK


def _gamma_chart(result) -> dict:
    """The chart of a ``sweep`` or ``threshold`` run: gamma_L against p per ell."""
    return dict(series=[(f"ell={ell}", result.p_values, result.gamma[:, j])
                        for j, ell in enumerate(result.rounds)],
                title="logical error rate vs physical error rate",
                xlabel="p", ylabel="gamma_L")


def _cmd_sweep(args) -> int:
    experiment = _experiment(args)
    cells = len(experiment[2]) * len(experiment[3])
    rows = cells * (args.cycles + 1) if args.traces else cells
    if rows > MAX_TRACE_ROWS:
        raise ResourceLimitError(f"{rows} rows of {'--traces' if args.traces else 'CSV'} exceed"
                                 f" the limit of {MAX_TRACE_ROWS}")
    result = sweep(*experiment, cycles=args.cycles, jobs=args.jobs)
    rows = [(result.channel.kind, result.qubits, float(p), ell, result.cycles,
             float(result.gamma[i, j]), float(result.steady_fidelity[i, j]))
            for i, p in enumerate(result.p_values) for j, ell in enumerate(result.rounds)]
    _write_table(args, ["channel", "M", "p", "ell", "t_max", "gamma_L", "F_steady"], rows,
                 chart=_gamma_chart(result))
    if args.traces:
        trace_rows = [(float(p), ell, t, float(f))
                      for i, p in enumerate(result.p_values)
                      for j, ell in enumerate(result.rounds)
                      for t, f in enumerate(result.traces[i, j])]
        ResultTable(["p", "ell", "t", "fidelity"], trace_rows, _config_dict(args),
                    args.seed, "sweep-traces").write(args.traces)
        print(f"wrote {args.traces}")
    return EXIT_OK


def _cmd_threshold(args) -> int:
    experiment = _experiment(args)
    check_threshold_grid(*experiment[2:])
    # a crossing reads only gamma = F(0) - F(1), and the first cycle of a
    # cell does not depend on how many follow it
    result = sweep(*experiment, cycles=1, jobs=args.jobs)
    estimate = find_threshold(result)
    rows = [(pair.rounds_low, pair.rounds_high,
             float("nan") if pair.p_cross is None else pair.p_cross,
             pair.direction,
             float("nan") if pair.bracket is None else pair.bracket)
            for pair in estimate.crossing_pairs]
    comments = [f"grid-step: {_fmt_value(estimate.grid_step)}", f"status: {estimate.status}"]
    if estimate.p_threshold is None:
        note = " (no crossing found)"
    else:
        comments.insert(0, f"p-threshold: {_fmt_value(estimate.p_threshold)}")
        note = f" (p_threshold = {estimate.p_threshold:.6f} +- {estimate.grid_step:.6f})"
    _write_table(args, ["ell_low", "ell_high", "p_cross", "direction", "bracket"],
                 rows, comments, note, _gamma_chart(result))
    return EXIT_NO_CROSSING if estimate.p_threshold is None else EXIT_OK


def _cmd_sample(args) -> int:
    target, model, _, (ell,) = _experiment(args)
    check_register(args.m, MAX_DENSE_QUBITS, "a dense matrix")
    if args.shots < 2 or args.batches < 1:
        raise ValidationError("--shots must be >= 2 and --batches >= 1")
    check_sampling_budget(ell, args.shots, args.batches, args.m)
    if args.observable is None:
        # the default depends on the register size, known only from the state
        args.observable = "Z" + "I" * (args.m - 1)
    if len(args.observable) != args.m:
        raise ValidationError(f"--observable length {len(args.observable)} != M={args.m}")
    try:
        obs = pauli_matrix(args.observable.upper())
    except ValidationError as exc:
        raise ValidationError(f"--observable: {exc}") from exc
    channel = make_channel(model, args.m)
    noisy = channel(density_from_pure(target.vector()))
    exact = extract_observable_exact(obs, noisy, ell)
    rng = np.random.default_rng(args.seed)
    tree = sampling_tree(noisy, obs, ell)
    rows = []
    any_unstable = False
    for b in range(args.batches):
        res = ratio_estimate(simulate_shots(noisy, obs, ell, args.shots, rng, tree))
        any_unstable |= res.unstable_denominator
        rows.append((b, res.n_samples, res.numerator_mean, res.denominator_mean,
                     res.estimate, res.standard_error))
    _write_table(args, ["batch", "n", "A_hat", "B_hat", "estimate", "se"], rows,
                 [f"exact: {_fmt_value(exact)}"], f" (exact value {_fmt_value(exact)})")
    if any_unstable:
        print("warning: denominator mean close to zero; estimates unstable",
              file=sys.stderr)
    return EXIT_OK


def _cmd_twirl_check(args) -> int:
    if args.m is None or not 1 <= args.m <= MAX_PAULI_QUBITS:
        raise ValidationError(
            f"--M must be in 1..{MAX_PAULI_QUBITS} for the exhaustive channel comparison")
    rows = []
    for p in _flag_values(args, "p"):
        # Both channels are Pauli diagonal, so they agree on every input
        # exactly when their transfer-eigenvalue tensors agree.
        twirled = NoiseModel("twirled-dephasing", float(p), twirl_seed=args.seed)
        depol = NoiseModel("local-depol", float(p))
        dev = np.max(np.abs(twirled.transfer_eigenvalues(args.m)
                            - depol.transfer_eigenvalues(args.m)))
        rows.append((args.m, float(p), float(dev)))
    # rounding is monotone, so this is the largest value of the CSV column
    _write_table(args, ["M", "p", "max_deviation"], rows,
                 note=f" (max deviation {_fmt_value(max(r[2] for r in rows))})")
    return EXIT_OK


_BASE = ("config", "seed", "out", "M")
_EXPERIMENT = _BASE + ("channel", "twirl", "state")
_GRID = ("p", "ell", "cycles", "jobs")
_GRID_DEFAULTS = {"p": f"0:1:{DEFAULT_P_COUNT}", "ell": ",".join(map(str, DEFAULT_ROUNDS))}
_COMMANDS = {
    "purify": _Command("noise once, then purification rounds", _cmd_purify,
                       _EXPERIMENT + ("p", "ell", "svg"), ("p",)),
    "cycle": _Command("iterate channel-then-purify cycles", _cmd_cycle,
                      _EXPERIMENT + ("p", "ell", "cycles", "svg"), ("p", "ell")),
    "sweep": _Command("grid of (p, rounds) cycle experiments", _cmd_sweep,
                      _EXPERIMENT + _GRID + ("traces", "svg"), (), _GRID_DEFAULTS),
    "threshold": _Command("sweep plus crossing-point extraction", _cmd_threshold,
                          _EXPERIMENT + _GRID + ("svg",), (), _GRID_DEFAULTS),
    "sample": _Command("shot-level ratio estimation of an observable", _cmd_sample,
                       _EXPERIMENT + ("shots", "batches", "observable", "p", "ell"), ("p", "ell")),
    "twirl-check": _Command("full-twirl dephasing vs local depolarizing", _cmd_twirl_check,
                            _BASE + ("p",)),
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        # config entries go right after the subcommand, so explicit flags win
        at = argv.index(args.command) + 1
        config = parser.commands[args.command].config_flags(args.config)
        args = parser.parse_args(argv[:at] + config + argv[at:])
    try:
        return _COMMANDS[args.command].run(args)
    except (ValidationError, ResourceLimitError) as exc:
        print(f"pqec: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        # a backstop for a run the limits above admit but this machine cannot hold
        print(f"pqec: error: out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
