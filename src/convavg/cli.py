"""Command-line front end.

Subcommands: dc, tran, ac, sweep, compare.  Converter descriptions come
from config files (--config accepts a filesystem path or the name of a
bundled config such as sepic_bench).  Exit codes: 0 success, 1 usage,
2 config parse/validation, 3 solver failure, 4 I/O.  Only tran, ac and
compare import their analysis modules; only ac and compare load numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from importlib import resources

from .config import ParseError, parse_config
from .converter import OperatingPointRequest, ValidationError
from .dc import SolverError, solve_dc, sweep_duty
from .avgmodel import resolve_ports

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

_FMT = "%.11e"          # 12 significant digits
# Densest frequency grid ac builds: the grid size must stay bounded.
_MAX_POINTS_PER_DECADE = 10_000
# The longest tran end time in switching periods, the largest --steps
# compare accepts (one power stack holds that many 5x5 maps) and its
# largest --cycles x --steps: the work grows with each.
_MAX_CYCLES = 100_000
_MAX_STEPS = 100_000
_MAX_SWITCHED_STEPS = 100_000_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _load_config(name):
    if name.endswith(".conf") or "/" in name or "\\" in name:
        with open(name, "rb") as fh:
            data = fh.read()
    else:
        ref = resources.files("convavg").joinpath("configs").joinpath(
            name + ".conf")
        if not ref.is_file():
            raise FileNotFoundError("no bundled config named %r" % (name,))
        data = ref.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; the sentinel marks
        # its position on the last line they start
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError("not UTF-8: byte 0x%02x" % data[exc.start],
                         len(lines), len(lines[-1])) from None
    return parse_config(text)


@contextlib.contextmanager
def _output(path):
    """The CSV destination: stdout (left open) for None or "-", else a
    new file closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


def _require_duty(args, parsed):
    duty = args.duty if args.duty is not None else parsed.duty
    if duty is None:
        raise _UsageError("no duty given and the config sets no default")
    return float(duty)


def _cmd_dc(args):
    parsed = _load_config(args.config)
    duty = _require_duty(args, parsed)
    op = solve_dc(OperatingPointRequest(spec=parsed.spec, D=duty))
    spec = parsed.spec
    print("converter = %s (%s)" % (spec.kind, "ideal" if spec.ideal else "non-ideal"))
    print("D = " + _FMT % duty)
    print("mode = %s" % op.mode)
    print("mu = " + _FMT % op.mu)
    print("V0 = " + _FMT % op.V0)
    print("iL1 = " + _FMT % op.state.i_L1)
    print("iL2 = " + _FMT % op.state.i_L2)
    print("vC1 = " + _FMT % op.state.v_C1)
    print("vC2 = " + _FMT % op.state.v_C2)
    print("iterations = %d" % op.iterations)
    print("residual = " + _FMT % op.residual_norm)
    return EXIT_OK


def _cmd_tran(args):
    from .transient import Stimulus, simulate
    parsed = _load_config(args.config)
    duty = _require_duty(args, parsed)
    t_end = args.t_end if args.t_end is not None else parsed.t_end
    if t_end is None:
        raise _UsageError("no t_end given and the config sets no default")
    if math.isfinite(t_end) and t_end * parsed.spec.f_s > _MAX_CYCLES:
        raise _UsageError("t_end must span at most %d switching periods"
                          % _MAX_CYCLES)
    wf = simulate(parsed.spec, Stimulus(duty=duty), float(t_end),
                  rtol=args.rtol, atol=args.atol)
    with _output(args.output) as out:
        out.write("t,iL1,iL2,vC1,vC2,V0,mu,mode\n")
        for t, state, v0, mu, mode in zip(wf.times, wf.states, wf.v0, wf.mu, wf.mode):
            row = [_FMT % v for v in (t, *state, v0, mu)]
            out.write(",".join(row + [mode]) + "\n")
    return EXIT_OK


def _fmt_margin(value):
    if value is None:
        return "none"
    if math.isinf(value):
        return "inf"
    return _FMT % value


def _cmd_ac(args):
    from .smallsignal import (_log_grid, default_frequency_grid,
                              frequency_response, linearize)
    if not (1 <= args.points_per_decade <= _MAX_POINTS_PER_DECADE):
        raise _UsageError("--points-per-decade must lie in [1, %d]"
                          % _MAX_POINTS_PER_DECADE)
    parsed = _load_config(args.config)
    duty = _require_duty(args, parsed)
    if args.f_min is None and args.f_max is None:
        grid = default_frequency_grid(parsed.spec, args.points_per_decade)
    else:
        f_lo = args.f_min if args.f_min is not None else 10.0
        f_hi = args.f_max if args.f_max is not None else 0.5 * parsed.spec.f_s
        try:
            grid = _log_grid(f_lo, f_hi, args.points_per_decade)
        except ValidationError as exc:
            raise _UsageError(exc) from exc
    op = solve_dc(OperatingPointRequest(spec=parsed.spec, D=duty))
    model = linearize(parsed.spec, op)
    resp = frequency_response(model, input=args.input, f=grid)
    with _output(args.output) as out:
        out.write("f_Hz,mag_dB,phase_deg\n")
        for i in range(resp.f.size):
            out.write(",".join((_FMT % resp.f[i], _FMT % resp.magnitude_db[i],
                                _FMT % resp.phase_deg[i])) + "\n")
    m = resp.margins
    print("gain_margin_dB = %s" % _fmt_margin(m.gain_margin_db))
    print("phase_margin_deg = %s" % _fmt_margin(m.phase_margin_deg))
    print("gain_crossover_Hz = %s" % _fmt_margin(m.gain_crossover_hz))
    print("phase_crossover_Hz = %s" % _fmt_margin(m.phase_crossover_hz))
    if model.degenerate:
        print("degenerate = true")
    return EXIT_OK


def _cmd_sweep(args):
    parsed = _load_config(args.config)
    try:
        points = sweep_duty(parsed.spec, args.d_from, args.d_to, args.d_step)
    except ValidationError:
        raise
    except ValueError as exc:
        # a non-positive step or a reversed range is a usage problem
        raise _UsageError(exc) from exc
    with _output(args.output) as out:
        out.write("D,V0,iL1,iL2,mode\n")
        for op in points:
            out.write(",".join((_FMT % op.D, _FMT % op.V0,
                                _FMT % op.state.i_L1, _FMT % op.state.i_L2,
                                op.mode)) + "\n")
    return EXIT_OK


def _cmd_compare(args):
    from .switched import SwitchedRunConfig, run_switched
    if args.steps > _MAX_STEPS:
        raise _UsageError("--steps must be at most %d" % _MAX_STEPS)
    if args.cycles * args.steps > _MAX_SWITCHED_STEPS:
        raise _UsageError("--cycles times --steps must be at most %d"
                          % _MAX_SWITCHED_STEPS)
    parsed = _load_config(args.config)
    duty = _require_duty(args, parsed)
    spec = parsed.spec
    op = solve_dc(OperatingPointRequest(spec=spec, D=duty))
    ports = resolve_ports(spec, duty, op.state)
    wf = run_switched(SwitchedRunConfig(spec=spec, D=duty,
                                        n_cycles=args.cycles,
                                        steps_per_cycle=args.steps,
                                        initial=op.state))
    summary = wf.summaries[-1]
    rows = [
        ("V0", op.V0, summary.v0_avg),
        ("iL1", op.state.i_L1, summary.i_L1_avg),
        ("iL2", op.state.i_L2, summary.i_L2_avg),
        ("vC1", op.state.v_C1, summary.v_C1_avg),
        ("vC2", op.state.v_C2, summary.v_C2_avg),
        ("I1", ports.I1, summary.I1_avg),
        ("I2", ports.I2, summary.I2_avg),
        ("V1", ports.V1, summary.V1_avg),
        ("V2", ports.V2, summary.V2_avg),
    ]
    with _output(args.output) as out:
        out.write("quantity,averaged,switched,pct_error\n")
        for name, avg, sw in rows:
            denom = max(abs(avg), 1e-12)
            pct = 100.0 * abs(sw - avg) / denom
            out.write("%s,%s,%s,%s\n" % (name, _FMT % avg, _FMT % sw,
                                         _FMT % pct))
    print("averaged mode = %s" % op.mode)
    print("switched mode = %s" % summary.mode)
    print("cycles = %d" % wf.cycles_run)
    return EXIT_OK


def _build_parser():
    parser = _Parser(prog="convavg",
                     description="Averaged-model analyses for SEPIC and Cuk converters")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="config file path or bundled name (sepic_bench, cuk_bench)")

    p = sub.add_parser("dc", help="DC operating point")
    common(p)
    p.add_argument("--duty", type=float)
    p.set_defaults(func=_cmd_dc)

    p = sub.add_parser("tran", help="large-signal transient")
    common(p)
    p.add_argument("--duty", type=float)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--rtol", type=float, default=1e-6)
    p.add_argument("--atol", type=float, default=1e-6)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_tran)

    p = sub.add_parser("ac", help="small-signal frequency response")
    common(p)
    p.add_argument("--duty", type=float)
    p.add_argument("--input", choices=("duty", "source"), default="duty")
    p.add_argument("--f-min", dest="f_min", type=float)
    p.add_argument("--f-max", dest="f_max", type=float)
    p.add_argument("--points-per-decade", dest="points_per_decade",
                   type=int, default=100)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_ac)

    p = sub.add_parser("sweep", help="DC sweep over duty")
    common(p)
    p.add_argument("--from", dest="d_from", type=float, required=True)
    p.add_argument("--to", dest="d_to", type=float, required=True)
    p.add_argument("--step", dest="d_step", type=float, required=True)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="averaged vs switched discrepancy report")
    common(p)
    p.add_argument("--duty", type=float)
    p.add_argument("--cycles", type=int, default=2000)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValidationError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
