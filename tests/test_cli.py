"""End-to-end tests for the command-line front end."""

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import convavg
from convavg.cli import main

# child interpreters import the convavg under test, not the caller's
# PYTHONPATH or an installed copy
CHILD_ENV = dict(os.environ, PYTHONPATH=str(pathlib.Path(convavg.__file__).parents[1]))


def run_python(args):
    """Run ``python args...`` on the convavg under test; capture text."""
    return subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, env=CHILD_ENV)


MINIMAL_NO_DEFAULTS = """\
[converter]
kind = sepic
Vg = 62 V
R = 52 Ohm
L1 = 13 mH
L2 = 166 uH
C1 = 0.5 uF
C2 = 1000 uF
f_s = 50 kHz
"""


def fields(text):
    """Parse 'key = value' stdout lines into a dict."""
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


# --- dc -------------------------------------------------------------

def test_dc_bundled_sepic(capsys):
    assert main(["dc", "--config", "sepic_bench"]) == 0
    got = fields(capsys.readouterr().out)
    assert got["mode"] == "DCM"
    assert float(got["V0"]) == pytest.approx(21.836, abs=1e-3)
    assert float(got["mu"]) == pytest.approx(0.26480, abs=1e-4)
    assert got["converter"] == "sepic (non-ideal)"


def test_dc_bundled_cuk(capsys):
    assert main(["dc", "--config", "cuk_bench"]) == 0
    got = fields(capsys.readouterr().out)
    assert got["mode"] == "DCM"
    assert float(got["V0"]) == pytest.approx(-23.240, abs=1e-3)


def test_dc_duty_override(capsys):
    assert main(["dc", "--config", "sepic_bench", "--duty", "0.3"]) == 0
    got = fields(capsys.readouterr().out)
    assert float(got["D"]) == pytest.approx(0.3)
    assert float(got["V0"]) > 25.0


def test_dc_config_from_path(tmp_path, capsys):
    path = tmp_path / "custom.conf"
    path.write_text(MINIMAL_NO_DEFAULTS + "[analysis defaults]\nD = 0.2\n")
    assert main(["dc", "--config", str(path)]) == 0
    got = fields(capsys.readouterr().out)
    # same converter as the bundle, minus parasitics
    assert float(got["V0"]) == pytest.approx(22.086, abs=1e-3)


# --- tran -----------------------------------------------------------

def test_tran_csv_output(tmp_path, capsys):
    out = tmp_path / "tran.csv"
    rc = main(["tran", "--config", "sepic_bench", "--t-end", "0.01",
               "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,iL1,iL2,vC1,vC2,V0,mu,mode"
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0
    assert float(last[0]) == pytest.approx(0.01)
    assert last[7] in ("DCM", "CCM")
    assert float(last[5]) > 10.0  # output already well off the ground


def test_tran_stdout_default(capsys):
    rc = main(["tran", "--config", "sepic_bench", "--t-end", "0.001"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("t,iL1,iL2,vC1,vC2,V0,mu,mode\n")


def test_tran_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["tran", "--config", "sepic_bench", "--t-end", "0.005",
                     "-o", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- ac -------------------------------------------------------------

def test_ac_margins_and_csv(tmp_path, capsys):
    out = tmp_path / "ac.csv"
    rc = main(["ac", "--config", "sepic_bench", "-o", str(out)])
    assert rc == 0
    got = fields(capsys.readouterr().out)
    assert float(got["gain_margin_dB"]) == pytest.approx(4.6251, rel=1e-3)
    assert float(got["phase_margin_deg"]) == pytest.approx(97.403, rel=1e-3)
    assert float(got["gain_crossover_Hz"]) == pytest.approx(736.99, rel=1e-3)
    assert float(got["phase_crossover_Hz"]) == pytest.approx(1832.65, rel=1e-3)
    lines = out.read_text().splitlines()
    assert lines[0] == "f_Hz,mag_dB,phase_deg"
    assert float(lines[1].split(",")[0]) == pytest.approx(10.0)
    assert float(lines[-1].split(",")[0]) == pytest.approx(25e3)


def test_ac_infinite_margin_formatting(capsys):
    rc = main(["ac", "--config", "cuk_bench", "-o", "-"])
    assert rc == 0
    got = fields(capsys.readouterr().out)
    assert got["gain_margin_dB"] == "inf"
    assert got["phase_crossover_Hz"] == "none"
    assert float(got["phase_margin_deg"]) == pytest.approx(86.610, rel=1e-3)


def test_ac_flags_a_degenerate_operating_point(tmp_path, capsys):
    # the ideal sepic_bench at its CCM/DCM boundary duty 1 - sqrt(K)
    path = tmp_path / "ideal.conf"
    path.write_text(MINIMAL_NO_DEFAULTS + "ideal = yes\n")
    with pytest.warns(UserWarning, match="mode boundary"):
        rc = main(["ac", "--config", str(path), "--duty", "0.43856805113465025",
                   "-o", "-"])
    assert rc == 0
    assert fields(capsys.readouterr().out)["degenerate"] == "true"


def test_ac_custom_grid(capsys):
    rc = main(["ac", "--config", "sepic_bench", "--input", "source",
               "--f-min", "100", "--f-max", "1000",
               "--points-per-decade", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    data = [l for l in out.splitlines()
            if l and l[0].isdigit() and "," in l]
    assert len(data) == 11
    assert float(data[0].split(",")[0]) == pytest.approx(100.0)
    assert float(data[-1].split(",")[0]) == pytest.approx(1000.0)


# --- sweep ----------------------------------------------------------

def test_sweep_csv(capsys):
    rc = main(["sweep", "--config", "sepic_bench", "--from", "0.2",
               "--to", "0.3", "--step", "0.05"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "D,V0,iL1,iL2,mode"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 3
    v0 = [float(r[1]) for r in rows]
    assert v0 == sorted(v0)
    assert all(r[4] in ("DCM", "CCM") for r in rows)


def test_sweep_prints_failed_points_and_exits_0(monkeypatch, capsys):
    """A point whose Newton iteration runs out of budget is printed as a
    NaN row in mode none, and the rows after it are solved."""
    import convavg.dc as dc
    monkeypatch.setattr(dc, "_MAX_ITERATIONS", 1)
    assert main(["sweep", "--config", "sepic_bench", "--from", "0.3",
                 "--to", "0.6", "--step", "0.05"]) == 0
    rows = [l.split(",") for l in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 7
    failed = [r for r in rows if r[4] == "none"]
    assert failed and failed == rows[:len(failed)] and len(failed) < len(rows)
    assert all(r[1:4] == ["nan"] * 3 for r in failed)
    assert all(r[4] in ("DCM", "CCM") for r in rows[len(failed):])


@pytest.mark.parametrize("config", ["sepic_bench", "cuk_bench"])
def test_sweep_rows_equal_dc_at_each_duty(config, capsys):
    """Every sweep row, across CCM and DCM, prints what dc prints at its
    duty: a sweep point does not depend on the point before it."""
    assert main(["sweep", "--config", config, "--from", "0.1", "--to", "0.85",
                 "--step", "0.05"]) == 0
    rows = [l.split(",") for l in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 16
    for k, row in enumerate(rows):
        assert main(["dc", "--config", config, "--duty", repr(0.1 + k * 0.05)]) == 0
        got = fields(capsys.readouterr().out)
        assert row == [got[name] for name in ("D", "V0", "iL1", "iL2", "mode")], k


# --- compare --------------------------------------------------------

def test_compare_report(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--config", "sepic_bench", "--cycles", "300",
               "-o", str(out)])
    assert rc == 0
    console = fields(capsys.readouterr().out)
    assert console["averaged mode"] == "DCM"
    assert console["switched mode"] == "DCM"
    assert console["cycles"] == "300"
    lines = out.read_text().splitlines()
    assert lines[0] == "quantity,averaged,switched,pct_error"
    table = {l.split(",")[0]: l.split(",") for l in lines[1:]}
    assert set(table) == {"V0", "iL1", "iL2", "vC1", "vC2",
                          "I1", "I2", "V1", "V2"}
    assert float(table["V0"][3]) < 0.5
    assert float(table["V1"][3]) < 0.5


# --- exit codes -----------------------------------------------------

def test_usage_error_is_exit_1(monkeypatch, capsys):
    for argv in (
        ["sweep", "--config", "sepic_bench", "--from", "0.2"],
        ["dc"],
        ["sweep", "--config", "sepic_bench", "--from", "0.9", "--to", "0.2",
         "--step", "0.1"],
        ["sweep", "--config", "sepic_bench", "--from", "0.2", "--to", "0.3",
         "--step", "0"],
        ["sweep", "--config", "sepic_bench", "--from", "0.2", "--to", "0.3",
         "--step", "-0.05"],
        ["ac", "--config", "sepic_bench", "--f-min", "3000", "--f-max", "5"],
        # a grid above the sweep cap is refused before it is built
        ["sweep", "--config", "sepic_bench", "--from", "0.1", "--to", "0.8",
         "--step", "1e-9"],
        ["ac", "--config", "sepic_bench", "--points-per-decade", "0"],
        ["ac", "--config", "sepic_bench", "--points-per-decade", "-5"],
        # a grid above the points-per-decade cap is refused before it is built
        ["ac", "--config", "sepic_bench", "--points-per-decade", "10001"],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: "), argv
        assert "Traceback" not in err

    # a switched run above the compare caps is refused before any solve
    import convavg.cli
    import convavg.switched

    def fail(*args, **kwargs):
        raise AssertionError("compare solved before checking its caps")

    monkeypatch.setattr(convavg.cli, "solve_dc", fail)
    monkeypatch.setattr(convavg.switched, "run_switched", fail)
    for argv in (
        ["compare", "--config", "sepic_bench", "--cycles", "100001"],
        ["compare", "--config", "sepic_bench", "--steps", "100001"],
        # each cap alone admits these, their product (2e8 steps) does not
        ["compare", "--config", "sepic_bench", "--cycles", "2000", "--steps", "100000"],
        # a non-finite frequency bound, and a grid above the sweep cap
        # (3 000 001 points), are refused before the DC solve
        ["ac", "--config", "sepic_bench", "--f-max", "inf"],
        ["ac", "--config", "sepic_bench", "--f-min", "-inf"],
        ["ac", "--config", "sepic_bench", "--f-min", "1e-150", "--f-max", "1e150",
         "--points-per-decade", "10000"],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: "), argv
        assert "Traceback" not in err

    # a non-finite duty bound is named as such, not as an oversized grid
    for bounds in (["--from", "nan", "--to", "0.3"], ["--from", "0.1", "--to", "inf"]):
        argv = ["sweep", "--config", "sepic_bench", *bounds, "--step", "0.1"]
        assert main(argv) == 1, argv
        assert "must be finite" in capsys.readouterr().err


def test_sweep_infinite_step_is_exit_1(capsys):
    """An infinite --step is a usage error; it once ended in exit 2 with
    'duty cycle must lie in (0, 1), got nan'."""
    argv = ["sweep", "--config", "sepic_bench", "--from", "0.1", "--to", "0.2",
            "--step", "inf"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "step must be finite" in err


# argv fuzz: every subcommand's flags, each absent or set from a pool of
# values that are out of range, non-finite or not numbers at all
FUZZ_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", "abc", "")
FUZZ_FLAGS = {
    "dc": ("--duty",),
    "tran": ("--duty", "--t-end", "--rtol", "--atol"),
    "ac": ("--duty", "--input", "--f-min", "--f-max", "--points-per-decade"),
    "sweep": ("--from", "--to", "--step"),
    "compare": ("--duty", "--cycles", "--steps"),
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [command, "--config", draw(st.sampled_from(("sepic_bench", "cuk_bench")))]
    for flag in FUZZ_FLAGS[command]:
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(FUZZ_VALUES))]
    return argv


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@example(["ac", "--config", "sepic_bench", "--f-max", "inf"])
@given(fuzz_argv())
def test_argv_fuzz_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue(), argv


def test_sweep_duty_out_of_range_is_exit_2(capsys):
    rc = main(["sweep", "--config", "sepic_bench", "--from", "0.8",
               "--to", "1.2", "--step", "0.2"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_missing_duty_is_exit_1(tmp_path, capsys):
    path = tmp_path / "nodefaults.conf"
    path.write_text(MINIMAL_NO_DEFAULTS)
    assert main(["dc", "--config", str(path)]) == 1
    assert "duty" in capsys.readouterr().err
    # tran's end time has no default either
    assert main(["tran", "--config", str(path), "--duty", "0.2"]) == 1
    assert "t_end" in capsys.readouterr().err


def test_bad_config_is_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.conf"
    for data, where in (
            (b"[converter]\nkind = sepic\nVg = volts\n", "line 3, column 6"),
            # a Latin-1 comment in an otherwise valid config
            ((MINIMAL_NO_DEFAULTS + "# caf\u00e9\n").encode("latin-1"),
             "line 10, column 6")):
        path.write_bytes(data)
        assert main(["dc", "--config", str(path)]) == 2, where
        assert capsys.readouterr().err.startswith("config error: %s: " % where)


def test_invalid_component_is_exit_2(tmp_path, capsys):
    path = tmp_path / "zero.conf"
    path.write_text(MINIMAL_NO_DEFAULTS.replace("L1 = 13 mH", "L1 = 0 H"))
    assert main(["dc", "--config", str(path), "--duty", "0.2"]) == 2
    # a switching frequency too low for the default frequency grid
    path.write_text(MINIMAL_NO_DEFAULTS.replace("f_s = 50 kHz", "f_s = 20 Hz"))
    capsys.readouterr()
    assert main(["ac", "--config", str(path), "--duty", "0.2"]) == 2
    assert "default grid" in capsys.readouterr().err


def test_solver_failure_is_exit_3(capsys):
    rc = main(["tran", "--config", "sepic_bench", "--t-end", "0.001",
               "--rtol", "0", "--atol", "0"])
    assert rc == 3
    assert "solver error" in capsys.readouterr().err


def test_bad_tolerance_is_exit_2(capsys):
    for option in ("--rtol=-1", "--atol=-1e-3", "--rtol=inf", "--atol=nan"):
        rc = main(["tran", "--config", "sepic_bench", "--t-end", "0.001", option])
        assert rc == 2, option
        err = capsys.readouterr().err
        assert err.startswith("config error: "), option
        assert "Traceback" not in err


def test_non_finite_t_end_is_exit_2(capsys):
    for value in ("inf", "nan"):
        rc = main(["tran", "--config", "sepic_bench", "--t-end", value])
        assert rc == 2, value
        err = capsys.readouterr().err
        assert err.startswith("config error: "), value
        assert "Traceback" not in err


def test_t_end_above_cap_is_exit_1(monkeypatch, tmp_path, capsys):
    # an end time past 100 000 switching periods, from the flag or the
    # config, is refused before the transient runs
    import convavg.transient

    def fail(*args, **kwargs):
        raise AssertionError("tran simulated before checking its cap")

    monkeypatch.setattr(convavg.transient, "simulate", fail)
    path = tmp_path / "long.conf"
    path.write_text(MINIMAL_NO_DEFAULTS
                    + "[analysis defaults]\nD = 0.2\nt_end = 2.1 s\n")
    for argv in (
        ["tran", "--config", "sepic_bench", "--t-end", "2.00002"],
        ["tran", "--config", "cuk_bench", "--t-end", "1e300"],
        ["tran", "--config", str(path)],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: "), argv
        assert "Traceback" not in err
    # the bundled 120 ms runs (6000 and 2400 periods) and the cap itself
    # reach the transient
    class Reached(Exception):
        pass

    def reached(spec, stimulus, t_end, **kwargs):
        raise Reached(t_end)

    monkeypatch.setattr(convavg.transient, "simulate", reached)
    for argv, t_end in ((["tran", "--config", "sepic_bench"], 0.12),
                        (["tran", "--config", "cuk_bench"], 0.12),
                        (["tran", "--config", "sepic_bench", "--t-end", "2"], 2.0)):
        with pytest.raises(Reached) as info:
            main(argv)
        assert info.value.args[0] == pytest.approx(t_end), argv


def test_switched_event_failure_is_exit_3(monkeypatch, capsys):
    import convavg.switched
    from convavg.switched import EventDetectionError

    def fail(*args, **kwargs):
        raise EventDetectionError("diode turn-off not bracketed")

    monkeypatch.setattr(convavg.switched, "run_switched", fail)
    assert main(["compare", "--config", "cuk_bench", "--cycles", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: ")
    assert "Traceback" not in err


def test_missing_config_file_is_exit_4(capsys):
    for name in ("/no/such/dir/x.conf", "no_such_bench"):
        assert main(["dc", "--config", name]) == 4, name
        assert "i/o error" in capsys.readouterr().err


def test_unwritable_output_is_exit_4(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "out.csv"
    rc = main(["tran", "--config", "sepic_bench", "--t-end", "0.001",
               "-o", str(target)])
    assert rc == 4


def test_module_entry_point():
    proc = run_python(["-m", "convavg", "dc", "--config", "sepic_bench"])
    assert proc.returncode == 0
    assert "mode = DCM" in proc.stdout


# --- start-up without numpy -----------------------------------------

# Runs the argv through cli.main as `python -m convavg` does, then says
# whether numpy was imported on the way.
NUMPY_PROBE = """\
import sys
from convavg import cli
code = cli.main(sys.argv[1:])
print("numpy imported:", "numpy" in sys.modules)
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    ["dc", "--config", "sepic_bench"],
    ["dc", "--config", "cuk_bench", "--duty", "0.7"],
    ["sweep", "--config", "sepic_bench", "--from", "0.05", "--to", "0.9", "--step", "0.01"],
    ["sweep", "--config", "cuk_bench", "--from", "0.1", "--to", "0.85", "--step", "0.05"],
    ["tran", "--config", "sepic_bench"],
    ["tran", "--config", "cuk_bench"],
], ids=["dc-sepic", "dc-cuk", "sweep-sepic", "sweep-cuk", "tran-sepic", "tran-cuk"])
def test_dc_sweep_and_tran_run_without_numpy(argv):
    proc = run_python(["-c", NUMPY_PROBE] + argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "numpy imported: False"


def test_import_and_parse_config_load_neither_numpy_nor_the_lazy_modules():
    """`import convavg` and parsing both bundled configs load neither
    numpy nor the transient, small-signal and switched modules, which
    are served on first use."""
    code = """\
import sys
from importlib import resources
import convavg
for name in ("sepic_bench", "cuk_bench"):
    text = resources.files("convavg").joinpath("configs", name + ".conf").read_text()
    convavg.parse_config(text)
for name in ("numpy", "convavg.transient", "convavg.smallsignal", "convavg.switched"):
    print(name, "imported:", name in sys.modules)
"""
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "numpy imported: False", "convavg.transient imported: False",
        "convavg.smallsignal imported: False", "convavg.switched imported: False"]


def test_averaged_cell_runs_without_numpy():
    """resolve_ports, derivative and jacobian_columns take and return
    plain floats: the cell never imports numpy."""
    code = """\
import sys
from importlib import resources
import convavg
for name in ("sepic_bench", "cuk_bench"):
    text = resources.files("convavg").joinpath("configs", name + ".conf").read_text()
    parsed = convavg.parse_config(text)
    spec, d = parsed.spec, parsed.duty
    op = convavg.solve_dc(convavg.OperatingPointRequest(spec=spec, D=d))
    x = [op.state.i_L1, op.state.i_L2, op.state.v_C1, op.state.v_C2]
    ports = convavg.resolve_ports(spec, d, x)
    f = convavg.derivative(spec, d, x)
    assert f == convavg.derivative(spec, d, x, ports)
    cols = convavg.jacobian_columns(spec, d, x, ports, 5)
    assert all(type(v) is float for v in f + sum(cols, ()))
print("numpy imported:", "numpy" in sys.modules)
"""
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "numpy imported: False\n"


def test_public_names_resolve():
    """Every name in __all__ resolves, the PEP 562 table serves only
    public names, and the names that only tests used, or that duplicated
    another name, are gone."""
    import convavg
    import convavg.avgmodel
    for name in convavg.__all__:
        getattr(convavg, name)
    assert set(convavg._LAZY) <= set(convavg.__all__)
    for name in ("average_switch_waveforms", "AveragedPortState", "initial_guess",
                 "extract_margins", "state_jacobian", "derivative_values"):
        assert name not in convavg.__all__
        assert not hasattr(convavg, name)
    for name in ("state_jacobian", "derivative_values"):
        assert not hasattr(convavg.avgmodel, name)
