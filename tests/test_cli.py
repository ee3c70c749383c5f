"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import main

ASM = """
.block main prio=0
    qop 0, h, q0
    qop 0, h, q1
    qop 2, cnot, q0, q1
    qmeas 4, q0
    halt
.endblock
"""

QASM = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[1];
h q[0];
cx q[0], q[1];
measure q[0] -> c[0];
"""


#: A fair coin on q0, actively reset through an MRCE.
RESET_ASM = """
.block main prio=0
    qop 2, h, q0
    qmeas 2, q0
    mrce q0, q0, i, x
    qop 2, h, q0
    qmeas 2, q0
    mrce q0, q0, i, x
    qmeas 4, q0
    halt
.endblock
"""


EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "demo.tqasm"
    path.write_text(ASM)
    return str(path)


@pytest.fixture
def qasm_file(tmp_path):
    path = tmp_path / "demo.qasm"
    path.write_text(QASM)
    return str(path)


class TestRunCommand:
    def test_run_asm_file(self, asm_file, capsys):
        assert main(["run", asm_file]) == 0
        out = capsys.readouterr().out
        assert "executed in" in out
        assert "timeline" in out
        assert "q0 ->" in out  # measurement result line

    def test_run_qasm_file_compiles_first(self, qasm_file, capsys):
        assert main(["run", qasm_file]) == 0
        out = capsys.readouterr().out
        assert "TR: average" in out

    def test_run_scalar_width(self, asm_file, capsys):
        assert main(["run", asm_file, "--width", "1"]) == 0
        out = capsys.readouterr().out
        assert "width 1" in out

    def test_run_multiprocessor(self, asm_file, capsys):
        assert main(["run", asm_file, "--processors", "2"]) == 0
        assert "2 processor(s)" in capsys.readouterr().out

    def test_auto_single_run_routes_with_the_device_profile(self, capsys):
        # The calibrated profile's T1/T2 and ZZ channels need
        # amplitudes: the Clifford Bell program runs on the statevector.
        assert main(["run", str(EXAMPLES / "program.qasm"),
                     "--qpu", "auto", "--device-profile",
                     str(EXAMPLES / "profiles" / "paper_37q.json")]) == 0
        assert "substrate: auto->statevector" in capsys.readouterr().out

    def test_trace_cache_line_reports_folds(self, tmp_path, capsys):
        path = tmp_path / "reset.tqasm"
        path.write_text(RESET_ASM)
        # Only a scalar sign-trace core folds (the default is 8-wide).
        assert main(["run", str(path), "--qpu", "stabilizer",
                     "--width", "1", "--shots", "32"]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("trace cache:"))
        assert "MRCE decisions folded" in line

    def test_trace_cache_line_reports_restarts_and_rejoins(self, tmp_path,
                                                           capsys):
        path = tmp_path / "reset.tqasm"
        path.write_text(RESET_ASM)
        assert main(["run", str(path), "--qpu", "stabilizer",
                     "--width", "1", "--shots", "32"]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("trace cache:"))
        assert "restarts from a quiet-decision snapshot" in line
        assert "rejoins" in line


class TestAsmCommand:
    def test_listing_and_table(self, asm_file, capsys):
        assert main(["asm", asm_file]) == 0
        out = capsys.readouterr().out
        assert ".block main" in out
        assert "block information table" in out
        assert "words" in out


class TestBenchCommand:
    def test_list_suite(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "hs16" in out
        assert "rd84_143" in out

    def test_profile_benchmark(self, capsys):
        assert main(["bench", "hs16"]) == 0
        out = capsys.readouterr().out
        assert "8-way superscalar" in out
        assert "scalar" in out

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            main(["bench", "nonexistent"])


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestUncacheableSubstrateWarning:
    """--qpu prng disables the trace cache (per-shot qpu_factory), so
    cache-steering flags are silently dead — the CLI must say so."""

    def test_prng_with_cache_flag_warns_on_stderr(self, asm_file, capsys):
        assert main(["run", asm_file, "--shots", "4",
                     "--no-trace-cache"]) == 0
        err = capsys.readouterr().err
        assert "warning" in err
        assert "--no-trace-cache" in err
        assert "uncacheable" in err

    def test_warning_names_every_given_flag(self, asm_file, capsys):
        assert main(["run", asm_file, "--shots", "4",
                     "--no-trace-cache",
                     "--trace-cache-max-nodes", "100"]) == 0
        err = capsys.readouterr().err
        assert "--no-trace-cache, --trace-cache-max-nodes" in err

    def test_prng_without_cache_flags_is_silent(self, asm_file, capsys):
        assert main(["run", asm_file, "--shots", "4"]) == 0
        assert capsys.readouterr().err == ""

    def test_simulated_backend_does_not_warn(self, asm_file, capsys):
        assert main(["run", asm_file, "--shots", "4",
                     "--qpu", "stabilizer", "--no-trace-cache"]) == 0
        assert capsys.readouterr().err == ""


class TestEmptyOutcomeRendering:
    def test_measurement_free_program_renders_explicitly(
            self, tmp_path, capsys):
        path = tmp_path / "nomeas.tqasm"
        path.write_text(".block main prio=0\n"
                        "    qop 0, h, q0\n"
                        "    halt\n"
                        ".endblock\n")
        assert main(["run", str(path), "--shots", "3",
                     "--qpu", "stabilizer"]) == 0
        out = capsys.readouterr().out
        assert "measured qubits: none (program never measured)" in out
        assert "(empty outcome)       3" in out


class TestServeParser:
    def test_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7781
        assert args.workers == 2
        assert args.queue_size == 16
        assert args.max_retries == 2
        assert args.entry.__name__ == "command_serve"

    def test_overrides(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--workers", "4",
             "--queue-size", "2", "--max-retries", "0"])
        assert (args.port, args.workers, args.queue_size,
                args.max_retries) == (9000, 4, 2, 0)
