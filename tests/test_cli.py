"""End to end checks of the command line interface."""

import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from gmquantum import certificates, cli, deformation, linalg, quantum
from gmquantum.ambient import AmbientRing
from gmquantum.certificates import Workspace
from gmquantum.cli import main, matrix_at, parse_at
from gmquantum.gwcounts import CountSet
from gmquantum.quantum import QuantumRing, product_table, quantum_context
from regen_goldens import (
    GOLDEN_DIR, GOLDEN_MARKDOWN, GOLDEN_PAYLOADS, golden_files, render,
)

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "certificate.schema.json").read_text())

# `gmquantum <argv> --format json --no-timestamp` of a verified build, one
# file per command line (tests/regen_goldens.py writes them): a change
# that moves a byte of one changes certified content or a report
GOLDEN_VERIFY_ALL = GOLDEN_DIR / "verify_all.json"
GOLDENS = sorted(GOLDEN_PAYLOADS) + ["%s.md" % name
                                    for name in sorted(GOLDEN_MARKDOWN)]


def run_json(capsys, argv):
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def test_gw_markdown(capsys):
    assert main(["gw"]) == 0
    out = capsys.readouterr().out
    for line in ("I11 = 6", "I12 = 10", "I13 = 6", "I2 = 12",
                 "J11 = 24", "J12 = 12", "J2 = 32"):
        assert line in out
    assert "| claim |" in out


def test_every_command_passes_schema(capsys):
    for command in ("gw", "matrix", "table", "presentation", "deform",
                    "criterion", "verify-all"):
        code, payload = run_json(
            capsys, [command, "--format", "json", "--no-timestamp"])
        assert code == 0, command
        jsonschema.validate(payload, SCHEMA)
        assert payload["command"] == command
        assert payload["failed"] == []
        assert "timestamp" not in payload


def test_timestamp_present_by_default(capsys):
    _, payload = run_json(capsys, ["gw", "--format", "json"])
    assert "timestamp" in payload


def test_verify_all_deterministic(capsys):
    argv = ["verify-all", "--format", "json", "--no-timestamp"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_verify_all_matches_golden_payload(capsys):
    assert main(["verify-all", "--format", "json", "--no-timestamp"]) == 0
    assert capsys.readouterr().out.encode() == GOLDEN_VERIFY_ALL.read_bytes()


def test_verify_all_bytes_do_not_depend_on_the_interpreter():
    """`verify-all --format json --no-timestamp`, run as a fresh process,
    prints the golden bytes under PYTHONHASHSEED 0 and 12345, and under
    each of python3.10, python3.12 and python3.13 found on PATH (at
    PYTHONHASHSEED 1).  A pyenv shim runs a command only for the selected
    versions, so the other interpreters run with every installed version
    selected.  The processes run side by side; the line printed at the end
    (pytest -s shows it) names the interpreters that ran."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    other_env = dict(env)
    if shutil.which("pyenv"):
        versions = subprocess.run(["pyenv", "versions", "--bare"],
                                  capture_output=True, text=True).stdout
        other_env["PYENV_VERSION"] = ":".join(versions.split())
    runs = [("%s PYTHONHASHSEED=%s" % (sys.executable, seed), sys.executable,
             dict(env, PYTHONHASHSEED=seed)) for seed in ("0", "12345")]
    runs += [(name, exe, dict(other_env, PYTHONHASHSEED="1"))
             for name in ("python3.10", "python3.12", "python3.13")
             for exe in [shutil.which(name)] if exe]
    argv = ["-m", "gmquantum", "verify-all", "--format", "json",
            "--no-timestamp"]
    procs = [(label, exe, run_env, subprocess.Popen(
                [exe] + argv, cwd=ROOT, env=run_env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE))
             for label, exe, run_env in runs]
    try:
        outputs = [proc.communicate(timeout=120) for *_, proc in procs]
    finally:
        for *_, proc in procs:
            proc.kill()   # does nothing to a process that has exited
    golden = GOLDEN_VERIFY_ALL.read_bytes()
    ran, absent = [], []
    for (label, exe, run_env, proc), (out, err) in zip(procs, outputs):
        if proc.returncode and subprocess.run(
                [exe, "-c", "pass"], env=run_env,
                capture_output=True).returncode:
            absent.append(label)   # found on PATH but cannot start
            continue
        assert proc.returncode == 0, (label, err.decode()[-2000:])
        assert out == golden, label
        ran.append(label)
    print("verify-all matched its golden under: %s; could not start: %s"
          % ("; ".join(ran), "; ".join(absent) or "none"))
    assert len(ran) >= 2


def test_seed_changes_only_the_summary(capsys):
    """--seed is recorded in the summary and changes no certificate: the
    live seed 7 bytes are the seed 0 golden's with its one `"seed": 0`
    line reading `"seed": 7`."""
    assert main(["verify-all", "--seed", "7", "--format", "json",
                 "--no-timestamp"]) == 0
    golden = GOLDEN_VERIFY_ALL.read_text()
    assert golden.count('"seed": 0') == 1
    assert capsys.readouterr().out == golden.replace('"seed": 0', '"seed": 7')


@pytest.mark.parametrize("name", GOLDENS)
def test_report_matches_golden_payload(name):
    """Each golden holds the bytes that tests/regen_goldens.py renders for
    it, so the helper leaves a clean tree unchanged."""
    if name.endswith(".md"):
        argv, fmt, path = (GOLDEN_MARKDOWN[name[:-3]], "markdown",
                           GOLDEN_DIR / name)
    else:
        argv, fmt, path = (GOLDEN_PAYLOADS[name], "json",
                           GOLDEN_DIR / ("%s.json" % name))
    assert render(argv, fmt) == path.read_bytes()


def test_goldens_are_the_files_under_tests_data():
    """tests/regen_goldens.py writes every file under tests/data, and the
    golden tests read each one it writes."""
    written = [name for name, _, _ in golden_files()]
    assert sorted(written) == sorted(p.name for p in GOLDEN_DIR.iterdir())
    assert written[0] == GOLDEN_VERIFY_ALL.name
    assert sorted(written[1:]) == sorted(
        name if name.endswith(".md") else name + ".json" for name in GOLDENS)


def test_verify_all_counts(capsys):
    _, payload = run_json(
        capsys, ["verify-all", "--format", "json", "--no-timestamp"])
    certs = payload["certificates"]
    assert len(certs) == 42
    by_status = {}
    for c in certs:
        by_status[c["status"]] = by_status.get(c["status"], 0) + 1
    assert by_status == {"verified": 39, "model-axiom": 3}
    claims = [c["claim"] for c in certs]
    assert claims == sorted(claims)
    assert len(set(claims)) == len(claims)


def test_matrix_at_specialization(capsys):
    _, payload = run_json(capsys, ["matrix", "--format", "json",
                                   "--no-timestamp", "--at", "q=1"])
    assert payload["at"] == {"q": "1"}
    rep = payload["at_report"]
    assert rep["roots_verified"] is True
    assert rep["eigenvalue_square_equation"] == "T^2 - 44*T - 16"
    assert rep["eigenvalue_squares"] == ["22 + 10*sqrt(5)",
                                         "22 - 10*sqrt(5)"]
    assert rep["matrix"][0] == ["0", "6", "0", "0", "24", "0"]


def shifted_matrix_at(monkeypatch, name, delta, qval):
    """matrix_at on the ring whose two point count `name` moved by delta."""
    counts = CountSet.from_geometry()
    counts = dataclasses.replace(counts,
                                 **{name: getattr(counts, name) + delta})
    amb = AmbientRing()
    ring = QuantumRing(amb, product_table(counts, amb, counts.J11, 32,
                                          quantum_context()))
    monkeypatch.setattr(Workspace, "ring", property(lambda ws: ring))
    return matrix_at(Workspace(), qval)


def test_matrix_at_reads_the_spectrum(monkeypatch):
    # with I12 lowered by 3 the q = 1 eigenvalue squares are
    # 19 +- 5 sqrt(17); the --at report follows the ring, scaled by q
    rep = shifted_matrix_at(monkeypatch, "I12", -3, Fraction(2))
    assert rep["eigenvalue_square_equation"] == "T^2 - 76*T - 256"
    assert rep["eigenvalue_squares"] == ["38 + 10*sqrt(17)",
                                         "38 - 10*sqrt(17)"]
    assert rep["roots_verified"] is True
    # with I2 lowered by 5 the roots are rational, which is reported
    rep = shifted_matrix_at(monkeypatch, "I2", -5, Fraction(2))
    assert rep["eigenvalue_squares"][0].startswith("no surd pair")
    assert rep["roots_verified"] is False


def test_matrix_at_negative_q_writes_one_sign_before_the_surd(capsys):
    # q times 22 +- 10 sqrt(5) at q = -7/3 is the pair -154/3 +- 70/3
    # sqrt(5); the surd coefficient is written without a sign of its own
    _, payload = run_json(capsys, ["matrix", "--format", "json",
                                   "--no-timestamp", "--at", "q=-7/3"])
    rep = payload["at_report"]
    assert rep["eigenvalue_squares"] == ["-154/3 + 70/3*sqrt(5)",
                                         "-154/3 - 70/3*sqrt(5)"]
    assert rep["roots_verified"] is True


def test_cold_matrix_command_splits_the_surd_once(monkeypatch, capsys):
    calls = []
    split = quantum.squarefree_part

    def counted(n):
        calls.append(n)
        return split(n)

    monkeypatch.setattr(quantum, "squarefree_part", counted)
    assert main(["matrix", "--no-timestamp", "--at", "q=-7/3"]) == 0
    # the discriminant 2000 of T^2 - 44 T - 16, split for the spectrum
    # node and read from it by the summary and the --at report
    assert calls == [2000]


def test_reports_table_names_each_certificate_group():
    assert set(cli.REPORTS) == set(certificates.GROUP_BUILDERS)


def test_parser_offers_the_reports_then_verify_all():
    command, = [action for action in cli.build_parser()._actions
                if action.dest == "command"]
    assert list(command.choices) == [*cli.REPORTS, "verify-all"]


def test_help_lists_each_command_with_its_help_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, (help_text, *_) in cli.REPORTS.items():
        assert "  %-13s %s" % (name, help_text) in lines, name
    assert "  %-13s every certificate group" % "verify-all" in lines


@pytest.mark.parametrize("argv,named", [
    (["gw", "--seed", "1"], "--seed"),
    (["table", "--seed", "1"], "--seed"),
    (["verify-all", "--at", "q=1"], "--at"),
    (["presentation", "--at", "q=1"], "--at"),
    (["spectralize"], "spectralize"),
    ([], "command"),
])
def test_usage_errors_exit_2_and_name_the_culprit(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--no-timestamp"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


def test_at_reports_take_their_variables_by_name():
    for name, (_, at_vars, _, report_at) in cli.REPORTS.items():
        if report_at is None:
            assert at_vars == (), name
        else:
            params = list(inspect.signature(report_at).parameters)
            assert params == ["ws", *at_vars], name


def test_deform_at_specialization(capsys):
    _, payload = run_json(capsys, ["deform", "--format", "json",
                                   "--no-timestamp", "--at", "q=2,t=1/3"])
    assert payload["at"] == {"q": "2", "t": "1/3"}
    rep = payload["at_report"]
    assert rep["eigenvalue"] == "-8/3"
    assert rep["matrix"][0][1] == "24"
    assert "t^2" in rep["note"]


def test_criterion_degenerate_specialization(capsys):
    code, payload = run_json(capsys, ["criterion", "--format", "json",
                                      "--no-timestamp", "--at", "q=0"])
    assert code == 0
    rep = payload["at_report"]
    assert rep["satisfied"] is False
    assert rep["profile"] == {"6": 1}
    assert payload["failed"] == []


def test_matrix_degenerate_specialization(capsys):
    code, payload = run_json(capsys, ["matrix", "--format", "json",
                                      "--no-timestamp", "--at", "q=0"])
    assert code == 0
    rep = payload["at_report"]
    assert rep["eigenvalue_square_equation"] == "T^2 - 0*T - 0"
    assert rep["eigenvalue_squares"] == ["0 (double root)"]
    assert rep["roots_verified"] is False
    assert "degenerate" in rep["note"] and "polynomial in q" in rep["note"]
    assert payload["failed"] == []


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectralize"])
    assert exc.value.code == 2


def test_bad_at_exits_2(capsys):
    for spec in ("q=banana", "t=1", "", "q=1e5000"):
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--at", spec])
        assert exc.value.code == 2, spec
    assert "too many digits" in capsys.readouterr().err
    # a literal past Python's int parsing limit fails inside Fraction()
    # itself; it is reported as too long, not as malformed, and not echoed
    with pytest.raises(SystemExit) as exc:
        main(["criterion", "--at", "q=" + "1" * 5000])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "has too many digits" in err
    assert "is not a rational" not in err
    assert len(err) < 200
    # a decimal exponent is refused before 10^e is ever expanded
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["criterion", "--at", "q=1e16000000"])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    assert "has too many digits" in capsys.readouterr().err
    # values that parse but specialize to entries past the int -> str
    # limit are reported against --at, not with Python's own message
    limit = "(more than %d)" % sys.get_int_max_str_digits()
    for argv in (["matrix", "--at", "q=1e3000"],
                 ["table", "--at", "q=1e2000"],
                 ["deform", "--at", "q=1e2000,t=1e2000"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: --at ") and limit in err, argv
        assert "set_int_max_str_digits" not in err, argv


def test_deform_at_needs_both_variables(capsys):
    """A partial spec is refused rather than completed with q = 1 or t = 0."""
    for spec, missing in (("t=1", "q"), ("q=2", "t")):
        with pytest.raises(SystemExit) as exc:
            main(["deform", "--no-timestamp", "--at", spec])
        assert exc.value.code == 2, spec
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: --at does not set %s;" % missing), captured.err


AT_NAMES = st.sampled_from(["q", "t", "x", "", " q ", "Q"])
AT_VALUES = st.one_of(
    st.integers().map(str),
    st.tuples(st.integers(), st.integers(-2, 9)).map("%d/%d".__mod__),
    st.tuples(st.sampled_from(["", "+", "-", "1.", ".5", "12_3"]),
              st.sampled_from(["e", "E"]),
              st.sampled_from(["", "+", "-", "_"]),
              st.one_of(st.integers(0, 5000), st.integers(0, 10 ** 6)))
    .map(lambda p: "1%s%s%s%d" % p),
    st.integers(1, 9000).map(lambda n: "7" * n),
    st.sampled_from(["", "+", "-", "+-1", "1/0", "0/0", "1.5", "1e", "e5",
                     "inf", "nan", "1__0", " 7 ", "3 / 4", "1/2/3", "=1"]),
    st.text(max_size=6),
)
AT_PARTS = st.one_of(st.tuples(AT_NAMES, AT_VALUES).map("%s=%s".__mod__),
                     AT_VALUES)


# exponents stay below 10^6, so an unguarded 10^e costs seconds, not
# memory, and shows up as a missed deadline
@settings(max_examples=300, deadline=1000)
@given(st.lists(AT_PARTS, max_size=4).map(",".join))
def test_parse_at_returns_fractions_or_an_at_error(spec):
    try:
        out = parse_at(spec, ("q", "t"))
    except ValueError as exc:
        assert str(exc).startswith("--at"), str(exc)
        return
    assert set(out) <= {"q", "t"}
    assert all(isinstance(v, Fraction) for v in out.values())


NODE_NAMES = ("reports", "counts", "solve", "ring", "spectrum", "presentation",
              "operator", "model", "full_operator", "statistics", "criterion")


def test_verify_all_builds_each_ring_and_scan_once(monkeypatch, capsys):
    made = Counter()
    passes = []
    workspaces = []
    init = QuantumRing.__init__
    sides = quantum._table_sides

    def counted_init(self, *args, **kwargs):
        made["rings"] += 1
        init(self, *args, **kwargs)

    def counted_sides(ring, triples, tensor):
        passes.append((ring, "frobenius" if tensor is ring._gram_tensor
                       else "associativity"))
        return sides(ring, triples, tensor)

    class Recorded(Workspace):
        def __init__(self):
            super().__init__()
            workspaces.append(self)

    built = Counter()
    for name, (inputs, build) in list(certificates.NODES.items()):
        def counted_build(*args, name=name, build=build):
            built[name] += 1
            return build(*args)

        monkeypatch.setitem(certificates.NODES, name, (inputs, counted_build))
    monkeypatch.setattr(QuantumRing, "__init__", counted_init)
    monkeypatch.setattr(quantum, "_table_sides", counted_sides)
    monkeypatch.setattr(cli, "Workspace", Recorded)
    assert main(["verify-all", "--no-timestamp"]) == 0
    # the solver's symbolic and solved rings and the perturbed control
    assert made == {"rings": 3}
    ws, = workspaces
    assert ws.solve.ring is ws.ring
    # each scan runs once per ring: the solved ring's associativity scan
    # serves the solver, the operator and the table and property groups,
    # its Frobenius scan the two groups; the symbolic ring's pass yields
    # the solver's residuals, and the control has a scan of its own
    (symbolic, _), _, _, (control, _) = passes
    assert passes == [(symbolic, "frobenius"), (ws.ring, "associativity"),
                      (ws.ring, "frobenius"), (control, "associativity")]
    assert len({id(symbolic), id(ws.ring), id(control)}) == 3
    # a cold verify-all reads every node and builds each one once
    assert built == dict.fromkeys(NODE_NAMES, 1)


def test_node_table_is_an_acyclic_graph():
    nodes = certificates.NODES
    assert sorted(nodes) == sorted(NODE_NAMES)
    for name, (inputs, _) in nodes.items():
        assert set(inputs) <= set(nodes), name
        assert isinstance(vars(Workspace)[name], property), name
    # the full operator reads the ambient one and nothing else
    assert nodes["full_operator"][0] == ("operator",)
    done = []
    while len(done) < len(nodes):
        ready = [name for name, (inputs, _) in nodes.items()
                 if name not in done and set(inputs) <= set(done)]
        assert ready, "cycle among %s" % sorted(set(nodes) - set(done))
        done += ready


def test_node_builders_look_up_their_function_when_run(monkeypatch):
    """A builder that captured `build_deformed_matrix` when the module
    was imported would not see it rebound, as the benchmark's tracer
    rebinds it."""
    calls = []
    build = certificates.build_deformed_matrix

    def counted(ring):
        calls.append(ring)
        return build(ring)

    monkeypatch.setattr(certificates, "build_deformed_matrix", counted)
    ws = Workspace()
    op = ws.operator
    assert ws.operator is op
    assert calls == [ws.ring]


def test_criterion_command_runs_two_spectral_passes(monkeypatch, capsys):
    calls = []
    crit = deformation.irrationality_criterion

    def counted(*args):
        calls.append(args)
        return crit(*args)

    for module in (deformation, certificates, cli):
        monkeypatch.setattr(module, "irrationality_criterion", counted)
    assert main(["criterion", "--format", "json", "--no-timestamp"]) == 0
    # the certified report, read by the summary too, and the scalar
    # control; the Hodge model control re-judges the report's profile
    assert len(calls) == 2
    certs = {c["claim"]: c for c in
             json.loads(capsys.readouterr().out)["certificates"]}
    control = certs["criterion.control.no-h31"]
    assert (control["status"], control["computed"]) == ("verified", False)


def test_verify_all_counts_its_spectral_and_matrix_work(monkeypatch):
    """A cold verify-all takes four characteristic polynomials (spectrum,
    statistics, criterion and its scalar control) and four matrix
    products (M^2, one Horner step and the product by M for R3, and one
    square over Q[t]/(t^2) for the Jordan lift).  Of its 13 eliminations
    only the Gram inverse belongs to the base every command builds: the
    associativity solve eliminates on integers, so a cold `gw` makes
    one.  A cold `deform` makes 9: the kernel span is one stacked rank
    and the beta line test reads 2 x 2 minors, so neither eliminates
    per vector.  Each cold `main()` builds one argument parser."""
    calls = Counter()
    for name in ("char_poly", "matmul", "rref"):
        original = getattr(linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (linalg, deformation, quantum):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    parser_init = argparse.ArgumentParser.__init__

    def counted_parser(*args, **kwargs):
        calls["ArgumentParser"] += 1
        parser_init(*args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_parser)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify-all", "--seed", "0", "--no-timestamp"]) == 0
    assert calls == {"char_poly": 4, "matmul": 4, "rref": 13,
                     "ArgumentParser": 1}
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gw", "--no-timestamp"]) == 0
    assert calls == {"rref": 1, "ArgumentParser": 1}
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["deform", "--no-timestamp"]) == 0
    assert calls["rref"] == 9


def test_gw_rejects_at(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gw", "--at", "q=1"])
    assert exc.value.code == 2


def test_markdown_table_rows(capsys):
    assert main(["table"]) == 0
    out = capsys.readouterr().out
    assert "s11 * s11" in out or "s11*s11" in out
    assert "32*q^2*s0 + 6*q*s2 + s31" in out
