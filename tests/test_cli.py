"""End to end checks of the command line interface."""

import dataclasses
import json
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from gmquantum import certificates, cli, deformation, quantum
from gmquantum.ambient import AmbientRing
from gmquantum.certificates import Workspace
from gmquantum.cli import main, matrix_at, parse_at
from gmquantum.gwcounts import CountSet
from gmquantum.quantum import QuantumRing

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs"
     / "certificate.schema.json").read_text())

# `gmquantum <argv> --format json --no-timestamp` of a verified build, one
# file per command line: a change that moves a byte of one changes
# certified content or a report
GOLDEN_DIR = Path(__file__).resolve().parent / "data"
GOLDEN_VERIFY_ALL = GOLDEN_DIR / "verify_all.json"
GOLDEN_PAYLOADS = {
    "verify_all_seed_7": ["verify-all", "--seed", "7"],
    "gw": ["gw"],
    "matrix": ["matrix"],
    "table": ["table"],
    "presentation": ["presentation"],
    "deform": ["deform"],
    "criterion": ["criterion"],
    "matrix_at_q_3_2": ["matrix", "--at", "q=3/2"],
    "deform_at_q_2_t_1_3": ["deform", "--at", "q=2,t=1/3"],
    "criterion_at_q_-7_3": ["criterion", "--at", "q=-7/3"],
    "criterion_at_q_0": ["criterion", "--at", "q=0"],
}


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


@pytest.mark.parametrize("name", sorted(GOLDEN_PAYLOADS))
def test_report_matches_golden_payload(capsys, name):
    argv = GOLDEN_PAYLOADS[name] + ["--format", "json", "--no-timestamp"]
    assert main(argv) == 0
    golden = (GOLDEN_DIR / ("%s.json" % name)).read_bytes()
    assert capsys.readouterr().out.encode() == golden


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
    ring = QuantumRing(counts, AmbientRing(), counts.J11, counts.J12, 32)
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
    workspaces = []
    init = QuantumRing.__init__
    scan = quantum._associativity_scan

    def counted_init(self, *args, **kwargs):
        made["rings"] += 1
        init(self, *args, **kwargs)

    def counted_scan(ring):
        made["scans"] += 1
        return scan(ring)

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
    monkeypatch.setattr(quantum, "_associativity_scan", counted_scan)
    monkeypatch.setattr(cli, "Workspace", Recorded)
    assert main(["verify-all", "--no-timestamp"]) == 0
    # the solver's symbolic and solved rings and the perturbed control;
    # the solved ring's scan serves the solver, the table and the operator
    assert made == {"rings": 3, "scans": 2}
    # a cold verify-all reads every node and builds each one once
    assert built == dict.fromkeys(NODE_NAMES, 1)
    ws, = workspaces
    assert ws.solve.ring is ws.ring


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


def test_criterion_command_runs_the_criterion_three_times(monkeypatch,
                                                          capsys):
    calls = []
    crit = deformation.irrationality_criterion

    def counted(*args):
        calls.append(args)
        return crit(*args)

    for module in (deformation, certificates, cli):
        monkeypatch.setattr(module, "irrationality_criterion", counted)
    assert main(["criterion", "--no-timestamp"]) == 0
    # the certified report, read by the summary too, and two controls
    assert len(calls) == 3


def test_gw_rejects_at(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gw", "--at", "q=1"])
    assert exc.value.code == 2


def test_markdown_table_rows(capsys):
    assert main(["table"]) == 0
    out = capsys.readouterr().out
    assert "s11 * s11" in out or "s11*s11" in out
    assert "32*q^2*s0 + 6*q*s2 + s31" in out
