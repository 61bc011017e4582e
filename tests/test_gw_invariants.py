"""The six genus zero counts that feed the quantum product."""

from fractions import Fraction

from gmquantum.gwcounts import (
    EXPECTED_VALUES, CountSet, all_reports, compute_i11, compute_i12,
    compute_i13, compute_i2, compute_j12, derive_j11,
)
from gmquantum.towers import Tower

GEOMETRIC = {
    "I11": (compute_i11, "<s1, dual(s0)>_1"),
    "I12": (compute_i12, "<s2, dual(s1)>_1"),
    "I13": (compute_i13, "<s11, dual(s1)>_1"),
    "I2": (compute_i2, "<s3, dual(s0)>_2"),
    "J12": (compute_j12, "<s11, s11, s11>_1"),
}


def test_geometric_counts():
    for name, (fn, bracket) in GEOMETRIC.items():
        rep = fn()
        assert rep.name == name
        assert rep.bracket == bracket
        assert rep.value == EXPECTED_VALUES[name]
        assert isinstance(rep.value, Fraction)


def test_traces_end_with_the_value():
    for name, (fn, _) in GEOMETRIC.items():
        rep = fn()
        assert len(rep.trace) >= 4, name
        assert rep.trace[-1].startswith("invariant ="), name
        assert rep.trace[-1].endswith(str(rep.value)), name


def test_derived_j11():
    rep = derive_j11(Fraction(6), Fraction(6), Fraction(12))
    assert rep.value == 24
    assert rep.bracket == "<s11, s11, s2>_1"
    # divisor identity: J11 + J12 = 8 I13 - 2 I11
    assert rep.value + 12 == 8 * 6 - 2 * 6


def test_all_reports_keys_and_values():
    reports = all_reports()
    assert sorted(reports) == ["I11", "I12", "I13", "I2", "J11", "J12"]
    for name, rep in reports.items():
        assert rep.value == EXPECTED_VALUES[name]


def test_each_class_is_reduced_once(monkeypatch):
    """One `all_reports` reduces exactly this many classes modulo a tower
    ideal: a count that builds and reduces a bundle's Chern classes twice
    (say, once for c(U) and again inside its Segre classes) shows up
    here."""
    reduced = []
    normal_form = Tower.normal_form

    def counted(tower, p):
        reduced.append(p)
        return normal_form(tower, p)

    monkeypatch.setattr(Tower, "normal_form", counted)
    all_reports()
    assert len(reduced) == 35


def test_count_set_round_trip():
    counts = CountSet.from_geometry()
    assert (counts.I11, counts.I12, counts.I13) == (6, 10, 6)
    assert (counts.I2, counts.J11, counts.J12) == (12, 24, 12)


def test_expected_values_table():
    assert EXPECTED_VALUES == {
        "I11": 6, "I12": 10, "I13": 6, "I2": 12,
        "J11": 24, "J12": 12, "J2": 32,
    }
    assert all(isinstance(v, Fraction) for v in EXPECTED_VALUES.values())
