"""q is a grading: every Q(q) question is asked at q = 1, behind a guard.

The guard (`at_q_one`) refuses any value that is not homogeneous of its
expected degree, so each of the five sites that set q = 1 must fail on an
off-weight input rather than report a q = 1 answer.  The context without
q is derived once per context.  Nothing at runtime builds a `RatFunc`.
"""

from collections import Counter

import pytest

from gmquantum.certificates import Workspace
from gmquantum.cli import main, verify_all_certificates
from gmquantum.deformation import (
    HodgeModel, assemble_full_operator, at_t_zero, atom_statistics,
    build_deformed_matrix, irrationality_criterion,
)
from gmquantum.linalg import Matrix, RatFunc, at_q_one
from gmquantum.poly import VarContext
from gmquantum.quantum import (
    QuantumRing, kernel_basis, presentation_report, spectral_report,
    standard_ring,
)


@pytest.fixture(scope="module")
def ring():
    return standard_ring()


@pytest.fixture(scope="module")
def operator(ring):
    return build_deformed_matrix(ring)


def test_at_q_one_drops_q_and_keeps_every_term():
    ctx = VarContext(("q", "X"), (2, 1))
    q, x = ctx.var("q"), ctx.var("X")
    p = x ** 6 - 44 * q * x ** 4 - 16 * q * q * x ** 2
    one = at_q_one(p, 6, "cp")
    assert one.ctx.names == ("X",)
    assert str(one) == "X^6 - 44*X^4 - 16*X^2"
    with pytest.raises(ValueError, match="cp is not homogeneous of degree 5"):
        at_q_one(p, 5, "cp")
    with pytest.raises(ValueError, match="cp is not homogeneous: "):
        at_q_one(p + q, None, "cp")


def test_at_q_one_derives_each_context_once(monkeypatch):
    """Values of one context land in one context without q, and a cold
    `verify-all` builds few contexts although it sets q = 1 ~200 times."""
    ctx = VarContext(("q", "t"), (2, -1), nilpotent={"t": 2})
    q, t = ctx.var("q"), ctx.var("t")
    one, two = at_q_one(q * t, 1, "a"), at_q_one(q * q, 4, "b")
    assert one.ctx is two.ctx
    assert one.ctx == VarContext(("t",), (-1,), nilpotent={"t": 2})
    made = Counter()
    init = VarContext.__init__

    def counted(self, *args, **kwargs):
        made["contexts"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(VarContext, "__init__", counted)
    assert len(verify_all_certificates(Workspace())) == 42
    assert made["contexts"] <= 60


# ---------------------------------------------------------------------------
# the guard flips all five sites
# ---------------------------------------------------------------------------


def _off_weight_h_matrix(ring):
    """The ring with 1 added to h-matrix entry (0, 1), of degree 2."""
    bad = QuantumRing(ring.amb, ring.table)
    rows = bad.h_matrix.copy_rows()
    rows[0][1] = rows[0][1] + 1
    bad.h_matrix = Matrix(rows)
    return bad


def _off_weight_table(ring):
    """The ring with 1 added to the s0 slot of h * h, of degree 2."""
    table = dict(ring.table)
    hh = list(table[(1, 1)])
    hh[0] = hh[0] + 1
    table[(1, 1)] = tuple(hh)
    return QuantumRing(ring.amb, table)


def _off_weight_full(operator):
    """The full operator with q added to ambient entry (0, 0), of degree 1."""
    rows = assemble_full_operator(operator).copy_rows()
    rows[0][0] = rows[0][0] + operator[0, 0].ctx.var("q")
    return Matrix(rows)


def _off_weight_t0(operator):
    """The t = 0 operator with q added to entry (0, 0), of degree 1."""
    rows = at_t_zero(operator).copy_rows()
    rows[0][0] = rows[0][0] + operator[0, 0].ctx.var("q")
    return Matrix(rows)


SITES = {
    "spectral_report": lambda r, op: spectral_report(_off_weight_h_matrix(r)),
    "kernel_basis": lambda r, op: kernel_basis(_off_weight_h_matrix(r)),
    "presentation_report":
        lambda r, op: presentation_report(_off_weight_table(r)),
    "atom_statistics": lambda r, op: atom_statistics(
        _off_weight_full(op), HodgeModel.standard()),
    "irrationality_criterion": lambda r, op: irrationality_criterion(
        _off_weight_t0(op), HodgeModel.standard()),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_guard_refuses_an_off_weight_input(ring, operator, site):
    with pytest.raises(ValueError, match="is not homogeneous"):
        SITES[site](ring, operator)


# ---------------------------------------------------------------------------
# no Q(q) arithmetic at runtime
# ---------------------------------------------------------------------------


def test_no_command_builds_a_rational_function(monkeypatch, capsys):
    calls = []
    init = RatFunc.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RatFunc, "__init__", counted)
    certs = verify_all_certificates(Workspace())
    assert len(certs) == 42
    for argv in (["gw"], ["matrix"], ["table"], ["presentation"], ["deform"],
                 ["criterion"], ["criterion", "--at", "q=0"],
                 ["matrix", "--at", "q=3/2"]):
        assert main(argv + ["--no-timestamp"]) == 0, argv
    capsys.readouterr()
    assert calls == []
