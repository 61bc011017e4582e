"""The three workloads: seeded inputs, the op each input drives, and its check.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned.  Inputs come only from the workload seed,
so one seed always yields the same op sequence, and the program sees
nothing but the generated argv or ring elements.

- verify-all: each op is a cold `verify-all --format json --no-timestamp
  --seed <s>`, so it pays for the whole Workspace, every certificate group
  and the 100-sample property check, as a user of the command does.
- ring-products: the ring is built once in set-up; each op checks one
  fixed-size batch of random triples through `QuantumRing.star` and
  `pairing`, bypassing `deformation` and the CLI.  The fixed height mix
  makes the `Fraction` gcd cost show and the sparse share keeps the
  zero-skip path of `star` in use.
- report-mix: each round issues the six report commands once, in a
  seeded order, alternating markdown and JSON, with `--at` values that are
  integers, small rationals or 30+ digit rationals.  Each request is cold,
  so it measures many short builds, where work moved into set-up or
  precomputation would cost rather than pay.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import checker

REPORTS = ("gw", "matrix", "table", "presentation", "deform", "criterion")
AT_VARS = {"matrix": ("q",), "table": ("q",), "deform": ("q", "t"),
           "criterion": ("q",)}

# set-up runs this cheap cold command once, so the timed ops do not pay for
# first-call costs of the CLI path
WARMUP_ARGV = ("gw", "--format", "json", "--no-timestamp")


@dataclass(frozen=True)
class CliOp:
    command: str
    fmt: str
    argv: Tuple[str, ...]
    at: Optional[Dict[str, Fraction]] = None

    @property
    def name(self) -> str:
        return self.command


def run_cli(cli, argv: Sequence[str]) -> Tuple[int, str]:
    """`cli.main(argv)` with stdout captured; a usage error is exit code 2."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def cli_op(command: str, fmt: str, at: Optional[Dict[str, Fraction]] = None,
           extra: Sequence[str] = ()) -> CliOp:
    argv = [command, "--format", fmt, "--no-timestamp", *extra]
    if at:
        argv += ["--at", ",".join("%s=%s" % kv for kv in at.items())]
    return CliOp(command, fmt, tuple(argv), at)


class CliWorkload:
    """A workload whose ops are CLI invocations."""

    round_size = 1

    def prepare(self, pkg) -> None:
        rc, text = run_cli(pkg.cli, WARMUP_ARGV)
        reason = checker.check_cli("gw", "json", None, rc, text)
        if reason:
            raise RuntimeError("warm-up command failed: %s" % reason)

    def run(self, pkg, op: CliOp) -> Tuple[int, str]:
        return run_cli(pkg.cli, op.argv)

    def check(self, op: CliOp, result) -> Optional[str]:
        rc, text = result
        return checker.check_cli(op.command, op.fmt, op.at, rc, text)


class VerifyAll(CliWorkload):
    name = "verify-all"

    def ops(self, rng: random.Random) -> Iterator[CliOp]:
        while True:
            yield cli_op("verify-all", "json",
                         extra=("--seed", str(rng.randrange(10 ** 6))))


def draw_rational(rng: random.Random) -> Fraction:
    """A nonzero integer, small rational or 30+ digit rational, in equal shares."""
    sign = rng.choice((-1, 1))
    kind = rng.randrange(3)
    if kind == 0:
        return Fraction(sign * rng.randint(1, 50))
    if kind == 1:
        return Fraction(sign * rng.randint(1, 20), rng.randint(2, 9))
    return Fraction(sign * rng.randrange(10 ** 30, 10 ** 32),
                    rng.randrange(10 ** 30, 10 ** 31))


class ReportMix(CliWorkload):
    name = "report-mix"
    round_size = len(REPORTS)

    def ops(self, rng: random.Random) -> Iterator[CliOp]:
        n = 0
        while True:
            order = list(REPORTS)
            rng.shuffle(order)
            for command in order:
                fmt = ("markdown", "json")[n % 2]
                at = None
                if command in AT_VARS:
                    at = {v: draw_rational(rng) for v in AT_VARS[command]}
                yield cli_op(command, fmt, at)
                n += 1


# ---------------------------------------------------------------------------
# ring products
# ---------------------------------------------------------------------------

TRIPLES_PER_BATCH = 6
# heights of the 3 * TRIPLES_PER_BATCH elements of every batch: the
# certificate sample's height, long numerators and denominators, and
# sparse elements with one or two nonzero coordinates
ELEMENT_MIX = ("small",) * 12 + ("long",) * 3 + ("sparse",) * 3


@dataclass(frozen=True)
class Batch:
    triples: Tuple[Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...],
                         Tuple[Fraction, ...], Fraction], ...]
    name = "batch"


def small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def draw_element(rng: random.Random, kind: str) -> Tuple[Fraction, ...]:
    dim = len(checker.BASIS)
    if kind == "small":
        return tuple(small_rational(rng) for _ in range(dim))
    if kind == "long":
        return tuple(Fraction(rng.randrange(-10 ** 24, 10 ** 24),
                              rng.randrange(1, 10 ** 12)) for _ in range(dim))
    coords = [Fraction(0)] * dim
    for i in rng.sample(range(dim), rng.randint(1, 2)):
        coords[i] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                             rng.randint(1, 4))
    return tuple(coords)


class RingProducts:
    name = "ring-products"
    round_size = 1

    def __init__(self):
        self.ring = None
        self.reference = checker.ProductReference()

    def prepare(self, pkg) -> None:
        self.ring = pkg.certificates.Workspace().ring
        one = self.ring.basis_element("s0")
        if self.ring.star(one, one) != one:
            raise RuntimeError("warm-up product s0 * s0 is not s0")

    def ops(self, rng: random.Random) -> Iterator[Batch]:
        while True:
            kinds = list(ELEMENT_MIX)
            rng.shuffle(kinds)
            elems = [draw_element(rng, kind) for kind in kinds]
            yield Batch(tuple(
                (elems[3 * n], elems[3 * n + 1], elems[3 * n + 2],
                 small_rational(rng)) for n in range(TRIPLES_PER_BATCH)))

    def run(self, pkg, batch: Batch):
        """Associativity, commutativity, Frobenius and linearity per triple.

        Returns the four verdicts per triple, and star(a, b) and
        <a * b, c> of the first triple for the reference check.
        """
        ring = self.ring
        names = checker.BASIS
        verdicts: List[Tuple[bool, bool, bool, bool]] = []
        first = None
        for ca, cb, cc, lam in batch.triples:
            a, b, c = (ring.element(dict(zip(names, v))) for v in (ca, cb, cc))
            ab = ring.star(a, b)
            bc = ring.star(b, c)
            pair = ring.pairing(ab, c)
            shifted = tuple(x + lam * y for x, y in zip(b, c))
            lhs = ring.star(a, shifted)
            rhs = tuple(x + lam * y for x, y in zip(ab, ring.star(a, c)))
            verdicts.append((ring.star(ab, c) == ring.star(a, bc),
                             ab == ring.star(b, a),
                             pair == ring.pairing(a, bc),
                             lhs == rhs))
            if first is None:
                first = (ab, pair)
        return verdicts, first

    def check(self, batch: Batch, result) -> Optional[str]:
        verdicts, (ab, pair) = result
        labels = ("associativity", "commutativity", "frobenius", "linearity")
        for n, verdict in enumerate(verdicts):
            for label, ok in zip(labels, verdict):
                if not ok:
                    return "triple %d: %s fails" % (n, label)
        a, b, c, _ = batch.triples[0]
        return self.reference.check(a, b, c, ab, pair)


WORKLOADS = {w.name: w for w in (VerifyAll, ReportMix, RingProducts)}
