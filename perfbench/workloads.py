"""Workload definitions: the input files and the CLI command list of
each named workload, generated from the workload seed.

A workload is a closed loop with one client: the commands run one at a
time, in list order, and the next starts when the previous one exits.
Every command writes its JSON to stdout; the benchmark keeps stdout of
command i in ``cmd<i>.out`` inside the run's work directory, which is
how ``audit`` finds the catalog that ``enumerate`` wrote.
"""

from __future__ import annotations

import json
import os
import random
from math import gcd
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

# (point, coefficient) pairs; a point is a finite coordinate or "inf"
Terms = Tuple[Tuple[str, str], ...]

WORKLOADS = ("catalog", "couples")

# catalog: the sweep users run.  Each enumeration is kept to a few
# seconds so that a run repeats the whole sweep several times.
CATALOG_PARAMS = (("1", 6), ("1/2", 6), ("1/4", 4))
SMOKE_CATALOG_PARAMS = (("1", 3),)

A1: Terms = (("0", "2"),)

# couples: one command per size regime of the single-couple oracles
# (germ grid q, chain length, index m, lcm L) and the relation kernel of
# ``presentation``, as (kind, couple name, extra arguments), then the
# toric and A-type checks of ``FANS`` and ``VERIFY_FLAGS``.  The drawn
# couples come from ``drawn_couples``.  The toric and A-type checks ride
# in this workload rather than in one of their own so that each of the
# two workloads runs long enough to be steady on a shared host.
COUPLES: Dict[str, Terms] = {
    "germ199": (("0", "100/199"),),
    "chain200": (("0", "1/200"),),
    "index36049": (("0", "1/29"), ("1", "2/31"), ("inf", "40")),
    "d4": (("0", "1/2"), ("1", "1/2"), ("inf", "1/2")),
    "e6": (("0", "1/2"), ("1", "1/3"), ("inf", "2/3")),
}
COUPLE_COMMANDS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("describe", "germ199", ()),
    ("describe", "drawn_platonic", ()),
    ("resolve", "chain200", ()),
    ("discrepancy", "index36049", ()),
    ("hilbert", "drawn_lcm1517", ()),
    ("presentation", "d4", ()),
    # E6: generators in degrees 3, 4, 6 and the relation in degree 12
    ("presentation", "e6", ("--gen-bound", "12", "--rel-bound", "12")),
)
SMOKE_COUPLE_COMMANDS = (("describe", "a1", ()), ("presentation", "a1", ()))

# a rank-3 fan (projective 3-space) and a rank-2 fan (the weighted
# plane P(1,1,2)); both are simplicial, so Q-Gorenstein
FANS = {
    "p3": ({"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
            "cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]},
           ["1/2", "1/3", "0", "1"]),
    "w112": ({"rank": 2, "rays": [[1, 0], [0, 1], [-1, -2]],
              "cones": [[0, 1], [1, 2], [0, 2]]},
             ["1/2", "2/3", "1"]),
}
TORIC_SAMPLES = 1000
# the A-type scan at half the default n and box
VERIFY_FLAGS = ["--an-n", "100", "--an-box", "250"]
SMOKE_TORIC_SAMPLES = 5
SMOKE_VERIFY_FLAGS = ["--an-n", "3", "--an-box", "10", "--rnc-max", "4"]


@dataclass
class Command:
    kind: str                      # CLI subcommand
    argv: List[str]                # arguments after ``python3 -m conesing``
    check: Dict = field(default_factory=dict)   # data for the output oracle


@dataclass
class Workload:
    name: str
    seed: int
    commands: List[Command]
    files: Dict[str, object]       # work-relative path -> JSON document
    # couples whose blown-down graph the presentation oracle needs
    presentation_refs: Dict[str, str] = field(default_factory=dict)


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def couple_doc(terms: Terms) -> dict:
    def point(p):
        return {"t": "inf"} if p == "inf" else {"t": "fin", "x": p}
    return {"divisor": [{"point": point(p), "coeff": c} for p, c in terms]}


def drawn_couples(seed: int) -> Dict[str, Terms]:
    """Couples drawn from the seed inside two fixed size classes.

    ``drawn_lcm1517`` keeps the denominators 37 and 41 (so L = 1517,
    which sets the cost of the Hilbert self-check) and draws the
    numerators and the integer part at infinity.  ``drawn_platonic``
    draws a klt three-point type with small denominators and a positive
    degree.
    """
    rng = random.Random(seed)
    a, b = rng.randint(1, 36), rng.randint(1, 40)
    shift = rng.randint(0, 1)
    two = [("0", f"{a}/37"), ("1", f"{b}/41")]
    if shift:
        two.append(("inf", str(shift)))
    qs = rng.choice([(2, 2, 3), (2, 2, 5), (2, 2, 7), (2, 3, 3), (2, 3, 4),
                     (2, 3, 5)])
    fracs = [Fraction(rng.choice([p for p in range(1, q) if gcd(p, q) == 1]), q)
             for q in qs]
    n = rng.randint(-1, 2)
    while sum(fracs) + n <= 0:
        n += 1
    fracs[-1] += n
    three = [(pt, _fmt(f)) for pt, f in zip(("0", "1", "inf"), fracs)]
    return {"drawn_lcm1517": tuple(two), "drawn_platonic": tuple(three)}


def _fmt(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def build(name: str, seed: int, work: str, smoke: bool = False) -> Workload:
    """The workload's commands and input files; ``work`` is the
    work directory, relative to the checkout root, that holds them."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    commands: List[Command] = []
    files: Dict[str, object] = {}
    refs: Dict[str, str] = {}

    def out_of(index: int) -> str:
        return os.path.join(work, f"cmd{index}.out")

    def couple_file(cname: str, terms: Terms) -> str:
        path = os.path.join(work, f"{cname}.json")
        files[path] = couple_doc(terms)
        return path

    if name == "catalog":
        jobs = str(cpu_count())
        for eps, N in (SMOKE_CATALOG_PARAMS if smoke else CATALOG_PARAMS):
            commands.append(Command("enumerate", [
                "enumerate", "--epsilon", eps, "--isotropy-bound", str(N),
                "--jobs", jobs], {"epsilon": eps, "isotropy_bound": N}))
        for i, c in enumerate(list(commands)):
            eps, N = c.check["epsilon"], c.check["isotropy_bound"]
            commands.append(Command("audit", [
                "audit", "--catalog", out_of(i), "--epsilon", eps,
                "--isotropy-bound", str(N)], {"catalog_command": i}))
    elif name == "couples":
        couples = {"a1": A1, **COUPLES, **drawn_couples(seed)}
        for kind, cname, extra in (SMOKE_COUPLE_COMMANDS if smoke
                                   else COUPLE_COMMANDS):
            terms = couples[cname]
            path = couple_file(cname, terms)
            check = {"couple": terms}
            if kind == "presentation":
                refs[cname] = path
                check["ref"] = cname
            commands.append(Command(kind, [kind, "--couple", path, *extra],
                                    check))
        samples = SMOKE_TORIC_SAMPLES if smoke else TORIC_SAMPLES
        for fname, (fan, divisor) in FANS.items():
            fan_path = os.path.join(work, f"{fname}.fan.json")
            div_path = os.path.join(work, f"{fname}.divisor.json")
            files[fan_path] = fan
            files[div_path] = divisor
            commands.append(Command("toric-check", [
                "toric-check", "--fan", fan_path, "--divisor", div_path,
                "--samples", str(samples), "--seed", str(seed)], {}))
        commands.append(Command("verify-examples", ["verify-examples"]
                                + (SMOKE_VERIFY_FLAGS if smoke else VERIFY_FLAGS), {}))
    return Workload(name=name, seed=seed, commands=commands, files=files,
                    presentation_refs=refs)


def write_files(workload: Workload, root: str) -> None:
    for rel, doc in workload.files.items():
        with open(os.path.join(root, rel), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
