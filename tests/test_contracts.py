"""Each public type checks its own shape with ValueError, not assert, so
the checks still hold under ``python -O``, which strips assert
statements."""

import os
import subprocess
import sys
from pathlib import Path

import holring

# Under -O this script's own asserts would be stripped too, so it prints
# the cases that were not rejected instead of asserting.
SCRIPT = """
from holring.blocks import padic_blocks
from holring.chartable import Character, character_table
from holring.cyclotomic import padic_valuation
from holring.dt import dt_query
from holring.groupring import CentralElement, GroupRingElem, GroupRingMatrix
from holring.groups import cyclic, symmetric
from holring.lattice import PLattice
from holring.rednorm import norm_ideal_probe

S3 = symmetric(3)
one = GroupRingElem.one(S3)
table = character_table(S3)
involution = next(x for x in range(6) if S3.element_order(x) == 2)
cases = {
    "short element": lambda: GroupRingElem(S3, [1, 2]),
    "ragged matrix": lambda: GroupRingMatrix(S3, [[one, one], [one]]),
    "0x0 matrix": lambda: GroupRingMatrix(S3, []),
    "entry of another group": lambda: GroupRingMatrix(S3, [[GroupRingElem.one(cyclic(3))]]),
    "short central element": lambda: CentralElement(S3, [1, 2]),
    "non-central element": lambda: CentralElement.from_group_ring(GroupRingElem.basis(S3, 1)),
    "short character": lambda: Character(S3, [1, 1]),
    "negative degree": lambda: Character(S3, [-1, 1, 1]),
    "short lattice row": lambda: PLattice.from_generators(5, 3, [[1, 2]]),
    "non-normal quotient": lambda: S3.quotient(frozenset([0, involution])),
    "valuation at p = 1": lambda: padic_valuation(6, 1),
    "valuation at p = 0": lambda: padic_valuation(6, 0),
    "blocks at p = 4": lambda: padic_blocks(table, 4),
    "lattice at p = 4": lambda: PLattice.from_generators(4, 2, [[1, 0], [0, 2]]),
    "DT at p = 4": lambda: dt_query(S3, 4),
    "DT at p = 1": lambda: dt_query(S3, 1),
    "norm ideal at p = 4": lambda: norm_ideal_probe(S3, 4, budget=0),
}
accepted = []
for name, build in cases.items():
    try:
        build()
    except ValueError:
        continue
    accepted.append(name)
print(__debug__, accepted)
"""


def test_shape_checks_survive_optimize():
    src = str(Path(holring.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "False []"
