"""Host-speed probe of the censorloc benchmark; run.py starts it.

    python3 perfbench/calib.py

Runs a fixed workload that does not touch censorloc, in a fresh interpreter
like every timed operation. It splits and parses text rows, fills and sorts
dicts and lists of tuples, round-trips JSON and makes deep recursive calls,
the kinds of work ingest, path inference and the solver do, and then looks
up a dict of tens of megabytes in random order, as the pipeline does with
its hop and prefix tables.

The host this benchmark runs on switches between speed states that differ
by up to a factor of two and last from a second to minutes. run.py times
this whole process, start-up included, before and after every operation and
scales the operation's times by it, so that a change of host speed cancels
and a change of censorloc does not.
"""
from __future__ import annotations

import json
import random
import sys

ROWS = 12_000
TABLE = 100_000


def depth(n: int, acc: int) -> int:
    return acc if n == 0 else depth(n - 1, acc + (n & 3))


def interpreter_block() -> int:
    rows = [f"{i},{i * 7919 % 65536},AS{i % 977},10.{i % 256}.{(i >> 8) % 256}.{i % 7}"
            for i in range(ROWS)]
    by_asn: dict[str, list[tuple[int, tuple[int, ...]]]] = {}
    for row in rows:
        a, b, asn, ip = row.split(",")
        octets = tuple(int(x) for x in ip.split("."))
        by_asn.setdefault(asn, []).append((int(a) ^ int(b), octets))
    total = 0
    for hops in by_asn.values():
        hops.sort()
        total += len({octets for _, octets in hops})
    blob = json.dumps([[k, v[:20]] for k, v in by_asn.items()])
    total += len(json.loads(blob))
    for n in range(200):
        total += depth(300, n)
    return total


def memory_block() -> int:
    order = list(range(TABLE))
    random.Random(0).shuffle(order)
    table = {f"k{i}": (i, i + 1) for i in range(TABLE)}
    return sum(table[f"k{i}"][0] for i in order)


def main() -> int:
    interpreter_block()
    memory_block()
    return 0


if __name__ == "__main__":
    sys.exit(main())
