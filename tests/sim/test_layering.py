"""Layering rules for the simulation kernel, checked over the source.

The engine's scheduler state (the ready deque, the earliest-timer head and
the ``run(until=...)`` limit) is private to ``repro.sim``: code above it
asks :meth:`Engine.subtask` whether to fuse, instead of copying the guard.
Wire legs go through :func:`repro.sim.network.wire`, so only the network
module itself calls a link's ``transfer``/``try_leg``/``try_start``.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

ENGINE_PRIVATE = re.compile(r"\._(?:ready|due_head|due_seq|until)\b")
WIRE_PRIMITIVE = re.compile(r"\.(?:transfer|try_leg|try_start)\(")


def _offenders(pattern, allowed):
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if allowed(rel):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                found.append(f"{rel}:{lineno}: {line.strip()}")
    return found


def test_engine_scheduler_state_stays_inside_sim():
    assert _offenders(ENGINE_PRIVATE, lambda rel: rel.startswith("sim/")) == []


def test_wire_legs_go_through_wire():
    assert _offenders(WIRE_PRIMITIVE, lambda rel: rel == "sim/network.py") == []
