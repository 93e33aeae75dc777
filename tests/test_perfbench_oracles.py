"""The benchmark harness loads `tests/oracles.py` the way it always does.

`perfbench/workloads.load_oracles` executes this directory's `oracles.py`
as a module that is not registered in `sys.modules`. A module-level
construct that looks its module up there, such as a `@dataclass` under
`from __future__ import annotations`, raises while the file loads, and then
every workload's reference checks fail to build. This test loads the file
through that same function, so such a change fails here first.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_loads_the_oracles(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads_under_test", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    # registered as an import would register it: its own `Case` is a dataclass
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    oracles = workloads.load_oracles()
    # the reference checks the workloads build from the oracles
    enum = workloads.enum_program(random.Random("enum:1"))
    assert callable(workloads.enum_check(oracles, enum))
    program, query, given = workloads.worlds_program(random.Random("worlds:1"))
    assert callable(workloads.worlds_check(oracles, program, query, given))
    ground = workloads.ground_program_for(random.Random("ground:1"))
    assert callable(workloads.ground_check(oracles, ground))
