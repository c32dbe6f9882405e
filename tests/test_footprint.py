"""What a process imports: only the stack it runs.

A fresh interpreter that runs a small steady state on one protocol stack
must not load another stack, the scenario library, the sweep axes or a
process pool, and must fingerprint its history without ``hashlib`` (which
loads OpenSSL's libcrypto, about 3.5 MB of every process's peak RSS).
A CLI run of several scenarios runs them in turn and loads no pool either.
The lazy package exports must still all resolve.  Each case runs in its
own interpreter: in this one, other tests have imported everything.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import repro

SRC_DIR = os.path.dirname(os.path.dirname(repro.__file__))

# The run is on a sized link, so every message it sends is sized too, and
# sizing must load no other stack.
RUN_SCRIPT = """
import json, sys
from repro.scenarios import NetworkSpec, ScenarioRunner, ScenarioSpec, WorkloadSpec

spec = ScenarioSpec(
    name="footprint-steady-state",
    protocol={protocol!r},
    num_shards=4,
    replicas_per_shard={replicas},
    workload=WorkloadSpec(kind="uniform", txns=200, batch=10, num_keys=256),
    network=NetworkSpec(bandwidth=1000, overhead=0.1),
)
result = ScenarioRunner(spec).run()
assert result.passed and result.history_digest, result.check_reason
print(json.dumps(sorted(sys.modules)))
"""

# Every run executes in the process that asked for it.
CLI_SCRIPT = """
import json, sys
from repro.scenarios.__main__ import main

assert main(["run", "steady-state", "bank-transfers", "--txns", "20"]) == 0
print(json.dumps(sorted(sys.modules)))
"""

STACKS = ("repro.rdma", "repro.baselines")
POOL = ("multiprocessing", "concurrent.futures")
NEVER_ON_A_RUN = ("repro.scenarios.library", "repro.scenarios.sweep") + POOL
# hashlib stands in for the interpreter's own SHA-256 only where it lacks one.
HASHLIB = (
    ("hashlib", "_hashlib")
    if importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256")
    else ()
)


def _fresh(script: str) -> str:
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC_DIR, env.get("PYTHONPATH"))))
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def _modules_after(script: str) -> set:
    return set(json.loads(_fresh(script).splitlines()[-1]))


def _under(modules: set, package: str) -> list:
    return sorted(m for m in modules if m == package or m.startswith(package + "."))


@pytest.mark.parametrize(
    "protocol, replicas, stack",
    [("message-passing", 2, None), ("rdma", 2, "repro.rdma"), ("2pc-paxos", 3, "repro.baselines")],
)
def test_a_run_loads_only_its_own_stack(protocol, replicas, stack):
    modules = _modules_after(RUN_SCRIPT.format(protocol=protocol, replicas=replicas))
    for package in STACKS + NEVER_ON_A_RUN + HASHLIB:
        if package == stack:
            assert _under(modules, package), f"a {protocol} run did not load {package}"
        else:
            assert not _under(modules, package), (protocol, _under(modules, package))


def test_a_cli_run_of_two_scenarios_loads_no_process_pool():
    modules = _modules_after(CLI_SCRIPT)
    assert not [m for package in POOL for m in _under(modules, package)]


def test_every_lazy_export_resolves():
    script = (
        "from repro import *\n"
        "import repro, repro.scenarios as scenarios\n"
        "missing = [n for n in repro.__all__ if n not in globals()]\n"
        "missing += [n for n in scenarios.__all__ if not hasattr(scenarios, n)]\n"
        "missing += [n for n in repro.__all__ if n not in dir(repro)]\n"
        "missing += [n for n in scenarios.__all__ if n not in dir(scenarios)]\n"
        "print(missing)\n"
    )
    assert _fresh(script).strip() == "[]"
    with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
        repro.NoSuchName  # noqa: B018
