"""The trusted computing base, counted.

Everything ``repro.enclave_app.ibbe_enclave`` imports would be linked
into a real enclave and is trusted with the master secret; every
registered ecall is a door into it.  Both numbers may be lowered by any
PR; raising either needs a reason stated next to the new number (and in
DESIGN.md §2, which records them).  Lines are reported in the failure
message, not asserted, so ordinary edits do not trip the test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.enclave_app import IbbeEnclave
from repro.sgx import EcallRegistry

#: ``repro.*`` modules loaded by importing the enclave in a fresh
#: interpreter.  Most of them are there because of three import edges
#: the enclave does not need (ROADMAP item 4 lists them).
MAX_ENCLAVE_MODULES = 78
ECALLS = 24

PROBE = """
import json, sys
import repro.enclave_app.ibbe_enclave
print(json.dumps({name: module.__file__
                  for name, module in sys.modules.items()
                  if name.partition(".")[0] == "repro"}))
"""


def line_count(paths):
    return sum(len(Path(path).read_text("utf-8").splitlines())
               for path in paths)


def test_enclave_import_closure_does_not_grow():
    src = Path(repro.__file__).resolve().parents[1]
    probe = subprocess.run(
        [sys.executable, "-c", PROBE], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(src)})
    modules = json.loads(probe.stdout)
    assert len(modules) <= MAX_ENCLAVE_MODULES, (
        f"the enclave now imports {len(modules)} repro modules "
        f"({line_count(modules.values())} of "
        f"{line_count(src.rglob('*.py'))} lines under src/), ceiling "
        f"{MAX_ENCLAVE_MODULES}: {sorted(modules)}")


def test_registered_ecall_count():
    assert len(EcallRegistry.for_class(IbbeEnclave).names()) == ECALLS
