"""The package root's public surface must match its documentation.

``docs/API.md`` carries machine-readable blocks listing exactly what
``repro.__all__`` exports (``repro-public-surface``) and which ecalls
``IbbeEnclave`` registers (``ibbe-enclave-ecalls`` — the enclave's
attack surface, a number that should only go down deliberately).  These
tests fail whenever code and docs drift, forcing doc updates to ride
along with API changes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import repro

API_MD = Path(__file__).resolve().parent.parent / "docs" / "API.md"


def documented_block(name: str) -> list:
    match = re.search(
        rf"<!-- begin {name} -->\s*```\w*\n(.*?)```\s*<!-- end {name} -->",
        API_MD.read_text("utf-8"), re.DOTALL)
    assert match, (
        f"docs/API.md must contain the {name} block "
        f"(<!-- begin {name} --> ... <!-- end {name} -->)"
    )
    return [line.strip() for line in match.group(1).splitlines()
            if line.strip()]


def test_all_matches_docs():
    documented = documented_block("repro-public-surface")
    actual = list(repro.__all__)
    assert documented == actual, (
        "repro.__all__ and the docs/API.md public-surface block have "
        f"drifted.\n  only in docs: {sorted(set(documented) - set(actual))}"
        f"\n  only in __all__: {sorted(set(actual) - set(documented))}"
        f"\n  (or the ordering differs)"
    )


def test_all_names_are_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} listed but missing"


def test_no_duplicate_exports():
    assert len(repro.__all__) == len(set(repro.__all__))


LAZY_ROOT_PROBE = """
import importlib, sys
import repro

def loaded():
    return sorted(name for name in sys.modules if name.startswith("repro."))

assert loaded() == [], loaded()
for name in repro.__all__:
    home = importlib.import_module(repro._HOME[name])
    assert getattr(repro, name) is getattr(home, name), name
try:
    repro.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute did not raise AttributeError")
from repro import ibbe, obs
assert (ibbe, obs) == (sys.modules["repro.ibbe"], sys.modules["repro.obs"])
"""


def test_package_root_is_lazy():
    """``import repro`` alone loads no sub-package (what keeps the
    enclave's import closure its own, see ``tests/test_tcb.py``); every
    public name still resolves, on first use, to the object its home
    module exports; unknown names raise ``AttributeError``, which is
    what lets ``from repro import <sub-package>`` keep working."""
    src = Path(repro.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", LAZY_ROOT_PROBE], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_registered_ecalls_match_docs():
    from repro.enclave_app import IbbeEnclave
    from repro.sgx import EcallRegistry

    documented = [line.split("(")[0]
                  for line in documented_block("ibbe-enclave-ecalls")]
    assert len(documented) == len(set(documented))
    registered = EcallRegistry.for_class(IbbeEnclave).names()
    assert sorted(documented) == registered, (
        "IbbeEnclave's registered ecalls and the docs/API.md "
        "ibbe-enclave-ecalls block have drifted.\n  only in docs: "
        f"{sorted(set(documented) - set(registered))}\n  only registered: "
        f"{sorted(set(registered) - set(documented))}"
    )
