"""The trusted computing base, counted — and the layer order, checked.

Everything ``repro.enclave_app.ibbe_enclave`` imports would be linked
into a real enclave and is trusted with the master secret; every
registered ecall is a door into it.  Five things are asserted:

* **The closure.**  Importing the enclave in a fresh interpreter loads
  at most ``MAX_ENCLAVE_MODULES`` ``repro.*`` modules of at most
  ``MAX_ENCLAVE_LINES`` lines, none of them from ``UNTRUSTED`` (the
  administrator, the stores, the wire, the harnesses) and none of the
  ``PARTY_MODULES`` — the other parties of Fig. 3 and the writers, which
  share a package with trusted code but not a trust domain; an ``ast``
  walk also asserts that no trusted unit imports one, at any level
  (party to party — ``PARTY_EDGES`` — is allowed).  Either ceiling may
  be lowered by any PR; raising one needs a reason stated next to the
  new number (and in DESIGN.md §2, which records it).
* **The order.**  ``LAYERS`` is the package graph bottom-up; an ``ast``
  walk over every file under ``src/`` asserts each ``repro.*`` import
  points into the importer's own package or a lower row, so the graph is
  acyclic by construction and the trusted half is its bottom.  Standard
  library only: this is the static gate that runs wherever pytest does.
* **No deferred imports in the trusted half.**  At or below
  ``enclave_app`` every ``repro.*`` import is at module level, so the
  import-time closure above *is* what an ecall can load.
* **The doors.**  ``ECALLS`` pins how many the IBBE enclave registers,
  and — ecalls being dispatched by name — every name ``src/`` passes to
  ``.call(`` or puts in a ``call_batch`` or ``_commit_plan`` batch is
  one some enclave under ``src/`` registers, so a deleted ecall cannot
  linger as a string that fails only when its rare path next runs.
* **No islands.**  Every module under ``src/repro`` is in the import
  closure of something that runs: the CLI, the composition root, a
  workload's ``__main__``, a benchmark, an example or the package
  root's lazy table.  A module only its own tests import is not part of
  the system.  Module level only, and no allow-list.

Moved a module or added an import?  This file, ~2 s.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.enclave_app import IbbeEnclave
from repro.sgx import EcallRegistry

SRC = Path(repro.__file__).resolve().parents[1]
REPO = SRC.parent

#: ``repro.*`` modules loaded by importing the enclave in a fresh
#: interpreter: crypto 8, sgx 8 (the enclave runtime with the device and
#: EPC it runs on; no party), obs 4 (spans, metrics, collect; no
#: writer), ec 4, mathutils 4, pairing 4, par 4, ibbe 2, enclave_app 2,
#: fields 2 (the raw F_p² arithmetic; the operator-overloaded wrappers
#: live with the tests), the package root and the leaves errors,
#: serialize, faulthook.
MAX_ENCLAVE_MODULES = 46
#: Their line count, pinned at the measured closure (6 798, when one
#: affine tree took over the Straus columns and the table rows and the
#: field tests took the F_p² helpers only they use).
MAX_ENCLAVE_LINES = 6798
ECALLS = 17

#: The package graph, bottom-up.  A unit is a first-level name under
#: ``repro`` (a sub-package or a single module); units sharing a row do
#: not import each other.  ``repro/__init__.py`` names every row in its
#: lazy table and sits on top.
LAYERS = [
    {"errors"},
    {"serialize", "faulthook"},
    {"obs"},
    {"mathutils"},
    {"fields", "ec"},
    {"crypto"},
    {"pairing"},
    {"ibe", "ibbe"},
    {"par"},
    {"sgx"},
    {"enclave_app", "cloud"},       # the trusted half ends here
    {"faults", "net"},
    {"core"},
    {"baselines", "deploy"},
    {"shard"},
    {"bench"},
    {"workloads"},
    {"cli"},
    {"repro"},
]
ROW = {unit: row for row, units in enumerate(LAYERS) for unit in units}
#: Must never load with the enclave: every row above its own, its
#: row-mate ``cloud``, and ``ibe`` (the HE-IBE baseline's scheme).
UNTRUSTED = {"cloud", "ibe"} | {
    unit for unit, row in ROW.items()
    if ROW["enclave_app"] < row < ROW["repro"]}

#: Modules in trusted *units* that the enclave must not load, and that
#: no trusted unit may import: the IAS server, the Auditor/CA and the
#: host-side attestation drivers are other parties (Fig. 3; MAGE is in
#: the enclave so that no third party is), every writer the trusted half
#: cannot import is an egress channel it does not have, and the
#: try-and-increment hash-to-curve is the HE-IBE baseline's.
PARTY_MODULES = {
    "repro.sgx.ias", "repro.sgx.auditor", "repro.sgx.attestation",
    "repro.obs.export", "repro.ec.hashing",
}
#: Party to party: the Auditor asks the IAS, the drivers ask the Auditor.
PARTY_EDGES = {
    ("repro.sgx.auditor", "repro.sgx.ias"),
    ("repro.sgx.attestation", "repro.sgx.auditor"),
}

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


def unit_of(module):
    """``repro.sgx.ias`` → ``sgx``; the package root → ``repro``."""
    return (module.split(".") + ["repro"])[1]


@functools.lru_cache(maxsize=None)
def tree_of(path):
    return ast.parse(path.read_text("utf-8"))


def repro_imports(path):
    """``(line, imported name, inside a function?)`` for every
    ``repro.*`` import statement in ``path``.  ``from repro.a import b``
    gives ``repro.a`` and ``repro.a.b`` — ``b`` may be a sub-module; both
    are in the same unit."""
    found = []

    def walk(node, deferred):
        deferred = deferred or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                targets = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                assert child.level == 0, (
                    f"{path}:{child.lineno}: relative import — the layer "
                    "check reads absolute names")
                targets = [f"{child.module}.{alias.name}"
                           for alias in child.names]
                if child.module != "repro":
                    targets.append(child.module)
            else:
                walk(child, deferred)
                continue
            found.extend((child.lineno, target, deferred)
                         for target in targets
                         if target.split(".")[0] == "repro")

    walk(tree_of(path), False)
    return found


@functools.lru_cache(maxsize=None)
def source_imports():
    """``(where, importing unit, imported unit, inside a function?)``
    over every file under ``src/repro``."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC / "repro").parts
        importer = "repro" if parts == ("__init__.py",) else Path(parts[0]).stem
        found.extend(
            (f"{path.relative_to(SRC)}:{line}", importer, unit_of(target),
             deferred)
            for line, target, deferred in repro_imports(path))
    return found


def test_enclave_import_closure_does_not_grow():
    probe = subprocess.run(
        [sys.executable, "-c", PROBE], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    modules = json.loads(probe.stdout)
    lines = line_count(modules.values())
    assert (len(modules) <= MAX_ENCLAVE_MODULES
            and lines <= MAX_ENCLAVE_LINES), (
        f"the enclave now imports {len(modules)} repro modules "
        f"({lines} of {line_count(SRC.rglob('*.py'))} lines under src/), "
        f"ceilings {MAX_ENCLAVE_MODULES} / {MAX_ENCLAVE_LINES}: "
        f"{sorted(modules)}")
    outside = sorted(name for name in modules
                     if unit_of(name) in UNTRUSTED or name in PARTY_MODULES)
    assert not outside, f"untrusted modules inside the enclave: {outside}"


def test_every_unit_has_a_row():
    units = {path.stem for path in (SRC / "repro").iterdir()
             if path.suffix == ".py" or (path / "__init__.py").exists()}
    assert units - {"__init__"} == set(ROW) - {"repro"}


def test_imports_point_sideways_or_down():
    upward = [
        f"{where}: {importer} (row {ROW[importer]}) imports "
        f"{imported} (row {ROW.get(imported, '— no such unit')})"
        for where, importer, imported, _ in source_imports()
        if imported != importer
        and not ROW.get(imported, len(LAYERS)) < ROW[importer]]
    assert not upward, "\n".join(upward)


def test_trusted_half_defers_no_import():
    deferred = [f"{where}: {importer} imports {imported} inside a function"
                for where, importer, imported, is_deferred in source_imports()
                if is_deferred and ROW[importer] <= ROW["enclave_app"]]
    assert not deferred, "\n".join(deferred)


def module_files():
    """``{dotted name: path}`` for every module under ``src/repro``."""
    files = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def test_trusted_half_imports_no_party_module():
    """The static half of the closure's deny-list: it also sees an
    import the probe's one path through the code would not run.  The
    importers checked are the trusted units — ``ibe``, the baseline that
    owns ``ec.hashing``, and ``cloud`` are ``UNTRUSTED`` already."""
    files = module_files()
    assert PARTY_MODULES <= set(files)
    edges = {
        (name, target)
        for name, path in files.items()
        if ROW[unit_of(name)] <= ROW["enclave_app"]
        and unit_of(name) not in UNTRUSTED
        for _, target, _ in repro_imports(path)
        if target in PARTY_MODULES and target != name}
    assert not edges - PARTY_EDGES, sorted(edges - PARTY_EDGES)


def entry_points(files):
    """The names something outside ``tests/`` runs or imports: the CLI,
    the composition root, each workload with a ``__main__`` block, what
    the benchmarks and examples import, and the lazy root's table."""
    roots = {"repro.cli", "repro.deploy", *repro._HOME.values()}
    roots.update(
        name for name, path in files.items()
        if name.startswith("repro.workloads.")
        and '__name__ == "__main__"' in path.read_text("utf-8"))
    for script in [*(REPO / "benchmarks").rglob("*.py"),
                   *(REPO / "examples").glob("*.py")]:
        roots.update(name for _, name, _ in repro_imports(script))
    return roots


def test_every_module_is_reachable_from_an_entry_point():
    files = module_files()
    reached, frontier = set(), entry_points(files)
    while frontier:
        name = frontier.pop()
        if not name or name in reached:
            continue
        # Importing a module runs its parent packages first; a name
        # that is no module is a function or class inside its parent.
        frontier.add(name.rpartition(".")[0])
        if name in files:
            reached.add(name)
            frontier.update(
                target for _, target, _ in repro_imports(files[name]))
    islands = sorted(set(files) - reached)
    assert not islands, (
        "modules under src/repro that no entry point imports (delete "
        "them, or make them part of something that runs):\n" + "\n".join(
            f"  {name} ({line_count([files[name]])} lines)"
            for name in islands))


def test_registered_ecall_count():
    assert len(EcallRegistry.for_class(IbbeEnclave).names()) == ECALLS


def is_named(node, name):
    """``name`` or ``<anything>.name``."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def named_requests(call):
    """The nodes of ``call`` whose leading string literal names an
    ecall: ``<handle>.call("name", …)`` itself, and every ``("name",
    args)`` entry inside the arguments of ``call_batch(...)`` or of
    ``_commit_plan(...)``, whose batch builder the administrator writes
    inline.  ``self.call(...)`` is an object's own method (the admin RPC
    client's), never a handle."""
    if any(is_named(call.func, name)
           for name in ("call_batch", "_commit_plan")):
        return [entry for arg in call.args for entry in ast.walk(arg)
                if isinstance(entry, (ast.Tuple, ast.List))]
    if (isinstance(call.func, ast.Attribute) and call.func.attr == "call"
            and not is_named(call.func.value, "self")):
        return [call]
    return []


def ecall_names():
    """``(registered, called)`` over ``src/``: the names of ``@ecall``
    methods, and ``{name: where}`` for every literal ecall name called
    (a computed name is not a literal and is skipped)."""
    registered, called = set(), {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(tree_of(path)):
            if isinstance(node, ast.FunctionDef):
                if any(is_named(getattr(d, "func", d), "ecall")
                       for d in node.decorator_list):
                    registered.add(node.name)
            elif isinstance(node, ast.Call):
                for request in named_requests(node):
                    items = (request.args if isinstance(request, ast.Call)
                             else request.elts)
                    head = items[0] if items else None
                    if isinstance(head, ast.Constant) \
                            and isinstance(head.value, str):
                        called[head.value] = (
                            f"{path.relative_to(SRC)}:{node.lineno}")
    return registered, called


def test_every_ecall_name_in_src_is_registered():
    registered, called = ecall_names()
    # The collector agrees with the live registry and sees the callers.
    assert set(EcallRegistry.for_class(IbbeEnclave).names()) <= registered
    assert {"setup_system", "create_group", "register_user",
            "import_master_secret_from_peer"} <= set(called)
    # ... and every batch the administrator commits.
    assert {"create_group", "create_partition", "remove_user",
            "rekey_group"} <= set(called)
    # No ecall hands a user key to the host in the clear.
    assert "extract_user_key_raw" not in registered
    dangling = {name: where for name, where in called.items()
                if name not in registered}
    assert not dangling, f"calls to ecalls no enclave registers: {dangling}"
