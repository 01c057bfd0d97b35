"""Rules on the package's source text, checked by reading the files.

"Package imports with the standard library only" stays a CI step of its
own, because it needs an interpreter started with ``python -S``.
"""

import ast
import random
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "convtok").glob("*.py"))


def _matching_lines(pattern, paths):
    """``path:line: text`` of each line of ``paths`` that ``pattern`` matches."""
    found = []
    for path in paths:
        for number, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
            if re.search(pattern, line):
                found.append(f"{path.relative_to(ROOT)}:{number}: {line}")
    return found


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_files_are_read_and_written_only_through_errors_py():
    # errors.py is the one file boundary: strict UTF-8 with no newline
    # translation in (read_utf8), file digests (sha256_file), atomic
    # replacement out (write_atomic)
    found = _matching_lines(
        r"(^|[^A-Za-z0-9_])open\(|(read_text|read_bytes|write_text|write_bytes)\(",
        [p for p in PACKAGE if p.name != "errors.py"])
    assert not found, ("read files with errors.read_utf8 or errors.sha256_file and write them "
                       "with errors.write_atomic\n" + "\n".join(found))


def test_oracles_stay_out_of_the_package():
    # the slow reference implementations live in tests/oracles.py, and the
    # package neither defines nor names them
    found = _matching_lines(
        r"(?<![A-Za-z0-9_])(train_bpe_oracle|merge_adjacent|ORACLE_GUARD_BYTES|CorpusTooLarge"
        r"|reference_[A-Za-z0-9_]+)(?![A-Za-z0-9_])", PACKAGE)
    assert not found, "keep test oracles in tests/oracles.py\n" + "\n".join(found)


def test_no_dataclasses_in_the_package():
    # the value types are named tuples: importing dataclasses, and the
    # inspect module that it imports, would add to every command's start-up
    found = _matching_lines("dataclass", PACKAGE)
    assert not found, ("define value types as typing.NamedTuple, with errors.checked to "
                       "validate them\n" + "\n".join(found))


def test_no_unused_imports():
    # __init__.py re-exports its imports, and __future__ imports are
    # compiler switches, so both are exempt
    unused = []
    for path in PACKAGE + sorted((ROOT / "tests").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in names:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                                      f"{bound} is imported but never used")
    assert not unused, "\n".join(unused)


def _package_imports(path, top_level_only):
    """(line, module) of each import of a convtok module, as ".name"."""
    tree = _tree(path)
    found = []
    for node in tree.body if top_level_only else ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            prefix = "convtok." * node.level
            names = [prefix + node.module] if node.module else [prefix + a.name for a in node.names]
        else:
            continue
        found += [(node.lineno, "." + n.removeprefix("convtok.").split(".")[0])
                  for n in names if n.startswith("convtok.")]
    return found


def test_run_settings_sit_below_the_machinery():
    # config.py holds the run settings and imports no package module but
    # errors. experiments.py reads and writes the model cache, and build.py
    # builds what a cache miss needs: experiments.py imports the corpus
    # parser and the trainer at no level, the tokenizer once and inside a
    # function (to read and write model files), metrics at module level
    # only, and build.py only inside a function, so a warm experiment loads
    # none of them; test_cli pins the modules that a warm run imports.
    package = ROOT / "src" / "convtok"
    bad = [f"src/convtok/config.py:{line}: imports {name}"
           for line, name in _package_imports(package / "config.py", False)
           if name != ".errors"]
    anywhere = _package_imports(package / "experiments.py", False)
    top = _package_imports(package / "experiments.py", True)
    local = [found for found in anywhere if found not in top]
    bad += [f"src/convtok/experiments.py:{line}: imports {name}" for line, name in anywhere
            if name in (".corpus", ".trainer")]
    bad += [f"src/convtok/experiments.py:{line}: imports {name} at module level"
            for line, name in top if name in (".tokenizer", ".build")]
    bad += [f"src/convtok/experiments.py:{line}: imports {name} inside a function"
            for line, name in local if name == ".metrics"]
    tokenizer = [line for line, name in anywhere if name == ".tokenizer"]
    if len(tokenizer) > 1:
        bad.append(f"src/convtok/experiments.py: imports .tokenizer on lines {tokenizer}")
    assert not bad, "\n".join(bad)


def test_the_package_import_graph_is_acyclic():
    # every import of a package module, at module level or inside a
    # function, is an edge; a module may read __version__ from the package
    graph = {path.stem: {name[1:] for _, name in _package_imports(path, False)} - {"__version__"}
             for path in PACKAGE}
    while True:
        leaves = [module for module, imports in graph.items() if not imports & graph.keys()]
        if not leaves:
            break
        for module in leaves:
            del graph[module]
    assert not graph, "modules in or above an import cycle\n" + "\n".join(
        f"src/convtok/{module}.py imports {sorted(imports & graph.keys())}"
        for module, imports in graph.items())


def test_samples_draw_only_through_random_and_getrandbits():
    # Python promises to keep random()'s sequence for a seed, and
    # getrandbits is the generator's raw output, but not how choice,
    # randint, randrange or sample turn them into draws; so the sample
    # corpora's bytes rest on those two alone: samples.py picks through its
    # own _Draws helper and names no other random.Random method
    path = ROOT / "src" / "convtok" / "samples.py"
    methods = {name for name in dir(random.Random)
               if not name.startswith("_") and callable(getattr(random.Random, name))}
    allowed = {"random", "getrandbits"}
    tree = _tree(path)
    found = [f"src/convtok/samples.py:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in methods - allowed]
    found += [f"src/convtok/samples.py:{node.lineno}: from random import {alias.name}"
              for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and node.module == "random" for alias in node.names if alias.name != "Random"]
    assert not found, ("draw with random() and getrandbits only, through _Draws\n"
                       + "\n".join(found))
