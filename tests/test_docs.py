"""Documentation guarantees: doctests can't rot, links and names can't
dangle.

Three parts:

* the public façade's docstring examples (``CoreService``,
  ``Transaction``, ``Batch``, ``make_engine``) run
  as doctests — the same modules CI also runs under
  ``pytest --doctest-modules``;
* every relative markdown link in README.md, ROADMAP.md and docs/ must
  point at a file that exists, and README must link the documentation
  suite;
* every backticked ``repro.…`` dotted name in README.md and docs/ must
  import, or resolve by ``getattr`` from the longest importable module
  prefix.  ROADMAP.md is left out: it names planned modules.
"""

import doctest
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: The public-façade modules whose examples are part of the contract.
FACADE_MODULES = (
    "repro.engine.batch",
    "repro.engine.registry",
    "repro.service.session",
    "repro.service.transactions",
)

#: Markdown files whose links are checked.
DOCUMENTS = (
    "README.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
    "docs/ALGORITHMS.md",
    "docs/BENCHMARKS.md",
)

_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

#: Documents whose ``repro.…`` names must resolve (not ROADMAP.md).
NAMED_DOCUMENTS = ("README.md",) + tuple(
    f"docs/{path.name}" for path in sorted((REPO / "docs").glob("*.md"))
)

_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"\brepro(?:\.\w+)+")


def _resolves(dotted):
    """Whether ``dotted`` names a module, or an attribute path under the
    longest prefix of it that imports."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("module_name", FACADE_MODULES)
def test_facade_doctests_pass(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{module_name}: {result.failed} doctest(s) failed"
    assert result.attempted > 0, f"{module_name} has no doctest examples"


@pytest.mark.parametrize("document", DOCUMENTS)
def test_markdown_links_resolve(document):
    path = REPO / document
    assert path.is_file(), f"{document} is missing"
    dangling = []
    for target in _LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            dangling.append(target)
    assert not dangling, f"{document} has dangling links: {dangling}"


def test_readme_links_the_docs_suite():
    readme = (REPO / "README.md").read_text()
    for target in (
        "docs/ARCHITECTURE.md",
        "docs/ALGORITHMS.md",
        "docs/BENCHMARKS.md",
    ):
        assert target in readme, f"README does not link {target}"


@pytest.mark.parametrize("document", NAMED_DOCUMENTS)
def test_backticked_repro_names_resolve(document):
    text = (REPO / document).read_text()
    names = {
        name
        for span in _CODE_SPAN.findall(text)
        for name in _DOTTED.findall(span)
    }
    missing = sorted(name for name in names if not _resolves(name))
    assert not missing, f"{document} names what does not exist: {missing}"
