"""The README's "Library tour" runs as a doctest, so the public surface it
shows and the values it prints stay true."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour():
    tour = README.read_text().split("## Library tour", 1)[1]
    # only the fenced block: doctest would read the closing fence as output
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    parser = doctest.DocTestParser()
    test = parser.get_doctest(block, {}, "library tour", str(README), 0)
    report: list[str] = []
    failed, attempted = doctest.DocTestRunner().run(test, out=report.append)
    assert attempted and not failed, "".join(report)
