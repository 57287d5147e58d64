"""The README's Library API example runs against the package as it is."""

import io
import re
from pathlib import Path

from memsched import Policy
from memsched.fixtures import fixture_text

README = Path(__file__).resolve().parents[1] / "README.md"

# the example's file names -> the bundled fixtures they stand for
FILES = {
    "dsp.lib.json": "dsp.lib.json",
    "kernel.dfg.json": "fir16.dfg.json",
    "kernel.map.json": "fir16.map.json",
}


def library_api_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_api_example_runs():
    namespace = {"open": lambda name: io.StringIO(fixture_text(FILES[name]))}
    exec(compile(library_api_example(), "README.md", "exec"), namespace)
    assert namespace["schedule"].policy is Policy.MEMORY_AWARE
    assert namespace["metrics"].total_conflicts == 0
