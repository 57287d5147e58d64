"""The README is the package's API: its Library API example runs against the
package as it is, it names every export, it calls only what exists, and its
type table names only exports."""

import builtins
import io
import re
import types
from pathlib import Path

import memsched
from memsched import (
    PortBooking,
    Policy,
    Schedule,
    ScheduleEntry,
    SchedulerConfig,
    parse_dfg,
    parse_library,
    parse_mapping,
    validate_mapping,
)
from memsched.cli import main
from memsched.fixtures import fixture_path, fixture_text

README = Path(__file__).resolve().parents[1] / "README.md"

# the example's file names -> the bundled fixtures they stand for
FILES = {
    "dsp.lib.json": "dsp.lib.json",
    "kernel.dfg.json": "fir16.dfg.json",
    "kernel.map.json": "fir16.map.json",
}

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# the timing notation's functions, which name no Python code
NOTATION = {"prod", "read", "read_latency", "write_latency"}


def library_api_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def format_example(heading: str) -> str:
    """The first JSON block under the File formats heading ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n### {heading} (", 1)[1]
    return re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)


def exported_names() -> set[str]:
    """The package's public names: no dunders, no submodules."""
    return {
        name for name, value in vars(memsched).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }


def readme_code() -> str:
    """Every code block and inline code span of the README."""
    code = re.findall(r"```.*?```|`[^`\n]+`", README.read_text(encoding="utf-8"), re.DOTALL)
    return "\n".join(code)


def readme_code_names() -> set[str]:
    """Every identifier the README writes as code."""
    return set(IDENTIFIER.findall(readme_code()))


def type_table_names() -> list[str]:
    """The first cell of every row of the README's type table."""
    section = README.read_text(encoding="utf-8").split("\n### Types\n", 1)[1]
    section = section.split("\n#", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE)


def test_library_api_example_runs():
    namespace = {"open": lambda name: io.StringIO(fixture_text(FILES[name]))}
    exec(compile(library_api_example(), "README.md", "exec"), namespace)
    assert namespace["schedule"].policy is Policy.MEMORY_AWARE
    assert namespace["metrics"].total_conflicts == 0


def test_readme_names_every_export():
    missing = sorted(exported_names() - readme_code_names())
    assert not missing, f"exported but not in README: {', '.join(missing)}"


def test_readme_calls_only_what_exists():
    called = set(re.findall(IDENTIFIER.pattern + r"(?=\()", readme_code()))
    known = exported_names() | set(dir(builtins)) | NOTATION
    for name in exported_names():
        value = getattr(memsched, name)
        if isinstance(value, type):
            known.update(dir(value))
    unknown = sorted(called - known)
    assert not unknown, f"README calls what does not exist: {', '.join(unknown)}"


def test_type_table_lists_every_error_and_only_exports():
    names = type_table_names()
    assert len(names) == len(set(names)) > 0
    unknown = sorted(set(names) - exported_names())
    assert not unknown, f"README type table names non-exports: {', '.join(unknown)}"
    errors = {
        name for name in exported_names()
        if isinstance(getattr(memsched, name), type)
        and issubclass(getattr(memsched, name), memsched.SchedulingError)
    }
    assert errors - set(names) == set()


def test_schedule_json_section_shows_the_written_bytes(tmp_path):
    section = README.read_text(encoding="utf-8").split("\n### Schedule (", 1)[1]
    section = section.split("\n#", 1)[0]
    document, entry = re.findall(r"```json\n(.*?)```", section, re.DOTALL)
    files = {kind: str(fixture_path(f"two_adds_one_bank.{kind}.json")) for kind in ("dfg", "map")}
    assert main(["schedule", "--dfg", files["dfg"], "--library", str(fixture_path("dsp.lib.json")),
                 "--mapping", files["map"], "--policy", "mem-aware", "--T", "4",
                 "--alloc", "alu=2", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "schedule.json").read_text(encoding="utf-8") == document
    store = ScheduleEntry("s", 0, 1, "alu", 0, (), PortBooking("M0", 0, 1, 2))
    assert entry in Schedule({"s": store}, SchedulerConfig(2)).to_json()
    assert '"entries": []\n}\n' in Schedule({}, SchedulerConfig(2)).to_json()


def test_format_examples_are_one_valid_set_of_documents():
    # each holds only the keys its parser knows, so a retired key fails here
    library = parse_library(format_example("Operator library"))
    g = parse_dfg(format_example("Data-flow graph"), library)
    assert validate_mapping(parse_mapping(format_example("Memory mapping")), g) == []
    assert [op.id for op in g.operations] == ["m0", "a1"]
