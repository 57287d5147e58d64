"""The line collector of ``tools/line_coverage.py`` on a small module with
one function that nothing calls: it reports that function's body and the
``__main__`` guard's, and marks only the guard's as excused."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("line_coverage", ROOT / "tools" / "line_coverage.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

MODULE = '''\
def called(x):
    if x:
        return x + 1
    return 0


def uncalled(x):
    y = x * 2
    return y


if __name__ == "__main__":
    print(called(1))
'''


def test_collector_reports_the_uncalled_function_and_the_guard(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(MODULE, encoding="utf-8")

    def run():
        spec = importlib.util.spec_from_file_location("pkg_mod", package / "mod.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.called(1) == 2 and module.called(0) == 0

    before = sys.gettrace()
    _, ran = tool.collect(package, run)
    assert sys.gettrace() is before
    missed = [(path.name, line, guarded) for path, line, guarded in tool.missed_lines(package, ran)]
    assert missed == [("mod.py", 8, False), ("mod.py", 9, False), ("mod.py", 13, True)]
