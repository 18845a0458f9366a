"""A call imports only what its command runs.

`import unicusp` loads no submodule, and `unicusp.cli` binds a command's
package names only when that command runs, so a `check` never loads the
enumeration, family, ring or germ code, nor `dataclasses`, and a `germ`
never loads the obstruction or semigroup code.  Each case runs in a fresh
interpreter, since a module once imported stays in `sys.modules`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHECK_SKIPS = {"unicusp.germs", "unicusp.classify", "unicusp.families", "unicusp.quadring",
               "dataclasses"}
GERM_SKIPS = {"unicusp.obstruction", "unicusp.semigroup", "unicusp.classify"}


def _fresh(code: str) -> list[str]:
    """What a fresh interpreter prints after running code, with the
    package's source tree on its path, split at whitespace."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_loads_no_submodule():
    loaded = _fresh("import sys, unicusp; print(*sys.modules)")
    assert "unicusp" in loaded
    assert not [m for m in loaded if m.startswith("unicusp.")]


@pytest.mark.parametrize("argv, skipped", [
    (["check", "--genus", "12", "-a", "10", "-b", "13", "-d", "13"], CHECK_SKIPS),
    (["check", "--genus", "1", "-a", "2", "-b", "5"], CHECK_SKIPS),
    (["check", "--genus", "3", "--pairs", "2,3;2,5"], CHECK_SKIPS),
    (["germ", "--node", "5", "--order", "18"], GERM_SKIPS),
    (["germ", "--flex", "10"], GERM_SKIPS),
    # every other command runs on the names it binds alone
    (["semigroup", "-a", "3", "-b", "5"], {"unicusp.classify", "unicusp.germs"}),
    (["enumerate", "--genus", "1", "--dmax", "12"], {"unicusp.germs"}),
    (["pell", "--genus", "3", "--orbit", "0:1"], {"unicusp.germs", "unicusp.classify"}),
    (["families", "--k", "3", "--i", "4"], {"unicusp.germs", "unicusp.classify"}),
    (["sectors", "--genus", "1", "--lmax", "4"], {"unicusp.germs"}),
    (["identities", "--lmax", "5"], {"unicusp.germs", "unicusp.classify"}),
])
def test_command_loads_only_its_modules(argv, skipped):
    code, *loaded = _fresh(
        "import io, sys, unicusp.cli\n"
        "sys.stdout = io.StringIO()\n"
        f"code = unicusp.cli.run({argv!r})\n"
        "sys.stdout = sys.__stdout__\n"
        "print(code, *sys.modules)")
    assert code == "0"
    assert not skipped & set(loaded), skipped & set(loaded)


def test_names_resolve_to_their_modules():
    out = _fresh(
        "import unicusp, unicusp.obstruction\n"
        "print(unicusp.check_single is unicusp.obstruction.check_single,\n"
        "      set(unicusp.__all__) <= set(dir(unicusp)))\n"
        "names = {}\n"
        "exec('from unicusp import *', names)\n"
        "print(set(unicusp.__all__) <= names.keys(),\n"
        "      all(names[n] is getattr(unicusp, n) for n in unicusp.__all__))")
    assert out == ["True"] * 4


def test_gap_function_is_immutable():
    from unicusp import GapFunction

    f = GapFunction((0, 2))
    with pytest.raises(AttributeError):
        f.starts = (0,)
    with pytest.raises(AttributeError):
        del f.starts
    with pytest.raises(AttributeError):
        f.other = 1
    assert f.starts == (0, 2)
