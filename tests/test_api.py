import contextlib
import importlib
import io
import math
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import adstv
from adstv import Image, psnr

README = Path(__file__).resolve().parent.parent / "README.md"


def api_example():
    """The fenced python block of the README's API section."""
    section = README.read_text().split("\n## API\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_api_example_runs():
    scope = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(api_example(), str(README), "exec"), scope)
    clean, g, out = scope["clean"], scope["g"], scope["out"]
    assert clean.shape == out.shape == (1, 64, 64)
    assert psnr(clean, out) > psnr(clean, Image(np.clip(g.data, 0.0, 1.0))) + 1.0
    values = [float(v) for v in printed.getvalue().split()]
    assert len(values) == 2 and all(math.isfinite(v) for v in values)


def test_every_exported_name_resolves():
    modules = [adstv] + [importlib.import_module("adstv." + m.name)
                         for m in pkgutil.iter_modules(adstv.__path__)]
    assert len(modules) > 1
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def modules_the_cli_loads(package):
    """The modules of package that a fresh interpreter has loaded after
    importing adstv.cli, sorted."""
    src = str(Path(adstv.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, %r); import adstv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == %r))" % (src, package))
    run = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, timeout=120)
    return run.stdout.strip()


def test_importing_the_cli_loads_no_scipy():
    # scipy is a test dependency only: the runtime smooths with numpy
    assert modules_the_cli_loads("scipy") == "[]"


def test_importing_the_cli_loads_no_multiprocessing():
    # only a bench run with more than one job starts a process pool
    assert modules_the_cli_loads("multiprocessing") == "[]"


def test_the_module_entry_point_runs_in_a_fresh_interpreter():
    src = Path(adstv.__file__).resolve().parent.parent
    run = subprocess.run([sys.executable, "-m", "adstv.cli", "--help"], cwd=src,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stdout.startswith("usage: adstv"), run.stderr
