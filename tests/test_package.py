import subprocess
import sys

import pytest

import hahnroot
from hahnroot import cli
from test_cli import _src_env


def test_every_exported_name_resolves():
    for name in hahnroot.__all__:
        assert getattr(hahnroot, name) is not None, name


def test_cli_names_load_lazily_from_the_cli_module():
    # the package's __getattr__ serves these four, so that importing the
    # package does not import hahnroot.cli
    for name in ("Command", "parse_polynomial", "poly_text", "run"):
        assert name in hahnroot.__all__
        assert name not in vars(hahnroot)
        assert getattr(hahnroot, name) is getattr(cli, name)


def test_every_exported_name_is_its_home_modules_object():
    # the lazy package hands out the object its defining module holds
    for name in hahnroot.__all__:
        obj = getattr(hahnroot, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert obj.__module__.startswith("hahnroot."), name
        assert name in dir(hahnroot), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        hahnroot.no_such_name


def _loaded(args: list[str]) -> set[str]:
    """The modules a fresh interpreter imports while it runs args, read off
    its -X importtime report; the run must succeed."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


# the package and the modules every verb needs to parse and print f; -m runs
# the cli module as __main__, so hahnroot.cli itself is not imported
_BASE = {"hahnroot", "hahnroot.ffield", "hahnroot.intpoly", "hahnroot.ratfun",
         "hahnroot.hahn", "hahnroot.hasse"}


@pytest.mark.parametrize("verb, extra", [
    ("roots", {"hahnroot.expand"}),
    ("addpol", {"hahnroot.ore"}),
    ("bounds", {"hahnroot.ore", "hahnroot.envelope"}),
])
def test_a_cli_process_loads_only_its_verbs_modules(verb, extra):
    loaded = _loaded(["-m", "hahnroot.cli", verb, "--p", "2", "--poly", "X^2+X+t",
                      "--format", "json"])
    assert {m for m in loaded if m.startswith("hahnroot")} == _BASE | extra
    assert "dataclasses" not in loaded


def test_importing_the_package_loads_no_submodule():
    loaded = _loaded(["-c", "import hahnroot"])
    assert {m for m in loaded if m.startswith("hahnroot")} == {"hahnroot"}
