import hahnroot
from hahnroot import cli


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
