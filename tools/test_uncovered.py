"""The unexecuted-statement lister names a raise until a test reaches it."""

import os

import pytest

import uncovered

GUARDED = '''def check(x):
    """x, if it is not negative."""
    if x < 0:
        raise ValueError(
            "negative")
    try:
        return int(x)
    except TypeError:
        return None
'''


def test_a_raise_is_listed_until_a_test_reaches_it(tmp_path, capsys):
    source, tests = tmp_path / "pkg", tmp_path / "tests"
    source.mkdir()
    tests.mkdir()
    (source / "guarded.py").write_text(GUARDED)
    (tests / "test_positive.py").write_text(
        "import guarded\n\ndef test_positive():\n    assert guarded.check(2) == 2\n")
    argv = ["-q", "-p", "no:cacheprovider", "--import-mode=importlib",
            "-o", f"pythonpath={source}", str(tests)]
    path = os.path.relpath(source / "guarded.py")

    assert uncovered.main(argv, source=source) == 1
    out = capsys.readouterr().out.splitlines()
    assert "1 passed" in "\n".join(out)
    assert out[-4:] == [f"{path}:4: raise ValueError(", f"{path}:8: except TypeError:",
                        f"{path}:9: return None", "3 unexecuted statements, 1 of them raise"]

    (tests / "test_negative.py").write_text(
        "import pytest, guarded\n\ndef test_negative():\n"
        "    with pytest.raises(ValueError):\n        guarded.check(-1)\n")
    assert uncovered.main(argv, source=source) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == [f"{path}:8: except TypeError:", f"{path}:9: return None",
                        "2 unexecuted statements, 0 of them raise"]

    # with no raise listed, a failing test still fails the run
    (tests / "test_wrong.py").write_text(
        "import guarded\n\ndef test_wrong():\n    assert guarded.check(3) == 2\n")
    assert uncovered.main(argv, source=source) == pytest.ExitCode.TESTS_FAILED
    assert capsys.readouterr().out.splitlines()[-1] == "2 unexecuted statements, 0 of them raise"


def test_a_lost_tracer_names_the_first_test_after_which_it_was_gone(tmp_path, capsys):
    """A recursion to the interpreter's limit unsets the trace function: the
    run then names that test, lists nothing and exits 1, though every test
    passed."""
    source, tests = tmp_path / "pkg", tmp_path / "tests"
    source.mkdir()
    tests.mkdir()
    (source / "guarded.py").write_text(GUARDED)
    (tests / "test_deep.py").write_text(
        "import pytest\n\ndef test_deep():\n    def f():\n        return f()\n\n"
        "    with pytest.raises(RecursionError):\n        f()\n")
    (tests / "test_later.py").write_text(
        "import pytest, guarded\n\ndef test_later():\n    with pytest.raises(ValueError):\n"
        "        guarded.check(-1)\n")
    argv = ["-q", "-p", "no:cacheprovider", "--import-mode=importlib",
            "-o", f"pythonpath={source}", str(tests)]

    assert uncovered.main(argv, source=source) == 1
    out = capsys.readouterr().out.splitlines()
    assert "2 passed" in "\n".join(out)
    assert out[-1].startswith("the line tracer was gone after ")
    assert out[-1].endswith("test_deep.py::test_deep; no statement is listed")
