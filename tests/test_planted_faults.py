"""Planted faults: each certificate path must fail, by its own check, when
the mathematics under it is broken.  Each case patches one function with one
named fault, runs a command, and asserts which check catches it."""

import io

from tropmod import divisors
from tropmod.cli import EXIT_CERTIFICATE, EXIT_OK, main


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def test_minor_of_determinant_two_is_not_smooth(monkeypatch):
    code, expected = run(["check", "smooth", "--n", "6"])
    assert code == EXIT_OK
    minor_determinant = divisors._minor_determinant
    calls = []

    def planted(*args):
        # the minor at the 40th codimension-1 type has determinant 2
        calls.append(args)
        return 2 if len(calls) == 40 else minor_determinant(*args)

    monkeypatch.setattr(divisors, "_minor_determinant", planted)
    code, out = run(["check", "smooth", "--n", "6"])
    assert code == EXIT_CERTIFICATE
    lines = expected.splitlines()
    lines[39] = lines[39].replace(", smooth", ", NOT SMOOTH")
    lines[-1] = "CERTIFICATE FAILED"
    assert lines[39].endswith(": 3 adjacent, balanced, NOT SMOOTH")
    assert out.splitlines() == lines
