"""Golden digests of quick CLI commands.

Each row runs ``main(argv + ["--json"])``, expects exit 0 and compares the
first 16 hex digits of the sha256 of the printed output with the value
recorded when the row was added.  A refactor must leave every row passing; a
deliberate output change updates its digest here and says so in CHANGES.md.
No row sweeps C2^4 at bound 12, so the whole file runs in a few seconds.
"""

import contextlib
import hashlib
import io

import pytest

from zerolen.cli import main

GOLDEN = [
    ("rho-k 5 2", "a7abb92cfb47fd37"),
    ("rho-k 5 3", "50db8825d9673c68"),
    ("rho-k 2x4 2", "850ad5cd35db9fd6"),
    ("rho-k 2x4 3", "a847c3056b6bff26"),
    ("rho-k 3x3 2", "fcd902fdc65983b8"),
    ("rho-k 3x3 3", "e268144b276f5f17"),
    ("rho-k 2x2x2x2 3", "a8721178f90a4cca"),
    ("rho-k 2x2x2x2 2", "132d92f02908a284"),
    ("system 3 --emit-witness", "97ec7b0694793afa"),
    ("system 3 --emit-witness --with-zero", "829f1da556330097"),
    ("system 2x2 --emit-witness", "6bdd2a3db3fc02eb"),
    ("system 2x2 --emit-witness --with-zero", "460a2d48b7cd6910"),
    ("system 4 --emit-witness", "1fdde77f188b8c0c"),
    ("system 4 --emit-witness --with-zero", "df4ee6c11ee5807d"),
    ("system 2x2x2 --emit-witness", "b3921f4d78a7b0ba"),
    ("system 2x2x2 --emit-witness --with-zero", "3d89cb1231f416b8"),
    ("system 3x3 --emit-witness", "a268ef3520a27772"),
    ("system 3x3 --emit-witness --with-zero", "b137b6e913a0683e"),
    ("system 5 --emit-witness", "cac799967ffeb2d0"),
    ("system 5 --emit-witness --with-zero", "5507edba448075b3"),
    ("system 2x4 --emit-witness", "38dfb944ea9cc4cd"),
    ("system 2x4 --emit-witness --with-zero", "8e37c11ac68c5a38"),
    ("system 2x2x2x2 --max-len 10 --emit-witness", "b0f9a9b0cca6feeb"),
    ("compare 4 2x2x2", "1a03f5a4e28073db"),
    ("intersect 3 5 --max-value 30", "a78ce58d457c7a05"),
    ("family list", "a66e55a68ca9c469"),
    ("family witness T48:L3 --k 4 --y 2", "aedd79abbeaddfdf"),
    ("nm verify-gap 2,3", "58226317e4354def"),
    ("nm verify-56 2,3;2,3 --bound 60", "4e3a6a00ed68a7c5"),
    ("nm verify-57 2,3 --bound 60", "1b1679a9eaf04630"),
    ("nm lengths 3,4,5 30", "b9e5450a5381cb3f"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_cli_output_digest(command, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split() + ["--json"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == digest
