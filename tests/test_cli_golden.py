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
    ("rho-k 5 2", "3f1b7f6c4a4a7890"),
    ("rho-k 5 3", "938beec2714d637e"),
    ("rho-k 2x4 2", "74e6c36dc2c8df58"),
    ("rho-k 2x4 3", "f621e2a068748276"),
    ("rho-k 3x3 2", "48fb36775fc5a719"),
    ("rho-k 3x3 3", "16d2d76277d5e5df"),
    ("rho-k 2x2x2x2 3", "a8721178f90a4cca"),
    ("rho-k 2x2x2x2 2", "132d92f02908a284"),
    ("system 3 --emit-witness", "97ec7b0694793afa"),
    ("system 3 --emit-witness --with-zero", "829f1da556330097"),
    ("system 2x2 --emit-witness", "6bdd2a3db3fc02eb"),
    ("system 2x2 --emit-witness --with-zero", "460a2d48b7cd6910"),
    ("system 4 --emit-witness", "120d2da97a068d70"),
    ("system 4 --emit-witness --with-zero", "df4ee6c11ee5807d"),
    ("system 2x2x2 --emit-witness", "1168781adb52b49d"),
    ("system 2x2x2 --emit-witness --with-zero", "a59cbdc8cb60d224"),
    ("system 3x3 --emit-witness", "cee23324a05b094a"),
    ("system 3x3 --emit-witness --with-zero", "a0f738960b96fdd6"),
    ("system 5 --emit-witness", "15635b8c0afb9063"),
    ("system 5 --emit-witness --with-zero", "616d4edbcae07d0e"),
    ("system 2x4 --emit-witness", "6b5bc1473ca24706"),
    ("system 2x4 --emit-witness --with-zero", "de49321d0da18588"),
    ("system 2x2x2x2 --max-len 10 --emit-witness", "b0f9a9b0cca6feeb"),
    ("delta-star 2x2x2", "826a3689c4d47465"),
    ("delta-star 3x3", "6e138b7e601692dc"),
    ("delta-star 5", "206badc1a0968d87"),
    ("delta-star 2x4", "34b87c3b63056f1a"),
    ("delta-star 2x2x2x2 --max-len 10", "8dd9de54cf2d8bb9"),
    ("delta-star 2x2x4 --max-len 8", "8592a224a091290d"),
    ("delta-star 4x4 --max-len 8", "0fc34c0d7246431a"),
    ("delta-star 2x8 --max-len 8", "48952e888339b222"),
    ("atoms 2x4 --classify --full", "d185331d5b09bd11"),
    ("compare 4 2x2x2", "1a03f5a4e28073db"),
    ("intersect 3 5 --max-value 30", "a78ce58d457c7a05"),
    ("family list", "a66e55a68ca9c469"),
    ("family witness T48:L3 --k 4 --y 2", "aedd79abbeaddfdf"),
    ("nm verify-gap 2,3", "58226317e4354def"),
    ("nm verify-56 2,3;2,3 --bound 60", "4e3a6a00ed68a7c5"),
    ("nm verify-57 2,3 --bound 60", "1b1679a9eaf04630"),
    ("nm lengths 3,4,5 30", "b9e5450a5381cb3f"),
    ("lengths 5 (1)^1000*(4)^1000", "86706cdc392f78f4"),
    (
        "lengths 2x2x2x2 (0,0,0,1)^6*(0,0,1,0)^6*(0,0,1,1)*(0,1,0,0)^6*(0,1,0,1)^2"
        "*(1,0,0,0)^6*(1,0,1,0)^2*(1,1,0,0)*(1,1,1,1)^5",
        "8dc511cccc59fc27",
    ),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_cli_output_digest(command, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split() + ["--json"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == digest
