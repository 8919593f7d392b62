"""Golden reports: stdout pinned byte for byte across commits.

Each row is argv -> (exit code, byte length, SHA-256 of stdout).  The
determinism tests compare two runs of one build; these compare a build
against the digests recorded when the row was added, so a refactor that
changes a single byte of any report, or an exit code, fails here.

The rows cover every command, every format, degrees 2, 3 and 10, a scan
whose violations carry `remainder_bound` enclosures (ten of them, at
m = 7) in all three formats, and the precision-cap exit for both
`expand` and `scan`.  Three `verify` rows reach deep indices, where the
enclosures are printed at hundreds of bits: 120 terms of cbrt(2) in
json, 40 terms of 50^(1/10) in csv, and 12 terms of 11^(1/7) in text,
which includes a `remainder_bound` violation enclosure.  Two rows pin
the edges of the floor formula: the `predict` grid has rows with
`eps = 1` and rows with `floor(A_n) <= 0`, and `verify` of 50^(1/4)
prints `floor(A)=0 eps=1` at n = 2 and `formula_held=False` at n = 1.
Two text rows cover several radicands in one report: `verify` over
k = 7..9 (two results around the skipped cube 8, one with a
`below_window` claim failure) and `predict` over k = 7..9, m = 3..4.
The capped `expand` writes nothing; the capped `scan` writes its cells,
the capped ones as skipped rows, before it exits 3.
"""
import hashlib

import pytest

from rootcf.cli import main

EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()

GOLDEN = [
    ("expand --k 2 --m 3 --terms 12", 0, 766,
     "8e4907bdb7af6dd2c87c5d8fbaf04aa25fda28ee0e4491d659109df8abb36f4d"),
    ("expand --k 50 --m 10 --terms 20 --format json", 0, 3557,
     "ba39e75219dc996d905252cbb6f2345b072ba2c8e1d18cc257ad59cf2975e6d7"),
    ("expand --k 7 --m 2 --terms 10 --format csv", 0, 762,
     "6057eac417c309393cc6ca7ef40251f5cca11c80224662d333cff99e235d9ba5"),
    ("predict --k 3 --m 3 --terms 10 --format json", 0, 5928,
     "b0d6a4f181c4de9b48f10afd5ba242054b37aee0623ff438eb6d92cbdc894729"),
    ("predict --k 50 --m 10 --terms 6", 0, 1244,
     "88e6c2970b0a76834a29ba26b0e509b768f7d4a3a038cc9e876c7e203a6a49c8"),
    ("predict --k 7 --m 2 --terms 8 --format csv", 0, 764,
     "8be997f18e59935e7004fe990c1b0e0e9bdc6a2d2d06d6d4be5875626a18744a"),
    ("verify --k 50 --m 10 --terms 3 --format json", 0, 9937,
     "cff57a87dd2049047d52f65181ec586546a9a0953e84810d7f834dc71342e386"),
    ("verify --k-range 2..5 --m 3 --terms 8 --format csv", 0, 6796,
     "6e8367051b3b171451d05ed4e5bad399e6c1b3969b429efe59f8dfe6dd095251"),
    ("verify --k 2 --m 3 --terms 10", 0, 4036,
     "c94bd756430ceaf9773c349497ccc5e2bfedfb7ed2912188ef0fc02e50a5c49a"),
    ("verify --k 3 --m 2 --terms 6 --format json", 0, 11243,
     "550eb698b9a34bfc31a4475ab16488fad0ce4949a3805886d76146800421debf"),
    ("verify --k 2 --m 3 --terms 120 --format json", 0, 476228,
     "ee803820dc48f2f8a8da110088e9b92ee1321b52e812198b7b0405540de47981"),
    ("verify --k 50 --m 10 --terms 40 --format csv", 0, 34595,
     "8d5b64600482527d065b960b65847ee6fd6e4eafd510bbeb16a5fe82b34cb7f6"),
    ("verify --k 11 --m 7 --terms 12 --format text", 0, 5533,
     "0423f032b231616bfb530e2eab44c2135b8c30d9e45c065e176ae430909b153f"),
    ("predict --k-range 2..30 --m-range 3..6 --terms 8 --format csv", 0, 74679,
     "c26204756914c9e37b89ae6642980537b03905ca8a9ae3bfa461699f78d69aa4"),
    ("verify --k 50 --m 4 --terms 6 --format text", 0, 2818,
     "9edfcbce1fa97b5c4503b5b0892ce0b8e9a5f18daef7affd010fa17fe3213a7f"),
    ("verify --k-range 7..9 --m 3 --terms 3 --format text", 0, 3378,
     "cd4c9876b508f0492e17d8788366e9ae59537cdd4dd9817c24097cced9097963"),
    ("predict --k-range 7..9 --m-range 3..4 --terms 4 --format text", 0, 2127,
     "10a006e40100f6b9217f24387c4e4b18bb9bc156a32a04e520f06c060cc74c4a"),
    ("scan --m-range 2..7 --k-range 2..25 --terms 10 --format json", 0, 34916,
     "a465af4af7a15c77b1ef085e11d8ec5fdb2490f2f5d768f237c1c896d8f82820"),
    ("scan --m 3 --k-range 2..20 --terms 12 --format csv", 0, 1041,
     "8cd6208a46a4d5c7fcf48386672be2cecac263f0efbacbd23ad5189303d7fc13"),
    ("scan --m 10 --k-range 2..12 --terms 5", 0, 1040,
     "c8ff37d2168d8520156d63714037871e24b0c9951ef5bdee1207a58431a61c7d"),
    ("scan --m 7 --k-range 2..25 --terms 10 --format csv", 0, 2355,
     "41032940a8cc98d4c8938a6a450a06139f558e1eb12a885a845785e69d609bf0"),
    ("scan --m 7 --k-range 2..25 --terms 10 --format text", 0, 3109,
     "c02307a5aa1e26ec6f0f9ad296cfb455d9a7f305addf9c0da4e88c0b65b01ea9"),
    ("expand --k 2 --m 3 --terms 60 --precision-cap 64", 3, 0, EMPTY_SHA256),
    ("scan --m 3 --k-range 2..6 --terms 50 --precision-cap 64 --format csv", 3, 671,
     "f20547dbaadba9ee81480ad30b95317ab80676e29a80258f15ed9bb7cc969c6f"),
]


@pytest.mark.parametrize("argv, code, length, sha256", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_golden_report(capsys, argv, code, length, sha256):
    assert main(argv.split()) == code
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (length, sha256)
