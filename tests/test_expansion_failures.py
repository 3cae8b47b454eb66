"""verify_expansions on closed-form tables with one entry raised by 1.

Each case pins, literally, the sorted (identity, n) pairs that fail at
N = 30 and the sha256 of the report's JSON, witnesses included, so the
failure path of every displayed expansion is held byte for byte.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from dortho import (
    RecurrenceTable,
    case1_coeffs,
    case1_operator,
    corollary42_coeffs,
    corollary42_operator,
    generate,
    verify_expansions,
)

N = 30
CASE1 = case1_operator(1, 0, 1, -2, -6)
FAMILIES = {
    "corollary42": (corollary42_operator(1), corollary42_coeffs(N + 5)),
    "case1": (CASE1, case1_coeffs(CASE1, N + 5)),
}

# (family, table, index raised by 1, failing n per identity, report sha256)
CASES = [
    (
        "corollary42", "gamma", 5,
        {
            "corollary-first-order": [
                6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "corollary-second-order": [
                6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift1-expansion": [
                6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift2-expansion": [
                5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift3-expansion": [2, 3, 4, 5, 6, 7],
        },
        "d41377539c003e7841b1bcccfecfd5d8025188510fb36c3ca26a3a6c21740d7c",
    ),
    (
        "corollary42", "alpha", 8,
        {
            "corollary-first-order": [
                8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
                22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "corollary-second-order": [
                8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
                22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift1-expansion": [
                8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
                22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift2-expansion": [
                7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift3-expansion": [4, 5, 6, 7, 8, 9, 10],
        },
        "023f39b0a0c247472577770720b7d34cc64688e06e14ebe10f2b12e9b12db012",
    ),
    (
        "corollary42", "beta", 2,
        {
            "corollary-first-order": [
                2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "corollary-second-order": [
                2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift1-expansion": [
                2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift2-expansion": [
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift3-expansion": [0, 1, 2, 3, 4],
        },
        "2b42bcc53e672ed9443d1fd17f37a7ccca53d39bd7448b6dc9dc93f5cb51ce53",
    ),
    (
        "corollary42", "beta", 1,
        {
            "corollary-first-order": [
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "corollary-second-order": [
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift1-expansion": [
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift2-expansion": [
                0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28,
                29, 30
            ],
            "shift3-expansion": [0, 1, 2, 3],
        },
        "4157d5e488bb81f4aebac0fa9816beb2266a48847c84373ab5c4eb67552f225d",
    ),
    (
        "corollary42", "gamma", 1,
        {
            "corollary-first-order": [
                2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "corollary-second-order": [
                2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift1-expansion": [
                2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift2-expansion": [
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift3-expansion": [0, 1, 2],
        },
        "22afb716ef7a6f1368127d9c23ae64ab29c09fb4b7cdddf133e6bb2aeb01814e",
    ),
    (
        "case1", "gamma", 5,
        {
            "case1-appell-derivative": [
                7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "case1-second-order": [
                6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift1-expansion": [
                6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift2-expansion": [
                5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift3-expansion": [2, 3, 4, 5, 6, 7],
        },
        "ef57c4a881e1e383039ada53530d12659b0a95daa3eb704f1a171eba1ee269e9",
    ),
    (
        "case1", "alpha", 8,
        {
            "case1-appell-derivative": [
                9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
                23, 24, 25, 26, 27, 28, 29, 30
            ],
            "case1-second-order": [
                8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
                22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift1-expansion": [
                8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
                22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift2-expansion": [
                7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift3-expansion": [4, 5, 6, 7, 8, 9, 10],
        },
        "c3c9ef41012aca7d113f0dff5566d0520dae3b9feda460653d1087bce39a3a3b",
    ),
    (
        "case1", "beta", 2,
        {
            "case1-appell-derivative": [
                3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
                18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "case1-second-order": [
                2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift1-expansion": [
                2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift2-expansion": [
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift3-expansion": [0, 1, 2, 3, 4],
        },
        "4e640384059ba7f21d6be6b8c9b0846bf8246741f2235d8cdc6b76dc8bf0e539",
    ),
    (
        "case1", "beta", 1,
        {
            "case1-appell-derivative": [
                2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "case1-second-order": [
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift1-expansion": [
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift2-expansion": [
                0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28,
                29, 30
            ],
            "shift3-expansion": [0, 1, 2, 3],
        },
        "a2574be4bdb45a661e04506ec5760d6af4e20dabd52d74a4b9286bea0d668b89",
    ),
    (
        "case1", "gamma", 1,
        {
            "case1-appell-derivative": [
                4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
                19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "case1-second-order": [
                2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
                18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift1-expansion": [
                2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
                18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift2-expansion": [
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
            ],
            "shift3-expansion": [0, 1, 2, 3],
        },
        "7d203b58736de9143280a6fb809961b5125507ed38d80302387813acb6d5aaf8",
    ),

]


def raised(rt: RecurrenceTable, key: str, i: int) -> RecurrenceTable:
    """rt with beta_i, alpha_i or gamma_i raised by 1."""
    data = rt.to_json()
    pos = i if key == "beta" else i - 1
    data[key][pos] = str(Fraction(data[key][pos]) + 1)
    return RecurrenceTable.from_json(data)


@pytest.mark.parametrize(
    "family, key, i, failing, digest", CASES, ids=[f"{c[0]}-{c[1]}{c[2]}" for c in CASES]
)
def test_mutated_table_report(family, key, i, failing, digest):
    J, rt = FAMILIES[family]
    report = verify_expansions(J, generate(raised(rt, key, i), N + 5), N)
    expected = sorted((name, n) for name, ns in failing.items() for n in ns)
    failures = [e for e in report.entries if e["status"] == "fail"]
    assert sorted((e["identity"], e["n"]) for e in failures) == expected
    text = json.dumps(report.to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
