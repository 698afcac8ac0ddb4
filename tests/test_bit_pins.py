"""Bit-exact pins of float outputs that otherwise are only compared as
%.12g text or within a tolerance.

Reordering the sum in `A2_closed` or regrouping the float products in
`coeff_a` changes some of these hex strings, so such a change shows here.
"""

from hurwitzbias.bias import A2_closed
from hurwitzbias.eisenstein import build_expansion, main_term

A2_HEX = {
    (1, 3): "-0x1.0000000000000p-3",
    (5, 5): "0x1.0000000000000p-2",
    (2, 15): "-0x1.c000000000000p-5",
    (7, 30): "-0x1.2aaaaaaaaaaaap-6",
    (1, 119): "-0x1.eaaaaaaaaaaabp-10",
}

MAIN_TERM_HEX = {
    4: [
        "0x1.5555555555555p-2", "0x1.0000000000000p+1", "0x1.5555555555555p+0",
        "0x1.0000000000000p+2", "0x1.0000000000000p+1", "0x1.0000000000000p+3",
        "0x1.5555555555555p+1", "0x1.0000000000000p+3", "0x1.1555555555555p+2",
        "0x1.8000000000000p+3", "0x1.0000000000000p+2", "0x1.0000000000000p+4",
    ],
    7: [
        "0x1.5555555555555p-2", "0x1.c000000000000p-1", "0x1.0000000000000p+0",
        "0x1.c000000000000p+0", "0x1.fffffffffffffp+0", "0x1.7fffffffffffdp+1",
        "0x1.2aaaaaaaaaaabp+1", "0x1.4000000000000p+2", "0x1.e555555555556p+1",
        "0x1.2000000000001p+2", "0x1.8000000000001p+1", "0x1.2aaaaaaaaaaaap+3",
    ],
}

# (conductor, d, real hex, imag hex) of every term, in expansion order.
# (3, 8) has only the trivial character; (1, 7) and (5, 12) add terms of
# conductor 7 and 3 whose coefficients go through every per-character factor.
EXPANSION_HEX = {
    (3, 8): [
        (1, 1, "0x1.0000000000000p-1", "0x0.0p+0"),
        (1, 2, "0x1.8000000000000p+0", "0x0.0p+0"),
        (1, 4, "-0x1.0000000000000p+1", "0x0.0p+0"),
    ],
    (1, 7): [
        (1, 1, "0x1.f3cf3cf3cf3cfp-1", "0x0.0p+0"),
        (1, 7, "0x1.8618618618618p-3", "0x0.0p+0"),
        (1, 49, "-0x1.2aaaaaaaaaaaap+0", "0x0.0p+0"),
        (7, 1, "0x1.e79e79e79e7a4p-5", "0x1.51d5174128384p-6"),
        (7, 1, "0x1.8618618618621p-7", "0x1.fabfa2e1bc552p-5"),
        (7, 1, "0x1.8618618618616p-6", "0x1.ba539079b6474p-59"),
        (7, 1, "0x1.861861861860bp-7", "-0x1.fabfa2e1bc554p-5"),
        (7, 1, "0x1.e79e79e79e7a1p-5", "-0x1.51d5174128392p-6"),
    ],
    (5, 12): [
        (1, 1, "0x1.aaaaaaaaaaaabp-2", "0x0.0p+0"),
        (1, 2, "0x1.4000000000000p+0", "0x0.0p+0"),
        (1, 3, "0x1.5555555555555p-2", "0x0.0p+0"),
        (1, 4, "-0x1.aaaaaaaaaaaabp+0", "0x0.0p+0"),
        (1, 6, "0x1.0000000000000p+0", "0x0.0p+0"),
        (1, 9, "-0x1.8000000000000p-1", "0x0.0p+0"),
        (1, 12, "-0x1.5555555555555p+0", "0x0.0p+0"),
        (1, 18, "-0x1.2000000000000p+1", "0x0.0p+0"),
        (1, 36, "0x1.8000000000000p+1", "0x0.0p+0"),
        (3, 1, "0x1.5555555555557p-4", "0x1.279a74590331ep-55"),
        (3, 2, "-0x1.0000000000001p-2", "-0x1.bb67ae8584cadp-54"),
        (3, 4, "-0x1.5555555555557p-2", "-0x1.279a74590331ep-53"),
    ],
}


def test_A2_closed_bits():
    got = {key: A2_closed(*key).hex() for key in A2_HEX}
    assert got == A2_HEX


def test_main_term_bits():
    for M, expected in MAIN_TERM_HEX.items():
        assert [main_term(1, M, n).hex() for n in range(1, 13)] == expected, M


def test_expansion_coefficient_bits():
    for (m, M), expected in EXPANSION_HEX.items():
        got = [
            (eta.modulus, d, c.real.hex(), c.imag.hex())
            for eta, d, c in build_expansion(m, M).terms
        ]
        assert got == expected, (m, M)
