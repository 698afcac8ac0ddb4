"""Bit-exact pins of float outputs that otherwise are only compared as
%.12g text or within a tolerance.

Regrouping the float products in `coeff_a`, `gauss_quad_closed` or `phi2`,
or changing how `gauss_sum` and `sigma_twisted` turn a character value into
a complex number changes some of these hex strings, so such a change shows
here.  `A2_closed` rounds an exact rational once, so it is pinned to the
correctly rounded float of that rational instead.
"""

import hashlib
from collections import Counter
from fractions import Fraction

from hurwitzbias.bias import A2_closed
from hurwitzbias.characters import gauss_quad_closed, gauss_sum, primitive_chars
from hurwitzbias.eisenstein import build_expansion, main_term, phi2, sigma_twisted
from test_characters import char_order

A2_EXACT = {
    (1, 3): Fraction(-1, 8),
    (5, 5): Fraction(1, 4),
    (2, 15): Fraction(-7, 128),
    (7, 30): Fraction(-7, 384),
    (1, 119): Fraction(-23, 12288),
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


# Characters keyed by (modulus, exponent on the generator): the conductor-3
# character, the five conductor-7 characters, and the first order-4 and the
# first order-6 character mod 13 in primitive_chars order.
GAUSS_HEX = {
    (3, 1): ("0x1.8000000000000p-51", "0x1.bb67ae8584caap+0"),
    (7, 1): ("-0x1.38564a35fc827p+1", "0x1.05ca585b5d489p+0"),
    (7, 2): ("0x1.2f6b8a9e8f25cp+1", "-0x1.2cd3c414f80fep+0"),
    (7, 3): ("0x1.8000000000000p-52", "0x1.52a7fa9d2f8eap+1"),
    (7, 4): ("0x1.2f6b8a9e8f25fp+1", "0x1.2cd3c414f80f8p+0"),
    (7, 5): ("0x1.38564a35fc827p+1", "0x1.05ca585b5d482p+0"),
    (13, 3): ("-0x1.b9b544bf10b64p+1", "0x1.0b7a158d84864p+0"),
    (13, 2): ("0x1.8cb01e1d7263ep+1", "0x1.d7b91adc25da8p+0"),
}
SIGMA_N = (1, 2, 3, 4, 6, 7, 12, 13, 18, 26, 30, 36, 60)
# sigma_twisted(chi, n) for n in SIGMA_N, as (real hex, imag hex).
SIGMA_HEX = {
    (3, 1): [
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("-0x1.8000000000000p+1", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.c000000000000p+2", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.0000000000000p+3", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.c000000000000p+3", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("-0x1.5000000000000p+5", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
    ],
    (7, 1): [
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("-0x1.7fffffffffffdp+0", "0x1.4c8dc2e423980p+1"),
        ("0x1.0000000000001p+1", "0x1.bb67ae8584caap+1"),
        ("-0x1.c000000000007p+1", "-0x1.83fab8b4d4313p+2"),
        ("-0x1.8000000000000p+3", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.c000000000003p+3", "-0x1.83fab8b4d4315p+4"),
        ("-0x1.c000000000000p+3", "0x0.0p+0"),
        ("-0x1.3800000000004p+4", "-0x1.0e332e595ceb6p+5"),
        ("0x1.5000000000002p+4", "-0x1.22fc0a879f250p+5"),
        ("-0x1.1fffffffffffep+5", "0x1.f2d4a45635640p+5"),
        ("0x1.6c00000000000p+6", "0x0.0p+0"),
        ("-0x1.5000000000006p+6", "-0x1.22fc0a879f24ep+7"),
    ],
    (7, 2): [
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("-0x1.8000000000006p+0", "-0x1.4c8dc2e42397ep+1"),
        ("-0x1.ffffffffffffcp+0", "0x1.bb67ae8584cabp+1"),
        ("-0x1.bfffffffffffcp+1", "0x1.83fab8b4d4316p+2"),
        ("0x1.8000000000000p+3", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("-0x1.c000000000007p+3", "-0x1.83fab8b4d4313p+4"),
        ("0x1.c000000000000p+3", "0x0.0p+0"),
        ("-0x1.37ffffffffffep+4", "0x1.0e332e595ceb8p+5"),
        ("-0x1.5000000000005p+4", "-0x1.22fc0a879f24ep+5"),
        ("-0x1.2000000000004p+5", "-0x1.f2d4a4563563dp+5"),
        ("0x1.6c00000000000p+6", "0x0.0p+0"),
        ("-0x1.4fffffffffffep+6", "0x1.22fc0a879f250p+7"),
    ],
    (7, 3): [
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.8000000000000p+1", "0x0.0p+0"),
        ("-0x1.0000000000000p+2", "0x0.0p+0"),
        ("0x1.c000000000000p+2", "0x0.0p+0"),
        ("-0x1.8000000000000p+3", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("-0x1.c000000000000p+4", "0x0.0p+0"),
        ("-0x1.c000000000000p+3", "0x0.0p+0"),
        ("0x1.3800000000000p+5", "0x0.0p+0"),
        ("-0x1.5000000000000p+5", "0x0.0p+0"),
        ("0x1.2000000000000p+6", "0x0.0p+0"),
        ("0x1.6c00000000000p+6", "0x0.0p+0"),
        ("0x1.5000000000000p+7", "0x0.0p+0"),
    ],
    (7, 4): [
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("-0x1.7fffffffffffdp+0", "0x1.4c8dc2e423980p+1"),
        ("-0x1.0000000000004p+1", "-0x1.bb67ae8584ca8p+1"),
        ("-0x1.c000000000007p+1", "-0x1.83fab8b4d4313p+2"),
        ("0x1.8000000000000p+3", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("-0x1.bfffffffffffcp+3", "0x1.83fab8b4d4316p+4"),
        ("0x1.c000000000000p+3", "0x0.0p+0"),
        ("-0x1.3800000000004p+4", "-0x1.0e332e595ceb6p+5"),
        ("-0x1.4fffffffffffep+4", "0x1.22fc0a879f250p+5"),
        ("-0x1.1fffffffffffep+5", "0x1.f2d4a45635640p+5"),
        ("0x1.6c00000000000p+6", "0x0.0p+0"),
        ("-0x1.5000000000006p+6", "-0x1.22fc0a879f24ep+7"),
    ],
    (7, 5): [
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("-0x1.8000000000006p+0", "-0x1.4c8dc2e42397ep+1"),
        ("0x1.0000000000001p+1", "-0x1.bb67ae8584caap+1"),
        ("-0x1.bfffffffffffcp+1", "0x1.83fab8b4d4316p+2"),
        ("-0x1.8000000000000p+3", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.c000000000003p+3", "0x1.83fab8b4d4315p+4"),
        ("-0x1.c000000000000p+3", "0x0.0p+0"),
        ("-0x1.37ffffffffffep+4", "0x1.0e332e595ceb8p+5"),
        ("0x1.5000000000002p+4", "0x1.22fc0a879f250p+5"),
        ("-0x1.2000000000004p+5", "-0x1.f2d4a4563563dp+5"),
        ("0x1.6c00000000000p+6", "0x0.0p+0"),
        ("-0x1.4fffffffffffep+6", "0x1.22fc0a879f250p+7"),
    ],
    (13, 3): [
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.8000000000000p+1"),
        ("0x1.0000000000000p+2", "0x0.0p+0"),
        ("-0x1.c000000000000p+2", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.8000000000000p+3"),
        ("0x0.0p+0", "-0x1.0000000000000p+3"),
        ("-0x1.c000000000000p+4", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.3800000000000p+5"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("-0x1.2000000000000p+6", "0x0.0p+0"),
        ("-0x1.6c00000000000p+6", "0x0.0p+0"),
        ("0x0.0p+0", "-0x1.5000000000000p+7"),
    ],
    (13, 2): [
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.8000000000002p+0", "0x1.4c8dc2e423980p+1"),
        ("-0x1.0000000000004p+1", "-0x1.bb67ae8584ca8p+1"),
        ("-0x1.bfffffffffffcp+1", "0x1.83fab8b4d4316p+2"),
        ("0x1.8000000000002p+2", "-0x1.4c8dc2e423980p+3"),
        ("0x1.0000000000001p+2", "-0x1.bb67ae8584caap+2"),
        ("0x1.c000000000000p+4", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("-0x1.3800000000000p+5", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("-0x1.1fffffffffffep+5", "0x1.f2d4a45635640p+5"),
        ("-0x1.6c00000000005p+5", "-0x1.3b3bb612ec67fp+6"),
        ("-0x1.5000000000000p+7", "0x0.0p+0"),
    ],
}

# gauss_quad_closed(a, b, c) as (real hex, imag hex): odd c, c = 2 mod 4 and
# 4 | c, each with gcd(a, c) = 1 and with the g > 1 reduction (b divisible by
# g or not), plus the zero branches (b odd or even against the modulus).
GAUSS_QUAD_HEX = {
    (1, 0, 1): ("0x1.0000000000000p+0", "0x0.0p+0"),
    (1, 1, 3): ("0x1.7fffffffffffdp+0", "-0x1.bb67ae8584cb1p-1"),
    (2, 1, 5): ("0x1.cf1bbcdcbfa56p+0", "0x1.5077c9109a7d0p+0"),
    (3, 2, 7): ("0x1.4a2a546b589e1p+1", "0x1.2d6eae4b2d32cp-1"),
    (1, 3, 9): ("0x1.8000000000000p+1", "0x0.0p+0"),
    (3, 3, 9): ("0x1.1fffffffffffep+2", "-0x1.4c8dc2e423985p+1"),
    (5, 4, 15): ("0x0.0p+0", "0x0.0p+0"),
    (4, 1, 21): ("0x1.ac988fa87dda2p+0", "-0x1.1102db8d55a3cp+2"),
    (1, 1, 2): ("0x1.0000000000000p+1", "0x0.0p+0"),
    (1, 1, 6): ("0x1.8000000000000p+1", "0x1.bb67ae8584ca7p+0"),
    (3, 5, 10): ("0x1.1e3779b97f4a8p+2", "0x0.0p+0"),
    (5, 3, 14): ("0x1.08c5a55034425p+2", "-0x1.a64c1e13bc507p+1"),
    (7, 1, 18): ("-0x1.68d78b1bda1d4p+2", "0x1.06abe576788fap+1"),
    (2, 2, 6): ("0x1.7fffffffffffdp+1", "-0x1.bb67ae8584cb1p+0"),
    (1, 0, 4): ("0x1.0000000000000p+1", "0x1.0000000000000p+1"),
    (3, 2, 4): ("0x1.0000000000000p+1", "0x1.0000000000000p+1"),
    (1, 2, 8): ("0x1.0000000000000p+2", "-0x1.0f876ccdf6cdap-50"),
    (5, 6, 12): ("0x1.bb67ae8584caap+1", "-0x1.bb67ae8584caap+1"),
    (7, 4, 16): ("0x1.0000000000000p+2", "0x1.0000000000000p+2"),
    (9, 2, 20): ("-0x1.6f865dbe37f39p+1", "-0x1.68a772025c543p+2"),
    (5, 10, 24): ("0x1.7fffffffffffep+2", "-0x1.bb67ae8584cb0p+1"),
    (2, 2, 8): ("0x0.0p+0", "0x0.0p+0"),
    (6, 6, 12): ("0x1.8000000000000p+3", "0x0.0p+0"),
    (4, 8, 20): ("0x1.61c8864680b55p+1", "-0x1.10355070bc26fp+3"),
    (2, 1, 4): ("0x0.0p+0", "0x0.0p+0"),
    (1, 1, 8): ("0x0.0p+0", "0x0.0p+0"),
}
# sha256 of the lines "a b c real_hex imag_hex" over every a, b < c <= 24.
GAUSS_QUAD_GRID_SHA256 = "6401162053ff802ab299907f78860ecd4461a8b2c2e5659bdd1f431a1ac8ae24"

# phi2(eta) for the 757 primitive characters of conductor <= 64: sha256 of
# the lines "modulus locals real_hex imag_hex" in primitive_chars order, and
# how often each value occurs.
PHI2_SHA256 = "23224e3aecb6bb087301767de302320d19422b1e01a1de51e2f25a6bbb5b09a9"
PHI2_COUNTS = {
    ("0x0.0p+0", "-0x1.0000000000000p+0"): 23,
    ("0x0.0p+0", "0x1.0000000000000p+0"): 24,
    ("0x1.0000000000000p+0", "-0x1.0000000000000p+0"): 16,
    ("0x1.0000000000000p+0", "0x0.0p+0"): 678,
    ("0x1.0000000000000p+0", "0x1.0000000000000p+0"): 16,
}


def _hex(z):
    return z.real.hex(), z.imag.hex()


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _pinned_chars():
    p13 = primitive_chars(13)
    chars = list(primitive_chars(3)) + list(primitive_chars(7)) + [
        next(chi for chi in p13 if char_order(chi) == k) for k in (4, 6)
    ]
    return {(chi.modulus, chi.locals[0][2][0]): chi for chi in chars}


def test_A2_closed_bits():
    for (m, M), value in A2_EXACT.items():
        assert A2_closed(m, M) == float(value), (m, M)


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


def test_gauss_sum_bits():
    got = {}
    for key, chi in _pinned_chars().items():
        g = gauss_sum(chi)
        got[key] = (g.real.hex(), g.imag.hex())
    assert got == GAUSS_HEX


def test_sigma_twisted_bits():
    for key, chi in _pinned_chars().items():
        got = []
        for n in SIGMA_N:
            s = sigma_twisted(chi, n)
            got.append((s.real.hex(), s.imag.hex()))
        assert got == SIGMA_HEX[key], key


def test_gauss_quad_closed_bits():
    got = {key: _hex(gauss_quad_closed(*key)) for key in GAUSS_QUAD_HEX}
    assert got == GAUSS_QUAD_HEX
    lines = [
        " ".join((str(a), str(b), str(c), *_hex(gauss_quad_closed(a, b, c))))
        for c in range(1, 25)
        for a in range(c)
        for b in range(c)
    ]
    assert _sha256(lines) == GAUSS_QUAD_GRID_SHA256


def test_phi2_bits():
    values = [
        (chi, _hex(phi2(chi))) for n in range(1, 65) for chi in primitive_chars(n)
    ]
    assert Counter(v for _, v in values) == PHI2_COUNTS
    lines = [f"{chi.modulus} {chi.locals} {re} {im}" for chi, (re, im) in values]
    assert _sha256(lines) == PHI2_SHA256
