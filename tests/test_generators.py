"""Named graphs, the 3-tree tower, seeded random drawings."""
from __future__ import annotations

import hashlib
import random
import tracemalloc

import pytest

from okplanar.drawing import (
    ChordSet,
    crossing_report,
    identity_drawing,
    is_closed_drawing,
    make_drawing,
)
from okplanar.generators import (
    SplitMix64,
    complete,
    complete_bipartite,
    grid,
    planar_3tree_levels,
    random_outer_k_planar,
)
from okplanar.io import format_drawing

from oracles import grid_snake_order, in_class

# SHA-256 of format_drawing(random_outer_k_planar(n, k, seed)), per n in
# (k, seed) order over k in (0, 1, 3) and seeds (0, 1, 7), as the chord list
# of (u, v) pairs made them before the list held 8-byte chord codes
RANDOM_DRAWING_SHA256 = {
    1: (
        "1191ab02152ba776e1a70bae06324ef9f5f7ee69ba645439968ff3a24b32e4c9",
        "1191ab02152ba776e1a70bae06324ef9f5f7ee69ba645439968ff3a24b32e4c9",
        "1191ab02152ba776e1a70bae06324ef9f5f7ee69ba645439968ff3a24b32e4c9",
        "1191ab02152ba776e1a70bae06324ef9f5f7ee69ba645439968ff3a24b32e4c9",
        "1191ab02152ba776e1a70bae06324ef9f5f7ee69ba645439968ff3a24b32e4c9",
        "1191ab02152ba776e1a70bae06324ef9f5f7ee69ba645439968ff3a24b32e4c9",
        "1191ab02152ba776e1a70bae06324ef9f5f7ee69ba645439968ff3a24b32e4c9",
        "1191ab02152ba776e1a70bae06324ef9f5f7ee69ba645439968ff3a24b32e4c9",
        "1191ab02152ba776e1a70bae06324ef9f5f7ee69ba645439968ff3a24b32e4c9",
    ),
    2: (
        "99f92a163f322dfb4a97ce79e14d01d0cbff169522b4c470c3737326c034515f",
        "908d427687802cbc55d1d71843c8a39859faae54a86ce68c06cae5190abad228",
        "99f92a163f322dfb4a97ce79e14d01d0cbff169522b4c470c3737326c034515f",
        "908d427687802cbc55d1d71843c8a39859faae54a86ce68c06cae5190abad228",
        "908d427687802cbc55d1d71843c8a39859faae54a86ce68c06cae5190abad228",
        "99f92a163f322dfb4a97ce79e14d01d0cbff169522b4c470c3737326c034515f",
        "99f92a163f322dfb4a97ce79e14d01d0cbff169522b4c470c3737326c034515f",
        "99f92a163f322dfb4a97ce79e14d01d0cbff169522b4c470c3737326c034515f",
        "99f92a163f322dfb4a97ce79e14d01d0cbff169522b4c470c3737326c034515f",
    ),
    3: (
        "3d2f09758419b7021b9391eba13abca4dfc09461c7ae1eb806565c13520db7cf",
        "3a11fd3153f67adcfcf6a20e6fc5b49dc1a06b395ca94efa7f31172ed4cad9ec",
        "a6eac519d408efc70e197413a577a203b79d5cf403ea2cf2d9c3eb28fce8fb42",
        "3a11fd3153f67adcfcf6a20e6fc5b49dc1a06b395ca94efa7f31172ed4cad9ec",
        "a6eac519d408efc70e197413a577a203b79d5cf403ea2cf2d9c3eb28fce8fb42",
        "a6eac519d408efc70e197413a577a203b79d5cf403ea2cf2d9c3eb28fce8fb42",
        "3a11fd3153f67adcfcf6a20e6fc5b49dc1a06b395ca94efa7f31172ed4cad9ec",
        "235918372dae68a5f7b18deee5e0a348bee54ef0d7c872827418da72e8ae0722",
        "6e07cc6e5deb1eabd445814f01e4204cd7c07cd2d36b4c11125e3f98a700eb9e",
    ),
    7: (
        "17cb918681ac2b2cf155797917eb1e6c54556d13192bf22833f15ca68b474597",
        "11f05738198b6b2b4ae496d46413f1526f33a347e49ab7dd2d33baf130c4298f",
        "4973e6b1121cd55ce1185383d08c45e527f7214b34398036f5554d7d21f8cf7e",
        "c431845f45e7715a6ea92568e8f9ffd4c7a7f742297990c3553958e14f4a07e6",
        "41eebb5fdbbd4524d464ee3d877e045b44fa7b0b42834ee98f1ae9caca3e803f",
        "0a07dd952e5b47212a0b4eedc311bc46573fdcc93e5702741327840de4029e8f",
        "459b9edd90a7bff6c9825ee440c9c5b92ea1d407981982a3f3654a525c81624a",
        "9370151abf037e848427d58f9775080fcf930ffd03e1996abe47f44ac3510f89",
        "6b7f5d52a5cf8db3c7620347ded4c5153a5186f1c3233bd03d7dae1811d32268",
    ),
    60: (
        "3670d7d0c549feaac1a12e32fc9293559eafc54c319387a984449805a2d64aff",
        "0dcffcc340944a2698042f7f02d1267797f8ac4ae080716c64b0e87cf0a23d02",
        "6c6ea400e886ad9c10a83972810f8c7334a24f391f414254935c16b1649b1797",
        "b2641d6cb89e27f1a425b535983ec66642cb2f52717577bf705d4250b80e03b6",
        "66b410a19833a92a6acb3a87b931760abc22e9c9589c508ab029cfd0da6a776c",
        "5b40708589c1893f09d14075a44f5d6cb4ce0e6661c7a52e94f74aecd444766a",
        "1f846b841155b440f88cc6791ff6a925fa4007935d19bb48d6e99511e85f52d1",
        "9fb5f428669d9dcee25be5a375ee7bf9357631aeff9e804b00eed2ae7f1dc2e2",
        "721ff3098ca9a03c5d0c65b6c763dc5fcad64887539412650f26ed58abfb9ca5",
    ),
    480: (
        "095d6ad3da32d08abed19b2be99c2fa9f64c8fe1618cc5def457543008c1d3c9",
        "f385e078adf7285bd2b42eba2ed4708705df5c4b7dbdcfd0ec8f0d0505c2745e",
        "6cbd61f2617948258d86b24d982780bbe11c88c58cd62d47995eef447676c490",
        "7e69b482eb9572a33e2490475ebff79885ec546c88d9b121f5eeddde31b5267e",
        "27d6e9adcf5dc731c1379bb2425be840159500f448c00cd78747ead4396d2888",
        "2d12a44fe5aba36830d0bf0e5649f57c3fe559e22d60e4fdabb96a3bb3a9a4b3",
        "861f5326777fccfb6d37d0139e0a673ccfbe5e82d3604ae1c4db6822f97ed4c0",
        "a30664e055a98fdf9c34be0872b9e5ffffb1fd6d48fd691f89395c04f651ced9",
        "a8ebfae92c808692169dec37400a75185aa11173a76525b46fafec2fc90a630e",
    ),
}


def test_basic_counts():
    assert complete(5).m == 10
    assert complete_bipartite(4, 4).m == 16
    assert grid(3, 3).m == 12
    assert complete(0).n == 0
    assert complete_bipartite(0, 3).m == 0


@pytest.mark.parametrize("make, sizes", [
    (grid, (-1, -3)), (grid, (2, -1)), (complete_bipartite, (-1, 2)), (complete_bipartite, (3, -1)),
])
def test_negative_sizes_are_rejected(make, sizes):
    with pytest.raises(ValueError, match="nonnegative"):
        make(*sizes)


def test_random_streams_and_drawings_refuse_bad_arguments():
    with pytest.raises(ValueError, match="bound must be positive"):
        SplitMix64(0).randrange(0)
    for n, k in ((0, 1), (5, -1)):
        with pytest.raises(ValueError, match="need n >= 1 and k >= 0"):
            random_outer_k_planar(n, k, 0)


def test_grid_structure():
    g = grid(2, 3)
    assert g.n == 6
    assert g.has_edge(0, 1) and g.has_edge(0, 3) and not g.has_edge(2, 3)


def test_3tree_sizes():
    for L, (n, m) in enumerate([(4, 6), (7, 15), (16, 42), (43, 123)], start=1):
        g = planar_3tree_levels(L)
        assert (g.n, g.m) == (n, m)
    assert planar_3tree_levels(1).edges == complete(4).edges
    with pytest.raises(ValueError):
        planar_3tree_levels(0)


def test_3tree_new_vertices_have_degree_3():
    g2 = planar_3tree_levels(2)
    for v in range(4, 7):
        assert g2.degree(v) == 3


def test_splitmix_reference_values():
    # published splitmix64 stream for seed 1234567
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 6457827717110365317
    assert rng.next_u64() == 3203168211198807973


def test_splitmix_shuffle_deterministic():
    a = list(range(10))
    b = list(range(10))
    SplitMix64(99).shuffle(a)
    SplitMix64(99).shuffle(b)
    assert a == b
    SplitMix64(100).shuffle(b)
    assert a != b


def test_random_k0_is_maximal_outerplanar():
    for n in range(3, 12):
        d = random_outer_k_planar(n, 0, seed=5)
        assert d.graph.m == 2 * n - 3
        assert crossing_report(d).max_per_edge == 0


def test_random_k1_n4_is_k4():
    d = random_outer_k_planar(4, 1, seed=0)
    assert d.graph.m == 6


def test_random_deterministic():
    d1 = random_outer_k_planar(20, 2, seed=42)
    d2 = random_outer_k_planar(20, 2, seed=42)
    assert d1.graph.edges == d2.graph.edges and d1.order == d2.order
    d3 = random_outer_k_planar(20, 2, seed=43)
    assert d3.graph.edges != d1.graph.edges or d3.order != d1.order


def test_random_drawings_are_pinned():
    for n, pinned in RANDOM_DRAWING_SHA256.items():
        got = tuple(hashlib.sha256(format_drawing(random_outer_k_planar(n, k, seed)).encode()).hexdigest()
                    for k in (0, 1, 3) for seed in (0, 1, 7))
        assert got == pinned, n


def test_random_chord_list_costs_eight_bytes_per_chord():
    # the C(480, 2) chords as a list of pairs peak at 10.4 MB under
    # tracemalloc; as 8-byte codes the whole call peaks at about 1.7 MB
    tracemalloc.start()
    try:
        random_outer_k_planar(480, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_random_certified_membership():
    rng = random.Random(3)
    for _ in range(12):
        n = rng.randrange(3, 30)
        k = rng.randrange(0, 5)
        seed = rng.randrange(10**6)
        d = random_outer_k_planar(n, k, seed)
        assert in_class(d, k, "outer-planar")


def test_random_saturated():
    # every absent chord would push some edge past k
    rng = random.Random(17)
    for _ in range(8):
        n = rng.randrange(5, 14)
        k = rng.randrange(0, 4)
        d = random_outer_k_planar(n, k, rng.randrange(10**6))
        present = set(d.graph.edges)
        cs = ChordSet(n)
        at_cap = 0
        for u, v in d.graph.edges:
            p, q = sorted((d.pos[u], d.pos[v]))
            idx, _ = cs.add(p, q)
        for idx in range(cs.m):
            if cs.counts[idx] >= k:
                assert cs.counts[idx] == k
                at_cap |= 1 << idx
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in present:
                    continue
                cm = cs.crossers(min(d.pos[u], d.pos[v]), max(d.pos[u], d.pos[v]))
                assert cm.bit_count() > k or (cm & at_cap)


def test_grid_snake_order_quasi():
    for r in range(1, 6):
        for c in range(1, 6):
            g = grid(r, c)
            order = grid_snake_order(r, c)
            d = make_drawing(g, order)
            assert crossing_report(d).max_mutual <= 2
            if r >= 2 and c >= 2 and (r * c) % 2 == 0:
                assert is_closed_drawing(d)


def test_grid_snake_order_is_permutation():
    for r, c in [(1, 7), (4, 5), (5, 4), (3, 3), (5, 5), (2, 2)]:
        assert sorted(grid_snake_order(r, c)) == list(range(r * c))
