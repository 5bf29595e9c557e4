"""cutcp neighbour lists from atom bins, exact to the inclusion rule.

``cutcp._neighbour_chunks`` bins atoms into ``CUTOFF``-wide cells and
tests each lattice point against its cell's 3×3×3 neighbourhood.  Its
lists must be the ones a brute-force scan with the same rule finds: atom
``a`` is a neighbour of point ``p`` iff ``(dx*dx + dy*dy) + dz*dz <=
CUTOFF**2`` in float64, and each point's atoms come in ascending index
order.  The digests pin ``point_ptr``, the neighbour indices and
``contribution`` of every geometry the test suite and the served replay
build, as the earlier ``scipy.spatial.cKDTree`` search produced them;
where scipy is installed, the lists are also compared with
``cKDTree.query_ball_point`` directly, fig8's lattice included.
"""

import hashlib
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import repro
from repro.config import ReproConfig
from repro.workloads import cutcp

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (same convention as
#: the chaos suite; the CI flakiness job randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: sha256 of (point_ptr, neighbour indices as int64, contribution) per
#: (lattice, atoms) at the default seed, recorded with the KD-tree search:
#: the analyzer catalog and cost-memo tests, tests/workloads/test_cutcp.py,
#: the served replay's lattices (32×32×depth), the differential catalog
#: and the fig10 default.
PINNED = {
    ((16, 16, 8), 2000): (
        "856a45b139e49d1e9a0c76bee1ff9f0bac91cfebe83a6528e163436bf2fc86bf",
        "83992da63da064925c96666f12f2b8df187a3df6a4036c3b7c9c371fdb554040",
        "e7e13dd0ec8e6b6be56cbfac5a6fb9173d5fe4ac07020a4cae38602185e9aecd",
    ),
    ((32, 32, 8), 2000): (
        "ce84fa81a37d442e5626c2d13f6f8f1cb180971edee291e3f94b4608b8f2aab8",
        "6ab64f64a91684688d5985efa20f5dfa5c9403bc99926081aba8ae5ac546b033",
        "71d939ee8d3988072bdff25e2abb5758ffdf12a9a821331dfd81b0d4bd157627",
    ),
    ((32, 32, 9), 2000): (
        "b2d092fe6063aa3ddcc8c0a2191d9fda3c5e7be07cc5f014b94bac93ed789a07",
        "8dd83fc2201dab6dcc8f2e9049359546074ebfa59c082352ae4df44f8caad010",
        "66149615b90279288e1d2afc246b4708cf6382bb1992ac093b0a7f5ef45ce5fa",
    ),
    ((32, 32, 16), 2000): (
        "770fb1815c0091d7f20c53cdb4fea365c579549db669c9e300b80eafcc712610",
        "9019d95f307538e7bdc8d9936cca41dfe417273ba1edc32ec57c817596f55574",
        "2e16b437ffaa6458f35c92ef586069876c18567824429443b9c118dd86f129f4",
    ),
    ((32, 32, 32), 2000): (
        "9a7b68682eb15db32f7784c206b419f3e3f8fbbdc2d511ecbd6555976005a99a",
        "bde2178c14c4a3c13f049db805b0ba896e4e52056cce55b4569f963b9d82a5f4",
        "08ed78e3afed7d5d553b7117fefa2599a36f1e5eb06ebe98e80860aae5030152",
    ),
    ((32, 32, 16), 4000): (
        "a55960cc3e0ddd7ccbc1a1929a51eb5894cc87da46a72439dc9a02c7e7bf3ce4",
        "cfafe410bb34cf30bc5d8d8a5881fc91b042aa16a544f1c450dfd7d285b7c482",
        "92de32ea02bab57f2d6379ae66b012047a3b1d2b11660437628f89683cca20ce",
    ),
    ((64, 64, 32), 20000): (
        "3cbfb8c1351a310f6201c993e0fc15e4524d286886732a89ce1e39f109996d6a",
        "c5401619c39bd7f2e99545259d8958b2b5aa0ee3c037f4d8c85d51b216b0f838",
        "fe7bd9a3b9b3a7967d9884832307883fc358131748d6d3e45f1941d7b610397a",
    ),
}

#: Every geometry the repository builds: the pinned ones and fig8's.
ALL_GEOMETRIES = sorted(PINNED) + [((128, 128, 32), 40000)]


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def atom_positions(lattice, num_atoms, config=None) -> np.ndarray:
    """The atoms ``_Geometry`` draws (its first draw from its stream)."""
    rng = (config or ReproConfig()).rng("cutcp", lattice, num_atoms)
    box = np.array(lattice, dtype=np.float64)
    return rng.uniform(0.0, 1.0, size=(num_atoms, 3)) * box


def neighbour_lists(positions, points):
    """``(point_ptr, atoms)`` assembled from the chunks."""
    counts = np.zeros(len(points), dtype=np.int64)
    parts = [np.zeros(0, dtype=np.int64)]
    for p0, p1, chunk_counts, atoms, _ in cutcp._neighbour_chunks(
        positions, points
    ):
        counts[p0:p1] = chunk_counts
        parts.append(atoms)
    ptr = np.zeros(len(points) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr, np.concatenate(parts).astype(np.int64)


def brute_force(positions, points):
    """Every (point, atom) pair under the inclusion rule, atoms ascending."""
    d = positions[None, :, :] - points[:, None, :]
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    inside = (dx * dx + dy * dy) + dz * dz <= cutcp.CUTOFF * cutcp.CUTOFF
    ptr = np.zeros(len(points) + 1, dtype=np.int64)
    np.cumsum(inside.sum(axis=1), out=ptr[1:])
    return ptr, np.nonzero(inside)[1].astype(np.int64)


def assert_same_lists(positions, points):
    ptr, atoms = neighbour_lists(positions, points)
    want_ptr, want_atoms = brute_force(positions, points)
    assert ptr.tobytes() == want_ptr.tobytes()
    assert atoms.tobytes() == want_atoms.tobytes()


@st.composite
def small_geometries(draw):
    """A small lattice (any sides, zero included) and up to 300 atoms in
    its box, some snapped onto cell faces or lattice coordinates, where
    a distance can be exactly ``CUTOFF``."""
    lattice = tuple(draw(st.integers(min_value=0, max_value=12)) for _ in "xyz")
    num_atoms = draw(st.integers(min_value=0, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    box = np.array(lattice, dtype=np.float64)
    positions = rng.uniform(0.0, 1.0, size=(num_atoms, 3)) * box
    snap = rng.integers(0, 3, size=positions.shape)
    faces = np.floor(positions / cutcp.CUTOFF) * cutcp.CUTOFF
    positions = np.where(snap == 1, faces, positions)
    positions = np.where(snap == 2, np.floor(positions), positions)
    return positions, cutcp._Geometry._lattice_points(lattice)


class TestBruteForce:
    @seed(CHAOS_SEED)
    @settings(max_examples=200, deadline=None)
    @given(geometry=small_geometries())
    def test_lists_match_the_brute_force_scan(self, geometry):
        assert_same_lists(*geometry)

    @seed(CHAOS_SEED)
    @settings(max_examples=200, deadline=None)
    @given(geometry=small_geometries())
    def test_squared_distances_match_the_inclusion_rule(self, geometry):
        """Each hit's yielded squared distance is ``(dx*dx + dy*dy) +
        dz*dz`` recomputed from the positions, bit for bit."""
        positions, points = geometry
        for p0, p1, counts, atoms, dist2 in cutcp._neighbour_chunks(
            positions, points
        ):
            d = positions[atoms] - np.repeat(points[p0:p1], counts, axis=0)
            dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
            assert dist2.dtype == np.float64
            assert dist2.tobytes() == ((dx * dx + dy * dy) + dz * dz).tobytes()

    @pytest.mark.parametrize("lattice", [(0, 0, 0), (0, 5, 3), (4, 4, 4)])
    def test_no_atoms_or_no_points(self, lattice):
        points = cutcp._Geometry._lattice_points(lattice)
        ptr, atoms = neighbour_lists(np.zeros((0, 3)), points)
        assert ptr.tolist() == [0] * (len(points) + 1)
        assert len(atoms) == 0
        assert_same_lists(np.full((3, 3), 1.5), points)

    def test_rounding_onto_the_cutoff_from_two_cells_away(self):
        """``8 - (4 - 2**-51)`` rounds to exactly 4: the atom is on the
        sphere of the point at x = 8 although it sits in cell 0, two
        cells below the point's."""
        below = np.nextafter(4.0, 0.0)
        assert 8.0 - below == cutcp.CUTOFF
        positions = np.array([[below, 1.0, 1.0], [3.0, 1.0, 1.0]])
        points = cutcp._Geometry._lattice_points((12, 2, 2))
        assert_same_lists(positions, points)
        ptr, atoms = neighbour_lists(positions, points)
        at_eight = np.flatnonzero((points == [8.0, 1.0, 1.0]).all(axis=1))[0]
        assert atoms[ptr[at_eight] : ptr[at_eight + 1]].tolist() == [0]

    def test_chunking_never_changes_the_lists(self, monkeypatch):
        """Smaller passes, down to one point each, cover the points in
        order and find the same lists."""
        positions = atom_positions((32, 32, 8), 2000)
        points = cutcp._Geometry._lattice_points((32, 32, 8))
        whole = neighbour_lists(positions, points)
        for pair_chunk in (1000, 1):
            monkeypatch.setattr(cutcp, "PAIR_CHUNK", pair_chunk)
            chunks = list(cutcp._neighbour_chunks(positions, points))
            assert chunks[0][0] == 0 and chunks[-1][1] == len(points)
            assert [c[0] for c in chunks[1:]] == [c[1] for c in chunks[:-1]]
            if pair_chunk == 1:
                assert len(chunks) == len(points)
            for got, want in zip(neighbour_lists(positions, points), whole):
                assert got.tobytes() == want.tobytes()


class TestPinnedGeometries:
    @pytest.mark.parametrize("lattice,num_atoms", sorted(PINNED))
    def test_digests_match_the_kd_tree_search(self, lattice, num_atoms):
        geometry = cutcp._Geometry(lattice, num_atoms, ReproConfig())
        _, atoms = neighbour_lists(
            atom_positions(lattice, num_atoms),
            cutcp._Geometry._lattice_points(lattice),
        )
        got = (
            digest(geometry.point_ptr),
            digest(atoms),
            digest(geometry.contribution),
        )
        assert got == PINNED[lattice, num_atoms]
        assert geometry.contribution.dtype == np.float32


class TestKdTreeCrossCheck:
    @pytest.mark.parametrize("lattice,num_atoms", ALL_GEOMETRIES)
    def test_lists_match_query_ball_point(self, lattice, num_atoms):
        spatial = pytest.importorskip("scipy.spatial")
        positions = atom_positions(lattice, num_atoms)
        points = cutcp._Geometry._lattice_points(lattice)
        tree = spatial.cKDTree(positions)
        for p0, p1, counts, atoms, _ in cutcp._neighbour_chunks(
            positions, points
        ):
            lists = tree.query_ball_point(points[p0:p1], cutcp.CUTOFF)
            assert counts.tolist() == [len(found) for found in lists], p0
            assert atoms.tolist() == [a for found in lists for a in found], p0


def test_builds_with_scipy_blocked():
    """The package, the serve and traffic layers and a cutcp case import
    and build with scipy unimportable, and leave it unimported."""
    code = textwrap.dedent(
        """
        import sys
        sys.modules["scipy"] = None
        import repro, repro.serve, repro.traffic
        from repro.config import ReproConfig
        from repro.workloads import cutcp
        case = cutcp.mixed_case("cpu", (16, 16, 8), 2000, ReproConfig())
        assert case.workload_units == 16
        loaded = [
            name for name, module in sys.modules.items()
            if name.split(".")[0] == "scipy" and module is not None
        ]
        assert not loaded, loaded
        print("built")
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "built"
