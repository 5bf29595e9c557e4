"""Workload-signature derivation: input-aware keys with stable buckets."""

import dataclasses
import gc
import os
import pickle
import sys
import threading

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.config import ReproConfig
from repro.kernel.buffers import Buffer, MemorySpace
from repro.serve import signature as signature_mod
from repro.serve.signature import (
    WorkloadSignature,
    derive_signature,
    log2_bucket,
)
from repro.workloads.matrices import CsrMatrix, diagonal_csr, random_csr


class FakeCSR:
    """Duck-typed CSR surface with arbitrary (possibly inconsistent)
    shape statistics, for exercising degenerate inputs."""

    def __init__(self, rows, cols, nnz, row_nnz):
        self.rows = rows
        self.cols = cols
        self.nnz = nnz
        self.row_nnz = np.asarray(row_nnz, dtype=float)


def _buffer_args(elements):
    return {
        "x": Buffer("x", np.zeros(elements, dtype=np.float32), writable=False),
        "y": Buffer("y", np.zeros(elements, dtype=np.float32)),
    }


class TestBuckets:
    def test_log2_bucket_doubles_per_bucket(self):
        assert log2_bucket(1) == 0
        assert log2_bucket(2) == 1
        assert log2_bucket(1023) == 9
        assert log2_bucket(1024) == 10

    def test_small_values_collapse(self):
        assert log2_bucket(0) == 0
        assert log2_bucket(0.5) == 0


class TestDerivation:
    def test_key_is_deterministic(self):
        args = _buffer_args(4096)
        a = derive_signature("k", "cpu", args, 64)
        b = derive_signature("k", "cpu", args, 64)
        assert a == b
        assert a.key == b.key

    def test_key_separates_device_kinds(self):
        args = _buffer_args(4096)
        cpu = derive_signature("k", "cpu", args, 64)
        gpu = derive_signature("k", "gpu", args, 64)
        assert cpu.key != gpu.key

    def test_key_separates_size_regimes(self):
        small = derive_signature("k", "cpu", _buffer_args(1 << 10), 16)
        large = derive_signature("k", "cpu", _buffer_args(1 << 20), 16384)
        assert small.key != large.key

    def test_nearby_sizes_share_a_key(self):
        a = derive_signature("k", "cpu", _buffer_args(4096), 100)
        b = derive_signature("k", "cpu", _buffer_args(4100), 101)
        assert a.key == b.key

    def test_scalar_args_are_ignored(self):
        args = _buffer_args(4096)
        a = derive_signature("k", "cpu", args, 64)
        b = derive_signature("k", "cpu", {**args, "alpha": 2.0}, 64)
        assert a.key == b.key


class TestSparseFeatures:
    """The §4.4 motivation: regularity must separate workload classes."""

    def test_random_vs_diagonal_matrices_differ(self):
        config = ReproConfig()
        random = random_csr(2048, 2048, 0.01, config)
        diagonal = diagonal_csr(2048)
        a = derive_signature("spmv", "cpu", {"matrix": random}, 512)
        b = derive_signature("spmv", "cpu", {"matrix": diagonal}, 512)
        assert a.key != b.key

    def test_same_distribution_shares_a_key(self):
        config = ReproConfig()
        a_mat = random_csr(2048, 2048, 0.01, config)
        b_mat = random_csr(2048, 2048, 0.01, ReproConfig(seed=7))
        a = derive_signature("spmv", "cpu", {"matrix": a_mat}, 512)
        b = derive_signature("spmv", "cpu", {"matrix": b_mat}, 512)
        assert a.key == b.key

    def test_sparse_features_present_in_key(self):
        matrix = diagonal_csr(2048)
        sig = derive_signature("spmv", "cpu", {"matrix": matrix}, 512)
        names = dict(sig.features)
        assert "matrix.cv" in names
        assert "matrix.density^10" in names
        assert "matrix.rownnz^2" in names


class TestDegenerateSparseInputs:
    """nnz == 0 / empty row_nnz / density >= 1 must neither raise nor
    alias with well-formed classes (the satellite bugfix)."""

    def test_zero_nnz_emits_explicit_empty_feature(self):
        sig = derive_signature(
            "spmv", "cpu", {"m": FakeCSR(64, 64, 0, np.zeros(64))}, 256
        )
        names = dict(sig.features)
        assert names["m.empty"] == "1"
        assert "m.density^10" not in names

    def test_zero_rows_emits_explicit_empty_feature(self):
        sig = derive_signature(
            "spmv", "cpu", {"m": FakeCSR(0, 0, 0, [])}, 256
        )
        assert dict(sig.features)["m.empty"] == "1"

    def test_empty_does_not_alias_with_one_entry(self):
        empty = derive_signature(
            "spmv", "cpu", {"m": FakeCSR(64, 64, 0, np.zeros(64))}, 256
        )
        one = derive_signature(
            "spmv", "cpu",
            {"m": FakeCSR(64, 64, 1, [1.0] + [0.0] * 63)}, 256,
        )
        assert empty.key != one.key

    def test_full_density_buckets_at_zero(self):
        sig = derive_signature(
            "spmv", "cpu", {"m": FakeCSR(8, 8, 64, [8.0] * 8)}, 256
        )
        assert dict(sig.features)["m.density^10"] == "0"

    def test_duplicate_entries_clamp_density_bucket(self):
        # nnz > rows*cols (duplicate COO entries): the decade would be
        # negative without the clamp.
        sig = derive_signature(
            "spmv", "cpu", {"m": FakeCSR(8, 8, 640, [80.0] * 8)}, 256
        )
        assert dict(sig.features)["m.density^10"] == "0"

    def test_constant_rows_have_cv_bucket_zero(self):
        sig = derive_signature(
            "spmv", "cpu", {"m": FakeCSR(16, 16, 64, [4.0] * 16)}, 256
        )
        assert dict(sig.features)["m.cv"] == "0"

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(min_value=0, max_value=1 << 12),
        cols=st.integers(min_value=0, max_value=1 << 12),
        nnz=st.integers(min_value=0, max_value=1 << 24),
        row_nnz=st.lists(
            st.integers(min_value=0, max_value=1 << 16), max_size=64
        ),
        units=st.integers(min_value=0, max_value=1 << 20),
    )
    def test_never_raises_and_keys_are_stable(
        self, rows, cols, nnz, row_nnz, units
    ):
        args = {"m": FakeCSR(rows, cols, nnz, row_nnz)}
        first = derive_signature("spmv", "cpu", args, units)
        again = derive_signature("spmv", "cpu", args, units)
        assert first == again and first.key == again.key
        # Every emitted bucket is a non-negative integer, so the key is
        # parseable by the predictor's feature decoder.
        for name, value in first.features:
            assert value.isdigit(), (name, value)
        if nnz <= 0 or not row_nnz:
            assert dict(first.features).get("m.empty") == "1"


class TestExplicitSignature:
    def test_key_round_trips_fields(self):
        sig = WorkloadSignature(
            kernel="k", device_kind="cpu", features=(("a", "1"),)
        )
        assert sig.key == "k|cpu|a=1"
        assert str(sig) == sig.key


@dataclasses.dataclass(frozen=True)
class FrozenShape:
    """A frozen record with the CSR surface; frozen only when its
    ``row_nnz`` array is."""

    rows: int
    cols: int
    nnz: int
    row_nnz: np.ndarray


def cached_keys(name):
    """Cache keys of argument ``name`` (keys are ``(name, id)``)."""
    return [key for key in signature_mod._SPARSE_FEATURES if key[0] == name]


class TestFrozenInputCache:
    """Sparse features of a frozen input are derived once, and only for
    an input whose features cannot change."""

    def test_cached_features_equal_uncached(self):
        config = ReproConfig()
        for matrix in (
            random_csr(2048, 2048, 0.01, config),
            diagonal_csr(1024),
            CsrMatrix(
                np.array([0, 0, 3, 3]),
                np.array([0, 1, 2]),
                np.ones(3, dtype=np.float32),
                (3, 3),
            ),
        ):
            args = {"matrix": matrix}
            uncached = signature_mod._sparse_features("matrix", matrix)
            first = derive_signature("spmv", "cpu", args, 512)
            assert signature_mod._SPARSE_FEATURES[("matrix", id(matrix))][1] == (
                uncached
            )
            again = derive_signature("spmv", "cpu", args, 512)
            assert again == first
            assert set(uncached) <= set(first.features)

    def test_features_are_derived_once_per_input(self, monkeypatch):
        matrix = diagonal_csr(128)
        derived = []
        uncached = signature_mod._sparse_features

        def counting(name, value):
            derived.append(name)
            return uncached(name, value)

        monkeypatch.setattr(signature_mod, "_sparse_features", counting)
        signatures = {
            derive_signature("spmv", "cpu", {"matrix": matrix}, 64)
            for _ in range(3)
        }
        assert len(signatures) == 1
        assert derived == ["matrix"]

    def test_one_input_under_two_names_gets_two_entries(self):
        matrix = diagonal_csr(256)
        derive_signature("spmv", "cpu", {"a": matrix, "b": matrix}, 64)
        assert cached_keys("a") == [("a", id(matrix))]
        assert cached_keys("b") == [("b", id(matrix))]

    def test_dead_input_entry_is_gone(self):
        matrix = diagonal_csr(512)
        key = ("dying", id(matrix))
        derive_signature("spmv", "cpu", {"dying": matrix}, 64)
        assert key in signature_mod._SPARSE_FEATURES
        del matrix
        gc.collect()
        assert key not in signature_mod._SPARSE_FEATURES
        assert cached_keys("dying") == []

    def test_an_entry_of_another_object_is_not_served(self):
        """The weak reference must point at the input itself: an entry
        left at a reused ``id`` serves no lookup."""
        matrix = diagonal_csr(64)
        other = random_csr(64, 64, 0.2, ReproConfig())
        key = ("m", id(other))
        signature_mod._SPARSE_FEATURES[key] = (
            signature_mod.weakref.ref(matrix),
            (("m.stale", "1"),),
        )
        try:
            sig = derive_signature("spmv", "cpu", {"m": other}, 64)
        finally:
            signature_mod._SPARSE_FEATURES.pop(key, None)
        assert "m.stale" not in dict(sig.features)
        assert set(signature_mod._sparse_features("m", other)) <= set(sig.features)

    def test_mutable_records_are_never_cached(self):
        writable = FrozenShape(8, 8, 16, np.full(8, 2.0))
        duck = FakeCSR(8, 8, 16, [2.0] * 8)
        for name, value in (("writable", writable), ("duck", duck)):
            before = derive_signature("spmv", "cpu", {name: value}, 64)
            assert cached_keys(name) == []
            # Their features can change behind the same identity, and
            # the signature follows.
            value.row_nnz[:] = [16.0, 0.0] * 4
            after = derive_signature("spmv", "cpu", {name: value}, 64)
            assert cached_keys(name) == []
            assert dict(after.features)[f"{name}.cv"] != dict(
                before.features
            )[f"{name}.cv"]

    def test_a_frozen_record_is_cached(self):
        row_nnz = np.full(8, 2.0)
        row_nnz.setflags(write=False)
        frozen = FrozenShape(8, 8, 16, row_nnz)
        derive_signature("spmv", "cpu", {"frozen": frozen}, 64)
        assert cached_keys("frozen") == [("frozen", id(frozen))]

    def test_threads_churning_inputs_leave_only_live_exact_entries(self):
        """Eight threads derive, drop and re-derive matrices at once (more
        threads than cores, with a short switch interval): every
        signature matches the uncached features, and once the inputs are
        gone no entry is left."""
        kept = [random_csr(128, 128, 0.05, ReproConfig(seed=seed)) for seed in range(4)]
        errors = []

        def churn(worker):
            try:
                for round_ in range(40):
                    fresh = diagonal_csr(64 + (worker + round_) % 5)
                    for name, matrix in (("churn", fresh), ("kept", kept[round_ % 4])):
                        sig = derive_signature("spmv", "cpu", {name: matrix}, 64)
                        expected = signature_mod._sparse_features(name, matrix)
                        if not set(expected) <= set(sig.features):
                            errors.append((worker, round_, name))
                    del fresh
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=churn, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        gc.collect()
        assert cached_keys("churn") == []
        assert sorted(cached_keys("kept")) == sorted(
            ("kept", id(matrix)) for matrix in kept
        )


# ----------------------------------------------------------------------
# The duck-typed derivation as it stood before the Buffer branch
# ----------------------------------------------------------------------

#: Replay locally with ``REPRO_CHAOS_SEED=<seed>`` (the CI flakiness job
#: randomizes it).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def _buffer_features(name, value):
    """Footprint bucket of one buffer-shaped argument."""
    data = np.asarray(value.data)  # type: ignore[attr-defined]
    return ((f"{name}.bytes^2", str(log2_bucket(float(data.nbytes)))),)


def _is_sparse_like(value):
    """Duck-typed CSR shape: rows/cols/nnz/row_nnz attributes."""
    return all(
        hasattr(value, attr) for attr in ("rows", "cols", "nnz", "row_nnz")
    )


def _is_buffer_like(value):
    """Duck-typed dense buffer: a .data payload with .nbytes."""
    data = getattr(value, "data", None)
    return data is not None and hasattr(data, "nbytes")


def reference_signature(kernel, device_kind, args, workload_units):
    """Every argument duck-typed, the frozen-input cache included."""
    _remembered = signature_mod._remembered
    _remember = signature_mod._remember
    _sparse_features = signature_mod._sparse_features
    frozen_record = signature_mod.frozen_record
    features = [("units^2", str(log2_bucket(workload_units)))]
    for name in sorted(args):
        value = args[name]
        sparse = _remembered(name, value)
        if sparse is None and _is_sparse_like(value):
            sparse = _sparse_features(name, value)
            if frozen_record(value):
                _remember(name, value, sparse)
        if sparse is not None:
            features.extend(sparse)
        elif _is_buffer_like(value):
            features.extend(_buffer_features(name, value))
    return WorkloadSignature(
        kernel=kernel,
        device_kind=device_kind,
        features=tuple(sorted(features)),
    )


def reference_key(signature):
    """The key joined on every read, as before it was kept."""
    parts = [signature.kernel, signature.device_kind]
    parts.extend(f"{name}={value}" for name, value in signature.features)
    return "|".join(parts)


class SubBuffer(Buffer):
    """A Buffer subclass: served by duck typing, not the Buffer branch."""


class BufferLike:
    """Duck-typed dense buffer without the Buffer class."""

    def __init__(self, data):
        self.data = data


class Opaque:
    """An argument with neither surface."""


DTYPES = (np.float32, np.float64, np.int32, np.int8, np.complex64, np.bool_)


@st.composite
def buffers(draw, cls=Buffer):
    dtype = draw(st.sampled_from(DTYPES))
    elements = draw(st.integers(min_value=0, max_value=1 << 13))
    space = draw(st.sampled_from(tuple(MemorySpace)))
    read_only = space in (MemorySpace.TEXTURE, MemorySpace.CONSTANT)
    writable = not read_only and draw(st.booleans())
    return cls("b", np.zeros(elements, dtype=dtype), space, writable=writable)


@st.composite
def csr_matrices(draw):
    lengths = draw(st.lists(st.integers(0, 6), max_size=24))
    cols = draw(st.integers(min_value=1, max_value=64))
    indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int32)
    nnz = int(indptr[-1])
    return CsrMatrix(
        indptr,
        np.zeros(nnz, dtype=np.int32),
        np.ones(nnz, dtype=np.float32),
        (len(lengths), cols),
    )


@st.composite
def shaped_records(draw, frozen):
    row_nnz = np.asarray(
        draw(st.lists(st.integers(0, 1 << 10), max_size=16)), dtype=float
    )
    if frozen:
        row_nnz.setflags(write=False)
        return FrozenShape(
            draw(st.integers(0, 1 << 12)),
            draw(st.integers(0, 1 << 12)),
            draw(st.integers(0, 1 << 16)),
            row_nnz,
        )
    return FakeCSR(
        draw(st.integers(0, 1 << 12)),
        draw(st.integers(0, 1 << 12)),
        draw(st.integers(0, 1 << 16)),
        row_nnz,
    )


ARGUMENTS = st.one_of(
    buffers(),
    buffers(SubBuffer),
    st.integers(0, 1 << 20).map(lambda n: BufferLike(np.zeros(n, np.int8))),
    st.just(BufferLike(None)),
    csr_matrices(),
    shaped_records(frozen=True),
    shaped_records(frozen=False),
    st.integers(),
    st.floats(allow_nan=True),
    st.sampled_from((None, "text", Opaque(), (1, 2))),
)


class TestBufferBranchEquivalence:
    """The Buffer branch gives every argument mix the duck-typed
    derivation's features and key."""

    @seed(CHAOS_SEED)
    @settings(max_examples=300, deadline=None)
    @given(
        args=st.dictionaries(
            st.sampled_from(("a", "b", "matrix", "x", "y", "z")),
            ARGUMENTS,
            max_size=5,
        ),
        units=st.integers(min_value=0, max_value=1 << 20),
        kind=st.sampled_from(("cpu", "gpu")),
    )
    def test_features_and_key_match_the_duck_typed_reference(
        self, args, units, kind
    ):
        derived = derive_signature("k", kind, args, units)
        reference = reference_signature("k", kind, args, units)
        assert derived.features == reference.features
        assert derived == reference
        assert derived.key == reference_key(reference)

    def test_served_arguments_match_the_reference(self):
        config = ReproConfig()
        args = {
            "matrix": random_csr(512, 512, 0.02, config),
            "x": Buffer("x", np.ones(512, np.float32), writable=False),
            "y": Buffer("y", np.zeros(512, np.float32)),
            "alpha": 2.0,
        }
        derived = derive_signature("spmv", "cpu", args, 512)
        reference = reference_signature("spmv", "cpu", args, 512)
        assert derived == reference
        assert derived.key == reference_key(reference)


class TestKeptKey:
    """The key is joined once, when a signature is built, and follows
    its fields."""

    def test_key_is_kept_on_the_instance(self):
        sig = WorkloadSignature("k", "cpu", (("a", "1"),))
        assert sig.key is sig.key
        assert sig.key == reference_key(sig)

    def test_replace_rejoins_the_key(self):
        sig = WorkloadSignature("k", "cpu", (("a", "1"),))
        assert sig.key == "k|cpu|a=1"
        same = dataclasses.replace(sig)
        assert same.key == sig.key and same == sig
        for changes in (
            {"kernel": "other"},
            {"device_kind": "gpu"},
            {"features": (("a", "2"), ("c", "3"))},
        ):
            changed = dataclasses.replace(sig, **changes)
            assert changed.key == reference_key(changed)
            assert changed.key != sig.key

    def test_key_survives_pickling(self):
        sig = WorkloadSignature("k", "cpu", (("a", "1"), ("b", "2")))
        clone = pickle.loads(pickle.dumps(sig))
        assert clone == sig and hash(clone) == hash(sig)
        assert clone.key == sig.key == reference_key(sig)

    def test_equal_signatures_built_apart_share_key_and_hash(self):
        args = _buffer_args(4096)
        first = derive_signature("k", "cpu", args, 64)
        second = derive_signature("k", "cpu", _buffer_args(4096), 64)
        explicit = WorkloadSignature("k", "cpu", first.features)
        for other in (second, explicit):
            assert other == first and hash(other) == hash(first)
            assert other.key == first.key == reference_key(first)
        assert len({first, second, explicit}) == 1

    def test_derivations_of_a_class_share_one_signature(self):
        first = derive_signature("k", "cpu", _buffer_args(4096), 64)
        again = derive_signature("k", "cpu", _buffer_args(4096), 64)
        other = derive_signature("k", "gpu", _buffer_args(4096), 64)
        assert again is first
        assert other is not first and other.key != first.key

    def test_argument_order_does_not_matter(self):
        args = _buffer_args(4096)
        args["alpha"] = 2.0
        flipped = dict(reversed(list(args.items())))
        assert list(flipped) != list(args)
        assert derive_signature("k", "cpu", flipped, 64) == derive_signature(
            "k", "cpu", args, 64
        )

    def test_key_is_not_a_field(self):
        sig = WorkloadSignature("k", "cpu", (("a", "1"),))
        assert [f.name for f in dataclasses.fields(sig)] == [
            "kernel",
            "device_kind",
            "features",
        ]
        assert dataclasses.asdict(sig) == {
            "kernel": "k",
            "device_kind": "cpu",
            "features": (("a", "1"),),
        }
