"""Property-based tests: LSM semantics against a dictionary reference model."""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platforms.bigtable import sstable as sstable_module
from repro.platforms.bigtable import BigTableStore
from repro.platforms.bigtable.compaction import merge_sstables
from repro.platforms.bigtable.memtable import Memtable
from repro.platforms.bigtable.sstable import BloomFilter, SSTable
from repro.sim import Environment
from repro.workloads import BIGTABLE, build_profile
from tests.strategies import lsm_keys as keys
from tests.strategies import lsm_values as values
from tests.strategies import run_contents


def make_run(contents: dict, index: int) -> SSTable:
    entries = sorted(contents.items())
    return SSTable(entries, path=f"/r{index}", level=0)


class TestMergeAgainstReferenceModel:
    @given(runs=st.lists(run_contents, min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_minor_merge_equals_newest_wins_fold(self, runs):
        """Merging runs (newest first) must equal folding the dicts oldest
        to newest, tombstones retained."""
        sstables = [make_run(contents, i) for i, contents in enumerate(runs)]
        merged = merge_sstables(
            sstables, path="/m", level=1, drop_tombstones=False
        )
        reference: dict = {}
        for contents in reversed(runs):  # oldest first; newer overwrite
            reference.update(contents)
        assert merged is not None
        assert dict(merged.items()) == reference

    @given(runs=st.lists(run_contents, min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_major_merge_drops_exactly_the_tombstones(self, runs):
        sstables = [make_run(contents, i) for i, contents in enumerate(runs)]
        merged = merge_sstables(sstables, path="/m", level=2, drop_tombstones=True)
        reference: dict = {}
        for contents in reversed(runs):
            reference.update(contents)
        live = {k: v for k, v in reference.items() if v is not None}
        if not live:
            assert merged is None
        else:
            assert dict(merged.items()) == live

    @given(runs=st.lists(run_contents, min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_merge_output_sorted_and_unique(self, runs):
        sstables = [make_run(contents, i) for i, contents in enumerate(runs)]
        merged = merge_sstables(sstables, path="/m", level=1, drop_tombstones=False)
        merged_keys = [k for k, _ in merged.items()]
        assert merged_keys == sorted(set(merged_keys))


class TestMemtableAgainstReferenceModel:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["put", "delete"]), keys, values),
            max_size=40,
        ),
        probes=st.lists(keys, max_size=10),
    )
    @settings(max_examples=60)
    def test_get_matches_dict(self, ops, probes):
        table = Memtable()
        reference: dict = {}
        for op, key, value in ops:
            if op == "put":
                table.put(key, value)
                reference[key] = value
            else:
                table.delete(key)
                reference[key] = None
        for key in probes:
            assert table.get(key) == reference.get(key)
        assert dict(table.items()) == reference

    @given(
        entries=st.dictionaries(keys, st.integers(), min_size=1, max_size=20),
        bounds=st.tuples(keys, keys),
    )
    @settings(max_examples=40)
    def test_scan_matches_sorted_slice(self, entries, bounds):
        lo, hi = sorted(bounds)
        table = Memtable()
        for key, value in entries.items():
            table.put(key, value)
        expected = [(k, entries[k]) for k in sorted(entries) if lo <= k < hi]
        assert list(table.scan(lo, hi)) == expected


def reference_positions(key: str, num_hashes: int, num_bits: int) -> list[int]:
    """The per-key bloom hashing algorithm, one hash at a time: hash ``i``
    is the little-endian word at byte ``(4*i) % 28`` of the SHA-256 digest,
    modulo the bit count."""
    digest = hashlib.sha256(key.encode()).digest()
    positions = []
    for i in range(num_hashes):
        chunk = digest[(4 * i) % 28 : (4 * i) % 28 + 4]
        positions.append(int.from_bytes(chunk, "little") % num_bits)
    return positions


def reference_bits(bloom: BloomFilter, keys) -> bytearray:
    bits = bytearray((bloom.num_bits + 7) // 8)
    for key in keys:
        for position in reference_positions(key, bloom.num_hashes, bloom.num_bits):
            bits[position // 8] |= 1 << (position % 8)
    return bits


def reference_contains(bits: bytearray, bloom: BloomFilter, key: str) -> bool:
    return all(
        bits[position // 8] & (1 << (position % 8))
        for position in reference_positions(key, bloom.num_hashes, bloom.num_bits)
    )


#: Keys with repeats (a small pool) and arbitrary, often non-ASCII, text.
bloom_keys = st.one_of(st.sampled_from(["a", "row0-000001", "é", "日本語"]), st.text(max_size=12))
#: Rates from 0.5 down to 1e-6: ``num_hashes`` lands on both sides of 7,
#: where hashes start to reuse the digest's seven words.
false_positive_rates = st.one_of(
    st.floats(min_value=0.01, max_value=0.5), st.floats(min_value=1e-6, max_value=1e-3)
)


class TestBloomAgainstReferenceAlgorithm:
    @given(
        keys=st.lists(bloom_keys, max_size=40),
        probes=st.lists(bloom_keys, max_size=20),
        expected_items=st.integers(min_value=1, max_value=200),
        rate=false_positive_rates,
    )
    @settings(max_examples=120)
    def test_bitsets_match_the_per_key_reference(self, keys, probes, expected_items, rate):
        batched = BloomFilter(expected_items, rate)
        batched.add_many(keys)
        one_by_one = BloomFilter(expected_items, rate)
        for key in keys:
            one_by_one.add(key)
        expected = reference_bits(batched, keys)
        assert batched._bits == expected
        assert one_by_one._bits == expected
        assert batched.items_added == one_by_one.items_added == len(keys)
        for key in keys + probes:
            assert batched.might_contain(key) == reference_contains(expected, batched, key)

    @given(
        key=bloom_keys,
        expected_items=st.integers(min_value=1, max_value=200),
        rate=false_positive_rates,
    )
    @settings(max_examples=80)
    def test_might_contain_reads_every_reference_position(self, key, expected_items, rate):
        """With exactly the key's reference bits set the key is reported, and
        clearing any one of them hides it."""
        bloom = BloomFilter(expected_items, rate)
        positions = set(reference_positions(key, bloom.num_hashes, bloom.num_bits))
        for cleared in [None, *positions]:
            bloom._bits = bytearray((bloom.num_bits + 7) // 8)
            for position in positions - {cleared}:
                bloom._bits[position // 8] |= 1 << (position % 8)
            assert bloom.might_contain(key) == (cleared is None)

    def test_rate_ranges_straddle_seven_hashes(self):
        for expected_items in (1, 200):
            for rate in (0.5, 0.01):
                assert BloomFilter(expected_items, rate).num_hashes <= 7
            for rate in (1e-3, 1e-6):
                assert BloomFilter(expected_items, rate).num_hashes > 7

    def test_tables_from_a_bigtable_run_match_the_reference(self, monkeypatch):
        """Every SSTable a serving BigTable store builds -- seeds, flushes and
        compaction merges -- carries the reference bitset for its keys."""
        built: list[SSTable] = []
        original_init = sstable_module.SSTable.__init__

        def recording_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(sstable_module.SSTable, "__init__", recording_init)
        env = Environment()
        store = BigTableStore(env, build_profile(BIGTABLE), seed=4)
        env.run(until=env.process(store.serve(80)))
        assert store.compactor.compactions_run > 0
        assert any(table.level > 1 for table in built)
        for table in built:
            keys = [key for key, _ in table.items()]
            assert table.bloom._bits == reference_bits(table.bloom, keys)
            assert table.bloom.items_added == len(keys)
