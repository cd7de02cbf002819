"""Weighted Bloom Filter (WBF) — the paper's novel data structure.

A WBF is a Bloom filter in which every set bit additionally carries the weights of
the values hashed onto it ("each bit with 1 ... has a pointer pointing to the weight
of corresponding hashed values", Section II-B).  Insertion attaches the inserted
value's weight to each of its ``k`` bits; a *weighted query* returns the set of
weights consistent with **all** ``k`` bits of the probed value — empty if any bit is
0, or if the bits are 1 but share no common weight (which is how the WBF suppresses
the cross-pattern false positives a plain Bloom filter accepts).

The structure is agnostic to the weight type: any hashable value can be attached.
DI-matching uses exact :class:`fractions.Fraction` weights qualified by the query
they belong to (``(query_id, Fraction)`` tuples) so that the aggregation rule of
Algorithm 3 ("delete IDs whose weight sum exceeds 1") can test equality without
floating-point tolerance and without mixing weights across unrelated query patterns.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.bloom.analysis import expected_false_positive_rate
from repro.bloom.bitset import BitArray
from repro.bloom.hashing import HashFamily
from repro.utils.serialization import FLOAT_BYTES
from repro.utils.validation import require_positive


class WeightedBloomFilter:
    """Bloom filter whose set bits carry the weights of the values that set them.

    ``backend`` selects the bit-storage backend ("auto", "python" or "numpy",
    see :mod:`repro.bloom.backend`); "auto" uses NumPy when available.  The
    weight map is a sparse Python dict on every backend — only the bit array and
    the position arithmetic are vectorized.
    """

    def __init__(
        self, bit_count: int, hash_count: int, seed: int = 0, backend: str = "auto"
    ) -> None:
        require_positive(bit_count, "bit_count")
        require_positive(hash_count, "hash_count")
        self._bits = BitArray(bit_count, backend=backend)
        self._hashes = HashFamily(hash_count, bit_count, seed=seed)
        # Sparse map: bit index -> weights attached to that bit.  Values are
        # plain sets when built by insertion; filters decoded from the wire
        # hold interned frozensets shared across positions (copy-on-write: an
        # insertion replaces the frozenset with a mutable copy for that
        # position only).
        self._weights: dict[int, "set[Hashable] | frozenset"] = {}
        self._item_count = 0
        self._revision = 0
        # revision -> (weights tuple, position mask dict, mask->frozenset memo);
        # see _weight_mask_index.
        self._mask_index: tuple[int, tuple, dict[int, int], dict[int, frozenset]] | None = None

    # -- properties ------------------------------------------------------------

    @property
    def bit_count(self) -> int:
        """Filter length ``m`` in bits."""
        return len(self._bits)

    @property
    def hash_count(self) -> int:
        """Number of hash functions ``k``."""
        return self._hashes.hash_count

    @property
    def seed(self) -> int:
        """Seed of the hash family (shared between center and stations)."""
        return self._hashes.seed

    @property
    def item_count(self) -> int:
        """Number of (value, weight) insertions performed."""
        return self._item_count

    @property
    def hash_family(self) -> HashFamily:
        """The hash family used by this filter."""
        return self._hashes

    @property
    def backend_name(self) -> str:
        """Name of the bit-storage backend in use."""
        return self._bits.backend_name

    @property
    def revision(self) -> int:
        """Mutation counter, bumped by every insertion.

        The wire codec keys its per-object encoding cache on this, so encoding
        a filter, mutating it, and encoding again can never serve stale bytes.
        """
        return self._revision

    # -- construction from wire state ----------------------------------------------

    @classmethod
    def from_state(
        cls,
        bit_count: int,
        hash_count: int,
        seed: int,
        bits: bytes,
        weights: dict[int, frozenset],
        item_count: int,
        backend: str = "auto",
    ) -> "WeightedBloomFilter":
        """Reconstruct a filter from decoded wire state.

        ``bits`` is the canonical bit-array serialization and ``weights`` maps
        bit positions to the weight sets attached there; ``backend`` is the
        local storage choice and never travels on the wire.  Raises
        :class:`ValueError` when a weight is attached at a bit that is not
        set: every other method keeps weights on set bits only, and the mask
        probe (:meth:`consistent_weights_over`) relies on it.
        """
        wbf = cls(bit_count, hash_count, seed=seed, backend=backend)
        wbf._bits = BitArray.from_bytes(bit_count, bits, backend=backend)
        # Keep decoded frozensets by reference: the codec interns one frozenset
        # per distinct index combination, so positions sharing a weight set
        # share one object instead of each copying it into a fresh set.
        # Insertions copy-on-write (see :meth:`add`).
        attached_at: dict[int, "set[Hashable] | frozenset"] = {}
        for position, attached in weights.items():
            position = int(position)
            # Canonical layout: bit ``i`` is bit ``i & 7`` of byte ``i >> 3``.
            if not (0 <= position < bit_count and bits[position >> 3] >> (position & 7) & 1):
                raise ValueError(f"weights attached at bit {position}, which is not set")
            attached_at[position] = attached if type(attached) is frozenset else set(attached)
        wbf._weights = attached_at
        wbf._item_count = int(item_count)
        return wbf

    def weight_entries(self) -> list[tuple[int, frozenset]]:
        """The sparse weight map as ``(position, weights)`` pairs, positions ascending.

        This is the canonical iteration order the wire codec serializes, so two
        filters holding the same weights produce identical bytes regardless of
        insertion order or bit backend.
        """
        return [
            (position, frozenset(self._weights[position]))
            for position in sorted(self._weights)
        ]

    def __eq__(self, other: object) -> bool:
        """Structural equality: parameters, bits and weight map (backend-agnostic)."""
        if not isinstance(other, WeightedBloomFilter):
            return NotImplemented
        return (
            self.bit_count == other.bit_count
            and self.hash_count == other.hash_count
            and self.seed == other.seed
            and self._item_count == other._item_count
            and self._bits.to_bytes() == other._bits.to_bytes()
            and {p: frozenset(w) for p, w in self._weights.items()}
            == {p: frozenset(w) for p, w in other._weights.items()}
        )

    __hash__ = None  # mutable: adding items changes equality

    # -- insertion ---------------------------------------------------------------

    def add(self, item: object, weight: Hashable) -> None:
        """Insert ``item`` and attach ``weight`` to each of its bits."""
        try:
            hash(weight)
        except TypeError as error:
            raise TypeError(
                f"weight must be hashable, got {type(weight).__name__}"
            ) from error
        weights = self._weights
        for position in self._hashes.positions(item):
            self._bits.set(position)
            attached = weights.get(position)
            if attached is None:
                weights[position] = {weight}
            elif type(attached) is frozenset:
                # Copy-on-write: this position held a frozenset shared with
                # other positions by the wire decoder; give it a private
                # mutable copy before touching it.
                mutable = set(attached)
                mutable.add(weight)
                weights[position] = mutable
            else:
                attached.add(weight)
        self._item_count += 1
        self._revision += 1

    def add_many(self, items: Iterable[object], weight: Hashable) -> None:
        """Insert every item of ``items`` with the same ``weight`` (batched)."""
        self.insert_many(items, weight)

    def insert_many(self, items: Iterable[object], weight: Hashable) -> None:
        """Batched insert: one position computation and one bit write per batch.

        The ``n × k`` positions are computed in a single
        :meth:`~repro.bloom.hashing.HashFamily.indices_batch` call and the bits
        set in one backend operation; the weight map is updated over the
        deduplicated position set (many items share bits, so this does far fewer
        dict operations than per-item insertion).
        """
        try:
            hash(weight)
        except TypeError as error:
            raise TypeError(
                f"weight must be hashable, got {type(weight).__name__}"
            ) from error
        items = list(items)
        if not items:
            return
        rows = self._hashes.indices_batch(items)
        flat = [position for row in rows for position in row]
        self._bits.set_many(flat)
        weights = self._weights
        for position in set(flat):
            attached = weights.get(position)
            if attached is None:
                weights[position] = {weight}
            elif type(attached) is frozenset:
                mutable = set(attached)
                mutable.add(weight)
                weights[position] = mutable
            else:
                attached.add(weight)
        self._item_count += len(items)
        self._revision += 1

    # -- queries -----------------------------------------------------------------

    def contains(self, item: object) -> bool:
        """Plain membership query, ignoring weights (no false negatives)."""
        return all(self._bits.get(position) for position in self._hashes.positions(item))

    def contains_many(self, items: Sequence[object]) -> list[bool]:
        """Batched membership probe: one verdict per item, in order."""
        return self._bits.all_set_rows(self._hashes.indices_batch(items))

    def __contains__(self, item: object) -> bool:
        return self.contains(item)

    def query_weights(self, item: object) -> frozenset:
        """Return the weights consistent with every bit of ``item``.

        The result is the intersection of the weight sets attached to the ``k`` bit
        positions of ``item``; it is empty when any bit is 0 **or** when the bits are
        set but were set by values of differing weights (Algorithm 2's rejection
        condition).
        """
        return self.query_weights_at(self._hashes.positions(item))

    def query_weights_at(
        self, positions: Iterable[int], *, bits_checked: bool = False
    ) -> frozenset:
        """Same as :meth:`query_weights` but for precomputed bit positions.

        Base stations probing one filter with many candidate patterns precompute the
        positions once per candidate (they depend only on ``m``, ``k`` and the seed)
        and reuse them; this method is the fast path for that case.  Callers that
        already verified all bits through a vectorized
        :meth:`bits_all_set_rows` pre-check pass ``bits_checked=True`` to skip the
        per-position scalar re-probe (a bit with an attached weight is set by
        construction, so the intersection alone is sufficient then).
        """
        common: set[Hashable] | None = None
        weights = self._weights
        empty: frozenset = frozenset()
        for position in positions:
            if bits_checked:
                attached = weights.get(position)
                if attached is None:
                    return empty
            else:
                if not self._bits.get(position):
                    return empty
                attached = weights.get(position, set())
            common = set(attached) if common is None else (common & attached)
            if not common:
                return empty
        return frozenset(common if common is not None else ())

    def query_many(self, items: Sequence[object]) -> list[frozenset]:
        """Batched weighted query: one weight set per item, in order.

        The bit-membership test for all ``n × k`` positions runs as a single
        vectorized backend row-test; the (sparse, Python-side) weight
        intersection runs only for the items whose bits all passed.
        """
        items = list(items)
        rows = self._hashes.indices_batch(items)
        return self.query_many_at(rows)

    def bits_all_set_rows(self, rows: Sequence[Sequence[int]]) -> list[bool]:
        """For each row of bit positions, True iff every bit is set.

        The vectorized pre-check used by the batched station matcher: most
        candidates fail on bits, and this rejects them all in one backend call
        without touching the weight map.
        """
        return self._bits.all_set_rows(rows)

    def query_many_at(self, rows: Sequence[Sequence[int]]) -> list[frozenset]:
        """Same as :meth:`query_many` but for precomputed position rows."""
        passed = self._bits.all_set_rows(rows)
        results: list[frozenset] = []
        weights = self._weights
        empty = frozenset()
        for row, bits_ok in zip(rows, passed):
            if not bits_ok:
                results.append(empty)
                continue
            common: set[Hashable] | None = None
            for position in row:
                attached = weights.get(position, set())
                common = set(attached) if common is None else (common & attached)
                if not common:
                    break
            results.append(frozenset(common) if common else empty)
        return results

    # -- batched consistency probe (mask index) ------------------------------------

    #: Class-level switch for the integer-mask probe index.  Benchmarks flip it
    #: off to measure the per-row set-intersection path; results are identical
    #: either way (see :meth:`consistent_weights_over`).
    MASK_INDEX_ENABLED = True

    def _weight_mask_index(
        self,
    ) -> tuple[int, tuple, dict[int, int], dict[int, frozenset]]:
        """Lazily built probe index: each position's weight set as an int bitmask.

        Distinct weights get consecutive bit numbers; a position's mask has the
        bits of its attached weights set.  Intersecting weight sets across many
        positions then collapses to integer ``&``.  The index is keyed on
        :attr:`revision` so any insertion invalidates it, and the final
        ``mask -> frozenset`` memo interns result sets so repeated matches of
        the same weight combination return one shared object.
        """
        index = self._mask_index
        if index is not None and index[0] == self._revision:
            return index
        weight_bits: dict[Hashable, int] = {}
        weight_list: list[Hashable] = []
        masks: dict[int, int] = {}
        for position, attached in self._weights.items():
            mask = 0
            for weight in attached:
                bit = weight_bits.get(weight)
                if bit is None:
                    bit = len(weight_list)
                    weight_bits[weight] = bit
                    weight_list.append(weight)
                mask |= 1 << bit
            masks[position] = mask
        index = (self._revision, tuple(weight_list), masks, {0: frozenset()})
        self._mask_index = index
        return index

    def consistent_weights_over(self, positions: Iterable[int]) -> frozenset:
        """Weights attached at **every** one of ``positions``.

        Equivalent to intersecting :meth:`query_weights_at` over all the
        positions at once: a position with no attached weights, or an empty
        cross-position intersection, yields the empty frozenset.  An empty
        ``positions`` iterable also yields the empty frozenset — matching the
        matcher's "no rows → no match" rule.  No bit pre-check is needed: the
        index has keys only at positions with attached weights, and weights
        sit only on set bits (:meth:`add` and :meth:`insert_many` set the bit
        with the weight, :meth:`from_state` refuses a weight on a clear bit),
        so a non-empty result implies every probed bit is set.
        """
        revision, weight_list, masks, memo = self._weight_mask_index()
        empty: frozenset = frozenset()
        acc = -1
        get = masks.get
        for position in positions:
            mask = get(position)
            if mask is None:
                return empty
            acc &= mask
            if not acc:
                return empty
        if acc == -1:
            return empty
        result = memo.get(acc)
        if result is None:
            members = []
            remaining = acc
            while remaining:
                low = remaining & -remaining
                members.append(weight_list[low.bit_length() - 1])
                remaining ^= low
            result = frozenset(members)
            memo[acc] = result
        return result

    # -- pickling ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Drop the derived mask index: it is bulky and rebuilt on demand."""
        state = dict(self.__dict__)
        state["_mask_index"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # -- introspection -------------------------------------------------------------

    def fill_ratio(self) -> float:
        """Fraction of bits currently set."""
        return self._bits.count() / len(self._bits)

    def estimated_false_positive_rate(self) -> float:
        """False-positive probability of the underlying (unweighted) membership test."""
        return expected_false_positive_rate(
            bit_count=self.bit_count,
            hash_count=self.hash_count,
            item_count=self._item_count,
        )

    def distinct_weights(self) -> set:
        """All distinct weights stored anywhere in the filter."""
        result: set[Hashable] = set()
        for attached in self._weights.values():
            result |= attached
        return result

    def size_bytes(self) -> int:
        """Estimate-model serialized size of the WBF.

        Models the bit array, a table of the distinct weights (8 bytes each —
        weights are repeated across many bits, so they are stored once), and a
        2-byte table index per (set bit, weight) pointer.  This is what makes the WBF
        marginally larger than a plain Bloom filter of the same length — the storage
        trade-off discussed with Figure 4(d).  The *real* encoded size charged by
        the simulator comes from ``repro.wire`` (same structure: canonical bits, a
        sorted weight table, per-set-bit index lists); the test suite holds this
        estimate within a documented factor of it.
        """
        weight_pointer_bytes = 2
        pointer_entries = sum(len(attached) for attached in self._weights.values())
        distinct = len(self.distinct_weights())
        return (
            self._bits.size_bytes()
            + distinct * FLOAT_BYTES
            + pointer_entries * weight_pointer_bytes
        )

    def __repr__(self) -> str:
        return (
            f"WeightedBloomFilter(m={self.bit_count}, k={self.hash_count}, "
            f"items={self._item_count}, fill={self.fill_ratio():.3f}, "
            f"weights={len(self.distinct_weights())})"
        )
