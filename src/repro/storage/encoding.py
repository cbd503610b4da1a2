"""Lightweight columnar compression with operate-on-encoded-data kernels.

Section 8 of the paper shows the engines saturating neither memory
bandwidth nor cores because scans drag full-width (8-byte) values
through the hierarchy.  MorphStore (Damme et al., VLDB'20) and the
analytical-formats survey (Liu et al.) make the counterpoint:
*lightweight* compression -- dictionary, run-length, frame-of-reference
bit-packing -- cuts the bytes a scan moves by 2-8x, and the common
operators can run **directly on the encoded data** instead of decoding
first.  This module supplies that storage tier:

- :class:`DictionaryEncoding` -- sorted-unique dictionary + small-int
  codes, for low-cardinality columns of any dtype (flags, discounts,
  quantities).  The dictionary is sorted, so range predicates translate
  into *code-domain* comparisons via one ``searchsorted`` on the
  dictionary.
- :class:`RLEEncoding` -- run values + cumulative run ends, for sorted
  keys (``l_orderkey``).  Predicates evaluate per *run*, then expand.
- :class:`ForBitPackEncoding` -- frame-of-reference bit-packing for
  bounded integers (dates, keys, line numbers): values are rebased to
  ``value - reference`` codes of ``bits`` bits, packed into 64-bit
  words by vectorized shift/or kernels (:func:`pack_bits` /
  :func:`unpack_bits`).  Predicates compare byte-aligned scan codes
  against the rebased threshold; the full-width values are never
  materialised.

:class:`EncodedColumn` wraps one encoding behind the
:class:`~repro.storage.column.Column` read API (``values``, ``dtype``,
``itemsize``, ``nbytes``, ``take``), so every consumer that does not
opt into the code-domain kernels sees a transparent decode.  The
*logical* properties (``dtype``, ``itemsize``, ``nbytes``) deliberately
report the decoded shape: all work-profile byte accounting stays
bit-identical to raw execution, and the encoded footprint is exposed
separately (``encoded_nbytes``, ``scan_itemsize``) for the compression
analyses.

The policy (:func:`choose_encoding`) picks a codec from cheap column
stats at load time; ``REPRO_ENCODING=off`` disables the whole tier.
"""

from __future__ import annotations

import math

import numpy as np

from repro import settings

#: Policy bounds (see :func:`choose_encoding`).
MAX_DICT_SIZE = 4096
MAX_FOR_BITS = 32
#: A sorted column is RLE-encoded when its mean run length is >= 2.
RLE_MIN_RUN_LENGTH = 2.0
#: Cardinality probe: sample size and the sample-cardinality cutoff
#: above which a float column is assumed high-cardinality without
#: paying a full ``np.unique`` sort.
_PROBE_SAMPLE = 4096
_PROBE_MAX_SAMPLE_CARDINALITY = 512


#: Largest FoR code width the count-based aggregation path will
#: bincount over (2**16 bins); wider domains use the integer-sum
#: identity or decode.
AGG_MAX_BITS = 16

#: Every |value| <= 2**53 converts to float64 exactly, which is what
#: makes the FoR integer-sum identity bit-identical to the decoded path.
_EXACT_FLOAT_BOUND = 1 << 53


def selection_mask(selected, length: int) -> np.ndarray | None:
    """Normalize ``selected`` (bool mask / indices / None) to a bool
    mask of ``length`` rows, or None for "all rows"."""
    if selected is None:
        return None
    selected = np.asarray(selected)
    if selected.dtype == np.bool_:
        return selected
    mask = np.zeros(length, dtype=bool)
    mask[selected] = True
    return mask


def _code_dtype(max_code: int) -> np.dtype:
    """Smallest unsigned dtype that holds codes up to ``max_code``."""
    for candidate in (np.uint8, np.uint16, np.uint32, np.uint64):
        if max_code <= np.iinfo(candidate).max:
            return np.dtype(candidate)
    raise ValueError(f"code {max_code} exceeds uint64")


# ----------------------------------------------------------------------
# Bit-packing kernels
# ----------------------------------------------------------------------
def pack_bits(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack unsigned ``codes`` (< 2**bits) into a uint64 word stream.

    Word-aligned layout: ``64 // bits`` codes per word, low bits first;
    the last word is zero-padded.  Fully vectorized (one shift and one
    OR-reduction over a ``(n_words, per_word)`` view).
    """
    if not 1 <= bits <= 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    per_word = 64 // bits
    codes = np.asarray(codes)
    n = len(codes)
    n_words = -(-n // per_word) if n else 0
    padded = np.zeros(n_words * per_word, dtype=np.uint64)
    padded[:n] = codes.astype(np.uint64)
    shifts = (np.arange(per_word, dtype=np.uint64) * np.uint64(bits))
    lanes = padded.reshape(n_words, per_word) << shifts
    return np.bitwise_or.reduce(lanes, axis=1)


def unpack_bits(words: np.ndarray, bits: int, length: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: the first ``length`` codes as uint64."""
    if not 1 <= bits <= 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    per_word = 64 // bits
    words = np.asarray(words, dtype=np.uint64)
    shifts = (np.arange(per_word, dtype=np.uint64) * np.uint64(bits))
    mask = np.uint64((1 << bits) - 1) if bits < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    lanes = (words[:, None] >> shifts) & mask
    return lanes.ravel()[:length]


# ----------------------------------------------------------------------
# Predicate helpers
# ----------------------------------------------------------------------
#: Supported code-domain comparison operators.
OPS = ("le", "lt", "ge", "gt", "eq")

_RAW_OPS = {
    "le": lambda a, b: a <= b,
    "lt": lambda a, b: a < b,
    "ge": lambda a, b: a >= b,
    "gt": lambda a, b: a > b,
    "eq": lambda a, b: a == b,
}


def compare_values(values: np.ndarray, op: str, threshold) -> np.ndarray:
    """The decoded-domain comparison the code-domain kernels must match."""
    return _RAW_OPS[op](values, threshold)


def _const_mask(n: int, value: bool) -> np.ndarray:
    return np.full(n, value, dtype=bool)


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------
class DictionaryEncoding:
    """Sorted dictionary + minimal-width codes.

    The dictionary is sorted, so code order equals value order and any
    range predicate becomes a single unsigned comparison on the codes
    after one ``searchsorted`` against the (tiny) dictionary.
    """

    kind = "dict"

    def __init__(self, dictionary: np.ndarray, codes: np.ndarray):
        self.dictionary = dictionary
        self.codes = codes

    @classmethod
    def encode(cls, values: np.ndarray, dictionary: np.ndarray | None = None):
        """Encode ``values``; ``dictionary`` (sorted, complete) skips the
        ``np.unique`` sort when the policy already probed it."""
        values = np.asarray(values)
        if dictionary is None:
            dictionary, inverse = np.unique(values, return_inverse=True)
            codes = inverse.astype(_code_dtype(max(len(dictionary) - 1, 0)))
            return cls(dictionary, codes)
        codes = np.searchsorted(dictionary, values).astype(
            _code_dtype(max(len(dictionary) - 1, 0))
        )
        return cls(dictionary, codes)

    @property
    def length(self) -> int:
        return len(self.codes)

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        return self.dictionary[self.codes[lo:hi]]

    def compare(self, op: str, threshold, lo: int, hi: int) -> np.ndarray:
        codes = self.codes[lo:hi]
        n_dict = len(self.dictionary)
        if n_dict == 0:
            return _const_mask(len(codes), False)
        if op in ("le", "lt"):
            # codes < cut pass.
            side = "right" if op == "le" else "left"
            cut = int(np.searchsorted(self.dictionary, threshold, side=side))
            if cut <= 0:
                return _const_mask(len(codes), False)
            if cut >= n_dict:
                return _const_mask(len(codes), True)
            return codes < codes.dtype.type(cut)
        if op in ("ge", "gt"):
            # codes >= cut pass.
            side = "left" if op == "ge" else "right"
            cut = int(np.searchsorted(self.dictionary, threshold, side=side))
            if cut <= 0:
                return _const_mask(len(codes), True)
            if cut >= n_dict:
                return _const_mask(len(codes), False)
            return codes >= codes.dtype.type(cut)
        if op == "eq":
            cut = int(np.searchsorted(self.dictionary, threshold))
            if cut >= n_dict or self.dictionary[cut] != threshold:
                return _const_mask(len(codes), False)
            return codes == codes.dtype.type(cut)
        raise ValueError(f"unsupported op {op!r}")

    def code_counts(self, lo: int, hi: int, selected=None) -> np.ndarray:
        """Occurrences of each dictionary code over rows ``[lo, hi)``.

        The rebase contract: ``sum(decoded[lo:hi][selected])`` equals
        ``sum(counts[c] * float64(dictionary[c]))`` exactly -- decoding
        is a gather through the dictionary, so the multiset of summed
        values is fully described by these counts.
        """
        codes = self.codes[lo:hi]
        if selected is not None:
            codes = codes[selected]
        return np.bincount(codes, minlength=len(self.dictionary))

    @property
    def encoded_nbytes(self) -> int:
        return int(self.dictionary.nbytes + self.codes.nbytes)

    @property
    def scan_itemsize(self) -> float:
        return float(self.codes.dtype.itemsize)

    def payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {}, {"dictionary": self.dictionary, "codes": self.codes}

    @classmethod
    def from_payload(cls, meta: dict, arrays: dict[str, np.ndarray]):
        return cls(arrays["dictionary"], arrays["codes"])


class RLEEncoding:
    """Run values + cumulative run ends, for sorted / runny columns."""

    kind = "rle"

    def __init__(self, run_values: np.ndarray, run_ends: np.ndarray):
        self.run_values = run_values
        self.run_ends = run_ends

    @classmethod
    def encode(cls, values: np.ndarray):
        values = np.asarray(values)
        n = len(values)
        if n == 0:
            return cls(values[:0], np.empty(0, dtype=np.int64))
        starts = np.flatnonzero(values[1:] != values[:-1]) + 1
        run_starts = np.concatenate(([0], starts))
        run_ends = np.concatenate((starts, [n])).astype(np.int64)
        return cls(values[run_starts], run_ends)

    @property
    def length(self) -> int:
        return int(self.run_ends[-1]) if len(self.run_ends) else 0

    def _run_span(self, lo: int, hi: int):
        """Runs overlapping ``[lo, hi)`` and the per-run counts inside."""
        first = int(np.searchsorted(self.run_ends, lo, side="right"))
        last = int(np.searchsorted(self.run_ends, hi, side="left"))
        ends = np.minimum(self.run_ends[first : last + 1], hi)
        previous = np.concatenate(([lo], ends[:-1]))
        return first, last, ends - previous

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        if hi <= lo:
            return self.run_values[:0]
        first, last, counts = self._run_span(lo, hi)
        return np.repeat(self.run_values[first : last + 1], counts)

    def compare(self, op: str, threshold, lo: int, hi: int) -> np.ndarray:
        if hi <= lo:
            return np.empty(0, dtype=bool)
        first, last, counts = self._run_span(lo, hi)
        run_mask = compare_values(self.run_values[first : last + 1], op, threshold)
        return np.repeat(run_mask, counts)

    def run_view(self, lo: int, hi: int, selected=None):
        """``(run_values, counts)`` of the run fragments inside
        ``[lo, hi)``: partial runs at the boundaries are split exactly
        (a morsel or prune boundary mid-run contributes only the rows
        inside the range), and a ``selected`` mask further reduces each
        run to its selected row count.

        The rebase contract: ``sum(decoded[lo:hi][selected])`` equals
        ``sum(counts[r] * float64(run_values[r]))`` exactly -- decoding
        repeats each run value ``counts[r]`` times.
        """
        if hi <= lo:
            return self.run_values[:0], np.empty(0, dtype=np.int64)
        first, last, counts = self._run_span(lo, hi)
        values = self.run_values[first : last + 1]
        mask = selection_mask(selected, hi - lo)
        if mask is not None:
            # Per-run selected counts: reduceat over the run offsets
            # inside the range (counts are all >= 1, so offsets are
            # strictly increasing and every segment is non-empty).
            offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
            counts = np.add.reduceat(mask.astype(np.int64), offsets)
        return values, counts

    @property
    def encoded_nbytes(self) -> int:
        return int(self.run_values.nbytes + self.run_ends.nbytes)

    @property
    def scan_itemsize(self) -> float:
        n = self.length
        return float(self.encoded_nbytes) / n if n else 0.0

    def payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {}, {"run_values": self.run_values, "run_ends": self.run_ends}

    @classmethod
    def from_payload(cls, meta: dict, arrays: dict[str, np.ndarray]):
        return cls(arrays["run_values"], arrays["run_ends"])


class ForBitPackEncoding:
    """Frame-of-reference bit-packing for bounded integers.

    The *stored* payload is the packed uint64 word stream (what the
    shared-memory exporter and the disk cache move).  Scans read the
    byte-aligned code cache -- ``ceil(bits / 8)`` bytes per value,
    unpacked once per process by the vectorized kernel -- and compare
    codes against the rebased threshold; decoded 8-byte values are
    never materialised on the predicate path.
    """

    kind = "for"

    def __init__(self, words: np.ndarray, reference: int, bits: int, length: int):
        self.words = words
        self.reference = int(reference)
        self.bits = int(bits)
        self._length = int(length)
        self._codes: np.ndarray | None = None

    @classmethod
    def encode(cls, values: np.ndarray, reference: int | None = None,
               bits: int | None = None):
        """Encode; returns None when the value range needs > MAX_FOR_BITS."""
        values = np.asarray(values)
        if len(values) == 0:
            return cls(np.empty(0, dtype=np.uint64), 0, 1, 0)
        if reference is None or bits is None:
            low = int(values.min())
            span = int(values.max()) - low
            needed = max(1, span.bit_length())
            if needed > MAX_FOR_BITS:
                return None
            reference, bits = low, needed
        codes = (values.astype(np.int64) - np.int64(reference)).astype(np.uint64)
        return cls(pack_bits(codes, bits), reference, bits, len(values))

    @property
    def length(self) -> int:
        return self._length

    def codes(self) -> np.ndarray:
        """Byte-aligned scan codes (unpacked once, then cached)."""
        if self._codes is None:
            codes = unpack_bits(self.words, self.bits, self._length)
            self._codes = codes.astype(_code_dtype((1 << self.bits) - 1))
            self._codes.flags.writeable = False
        return self._codes

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        return self.codes()[lo:hi].astype(np.int64) + np.int64(self.reference)

    def compare(self, op: str, threshold, lo: int, hi: int) -> np.ndarray:
        codes = self.codes()[lo:hi]
        # Rebase the threshold into the code domain.  Thresholds may be
        # floats (quantile cut-offs over integer columns): an integer
        # code c satisfies c <= t iff c <= floor(t), c < t iff
        # c < ceil(t), etc., so the comparison stays exact.
        rebased = float(threshold) - float(self.reference)
        top = (1 << self.bits) - 1
        if op == "le":
            cut = math.floor(rebased)
            if cut < 0:
                return _const_mask(len(codes), False)
            return codes <= min(cut, top)
        if op == "lt":
            cut = math.ceil(rebased)
            if cut <= 0:
                return _const_mask(len(codes), False)
            if cut > top:
                return _const_mask(len(codes), True)
            return codes < cut
        if op == "ge":
            cut = math.ceil(rebased)
            if cut <= 0:
                return _const_mask(len(codes), True)
            if cut > top:
                return _const_mask(len(codes), False)
            return codes >= cut
        if op == "gt":
            cut = math.floor(rebased)
            if cut < 0:
                return _const_mask(len(codes), True)
            if cut >= top:
                return _const_mask(len(codes), False)
            return codes > cut
        if op == "eq":
            if rebased != math.floor(rebased) or not 0 <= rebased <= top:
                return _const_mask(len(codes), False)
            return codes == int(rebased)
        raise ValueError(f"unsupported op {op!r}")

    def code_counts(self, lo: int, hi: int, selected=None) -> np.ndarray:
        """Occurrences of each code over rows ``[lo, hi)`` (callers gate
        on ``bits <= AGG_MAX_BITS`` so the bincount stays small)."""
        codes = self.codes()[lo:hi]
        if selected is not None:
            codes = codes[selected]
        return np.bincount(codes, minlength=1 << self.bits)

    def code_total(self, lo: int, hi: int, selected=None):
        """``(count, sum(values))`` over rows ``[lo, hi)`` as exact
        Python integers via the FoR identity
        ``sum(values) = reference * count + sum(codes)``, or None when
        the identity cannot be bit-identical to the decoded path.

        The guard: every value in ``[reference, reference + 2**bits)``
        must convert to float64 exactly (|value| <= 2**53), because the
        decoded path sums float64 conversions.  The code sum itself is
        always exact -- a 16/16 hi/lo split keeps the int64 partials
        overflow-free for any array length.
        """
        span_top = abs(self.reference) + (1 << self.bits)
        if span_top > _EXACT_FLOAT_BOUND:
            return None
        codes = self.codes()[lo:hi]
        if selected is not None:
            codes = codes[selected]
        n = len(codes)
        wide = codes.astype(np.uint32, copy=False)
        total = (int(np.sum(wide >> 16, dtype=np.int64)) << 16) + int(
            np.sum(wide & 0xFFFF, dtype=np.int64)
        )
        return n, self.reference * n + total

    @property
    def encoded_nbytes(self) -> int:
        return int(self.words.nbytes)

    @property
    def scan_itemsize(self) -> float:
        return float(-(-self.bits // 8))

    def payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        meta = {"reference": self.reference, "bits": self.bits,
                "length": self._length}
        return meta, {"words": self.words}

    @classmethod
    def from_payload(cls, meta: dict, arrays: dict[str, np.ndarray]):
        return cls(arrays["words"], meta["reference"], meta["bits"],
                   meta["length"])


CODECS = {
    codec.kind: codec
    for codec in (DictionaryEncoding, RLEEncoding, ForBitPackEncoding)
}


# ----------------------------------------------------------------------
# EncodedColumn: the Column read API over one codec
# ----------------------------------------------------------------------
class EncodedColumn:
    """A named encoded column satisfying the ``Column`` read API.

    The logical view (``values``, ``dtype``, ``itemsize``, ``nbytes``)
    reports the *decoded* shape so that every byte-accounting consumer
    (work profiles, ``bytes_for``, figures) sees exactly what it would
    see on a raw column; the compressed footprint is a separate,
    explicit channel (``encoded_nbytes``, ``scan_itemsize``).
    """

    def __init__(self, name: str, encoding, dtype):
        self.name = name
        self.encoding = encoding
        self._dtype = np.dtype(dtype)
        self._values: np.ndarray | None = None

    # -- Column read API ----------------------------------------------
    def __len__(self) -> int:
        return self.encoding.length

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def itemsize(self) -> int:
        return self._dtype.itemsize

    @property
    def nbytes(self) -> int:
        return len(self) * self.itemsize

    @property
    def values(self) -> np.ndarray:
        """Transparent decode (cached, read-only)."""
        if self._values is None:
            decoded = np.ascontiguousarray(
                self.encoding.decode_range(0, len(self)).astype(
                    self._dtype, copy=False
                )
            )
            decoded.flags.writeable = False
            self._values = decoded
        return self._values

    def take(self, indices: np.ndarray) -> np.ndarray:
        return self.values[indices]

    # -- encoded-domain API -------------------------------------------
    @property
    def codec_kind(self) -> str:
        return self.encoding.kind

    @property
    def encoded_nbytes(self) -> int:
        """Bytes of the stored (transport/persistence) payload."""
        return self.encoding.encoded_nbytes

    @property
    def scan_itemsize(self) -> float:
        """Bytes per value a code-domain scan of this column reads."""
        return self.encoding.scan_itemsize

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        return self.encoding.decode_range(lo, hi).astype(self._dtype, copy=False)

    def compare(self, op: str, threshold, lo: int, hi: int) -> np.ndarray:
        """Code-domain predicate: bit-identical to comparing decoded
        values (the codecs preserve value order exactly)."""
        return self.encoding.compare(op, threshold, lo, hi)

    def small_domain(self) -> np.ndarray | None:
        """Decode table ``domain[code] -> value`` when the code domain
        is tiny (group-by keys aggregate straight into arrays this
        size); None otherwise."""
        if self.encoding.kind == "dict" and len(self.encoding.dictionary) <= 256:
            return self.encoding.dictionary
        if self.encoding.kind == "for" and self.encoding.bits <= 8:
            return (
                np.arange(1 << self.encoding.bits, dtype=np.int64)
                + self.encoding.reference
            )
        return None

    def codes_range(self, lo: int, hi: int) -> np.ndarray | None:
        """The raw codes for ``[lo, hi)`` (dict/FoR codecs)."""
        if self.encoding.kind == "dict":
            return self.encoding.codes[lo:hi]
        if self.encoding.kind == "for":
            return self.encoding.codes()[lo:hi]
        return None

    # -- code-domain aggregation --------------------------------------
    def agg_domain(self) -> np.ndarray | None:
        """Decode table ``domain[code] -> value`` for the count-based
        aggregation path (dict codecs, and FoR codecs whose domain fits
        :data:`AGG_MAX_BITS` bits of bincount); None when per-code
        counting is not the right shape (RLE, wide FoR, raw)."""
        if self.encoding.kind == "dict":
            return self.encoding.dictionary
        if self.encoding.kind == "for" and self.encoding.bits <= AGG_MAX_BITS:
            return (
                np.arange(1 << self.encoding.bits, dtype=np.int64)
                + self.encoding.reference
            )
        return None

    def code_counts(self, lo: int, hi: int, selected=None) -> np.ndarray | None:
        """Per-code occurrence counts matching :meth:`agg_domain`."""
        if self.encoding.kind == "dict":
            return self.encoding.code_counts(lo, hi, selected)
        if self.encoding.kind == "for" and self.encoding.bits <= AGG_MAX_BITS:
            return self.encoding.code_counts(lo, hi, selected)
        return None

    def run_view(self, lo: int, hi: int, selected=None):
        """RLE run fragments (values, counts) inside ``[lo, hi)``."""
        if self.encoding.kind == "rle":
            return self.encoding.run_view(lo, hi, selected)
        return None

    def exact_sum(self, lo: int, hi: int, selected=None):
        """``sum(decoded[lo:hi][selected])`` computed in the code
        domain, as an :class:`~repro.core.exactsum.ExactSum` that is
        bit-identical to ``ExactSum.of_array`` over the decoded rows;
        None when this codec/domain has no exact code-domain path.

        Per-codec rebase contracts (each argued in DESIGN §2b.8):

        - dict: ``sum = Σ count[c] * float64(dictionary[c])``
        - RLE: ``sum = Σ count[run] * float64(run_value)`` with partial
          runs at the range boundaries split exactly
        - FoR, small domain: per-code counts like dict
        - FoR, wide domain: ``reference * count + Σ codes`` as exact
          integers, when every domain value converts to float64 exactly
        """
        from repro.core.exactsum import ExactSum

        if self.encoding.kind == "rle":
            values, counts = self.encoding.run_view(lo, hi, selected)
            return ExactSum.of_counts(
                np.asarray(values).astype(self._dtype, copy=False), counts
            )
        domain = self.agg_domain()
        if domain is not None:
            counts = self.code_counts(lo, hi, selected)
            return ExactSum.of_counts(
                np.asarray(domain).astype(self._dtype, copy=False), counts
            )
        if self.encoding.kind == "for":
            totals = self.encoding.code_total(lo, hi, selected)
            if totals is not None:
                return ExactSum.of_integer_total(totals[1])
        return None

    # -- transport -----------------------------------------------------
    def payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        """(json-safe meta, payload arrays) for shm export / disk cache."""
        meta, arrays = self.encoding.payload()
        return (
            {"codec": self.encoding.kind, "dtype": self._dtype.str, **meta},
            arrays,
        )

    @classmethod
    def from_payload(cls, name: str, meta: dict,
                     arrays: dict[str, np.ndarray]) -> "EncodedColumn":
        codec = CODECS[meta["codec"]]
        encoding = codec.from_payload(meta, arrays)
        return cls(name, encoding, np.dtype(meta["dtype"]))

    def renamed(self, name: str) -> "EncodedColumn":
        if name == self.name:
            return self
        clone = EncodedColumn(name, self.encoding, self._dtype)
        clone._values = self._values
        return clone


# ----------------------------------------------------------------------
# Policy: choose a codec from column stats at load time
# ----------------------------------------------------------------------
def _probe_float_dictionary(values: np.ndarray) -> np.ndarray | None:
    """Exact low-cardinality probe without a full-column sort.

    Seeds a dictionary from a head sample and verifies it by
    round-tripping codes; missing values are folded in (bounded
    retries), so high-cardinality columns bail out after cheap passes.
    """
    if np.isnan(values).any():
        return None
    dictionary = np.unique(values[:_PROBE_SAMPLE])
    if len(dictionary) > _PROBE_MAX_SAMPLE_CARDINALITY:
        return None
    for _ in range(3):
        codes = np.searchsorted(dictionary, values)
        np.clip(codes, 0, len(dictionary) - 1, out=codes)
        missing = dictionary[codes] != values
        if not missing.any():
            return dictionary
        extra = np.unique(values[missing])
        if len(dictionary) + len(extra) > MAX_DICT_SIZE:
            return None
        dictionary = np.union1d(dictionary, extra)
    return None


def choose_encoding(values: np.ndarray):
    """Pick a codec for ``values`` from cheap stats; None keeps it raw.

    Integers: RLE when sorted with mean run length >=
    :data:`RLE_MIN_RUN_LENGTH`; else frame-of-reference bit-packing
    when the range fits :data:`MAX_FOR_BITS`; else a dictionary when
    the (probed) cardinality is tiny.  Floats: dictionary when the
    probed cardinality is tiny.  Anything else stays raw.
    """
    values = np.asarray(values)
    n = len(values)
    if n == 0 or values.ndim != 1:
        return None
    if np.issubdtype(values.dtype, np.integer):
        diffs = np.diff(values)
        if len(diffs) == 0 or (diffs >= 0).all():
            n_runs = int(np.count_nonzero(diffs)) + 1
            if n >= n_runs * RLE_MIN_RUN_LENGTH and n_runs < n:
                return RLEEncoding.encode(values)
        encoded = ForBitPackEncoding.encode(values)
        if encoded is not None:
            return encoded
        dictionary = _probe_float_dictionary(values.astype(np.float64))
        if dictionary is not None:
            return DictionaryEncoding.encode(
                values, dictionary.astype(values.dtype)
            )
        return None
    if np.issubdtype(values.dtype, np.floating):
        dictionary = _probe_float_dictionary(values)
        if dictionary is not None:
            return DictionaryEncoding.encode(values, dictionary)
        return None
    return None


def encode_column(name: str, values: np.ndarray) -> EncodedColumn | None:
    """Encode one column per the policy; None when it should stay raw."""
    encoding = choose_encoding(values)
    if encoding is None:
        return None
    return EncodedColumn(name, encoding, np.asarray(values).dtype)


def encode_columns(columns: dict) -> dict:
    """Policy-encode a ``{name: array}`` mapping (used at database load
    time); respects the ``REPRO_ENCODING`` toggle.  Values that are
    already encoded pass through."""
    if not settings.enabled("encoding"):
        return dict(columns)
    result = {}
    for name, values in columns.items():
        if isinstance(values, EncodedColumn):
            result[name] = values
            continue
        encoded = encode_column(name, values)
        result[name] = encoded if encoded is not None else values
    return result


# ----------------------------------------------------------------------
# Encoded group-by kernel
# ----------------------------------------------------------------------
def groupby_dictionary_sums(
    key_columns, weights: np.ndarray, selected=None
) -> dict[tuple, float] | None:
    """Group-by over small-domain encoded keys, aggregating straight
    into the dictionary-sized result (never materialising decoded key
    arrays).

    ``key_columns`` are :class:`EncodedColumn` instances whose domains
    are tiny (Q1's ``l_returnflag``/``l_linestatus``); ``weights`` is
    the measure; ``selected`` optionally restricts rows (bool mask or
    indices).  Returns ``{(key values...): sum}`` or None when a key
    column has no small domain.
    """
    domains = [column.small_domain() for column in key_columns]
    if any(domain is None for domain in domains):
        return None
    n = len(weights) if selected is None else None
    combined = None
    radix = 1
    for column, domain in zip(reversed(key_columns), reversed(domains)):
        codes = column.codes_range(0, len(column))
        if selected is not None:
            codes = codes[selected]
        part = codes.astype(np.int64) * radix
        combined = part if combined is None else combined + part
        radix *= len(domain)
    sums = np.bincount(combined, weights=weights, minlength=radix)
    counts = np.bincount(combined, minlength=radix)
    result = {}
    for flat in np.flatnonzero(counts):
        key, remainder = [], int(flat)
        for domain in reversed(domains):
            key.append(domain[remainder % len(domain)])
            remainder //= len(domain)
        result[tuple(reversed(key))] = float(sums[flat])
    return result
