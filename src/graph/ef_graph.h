// EfGraph — the Elias-Fano compressed graph-storage backend.
//
// Both adjacency directions are stored as quasi-succinct Elias-Fano
// sequences (Elias 1974, Fano 1971; the libcgraph eliasfano/bitsequence
// design): the concatenated adjacency rows become one globally monotone
// sequence by lifting each target v of row u to u * n + v, split into low
// bits (packed array) and high bits (unary in a bitvector with sampled
// select1). Row boundaries are a second, much smaller Elias-Fano sequence
// over the n+1 CSR offsets. Space is ~(2 + log2(n^2/m)) bits per arc per
// direction — a graph with average degree d costs about
// 2 + log2(n/d) bits/arc instead of CSR's 32, typically 3-6 bytes/arc for
// BOTH directions against CSR's ~16.
//
// Access model (all O(1)-ish; sampled select1 keeps one sample per
// kSelectSample set bits):
//   * row u = positions [off(u), off(u+1)) of the target sequence, found by
//     one select on the offsets sequence; iterating a row is a sequential
//     scan of the high bitvector (no select per element), so kernel
//     traversal stays within ~2x of CSR.
//   * row[i] is a forward select from the row's first possible high bit
//     (for i < kSelectSample; a sampled select1 beyond) plus one packed-low
//     read — random access for OPOAO's pick indexing and the O(log d)
//     select-based has_edge. A caller that keeps a decoded row (OPOAO's
//     active pickers) pays no offsets select per pick.
//
// EfGraph satisfies the GraphView concept (graph/graph_view.h) and is
// byte-for-byte output-compatible with DiGraph: rows decode in the same
// ascending order CSR stores them, so every algorithm instantiated on
// either backend produces identical results (pinned by the golden suite).
//
// EfGraph lives in memory only: from_csr/from_rows encode both directions
// into one word buffer that copies share, and every view points into it.
// Graphs arrive as edge lists (graph/io.h) and are compressed after parsing;
// there is no on-disk EF format.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/check.h"
#include "util/types.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LCRB_EF_PDEP 1
#include <immintrin.h>
#endif

namespace lcrb {

namespace ef {

/// One select sample per this many set bits. 32 keeps the scan from a
/// sample to about one word at EF's ~0.5 high-bit density — the select sits
/// on the kernel-traversal hot path, so the sample table trades 2
/// bits/element for a scan loop that almost never iterates.
inline constexpr std::uint64_t kSelectSample = 32;

#ifdef LCRB_EF_PDEP
/// BMI2 select: deposit the r-th bit of a one-hot mask into x's set-bit
/// positions, then count trailing zeros. Compiled with the bmi2 target
/// attribute so no global -march flag is needed; callers gate on the
/// runtime CPUID probe below.
__attribute__((target("bmi2"))) inline std::uint64_t select_in_word_pdep(
    std::uint64_t x, std::uint64_t r) {
  return static_cast<std::uint64_t>(
      __builtin_ctzll(_pdep_u64(std::uint64_t{1} << r, x)));
}

inline const bool kHavePdep = __builtin_cpu_supports("bmi2");
#endif

/// Position of the r-th (0-based) set bit of x; r < popcount(x).
inline std::uint64_t select_in_word(std::uint64_t x, std::uint64_t r) {
#ifdef LCRB_EF_PDEP
  if (kHavePdep) return select_in_word_pdep(x, r);
#endif
  // Branchless popcount halving: the data-dependent "skip this half?"
  // decisions are arithmetic (a mispredicted branch per level would cost
  // more than the whole select).
  std::uint64_t pos = 0;
  for (std::uint32_t width = 32; width >= 1; width >>= 1) {
    const std::uint64_t cnt = static_cast<std::uint64_t>(
        __builtin_popcountll(x & ((std::uint64_t{1} << width) - 1)));
    const std::uint64_t skip = -static_cast<std::uint64_t>(r >= cnt);
    pos += skip & width;
    r -= cnt & skip;
    x >>= (skip & width);
  }
  return pos;
}

/// Read-only bitvector view with sampled select1 (samples[j] = position of
/// the (j * kSelectSample)-th set bit). The words and samples live in the
/// owning EfGraph's word buffer.
class BitView {
 public:
  BitView() = default;
  BitView(std::span<const std::uint64_t> words,
          std::span<const std::uint64_t> samples, std::uint64_t num_ones)
      : words_(words), samples_(samples), num_ones_(num_ones) {}

  std::uint64_t num_ones() const { return num_ones_; }

  /// Position of the i-th set bit (0-based). i < num_ones().
  std::uint64_t select1(std::uint64_t i) const {
    LCRB_DCHECK(i < num_ones_, "select1 index out of range");
    return select_from(samples_[i / kSelectSample], i % kSelectSample);
  }

  /// Position of the r-th (0-based) set bit at or after `pos`, which must
  /// exist: a forward popcount scan, one word per iteration.
  std::uint64_t select_from(std::uint64_t pos, std::uint64_t r) const {
    std::uint64_t w = pos >> 6;
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (pos & 63));
    for (;;) {
      const std::uint64_t cnt =
          static_cast<std::uint64_t>(__builtin_popcountll(bits));
      if (r < cnt) break;
      r -= cnt;
      bits = words_[++w];
    }
    return (w << 6) + select_in_word(bits, r);
  }

  /// Position of the first set bit at or after `pos` (must exist).
  std::uint64_t next_one(std::uint64_t pos) const {
    std::uint64_t w = pos >> 6;
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (pos & 63));
    while (bits == 0) bits = words_[++w];
    return (w << 6) + static_cast<std::uint64_t>(__builtin_ctzll(bits));
  }

  /// Positions of set bits i and i+1 in one scan: the word holding bit i is
  /// already in a register when the search for bit i+1 starts, so this beats
  /// select1 + next_one by a dependent load. i + 1 < num_ones().
  std::pair<std::uint64_t, std::uint64_t> select1_pair(std::uint64_t i) const {
    LCRB_DCHECK(i + 1 < num_ones_, "select1_pair index out of range");
    std::uint64_t pos = samples_[i / kSelectSample];
    std::uint64_t remaining = i % kSelectSample;
    std::uint64_t w = pos >> 6;
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (pos & 63));
    for (;;) {
      const std::uint64_t cnt =
          static_cast<std::uint64_t>(__builtin_popcountll(bits));
      if (remaining < cnt) break;
      remaining -= cnt;
      bits = words_[++w];
    }
    const std::uint64_t in0 = select_in_word(bits, remaining);
    const std::uint64_t p0 = (w << 6) + in0;
    // Drop bits up to and including p0; what remains of the cached word is
    // the start of the search for bit i+1.
    std::uint64_t rest = bits & (~std::uint64_t{1} << in0);
    while (rest == 0) rest = words_[++w];
    const std::uint64_t p1 =
        (w << 6) + static_cast<std::uint64_t>(__builtin_ctzll(rest));
    return {p0, p1};
  }

  std::span<const std::uint64_t> words() const { return words_; }
  std::span<const std::uint64_t> samples() const { return samples_; }

 private:
  std::span<const std::uint64_t> words_;
  std::span<const std::uint64_t> samples_;
  std::uint64_t num_ones_ = 0;
};

/// Elias-Fano view of a monotone non-decreasing sequence of `size` values in
/// [0, universe).
class SequenceView {
 public:
  SequenceView() = default;
  SequenceView(std::uint64_t size, std::uint64_t universe,
               std::uint32_t low_bits, std::span<const std::uint64_t> low,
               BitView high)
      : size_(size),
        universe_(universe),
        low_bits_(low_bits),
        low_(low),
        high_(high) {}

  std::uint64_t size() const { return size_; }
  std::uint64_t universe() const { return universe_; }
  std::uint32_t low_bits() const { return low_bits_; }
  const BitView& high() const { return high_; }
  std::span<const std::uint64_t> low_words() const { return low_; }

  /// Packed low bits of element i.
  std::uint64_t low(std::uint64_t i) const {
    if (low_bits_ == 0) return 0;
    const std::uint64_t bitpos = i * low_bits_;
    if (low_bits_ <= 57) {
      // One unaligned 8-byte load covers any ≤57-bit field. Reading up to 7
      // bytes past the low region is safe: the payload layout always puts
      // the high words and sample table right behind it.
      std::uint64_t v;
      std::memcpy(&v,
                  reinterpret_cast<const unsigned char*>(low_.data()) +
                      (bitpos >> 3),
                  sizeof(v));
      return (v >> (bitpos & 7)) & ((std::uint64_t{1} << low_bits_) - 1);
    }
    const std::uint64_t w = bitpos >> 6;
    const std::uint64_t off = bitpos & 63;
    std::uint64_t v = low_[w] >> off;
    if (off + low_bits_ > 64) v |= low_[w + 1] << (64 - off);
    return v & (low_bits_ == 64 ? ~std::uint64_t{0}
                                : ((std::uint64_t{1} << low_bits_) - 1));
  }

  /// Random access: one select + one packed read.
  std::uint64_t value(std::uint64_t i) const {
    return ((high_.select1(i) - i) << low_bits_) | low(i);
  }

  /// Value of element i when the high-bit position of element i is already
  /// known (sequential decoding).
  std::uint64_t value_at(std::uint64_t i, std::uint64_t high_pos) const {
    return ((high_pos - i) << low_bits_) | low(i);
  }

  /// Values of elements i and i+1 for the price of one select: the second
  /// high bit is the next one after the first, and both packed-low fields
  /// come from one load when they fit. i + 1 < size(). This is the
  /// row-bounds lookup — two adjacent offsets — on the traversal hot path.
  std::pair<std::uint64_t, std::uint64_t> value_pair(std::uint64_t i) const {
    const auto [p0, p1] = high_.select1_pair(i);
    if (low_bits_ > 0 && 2 * low_bits_ + 7 <= 64) {
      // Adjacent fields span at most 2*low_bits + 7 bits from the first
      // field's byte: one unaligned load covers both (same safety argument
      // as low()).
      const std::uint64_t bitpos = i * low_bits_;
      std::uint64_t v;
      std::memcpy(&v,
                  reinterpret_cast<const unsigned char*>(low_.data()) +
                      (bitpos >> 3),
                  sizeof(v));
      v >>= (bitpos & 7);
      const std::uint64_t mask = (std::uint64_t{1} << low_bits_) - 1;
      return {((p0 - i) << low_bits_) | (v & mask),
              ((p1 - i - 1) << low_bits_) | ((v >> low_bits_) & mask)};
    }
    return {value_at(i, p0), value_at(i + 1, p1)};
  }

  /// Number of low-bit words a sequence of this shape occupies.
  static std::uint64_t low_word_count(std::uint64_t size,
                                      std::uint32_t low_bits) {
    return (size * low_bits + 63) / 64;
  }
  /// Number of high-bit words.
  static std::uint64_t high_word_count(std::uint64_t size,
                                       std::uint64_t universe,
                                       std::uint32_t low_bits) {
    const std::uint64_t bits = (universe >> low_bits) + size + 1;
    return (bits + 63) / 64;
  }
  /// The canonical low-bit width for (size, universe): floor(log2(U/m)).
  static std::uint32_t pick_low_bits(std::uint64_t size,
                                     std::uint64_t universe) {
    if (size == 0 || universe <= size) return 0;
    std::uint32_t l = 0;
    while ((universe >> (l + 1)) >= size) ++l;
    return l;
  }

 private:
  std::uint64_t size_ = 0;
  std::uint64_t universe_ = 0;
  std::uint32_t low_bits_ = 0;
  std::span<const std::uint64_t> low_;
  BitView high_;
};

/// Forward-decoding view of one adjacency row: values
/// targets[first + i] - base, i in [0, size). Satisfies the GraphView row
/// contract: sized, indexable (a forward select from the row's start),
/// forward-iterable (sequential high-bit scan — no select per element).
///
/// Row-partitioned start: rows lift element i of row u to u*n + v, so every
/// element of this row is >= base_ while every earlier element is < base_.
/// The high bit of element first_ therefore sits at or after
/// start() = (base_ >> low_bits) + first_, and every earlier element's bit
/// sits before it: the j-th set bit from start() is element first_ + j.
/// The gap to the row's first bit is at most n >> low_bits bits, under twice
/// the average degree.
class Row {
 public:
  Row() = default;
  Row(const SequenceView* seq, std::uint64_t first, std::size_t size,
      std::uint64_t base)
      : seq_(seq), first_(first), size_(size), base_(base) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Element i: a forward select from start() for the first kSelectSample
  /// elements (no sample-table read), the sampled select1 beyond them, so
  /// indexing deep into a hub row never scans the whole row.
  NodeId operator[](std::size_t i) const {
    LCRB_DCHECK(i < size_, "row index out of range");
    const std::uint64_t idx = first_ + i;
    const std::uint64_t high_pos = i < kSelectSample
                                       ? seq_->high().select_from(start(), i)
                                       : seq_->high().select1(idx);
    return static_cast<NodeId>(seq_->value_at(idx, high_pos) - base_);
  }

  /// Caches the current high-bitvector word: advancing clears the lowest
  /// set bit (one op) and only touches memory at word boundaries, so the
  /// per-arc decode cost on the kernel hot path is the packed-low read.
  /// Deliberately lean (six words): the kernel interleaves decoding with
  /// coin flips and frontier writes, and a fatter iterator spills.
  class iterator {
   public:
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    iterator() = default;
    iterator(const SequenceView* seq, std::uint64_t idx, std::uint64_t end_idx,
             std::uint64_t high_pos, std::uint64_t base)
        : seq_(seq), idx_(idx), end_idx_(end_idx), base_(base) {
      if (idx_ < end_idx_) {
        word_ = high_pos >> 6;
        bits_ = seq_->high().words()[word_] &
                (~std::uint64_t{0} << (high_pos & 63));
      }
    }

    NodeId operator*() const {
      const std::uint64_t high_pos =
          (word_ << 6) + static_cast<std::uint64_t>(__builtin_ctzll(bits_));
      return static_cast<NodeId>(seq_->value_at(idx_, high_pos) - base_);
    }
    iterator& operator++() {
      if (++idx_ == end_idx_) return *this;  // never scan past the row
      bits_ &= bits_ - 1;
      while (bits_ == 0) bits_ = seq_->high().words()[++word_];
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++*this;
      return t;
    }
    bool operator==(const iterator& o) const { return idx_ == o.idx_; }

   private:
    const SequenceView* seq_ = nullptr;
    std::uint64_t idx_ = 0;
    std::uint64_t end_idx_ = 0;
    std::uint64_t word_ = 0;
    std::uint64_t bits_ = 0;
    std::uint64_t base_ = 0;
  };

  /// The row's first high bit is one short forward scan from start(), not
  /// a sampled select.
  iterator begin() const {
    if (size_ == 0) return end();
    return {seq_, first_, first_ + size_, seq_->high().next_one(start()),
            base_};
  }
  iterator end() const { return {seq_, first_ + size_, first_ + size_, 0, base_}; }

 private:
  /// First position the row's high bits can occupy (see the class comment).
  std::uint64_t start() const { return (base_ >> seq_->low_bits()) + first_; }

  const SequenceView* seq_ = nullptr;
  std::uint64_t first_ = 0;
  std::size_t size_ = 0;
  std::uint64_t base_ = 0;
};

/// One adjacency direction: Elias-Fano offsets (n+1 values in [0, m]) and
/// lifted targets (m values in [0, n*n)).
struct DirectionView {
  SequenceView offsets;
  SequenceView targets;
};

}  // namespace ef

/// Elias-Fano compressed immutable digraph; see file comment. Cheap to copy
/// (shared word buffer).
class EfGraph {
 public:
  EfGraph() = default;

  NodeId num_nodes() const { return num_nodes_; }
  EdgeId num_edges() const { return num_edges_; }
  bool empty() const { return num_nodes_ == 0; }

  NodeId out_degree(NodeId u) const {
    check_node(u);
    const auto [lo, hi] = out_.offsets.value_pair(u);
    return static_cast<NodeId>(hi - lo);
  }
  NodeId in_degree(NodeId v) const {
    check_node(v);
    const auto [lo, hi] = in_.offsets.value_pair(v);
    return static_cast<NodeId>(hi - lo);
  }

  /// Targets of u's out-edges, ascending (decoded on the fly).
  ef::Row out_neighbors(NodeId u) const {
    check_node(u);
    return row(out_, u);
  }
  /// Sources of v's in-edges, ascending.
  ef::Row in_neighbors(NodeId v) const {
    check_node(v);
    return row(in_, v);
  }

  /// True iff arc (u, v) exists. O(log out_degree(u)) selects into the
  /// compressed sequence (same probe bound as DiGraph::has_edge).
  bool has_edge(NodeId u, NodeId v) const;

  double average_out_degree() const {
    return num_nodes_ == 0 ? 0.0
                           : static_cast<double>(num_edges_) /
                                 static_cast<double>(num_nodes_);
  }

  /// Compressed footprint: every word of every sequence, in bytes. The
  /// honest number ServiceConfig byte budgets see.
  std::size_t memory_bytes() const;

  /// Compressed bits per arc (both directions, offsets included).
  double bits_per_arc() const {
    return num_edges_ == 0
               ? 0.0
               : 8.0 * static_cast<double>(memory_bytes()) /
                     static_cast<double>(num_edges_);
  }

  /// Builds from an existing CSR graph (rows are already sorted).
  static EfGraph from_csr(const DiGraph& g);

  /// Streaming build: `out_row(u, sink)` / `in_row(u, sink)` must call
  /// sink(v) with u's targets/sources in ascending order, for u = 0..n-1;
  /// each direction must emit exactly m arcs, and the in rows must be the
  /// exact transpose of the out rows. No CSR intermediate is materialized —
  /// the path the >=100M-arc synthetic smoke test takes.
  template <class OutFn, class InFn>
  static EfGraph from_rows(NodeId n, EdgeId m, OutFn&& out_row, InFn&& in_row);

  /// Throws lcrb::Error unless the structure is well-formed: counts, each
  /// high bitvector's popcount and select samples, the offsets' shape, and
  /// a per-row decode proving every value is in range and every row
  /// ascending. O(n + m); from_rows runs it under LCRB_INVARIANT.
  void validate() const;

 private:
  using Words = std::vector<std::uint64_t>;

  /// Parses the encoded words into views and cross-checks their counts
  /// against (n, m).
  static EfGraph from_words(std::shared_ptr<const Words> words, NodeId n,
                            EdgeId m);

  ef::Row row(const ef::DirectionView& d, NodeId u) const {
    const auto [lo, hi] = d.offsets.value_pair(u);
    return {&d.targets, lo, static_cast<std::size_t>(hi - lo),
            static_cast<std::uint64_t>(u) * num_nodes_};
  }

  void check_node(NodeId u) const {
    LCRB_REQUIRE(u < num_nodes_, "node id out of range");
  }

  NodeId num_nodes_ = 0;
  EdgeId num_edges_ = 0;
  ef::DirectionView out_, in_;
  std::shared_ptr<const Words> words_;
};

namespace ef {

/// Encodes monotone sequences into one word buffer for from_rows. Layout
/// per sequence (all 64-bit words): size, universe, low_bits, low words,
/// high words, select samples.
class PayloadEncoder {
 public:
  explicit PayloadEncoder(std::vector<std::uint64_t>& buf) : buf_(&buf) {}

  /// Reserves a sequence region and returns its encoder handle.
  class Sequence {
   public:
    void push(std::uint64_t value);
    /// Must be called after exactly `size` pushes; fills the select samples.
    void finish();

   private:
    friend class PayloadEncoder;
    std::vector<std::uint64_t>* buf_ = nullptr;
    std::size_t base_ = 0;  ///< index of the size word
    std::uint64_t size_ = 0, universe_ = 0, pushed_ = 0, last_ = 0;
    std::uint32_t low_bits_ = 0;
    std::size_t low_at_ = 0, high_at_ = 0, samples_at_ = 0;
    std::uint64_t high_words_ = 0, sample_count_ = 0;
  };

  Sequence begin_sequence(std::uint64_t size, std::uint64_t universe);

 private:
  std::vector<std::uint64_t>* buf_;
};

}  // namespace ef

template <class OutFn, class InFn>
EfGraph EfGraph::from_rows(NodeId n, EdgeId m, OutFn&& out_row, InFn&& in_row) {
  Words buf;
  ef::PayloadEncoder enc(buf);
  const std::uint64_t target_universe =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);

  auto encode_direction = [&](auto&& row_fn) {
    auto offsets =
        enc.begin_sequence(static_cast<std::uint64_t>(n) + 1, m + 1);
    auto targets = enc.begin_sequence(m, target_universe);
    std::uint64_t count = 0;
    offsets.push(0);
    for (NodeId u = 0; u < n; ++u) {
      const std::uint64_t base =
          static_cast<std::uint64_t>(u) * static_cast<std::uint64_t>(n);
      row_fn(u, [&](NodeId v) {
        LCRB_REQUIRE(v < n, "arc endpoint out of range");
        targets.push(base + v);
        ++count;
      });
      offsets.push(count);
    }
    LCRB_REQUIRE(count == m, "direction did not emit exactly m arcs");
    offsets.finish();
    targets.finish();
  };
  encode_direction(out_row);
  encode_direction(in_row);
  EfGraph g = from_words(std::make_shared<const Words>(std::move(buf)), n, m);
  LCRB_INVARIANT(g.validate());
  return g;
}

}  // namespace lcrb

/// ef::Row is a view into the graph's word buffer — safe to use after the
/// temporary returned by out_neighbors()/in_neighbors() is gone, as long as
/// the EfGraph lives. Lets std::ranges::begin accept rvalue rows, matching
/// std::span's borrowed-range behavior.
template <>
inline constexpr bool std::ranges::enable_borrowed_range<lcrb::ef::Row> = true;

namespace lcrb {

namespace ef {
/// Generic conversion from any GraphView backend (tests, tooling).
template <class G>
EfGraph compress(const G& g) {
  const NodeId n = g.num_nodes();
  return EfGraph::from_rows(
      n, g.num_edges(),
      [&](NodeId u, auto&& sink) {
        for (NodeId v : g.out_neighbors(u)) sink(v);
      },
      [&](NodeId u, auto&& sink) {
        for (NodeId v : g.in_neighbors(u)) sink(v);
      });
}
}  // namespace ef

}  // namespace lcrb
