// EfGraph core: payload encoding/parsing, membership, validation.
#include "graph/ef_graph.h"

#include "graph/graph_view.h"
#include "util/error.h"

namespace lcrb {

// ---------------------------------------------------------------------------
// PayloadEncoder.
// ---------------------------------------------------------------------------

namespace ef {

PayloadEncoder::Sequence PayloadEncoder::begin_sequence(std::uint64_t size,
                                                        std::uint64_t universe) {
  Sequence s;
  s.buf_ = buf_;
  s.size_ = size;
  s.universe_ = universe;
  s.low_bits_ = SequenceView::pick_low_bits(size, universe);
  const std::uint64_t low_words =
      SequenceView::low_word_count(size, s.low_bits_);
  s.high_words_ = SequenceView::high_word_count(size, universe, s.low_bits_);
  s.sample_count_ = (size + kSelectSample - 1) / kSelectSample;

  s.base_ = buf_->size();
  buf_->push_back(size);
  buf_->push_back(universe);
  buf_->push_back(s.low_bits_);
  s.low_at_ = buf_->size();
  buf_->resize(buf_->size() + low_words, 0);
  s.high_at_ = buf_->size();
  buf_->resize(buf_->size() + s.high_words_, 0);
  s.samples_at_ = buf_->size();
  buf_->resize(buf_->size() + s.sample_count_, 0);
  return s;
}

void PayloadEncoder::Sequence::push(std::uint64_t value) {
  LCRB_REQUIRE(pushed_ < size_, "Elias-Fano sequence overflow");
  LCRB_REQUIRE(value < universe_ || (value == 0 && universe_ == 0),
               "Elias-Fano value exceeds universe");
  LCRB_REQUIRE(pushed_ == 0 || value >= last_,
               "Elias-Fano sequence must be monotone");
  last_ = value;
  std::uint64_t* b = buf_->data();
  if (low_bits_ > 0) {
    const std::uint64_t lo =
        value & ((std::uint64_t{1} << low_bits_) - 1);
    const std::uint64_t bitpos = pushed_ * low_bits_;
    b[low_at_ + (bitpos >> 6)] |= lo << (bitpos & 63);
    if ((bitpos & 63) + low_bits_ > 64) {
      b[low_at_ + (bitpos >> 6) + 1] |= lo >> (64 - (bitpos & 63));
    }
  }
  const std::uint64_t high_pos = (value >> low_bits_) + pushed_;
  b[high_at_ + (high_pos >> 6)] |= std::uint64_t{1} << (high_pos & 63);
  ++pushed_;
}

void PayloadEncoder::Sequence::finish() {
  LCRB_REQUIRE(pushed_ == size_, "Elias-Fano sequence underfilled");
  // Fill the select samples: position of every (k * kSelectSample)-th one.
  std::uint64_t* b = buf_->data();
  std::uint64_t seen = 0, next_sample = 0;
  for (std::uint64_t w = 0; w < high_words_ && next_sample < sample_count_;
       ++w) {
    std::uint64_t bits = b[high_at_ + w];
    const auto cnt = static_cast<std::uint64_t>(__builtin_popcountll(bits));
    while (next_sample < sample_count_ &&
           next_sample * kSelectSample < seen + cnt) {
      std::uint64_t remaining = next_sample * kSelectSample - seen;
      std::uint64_t t = bits;
      for (; remaining > 0; --remaining) t &= t - 1;
      b[samples_at_ + next_sample] =
          (w << 6) + static_cast<std::uint64_t>(__builtin_ctzll(t));
      ++next_sample;
    }
    seen += cnt;
  }
}

}  // namespace ef

// ---------------------------------------------------------------------------
// Payload parsing: the one place views are built.
// ---------------------------------------------------------------------------

namespace {

/// Parses one sequence region starting at `at`; advances `at` past it.
ef::SequenceView parse_sequence(std::span<const std::uint64_t> payload,
                                std::size_t& at, std::uint64_t expect_size,
                                std::uint64_t expect_universe) {
  LCRB_REQUIRE(at + 3 <= payload.size(), "EF payload truncated (header)");
  const std::uint64_t size = payload[at];
  const std::uint64_t universe = payload[at + 1];
  const std::uint64_t low_bits64 = payload[at + 2];
  at += 3;
  LCRB_REQUIRE(size == expect_size, "EF sequence size mismatch");
  LCRB_REQUIRE(universe == expect_universe, "EF sequence universe mismatch");
  LCRB_REQUIRE(low_bits64 ==
                   ef::SequenceView::pick_low_bits(size, universe),
               "EF sequence low-bit width is not canonical");
  const auto low_bits = static_cast<std::uint32_t>(low_bits64);
  const std::uint64_t low_words =
      ef::SequenceView::low_word_count(size, low_bits);
  const std::uint64_t high_words =
      ef::SequenceView::high_word_count(size, universe, low_bits);
  const std::uint64_t samples =
      (size + ef::kSelectSample - 1) / ef::kSelectSample;
  LCRB_REQUIRE(low_words + high_words + samples <= payload.size() - at,
               "EF payload truncated (data)");
  std::span<const std::uint64_t> low = payload.subspan(at, low_words);
  at += low_words;
  std::span<const std::uint64_t> high = payload.subspan(at, high_words);
  at += high_words;
  std::span<const std::uint64_t> sample_words = payload.subspan(at, samples);
  at += samples;
  // The bit counts and select samples are PayloadEncoder's own fresh
  // output; validate() re-derives them (check_high_bits).
  return {size, universe, low_bits, low,
          ef::BitView(high, sample_words, size)};
}

/// Bitvector bookkeeping of one sequence: exactly size() ones, and every
/// select sample points at the right set bit (monotone, in range) — the
/// select scans are memory-safe only under these.
void check_high_bits(const ef::SequenceView& seq) {
  const std::span<const std::uint64_t> high = seq.high().words();
  const std::span<const std::uint64_t> sample_words = seq.high().samples();
  std::uint64_t ones = 0;
  for (std::uint64_t w : high) {
    ones += static_cast<std::uint64_t>(__builtin_popcountll(w));
  }
  LCRB_REQUIRE(ones == seq.size(), "EF high bitvector popcount mismatch");
  const std::uint64_t samples = sample_words.size();
  std::uint64_t seen = 0, sample_idx = 0;
  for (std::uint64_t w = 0; w < high.size() && sample_idx < samples; ++w) {
    const auto cnt = static_cast<std::uint64_t>(__builtin_popcountll(high[w]));
    while (sample_idx < samples && sample_idx * ef::kSelectSample < seen + cnt) {
      std::uint64_t remaining = sample_idx * ef::kSelectSample - seen;
      std::uint64_t t = high[w];
      for (; remaining > 0; --remaining) t &= t - 1;
      const std::uint64_t want =
          (w << 6) + static_cast<std::uint64_t>(__builtin_ctzll(t));
      LCRB_REQUIRE(sample_words[sample_idx] == want,
                   "EF select sample table is forged");
      ++sample_idx;
    }
    seen += cnt;
  }
}

}  // namespace

EfGraph EfGraph::from_words(std::shared_ptr<const Words> words, NodeId n,
                            EdgeId m) {
  const std::span<const std::uint64_t> payload = *words;
  EfGraph g;
  g.num_nodes_ = n;
  g.num_edges_ = m;
  g.words_ = std::move(words);
  const std::uint64_t target_universe =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
  std::size_t at = 0;
  for (ef::DirectionView* d : {&g.out_, &g.in_}) {
    d->offsets = parse_sequence(payload, at,
                                static_cast<std::uint64_t>(n) + 1, m + 1);
    d->targets = parse_sequence(payload, at, m, target_universe);
    // Offsets must start at 0 and end at m; monotonicity is validate()'s
    // per-row decode; the boundary values are cheap and always checked.
    LCRB_REQUIRE(d->offsets.value(0) == 0, "EF offsets must start at 0");
    LCRB_REQUIRE(d->offsets.value(n) == m,
                 "EF offsets must end at the arc count");
  }
  LCRB_REQUIRE(at <= payload.size(), "EF payload size mismatch");
  return g;
}

// ---------------------------------------------------------------------------
// Construction.
// ---------------------------------------------------------------------------

EfGraph EfGraph::from_csr(const DiGraph& g) {
  return from_rows(
      g.num_nodes(), g.num_edges(),
      [&](NodeId u, auto&& sink) {
        for (NodeId v : g.out_neighbors(u)) sink(v);
      },
      [&](NodeId u, auto&& sink) {
        for (NodeId v : g.in_neighbors(u)) sink(v);
      });
}

// ---------------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------------

bool EfGraph::has_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  return graph_algo::row_contains(out_neighbors(u), v);
}

std::size_t EfGraph::memory_bytes() const {
  return words_ == nullptr ? 0 : words_->capacity() * sizeof(std::uint64_t);
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

void EfGraph::validate() const {
  const std::uint64_t n = num_nodes_;
  if (words_ == nullptr) {
    LCRB_REQUIRE(n == 0 && num_edges_ == 0,
                 "non-empty EfGraph without a word buffer");
    return;
  }
  for (const ef::DirectionView* d : {&out_, &in_}) {
    LCRB_REQUIRE(d->offsets.size() == n + 1, "EF offsets size mismatch");
    LCRB_REQUIRE(d->targets.size() == num_edges_, "EF targets size mismatch");
    check_high_bits(d->offsets);
    check_high_bits(d->targets);
    LCRB_REQUIRE(d->offsets.value(0) == 0, "EF offsets must start at 0");
    LCRB_REQUIRE(d->offsets.value(n) == num_edges_,
                 "EF offsets must end at the arc count");

    // Full decode: offsets monotone; every row's lifted targets stay inside
    // [u*n, (u+1)*n) and decode in ascending order. One sequential pass over
    // the high bitvectors — O(n + m).
    std::uint64_t prev_off = 0;
    std::uint64_t idx = 0;
    std::uint64_t high_pos =
        d->targets.size() == 0 ? 0 : d->targets.high().select1(0);
    for (std::uint64_t u = 0; u < n; ++u) {
      const std::uint64_t off = d->offsets.value(u + 1);
      LCRB_REQUIRE(off >= prev_off && off <= num_edges_,
                   "EF offsets must be monotone");
      const std::uint64_t base = u * n;
      std::uint64_t prev_val = 0;
      for (; idx < off; ++idx) {
        const std::uint64_t val = d->targets.value_at(idx, high_pos);
        LCRB_REQUIRE(val >= base && val < base + n,
                     "EF adjacency value outside its row's range");
        LCRB_REQUIRE(idx == prev_off || val >= prev_val,
                     "EF adjacency row must be sorted");
        prev_val = val;
        if (idx + 1 < d->targets.size()) {
          high_pos = d->targets.high().next_one(high_pos + 1);
        }
      }
      prev_off = off;
    }
  }
}

}  // namespace lcrb
