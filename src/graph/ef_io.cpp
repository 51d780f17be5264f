// Versioned on-disk container for EfGraph with mmap zero-copy loading.
//
// Layout (little-endian, 8-byte aligned):
//   offset  0  magic   "LCEFGRPH" (8 bytes)
//   offset  8  u32 version (currently 1), u32 flags (bit 0: checksummed)
//   offset 16  u64 num_nodes
//   offset 24  u64 num_arcs
//   offset 32  u64 payload word count
//   offset 40  u64 FNV-1a checksum of the payload bytes (0 when absent)
//   offset 48  u64 reserved x2 (zero)
//   offset 64  payload: the Elias-Fano word buffer (see PayloadEncoder)
//
// The payload is byte-identical to the in-memory word buffer, so loading is
// a parse of either (a) one read() into a heap buffer — the NO_MMAP-style
// fallback and the istream path — or (b) the mmap'ed region itself, in which
// case every sequence view points straight into the page cache and load cost
// is O(validation), not O(bytes copied).
//
// Untrusted input (EfVerify::kFull, the default) is rejected with structured
// lcrb::Error on: short/forged headers, wrong magic/version, truncated
// payloads, count mismatches, non-canonical low-bit widths, forged select
// samples or popcounts, out-of-range or non-monotone adjacency rows, and
// checksum mismatches. The fuzz harness (fuzz/fuzz_ef_graph.cpp) drives
// exactly this path.
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "graph/ef_graph.h"
#include "graph/ef_storage.h"
#include "util/error.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define LCRB_EF_HAS_MMAP 1
#else
#define LCRB_EF_HAS_MMAP 0
#endif

namespace lcrb {

namespace {

constexpr char kEfMagic[8] = {'L', 'C', 'E', 'F', 'G', 'R', 'P', 'H'};
constexpr std::uint32_t kEfVersion = 1;
constexpr std::uint32_t kEfFlagChecksummed = 1u << 0;
constexpr std::size_t kEfHeaderBytes = 64;

struct EfHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t flags;
  std::uint64_t num_nodes;
  std::uint64_t num_arcs;
  std::uint64_t payload_words;
  std::uint64_t checksum;
  std::uint64_t reserved[2];
};
static_assert(sizeof(EfHeader) == kEfHeaderBytes);

std::uint64_t fnv1a_words(std::span<const std::uint64_t> words) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(words.data());
  const std::size_t len = words.size() * sizeof(std::uint64_t);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void check_header(const EfHeader& h, const std::string& what) {
  LCRB_REQUIRE(std::memcmp(h.magic, kEfMagic, sizeof kEfMagic) == 0,
               "not an lcrb EF graph file: " + what);
  LCRB_REQUIRE(h.version == kEfVersion,
               "unsupported EF graph version: " + what);
  LCRB_REQUIRE(h.num_nodes <= std::numeric_limits<NodeId>::max(),
               "EF graph node count out of range: " + what);
  LCRB_REQUIRE(h.reserved[0] == 0 && h.reserved[1] == 0,
               "EF graph reserved header words must be zero: " + what);
}

EfHeader read_header(std::istream& in, const std::string& what) {
  EfHeader h{};
  in.read(reinterpret_cast<char*>(&h), sizeof h);
  LCRB_REQUIRE(in.good(), "truncated EF graph header: " + what);
  check_header(h, what);
  return h;
}

}  // namespace

// EfGraphIo is a friend of EfGraph; it bridges the private storage/parse
// hooks into the I/O free functions below.
struct EfGraphIo {
  static EfGraph parse(std::shared_ptr<const EfGraph::Storage> storage,
                       const EfHeader& h, EfVerify verify,
                       const std::string& what) {
    if ((h.flags & kEfFlagChecksummed) != 0 && verify == EfVerify::kFull) {
      LCRB_REQUIRE(fnv1a_words(storage->payload()) == h.checksum,
                   "EF graph checksum mismatch: " + what);
    }
    EfGraph g = EfGraph::from_storage(std::move(storage),
                                      static_cast<NodeId>(h.num_nodes),
                                      h.num_arcs);
    g.validate(verify);
    return g;
  }

  static std::shared_ptr<EfGraph::Storage> storage() {
    return EfGraph::make_storage();
  }

  static std::span<const std::uint64_t> payload_of(const EfGraph& g) {
    return g.storage_ == nullptr ? std::span<const std::uint64_t>{}
                                 : g.storage_->payload();
  }
};

// ---------------------------------------------------------------------------
// Save.
// ---------------------------------------------------------------------------

void EfGraph::save(std::ostream& out) const {
  const std::span<const std::uint64_t> payload = EfGraphIo::payload_of(*this);
  EfHeader h{};
  std::memcpy(h.magic, kEfMagic, sizeof kEfMagic);
  h.version = kEfVersion;
  h.flags = kEfFlagChecksummed;
  h.num_nodes = num_nodes_;
  h.num_arcs = num_edges_;
  h.payload_words = payload.size();
  h.checksum = fnv1a_words(payload);
  out.write(reinterpret_cast<const char*>(&h), sizeof h);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size() * sizeof(std::uint64_t)));
  LCRB_REQUIRE(out.good(), "EF graph write failed");
}

void EfGraph::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  LCRB_REQUIRE(out.good(), "cannot open file for writing: " + path);
  save(out);
  LCRB_REQUIRE(out.good(), "EF graph write failed: " + path);
}

// ---------------------------------------------------------------------------
// Load: read path.
// ---------------------------------------------------------------------------

EfGraph EfGraph::load(std::istream& in, EfVerify verify) {
  const EfHeader h = read_header(in, "stream");
  std::shared_ptr<Storage> storage = EfGraphIo::storage();
  std::vector<std::uint64_t>& buf = storage_buffer(*storage);
  // Chunked read: a forged word count cannot drive allocation past the
  // bytes actually present.
  constexpr std::uint64_t kChunkWords = 1u << 16;
  std::uint64_t remaining = h.payload_words;
  while (remaining > 0) {
    const std::uint64_t take = std::min(remaining, kChunkWords);
    const std::size_t start = buf.size();
    buf.resize(start + take);
    in.read(reinterpret_cast<char*>(buf.data() + start),
            static_cast<std::streamsize>(take * sizeof(std::uint64_t)));
    LCRB_REQUIRE(in.gcount() ==
                     static_cast<std::streamsize>(take * sizeof(std::uint64_t)),
                 "truncated EF graph payload");
    remaining -= take;
  }
  return EfGraphIo::parse(std::move(storage), h, verify, "stream");
}

// ---------------------------------------------------------------------------
// Load: file path (mmap or read).
// ---------------------------------------------------------------------------

EfGraph EfGraph::load(const std::string& path, EfMapMode mode,
                      EfVerify verify) {
  if (mode == EfMapMode::kRead || (LCRB_EF_HAS_MMAP == 0)) {
    LCRB_REQUIRE(mode != EfMapMode::kMmap || LCRB_EF_HAS_MMAP != 0,
                 "mmap is not available on this platform");
    std::ifstream in(path, std::ios::binary);
    LCRB_REQUIRE(in.good(), "cannot open file: " + path);
    return load(in, verify);
  }
#if LCRB_EF_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  LCRB_REQUIRE(fd >= 0, "cannot open file: " + path);
  struct FdGuard {
    int fd;
    ~FdGuard() { ::close(fd); }
  } guard{fd};

  struct ::stat st {};
  LCRB_REQUIRE(::fstat(fd, &st) == 0, "cannot stat file: " + path);
  const auto file_len = static_cast<std::size_t>(st.st_size);
  LCRB_REQUIRE(file_len >= kEfHeaderBytes,
               "truncated EF graph header: " + path);

  void* addr = ::mmap(nullptr, file_len, PROT_READ, MAP_PRIVATE, fd, 0);
  if (addr == MAP_FAILED) {
    LCRB_REQUIRE(mode != EfMapMode::kMmap, "mmap failed: " + path);
    std::ifstream in(path, std::ios::binary);  // kAuto falls back to read()
    LCRB_REQUIRE(in.good(), "cannot open file: " + path);
    return load(in, verify);
  }

  std::shared_ptr<Storage> storage = EfGraphIo::storage();
  storage->map_addr = addr;
  storage->map_len = file_len;
  storage->payload_offset = kEfHeaderBytes;

  EfHeader h{};
  std::memcpy(&h, addr, sizeof h);
  check_header(h, path);
  // Division form: a forged payload_words must not be multiplied before the
  // bound check, or words >= 2^61 wraps mod 2^64 and the check passes while
  // payload() spans far past the mapping.
  LCRB_REQUIRE(h.payload_words <=
                   (file_len - kEfHeaderBytes) / sizeof(std::uint64_t),
               "truncated EF graph payload: " + path);
  storage->payload_words = static_cast<std::size_t>(h.payload_words);
  return EfGraphIo::parse(std::move(storage), h, verify, path);
#else
  LCRB_REQUIRE(false, "unreachable");
  return {};
#endif
}

}  // namespace lcrb
