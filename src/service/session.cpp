#include "service/session.h"

#include <sstream>

#include "util/error.h"

namespace lcrb::service {

namespace {

std::size_t graph_bytes(GraphRef g) {
  if (const DiGraph* csr = g.csr_or_null()) {
    const std::size_t n = csr->num_nodes();
    const std::size_t m = static_cast<std::size_t>(csr->num_edges());
    // Both CSR directions: two offset arrays of n+1 EdgeIds, two endpoint
    // arrays of m NodeIds.
    return 2 * ((n + 1) * sizeof(EdgeId) + m * sizeof(NodeId));
  }
  // Compressed backend: the encoded footprint itself, every word of its
  // buffer.
  return g.memory_bytes();
}

std::size_t partition_bytes(const Partition& p) {
  // membership_ (n CommunityIds) + members_ lists (n NodeIds total across
  // communities, plus one vector header per community).
  const std::size_t n = p.num_nodes();
  return n * sizeof(CommunityId) + n * sizeof(NodeId) +
         static_cast<std::size_t>(p.num_communities()) *
             sizeof(std::vector<NodeId>);
}

std::size_t setup_bytes(const ExperimentSetup& s) {
  return sizeof(ExperimentSetup) + s.rumors.capacity() * sizeof(NodeId) +
         s.bridges.bridge_ends.capacity() * sizeof(NodeId) +
         s.bridges.rumor_dist.capacity() * sizeof(std::uint32_t);
}

void append_sigma_key(std::ostringstream& key, const SigmaConfig& cfg) {
  // hexfloat: exact, so two distinct probabilities can never share a key.
  key << ":model=" << to_string(cfg.model) << ":hops=" << cfg.max_hops
      << ":seed=" << cfg.seed << ":icp=" << std::hexfloat << cfg.ic_edge_prob
      << std::defaultfloat;
}

}  // namespace

GraphSession::GraphSession(std::string dataset, GraphAny graph,
                           Partition partition)
    : dataset_(std::move(dataset)),
      graph_(std::move(graph)),
      partition_(std::move(partition)) {
  LCRB_REQUIRE(partition_.num_nodes() == graph_.num_nodes(),
               "session partition does not cover the graph");
  base_bytes_ = graph_bytes(graph_.ref()) + partition_bytes(partition_);
}

std::shared_ptr<const ExperimentSetup> GraphSession::find_setup(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = setups_.find(key);
  return it == setups_.end() ? nullptr : it->second;
}

void GraphSession::keep_setup(const std::string& key,
                              std::shared_ptr<const ExperimentSetup> setup) {
  std::lock_guard<std::mutex> lock(mu_);
  setups_.emplace(key, std::move(setup));
}

std::shared_ptr<SigmaEstimator> GraphSession::estimator_for(
    const std::string& setup_key, const ExperimentSetup& setup,
    const SigmaConfig& cfg, ThreadPool* pool, bool* cache_hit) {
  std::ostringstream key;
  key << setup_key;
  append_sigma_key(key, cfg);
  key << ":samples=" << cfg.samples;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = estimators_.find(key.str());
  if (it != estimators_.end()) {
    if (cache_hit != nullptr) *cache_hit = true;
    return it->second;
  }
  if (cache_hit != nullptr) *cache_hit = false;
  auto estimator = std::make_shared<SigmaEstimator>(
      graph_.ref(), setup.rumors, setup.bridges.bridge_ends, cfg, pool);
  estimators_.emplace(key.str(), estimator);
  return estimator;
}

std::shared_ptr<RisContext> GraphSession::ris_context_for(
    const std::string& setup_key, const ExperimentSetup& setup,
    const RisConfig& cfg, bool* cache_hit) {
  std::ostringstream key;
  key << setup_key;
  SigmaConfig draws;
  draws.model = cfg.model;
  draws.max_hops = cfg.max_hops;
  draws.seed = cfg.seed;
  draws.ic_edge_prob = cfg.ic_edge_prob;
  append_sigma_key(key, draws);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ris_contexts_.find(key.str());
  if (it != ris_contexts_.end()) {
    if (cache_hit != nullptr) *cache_hit = true;
    return it->second;
  }
  if (cache_hit != nullptr) *cache_hit = false;
  auto ctx = std::make_shared<RisContext>(graph_.ref(), setup.rumors,
                                          setup.bridges.bridge_ends, cfg);
  ris_contexts_.emplace(key.str(), ctx);
  return ctx;
}

std::shared_ptr<const QueryResult> GraphSession::cached_result(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = results_.find(key);
  return it == results_.end() ? nullptr : it->second.result;
}

void GraphSession::store_result(const std::string& key,
                                const QueryResult& result) {
  // Strip the caller-varying bits so a cache entry serves every caller: the
  // id and wire version are re-stamped on replay, and meta describes the
  // computing run only.
  QueryResult canonical = result;
  canonical.version = kProtocolVersion;
  canonical.id.clear();
  canonical.meta = JsonValue();
  const std::size_t bytes =
      key.size() + canonical.to_json(false).dump().size();
  std::lock_guard<std::mutex> lock(mu_);
  results_.emplace(
      key, CachedResult{
               std::make_shared<const QueryResult>(std::move(canonical)),
               bytes});
}

std::size_t GraphSession::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t bytes = base_bytes_;
  for (const auto& [key, setup] : setups_) {
    bytes += key.size() + setup_bytes(*setup);
  }
  for (const auto& [key, est] : estimators_) {
    bytes += key.size() + est->memory_bytes();
  }
  for (const auto& [key, ctx] : ris_contexts_) {
    bytes += key.size() + ctx->memory_bytes();
  }
  for (const auto& [key, entry] : results_) {
    bytes += entry.bytes;
  }
  return bytes;
}

std::string make_result_key(const QueryRequest& req) {
  // Canonicalize everything that cannot affect the deterministic payload:
  // correlation id, deadline budget, admission identity, and the wire
  // version (a v1 and a v2 rendering of the same query share one entry —
  // the replay is re-stamped with the caller's version).
  QueryRequest canonical = req;
  canonical.version = kProtocolVersion;
  canonical.id.clear();
  canonical.tenant.clear();
  canonical.deadline_ms = -1;
  return canonical.to_json().dump();
}

std::string make_setup_key(const std::vector<NodeId>& rumor_ids,
                           CommunityId resolved_community,
                           std::size_t num_rumors, std::uint64_t rumor_seed) {
  std::ostringstream key;
  if (!rumor_ids.empty()) {
    key << "ids=";
    for (std::size_t i = 0; i < rumor_ids.size(); ++i) {
      if (i > 0) key << ',';
      key << rumor_ids[i];
    }
  } else {
    key << "comm=" << resolved_community << ":k=" << num_rumors
        << ":seed=" << rumor_seed;
  }
  return key.str();
}

std::shared_ptr<GraphSession> SessionRegistry::open(std::string dataset,
                                                    GraphAny graph,
                                                    Partition partition) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(dataset);
  if (it != sessions_.end()) {
    it->second.last_used = ++tick_;
    return it->second.session;
  }
  auto session = std::make_shared<GraphSession>(dataset, std::move(graph),
                                                std::move(partition));
  sessions_.emplace(std::move(dataset), Entry{session, ++tick_});
  evict_locked();
  return session;
}

std::shared_ptr<GraphSession> SessionRegistry::find(
    const std::string& dataset) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(dataset);
  if (it == sessions_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  it->second.last_used = ++tick_;
  // Warm state may have grown since the last look; rebalance, never
  // evicting the entry just requested (its use_count is now > 1).
  std::shared_ptr<GraphSession> session = it->second.session;
  evict_locked();
  return session;
}

bool SessionRegistry::close(const std::string& dataset) {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.erase(dataset) > 0;
}

std::vector<std::string> SessionRegistry::datasets() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(sessions_.size());
  for (const auto& [name, entry] : sessions_) out.push_back(name);
  return out;
}

std::size_t SessionRegistry::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [name, entry] : sessions_) {
    total += entry.session->memory_bytes();
  }
  return total;
}

void SessionRegistry::set_max_bytes(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  max_bytes_ = bytes;
  evict_locked();
}

SessionRegistry::Stats SessionRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.sessions = sessions_.size();
  for (const auto& [name, entry] : sessions_) {
    s.resident_bytes += entry.session->memory_bytes();
  }
  s.evictions = evictions_;
  s.hits = hits_;
  s.misses = misses_;
  return s;
}

void SessionRegistry::evict_locked() {
  for (;;) {
    std::size_t total = 0;
    for (const auto& [name, entry] : sessions_) {
      total += entry.session->memory_bytes();
    }
    if (total <= max_bytes_) return;
    // Oldest unpinned entry. The registry holds exactly one reference per
    // session; anything above that is an in-flight query.
    auto victim = sessions_.end();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->second.session.use_count() > 1) continue;
      if (victim == sessions_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == sessions_.end()) return;  // everything pinned: over budget
    ++evictions_;
    sessions_.erase(victim);
  }
}

}  // namespace lcrb::service
