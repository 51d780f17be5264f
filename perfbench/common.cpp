#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "graph/generators.h"
#include "graph/io.h"
#include "util/error.h"

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The paper's |R| fractions of |C| (Figs. 4-9 and Table I's Hep/Email-2631
/// rows).
constexpr double kFractions[] = {0.01, 0.05, 0.10};

std::vector<Workload> workloads(bool tiny) {
  Workload mc;
  mc.name = "fig4_opoao_mc";
  mc.scale = tiny ? 0.05 : 0.2;
  mc.sigma_samples = tiny ? 5 : 10;
  mc.max_candidates = tiny ? 50 : 100;
  mc.eval_runs = tiny ? 10 : 100;

  Workload ris = mc;
  ris.name = "fig4_opoao_ris_ef";
  ris.backend = lcrb::GraphBackend::kEf;
  ris.sigma_mode = lcrb::SigmaMode::kRis;

  Workload t1;
  t1.name = "table1_doam_email";
  t1.email = true;
  t1.scale = tiny ? 0.03 : 1.0;
  t1.clients = 2;
  // DOAM is deterministic: one run is the whole distribution.
  t1.eval_runs = 1;
  return {mc, ris, t1};
}

}  // namespace

const char* to_string(Phase p) {
  switch (p) {
    case Phase::kSelectCold:
      return "select_cold";
    case Phase::kSelectWarm:
      return "select_warm";
    case Phase::kEvaluate:
      return "evaluate";
  }
  return "?";
}

Workload find_workload(const std::string& name, bool tiny) {
  for (Workload& w : workloads(tiny)) {
    if (w.name == name) return w;
  }
  throw lcrb::Error("unknown workload '" + name + "'");
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const Workload& w : workloads(false)) out.push_back(w.name);
  return out;
}

Inputs make_inputs(const Workload& w, const std::string& edge_path) {
  const lcrb::DatasetSubstitute ds =
      w.email ? lcrb::make_enron_like(kDatasetSeed, w.scale)
              : lcrb::make_hep_like(kDatasetSeed, w.scale);
  // Table I and Fig. 4 both use the planted "medium" community: |C|=2631
  // on Email, |C|=308 on Hep (scaled).
  const lcrb::CommunityId planted = ds.planted_medium;
  Inputs in;
  in.planted_size = static_cast<NodeId>(
      std::count(ds.net.membership.begin(), ds.net.membership.end(), planted));
  in.num_nodes = ds.net.graph.num_nodes();
  in.num_arcs = static_cast<std::size_t>(ds.net.graph.num_edges());
  in.edge_path = edge_path;
  lcrb::save_edge_list(ds.net.graph, in.edge_path);
  return in;
}

Draw make_draw(std::uint64_t seed, std::uint64_t index,
               lcrb::CommunityId community, NodeId community_size) {
  Draw d;
  d.index = index;
  d.fraction = kFractions[index % std::size(kFractions)];
  d.num_rumors = std::max<std::size_t>(
      1, static_cast<std::size_t>(d.fraction * community_size));
  // Requests carry seeds as non-negative JSON integers: keep 63 bits.
  d.rumor_seed = splitmix64(splitmix64(seed) ^ index ^
                            (static_cast<std::uint64_t>(community) << 48)) >>
                 1;
  return d;
}

namespace {

QueryRequest base_request(const Workload& w, const std::string& dataset,
                          lcrb::CommunityId community, const Draw& d,
                          const std::string& tag) {
  QueryRequest req;
  req.id = std::to_string(d.index) + "-" + tag;
  req.dataset = dataset;
  req.rumor_community = community;
  req.num_rumors = d.num_rumors;
  req.rumor_seed = d.rumor_seed;
  lcrb::LcrbOptions& o = req.options;
  o.max_hops = 31;
  if (w.email) {
    o.selector = lcrb::SelectorKind::kScbg;
    o.model = lcrb::DiffusionModel::kDoam;
  } else {
    o.selector = lcrb::SelectorKind::kGreedy;
    o.sigma_mode = w.sigma_mode;
    o.model = lcrb::DiffusionModel::kOpoao;
    o.alpha = 0.95;
    o.sigma_samples = w.sigma_samples;
    o.max_candidates = w.max_candidates;
  }
  return req;
}

}  // namespace

QueryRequest cold_select(const Workload& w, const std::string& dataset,
                         lcrb::CommunityId community, const Draw& d) {
  return base_request(w, dataset, community, d, "cold");
}

QueryRequest warm_select(const Workload& w, const std::string& dataset,
                         lcrb::CommunityId community, const Draw& d,
                         std::size_t scbg_cost) {
  QueryRequest req = base_request(w, dataset, community, d, "warm");
  if (w.email) {
    // Figs. 7-9: the heuristic is given exactly SCBG's cost.
    req.options.selector = lcrb::SelectorKind::kMaxDegree;
    req.options.budget = std::max<std::size_t>(scbg_cost, 1);
  } else {
    req.options.alpha = 0.9;
  }
  return req;
}

QueryRequest evaluate(const Workload& w, const std::string& dataset,
                      lcrb::CommunityId community, const Draw& d,
                      std::vector<NodeId> protectors, const std::string& tag) {
  QueryRequest req = base_request(w, dataset, community, d, tag);
  req.op = lcrb::service::QueryOp::kEvaluate;
  req.protectors = std::move(protectors);
  req.eval_runs = w.eval_runs;
  req.eval_seed = splitmix64(d.rumor_seed) >> 1;
  return req;
}

lcrb::service::ServiceConfig service_config(const Workload& w,
                                            std::size_t executors) {
  lcrb::service::ServiceConfig cfg;
  cfg.threads = kPoolThreads;
  cfg.max_concurrent = executors == 0 ? w.clients : executors;
  cfg.collect_meta = true;
  return cfg;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double percentile(std::vector<double> xs, double p, std::size_t* beyond) {
  if (xs.empty()) {
    if (beyond != nullptr) *beyond = 0;
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(p / 100.0 * static_cast<double>(xs.size()))));
  if (beyond != nullptr) *beyond = xs.size() - rank;
  return xs[rank - 1];
}

double spin_ms() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return ms_between(t0, Clock::now());
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
                softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  if (!in || cpu != "cpu") return {};
  return {user + nice + system + irq + softirq + steal, steal};
}

double steal_frac(const CpuTicks& from, const CpuTicks& to) {
  const std::uint64_t busy = to.busy - from.busy;
  return busy == 0 ? 0.0
                   : static_cast<double>(to.steal - from.steal) /
                         static_cast<double>(busy);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void put_metric(lcrb::JsonValue& metrics, const std::string& name,
                double value, const std::string& unit) {
  lcrb::JsonValue m = lcrb::JsonValue::object();
  m.set("value", value);
  m.set("unit", unit);
  metrics.set(name, m);
}

}  // namespace perfbench
