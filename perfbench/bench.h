// The closed loop that drives the query service, shared by the untraced
// (end-to-end) run and the traced run, plus the output checks.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// One query as the client saw it.
struct QueryRecord {
  Phase phase = Phase::kSelectCold;
  std::uint64_t draw = 0;
  double fraction = 0.0;    ///< the draw's |R| fraction
  double latency_ms = 0.0;  ///< submit to completion callback
  double wall_ms = 0.0;     ///< meta.wall_ms: execution inside the service
  /// meta cache flags: -1 absent from this query's meta, else 0/1.
  int setup_hit = -1;
  int estimator_hit = -1;
  int ris_hit = -1;
};

/// Everything one draw produced, kept for the output checks and the replay.
struct DrawRecord {
  Draw draw;
  std::vector<QueryRequest> requests;  ///< in submission order
  std::vector<QueryResult> results;
};

/// State of one benchmark process: the service under test, its sessions and
/// everything the timed loop recorded.
class Bench {
 public:
  Bench(Workload w, std::uint64_t seed, const std::string& workdir,
        bool record_spans);

  const Workload& workload() const { return w_; }
  const Inputs& inputs() const { return in_; }
  lcrb::service::QueryService& service() { return *svc_; }
  const std::shared_ptr<lcrb::service::GraphSession>& session() const {
    return sessions_.front();
  }
  NodeId community_size() const { return community_size_; }

  /// Untimed warm-up: one open and kWarmupDraws fixed draws (two per |R|
  /// fraction, indices outside the timed set) on a throw-away service, so
  /// first-touch costs (page faults, allocator growth, lazy statics) land
  /// nowhere. Records rss_mib.
  void warm_up();
  /// Runs the closed loop for `seconds`, split into segments. Each segment
  /// starts on freshly opened sessions, so set-up samples are spread across
  /// the run.
  void run_loop(double seconds, std::size_t segments);
  /// Output checks: replays sampled draws on a fresh service (and, on the EF
  /// workload, on a fresh CSR service) and compares payload bytes; counts
  /// every check in attempted/failed. `corrupt` flips one stored byte first
  /// (the self-test of the check).
  void check_outputs(bool corrupt);

  /// Times one open_dataset on `svc` and returns the session.
  std::shared_ptr<lcrb::service::GraphSession> timed_open(
      lcrb::service::QueryService& svc, const std::string& dataset,
      lcrb::GraphBackend backend, bool sample);

  // --- recorded ------------------------------------------------------------
  std::vector<QueryRecord> records;
  std::vector<DrawRecord> draws;  ///< sorted by draw index after run_loop
  std::vector<double> setup_ms;   ///< open_dataset samples
  double loop_wall_ms = 0.0;      ///< sum of segment wall times
  /// Share of the guest's wanted CPU time the hypervisor stole during the
  /// loop: a host diagnostic, like spin_ms, never used to correct a metric.
  double steal_frac = 0.0;
  /// Peak RSS at the end of the warm-up: generate and open the dataset and
  /// serve kWarmupDraws fixed draws on one client. Fixed inputs make it a
  /// figure of the program, not of the seed or of how many draws a run
  /// finished (the session caches grow with every new draw, and Table I's
  /// peak is set by its worst SCBG transient).
  double rss_mib = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  /// Time spent recording spans (the tracing overhead), ms.
  double span_cost_ms = 0.0;

  struct Span {
    std::string name;
    std::uint64_t request = 0;  ///< draw index; spans of one draw share it
    int parent = -1;            ///< index into spans, -1 = root
    double start_ms = 0.0;      ///< since the process epoch
    double end_ms = 0.0;
  };
  std::vector<Span> spans;
  /// Appends a span; returns its index.
  int span(std::string name, std::uint64_t request, int parent,
           Clock::time_point start, Clock::time_point end);
  /// Closes a span opened with start == end.
  void end_span(int index);
  void write_spans(const std::string& path) const;

 private:
  /// Runs one draw's queries in order; returns "" or the first failure.
  std::string run_draw(lcrb::service::QueryService& svc,
                       const std::string& dataset, const Draw& d,
                       std::vector<QueryRecord>* recs, DrawRecord* out);
  QueryResult submit(lcrb::service::QueryService& svc,
                     const QueryRequest& req, Phase phase, const Draw& d,
                     std::vector<QueryRecord>* recs);
  void fail(std::string message);
  /// Closes the clients' sessions and opens fresh ones, one per client
  /// (timed: each open is a set-up sample).
  void open_sessions();

  Workload w_;
  std::uint64_t seed_;
  bool record_spans_;
  Clock::time_point epoch_;
  Inputs in_;
  std::unique_ptr<lcrb::service::QueryService> svc_;
  std::unique_ptr<lcrb::service::QueryService> probe_;  ///< set-up samples
  std::vector<std::shared_ptr<lcrb::service::GraphSession>> sessions_;
  std::vector<std::string> datasets_;
  lcrb::CommunityId community_ = lcrb::kInvalidCommunity;
  NodeId community_size_ = 0;
  std::atomic<std::uint64_t> next_draw_{0};
  std::size_t probe_opens_ = 0;
  std::mutex mu_;  ///< guards records, draws, spans, errors, counters
};

/// The traced run's per-layer metrics (and the phase decomposition, written
/// into `provenance`).
lcrb::JsonValue trace_layers(Bench& bench, double seconds,
                             lcrb::JsonValue& provenance);

}  // namespace perfbench
