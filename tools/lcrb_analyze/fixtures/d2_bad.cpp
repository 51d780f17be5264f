// Fixture: seeded D2 violations — order-sensitive floating-point reduction.
#include <atomic>
#include <mutex>
#include <numeric>
#include <vector>

struct ThreadPool {
  template <typename Fn>
  void parallel_for(unsigned long n, Fn&& fn);
};

namespace fx {

double racy_parallel_sum(ThreadPool& pool, const std::vector<double>& w) {
  double total = 0.0;
  // expect-next-line[D2]
  pool.parallel_for(w.size(), [&](unsigned long i) { total += w[i]; });
  return total;
}

double named_task_sum(ThreadPool& pool, const std::vector<double>& w) {
  double total = 0.0;
  // expect-next-line[D2]
  auto body = [&](unsigned long i) { total += w[i]; };
  pool.parallel_for(w.size(), body);
  return total;
}

// expect-next-line[D2]
std::atomic<double> g_cas_accumulator{0.0};

double locked_parallel_sum(ThreadPool& pool, const std::vector<double>& w) {
  // A mutex makes the += race-free but NOT order-stable: the adds still
  // commit in scheduling order, so the sum differs across runs.
  double total = 0.0;
  std::mutex mu;
  pool.parallel_for(w.size(), [&](unsigned long i) {
    std::lock_guard<std::mutex> lk(mu);
    // expect-next-line[D2]
    total += w[i];
  });
  return total;
}

double fp_accumulate(const std::vector<double>& v) {
  // expect-next-line[D2]
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double unordered_reduce(const std::vector<double>& v) {
  // expect-next-line[D2]
  return std::reduce(v.begin(), v.end());
}

}  // namespace fx
