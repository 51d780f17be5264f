// Fixture: sanctioned parallel mutation patterns — zero findings.
#include <atomic>
#include <mutex>
#include <vector>

struct ThreadPool {
  template <typename Fn>
  void parallel_for(unsigned long n, Fn&& fn);
};

namespace fx {

using Row = std::vector<int>;

// Members named like the lambda locals below: a local the model failed to
// recognise would resolve to these and read as a shared write.
struct Totals {
  Row out;
  Row words;
  long cursor = 0;
  long reached = 0;
};

struct Block {
  Row nodes;
  Row words;
};

long count_nonzero(const int* first, const int* last);

void slots_atomics_locks_locals(ThreadPool& pool, unsigned long n) {
  // Per-index slot writes: each task owns its index.
  std::vector<double> out(n, 0.0);
  pool.parallel_for(n, [&](unsigned long i) { out[i] = double(i) * 0.5; });

  // Atomic counter.
  std::atomic<long> hits{0};
  pool.parallel_for(n, [&](unsigned long i) {
    (void)i;
    hits++;
  });

  // Mutex-guarded shared container.
  std::vector<int> shared;
  std::mutex mu;
  pool.parallel_for(n, [&](unsigned long i) {
    std::lock_guard<std::mutex> lk(mu);
    shared.push_back(static_cast<int>(i));
  });

  // Body-local state is task-private.
  pool.parallel_for(n, [&](unsigned long i) {
    int local = 0;
    local += static_cast<int>(i);
    (void)local;
  });

  // Pointer, reference and auto-from-call locals are task-private too.
  std::vector<Row> rows(n);
  std::vector<int> cells(n * 4, 0);
  pool.parallel_for(n, [&](unsigned long i) {
    int* cursor = cells.data() + i * 4;
    ++cursor;
    Row& out = rows[i];
    out.push_back(*cursor);
    auto reached = count_nonzero(cells.data(), cells.data() + n);
    reached -= 1;
    (void)reached;
  });

  // A templated reference declarator is a local as well.
  std::vector<std::vector<int>> lists(n);
  pool.parallel_for(n, [&](unsigned long i) {
    std::vector<int>& out = lists[i];
    out.push_back(static_cast<int>(i));
  });

  // A member reached through a lambda-local object writes that object.
  std::vector<Block> blocks(n);
  pool.parallel_for(n, [&](unsigned long i) {
    Block block;
    block.words.push_back(static_cast<int>(i));
    blocks[i] = block;
  });
}

}  // namespace fx
