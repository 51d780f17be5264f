// Fixture: seeded D4 violations — unsynchronized writes from pool tasks.
#include <mutex>
#include <vector>

struct ThreadPool {
  template <typename Fn>
  void parallel_for(unsigned long n, Fn&& fn);
};

namespace fx {

using Row = std::vector<int>;

struct Block {
  Row nodes;
  Row words;
};

struct Collector {
  std::vector<int> results_;
  int hits_ = 0;
  bool done_ = false;

  void collect(ThreadPool& pool, unsigned long n) {
    pool.parallel_for(n, [&](unsigned long i) {
      // expect-next-line[D4]
      results_.push_back(static_cast<int>(i));
      // expect-next-line[D4]
      hits_++;
      // expect-next-line[D4]
      done_ = true;
    });
  }
};

int shared_counter(ThreadPool& pool, unsigned long n) {
  int total = 0;
  // expect-next-line[D4]
  pool.parallel_for(n, [&](unsigned long i) { total += static_cast<int>(i); });
  return total;
}

int write_after_lock_scope(ThreadPool& pool, unsigned long n, std::mutex& mu) {
  int total = 0;
  pool.parallel_for(n, [&](unsigned long i) {
    {
      std::lock_guard<std::mutex> lk(mu);
      total += 1;
    }
    // The guard died with its block: this write is unsynchronized.
    // expect-next-line[D4]
    total += static_cast<int>(i);
  });
  return total;
}

// Declared outside the task, so shared by every task: a templated
// reference and a member reached through an outer object.
void shared_through_outer_objects(ThreadPool& pool, unsigned long n,
                                  std::vector<Row>& lists) {
  std::vector<int>& out = lists[0];
  Block block;
  pool.parallel_for(n, [&](unsigned long i) {
    // expect-next-line[D4]
    out.push_back(static_cast<int>(i));
    // expect-next-line[D4]
    block.words.push_back(static_cast<int>(i));
  });
}

}  // namespace fx
