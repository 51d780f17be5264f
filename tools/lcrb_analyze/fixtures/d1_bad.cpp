// Fixture: seeded D1 violations — iteration over unordered containers.
// A `// expect-next-line[RULE]` marker means the following line must be
// flagged with exactly that rule; any other finding fails the self-test.
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fx {

using Counts = std::unordered_map<std::uint64_t, int>;

class Index {
 public:
  int total() const {
    int sum = 0;
    // expect-next-line[D1]
    for (const auto& kv : by_key_) {
      sum += kv.second;
    }
    return sum;
  }

  std::vector<std::uint64_t> keys() const {
    std::vector<std::uint64_t> out;
    // expect-next-line[D1]
    for (auto it = by_key_.cbegin(); it != by_key_.cend(); ++it) {
      out.push_back(it->first);
    }
    return out;
  }

 private:
  std::unordered_map<std::uint64_t, int> by_key_;
};

int alias_iteration(const Counts& c) {
  int s = 0;
  // expect-next-line[D1]
  for (const auto& kv : c) s += kv.second;
  return s;
}

int auto_ref_iteration(std::unordered_set<int>& live) {
  auto& view = live;
  int s = 0;
  // expect-next-line[D1]
  for (int v : view) s += v;
  return s;
}

int structured_binding_iteration(const std::unordered_map<int, double>& acc) {
  int s = 0;
  // expect-next-line[D1]
  for (const auto& [k, v] : acc) s += k;
  return s;
}

bool begin_walk(const std::unordered_set<unsigned>& seen) {
  // expect-next-line[D1]
  auto it = seen.begin();
  return it == seen.end();
}

}  // namespace fx
