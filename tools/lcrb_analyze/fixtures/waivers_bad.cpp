// Fixture: waiver hygiene failures — W1 (no justification or no rule) and
// W2 (stale).
#include <unordered_map>

namespace fx {

struct Tally {
  std::unordered_map<int, int> m_;

  int sum() const {
    int s = 0;
    // expect-next-line[W1]
    for (const auto& kv : m_) s += kv.second;  // det-ok[D1]: bad
    return s;
  }

  int bare(const std::unordered_map<int, int>& m) const {
    int s = 0;
    // A waiver must name its rule; the bare spelling waives nothing.
    // expect-next-line[W1][D1]
    for (const auto& kv : m) s += kv.second;  // det-ok: order-insensitive integer sum
    return s;
  }

  int stale() const {
    // expect-next-line[W2]
    int t = 0;  // det-ok[D2]: waiver left behind after the code it excused was rewritten
    return t;
  }
};

}  // namespace fx
