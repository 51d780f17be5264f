// Fixture: seeded D3 violations — banned nondeterminism sources.
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <map>
#include <random>

namespace fx {

int unseeded_sources() {
  // expect-next-line[D3]
  std::mt19937 gen(12345);
  // expect-next-line[D3]
  std::random_device rd;
  // expect-next-line[D3]
  int r = std::rand();
  // expect-next-line[D3]
  r += rand();
  // expect-next-line[D3]
  auto t = time(nullptr);
  // expect-next-line[D3]
  auto tick = std::chrono::steady_clock::now();
  // expect-next-line[D3]
  std::size_t h = std::hash<int>{}(42);
  (void)gen;
  (void)rd;
  (void)t;
  (void)tick;
  return r + static_cast<int>(h);
}

// expect-next-line[D3]
std::map<int*, int> g_by_address;

}  // namespace fx
