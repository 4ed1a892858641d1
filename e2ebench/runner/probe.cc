#include "e2ebench/runner/probe.h"

#include <chrono>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory_resource>
#include <queue>
#include <unordered_map>
#include <vector>

namespace e2e {

namespace {

constexpr int kPending = 4096;  // events in the queue at any time
constexpr int kEvents = 16000;  // events handled per call
constexpr std::uint64_t kKeys = 5000;
// Holds every allocation of one call; the loop needs under 512 KiB.
constexpr std::size_t kArenaBytes = std::size_t{1} << 20;

struct Event {
  double at = 0.0;
  std::uint64_t id = 0;
  std::function<void()> fire;
};

// What the callbacks update: a hash map, and the allocator payloads return to.
struct State {
  std::pmr::unordered_map<std::uint64_t, double> totals;
  std::pmr::polymorphic_allocator<double> alloc;
};

struct Later {
  bool operator()(const Event& a, const Event& b) const {
    return a.at > b.at || (a.at == b.at && a.id > b.id);
  }
};

std::uint64_t Next(std::uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 11;
}

}  // namespace

ProbeResult RunProbe() {
  // Every allocation comes from a fresh pool over the same private buffer,
  // never from the process heap: a fragmented heap slowed the loop by a
  // quarter, and the simulator's heap is what a change under test alters.
  static std::vector<std::byte> arena(kArenaBytes);
  const auto start = std::chrono::steady_clock::now();
  std::pmr::monotonic_buffer_resource buffer(arena.data(), arena.size(),
                                             std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&buffer);
  std::pmr::vector<Event> storage(&pool);
  storage.reserve(kPending + 1);
  std::priority_queue<Event, std::pmr::vector<Event>, Later> queue(Later{}, std::move(storage));
  State state{std::pmr::unordered_map<std::uint64_t, double>(&pool),
              std::pmr::polymorphic_allocator<double>(&pool)};
  std::uint64_t rng = 99;
  std::uint64_t id = 0;
  for (int i = 0; i < kPending; ++i) {
    queue.push({static_cast<double>(Next(&rng) % 1000000), id++, nullptr});
  }
  for (int i = 0; i < kEvents; ++i) {
    Event event = queue.top();
    queue.pop();
    if (event.fire) {
      event.fire();
    }
    const std::uint64_t r = Next(&rng);
    // Two pointers: small enough for std::function to store in place.
    double* payload = state.alloc.allocate(1);
    *payload = event.at + static_cast<double>(r % kKeys);
    queue.push({event.at + static_cast<double>(r % 1000), id++, [s = &state, payload] {
                  s->totals[static_cast<std::uint64_t>(*payload) % kKeys] += *payload;
                  s->alloc.deallocate(payload, 1);
                }});
  }
  ProbeResult out;
  out.ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
               .count();
  for (const auto& [key, total] : state.totals) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &total, sizeof(bits));
    out.checksum += key * 0x9e3779b97f4a7c15ULL ^ bits;
  }
  out.checksum += state.totals.size();
  return out;
}

}  // namespace e2e
