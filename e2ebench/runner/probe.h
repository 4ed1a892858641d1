// Machine-speed probe for the host-time metrics.
//
// The benchmark runs on shared hosts whose speed on simulator-like code
// drifts by a quarter or more over seconds to minutes while the code stays
// the same. A fixed discrete-event loop, timed before every set-up and arm,
// slows down with the simulator in those spells, so host times are reported
// both raw and at a reference speed: raw x kProbeRefMs / the median probe
// time of the same pass (of the set-ups, for set-up time).
//
// The probe is code the simulator cannot reach: it includes no simulator
// header, links nothing from the simulator, takes all its memory from a
// private buffer rather than the process heap, and is compiled in its own
// target with the benchmark's fixed flags (CMakeLists.txt), not the program's.
#ifndef E2EBENCH_RUNNER_PROBE_H_
#define E2EBENCH_RUNNER_PROBE_H_

#include <cstdint>

namespace e2e {

// A round value near the probe's median on the 4-CPU Xeon container the
// README's numbers come from; scaled host times are reported at the speed at
// which the probe takes this long.
inline constexpr double kProbeRefMs = 5.0;

struct ProbeResult {
  double ms = 0.0;
  std::uint64_t checksum = 0;  // the same on every call
};

// Runs the probe once: a binary-heap event queue of std::function callbacks
// that allocate, a hash map they update and floating-point timestamps, the
// shape of the simulator's hot path.
ProbeResult RunProbe();

}  // namespace e2e

#endif  // E2EBENCH_RUNNER_PROBE_H_
