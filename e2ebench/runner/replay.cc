#include "e2ebench/runner/replay.h"

#include <malloc.h>

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>

#include "e2ebench/runner/digest.h"
#include "e2ebench/runner/spans.h"
#include "src/sim/simulator.h"

namespace e2e {

using namespace orion;

namespace {

// Bytes in use from the heap plus large blocks glibc serves with mmap.
double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// Measures one replay: host time and heap retained from before the device is
// built until after its simulator ran dry.
class Measure {
 public:
  Measure() : heap_before_mb_(HeapInUseMb()), start_ns_(NowNs()) {}

  ReplayResult Finish(const Simulator& sim, const gpusim::Device& device, const Digest& digest) {
    ReplayResult r;
    r.host_ns = static_cast<double>(NowNs() - start_ns_);
    r.retained_mb = HeapInUseMb() - heap_before_mb_;
    r.kernels = device.kernels_completed();
    r.copies = device.memcpys_completed();
    r.events = sim.events_processed();
    Digest d = digest;
    d.U64(r.kernels);
    d.U64(r.copies);
    d.U64(r.events);
    d.F64(sim.now());
    r.digest = d.value();
    return r;
  }

 private:
  double heap_before_mb_;
  std::int64_t start_ns_;
};

// Launches the recorded kernels in start-time order, one simulator event per
// distinct start time.
class KernelFeeder {
 public:
  struct Launch {
    TimeUs at = 0.0;
    std::size_t stream = 0;  // index into the feeder's streams
    const gpusim::KernelDesc* desc = nullptr;
  };

  KernelFeeder(Simulator* sim, gpusim::Device* device, std::vector<gpusim::StreamId> streams,
               const std::vector<Launch>* launches)
      : sim_(sim), device_(device), streams_(std::move(streams)), launches_(launches) {}

  void Start() {
    if (!launches_->empty()) {
      sim_->ScheduleAt(launches_->front().at, [this] { Fire(); });
    }
  }

 private:
  void Fire() {
    const std::vector<Launch>& launches = *launches_;
    const TimeUs now = launches[next_].at;
    while (next_ < launches.size() && launches[next_].at == now) {
      device_->LaunchKernel(streams_[launches[next_].stream], *launches[next_].desc);
      ++next_;
    }
    if (next_ < launches.size()) {
      sim_->ScheduleAt(launches[next_].at, [this] { Fire(); });
    }
  }

  Simulator* sim_;
  gpusim::Device* device_;
  std::vector<gpusim::StreamId> streams_;
  const std::vector<Launch>* launches_;
  std::size_t next_ = 0;
};

// Issues one copy class: copy n of `count` at (n + 0.5) / count of the horizon.
class CopyFeeder {
 public:
  CopyFeeder(Simulator* sim, gpusim::Device* device, gpusim::StreamId stream,
             const CopyClass& copy, TimeUs horizon_us, Digest* digest)
      : sim_(sim), device_(device), stream_(stream), copy_(copy), horizon_us_(horizon_us),
        digest_(digest) {}

  void Start() { ScheduleNext(); }

 private:
  void ScheduleNext() {
    if (issued_ < copy_.count) {
      const double share = (static_cast<double>(issued_) + 0.5) / static_cast<double>(copy_.count);
      sim_->ScheduleAt(share * horizon_us_, [this] { Issue(); });
    }
  }

  void Issue() {
    ++issued_;
    device_->EnqueueMemcpy(stream_, copy_.bytes, copy_.kind, [this] {
      digest_->U64(static_cast<std::uint64_t>(stream_));
      digest_->F64(sim_->now());
    });
    ScheduleNext();
  }

  Simulator* sim_;
  gpusim::Device* device_;
  gpusim::StreamId stream_;
  CopyClass copy_;
  TimeUs horizon_us_;
  Digest* digest_;
  std::uint64_t issued_ = 0;
};

}  // namespace

ReplayResult ReplayKernels(const std::vector<gpusim::KernelExecRecord>& records,
                           const std::vector<KernelSource>& sources) {
  struct Known {
    const gpusim::KernelDesc* desc;
    bool high_priority;
  };
  std::unordered_map<std::uint64_t, Known> table;
  for (const KernelSource& source : sources) {
    for (const gpusim::KernelDesc& desc : *source.kernels) {
      if (!table.emplace(desc.kernel_id, Known{&desc, source.high_priority}).second) {
        ReplayResult r;
        r.error = "kernel id " + std::to_string(desc.kernel_id) + " names two kernels";
        return r;
      }
    }
  }
  // Start-time order; ties keep completion order, so per-stream FIFO order
  // (start times never decrease along a stream) is preserved.
  std::vector<std::size_t> order(records.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&records](std::size_t a, std::size_t b) {
    return records[a].start < records[b].start;
  });

  // Replay streams in order of first use, each with the priority of the
  // client its kernels belong to.
  std::map<gpusim::StreamId, std::size_t> stream_index;
  std::vector<bool> stream_high;
  std::vector<KernelFeeder::Launch> launches;
  launches.reserve(records.size());
  for (const std::size_t i : order) {
    const gpusim::KernelExecRecord& record = records[i];
    const auto known = table.find(record.kernel_id);
    if (known == table.end()) {
      ReplayResult r;
      r.error = "recorded kernel id " + std::to_string(record.kernel_id) + " (" + record.name +
                ") is in no BuildKernels table";
      return r;
    }
    const auto [stream, added] = stream_index.emplace(record.stream, stream_high.size());
    if (added) {
      stream_high.push_back(known->second.high_priority);
    }
    launches.push_back({record.start, stream->second, known->second.desc});
  }

  Measure measure;
  Simulator sim;
  gpusim::Device device(&sim, gpusim::DeviceSpec::V100_16GB());
  Digest digest;
  device.set_kernel_trace_sink([&digest](const gpusim::KernelExecRecord& record) {
    digest.U64(record.kernel_id);
    digest.U64(static_cast<std::uint64_t>(record.stream));
    digest.F64(record.end);
  });
  std::vector<gpusim::StreamId> streams;
  for (const bool high : stream_high) {
    streams.push_back(device.CreateStream(high ? gpusim::kPriorityHigh : gpusim::kPriorityDefault));
  }
  KernelFeeder feeder(&sim, &device, std::move(streams), &launches);
  feeder.Start();
  sim.RunUntilIdle();
  return measure.Finish(sim, device, digest);
}

ReplayResult ReplayCopies(const CopyTraffic& traffic) {
  Measure measure;
  Simulator sim;
  gpusim::Device device(&sim, gpusim::DeviceSpec::V100_16GB());
  device.set_pcie_priority_scheduling(traffic.pcie_priority_scheduling);
  const gpusim::StreamId high = device.CreateStream(gpusim::kPriorityHigh);
  const gpusim::StreamId normal = device.CreateStream(gpusim::kPriorityDefault);
  Digest digest;
  std::vector<std::unique_ptr<CopyFeeder>> feeders;
  for (const CopyClass& copy : traffic.classes) {
    feeders.push_back(std::make_unique<CopyFeeder>(&sim, &device,
                                                   copy.high_priority ? high : normal, copy,
                                                   traffic.horizon_us, &digest));
    feeders.back()->Start();
  }
  sim.RunUntilIdle();
  return measure.Finish(sim, device, digest);
}

}  // namespace e2e
