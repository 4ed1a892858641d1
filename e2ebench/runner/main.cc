// e2e_runner: runs one benchmark workload in this process and prints its
// metrics, the last stdout line being the JSON result.
//
//   e2e_runner --workload colloc_apollo --seed 1 --seconds 20 --trace 0
//              --reference e2ebench/reference/digests.txt
//
// --trace 0 times repeated set-ups and repeated passes over the workload's
// arms and reports the end-to-end metrics. --trace 1 alternates untraced
// and traced passes (counters-only telemetry hub, host-time spans), records
// one arm's kernel trace, replays its traffic on a bare gpusim device and
// reports the per-layer metrics. Host times are reported raw and scaled to a
// reference machine speed by the probe (probe.h). Every arm's output digest
// must equal the same arm's digest in every other pass (traced and recorded
// ones included) and, when the reference file has entries for this workload
// and seed, the committed digest. --write-reference appends this run's
// digests to a file instead of checking them against it.
//
// Exit codes: 0 all outputs correct, 1 a digest or invariant check failed
// (the JSON line is still printed), 2 bad arguments or unreadable files.
#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "e2ebench/runner/arms.h"
#include "e2ebench/runner/digest.h"
#include "e2ebench/runner/probe.h"
#include "e2ebench/runner/replay.h"
#include "e2ebench/runner/report.h"
#include "e2ebench/runner/spans.h"
#include "src/workloads/models.h"

namespace e2e {
namespace {

using namespace orion;

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 31;

struct Options {
  WorkloadId workload = WorkloadId::kCollocApollo;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string reference;
  std::string write_reference;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "e2e_runner: " << error << "\n"
            << "usage: e2e_runner --workload colloc_apollo|oversub_paging|dc_serving"
               " --seed N --seconds S --trace 0|1 (--reference FILE | --write-reference FILE)"
               " [--trace-out FILE]\n";
  std::exit(2);
}

bool ParseNumber(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

Options Parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &opt.workload)) {
        Usage("unknown workload '" + value + "'");
      }
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &number) || !(number >= 0 && number < 1e15) ||
          number != std::floor(number)) {
        Usage("--seed must be a non-negative integer");
      }
      opt.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &number) || !(number > 0.0 && number <= 60.0)) {
        Usage("--seconds must be in (0, 60]");
      }
      opt.seconds = number;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace must be 0 or 1");
      }
      opt.trace = value == "1";
    } else if (flag == "--reference") {
      opt.reference = value;
    } else if (flag == "--write-reference") {
      opt.write_reference = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  if (opt.reference.empty() == opt.write_reference.empty()) {
    Usage("exactly one of --reference and --write-reference is required");
  }
  return opt;
}

// Reference digests: one "<workload> <seed> <entry> <hex digest>" per line.
// Returns the entries for this workload and seed (empty when it has none).
std::map<std::string, std::string> LoadReference(const Options& opt) {
  std::ifstream in(opt.reference);
  if (!in) {
    Usage("cannot read reference file " + opt.reference);
  }
  std::map<std::string, std::string> entries;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string workload, seed, entry, digest, extra;
    if (!(fields >> workload >> seed >> entry >> digest) || (fields >> extra)) {
      Usage(opt.reference + ":" + std::to_string(line_no) + ": expected 4 fields");
    }
    if (workload == WorkloadName(opt.workload) && seed == std::to_string(opt.seed)) {
      entries[entry] = digest;
    }
  }
  return entries;
}

// Tracks every digest check of the run: each (entry, digest) is compared
// with the first digest seen for that entry and with the reference.
class Checker {
 public:
  explicit Checker(std::map<std::string, std::string> reference)
      : reference_(std::move(reference)) {}

  // Returns false (and logs why) when `digest` disagrees.
  bool Check(const std::string& entry, std::uint64_t digest) {
    const std::string hex = Hex(digest);
    auto [first, inserted] = first_.emplace(entry, hex);
    if (!inserted && first->second != hex) {
      std::cerr << "MISMATCH " << entry << ": " << hex << " differs from earlier run "
                << first->second << "\n";
      return false;
    }
    if (!reference_.empty()) {
      const auto ref = reference_.find(entry);
      if (ref == reference_.end()) {
        std::cerr << "MISMATCH " << entry << ": no reference digest\n";
        return false;
      }
      if (ref->second != hex) {
        std::cerr << "MISMATCH " << entry << ": " << hex << " != reference " << ref->second
                  << "\n";
        return false;
      }
    }
    return true;
  }

  bool has_reference() const { return !reference_.empty(); }
  const std::map<std::string, std::string>& digests() const { return first_; }

 private:
  std::map<std::string, std::string> reference_;
  std::map<std::string, std::string> first_;  // ordered by entry name
};

// Outputs are kept for the first untraced and the first traced pass only,
// so memory does not grow with the number of passes.
struct Pass {
  bool traced = false;
  std::vector<ArmOutput> outputs;
  std::vector<double> arm_ms;    // each arm's run call
  double host_s = 0.0;           // sum of the arms' run calls
  std::vector<double> probe_ms;  // one before each arm

  // Multiplies this pass's host times to the reference machine speed.
  double Scale() const { return kProbeRefMs / MedianOf(probe_ms).value; }
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Sum of the durations of spans called `name` in [begin, end).
double SpanSumMs(const SpanRecorder& spans, std::size_t begin, std::size_t end,
                 const std::string& name) {
  double ms = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const SpanRecord& s = spans.spans()[i];
    if (s.name == name) {
      ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  return ms;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The copies of a recorded collocation arm: the pager's faults and
// writebacks, and every client's input and output copies per request.
CopyTraffic RecordedCopies(const Arm& arm, const ArmOutput& out) {
  const harness::ExperimentConfig& config = arm.experiment;
  CopyTraffic traffic;
  traffic.horizon_us = config.warmup_us + config.duration_us;
  traffic.pcie_priority_scheduling = config.pcie_priority_scheduling;
  const memsub::PagingTotals& paging = out.paging;
  if (paging.faults > 0) {
    traffic.classes.push_back({gpusim::MemcpyKind::kHostToDevice,
                               paging.fault_bytes_h2d / paging.faults, paging.faults, false});
  }
  if (paging.writebacks > 0) {
    traffic.classes.push_back({gpusim::MemcpyKind::kDeviceToHost,
                               paging.writeback_bytes_d2h / paging.writebacks,
                               paging.writebacks, false});
  }
  for (std::size_t c = 0; c < config.clients.size(); ++c) {
    const harness::ClientConfig& client = config.clients[c];
    for (const runtime::Op& op : workloads::BuildRequestOps(config.device, client.workload)) {
      if (op.type == runtime::OpType::kMemcpyH2D || op.type == runtime::OpType::kMemcpyD2H) {
        traffic.classes.push_back({op.type == runtime::OpType::kMemcpyH2D
                                       ? gpusim::MemcpyKind::kHostToDevice
                                       : gpusim::MemcpyKind::kDeviceToHost,
                                   op.bytes, out.client_requests[c], client.high_priority});
      }
    }
  }
  return traffic;
}

void PrintSpanTable(const SpanRecorder& spans) {
  std::cout << "\nself time per span (" << spans.spans().size() << " spans)\n"
            << std::left << std::setw(16) << "span" << std::right << std::setw(8) << "count"
            << std::setw(14) << "total_ms" << std::setw(14) << "self_ms" << "\n";
  for (const auto& [name, t] : spans.Totals()) {
    std::cout << std::left << std::setw(16) << name << std::right << std::setw(8) << t.count
              << std::fixed << std::setprecision(3) << std::setw(14) << t.total_ms
              << std::setw(14) << t.self_ms << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
}

int Run(const Options& opt) {
  Checker checker(opt.reference.empty() ? std::map<std::string, std::string>{}
                                        : LoadReference(opt));
  SpanRecorder spans(opt.trace);
  std::size_t attempted = 0;
  std::size_t failed = 0;       // arms whose digest or invariants failed
  bool other_checks_ok = true;  // set-up, replay and probe checks

  // Every probe call must do the same work. The first one also touches the
  // probe's buffer and warms the caches, and is not timed.
  const std::uint64_t probe_checksum = RunProbe().checksum;
  const auto probe = [&]() {
    const ProbeResult p = RunProbe();
    if (p.checksum != probe_checksum) {
      std::cerr << "MISMATCH probe checksum " << p.checksum << "\n";
      other_checks_ok = false;
    }
    return p.ms;
  };

  // Set-up, repeated; setup_s is the median. Every repetition must build
  // the same profiles and kernels.
  std::vector<double> setup_s, setup_probe_ms, profile_ms, build_ms;
  Setup setup;
  for (int k = 0; k < kSetups; ++k) {
    setup_probe_ms.push_back(probe());
    const std::size_t mark = spans.spans().size();
    const std::int64_t start = NowNs();
    setup = BuildSetup(opt.workload, opt.seed, &spans);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    profile_ms.push_back(SpanSumMs(spans, mark, spans.spans().size(), "profile"));
    build_ms.push_back(SpanSumMs(spans, mark, spans.spans().size(), "build"));
    other_checks_ok = checker.Check("setup", setup.digest) && other_checks_ok;
  }
  const std::vector<Arm>& arms = setup.arms;

  // Passes over the arm list until the time is up; at least two, so every
  // arm is re-run and its digest compared. With tracing, untraced and traced
  // passes alternate.
  std::vector<Pass> passes;
  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
  while (passes.size() < 2 || NowNs() < deadline) {
    Pass pass;
    pass.traced = opt.trace && passes.size() % 2 == 1;
    const bool keep = passes.size() < 2;
    for (std::size_t a = 0; a < arms.size(); ++a) {
      pass.probe_ms.push_back(probe());
      ArmOutput out;
      try {
        out = RunArm(arms[a], static_cast<int>(a),
                     pass.traced ? ArmMode::kTraced : ArmMode::kUntraced,
                     pass.traced ? &spans : nullptr);
      } catch (const std::exception& e) {
        out.invariants_ok = false;
        out.invariant_error = std::string("threw: ") + e.what();
      }
      ++attempted;
      bool ok = checker.Check(arms[a].name, out.digest);
      if (!out.invariants_ok) {
        std::cerr << "FAILED " << arms[a].name << ": " << out.invariant_error << "\n";
        ok = false;
      }
      failed += ok ? 0 : 1;
      pass.host_s += out.host_ms / 1e3;
      pass.arm_ms.push_back(out.host_ms);
      if (keep) {
        pass.outputs.push_back(std::move(out));
      }
    }
    passes.push_back(std::move(pass));
  }

  // Each pass is scaled by the median probe time of its own arms, so a slow
  // spell is corrected where it happened. arm_ms_p50 is the median over the
  // untraced passes of each pass's median arm time, scaled like the pass.
  std::vector<double> untraced_s, traced_s, raw_s, probe_ms, arm_ms, arm_raw_ms;
  std::vector<std::vector<double>> per_arm_raw_ms(arms.size());
  for (const Pass& pass : passes) {
    const double scale = pass.Scale();
    (pass.traced ? traced_s : untraced_s).push_back(pass.host_s * scale);
    if (pass.traced) {
      continue;
    }
    raw_s.push_back(pass.host_s);
    probe_ms.insert(probe_ms.end(), pass.probe_ms.begin(), pass.probe_ms.end());
    arm_ms.push_back(MedianOf(pass.arm_ms).value * scale);
    arm_raw_ms.push_back(MedianOf(pass.arm_ms).value);
    for (std::size_t a = 0; a < arms.size(); ++a) {
      per_arm_raw_ms[a].push_back(pass.arm_ms[a]);
    }
  }
  const Median host = MedianOf(untraced_s);
  const Median arm = MedianOf(arm_ms);
  const Median setup_raw = MedianOf(setup_s);
  const double setup_scale = kProbeRefMs / MedianOf(setup_probe_ms).value;
  std::cout << "workload " << WorkloadName(opt.workload) << ", seed " << opt.seed << ": "
            << arms.size() << " arms x " << passes.size() << " passes (" << traced_s.size()
            << " traced); host_s median of " << host.count << " passes, arm_ms_p50 median of "
            << arm.count << " passes' median arms, setup_s median of " << setup_raw.count
            << " set-ups\nprobe median " << MedianOf(probe_ms).value << " ms (reference "
            << kProbeRefMs << " ms)\nraw:    host_s " << MedianOf(raw_s).value << ", arm_ms_p50 "
            << MedianOf(arm_raw_ms).value << ", setup_s " << setup_raw.value
            << "\nscaled: host_s " << host.value << ", arm_ms_p50 " << arm.value << ", setup_s "
            << setup_raw.value * setup_scale << "\npass host_s (raw):";
  for (const Pass& pass : passes) {
    std::cout << " " << pass.host_s << (pass.traced ? "(traced)" : "");
  }
  std::cout << "\n\narm host ms (raw, median over untraced passes)\n";
  for (std::size_t a = 0; a < arms.size(); ++a) {
    std::cout << "  " << std::left << std::setw(44) << arms[a].name << std::right
              << std::setprecision(6) << MedianOf(per_arm_raw_ms[a]).value << "\n";
  }

  const SimulatedMetrics sim = ComputeSimulated(opt.workload, arms, passes.front().outputs);
  std::cout << "\nsimulated metrics (gpusim is not validated against hardware; these are the "
               "model's predictions, with no error figure)\n";
  for (const auto& [name, value] : sim.values) {
    std::cout << "  " << std::left << std::setw(20) << name << std::right
              << std::setprecision(10) << value << "\n";
  }
  if (opt.workload == WorkloadId::kDcServing) {
    std::cout << "  ttft_p99_ms pooled over " << sim.ttft_samples << " LLM samples\n";
  }

  std::map<std::string, double> values;
  for (const auto& [name, value] : sim.values) {
    values[name] = value;
  }
  if (!opt.trace) {
    values["host_s"] = host.value;
    values["arm_ms_p50"] = arm.value;
    values["peak_rss_mb"] = PeakRssMb();
    values["setup_s"] = setup_raw.value * setup_scale;
  } else {
    // Replay traffic recorded from one of the workload's own arms: its
    // kernels on colloc_apollo, its copies on oversub_paging. dc_serving
    // does no gpusim work.
    ReplayResult replay;
    std::size_t arm_kernels = 0;
    const bool kernels = opt.workload == WorkloadId::kCollocApollo;
    if (setup.replay_arm >= 0) {
      const Arm& recorded = arms[static_cast<std::size_t>(setup.replay_arm)];
      ArmOutput out = RunArm(recorded, setup.replay_arm,
                             kernels ? ArmMode::kRecorded : ArmMode::kTraced, &spans);
      ++attempted;
      const bool ok = checker.Check(recorded.name, out.digest) && out.invariants_ok;
      failed += ok ? 0 : 1;
      arm_kernels = out.kernel_records.size();
      SpanRecorder::Scope span(&spans, kernels ? "replay.kernels" : "replay.copies",
                               setup.replay_arm);
      if (kernels) {
        std::vector<KernelSource> sources;
        for (const harness::ClientConfig& client : recorded.experiment.clients) {
          sources.push_back({&setup.kernels.at(workloads::WorkloadName(client.workload)),
                             client.high_priority});
        }
        replay = ReplayKernels(out.kernel_records, sources);
      } else {
        replay = ReplayCopies(RecordedCopies(recorded, out));
      }
      if (!replay.error.empty()) {
        std::cerr << "FAILED replay: " << replay.error << "\n";
        other_checks_ok = false;
      }
      other_checks_ok = checker.Check("replay", replay.digest) && other_checks_ok;
      std::cout << "\nreplay of " << recorded.name << ": " << replay.kernels << " kernels (arm "
                << arm_kernels << "), " << replay.copies << " copies, " << replay.events
                << " events, " << replay.host_ns / 1e6 << " ms\n";
    }

    // Counters and request totals of the first traced pass.
    const Pass& traced = passes[1];
    std::map<std::string, double> c;
    double experiment_requests = 0.0, cluster_requests = 0.0, bytes_moved = 0.0;
    double writebacks = 0.0, stall_us = 0.0;
    std::vector<double> orion_ms, dedicated_ms, cluster_ms;
    double experiment_total_ms = 0.0, cluster_total_ms = 0.0;
    for (std::size_t a = 0; a < arms.size(); ++a) {
      const ArmOutput& out = traced.outputs[a];
      for (const auto& [name, value] : out.counters) {
        c[name] += value;
      }
      writebacks += static_cast<double>(out.paging.writebacks);
      stall_us += out.paging.stall_us;
      (arms[a].is_cluster ? cluster_requests : experiment_requests) +=
          static_cast<double>(out.requests);
      bytes_moved += out.bytes_moved;
      const double ms = traced.arm_ms[a];
      if (arms[a].is_cluster) {
        cluster_ms.push_back(ms);
        cluster_total_ms += ms;
      } else {
        experiment_total_ms += ms;
        if (arms[a].role == ArmRole::kIdeal) {
          dedicated_ms.push_back(ms);
        } else if (arms[a].role == ArmRole::kOrion) {
          orion_ms.push_back(ms);
        }
      }
    }
    const double replay_ns = replay.host_ns;
    values.insert({
        {"sim.events", static_cast<double>(replay.events)},
        {"sim.ns_per_event", Ratio(replay_ns, static_cast<double>(replay.events))},
        {"gpusim.arm_kernels", static_cast<double>(arm_kernels)},
        {"gpusim.replay_kernels", static_cast<double>(replay.kernels)},
        {"gpusim.ns_per_kernel", kernels ? Ratio(replay_ns, static_cast<double>(replay.kernels))
                                         : 0.0},
        {"gpusim.replay_retained_mb", replay.retained_mb},
        {"gpusim.replay_copies", static_cast<double>(replay.copies)},
        {"gpusim.ns_per_copy", kernels ? 0.0 : Ratio(replay_ns, static_cast<double>(replay.copies))},
        {"profiler.ms", MedianOf(profile_ms).value},
        {"workloads.build_ms", MedianOf(build_ms).value},
        {"harness.orion_arm_ms_p50", MedianOf(orion_ms).value},
        {"harness.dedicated_arm_ms_p50", MedianOf(dedicated_ms).value},
        {"harness.us_per_request", Ratio(experiment_total_ms * 1e3, experiment_requests)},
        {"core.be_polls", c["orion.be_polls"]},
        {"core.be_polls_coalesced", c["orion.be_polls_coalesced"]},
        {"core.be_submitted", c["orion.be_kernels_submitted"]},
        {"core.be_throttle_skips", c["orion.be_throttle_skips"]},
        {"core.be_profile_skips", c["orion.be_profile_skips"]},
        {"core.admit_ratio", Ratio(c["orion.be_kernels_submitted"], c["orion.be_polls"])},
        {"memsub.faults", c["memsub.faults"]},
        {"memsub.evictions", c["memsub.evictions"]},
        {"memsub.writebacks", writebacks},
        {"memsub.fault_gb", c["memsub.fault_bytes_h2d"] / 1e9},
        {"memsub.stall_s", stall_us / 1e6},
        {"baselines.tq_quanta", c["tq.quanta"]},
        {"datacenter.arm_ms_p50", MedianOf(cluster_ms).value},
        {"datacenter.ns_per_request", Ratio(cluster_total_ms * 1e6, cluster_requests)},
        {"datacenter.forwarded", c["datacenter.requests_forwarded"]},
        {"serving.batches", c["serving.batches"]},
        {"serving.mean_batch", Ratio(c["serving.batched_requests"], c["serving.batches"])},
        {"serving.decode_steps", c["serving.decode_steps"]},
        {"serving.kv_evictions", c["serving.kv_evictions"]},
        {"serving.failed_over", c["serving.failed_over"]},
        {"interconnect.transfers", c["fabric.transfers_started"]},
        {"interconnect.gb_moved", bytes_moved / 1e9},
        {"telemetry.traced_overhead", Ratio(MedianOf(traced_s).value, host.value) - 1.0},
        {"bench.host_raw_s", MedianOf(raw_s).value},
        {"bench.machine_ms", MedianOf(probe_ms).value},
    });
    PrintSpanTable(spans);
    if (!opt.trace_out.empty()) {
      if (!spans.WriteChromeTrace(opt.trace_out)) {
        std::cerr << "e2e_runner: cannot write " << opt.trace_out << "\n";
        return 2;
      }
      std::cout << "wrote trace " << opt.trace_out << "\n";
    }
  }

  if (!opt.write_reference.empty()) {
    std::ofstream out(opt.write_reference, std::ios::app);
    for (const auto& [entry, hex] : checker.digests()) {
      out << WorkloadName(opt.workload) << " " << opt.seed << " " << entry << " " << hex << "\n";
    }
    if (!out) {
      std::cerr << "e2e_runner: cannot write " << opt.write_reference << "\n";
      return 2;
    }
  }

  std::vector<MetricValue> metrics;
  for (const MetricSpec& spec : opt.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    metrics.push_back({spec.name, spec.unit, values.at(spec.name)});
  }
  bool finite = true;
  std::cout << "\n" << std::left << std::setw(28) << "metric" << std::right << std::setw(22)
            << "value" << "  unit\n";
  for (const MetricValue& m : metrics) {
    finite = finite && std::isfinite(m.value);
    std::cout << std::left << std::setw(28) << m.name << std::right << std::setw(22)
              << std::setprecision(10) << m.value << "  " << m.unit << "\n";
  }
  std::cout << "arms attempted " << attempted << ", failed " << failed << "; reference "
            << (checker.has_reference() ? "checked" : "absent for this seed (determinism only)")
            << "\n";
  const bool correct = failed == 0 && other_checks_ok && finite;
  std::cout << ResultJson(correct, attempted, failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Run(e2e::Parse(argc, argv)); }
