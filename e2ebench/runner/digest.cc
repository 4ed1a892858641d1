#include "e2ebench/runner/digest.h"

#include <bit>
#include <cstdio>

namespace e2e {

using namespace orion;

void Digest::Bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ULL;  // FNV-1a prime
  }
}

void Digest::F64(double value) { U64(std::bit_cast<std::uint64_t>(value)); }

void Digest::Str(std::string_view text) {
  U64(text.size());
  Bytes(text.data(), text.size());
}

void Digest::Samples(const LatencyRecorder& recorder) {
  U64(recorder.count());
  for (const double sample : recorder.samples()) {
    F64(sample);
  }
}

std::uint64_t DigestOf(const harness::ExperimentResult& r) {
  Digest d;
  d.Str(r.scheduler_name);
  d.U64(r.clients.size());
  for (const harness::ClientResult& c : r.clients) {
    d.Str(c.name);
    d.U64(c.high_priority);
    d.U64(c.completed);
    d.U64(c.completed_total);
    d.F64(c.throughput_rps);
    d.Samples(c.latency);
    d.Samples(c.queueing);
    d.Samples(c.service);
    d.U64(c.slo_misses);
    d.U64(c.page_faults);
    d.F64(c.page_stall_us);
  }
  d.F64(r.utilization.start);
  d.F64(r.utilization.end);
  d.F64(r.utilization.compute);
  d.F64(r.utilization.membw);
  d.F64(r.utilization.sm_busy);
  d.F64(r.window_us);
  d.U64(r.memory_deficit_bytes);
  d.U64(r.swapping_active);
  d.U64(r.faults_injected);
  d.U64(r.faults_skipped);
  d.U64(r.clients_quarantined);
  d.U64(r.runaway_quarantines);
  d.U64(r.memory_used_end_bytes);
  d.U64(r.paging_active);
  d.U64(r.paging.accesses);
  d.U64(r.paging.faults);
  d.U64(r.paging.evictions);
  d.U64(r.paging.writebacks);
  d.U64(r.paging.fault_bytes_h2d);
  d.U64(r.paging.writeback_bytes_d2h);
  d.F64(r.paging.stall_us);
  d.U64(r.tq_exclusive_entries);
  d.U64(r.tq_quanta);
  d.F64(r.tq_exclusive_us);
  d.U64(r.telemetry_flushes);
  return d.value();
}

std::uint64_t DigestOf(const datacenter::ClusterResult& r) {
  Digest d;
  const serving::ServingResult& s = r.serving;
  d.U64(s.models.size());
  d.F64(s.window_us);
  d.U64(s.scale_ups);
  d.U64(s.scale_downs);
  d.U64(s.scale_failures);
  d.U64(s.faults_injected);
  d.U64(s.faults_skipped);
  d.U64(s.replicas_lost);
  d.U64(s.replacements);
  d.U64(s.replacement_failures);
  d.U64(s.gpus_alive_end);
  d.F64(s.replica_seconds);
  for (const serving::ModelServingResult& m : s.models) {
    d.Str(m.name);
    d.U64(static_cast<std::uint64_t>(m.tier));
    d.U64(m.offered);
    d.U64(m.completed);
    d.U64(m.slo_met);
    d.U64(m.shed);
    d.U64(m.dropped);
    d.U64(m.failed_over);
    d.F64(m.slo_attainment);
    d.F64(m.throughput_rps);
    d.U64(m.batches);
    d.F64(m.mean_batch_size);
    d.U64(static_cast<std::uint64_t>(m.final_replicas));
    d.U64(m.tokens);
    d.U64(m.prefills);
    d.U64(m.decode_steps);
    d.U64(m.kv_evictions);
    d.U64(m.total_offered);
    d.U64(m.total_completed);
    d.U64(m.total_shed);
    d.U64(m.total_dropped);
    d.U64(m.left_in_system);
    d.Samples(m.latency);
    d.Samples(m.queueing);
    d.Samples(m.ttft);
    d.Samples(m.tpot);
  }
  d.U64(r.nodes.size());
  d.U64(r.nodes_alive_end);
  d.U64(r.node_faults);
  d.U64(r.requests_forwarded);
  d.F64(r.request_bytes_moved);
  d.F64(r.response_bytes_moved);
  for (const datacenter::NodeSummary& n : r.nodes) {
    d.U64(static_cast<std::uint64_t>(n.node));
    d.U64(n.alive_end);
    d.U64(n.replicas_created);
    d.U64(n.replicas_killed);
    d.U64(n.batches);
    d.U64(n.requests);
  }
  return d.value();
}

std::uint64_t DigestOf(const profiler::WorkloadProfile& p) {
  Digest d;
  d.Str(p.workload_name);
  d.Str(p.device_name);
  d.U64(p.kernels.size());
  for (const profiler::KernelProfile& k : p.kernels) {
    d.U64(k.kernel_id);
    d.Str(k.name);
    d.F64(k.duration_us);
    d.F64(k.compute_util);
    d.F64(k.membw_util);
    d.U64(static_cast<std::uint64_t>(k.profile));
    d.U64(static_cast<std::uint64_t>(k.sm_needed));
  }
  d.F64(p.request_latency_us);
  d.F64(p.avg_compute_util);
  d.F64(p.avg_membw_util);
  d.F64(p.avg_sm_busy);
  return d.value();
}

std::string Hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace e2e
