#include "src/serving/admission.h"


namespace orion {
namespace serving {

AdmissionController::AdmissionController(const AdmissionConfig& config) : config_(config) {}

bool AdmissionController::Admit(const Request& request, PriorityTier tier,
                                DurationUs predicted_wait_us, DurationUs service_us) const {
  if (!config_.enabled) {
    return true;
  }
  // Latency-critical services are shed exactly at the predicted deadline
  // miss; best-effort ones when the prediction passes 0.7 of their SLO, so
  // they are shed before their deadline miss.
  constexpr double kLcSlack = 1.0;
  constexpr double kBeSlack = 0.7;
  const double slack = tier == PriorityTier::kLatencyCritical ? kLcSlack : kBeSlack;
  const DurationUs slo = request.deadline_us - request.arrival_us;
  const TimeUs predicted_completion = request.arrival_us + predicted_wait_us + service_us;
  return predicted_completion <= request.arrival_us + slack * slo;
}

}  // namespace serving
}  // namespace orion
