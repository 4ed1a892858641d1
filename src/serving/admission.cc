#include "src/serving/admission.h"

#include "src/common/check.h"

namespace orion {
namespace serving {

AdmissionController::AdmissionController(const AdmissionConfig& config) : config_(config) {
  ORION_CHECK(config.be_slack > 0.0);
}

bool AdmissionController::Admit(const Request& request, PriorityTier tier,
                                DurationUs predicted_wait_us, DurationUs service_us) const {
  if (!config_.enabled) {
    return true;
  }
  // Latency-critical services are shed exactly at the predicted deadline miss.
  constexpr double kLcSlack = 1.0;
  const double slack = tier == PriorityTier::kLatencyCritical ? kLcSlack : config_.be_slack;
  const DurationUs slo = request.deadline_us - request.arrival_us;
  const TimeUs predicted_completion = request.arrival_us + predicted_wait_us + service_us;
  return predicted_completion <= request.arrival_us + slack * slo;
}

}  // namespace serving
}  // namespace orion
