#include "ecl/meta_calibration.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.h"

namespace ecldb::ecl {

/// Generous reference durations.
constexpr SimDuration kReferenceApply = Millis(300);
constexpr SimDuration kReferenceMeasure = Millis(300);
/// Candidate durations tried, descending.
constexpr std::array<SimDuration, 9> kCandidates = {
    Millis(300), Millis(200), Millis(100), Millis(50), Millis(20),
    Millis(10),  Millis(5),   Millis(2),   Millis(1)};
/// Acceptable relative deviation from the reference measurement.
constexpr double kTolerance = 0.03;
/// Probes averaged per candidate.
constexpr int kProbes = 4;

MetaCalibration::MetaCalibration(sim::Simulator* simulator,
                                 hwsim::Machine* machine, SocketId socket)
    : simulator_(simulator), machine_(machine), socket_(socket) {
  ECLDB_CHECK(simulator != nullptr && machine != nullptr);
}

double MetaCalibration::ProbePowerW(const hwsim::SocketConfig& cfg,
                                    const hwsim::WorkProfile& work,
                                    SimDuration apply, SimDuration measure) {
  const hwsim::Topology& topo = machine_->topology();
  machine_->ApplySocketConfig(socket_, cfg);
  for (int lt = 0; lt < topo.threads_per_socket(); ++lt) {
    const HwThreadId t = socket_ * topo.threads_per_socket() + lt;
    machine_->SetThreadLoad(t, cfg.ThreadActive(lt) ? &work : nullptr,
                            cfg.ThreadActive(lt) ? 1.0 : 0.0);
  }
  simulator_->RunFor(apply);
  const uint64_t e0 = machine_->ReadRaplUj(socket_, hwsim::RaplDomain::kPackage) +
                      machine_->ReadRaplUj(socket_, hwsim::RaplDomain::kDram);
  simulator_->RunFor(measure);
  const uint64_t e1 = machine_->ReadRaplUj(socket_, hwsim::RaplDomain::kPackage) +
                      machine_->ReadRaplUj(socket_, hwsim::RaplDomain::kDram);
  return static_cast<double>(static_cast<int64_t>(e1 - e0)) * 1e-6 /
         ToSeconds(measure);
}

MetaCalibrationResult MetaCalibration::Run(const hwsim::WorkProfile& work) {
  const hwsim::Topology& topo = machine_->topology();
  const hwsim::FrequencyTable& freqs = machine_->freqs();
  const hwsim::SocketConfig highest = hwsim::SocketConfig::AllOn(
      topo, freqs.max_core_nominal(), freqs.max_uncore());
  const hwsim::SocketConfig lowest = hwsim::SocketConfig::FirstThreads(
      topo, 1, freqs.min_core(), freqs.min_uncore());

  MetaCalibrationResult result;

  // Reference: alternate highest/lowest with generous times. The lowest
  // configuration dominates the deviation (its absolute power is small),
  // so deviations are tracked on it.
  double ref_low = 0.0;
  for (int p = 0; p < kProbes; ++p) {
    ProbePowerW(highest, work, kReferenceApply, kReferenceMeasure);
    ref_low += ProbePowerW(lowest, work, kReferenceApply, kReferenceMeasure);
  }
  ref_low /= kProbes;
  ECLDB_CHECK(ref_low > 0.0);

  // Sweep the measure time (apply time stays at the reference).
  result.measure_time = kReferenceMeasure;
  for (SimDuration cand : kCandidates) {
    double dev = 0.0;
    for (int p = 0; p < kProbes; ++p) {
      ProbePowerW(highest, work, kReferenceApply, cand);
      const double low = ProbePowerW(lowest, work, kReferenceApply, cand);
      dev += std::abs(low - ref_low) / ref_low;
    }
    dev /= kProbes;
    result.measure_sweep.push_back({cand, dev});
    if (dev <= kTolerance) result.measure_time = cand;
  }

  // Sweep the apply time using the chosen measure time.
  result.apply_time = kReferenceApply;
  for (SimDuration cand : kCandidates) {
    double dev = 0.0;
    for (int p = 0; p < kProbes; ++p) {
      ProbePowerW(highest, work, cand, result.measure_time);
      const double low = ProbePowerW(lowest, work, cand, result.measure_time);
      dev += std::abs(low - ref_low) / ref_low;
    }
    dev /= kProbes;
    result.apply_sweep.push_back({cand, dev});
    if (dev <= kTolerance) result.apply_time = cand;
  }
  return result;
}

NodeTransitionCost CalibrateNodeTransition(sim::Simulator* simulator,
                                           hwsim::Cluster* cluster, NodeId n,
                                           SimDuration measure) {
  ECLDB_CHECK(simulator != nullptr && cluster != nullptr);
  ECLDB_CHECK(n >= 0 && n < cluster->num_nodes());
  ECLDB_CHECK_MSG(cluster->IsOn(n), "calibration needs the node on and idle");
  ECLDB_CHECK(measure > 0);
  const hwsim::NodePowerParams& power =
      cluster->params().nodes[static_cast<size_t>(n)].power;

  NodeTransitionCost cost;
  cost.boot_latency = power.boot_latency;
  cost.boot_energy_j = power.boot_power_w * ToSeconds(power.boot_latency);
  cost.off_power_w = power.off_power_w;

  const double e0 = cluster->NodeEnergyJoules(n);
  simulator->RunFor(measure);
  const double e1 = cluster->NodeEnergyJoules(n);
  cost.on_idle_power_w = (e1 - e0) / ToSeconds(measure);

  // Off for H then boot for B versus staying on idle throughout: the off
  // phase saves (on_idle - off) x H, the boot phase costs an extra
  // (boot - on_idle) x B. Break-even where they cancel.
  const double savings_rate_w = cost.on_idle_power_w - cost.off_power_w;
  const double boot_premium_j =
      (power.boot_power_w - cost.on_idle_power_w) * ToSeconds(cost.boot_latency);
  cost.break_even_off_s =
      savings_rate_w > 0.0 ? std::max(0.0, boot_premium_j / savings_rate_w)
                           : 0.0;
  return cost;
}

}  // namespace ecldb::ecl
