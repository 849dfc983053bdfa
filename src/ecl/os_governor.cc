#include "ecl/os_governor.h"

#include <algorithm>

#include "common/check.h"
#include "hwsim/firmware.h"

namespace ecldb::ecl {

/// Utilization above which the governor jumps to the maximum frequency.
constexpr double kUpThreshold = 0.80;

OsGovernor::OsGovernor(sim::Simulator* simulator, engine::Engine* engine,
                       const OsGovernorParams& params)
    : simulator_(simulator), engine_(engine), params_(params) {
  ECLDB_CHECK(simulator != nullptr && engine != nullptr);
}

void OsGovernor::Apply(double freq_ghz) {
  hwsim::Machine& machine = engine_->machine();
  if (freq_ghz == freq_ghz_) return;
  freq_ghz_ = freq_ghz;
  for (SocketId s = 0; s < machine.topology().num_sockets; ++s) {
    machine.ApplySocketConfig(
        s, hwsim::SocketConfig::AllOn(machine.topology(), freq_ghz,
                                      machine.freqs().max_uncore()));
  }
}

void OsGovernor::Start() {
  running_ = true;
  hwsim::Machine& machine = engine_->machine();
  machine.SetEpb(hwsim::EpbSetting::kBalanced);
  for (SocketId s = 0; s < machine.topology().num_sockets; ++s) {
    machine.SetUncoreMode(s, hwsim::UncoreMode::kAuto);
  }
  Apply(machine.freqs().max_core());
  simulator_->ScheduleAfter(params_.interval, [this] { Tick(); });
}

void OsGovernor::Tick() {
  if (!running_) return;
  hwsim::Machine& machine = engine_->machine();
  // What the OS can see: C0 residency. With a polling message layer every
  // worker spins when there is no work, so the thread never leaves C0.
  double util = 1.0;
  if (!params_.sees_polling_as_busy) {
    double sum = 0.0;
    for (SocketId s = 0; s < machine.topology().num_sockets; ++s) {
      sum += engine_->TakeSocketUtilization(s);
    }
    util = sum / machine.topology().num_sockets;
  }
  last_util_ = util;

  const hwsim::FrequencyTable& freqs = machine.freqs();
  double target;
  if (util >= kUpThreshold) {
    target = freqs.max_core();  // ondemand: jump straight to the maximum
  } else {
    target = std::max(freqs.min_core(),
                      freqs.max_core_nominal() * util / kUpThreshold);
  }
  Apply(freqs.NearestCore(target));
  simulator_->ScheduleAfter(params_.interval, [this] { Tick(); });
}

}  // namespace ecldb::ecl
