#include "ecl/ecl.h"

#include "common/check.h"
#include "hwsim/firmware.h"

namespace ecldb::ecl {

EnergyControlLoop::EnergyControlLoop(sim::Simulator* simulator,
                                     engine::Engine* engine,
                                     const EclParams& params)
    : simulator_(simulator), engine_(engine), params_(params) {
  ECLDB_CHECK(simulator != nullptr && engine != nullptr);
  hwsim::Machine& machine = engine_->machine();
  system_ = std::make_unique<SystemEcl>(simulator_, &engine_->latency(),
                                        params_.system);
  if (params_.telemetry != nullptr) {
    params_.socket.telemetry = params_.telemetry;
    params_.consolidation.telemetry = params_.telemetry;
    params_.telemetry->registry().AddGauge(
        "ecl/pressure", [this] { return system_->pressure(); });
  }

  profile::ConfigGenerator generator(machine.topology(), machine.freqs());
  for (SocketId s = 0; s < machine.topology().num_sockets; ++s) {
    profile::EnergyProfile profile(
        generator.Generate(profile::GeneratorParams{}));
    sockets_.push_back(std::make_unique<SocketEcl>(
        simulator_, &machine, s, std::move(profile), system_.get(),
        [this, s] { return engine_->TakeSocketUtilization(s); },
        params_.socket));
  }

  if (params_.consolidation.enabled || params_.placement_hooks) {
    for (SocketId s = 0; s < machine.topology().num_sockets; ++s) {
      sockets_[static_cast<size_t>(s)]->SetParkCheck(
          [this, s] { return engine_->placement().PartitionsOn(s) == 0; });
      sockets_[static_cast<size_t>(s)]->SetBacklogCheck(
          [this, s] { return engine_->scheduler().BacklogOps(s); });
    }
  }
  if (params_.consolidation.enabled) {
    consolidation_ = std::make_unique<ConsolidationPolicy>(
        simulator_, engine_, system_.get(),
        // Relative load: the processed performance level over the
        // profile's peak score (the experiments' perf_level_frac).
        [this](SocketId s) {
          return sockets_[static_cast<size_t>(s)]->PerfLevelFrac();
        },
        params_.consolidation);
  }
}

double EnergyControlLoop::MeanPerfLevelFrac() const {
  double level = 0.0;
  for (const auto& socket : sockets_) level += socket->PerfLevelFrac();
  return level / num_sockets();
}

void EnergyControlLoop::Start() {
  hwsim::Machine& machine = engine_->machine();
  // Explicit energy control pins the EPB to performance mode (the
  // conclusion of the paper's Section 2.3).
  machine.SetEpb(hwsim::EpbSetting::kPerformance);
  for (SocketId s = 0; s < machine.topology().num_sockets; ++s) {
    machine.SetUncoreMode(s, hwsim::UncoreMode::kPinned);
  }
  system_->Start();
  for (auto& socket : sockets_) socket->Start();
  if (consolidation_ != nullptr) consolidation_->Start();
}

void EnergyControlLoop::Stop() {
  system_->Stop();
  for (auto& socket : sockets_) socket->Stop();
  if (consolidation_ != nullptr) consolidation_->Stop();
}

void EnergyControlLoop::FlagWorkloadChange() {
  for (auto& socket : sockets_) socket->FlagWorkloadChange();
}

void EnergyControlLoop::SetAdaptation(bool online, bool multiplexed) {
  for (auto& socket : sockets_) {
    socket->maintenance().SetEnabled(online, multiplexed);
  }
}

}  // namespace ecldb::ecl
