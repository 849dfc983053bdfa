#include "experiment/node_rig.h"

#include <utility>

#include "common/check.h"
#include "ecl/baseline.h"

namespace ecldb::experiment {

NodeRig::NodeRig(const WorkloadFactory& factory, const RunOptions& options)
    : options_(options) {
  simulator_.set_fast_forward(options_.fast_forward);
  telemetry::Telemetry* const tel = options_.telemetry;
  if (tel != nullptr) tel->Bind(&simulator_);
  machine_ = std::make_unique<hwsim::Machine>(&simulator_, options_.machine);
  if (tel != nullptr) machine_->AttachTelemetry(tel);
  engine::EngineParams engine_params = options_.engine;
  if (tel != nullptr) engine_params.telemetry = tel;
  engine_ = std::make_unique<engine::Engine>(&simulator_, machine_.get(),
                                             engine_params);
  workload_ = factory(engine_.get());
  ECLDB_CHECK(workload_ != nullptr);

  capacity_ = options_.capacity_qps > 0.0
                  ? options_.capacity_qps
                  : workload::BaselineCapacityQps(options_.machine,
                                                  *workload_);

  if (options_.mode == ControlMode::kEcl) {
    ecl::EclParams ecl_params = options_.ecl;
    if (tel != nullptr) ecl_params.telemetry = tel;
    loop_ = std::make_unique<ecl::EnergyControlLoop>(&simulator_,
                                                     engine_.get(), ecl_params);
    loop_->Start();
  } else {
    ecl::BaselineController(machine_.get()).Start();
  }
}

void NodeRig::Prime() {
  if (options_.prime_duration > 0) {
    engine_->scheduler().SetSyntheticLoad(&workload_->profile());
    simulator_.RunFor(options_.prime_duration);
    engine_->scheduler().SetSyntheticLoad(nullptr);
  }
  engine_->latency().ResetRunStats();
}

double NodeRig::Pressure() const {
  return loop_ != nullptr ? loop_->system().pressure() : 0.0;
}

void NodeRig::SetShedSignal(std::function<double()> signal) {
  if (loop_ != nullptr) loop_->system().SetShedSignal(std::move(signal));
}

int NodeRig::Width() const {
  int threads = 0;
  for (SocketId sk = 0; sk < machine_->topology().num_sockets; ++sk) {
    threads += machine_->requested_config(sk).ActiveThreadCount();
  }
  return threads;
}

std::string NodeRig::DescribeBacklog() const {
  std::string d = "backlog:";
  for (SocketId sk = 0; sk < machine_->topology().num_sockets; ++sk) {
    d += " socket" + std::to_string(sk) + "=" +
         std::to_string(static_cast<int64_t>(
             engine_->scheduler().BacklogOps(sk)));
  }
  return d;
}

void NodeRig::StopEcls() {
  if (loop_ != nullptr) loop_->Stop();
}

}  // namespace ecldb::experiment
