#include "ecl/socket_ecl.h"

#include <algorithm>
#include <memory>
#include <string>

#include "common/check.h"

namespace ecldb::ecl {

/// Fraction of an interval that may be spent on multiplexed reevaluation.
constexpr double kMaxEvalFraction = 0.75;
/// Settle time after applying a configuration before measuring.
constexpr SimDuration kApplySettle = Millis(1);

SocketEcl::SocketEcl(sim::Simulator* simulator, hwsim::Machine* machine,
                     SocketId socket, profile::EnergyProfile profile,
                     SystemEcl* system, std::function<double()> util_source,
                     const SocketEclParams& params)
    : simulator_(simulator),
      machine_(machine),
      socket_(socket),
      profile_(std::move(profile)),
      system_(system),
      util_source_(std::move(util_source)),
      params_(params),
      util_controller_(params.utilization),
      rti_controller_(params.rti),
      maintenance_(params.maintenance) {
  ECLDB_CHECK(simulator != nullptr && machine != nullptr);
  ECLDB_CHECK(util_source_ != nullptr);
  if (params_.predictor.enabled) {
    predictor_ =
        std::make_unique<ProfilePredictor>(profile_.size(), params_.predictor);
    // Every profile measurement — online, multiplexed, or warm-start
    // deserialization — trains the learn-cache, tagged with the feature
    // snapshot of the last loaded interval.
    profile_.SetRecordHook([this](int index, double power_w, double perf_score,
                                  SimTime at) {
      if (!record_hook_muted_ && last_features_.valid) {
        predictor_->Observe(index, last_features_, power_w, perf_score, at);
      }
    });
  }
  if (telemetry::Telemetry* tel = params_.telemetry; tel != nullptr) {
    telemetry::MetricRegistry& reg = tel->registry();
    const std::string base = "ecl/socket" + std::to_string(socket_) + "/";
    reg.AddGauge(base + "utilization", [this] { return last_utilization_; });
    reg.AddGauge(base + "perf_level", [this] { return perf_level_; });
    reg.AddGauge(base + "measured_rate", [this] { return last_measured_rate_; });
    // The profile's peak drifts with online adaptation, so consumers that
    // want a relative performance level need the contemporaneous peak.
    reg.AddGauge(base + "peak_perf", [this] { return profile_.PeakPerfScore(); });
    reg.AddGauge(base + "config_index",
                 [this] { return static_cast<double>(current_index_); });
    reg.AddGauge(base + "rti_duty", [this] {
      return last_plan_.use_rti ? last_plan_.duty : 1.0;
    });
    reg.AddGauge(base + "rti_cycles", [this] {
      return last_plan_.use_rti ? static_cast<double>(last_plan_.cycles) : 0.0;
    });
    reg.AddGauge(base + "parked", [this] { return parked_ ? 1.0 : 0.0; });
    reg.AddCounterFn(base + "ticks", [this] { return ticks_; });
    reg.AddCounterFn(base + "multiplexed_evals",
                     [this] { return maintenance_.multiplexed_evals(); });
    if (params_.predictor.enabled) {
      // Registered only with the predictor on so that every pre-existing
      // telemetry artifact stays byte-identical in the default setup.
      reg.AddCounterFn(base + "predictor_hits",
                       [this] { return maintenance_.predictor_hits(); });
      reg.AddCounterFn(base + "predictor_misses",
                       [this] { return maintenance_.predictor_misses(); });
      reg.AddCounterFn(base + "predictor_seeded_configs", [this] {
        return maintenance_.predictor_seeded_configs();
      });
      reg.AddCounterFn(base + "predictor_measurements_skipped", [this] {
        return maintenance_.predictor_measurements_skipped();
      });
      reg.AddGauge(base + "ignorance",
                   [this] { return maintenance_.last_mean_ignorance(); });
    }
    trace_lane_ =
        tel->trace().RegisterLane("ecl/socket" + std::to_string(socket_));
  }
}

void SocketEcl::Start() {
  running_ = true;
  simulator_->ScheduleAfter(Nanos(1), [this] { Tick(); });
}

void SocketEcl::Stop() {
  running_ = false;
  ++generation_;
}

uint64_t SocketEcl::ReadSocketEnergyUj() const {
  return machine_->ReadRaplUj(socket_, hwsim::RaplDomain::kPackage) +
         machine_->ReadRaplUj(socket_, hwsim::RaplDomain::kDram);
}

void SocketEcl::HandleDrift(SimTime now) {
  maintenance_.FlagDrift(&profile_);
  if (params_.telemetry != nullptr) {
    params_.telemetry->trace().Instant(trace_lane_, "ecl", "drift_detected",
                                       now);
  }
  // Seeding is deferred one interval: the interval that *detected* the
  // drift straddles the workload switch, so its feature snapshot is a
  // mixture of the old and the new workload and matches neither cached
  // cluster. The next interval ran purely post-switch.
  if (predictor_ != nullptr) pending_seed_ = true;
}

void SocketEcl::RunPendingSeed(SimTime now) {
  pending_seed_ = false;
  record_hook_muted_ = true;
  const ProfileMaintenance::SeedOutcome out = maintenance_.SeedFromPredictions(
      &profile_, *predictor_, last_features_, kIgnoranceThreshold, now);
  record_hook_muted_ = false;
  if (params_.telemetry != nullptr && (out.seeded > 0 || out.left_stale > 0)) {
    params_.telemetry->trace().Instant(
        trace_lane_, "ecl", "profile_seeded", now,
        "\"seeded\":" + std::to_string(out.seeded) +
            ",\"stale\":" + std::to_string(out.left_stale) +
            ",\"ignorance\":" + telemetry::JsonNumber(out.mean_ignorance));
  }
}

void SocketEcl::ApplyConfig(int index) {
  ECLDB_DCHECK(index >= 0 && index < profile_.size());
  machine_->ApplySocketConfig(socket_, profile_.config(index).hw);
}

void SocketEcl::ApplyIdle() { ApplyConfig(profile_.idle_index()); }

void SocketEcl::ScheduleEvaluation(SimTime at, int index, int64_t gen) {
  simulator_->Schedule(at, [this, index, gen] {
    if (gen != generation_) return;
    ApplyConfig(index);
  });
  // Shared measurement state per evaluation, captured by both events.
  auto e0 = std::make_shared<uint64_t>(0);
  auto i0 = std::make_shared<uint64_t>(0);
  simulator_->Schedule(at + kApplySettle, [this, e0, i0, gen] {
    if (gen != generation_) return;
    *e0 = ReadSocketEnergyUj();
    *i0 = machine_->ReadSocketInstructions(socket_);
  });
  simulator_->Schedule(
      at + kApplySettle + params_.measure_time,
      [this, e0, i0, index, gen] {
        if (gen != generation_) return;
        const double seconds = ToSeconds(params_.measure_time);
        const double power = static_cast<double>(static_cast<int64_t>(
                                 ReadSocketEnergyUj() - *e0)) *
                             1e-6 / seconds;
        const double perf =
            static_cast<double>(machine_->ReadSocketInstructions(socket_) - *i0) /
            seconds;
        // Frozen RAPL counters (sensor dropout) yield a non-positive power
        // delta; real socket power is tens of watts. Discard instead of
        // recording a "free energy" configuration the skyline would pin to.
        if (power <= 0.0) {
          maintenance_.CountDiscardedMeasurement();
          return;
        }
        profile_.Record(index, power, perf, simulator_->now());
        maintenance_.CountMultiplexedEval();
      });
}

void SocketEcl::ScheduleRti(SimTime from, SimTime until,
                            const RtiController::Plan& plan, int64_t gen) {
  const SimDuration span = until - from;
  if (span <= 0 || plan.cycles < 1) return;
  const SimDuration period = span / plan.cycles;
  for (int c = 0; c < plan.cycles; ++c) {
    const SimTime cycle_start = from + c * period;
    const SimTime idle_start =
        cycle_start + static_cast<SimDuration>(plan.duty * period);
    // Active-phase start: apply the configuration (the very first cycle is
    // already applied by Tick) and snapshot the counters.
    simulator_->Schedule(cycle_start, [this, plan, gen, cycle_start, from] {
      if (gen != generation_) return;
      if (cycle_start > from) ApplyConfig(plan.config_index);
      rti_phase_e0_uj_ = ReadSocketEnergyUj();
      rti_phase_i0_ = machine_->ReadSocketInstructions(socket_);
      rti_phase_t0_ = simulator_->now();
    });
    // Active-phase end: accumulate the phase into the interval's online
    // measurement and enter idle mode.
    if (idle_start < cycle_start + period) {
      simulator_->Schedule(idle_start, [this, gen] {
        if (gen != generation_) return;
        rti_active_energy_uj_ += static_cast<double>(static_cast<int64_t>(
            ReadSocketEnergyUj() - rti_phase_e0_uj_));
        rti_active_instr_ += static_cast<double>(
            machine_->ReadSocketInstructions(socket_) - rti_phase_i0_);
        rti_active_time_ += simulator_->now() - rti_phase_t0_;
        ApplyIdle();
      });
    }
  }
}

void SocketEcl::Tick() {
  if (!running_) return;
  const SimTime now = simulator_->now();
  ++ticks_;
  ++generation_;
  const int64_t gen = generation_;

  if (park_check_ && park_check_()) {
    // Parked: no partitions are homed here. Hold the idle configuration
    // (applied once, so long stretches stay stationary for fast-forward)
    // and skip measurement, control and adaptation entirely; the bumped
    // generation cancels any pending RTI/evaluation events.
    (void)util_source_();  // keep the utilization window consumed
    if (!parked_) ApplyIdle();
    parked_ = true;
    perf_level_ = 0.0;
    last_utilization_ = 0.0;
    current_index_ = profile_.idle_index();
    last_plan_ = RtiController::Plan{};
    interval_clean_ = false;
    interval_config_ = -1;
    rti_active_energy_uj_ = 0.0;
    rti_active_instr_ = 0.0;
    rti_active_time_ = 0;
    interval_t0_ = now;
    interval_e0_uj_ = ReadSocketEnergyUj();
    interval_i0_ = machine_->ReadSocketInstructions(socket_);
    interval_poll0_ = machine_->ReadSocketPolledInstructions(socket_);
    interval_bytes0_ = machine_->ReadSocketDramBytes(socket_);
    if (params_.telemetry != nullptr) {
      params_.telemetry->trace().Instant(trace_lane_, "ecl", "parked", now);
    }
    simulator_->Schedule(now + params_.interval, [this] { Tick(); });
    return;
  }
  parked_ = false;

  // ---- Utilization of the finished interval -------------------------------
  const double utilization = util_source_();
  last_utilization_ = utilization;
  // Performance level actually processed over the finished interval,
  // measured in the profile's currency (instructions retired / second).
  double measured_rate = 0.0;
  if (now > interval_t0_) {
    uint64_t instr_delta =
        machine_->ReadSocketInstructions(socket_) - interval_i0_;
    if (params_.exclude_poll_instructions) {
      // Discount the idle-spin instructions of workless active threads:
      // they retire at full rate while representing zero processed work,
      // so counting them inflates the demand estimate of a mostly-idle
      // (e.g. freshly consolidated) socket.
      const uint64_t poll_delta =
          machine_->ReadSocketPolledInstructions(socket_) - interval_poll0_;
      instr_delta -= std::min(instr_delta, poll_delta);
    }
    measured_rate = static_cast<double>(instr_delta) /
                    ToSeconds(now - interval_t0_);
  }
  last_measured_rate_ = measured_rate;

  // ---- Work-profile feature snapshot (learned adaptation) ---------------
  // Describes what ran over the finished interval in configuration-
  // invariant terms; tags every learn-cache observation and keys the
  // predictions that seed the profile on drift. Idle intervals keep the
  // previous (last loaded) snapshot.
  if (predictor_ != nullptr && now > interval_t0_ && interval_config_ > 0) {
    const double seconds = ToSeconds(now - interval_t0_);
    profile::FeatureInputs fin;
    fin.instr_rate =
        static_cast<double>(machine_->ReadSocketInstructions(socket_) -
                            interval_i0_) /
        seconds;
    fin.dram_bytes_rate =
        (machine_->ReadSocketDramBytes(socket_) - interval_bytes0_) / seconds;
    const hwsim::SocketConfig& hw = profile_.config(interval_config_).hw;
    fin.active_threads = hw.ActiveThreadCount();
    fin.core_freq_ghz = hw.MeanActiveCoreFreq(machine_->topology());
    fin.rti_duty = last_plan_.use_rti ? last_plan_.duty : 1.0;
    fin.utilization = utilization;
    const profile::FeatureVector features = profile::ExtractFeatures(fin);
    if (features.valid && features.v[2] >= kMinUtilization) {
      last_features_ = features;
    }
  }
  // Deferred drift seeding (see HandleDrift): runs with the first clean
  // post-switch snapshot, before this interval's online measurement is
  // checked against the stored values — a successful seed therefore
  // already agrees with what the measurement is compared to.
  if (pending_seed_ && predictor_ != nullptr) RunPendingSeed(now);

  // ---- Online adaptation: measure the finished interval -----------------
  // Intervals where the configuration ran uninterrupted and was
  // meaningfully loaded are recorded as-is (the paper's online strategy:
  // "every time the socket-level ECL applies a certain configuration, it
  // measures the power and performance metrics"). Below saturation the
  // performance score understates the configuration's capacity, which is
  // conservative: it demotes stale entries and escalates under load.
  if (interval_clean_ && utilization >= 0.75 && interval_config_ > 0 &&
      now > interval_t0_) {
    const double seconds = ToSeconds(now - interval_t0_);
    if (seconds >= ToSeconds(params_.measure_time)) {
      const double power = static_cast<double>(static_cast<int64_t>(
                               ReadSocketEnergyUj() - interval_e0_uj_)) *
                           1e-6 / seconds;
      const double perf = static_cast<double>(
                              machine_->ReadSocketInstructions(socket_) -
                              interval_i0_) /
                          seconds;
      const ProfileMaintenance::OnlineOutcome outcome = maintenance_.RecordOnline(
          &profile_, interval_config_, power, perf, now);
      if (outcome.drift_detected) HandleDrift(now);
    }
  }
  // RTI intervals: the active phases concentrate the queued work, so their
  // accumulated counters measure the applied configuration under
  // (near-)full load — the "simulated high load" of Section 5.1.
  if (last_plan_.use_rti && interval_config_ > 0 && utilization >= 0.75 &&
      rti_active_time_ >= params_.measure_time) {
    const double active_s = ToSeconds(rti_active_time_);
    const ProfileMaintenance::OnlineOutcome outcome = maintenance_.RecordOnline(
        &profile_, interval_config_, rti_active_energy_uj_ * 1e-6 / active_s,
        rti_active_instr_ / active_s, now);
    if (outcome.drift_detected) HandleDrift(now);
  }
  rti_active_energy_uj_ = 0.0;
  rti_active_instr_ = 0.0;
  rti_active_time_ = 0;

  // ---- Utilization controller -------------------------------------------
  const double pressure = system_ != nullptr ? system_->pressure() : 0.0;

  // Backlog wake (dynamic placement only): utilization and the measured
  // rate are relative to the *running* workers, so on a nearly-drained
  // socket whose RTI duty has decayed, queued work is invisible to the
  // reactive loop — stale routed arrivals or a migration shard copy can
  // pile up behind sub-slice active windows while demand keeps halving
  // (the decay branch), a feedback deadlock. Saturation test in the
  // profile's currency: if the backlog could not be drained within about
  // one control interval at the currently offered level (factor 2 covers
  // the ops-vs-instructions currency gap), the true demand strictly
  // exceeds the offer regardless of what utilization reads.
  double control_utilization = utilization;
  bool backlog_wake = false;
  if (backlog_check_ &&
      backlog_check_() >
          2.0 * perf_level_ * ToSeconds(params_.interval)) {
    control_utilization = 1.0;
    backlog_wake = true;
  }

  double demand = 0.0;
  int selected;
  const bool bootstrap = profile_.measured_count() == 0;
  if (bootstrap) {
    // Bootstrap: nothing measured yet. Run the widest configuration (all
    // threads at maximum frequency) while multiplexed adaptation fills the
    // profile.
    selected = profile_.size() - 1;
    double best = -1.0;
    for (int i = 1; i < profile_.size(); ++i) {
      const hwsim::SocketConfig& hw = profile_.config(i).hw;
      const double score = hw.ActiveThreadCount() * 1000.0 +
                           hw.MeanActiveCoreFreq(machine_->topology());
      if (score > best) {
        best = score;
        selected = i;
      }
    }
  } else {
    demand = util_controller_.Update(control_utilization, measured_rate,
                                     perf_level_, pressure, profile_);
    if (backlog_wake) {
      // Race-to-idle at socket scale: the backlog accrued with zero
      // service, so exponential discovery from the decayed level would
      // take many intervals. Drain at peak and let the next ticks decay
      // back (or park, once the last partitions migrate away).
      demand = profile_.PeakPerfScore();
    }
    selected = profile_.FindForDemand(demand);
    if (selected < 0) selected = profile_.size() - 1;
  }

  // ---- RTI controller -----------------------------------------------------
  RtiController::Plan plan =
      rti_controller_.MakePlan(demand, selected, profile_, pressure);
  last_plan_ = plan;
  current_index_ = plan.config_index;
  // The performance level tracks the *offered* capacity of the plan, so
  // that Eq. 3 (new = utilization * old) recovers the true demand: with
  // RTI the offered capacity is scaled by the duty cycle.
  const profile::Configuration& chosen = profile_.config(plan.config_index);
  const double offered = chosen.measured() ? chosen.perf_score : demand;
  perf_level_ = plan.use_rti ? plan.duty * offered : offered;
  if (perf_level_ <= 0.0) perf_level_ = demand;

  // ---- Multiplexed adaptation ---------------------------------------------
  std::vector<int> evals = maintenance_.PickForReevaluation(profile_, now);
  const SimDuration eval_each = kApplySettle + params_.measure_time;
  const SimDuration eval_budget = static_cast<SimDuration>(
      kMaxEvalFraction * static_cast<double>(params_.interval));
  while (!evals.empty() &&
         static_cast<SimDuration>(evals.size()) * eval_each > eval_budget) {
    evals.pop_back();
  }
  SimTime cursor = now;
  for (int idx : evals) {
    ScheduleEvaluation(cursor, idx, gen);
    cursor += eval_each;
  }

  // ---- Apply the plan for the rest of the interval ------------------------
  const SimTime interval_end = now + params_.interval;
  if (plan.use_rti) {
    if (cursor == now) {
      ApplyConfig(plan.config_index);
    } else {
      simulator_->Schedule(cursor, [this, plan, gen] {
        if (gen != generation_) return;
        ApplyConfig(plan.config_index);
      });
    }
    ScheduleRti(cursor, interval_end, plan, gen);
  } else {
    if (cursor == now) {
      ApplyConfig(plan.config_index);
    } else {
      simulator_->Schedule(cursor, [this, plan, gen] {
        if (gen != generation_) return;
        ApplyConfig(plan.config_index);
      });
    }
  }

  // ---- Arm online measurement for this interval ---------------------------
  interval_clean_ = evals.empty() && !plan.use_rti && plan.config_index > 0;
  interval_config_ = plan.config_index;
  interval_t0_ = now;
  interval_e0_uj_ = ReadSocketEnergyUj();
  interval_i0_ = machine_->ReadSocketInstructions(socket_);
  interval_poll0_ = machine_->ReadSocketPolledInstructions(socket_);
  interval_bytes0_ = machine_->ReadSocketDramBytes(socket_);

  if (telemetry::Telemetry* tel = params_.telemetry; tel != nullptr) {
    // One span per control interval carrying the decision and its reason.
    const char* reason =
        bootstrap ? "bootstrap" : (backlog_wake ? "backlog_wake" : "normal");
    tel->trace().Span(
        trace_lane_, "ecl", "tick", now, interval_end,
        std::string("\"reason\":\"") + reason +
            "\",\"config\":" + std::to_string(plan.config_index) +
            ",\"rti\":" + (plan.use_rti ? "true" : "false") +
            ",\"duty\":" + telemetry::JsonNumber(plan.duty) +
            ",\"cycles\":" + std::to_string(plan.cycles) +
            ",\"utilization\":" + telemetry::JsonNumber(utilization) +
            ",\"demand\":" + telemetry::JsonNumber(demand) +
            ",\"perf_level\":" + telemetry::JsonNumber(perf_level_) +
            ",\"evals\":" + std::to_string(evals.size()));
  }

  simulator_->Schedule(interval_end, [this] { Tick(); });
}

}  // namespace ecldb::ecl
