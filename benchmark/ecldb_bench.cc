// ecldb_bench: one measured run of one benchmark workload.
//
//   ecldb_bench --workload=NAME [--seed=S] [--trace] [--scale=F] [--out=DIR]
//
// Builds the workload's rig from the layers' public APIs (simulator,
// machine or cluster, engine or cluster engine, ECLs, driver or loadgen),
// primes it, drives one open-loop trace, drains, checks the run's
// accounting, and prints every metric as "workload metric value unit".
// Unit "s" marks host time (CPU or wall clock); every other metric is
// modelled or counted and repeats exactly for a given seed and binary. With --trace,
// probe advancers and timed seams attribute the wall time to the layers
// (see layer_trace.h) and the sampled spans are written to
// DIR/trace_NAME.json. Exits 3 when an accounting check fails.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "ecl/cluster_ecl.h"
#include "ecl/ecl.h"
#include "engine/cluster_engine.h"
#include "engine/engine.h"
#include "hwsim/cluster.h"
#include "hwsim/machine.h"
#include "layer_trace.h"
#include "loadgen/loadgen.h"
#include "sim/simulator.h"
#include "workload/kv.h"
#include "workload/load_profile.h"
#include "workload/ssb.h"
#include "workload/workload.h"

namespace ecldb::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time this process has used, in seconds.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Times the rig is built and primed in one run (see RunOnce).
constexpr int kSetups = 3;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Times every MakeQuery the driver or the loadgen makes (the
/// workload.make_query seam) and counts them.
class TimedWorkload : public workload::Workload {
 public:
  TimedWorkload(std::unique_ptr<workload::Workload> inner, LayerTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  std::string_view name() const override { return inner_->name(); }
  const hwsim::WorkProfile& profile() const override {
    return inner_->profile();
  }
  engine::QuerySpec MakeQuery(Rng& rng) override {
    LayerTrace::SeamTimer timer(trace_, LayerTrace::kMakeQuery);
    ++queries_;
    return inner_->MakeQuery(rng);
  }
  double MeanOpsPerQuery() const override { return inner_->MeanOpsPerQuery(); }

  workload::Workload& inner() { return *inner_; }
  int64_t queries() const { return queries_; }

 private:
  std::unique_ptr<workload::Workload> inner_;
  LayerTrace* trace_;
  int64_t queries_ = 0;
};

using WorkloadFactory =
    std::function<std::unique_ptr<workload::Workload>(engine::Engine*)>;

struct RigParams {
  /// 1: one machine with its ECL. More: a homogeneous rack of brawny
  /// nodes, one ECL stack per node and the cluster ECL on top.
  int nodes = 1;
  WorkloadFactory make_workload;
  ecl::EclParams ecl;
  engine::ClusterEngineParams cluster_engine;
  ecl::ClusterEclParams cluster_ecl;
  /// Seed of the any-node entry picks (rack only).
  uint64_t entry_seed = 0;
};

class Rig;

/// Splits the modelled energy of the measured window into its parts:
/// RAPL package and DRAM while a node is on, and platform overhead, boot
/// and standby power (rack only). Node phases are followed through the
/// cluster ECL's power-down and boot hooks, so the parts are computed
/// independently of Cluster::TotalEnergyJoules and can be checked
/// against it.
class EnergyLedger {
 public:
  explicit EnergyLedger(Rig* rig) : rig_(rig) {}
  void Begin();
  void End();
  void OnPowerDown(NodeId n);
  void OnBooted(NodeId n);

  double pkg_j = 0.0;
  double dram_j = 0.0;
  double platform_j = 0.0;

 private:
  struct Node {
    bool on = true;
    SimTime since = 0;
    double pkg_at = 0.0;
    double dram_at = 0.0;
  };
  void Snapshot(NodeId n, SimTime now);
  void CloseOn(NodeId n, SimTime now);
  /// Standby then boot power over a down phase [since, now]; `boot_start`
  /// is when the boot began (clamped to the phase).
  void CloseDown(NodeId n, SimTime now, SimTime boot_start);

  Rig* rig_;
  bool open_ = false;
  std::vector<Node> nodes_;
};

/// The system under test, assembled bottom-up in the order the layers
/// require (advancer registration order is load-bearing): machines, then
/// engines, then the workload, the ECLs and, on a rack, the cluster ECL.
/// With a LayerTrace, probe advancers bracket the machines and engines.
class Rig {
 public:
  Rig(const RigParams& params, LayerTrace* trace) : params_(params), trace_(trace) {
    if (trace_ != nullptr) sim_.RegisterAdvancer(trace_->Probe(0));
    if (params_.nodes == 1) {
      machine_ = std::make_unique<hwsim::Machine>(
          &sim_, hwsim::MachineParams::HaswellEp());
    } else {
      cluster_ = std::make_unique<hwsim::Cluster>(
          &sim_, hwsim::ClusterParams::Homogeneous(params_.nodes,
                                                   hwsim::ClusterNodeParams{}));
    }
    if (trace_ != nullptr) sim_.RegisterAdvancer(trace_->Probe(1));
    if (params_.nodes == 1) {
      engine_ = std::make_unique<engine::Engine>(&sim_, machine_.get(),
                                                 engine::EngineParams{});
    } else {
      cengine_ = std::make_unique<engine::ClusterEngine>(
          &sim_, cluster_.get(), params_.cluster_engine);
    }
    if (trace_ != nullptr) sim_.RegisterAdvancer(trace_->Probe(2));

    workload_ = std::make_unique<TimedWorkload>(
        params_.make_workload(&engine(0)), trace_);
    for (NodeId n = 0; n < nodes(); ++n) {
      capacity_qps_ +=
          workload::BaselineCapacityQps(machine(n).params(), workload_->inner());
    }

    for (NodeId n = 0; n < nodes(); ++n) {
      ecl::EclParams ecl_params = params_.ecl;
      if (cluster_ != nullptr) {
        // Placement is the cluster tier's job; the park/backlog hooks stay
        // wired so parked sockets wake on local backlog.
        ecl_params.consolidation.enabled = false;
        ecl_params.placement_hooks = true;
      }
      ecls_.push_back(std::make_unique<ecl::EnergyControlLoop>(
          &sim_, &engine(n), ecl_params));
    }
    for (auto& loop : ecls_) loop->Start();

    if (cluster_ != nullptr) {
      cluster_ecl_ = std::make_unique<ecl::ClusterEcl>(
          &sim_, cengine_.get(),
          [this](NodeId n) {
            ecl::EnergyControlLoop& loop = ecl(n);
            double load = 0.0;
            for (int s = 0; s < loop.num_sockets(); ++s) {
              const ecl::SocketEcl& se = loop.socket(s);
              const double peak = se.profile().PeakPerfScore();
              if (peak > 0.0) load += se.performance_level() / peak;
            }
            return load / loop.num_sockets();
          },
          [this](NodeId n) { return ecl(n).system().pressure(); },
          params_.cluster_ecl);
      cluster_ecl_->SetNodeHooks(
          [this](NodeId n) {
            if (ledger_ != nullptr) ledger_->OnPowerDown(n);
            ecl(n).Stop();
          },
          [this](NodeId n) {
            ecl(n).Start();
            if (ledger_ != nullptr) ledger_->OnBooted(n);
          });
      cluster_ecl_->Start();
    }
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Primes every node's energy profiles under synthetic saturation, then
  /// clears the latency statistics so measurement starts clean.
  void Prime(SimDuration duration) {
    for (NodeId n = 0; n < nodes(); ++n) {
      engine(n).scheduler().SetSyntheticLoad(&workload_->profile());
    }
    sim_.RunFor(duration);
    for (NodeId n = 0; n < nodes(); ++n) {
      engine(n).scheduler().SetSyntheticLoad(nullptr);
      engine(n).latency().ResetRunStats();
    }
  }

  /// Enters one client query: at the machine, or on the rack at a
  /// uniformly random powered-on node (a placement-oblivious client).
  void Submit(const engine::QuerySpec& spec) {
    LayerTrace::SeamTimer timer(trace_, LayerTrace::kSubmit);
    if (cluster_ == nullptr) {
      engine_->Submit(spec);
      return;
    }
    cengine_->Submit(EntryNodeFor(spec), spec);
  }

  void StopEcls() {
    if (cluster_ecl_ != nullptr) cluster_ecl_->Stop();
    for (auto& loop : ecls_) loop->Stop();
  }

  sim::Simulator& sim() { return sim_; }
  int nodes() const { return params_.nodes; }
  hwsim::Cluster* cluster() { return cluster_.get(); }
  engine::ClusterEngine* cengine() { return cengine_.get(); }
  ecl::ClusterEcl* cluster_ecl() { return cluster_ecl_.get(); }
  hwsim::Machine& machine(NodeId n) {
    return cluster_ != nullptr ? cluster_->machine(n) : *machine_;
  }
  engine::Engine& engine(NodeId n) {
    return cengine_ != nullptr ? cengine_->node_engine(n) : *engine_;
  }
  ecl::EnergyControlLoop& ecl(NodeId n) {
    return *ecls_[static_cast<size_t>(n)];
  }
  TimedWorkload& workload() { return *workload_; }
  double capacity_qps() const { return capacity_qps_; }
  void set_ledger(EnergyLedger* ledger) { ledger_ = ledger; }

  double EnergyJ() const {
    return cluster_ != nullptr ? cluster_->TotalEnergyJoules()
                               : machine_->TotalEnergyJoules();
  }
  double MaxPressure() {
    double p = 0.0;
    for (auto& loop : ecls_) p = std::max(p, loop->system().pressure());
    return p;
  }
  double BacklogOps() {
    double ops = 0.0;
    for (NodeId n = 0; n < nodes(); ++n) {
      for (SocketId s = 0; s < machine(n).topology().num_sockets; ++s) {
        ops += engine(n).scheduler().BacklogOps(s);
      }
    }
    return ops;
  }

 private:
  NodeId EntryNodeFor(const engine::QuerySpec& spec) {
    const NodeId home = cengine_->placement().HomeOf(spec.work.front().partition);
    const int on = cluster_->NodesOn();
    if (on <= 0) return home;
    int pick = static_cast<int>(entry_rng_.NextBounded(static_cast<uint64_t>(on)));
    for (NodeId n = 0; n < nodes(); ++n) {
      if (!cluster_->IsOn(n)) continue;
      if (pick == 0) return n;
      --pick;
    }
    return home;
  }

  RigParams params_;
  LayerTrace* trace_;
  Rng entry_rng_{params_.entry_seed};
  sim::Simulator sim_;
  std::unique_ptr<hwsim::Machine> machine_;
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<hwsim::Cluster> cluster_;
  std::unique_ptr<engine::ClusterEngine> cengine_;
  std::unique_ptr<TimedWorkload> workload_;
  double capacity_qps_ = 0.0;
  std::vector<std::unique_ptr<ecl::EnergyControlLoop>> ecls_;
  std::unique_ptr<ecl::ClusterEcl> cluster_ecl_;
  EnergyLedger* ledger_ = nullptr;
};

void EnergyLedger::Snapshot(NodeId n, SimTime now) {
  Node& node = nodes_[static_cast<size_t>(n)];
  const hwsim::Machine& m = rig_->machine(n);
  node.on = true;
  node.since = now;
  node.pkg_at = 0.0;
  node.dram_at = 0.0;
  for (SocketId s = 0; s < m.topology().num_sockets; ++s) {
    node.pkg_at += m.ExactEnergyJoules(s, hwsim::RaplDomain::kPackage);
    node.dram_at += m.ExactEnergyJoules(s, hwsim::RaplDomain::kDram);
  }
}

void EnergyLedger::CloseOn(NodeId n, SimTime now) {
  const Node& node = nodes_[static_cast<size_t>(n)];
  const hwsim::Machine& m = rig_->machine(n);
  for (SocketId s = 0; s < m.topology().num_sockets; ++s) {
    pkg_j += m.ExactEnergyJoules(s, hwsim::RaplDomain::kPackage);
    dram_j += m.ExactEnergyJoules(s, hwsim::RaplDomain::kDram);
  }
  pkg_j -= node.pkg_at;
  dram_j -= node.dram_at;
  if (rig_->cluster() != nullptr) {
    const hwsim::NodePowerParams& power =
        rig_->cluster()->params().nodes[static_cast<size_t>(n)].power;
    platform_j += power.platform_overhead_w * ToSeconds(now - node.since);
  }
}

void EnergyLedger::CloseDown(NodeId n, SimTime now, SimTime boot_start) {
  const Node& node = nodes_[static_cast<size_t>(n)];
  const hwsim::NodePowerParams& power =
      rig_->cluster()->params().nodes[static_cast<size_t>(n)].power;
  const SimTime boot = std::clamp(boot_start, node.since, now);
  platform_j += power.off_power_w * ToSeconds(boot - node.since) +
                power.boot_power_w * ToSeconds(now - boot);
}

void EnergyLedger::Begin() {
  const SimTime now = rig_->sim().now();
  nodes_.assign(static_cast<size_t>(rig_->nodes()), Node{});
  for (NodeId n = 0; n < rig_->nodes(); ++n) {
    if (rig_->cluster() == nullptr || rig_->cluster()->IsOn(n)) {
      Snapshot(n, now);
    } else {
      nodes_[static_cast<size_t>(n)] = Node{false, now, 0.0, 0.0};
    }
  }
  open_ = true;
}

void EnergyLedger::OnPowerDown(NodeId n) {
  if (!open_) return;
  const SimTime now = rig_->sim().now();
  CloseOn(n, now);
  nodes_[static_cast<size_t>(n)] = Node{false, now, 0.0, 0.0};
}

void EnergyLedger::OnBooted(NodeId n) {
  if (!open_) return;
  const SimTime now = rig_->sim().now();
  const SimDuration boot = rig_->cluster()
                               ->params()
                               .nodes[static_cast<size_t>(n)]
                               .power.boot_latency;
  CloseDown(n, now, now - boot);
  Snapshot(n, now);
}

void EnergyLedger::End() {
  const SimTime now = rig_->sim().now();
  for (NodeId n = 0; n < rig_->nodes(); ++n) {
    const Node& node = nodes_[static_cast<size_t>(n)];
    if (node.on) {
      CloseOn(n, now);
      continue;
    }
    hwsim::Cluster& cluster = *rig_->cluster();
    const bool booting =
        cluster.state(n) == hwsim::Cluster::NodeState::kBooting;
    CloseDown(n, now, booting ? cluster.StateSince(n) : now);
  }
  open_ = false;
}

/// Open-loop Poisson driver following a LoadProfile: the arrival process
/// of workload::LoadDriver (the same draws in the same order, so a run
/// reproduces the paper-figure benches for the same seed), entering each
/// query through Rig::Submit.
class ProfileDriver {
 public:
  ProfileDriver(Rig* rig, const workload::LoadProfile* profile,
                double capacity_qps, uint64_t seed)
      : rig_(rig), profile_(profile), capacity_qps_(capacity_qps), rng_(seed) {}

  void Start() {
    start_time_ = rig_->sim().now();
    ScheduleNext();
  }
  int64_t submitted() const { return submitted_; }

 private:
  void ScheduleNext() {
    sim::Simulator& sim = rig_->sim();
    const SimTime rel = sim.now() - start_time_;
    if (rel >= profile_->duration()) return;
    const double rate = profile_->LoadAt(rel) * capacity_qps_;
    if (rate <= 1e-9) {
      sim.ScheduleAfter(Millis(50), [this] { ScheduleNext(); });
      return;
    }
    const SimDuration gap = std::max<SimDuration>(
        Nanos(100),
        static_cast<SimDuration>(rng_.NextExponential(rate) * 1e9));
    sim.ScheduleAfter(gap, [this] {
      if (rig_->sim().now() - start_time_ < profile_->duration()) {
        const engine::QuerySpec spec = rig_->workload().MakeQuery(rng_);
        if (!spec.work.empty()) {
          rig_->Submit(spec);
          ++submitted_;
        }
      }
      ScheduleNext();
    });
  }

  Rig* rig_;
  const workload::LoadProfile* profile_;
  double capacity_qps_;
  Rng rng_;
  SimTime start_time_ = 0;
  int64_t submitted_ = 0;
};

// --- Workloads --------------------------------------------------------------

/// One benchmark workload: the rig, and either a load profile for the
/// Poisson driver or a loadgen configuration.
struct WorkloadDef {
  RigParams rig;
  std::unique_ptr<workload::LoadProfile> profile;  // null: loadgen
  loadgen::LoadGenParams loadgen;
  double loadgen_total_load = 0.0;
  SimDuration trace_length = 0;
  SimDuration sample_period = Millis(500);
};

SimDuration Scaled(SimDuration d, double scale) {
  return static_cast<SimDuration>(static_cast<double>(d) * scale);
}

/// Non-indexed KV: every query scans one partition's whole shard (memory
/// bandwidth-bound), so the key space sets the work per query.
WorkloadFactory KvNonIndexed(int64_t num_keys) {
  return [num_keys](engine::Engine* e) {
    workload::KvParams p;
    p.indexed = false;
    p.num_keys = num_keys;
    return std::make_unique<workload::KvWorkload>(e, p);
  };
}

/// The paper's Fig. 13 run: one Haswell-EP node, non-indexed KV, ECL at
/// 1 Hz, Poisson arrivals following the 180 s spike profile.
WorkloadDef SpikeKv(double scale, uint64_t) {
  WorkloadDef w;
  w.rig.make_workload = KvNonIndexed(16'777'216);
  w.trace_length = Scaled(Seconds(180), scale);
  w.profile = std::make_unique<workload::SpikeProfile>(w.trace_length);
  w.sample_period = Seconds(2);
  return w;
}

/// Indexed SSB at SF 1 (6 M lineorder rows) under the twitter profile
/// stretched to an hour: few long compute-bound queries.
WorkloadDef TwitterSsb(double scale, uint64_t) {
  WorkloadDef w;
  w.rig.make_workload = [](engine::Engine* e) {
    workload::SsbParams p;
    p.indexed = true;
    p.sim_lineorder_rows = 6'000'000;
    return std::make_unique<workload::SsbWorkload>(e, p);
  };
  w.trace_length = Scaled(Seconds(3600), scale);
  w.profile = std::make_unique<workload::TwitterProfile>(7, w.trace_length);
  w.sample_period = Seconds(2);
  return w;
}

/// The immediate-retry arm of ablation_retry_storm on a 30 s trace: a
/// premium keeper tenant plus a standard tenant hit by a 5x flash crowd
/// at 9-15 s; every refusal costs 3 % of a query and comes back 50 ms
/// later, up to 20 attempts. The key space is 4x the ablation's (64 M
/// keys), so each query scans 4x the rows and a quarter as many arrive
/// for the same relative load: the storm's dynamics stay (about 12
/// attempts per arrival, shedding pinned to the end) at a quarter of the
/// events, which keeps one run inside the benchmark's time budget.
WorkloadDef RetryStorm64m(double scale, uint64_t seed) {
  WorkloadDef w;
  w.rig.make_workload = KvNonIndexed(4 * 16'777'216LL);
  w.rig.ecl.system.interval = Millis(250);
  w.trace_length = Scaled(Seconds(30), scale);

  loadgen::TenantSpec keeper;
  keeper.name = "premium";
  keeper.slo_class = loadgen::SloClass::kPremium;
  keeper.weight = 0.1;
  keeper.arrival.num_users = 100'000;
  keeper.arrival.per_user_qps = 0.01;
  loadgen::TenantSpec standard;
  standard.name = "standard";
  standard.slo_class = loadgen::SloClass::kStandard;
  standard.weight = 0.9;
  standard.arrival.num_users = 1'000'000;
  standard.arrival.per_user_qps = 0.01;
  loadgen::ShapeSpec crowd;
  crowd.name = "flash_crowd";
  crowd.magnitude = 5.0;
  crowd.start = Scaled(Seconds(9), scale);
  crowd.duration = Scaled(Seconds(6), scale);
  standard.shapes.push_back(crowd);

  loadgen::LoadGenParams& lg = w.loadgen;
  lg.tenants = {keeper, standard};
  lg.admission.classes[static_cast<size_t>(loadgen::SloClass::kStandard)] = {
      0.0, 0.0, 0.50, 0.85};
  lg.reject_cost_frac = 0.03;
  lg.duration = w.trace_length;
  lg.seed = seed;
  lg.retry.enabled = true;
  lg.retry.mode = loadgen::RetryParams::Mode::kImmediate;
  lg.retry.immediate_delay = Millis(50);
  lg.retry.max_attempts = 20;
  w.loadgen_total_load = 0.5;
  return w;
}

/// ablation_cluster's brawny rack with the cluster ECL on and
/// placement-oblivious clients entering at any powered-on node. Its
/// diurnal trace is compressed 4x, to 45 s, with the policy timescales
/// scaled alike (boot latency, a hardware constant, is not), and the key
/// space is twice the ablation's (128 M keys, so half as many, twice as
/// large queries): one run fits the benchmark's time budget and still
/// migrates partitions, powers a node down and wakes it.
WorkloadDef RackAnynode45s(double scale, uint64_t seed) {
  constexpr int kNodes = 4;
  WorkloadDef w;
  w.rig.nodes = kNodes;
  w.rig.make_workload = KvNonIndexed(2 * 16'777'216LL * kNodes);
  w.rig.ecl.socket.exclude_poll_instructions = true;
  w.rig.cluster_engine.migration.min_shard_bytes = 64.0 * (1 << 20);
  ecl::ClusterEclParams& ce = w.rig.cluster_ecl;
  ce.enabled = true;
  ce.interval = Millis(500);
  ce.migrations_per_tick = 12;
  ce.spread_migrations_per_tick = 24;
  ce.post_migration_hold = Seconds(5);
  ce.min_on_time = Seconds(15);
  w.rig.entry_seed = seed + 1;
  w.trace_length = Scaled(Seconds(45), scale);
  auto at = [scale](double s) { return Scaled(FromSeconds(s), scale); };
  w.profile = std::make_unique<workload::StepProfile>(
      std::vector<workload::StepProfile::Step>{{at(0), 0.5},
                                               {at(12.5), 0.25},
                                               {at(15), 0.06},
                                               {at(32.5), 0.3},
                                               {at(36.25), 0.5}},
      w.trace_length);
  return w;
}

/// Every workload by name; `scale` multiplies the trace length (the smoke
/// test runs 1/20), `seed` feeds the client-side streams.
struct WorkloadEntry {
  const char* name;
  WorkloadDef (*make)(double scale, uint64_t seed);
};
constexpr WorkloadEntry kWorkloads[] = {
    {"spike_kv", SpikeKv},
    {"twitter_ssb", TwitterSsb},
    {"retry_storm_64m", RetryStorm64m},
    {"rack_anynode_45s", RackAnynode45s},
};

// --- One run -------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 4242;
  bool trace = false;
  double scale = 1.0;
  std::string out = "bench_results/benchmark";
};

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}
  void Add(const char* name, double value, const char* unit) {
    std::printf("%s %s %.17g %s\n", workload_.c_str(), name, value, unit);
  }
  void Count(const char* name, int64_t value) {
    std::printf("%s %s %" PRId64 " count\n", workload_.c_str(), name, value);
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::string workload_;
  std::vector<std::string> failures_;
};

/// Activity counters summed over the rig, read at window start and end.
struct Counters {
  int64_t config_writes = 0;
  int64_t socket_ticks = 0;
  int64_t online_updates = 0;
  int64_t multiplexed_evals = 0;
  int64_t discarded = 0;
  int64_t drift_flags = 0;
  int64_t cluster_ticks = 0;
  int64_t power_downs = 0;
  int64_t power_ups = 0;
  int64_t net_transfers = 0;
  double net_bytes = 0.0;
  SimDuration net_queueing = 0;
  int64_t remote_sends = 0;
  int64_t stale_forwards = 0;
  int64_t migrations = 0;
  double migration_bytes = 0.0;

  static Counters Read(Rig& rig) {
    Counters c;
    for (NodeId n = 0; n < rig.nodes(); ++n) {
      c.config_writes += rig.machine(n).config_writes();
      ecl::EnergyControlLoop& loop = rig.ecl(n);
      for (SocketId s = 0; s < loop.num_sockets(); ++s) {
        ecl::SocketEcl& se = loop.socket(s);
        c.socket_ticks += se.ticks();
        c.online_updates += se.maintenance().online_updates();
        c.multiplexed_evals += se.maintenance().multiplexed_evals();
        c.discarded += se.maintenance().discarded_measurements();
        c.drift_flags += se.maintenance().drift_flags();
        c.stale_forwards += rig.engine(n).socket_msg_stats(s).stale_forwards;
      }
    }
    if (rig.cluster() != nullptr) {
      const hwsim::Cluster& cl = *rig.cluster();
      const engine::ClusterEngine& ce = *rig.cengine();
      c.cluster_ticks = rig.cluster_ecl()->ticks();
      c.power_downs = cl.power_downs();
      c.power_ups = cl.power_ups();
      c.net_transfers = rig.cluster()->network().transfers();
      c.net_bytes = rig.cluster()->network().bytes_sent();
      c.net_queueing = rig.cluster()->network().queueing_time();
      c.remote_sends = ce.remote_sends();
      c.stale_forwards += ce.stale_forwards();
      c.migrations = ce.migrations_completed();
      c.migration_bytes = ce.bytes_moved();
    } else {
      c.migrations = rig.engine(0).migrator().completed();
      c.migration_bytes = rig.engine(0).migrator().bytes_moved();
    }
    return c;
  }
};

int RunOnce(const Options& opt) {
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& e : kWorkloads) {
    if (opt.workload == e.name) entry = &e;
  }
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  WorkloadDef def = entry->make(opt.scale, opt.seed);
  std::unique_ptr<LayerTrace> trace;
  if (opt.trace) trace = std::make_unique<LayerTrace>(/*span_every=*/4096);
  Report report(opt.workload);

  // --- Setup: build and prime the rig, kSetups times. ---
  // Setup and run cost are CPU seconds: the run is single-threaded, so on an
  // idle host they equal wall seconds, and on a shared one they leave out
  // the time slices other processes take. Set-up takes tens of milliseconds
  // on one node, so it is repeated and the median reported; every rig is
  // built from the same parameters and the last one is run.
  std::unique_ptr<Rig> rig;
  std::vector<double> build_s, prime_s, setup_s;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();  // one rig alive at a time
    const double t0 = CpuSeconds();
    rig = std::make_unique<Rig>(def.rig, trace.get());
    const double t1 = CpuSeconds();
    rig->Prime(Seconds(30));
    const double t2 = CpuSeconds();
    build_s.push_back(t1 - t0);
    prime_s.push_back(t2 - t1);
    setup_s.push_back(t2 - t0);
  }

  sim::Simulator& sim = rig->sim();
  TimedWorkload& wl = rig->workload();

  // --- Client side: the Poisson driver or the loadgen. ---
  std::unique_ptr<ProfileDriver> driver;
  std::unique_ptr<loadgen::LoadGen> lg;
  PercentileTracker rack_latency;
  if (def.profile != nullptr) {
    driver = std::make_unique<ProfileDriver>(rig.get(), def.profile.get(),
                                             rig->capacity_qps(), opt.seed);
    if (rig->nodes() > 1) {
      // One population over all nodes (per-node trackers are not
      // mergeable). Like them, this callback times from arrival at the
      // executing node: network flight, forward hops and NIC queueing are
      // not part of rack latency (hwsim.net_queueing_s covers the NIC).
      for (NodeId n = 0; n < rig->nodes(); ++n) {
        rig->engine(n).scheduler().SetCompletionCallback(
            [&rack_latency, &trace](int8_t, SimTime arrival, SimTime done) {
              LayerTrace::SeamTimer timer(trace.get(), LayerTrace::kOnComplete);
              rack_latency.Add(ToMillis(done - arrival));
            });
      }
    }
  } else {
    ECLDB_CHECK(rig->nodes() == 1);
    lg = std::make_unique<loadgen::LoadGen>(&sim, &wl, def.loadgen);
    lg->NormalizeToCapacity(rig->capacity_qps(), def.loadgen_total_load);
    lg->SetSubmitFn([&rig](engine::QuerySpec&& spec) { rig->Submit(spec); });
    engine::Scheduler& sched = rig->engine(0).scheduler();
    sched.SetCompletionCallback(
        [&lg, &trace](int8_t cls, SimTime arrival, SimTime done) {
          LayerTrace::SeamTimer timer(trace.get(), LayerTrace::kOnComplete);
          lg->OnQueryComplete(cls, arrival, done);
        });
    sched.SetFailureCallback([&lg, &trace](int8_t cls, int16_t tenant,
                                           int8_t attempt, SimTime arrival,
                                           engine::FailReason reason) {
      LayerTrace::SeamTimer timer(trace.get(), LayerTrace::kOnComplete);
      lg->OnQueryFailed(cls, tenant, attempt, arrival, reason);
    });
    ecl::SystemEcl& system = rig->ecl(0).system();
    lg->admission().SetPressureSource([&system] { return system.pressure(); });
    system.SetShedSignal([&lg, &sim] {
      return lg->admission().RecentShedFraction(sim.now());
    });
  }
  auto client_submitted = [&] {
    return driver != nullptr ? driver->submitted() : lg->submitted();
  };

  // --- Measured window: driver start to trace end. ---
  EnergyLedger ledger(rig.get());
  rig->set_ledger(&ledger);
  const Counters c0 = Counters::Read(*rig);
  const double e0 = rig->EnergyJ();
  const SimTime run_start = sim.now();
  const SimTime run_end = run_start + def.trace_length;
  double backlog_sum = 0.0;
  double pressure_sum = 0.0;
  int64_t samples = 0;

  const Clock::time_point wall0 = Clock::now();
  const double cpu0 = CpuSeconds();
  if (trace != nullptr) trace->Begin();
  ledger.Begin();
  if (driver != nullptr) {
    driver->Start();
  } else {
    lg->Start();
  }
  for (SimTime t = run_start + def.sample_period; t <= run_end;
       t += def.sample_period) {
    sim.Schedule(t, [&] {
      LayerTrace::SeamTimer timer(trace.get(), LayerTrace::kSampler);
      backlog_sum += rig->BacklogOps();
      pressure_sum += rig->MaxPressure();
      ++samples;
    });
  }
  sim.RunUntil(run_end);
  ledger.End();
  if (trace != nullptr) trace->End();
  const double run_wall_s = SecondsSince(wall0);
  const double run_cpu_s = CpuSeconds() - cpu0;
  const double e1 = rig->EnergyJ();
  const Counters c1 = Counters::Read(*rig);

  // Client queries completed, and failed with a typed error, so far.
  auto outcomes = [&] {
    std::pair<int64_t, int64_t> done{0, 0};
    for (NodeId n = 0; n < rig->nodes(); ++n) {
      done.first += rig->engine(n).latency().completed();
      done.second += rig->engine(n).scheduler().queries_failed();
    }
    if (rig->cengine() != nullptr) done.second += rig->cengine()->forward_drops();
    return done;
  };
  auto resolved = [&] {
    const auto [completed, failed] = outcomes();
    return completed + failed;
  };

  // --- Drain: 5 s, then 1 s steps until every client query is resolved. ---
  const Clock::time_point drain0 = Clock::now();
  sim.RunFor(Seconds(5));
  const SimTime drain_cap = sim.now() + Seconds(600);
  while (resolved() < client_submitted() && sim.now() < drain_cap) {
    sim.RunFor(Seconds(1));
  }
  const double drain_s = SecondsSince(drain0);
  rig->StopEcls();

  // --- Client outcomes. ---
  const PercentileTracker& lat =
      rig->nodes() > 1 ? rack_latency : rig->engine(0).latency().all();
  const auto [completed, failed] = outcomes();
  int64_t submits = 0;
  for (NodeId n = 0; n < rig->nodes(); ++n) {
    submits += rig->engine(n).scheduler().queries_submitted();
  }
  const int64_t arrivals = driver != nullptr ? driver->submitted() : lg->arrivals();
  int64_t on_time = 0;
  if (lg != nullptr) {
    const loadgen::SloTracker& slo = lg->slo();
    for (int i = 0; i < loadgen::kNumSloClasses; ++i) {
      const auto c = static_cast<loadgen::SloClass>(i);
      on_time += slo.completed(c) - slo.violations(c);
    }
  } else {
    on_time = completed - static_cast<int64_t>(
        std::llround(lat.FractionAbove(def.rig.ecl.system.latency_limit_ms) *
                     static_cast<double>(lat.count())));
  }
  const double energy_j = e1 - e0;
  const double parts_j = ledger.pkg_j + ledger.dram_j + ledger.platform_j;

  // --- Checks. ---
  report.Check(completed + failed == client_submitted(),
               "drain: " + std::to_string(completed + failed) + " of " +
                   std::to_string(client_submitted()) +
                   " client queries completed or failed");
  report.Check(static_cast<int64_t>(lat.count()) == completed,
               "latency population differs from the completion count");
  report.Check(std::abs(energy_j - parts_j) <= 1e-9 * std::abs(energy_j),
               "energy_j differs from the sum of its parts");
  if (lg != nullptr) {
    const loadgen::AdmissionController& adm = lg->admission();
    report.Check(adm.total_admitted() + adm.total_shed() ==
                     lg->arrivals() + lg->retries(),
                 "an admission attempt was neither admitted nor shed");
    report.Check(lg->submitted() == adm.total_admitted(),
                 "admitted queries differ from submitted ones");
    report.Check(lg->slo().total_completed() == completed,
                 "loadgen completions differ from the engine's");
    if (def.loadgen.retry.enabled) {
      report.Check(lg->arrivals() == completed + lg->abandoned(),
                   "an arrival neither completed nor was abandoned");
    }
  }

  // --- End-to-end metrics. ---
  report.Add("run_wall_s", run_wall_s, "s");
  report.Add("run_cpu_s", run_cpu_s, "s");
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("energy_j", energy_j, "J");
  report.Add("j_per_kquery",
             completed > 0 ? energy_j / (static_cast<double>(completed) / 1e3) : 0.0,
             "J/kquery");
  report.Add("latency_p50_ms", lat.Percentile(50), "ms");
  report.Add("latency_p99_ms", lat.Percentile(99), "ms");
  report.Add("latency_p999_ms", lat.Percentile(99.9), "ms");
  const double fresh = static_cast<double>(std::max<int64_t>(arrivals, 1));
  report.Add("slo_miss_frac", 1.0 - static_cast<double>(on_time) / fresh,
             "fraction");
  report.Add("fail_frac", 1.0 - static_cast<double>(completed) / fresh,
             "fraction");
  report.Add("served_frac", static_cast<double>(completed) / fresh, "fraction");
  report.Count("client_queries", client_submitted());

  // --- Per-layer counts (every run). ---
  const double window_s = ToSeconds(def.trace_length);
  report.Add("hwsim.pkg_j", ledger.pkg_j, "J");
  report.Add("hwsim.dram_j", ledger.dram_j, "J");
  report.Add("hwsim.platform_j", ledger.platform_j, "J");
  report.Count("hwsim.config_writes", c1.config_writes - c0.config_writes);
  report.Count("hwsim.power_downs", c1.power_downs - c0.power_downs);
  report.Count("hwsim.power_ups", c1.power_ups - c0.power_ups);
  report.Count("hwsim.net_transfers", c1.net_transfers - c0.net_transfers);
  report.Add("hwsim.net_mb", (c1.net_bytes - c0.net_bytes) / (1 << 20), "MiB");
  report.Add("hwsim.net_queueing_s", ToSeconds(c1.net_queueing - c0.net_queueing),
             "sim_s");
  report.Count("engine.submits", submits);
  report.Count("engine.completed", completed);
  report.Count("engine.failed", failed);
  report.Count("engine.remote_sends", c1.remote_sends - c0.remote_sends);
  report.Count("engine.stale_forwards", c1.stale_forwards - c0.stale_forwards);
  report.Count("engine.migrations", c1.migrations - c0.migrations);
  report.Add("engine.migration_mb",
             (c1.migration_bytes - c0.migration_bytes) / (1 << 20), "MiB");
  report.Add("engine.backlog_ops_mean",
             samples > 0 ? backlog_sum / static_cast<double>(samples) : 0.0, "ops");
  const int64_t ticks = c1.socket_ticks - c0.socket_ticks;
  const int64_t online = c1.online_updates - c0.online_updates;
  report.Count("ecl.socket_ticks", ticks);
  report.Count("ecl.online_updates", online);
  report.Count("ecl.multiplexed_evals", c1.multiplexed_evals - c0.multiplexed_evals);
  report.Count("ecl.discarded_measurements", c1.discarded - c0.discarded);
  report.Add("ecl.measure_useful_frac",
             ticks > 0 ? static_cast<double>(online) / static_cast<double>(ticks) : 0.0,
             "fraction");
  report.Count("ecl.drift_flags", c1.drift_flags - c0.drift_flags);
  report.Add("ecl.pressure_mean",
             samples > 0 ? pressure_sum / static_cast<double>(samples) : 0.0,
             "fraction");
  report.Count("ecl.cluster_ticks", c1.cluster_ticks - c0.cluster_ticks);
  const int64_t admitted = lg != nullptr ? lg->admission().total_admitted() : arrivals;
  const int64_t shed = lg != nullptr ? lg->admission().total_shed() : 0;
  report.Count("loadgen.arrivals", arrivals);
  report.Count("loadgen.retries", lg != nullptr ? lg->retries() : 0);
  report.Count("loadgen.shed", shed);
  report.Count("loadgen.abandoned", lg != nullptr ? lg->abandoned() : 0);
  report.Add("loadgen.admit_frac",
             admitted + shed > 0
                 ? static_cast<double>(admitted) / static_cast<double>(admitted + shed)
                 : 1.0,
             "fraction");
  report.Count("workload.queries", wl.queries());

  // --- Harness timings (every run; host time). ---
  report.Add("setup.build_s", Median(build_s), "s");
  report.Add("setup.prime_s", Median(prime_s), "s");
  report.Add("bench.drain_s", drain_s, "s");

  // --- Traced run: per-layer self time and the probes' counts. ---
  if (trace != nullptr) {
    report.Add("sim.dispatch_s", trace->phase_s(LayerTrace::kDispatch), "s");
    report.Add("sim.horizon_s", trace->phase_s(LayerTrace::kHorizon), "s");
    report.Add("hwsim.advance_s", trace->phase_s(LayerTrace::kHwsimAdvance), "s");
    report.Add("hwsim.ff_s", trace->phase_s(LayerTrace::kHwsimFf), "s");
    report.Add("engine.advance_s", trace->phase_s(LayerTrace::kEngineAdvance), "s");
    report.Add("engine.ff_s", trace->phase_s(LayerTrace::kEngineFf), "s");
    report.Add("engine.submit_s", trace->seam_s(LayerTrace::kSubmit), "s");
    report.Add("loadgen.on_complete_s", trace->seam_s(LayerTrace::kOnComplete), "s");
    report.Add("workload.make_query_s", trace->seam_s(LayerTrace::kMakeQuery), "s");
    report.Add("bench.sampler_s", trace->seam_s(LayerTrace::kSampler), "s");
    report.Add("bench.unattributed_s", run_wall_s - trace->attributed_s(), "s");
    report.Count("sim.slices", trace->slices());
    report.Count("sim.ff_calls", trace->ff_calls());
    report.Add("sim.ff_sim_frac", ToSeconds(trace->ff_sim()) / window_s, "fraction");
    report.Count("sim.ff_blocked_hwsim", trace->blocked(LayerTrace::kBlockedHwsim));
    report.Count("sim.ff_blocked_engine", trace->blocked(LayerTrace::kBlockedEngine));
    report.Count("sim.ff_blocked_event", trace->blocked(LayerTrace::kBlockedEvent));
    std::error_code ec;
    std::filesystem::create_directories(opt.out, ec);
    const std::string path = opt.out + "/trace_" + opt.workload + ".json";
    report.Check(trace->WriteChromeTrace(path, "ecldb_bench " + opt.workload),
                 "cannot write " + path);
  }
  std::fflush(stdout);

  for (const std::string& f : report.failures()) {
    std::fprintf(stderr, "%s: check failed: %s\n", opt.workload.c_str(), f.c_str());
  }
  return report.failures().empty() ? 0 : 3;
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--workload", &v)) {
      opt.workload = v;
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--scale", &v)) {
      opt.scale = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--out", &v)) {
      opt.out = v;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt.trace = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (opt.workload.empty() || !(opt.scale > 0.0)) {
    std::fprintf(stderr,
                 "usage: ecldb_bench --workload=NAME [--seed=S] [--trace] "
                 "[--scale=F>0] [--out=DIR]\n");
    return 2;
  }
  return RunOnce(opt);
}

}  // namespace
}  // namespace ecldb::bench

int main(int argc, char** argv) { return ecldb::bench::Main(argc, argv); }
