#include "layer_trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>

#include "common/check.h"

namespace ecldb::bench {
namespace {

constexpr const char* kPhaseName[LayerTrace::kNumPhases] = {
    "sim.dispatch",   "sim.horizon",    "hwsim.advance",
    "hwsim.fast_forward", "engine.advance", "engine.fast_forward"};
constexpr const char* kSeamName[LayerTrace::kNumSeams] = {
    "workload.make_query", "engine.submit", "loadgen.on_complete",
    "bench.sampler"};

}  // namespace

LayerTrace::LayerTrace(int64_t span_every) : span_every_(span_every) {
  ECLDB_CHECK(span_every > 0);
}

int64_t LayerTrace::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

sim::Advancer LayerTrace::Probe(int index) {
  ECLDB_CHECK(index >= 0 && index <= 2);
  sim::Advancer a;
  a.advance = [this, index](SimTime from, SimTime to) {
    OnStep(index, /*fast_forward=*/false, from, to);
  };
  a.stationary_until = [this, index](SimTime) {
    OnStationaryQuery(index);
    return kSimTimeNever;
  };
  a.fast_forward = [this, index](SimTime from, SimTime to, SimDuration) {
    OnStep(index, /*fast_forward=*/true, from, to);
  };
  return a;
}

void LayerTrace::Begin() {
  const int64_t now = NowNs();
  active_ = true;
  begin_ns_ = now;
  step_sampled_ = false;
  Start(kDispatch, now);
}

void LayerTrace::End() {
  if (!active_) return;
  const int64_t now = NowNs();
  Close(now);
  if (step_sampled_) CloseStepSpan(now);
  step_sampled_ = false;
  active_ = false;
}

void LayerTrace::Close(int64_t now) {
  phase_ns_[phase_] += now - phase_start_ns_ - seam_in_phase_ns_;
  if (step_sampled_) {
    spans_.push_back({kPhaseName[phase_], phase_start_ns_ - begin_ns_,
                      now - begin_ns_, phase_span_id_, step_span_id_});
  }
}

void LayerTrace::Start(Phase next, int64_t now) {
  phase_ = next;
  phase_start_ns_ = now;
  seam_in_phase_ns_ = 0;
  if (step_sampled_) phase_span_id_ = next_span_id_++;
}

void LayerTrace::OpenStepSpan(int64_t now) {
  step_span_id_ = next_span_id_++;
  step_start_ns_ = now;
}

void LayerTrace::CloseStepSpan(int64_t now) {
  spans_.push_back({"sim.step", step_start_ns_ - begin_ns_, now - begin_ns_,
                    step_span_id_, 0});
}

void LayerTrace::OnStationaryQuery(int index) {
  if (!active_) return;
  if (index != 0) {
    scan_reached_ = index;
    return;
  }
  // Probe 0 is the first hook of every simulator step: the dispatch phase
  // of the previous step ends here.
  const int64_t now = NowNs();
  Close(now);
  if (step_sampled_) CloseStepSpan(now);
  step_sampled_ = step_index_++ % span_every_ == 0;
  if (step_sampled_) OpenStepSpan(now);
  Start(kHorizon, now);
  scan_reached_ = 0;
}

void LayerTrace::OnStep(int index, bool fast_forward, SimTime from,
                        SimTime to) {
  if (!active_) return;
  const int64_t now = NowNs();
  Close(now);
  switch (index) {
    case 0:
      ++blocked_[scan_reached_ == 0   ? kBlockedHwsim
                 : scan_reached_ == 1 ? kBlockedEngine
                                      : kBlockedEvent];
      Start(fast_forward ? kHwsimFf : kHwsimAdvance, now);
      break;
    case 1:
      Start(fast_forward ? kEngineFf : kEngineAdvance, now);
      break;
    default:
      if (fast_forward) {
        ++ff_calls_;
        ff_sim_ += to - from;
      } else {
        ++slices_;
      }
      Start(kDispatch, now);
      break;
  }
}

LayerTrace::SeamTimer::SeamTimer(LayerTrace* trace, Seam seam)
    : trace_(trace), seam_(seam) {
  if (trace_ == nullptr || !trace_->active_) {
    trace_ = nullptr;
    return;
  }
  outer_ = trace_->seam_depth_++ == 0;
  if (outer_) start_ns_ = NowNs();
}

LayerTrace::SeamTimer::~SeamTimer() {
  if (trace_ == nullptr) return;
  --trace_->seam_depth_;
  if (!outer_) return;
  const int64_t now = NowNs();
  const int64_t elapsed = now - start_ns_;
  trace_->seam_ns_[seam_] += elapsed;
  trace_->seam_in_phase_ns_ += elapsed;
  if (trace_->step_sampled_) {
    trace_->spans_.push_back({kSeamName[seam_], start_ns_ - trace_->begin_ns_,
                              now - trace_->begin_ns_,
                              trace_->next_span_id_++,
                              trace_->phase_span_id_});
  }
}

double LayerTrace::attributed_s() const {
  int64_t ns = 0;
  for (int64_t v : phase_ns_) ns += v;
  for (int64_t v : seam_ns_) ns += v;
  return 1e-9 * static_cast<double>(ns);
}

bool LayerTrace::WriteChromeTrace(const std::string& path,
                                  const std::string& label) const {
  std::vector<Span> spans = spans_;
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
               "\"args\":{\"name\":\"%s\"}}",
               label.c_str());
  for (const Span& s : spans) {
    const std::string_view name(s.name);
    const std::string cat(name.substr(0, name.find('.')));
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"cat\":\"%s\",\"name\":\"%s\","
                 "\"args\":{\"id\":%lld,\"parent\":%lld}}",
                 1e-3 * static_cast<double>(s.start_ns),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                 cat.c_str(), s.name, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace ecldb::bench
