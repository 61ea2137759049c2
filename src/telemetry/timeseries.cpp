#include "telemetry/timeseries.h"

#include <algorithm>
#include <cassert>

namespace asyncrd::telemetry {

namespace {

/// Retained samples per column before the frame halves its resolution.
constexpr std::size_t series_capacity = 512;
/// Nodes whose next-pointer chain is walked per sample (rotating cursor),
/// and the per-walk hop cap.
constexpr std::size_t chain_nodes_per_sample = 32;
constexpr std::size_t chain_max_hops = 64;

}  // namespace

series_frame::series_frame(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity + (capacity & 1), 4)) {}

std::uint32_t series_frame::add_column(std::string_view name) {
  for (std::uint32_t i = 0; i < cols_.size(); ++i)
    if (cols_[i].name == name) return i;
  cols_.push_back({std::string(name),
                   std::vector<std::uint64_t>(times_.size(), 0)});
  if (have_pending_) pending_.push_back(0);
  return static_cast<std::uint32_t>(cols_.size() - 1);
}

void series_frame::halve() {
  // Keep even indices: positions 0, 2, 4, ... hold ticks 0, 2s, 4s, ... —
  // exactly the multiples of the doubled stride, and position 0 (the very
  // first sample) always survives.
  const std::size_t kept = (times_.size() + 1) / 2;
  for (std::size_t i = 0; i < kept; ++i) times_[i] = times_[2 * i];
  times_.resize(kept);
  for (col& c : cols_) {
    for (std::size_t i = 0; i < kept; ++i) c.values[i] = c.values[2 * i];
    c.values.resize(kept);
  }
  stride_ *= 2;
}

void series_frame::record(sim_time t, const std::uint64_t* values,
                          std::size_t n) {
  assert((times_.empty() || t > times_.back()) &&
         (!have_pending_ || t > pending_t_) && "sample times must increase");
  assert(n <= cols_.size());
  const std::uint64_t k = tick_++;
  pending_t_ = t;
  pending_.assign(cols_.size(), 0);
  std::copy(values, values + std::min(n, pending_.size()), pending_.begin());
  if (k % stride_ != 0) {
    have_pending_ = true;
    return;
  }
  if (times_.size() == capacity_) halve();
  // After halving, retained ticks are the multiples of the doubled stride;
  // k = capacity * old stride is one of them (capacity is even).
  if (k % stride_ != 0) {
    have_pending_ = true;
    return;
  }
  times_.push_back(t);
  for (std::size_t i = 0; i < cols_.size(); ++i)
    cols_[i].values.push_back(pending_[i]);
  have_pending_ = false;
}

std::vector<sim_time> series_frame::times() const {
  std::vector<sim_time> out = times_;
  if (have_pending_) out.push_back(pending_t_);
  return out;
}

std::vector<std::uint64_t> series_frame::column(std::uint32_t i) const {
  std::vector<std::uint64_t> out = cols_[i].values;
  if (have_pending_) out.push_back(pending_[i]);
  return out;
}

series_sampler::series_sampler(core::discovery_run& run, sim_time interval)
    : run_(&run), interval_(interval == 0 ? 1 : interval),
      frame_(series_capacity) {
  col_components_ = frame_.add_column("components");
  col_in_flight_ = frame_.add_column("in_flight");
  col_queue_depth_ = frame_.add_column("queue_depth");
  col_app_deliveries_ = frame_.add_column("app_deliveries");
  col_merges_ = frame_.add_column("merges");
  col_chain_hi_ = frame_.add_column("chain_hi_water");
}

sim_time series_sampler::on_probe(sim::network& net) {
  // Pointer-chain hi-water: walk a bounded, rotating slice of the nodes so
  // the per-sample cost stays O(chain_nodes_per_sample * chain_max_hops)
  // however large the network; over many samples the cursor covers everyone.
  if (ids_.size() != net.node_count()) ids_ = run_->ids();
  const std::size_t walk = std::min(chain_nodes_per_sample, ids_.size());
  for (std::size_t i = 0; i < walk; ++i) {
    const node_id v = ids_[chain_cursor_];
    chain_cursor_ = chain_cursor_ + 1 == ids_.size() ? 0 : chain_cursor_ + 1;
    chain_hi_water_ = std::max<std::uint64_t>(
        chain_hi_water_, run_->chain_length(v, chain_max_hops));
  }

  const sim::reliable_link_layer* rl = run_->reliable_links();
  if (rl != nullptr && !have_arq_cols_) {
    col_arq_outstanding_ = frame_.add_column("arq.outstanding");
    col_arq_backlogged_ = frame_.add_column("arq.backlogged");
    col_arq_retransmits_ = frame_.add_column("arq.retransmits");
    have_arq_cols_ = true;
  }
  const sim::cost_profiler* prof = net.profiler();
  if (prof != nullptr && !have_prof_cols_) {
    for (std::size_t i = 0; i < sim::cost_profiler::phase_count; ++i)
      col_prof_[i] = frame_.add_column(
          std::string("prof.") + sim::profile_phase_name(
                                     static_cast<sim::cost_profiler::phase>(i)));
    col_prof_[sim::cost_profiler::phase_count] =
        frame_.add_column("prof.handlers");
    have_prof_cols_ = true;
  }
  // Per-type cumulative send counts: types appear lazily as the run first
  // sends them; add_column backfills zeros, which is exact for counters.
  for (const auto& [type, st] : run_->statistics().by_type())
    frame_.add_column("sent." + type);

  row_.assign(frame_.columns(), 0);
  row_[col_components_] = run_->components_remaining();
  row_[col_in_flight_] = net.in_flight();
  row_[col_queue_depth_] = net.queue_depth();
  row_[col_app_deliveries_] = net.app_deliveries();
  row_[col_merges_] = run_->merges();
  row_[col_chain_hi_] = chain_hi_water_;
  if (rl != nullptr) {
    row_[col_arq_outstanding_] = rl->outstanding();
    row_[col_arq_backlogged_] = rl->backlogged_channels();
    row_[col_arq_retransmits_] = rl->stats().retransmits;
  }
  if (prof != nullptr) {
    // run_recorder warmed the calibration before the run, so this is a
    // cached read, not the 2ms spin.  Ticks are sampled 1-in-sample_every;
    // scale by the constant period (not the live events/sampled ratio,
    // which fluctuates and would make these cumulative columns — and the
    // Perfetto deltas derived from them — non-monotonic).
    const double tpn = sim::profile_ticks_per_ns();
    const double scale = static_cast<double>(prof->sample_every());
    const auto to_ns = [tpn, scale](std::uint64_t ticks) {
      return static_cast<std::uint64_t>(static_cast<double>(ticks) / tpn *
                                        scale);
    };
    for (std::size_t i = 0; i < sim::cost_profiler::phase_count; ++i)
      row_[col_prof_[i]] = to_ns(prof->phases()[i].ticks);
    row_[col_prof_[sim::cost_profiler::phase_count]] =
        to_ns(prof->handler_ticks());
  }
  for (const auto& [type, st] : run_->statistics().by_type())
    row_[frame_.add_column("sent." + type)] = st.count;

  frame_.record(net.now(), row_.data(), row_.size());
  // Align the next sample to the interval grid (now may already be past
  // several grid points on a sparse timeline; skip them rather than batch).
  return (net.now() / interval_ + 1) * interval_;
}

}  // namespace asyncrd::telemetry
