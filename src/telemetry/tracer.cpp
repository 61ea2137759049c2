#include "telemetry/tracer.h"

#include <algorithm>

namespace asyncrd::telemetry {

std::uint64_t tracer::lamport_of(std::uint64_t id) const {
  if (id == trace_none) return 0;
  const auto it = index_.find(id);
  // An unknown parent means the tracer was attached mid-run; treat the
  // missing prefix as causally flat rather than dropping the event.
  return it == index_.end() ? 0 : events_[it->second].lamport;
}

trace_event& tracer::push(trace_event ev) {
  const std::uint64_t lc = lamport_of(ev.cause);
  const std::uint64_t lr = lamport_of(ev.release);
  ev.lamport = std::max(lc, lr) + 1;
  if (ev.cause == trace_none && ev.release == trace_none)
    ev.parent = trace_none;
  else
    ev.parent = lc >= lr ? (ev.cause != trace_none ? ev.cause : ev.release)
                         : ev.release;
  max_lamport_ = std::max(max_lamport_, ev.lamport);
  index_.emplace(ev.id, events_.size());
  events_.push_back(std::move(ev));
  return events_.back();
}

void tracer::on_event(const sim::event_record& r) {
  switch (r.what) {
    case sim::event_record::kind::send: {
      ++sends_observed_;
      if (r.id == trace_none) return;  // driver send, outside any activation
      const auto it = index_.find(r.id);
      if (it != index_.end()) ++events_[it->second].sends;
      return;
    }
    case sim::event_record::kind::wake:
    case sim::event_record::kind::deliver: {
      trace_event ev;
      ev.id = r.id;
      ev.cause = r.cause;
      ev.release = r.release;
      ev.from = r.from;
      ev.to = r.to;
      ev.at = r.at;
      if (r.what == sim::event_record::kind::wake) {
        ev.what = trace_event::kind::wake;
      } else {
        ev.what = trace_event::kind::deliver;
        ev.sent_at = r.sent_at;
        ev.bits = r.m->bits(net_->statistics().id_bits());
        ev.type = std::string(r.m->type_name());
      }
      push(std::move(ev));
      return;
    }
    case sim::event_record::kind::timer:
      return;
  }
}

const trace_event* tracer::find(std::uint64_t id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &events_[it->second];
}

void tracer::clear() {
  events_.clear();
  index_.clear();
  max_lamport_ = 0;
  sends_observed_ = 0;
}

}  // namespace asyncrd::telemetry
