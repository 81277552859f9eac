#include "obs/provenance.hpp"

#include <algorithm>
#include <chrono>

#include "common/env.hpp"

namespace sel::obs {

namespace {

std::chrono::steady_clock::time_point trace_epoch() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

/// Oldest-first copy of a ring that has wrapped `total` insertions.
template <typename T>
std::vector<T> unroll_ring(const std::vector<T>& ring, std::size_t capacity,
                           std::int64_t total) {
  if (static_cast<std::size_t>(total) <= capacity) return ring;
  std::vector<T> out;
  out.reserve(capacity);
  const std::size_t head = static_cast<std::size_t>(total) % capacity;
  out.insert(out.end(), ring.begin() + static_cast<std::ptrdiff_t>(head),
             ring.end());
  out.insert(out.end(), ring.begin(),
             ring.begin() + static_cast<std::ptrdiff_t>(head));
  return out;
}

template <typename T>
void ring_push(std::vector<T>& ring, std::size_t capacity, std::int64_t total,
               T value) {
  if (static_cast<std::size_t>(total) < capacity) {
    // Reserved whole on first use: growing by doubling holds the old and
    // the new buffer at once, a peak-RSS spike the size of the ring. Pages
    // of the reservation become resident only as entries fill them.
    if (ring.capacity() < capacity) ring.reserve(capacity);
    ring.push_back(std::move(value));
  } else {
    ring[static_cast<std::size_t>(total) % capacity] = std::move(value);
  }
}

}  // namespace

std::int64_t wall_now_us() noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - trace_epoch())
      .count();
}

// -- ProvenanceTracer --------------------------------------------------------

TraceId ProvenanceTracer::begin_publish(std::uint64_t msg,
                                        std::uint32_t publisher, double time_s,
                                        TraceKind kind) {
  if (!enabled()) return 0;
  std::lock_guard lock(mu_);
  if (sample_every_ == 0) {
    sample_every_ = static_cast<std::size_t>(
        env::get_int("SEL_TRACE_SAMPLE", 64, 1, 1u << 30));
  }
  const auto seen = publishes_seen_++;
  if (static_cast<std::size_t>(seen) % sample_every_ != 0) return 0;
  const TraceId id = next_trace_++;
  ring_push(publishes_, kMaxPublishes, publishes_sampled_,
            PublishRecord{id, msg, publisher, kind, time_s});
  ++publishes_sampled_;
  return id;
}

void ProvenanceTracer::record_hop(HopRecord hop) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  ring_push(hops_, kMaxHops, hops_recorded_, hop);
  ++hops_recorded_;
}

ProvenanceTracer::Snapshot ProvenanceTracer::snapshot() const {
  std::lock_guard lock(mu_);
  Snapshot snap;
  snap.publishes = unroll_ring(publishes_, kMaxPublishes, publishes_sampled_);
  snap.hops = unroll_ring(hops_, kMaxHops, hops_recorded_);
  snap.publishes_seen = publishes_seen_;
  snap.publishes_sampled = publishes_sampled_;
  snap.hops_recorded = hops_recorded_;
  return snap;
}

void ProvenanceTracer::reset() {
  std::lock_guard lock(mu_);
  publishes_.clear();
  hops_.clear();
  publishes_seen_ = 0;
  publishes_sampled_ = 0;
  hops_recorded_ = 0;
  next_trace_ = 1;
}

std::size_t ProvenanceTracer::sample_every() const noexcept {
  std::lock_guard lock(mu_);
  return sample_every_;
}

void ProvenanceTracer::set_sample_every(std::size_t n) {
  std::lock_guard lock(mu_);
  sample_every_ = n;
  publishes_seen_ = 0;
}

ProvenanceTracer& ProvenanceTracer::global() {
  static ProvenanceTracer tracer;
  return tracer;
}

}  // namespace sel::obs
