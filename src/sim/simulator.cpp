#include "sim/simulator.h"

#include <algorithm>

namespace harmony::sim {

namespace {

// std::*_heap comparator for a min-heap over (time, seq).
struct NodeAfter {
  bool operator()(const EventNode& a, const EventNode& b) const noexcept {
    return node_before(b, a);
  }
};

}  // namespace

Simulator::EventFn Simulator::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;
  free_.push_back(slot);
  return std::move(s.fn);
}

void Simulator::push_node(const EventNode& n) {
  heap_.push_back(n);
  std::push_heap(heap_.begin(), heap_.end(), NodeAfter{});
}

// Pops the minimum node, live or orphan (the caller filters orphans).
bool Simulator::pop_node(EventNode& out) {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), NodeAfter{});
  out = heap_.back();
  heap_.pop_back();
  return true;
}

void Simulator::maybe_compact() {
  // Lazy deletion leaves the cancelled node behind; sweep the orphans out
  // once they outnumber the live events (the +64 floor avoids thrashing tiny
  // queues). Pop order is unaffected — survivors keep their (time, seq) keys.
  if (heap_.size() <= 2 * live_events() + 64) return;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [&](const EventNode& n) { return !is_live(n); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), NodeAfter{});
}

void Simulator::cancel(EventId id) {
  // Cancelling an already-fired or unknown id is a harmless no-op; the
  // generation check rejects stale ids in O(1).
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen) return;
  release(slot);
  maybe_compact();
}

void Simulator::fire_recurring() {
  const double t = recurring_.time;
  HARMONY_DCHECK(t >= now_) << "recurring event " << recurring_.seq << " fires at " << t
                            << " but clock is at " << now_;
  now_ = t;
  ++fired_;
  // Disarmed while it runs, as a firing heap event has left its slot.
  recurring_armed_ = false;
  if (recurring_fn_()) {
    recurring_ = EventNode{t + recurring_period_, next_seq_++, 0, 0};
    recurring_armed_ = true;
  } else {
    recurring_fn_.reset();
  }
}

bool Simulator::step() {
  EventNode node;
  while (!heap_.empty()) {
    // A heap minimum after the slot -- live or a cancelled orphan -- means
    // every live node is after it too.
    if (recurring_armed_ && node_before(recurring_, heap_.front())) break;
    pop_node(node);
    if (!is_live(node)) continue;  // cancelled orphan
    // Pops must be time-monotonic or causality breaks silently downstream.
    HARMONY_DCHECK(node.time >= now_)
        << "event " << node.seq << " fires at " << node.time << " but clock is at "
        << now_;
    now_ = node.time;
    ++fired_;
    // Released before the call, so a cancel of this id from inside it is a
    // no-op, and the captures die with `fn` even when the callback throws
    // (validator CheckErrors propagate through the event loop).
    release(node.slot)();
    return true;
  }
  if (!recurring_armed_) return false;
  fire_recurring();
  return true;
}

void Simulator::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
}

void Simulator::validate(check::Validation& v) const {
  // Brute-force recount of queue nodes per live event, and the true minimum
  // over live pending events.
  std::vector<std::uint8_t> node_count(slots_.size(), 0);
  std::size_t live_nodes = 0;
  const EventNode* min_live = nullptr;
  for (const EventNode& n : heap_) {
    if (!is_live(n)) continue;  // orphan of a cancelled event
    ++node_count[n.slot];
    ++live_nodes;
    if (min_live == nullptr || node_before(n, *min_live)) min_live = &n;
  }

  HARMONY_VALIDATE(v, live_nodes == live_events())
      << live_events() << " slots hold live events but the queue holds nodes for "
      << live_nodes << " of them";
  for (std::size_t slot = 0; slot < node_count.size(); ++slot)
    HARMONY_VALIDATE(v, node_count[slot] <= 1)
        << "event in slot " << slot << " has "
        << static_cast<unsigned>(node_count[slot]) << " queue nodes (expected exactly 1)";
  if (min_live != nullptr) {
    HARMONY_VALIDATE(v, min_live->time >= now_)
        << "clock " << now_ << " ran past pending event " << min_live->seq << " at "
        << min_live->time << " (event-queue pops would be non-monotonic)";
  }
  if (recurring_armed_) {
    HARMONY_VALIDATE(v, recurring_.time >= now_)
        << "clock " << now_ << " ran past the recurring event " << recurring_.seq << " at "
        << recurring_.time << " (event-queue pops would be non-monotonic)";
  }
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    const EventNode& parent = heap_[(i - 1) / 2];
    const EventNode& child = heap_[i];
    HARMONY_VALIDATE(v, !node_before(child, parent))
        << "heap property violated between nodes " << (i - 1) / 2 << " and " << i
        << " (times " << parent.time << " vs " << child.time << ")";
  }
}

void Simulator::corrupt_queue_order_for_test() {
  if (heap_.size() < 2) return;
  // Swap the root (minimum) with the maximum: the max on top is guaranteed to
  // order after at least one of its children.
  std::size_t max_i = 0;
  for (std::size_t i = 1; i < heap_.size(); ++i)
    if (node_before(heap_[max_i], heap_[i])) max_i = i;
  std::swap(heap_[0], heap_[max_i]);
}

void Simulator::corrupt_queue_duplicate_for_test() {
  if (heap_.empty()) return;
  push_node(heap_.front());
}

}  // namespace harmony::sim
