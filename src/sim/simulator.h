// Discrete-event simulation core.
//
// The simulator keeps a priority queue of timestamped callbacks. Components
// (resources, job pipelines, the scheduler driver) schedule future events and
// react to them; simulated time advances only through the event queue, so a
// full 80-job / 100-machine day-long experiment runs in milliseconds of wall
// time and is bit-reproducible from the RNG seeds.
//
// Internally an event is two pieces: the callback lives in a slot (a
// SmallFn with inline storage, so no per-event heap allocation, plus a
// generation) and a 24-byte EventNode in a binary min-heap carries (time,
// seq, slot, generation). An event is live while its node's generation
// matches its slot's. Pop order is earliest time first, then scheduling
// order; the golden runs and the randomized order test in test_sim.cpp pin
// it. Cancellation never touches the heap: it bumps the slot's generation,
// which leaves the node an orphan, dropped when popped or swept out when
// orphans pile up.
//
// Beside the heap sits one recurring slot: a periodic callback (a run's
// utilization sampler, a service's telemetry tick) that would otherwise pay
// a heap push, a heap pop and an event slot on every firing. It holds one
// node, fires in the same (time, seq) order as a heap node, and re-arms
// itself with the sequence number a self-rescheduling event would draw, so
// it is a faster way to hold that one event, not a second queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "check/check.h"
#include "sim/small_fn.h"

namespace harmony::sim {

// An EventId packs (generation << 32) | slot. Generations start at 1, so 0
// never names a real event.
using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

struct EventNode {
  double time = 0.0;
  std::uint64_t seq = 0;  // global scheduling order: the same-instant tie-break
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
};

// Strict total pop order: earliest time first, then scheduling order.
inline bool node_before(const EventNode& a, const EventNode& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time in seconds.
  double now() const noexcept { return now_; }

  // Schedules `cb` (any void() callable; captured state moves into a free
  // slot) at absolute time `t` (must be >= now). Events scheduled for the
  // same instant fire in scheduling order (stable FIFO tie-break).
  template <typename F>
  EventId schedule_at(double t, F&& cb) {
    if (t < now_) throw std::invalid_argument("Simulator: scheduling into the past");
    if (free_.empty()) {
      free_.push_back(static_cast<std::uint32_t>(slots_.size()));
      slots_.emplace_back();
    }
    // The slot leaves the freelist only once the callback is in it.
    const std::uint32_t slot = free_.back();
    Slot& s = slots_[slot];
    s.fn.emplace(std::forward<F>(cb));
    free_.pop_back();
    push_node(EventNode{t, next_seq_++, slot, s.gen});
    return (static_cast<EventId>(s.gen) << 32) | slot;
  }
  template <typename F>
  EventId schedule_in(double dt, F&& cb) {
    return schedule_at(now_ + dt, std::forward<F>(cb));
  }

  // Arms the recurring slot: `cb` (a bool() callable) fires at absolute time
  // `t` with a sequence number drawn now. While it returns true it re-arms
  // at its firing time + `period`, with a sequence number drawn as it
  // returns -- where an event that reschedules itself as its last statement
  // would land, fired_ and pending() included. Returning false disarms it
  // for good. There is one slot: arming it again while in use throws.
  template <typename F>
  void schedule_recurring(double t, double period, F&& cb) {
    if (t < now_) throw std::invalid_argument("Simulator: scheduling into the past");
    if (!(period > 0.0)) throw std::invalid_argument("Simulator: recurring period must be > 0");
    if (recurring_fn_) throw std::logic_error("Simulator: the recurring slot is in use");
    recurring_fn_.emplace(std::forward<F>(cb));
    recurring_ = EventNode{t, next_seq_++, 0, 0};
    recurring_period_ = period;
    recurring_armed_ = true;
  }

  // Cancels a pending event; cancelling an already-fired or unknown id is a
  // harmless no-op (resources rely on this when they reschedule completions).
  // The queue node becomes an orphan and is dropped when popped; when orphans
  // outnumber live events the queue is compacted so aggressive cancellation
  // cannot grow the queue without bound.
  void cancel(EventId id);

  // Executes the next pending event. Returns false when the queue is empty.
  bool step();

  // Runs until the queue drains or `max_events` fire (guard against bugs that
  // would otherwise spin forever).
  void run(std::uint64_t max_events = UINT64_MAX);

  bool empty() const noexcept { return pending() == 0; }
  // Heap events and recurring-slot firings alike.
  std::uint64_t events_fired() const noexcept { return fired_; }
  // Live (non-cancelled) pending events, an armed recurring slot included;
  // observability samples this as the event-queue depth. Inside a callback
  // the firing event itself is no longer pending.
  std::size_t pending() const noexcept {
    return live_events() + (recurring_armed_ ? 1 : 0);
  }
  // Queue nodes including cancelled orphans awaiting a pop or a compaction;
  // bounded at 2 * pending() + a constant (see cancel()).
  std::size_t queue_nodes() const noexcept { return heap_.size(); }

  // Deep validator: cross-checks the incrementally maintained queue state
  // against a brute-force scan — every live event has exactly one queue node,
  // the queue minimum over live events and an armed recurring slot are >= the
  // clock (pops are therefore time-monotonic), and the heap property holds.
  void validate(check::Validation& v) const;

  // Test-only corruption hook: forces the clock to `t` without draining the
  // queue, so validate() can demonstrate detection of a non-monotonic state.
  void corrupt_clock_for_test(double t) noexcept { now_ = t; }
  // Test-only corruption hooks for the heap: misorder a node (heap-property
  // breakage) or duplicate one (recount breakage).
  void corrupt_queue_order_for_test();
  void corrupt_queue_duplicate_for_test();

 private:
  // Event callbacks are stored inline; one over 64 bytes is a compile error.
  // The largest production capture is 32 bytes.
  using EventFn = SmallFn<64>;
  // A pending callback, or a free slot whose generation has moved past
  // every node that names it.
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 1;
  };

  std::size_t live_events() const noexcept { return slots_.size() - free_.size(); }
  bool is_live(const EventNode& n) const noexcept { return slots_[n.slot].gen == n.gen; }
  // Ends a live event: bumps its generation, frees its slot and hands back
  // its callback.
  EventFn release(std::uint32_t slot);

  void push_node(const EventNode& n);
  bool pop_node(EventNode& out);
  void maybe_compact();
  void fire_recurring();

  std::vector<EventNode> heap_;  // min-heap by node_before
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;

  // The recurring slot: its next (time, seq) while armed (slot/gen unused),
  // its period and its callback (set from arming until it returns false).
  using RecurringFn = SmallFn<48, bool>;
  EventNode recurring_;
  double recurring_period_ = 0.0;
  RecurringFn recurring_fn_;
  bool recurring_armed_ = false;

  double now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
};

}  // namespace harmony::sim
