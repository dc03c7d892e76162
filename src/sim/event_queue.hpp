// Discrete-event simulation engine.
//
// A single-threaded event queue with deterministic ordering: events at the
// same virtual time run in scheduling (FIFO) order. All hardware models
// (NICs, wires, the DuT) and the "software" processes of the simulated
// generators are driven from this queue.
//
// Hot-path design (see DESIGN.md, "Event-engine fast path"):
//  * actions are InlineFunction — closures up to 48 bytes are stored inline
//    in the event record, no heap allocation per event;
//  * near-future timers (within ~268 us of the cursor) go into a timing
//    wheel of 4096 slots of 65.536 ns — schedule + dispatch are O(1)
//    bucket operations for the back-to-back frame cadence;
//  * each wheel slot is a node chain kept in (time, seq) order: an event
//    scheduled in order is a tail append, and a slot that received an
//    out-of-order event is sorted once, when the cursor reaches it;
//  * far timers overflow into a binary heap and are merged event-by-event
//    with the wheel stream, preserving exact (time, seq) order across the
//    wheel/heap boundary;
//  * event records live in fixed blocks that never move, with LIFO node
//    reuse: an action runs in place in its record (no relocation per
//    event), and the few in-flight events of a typical simulation stay in
//    a few cache lines.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"
#include "telemetry/handles.hpp"

namespace moongen::telemetry {
class MetricRegistry;
}  // namespace moongen::telemetry

namespace moongen::sim {

/// Observer of executed events (the health plane's flight recorder). The
/// sink sees (time, seq) immediately before each action runs; it must not
/// schedule or mutate the queue. Null by default — one pointer check per
/// event when unset.
class EventTraceSink {
 public:
  virtual ~EventTraceSink() = default;
  virtual void on_event(SimTime time_ps, std::uint64_t seq) = 0;
};

class EventQueueProbe;  // test access (defined by the engine tests)

class EventQueue {
 public:
  using Action = InlineFunction;

  // Wheel geometry: 4096 slots of 2^16 ps (65.536 ns) cover a horizon of
  // ~268 us — comfortably beyond every per-frame delay in the NIC models
  // (byte times, DMA latency, cable propagation), so only second-scale
  // timers (experiment stops, sampling ticks) hit the overflow heap.
  static constexpr unsigned kSlotShift = 16;
  static constexpr std::size_t kNumSlots = 4096;
  static constexpr SimTime kSlotWidth = SimTime{1} << kSlotShift;
  static constexpr SimTime kHorizonPs = kSlotWidth * kNumSlots;
  /// Event records per storage block. Blocks are allocated uninitialised
  /// and records are constructed on first use, so a small simulation
  /// commits only the pages its in-flight events touch.
  static constexpr std::size_t kNodesPerBlock = 256;

  EventQueue() { slot_head_.fill(kNil); }
  /// Destroys every pending action (their captures, e.g. in-flight frames).
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` at absolute time `t` (>= now()).
  void schedule_at(SimTime t, Action action);

  /// Schedules `action` `delay` picoseconds from now.
  void schedule_in(SimTime delay, Action action) { schedule_at(now_ + delay, std::move(action)); }

  /// Hot-path variants: statically assert that the closure is stored inline
  /// (no heap allocation). Use these from per-frame code; a capture that
  /// grows beyond InlineFunction::kCapacity then fails to compile instead
  /// of silently reintroducing a malloc per event. The closure is emplaced
  /// directly into the event record, where it also runs — it is never
  /// relocated.
  template <typename F>
  void schedule_at_inline(SimTime t, F&& f) {
    static_assert(InlineFunction::fits_inline<std::decay_t<F>>(),
                  "hot-path event closure must fit InlineFunction's inline buffer");
    node(route_event(t)).action.emplace(std::forward<F>(f));
  }
  template <typename F>
  void schedule_in_inline(SimTime delay, F&& f) {
    schedule_at_inline(now_ + delay, std::forward<F>(f));
  }

  /// Runs the next pending event; returns false if the queue is empty.
  bool step();

  /// Runs all events with time <= `t`, then advances the clock to `t`.
  void run_until(SimTime t);

  /// Runs until no events remain or `stop()` is called.
  void run();

  /// Requests `run`/`run_until` to return after the current event.
  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Scheduling-route counters: events that entered the timer wheel vs. the
  /// overflow heap (engine-efficiency telemetry; wheel share should be ~1
  /// for frame-dominated workloads).
  [[nodiscard]] std::uint64_t wheel_scheduled() const { return wheel_scheduled_; }
  [[nodiscard]] std::uint64_t heap_scheduled() const { return heap_scheduled_; }
  /// Wall-clock nanoseconds spent inside run()/run_until().
  [[nodiscard]] std::uint64_t run_wall_ns() const { return run_wall_ns_; }

  /// Attaches (or detaches, with nullptr) an executed-event observer.
  /// Observation only: the sink never alters scheduling order or timing, so
  /// traced runs stay byte-identical to untraced ones.
  void set_trace_sink(EventTraceSink* sink) { trace_sink_ = sink; }
  [[nodiscard]] EventTraceSink* trace_sink() const { return trace_sink_; }

  /// Structural invariant audit (the health plane's engine checker). Walks
  /// the freelist, wheel slots, occupancy bitmaps, cursor chain and
  /// overflow heap and cross-checks their accounting:
  ///   * freelist + wheel chains + cursor chain + heap + running actions
  ///     == constructed records, with no record reachable twice (a cycle
  ///     or double release corrupts this), and the pending count matches;
  ///   * the occupancy bitmap marks exactly the non-empty slots, each chain
  ///     ends at its recorded tail, and every chain not flagged for sorting
  ///     (and the cursor chain always) is in (time, seq) order;
  ///   * no pending event is scheduled before now() (time monotonicity) and
  ///     every wheel-resident event lies within the wheel horizon of the
  ///     cursor slot.
  /// Returns an empty string when consistent, else a description of the
  /// first violated invariant. O(records) — call at window boundaries, not
  /// per event. Allocation-free once its scratch has grown to the record
  /// count.
  [[nodiscard]] std::string audit() const;

  /// Registers `<prefix>.events_executed`, `<prefix>.wheel_scheduled`,
  /// `<prefix>.heap_scheduled` (counters) and
  /// `<prefix>.events_per_wall_second` (gauge) in `registry`. Metrics are
  /// NOT updated per event — call publish_telemetry() at sampling points /
  /// end of run to flush the deltas.
  void bind_telemetry(telemetry::MetricTree& tree, const std::string& prefix);
  /// Convenience overload: binds into the registry's default tree (shard 0).
  void bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix);
  /// Flushes executed/scheduled deltas into the bound registry counters and
  /// refreshes the events-per-wall-second gauge.
  void publish_telemetry();

 private:
  friend class EventQueueProbe;  // tests corrupt the freelist to exercise audit()

  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kBitmapWords = kNumSlots / 64;

  /// Event record. Chains (wheel slots, the cursor chain, the freelist)
  /// link records through `next`.
  struct Node {
    Action action;
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint32_t next = kNil;
    std::uint32_t self = kNil;  // own index, so dispatch needs no lookup
  };
  /// Raw storage for one record; blocks of these are never initialised as
  /// a whole (records are placement-constructed on first use).
  struct alignas(Node) NodeStorage {
    unsigned char bytes[sizeof(Node)];
  };
  /// Sort key plus record reference — what the overflow heap holds, so heap
  /// sifts move 24-byte keys and never touch the records.
  struct EventKey {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t node;
  };
  struct Later {
    bool operator()(const EventKey& a, const EventKey& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  [[nodiscard]] Node& node(std::uint32_t idx) const {
    return *std::launder(reinterpret_cast<Node*>(
        blocks_[idx / kNodesPerBlock][idx % kNodesPerBlock].bytes));
  }
  std::uint32_t acquire_node();
  void release_node(Node& nd) {
    nd.next = free_head_;
    free_head_ = nd.self;
  }

  /// Acquires a record for an event at `t`, links it into the cursor chain,
  /// a wheel slot or the overflow heap, and returns its index; the caller
  /// fills in the action (by move, or in place via emplace).
  std::uint32_t route_event(SimTime t);
  /// Links `idx` (time `t`) into the cursor chain behind every event that
  /// runs before it.
  void insert_cursor(std::uint32_t idx, SimTime t);

  /// Returns the next event in (time, seq) order without executing it, or
  /// nullptr when empty. May move the next occupied wheel slot's chain into
  /// the cursor chain. Sets `from_heap` to where the event lives.
  Node* peek_next(bool& from_heap);
  /// Unlinks the event returned by peek_next and runs it in place.
  void execute(Node& nd, bool from_heap);
  /// Advances the wheel cursor to now_'s slot, entering its chain.
  void sync_cursor();
  /// Makes the chain of absolute slot `abs_slot` the cursor chain (sorting
  /// it if it received an out-of-order event).
  void enter_slot(std::uint64_t abs_slot);
  /// Stable merge sort of the cursor chain by time. A slot chain is
  /// appended in seq order, so a stable sort by time is (time, seq) order.
  void sort_cursor_chain();
  /// Absolute index of the first occupied slot after cursor_, or UINT64_MAX.
  [[nodiscard]] std::uint64_t next_occupied_slot() const;

  // --- event storage --------------------------------------------------------
  std::vector<std::unique_ptr<NodeStorage[]>> blocks_;
  std::uint32_t constructed_ = 0;   // records constructed so far
  std::uint32_t free_head_ = kNil;  // head of the released-record LIFO
  std::size_t pending_ = 0;         // events scheduled and not yet run
  std::size_t running_ = 0;         // records whose action is executing

  // --- timer wheel (near future) -------------------------------------------
  std::array<std::uint32_t, kNumSlots> slot_head_;  // per-slot chain
  std::array<std::uint32_t, kNumSlots> slot_tail_;  // valid where head != kNil
  std::array<std::uint64_t, kBitmapWords> occupied_{};
  std::array<std::uint64_t, kBitmapWords> unsorted_{};  // chains to sort on entry
  std::size_t occupied_slots_ = 0;
  std::uint64_t cursor_ = 0;  // absolute slot index of the cursor chain
  std::uint32_t cur_head_ = kNil;  // cursor chain, in (time, seq) order
  std::uint32_t cur_tail_ = kNil;

  // --- overflow heap (far future) ------------------------------------------
  std::vector<EventKey> heap_;  // binary min-heap via std::push_heap/pop_heap

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;

  std::uint64_t wheel_scheduled_ = 0;
  std::uint64_t heap_scheduled_ = 0;
  std::uint64_t run_wall_ns_ = 0;

  EventTraceSink* trace_sink_ = nullptr;
  mutable std::vector<char> audit_seen_;  // audit() scratch, one flag per record

  // Telemetry bindings (invalid/no-op until bind_telemetry).
  telemetry::CounterHandle tm_executed_;
  telemetry::CounterHandle tm_wheel_;
  telemetry::CounterHandle tm_heap_;
  telemetry::GaugeHandle tm_rate_;
  std::uint64_t tm_executed_published_ = 0;
  std::uint64_t tm_wheel_published_ = 0;
  std::uint64_t tm_heap_published_ = 0;
};

}  // namespace moongen::sim
