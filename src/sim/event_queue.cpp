#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>

#include "telemetry/registry.hpp"

namespace moongen::sim {

namespace {

constexpr std::uint64_t kNoSlot = UINT64_MAX;

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

EventQueue::~EventQueue() {
  for (std::uint32_t i = 0; i < constructed_; ++i) node(i).~Node();
}

void EventQueue::schedule_at(SimTime t, Action action) {
  node(route_event(t)).action = std::move(action);
}

std::uint32_t EventQueue::acquire_node() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = node(idx).next;
    return idx;
  }
  if (constructed_ == blocks_.size() * kNodesPerBlock)
    blocks_.push_back(std::make_unique_for_overwrite<NodeStorage[]>(kNodesPerBlock));
  const std::uint32_t idx = constructed_;
  ::new (static_cast<void*>(blocks_[idx / kNodesPerBlock][idx % kNodesPerBlock].bytes)) Node();
  node(idx).self = idx;
  ++constructed_;
  return idx;
}

std::uint32_t EventQueue::route_event(SimTime t) {
  if (t < now_) throw std::logic_error("EventQueue: scheduling into the past");
  const std::uint64_t abs_slot = t >> kSlotShift;
  const std::uint32_t idx = acquire_node();
  Node& nd = node(idx);
  nd.time = t;
  nd.seq = next_seq_++;
  nd.next = kNil;
  ++pending_;
  if (abs_slot > cursor_ && abs_slot - cursor_ < kNumSlots) {
    // Wheel window: O(1) append to the slot's chain. Appends arrive in seq
    // order, so the chain stays sorted unless `t` runs before its tail.
    ++wheel_scheduled_;
    const std::uint64_t slot = abs_slot & (kNumSlots - 1);
    const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
    if (slot_head_[slot] == kNil) {
      slot_head_[slot] = idx;
      occupied_[slot >> 6] |= bit;
      ++occupied_slots_;
    } else {
      Node& tail = node(slot_tail_[slot]);
      if (t < tail.time) unsorted_[slot >> 6] |= bit;
      tail.next = idx;
    }
    slot_tail_[slot] = idx;
  } else if (abs_slot <= cursor_) {
    // The target slot is the cursor's (events landing at or before it, e.g.
    // schedule_in(0)); keep the cursor chain in order.
    ++wheel_scheduled_;
    insert_cursor(idx, t);
  } else {
    ++heap_scheduled_;
    heap_.push_back(EventKey{t, nd.seq, idx});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  return idx;
}

void EventQueue::insert_cursor(std::uint32_t idx, SimTime t) {
  if (cur_head_ == kNil) {
    cur_head_ = cur_tail_ = idx;
    return;
  }
  // A new seq is larger than every pending one, so the event goes behind
  // every event at or before `t`: a tail append in the common case.
  if (t >= node(cur_tail_).time) {
    node(cur_tail_).next = idx;
    cur_tail_ = idx;
    return;
  }
  if (t < node(cur_head_).time) {
    node(idx).next = cur_head_;
    cur_head_ = idx;
    return;
  }
  // head.time <= t < tail.time: the walk stops before the tail.
  std::uint32_t prev = cur_head_;
  while (node(node(prev).next).time <= t) prev = node(prev).next;
  node(idx).next = node(prev).next;
  node(prev).next = idx;
}

std::uint64_t EventQueue::next_occupied_slot() const {
  if (occupied_slots_ == 0) return kNoSlot;
  // Scan the occupancy bitmap circularly starting just past the cursor. The
  // active window is (cursor_, cursor_ + kNumSlots), so every set bit maps
  // to exactly one absolute slot in that range.
  const std::uint64_t start = cursor_ + 1;
  std::uint64_t bit = start & (kNumSlots - 1);
  std::uint64_t word_idx = bit >> 6;
  std::uint64_t word = occupied_[word_idx] & (~std::uint64_t{0} << (bit & 63));
  for (std::size_t scanned = 0;;) {
    if (word != 0) {
      const auto found_bit = (word_idx << 6) + static_cast<std::uint64_t>(std::countr_zero(word));
      // Map the ring position back to an absolute slot index in the window.
      const std::uint64_t delta = (found_bit - start) & (kNumSlots - 1);
      return start + delta;
    }
    ++scanned;
    if (scanned >= kBitmapWords + 1) return kNoSlot;
    word_idx = (word_idx + 1) & (kBitmapWords - 1);
    word = occupied_[word_idx];
  }
}

void EventQueue::enter_slot(std::uint64_t abs_slot) {
  const std::uint64_t slot = abs_slot & (kNumSlots - 1);
  const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
  occupied_[slot >> 6] &= ~bit;
  --occupied_slots_;
  cur_head_ = slot_head_[slot];
  cur_tail_ = slot_tail_[slot];
  slot_head_[slot] = kNil;
  cursor_ = abs_slot;
  if ((unsorted_[slot >> 6] & bit) != 0) {
    unsorted_[slot >> 6] &= ~bit;
    sort_cursor_chain();
  }
}

void EventQueue::sort_cursor_chain() {
  // Merges sorted chains a and b, taking a's node first among equal times
  // (a always holds the earlier part of the original chain).
  const auto merge = [this](std::uint32_t a, std::uint32_t b) {
    std::uint32_t head = kNil;
    std::uint32_t* link = &head;
    while (a != kNil && b != kNil) {
      std::uint32_t& take = node(b).time < node(a).time ? b : a;
      *link = take;
      link = &node(take).next;
      take = node(take).next;
    }
    *link = a != kNil ? a : b;
    return head;
  };
  // Bottom-up: bins[i] holds a sorted run of 2^i nodes, all of them earlier
  // in the chain than the nodes still to come.
  std::array<std::uint32_t, 33> bins;
  bins.fill(kNil);
  std::size_t used = 0;
  for (std::uint32_t n = cur_head_; n != kNil;) {
    std::uint32_t run = n;
    n = node(n).next;
    node(run).next = kNil;
    std::size_t i = 0;
    for (; bins[i] != kNil; ++i) {
      run = merge(bins[i], run);
      bins[i] = kNil;
    }
    bins[i] = run;
    if (i + 1 > used) used = i + 1;
  }
  std::uint32_t sorted = kNil;
  for (std::size_t i = 0; i < used; ++i) {
    if (bins[i] != kNil) sorted = sorted == kNil ? bins[i] : merge(bins[i], sorted);
  }
  cur_head_ = sorted;
  std::uint32_t tail = sorted;
  while (node(tail).next != kNil) tail = node(tail).next;
  cur_tail_ = tail;
}

void EventQueue::sync_cursor() {
  const std::uint64_t target = now_ >> kSlotShift;
  if (target <= cursor_) return;
  // Every cursor-chain event belongs to a slot <= cursor_ < target, i.e.
  // it ran before now_ advanced here; the chain is empty.
  if ((occupied_[(target & (kNumSlots - 1)) >> 6] >> (target & 63)) & 1u) {
    enter_slot(target);
  } else {
    cursor_ = target;
  }
}

EventQueue::Node* EventQueue::peek_next(bool& from_heap) {
  if (cur_head_ == kNil) {
    const std::uint64_t s = next_occupied_slot();
    if (s != kNoSlot) {
      const SimTime slot_start = static_cast<SimTime>(s) << kSlotShift;
      if (!heap_.empty() && heap_.front().time < slot_start) {
        // The heap event runs strictly before anything in slot s; do NOT
        // advance the cursor past slots that new events may still target.
        from_heap = true;
        return &node(heap_.front().node);
      }
      enter_slot(s);
    }
  }
  Node* wheel = cur_head_ != kNil ? &node(cur_head_) : nullptr;
  if (!heap_.empty()) {
    const EventKey& h = heap_.front();
    if (wheel == nullptr ||
        (h.time != wheel->time ? h.time < wheel->time : h.seq < wheel->seq)) {
      from_heap = true;
      return &node(h.node);
    }
  }
  from_heap = false;
  return wheel;
}

void EventQueue::execute(Node& nd, bool from_heap) {
  // The record is unlinked before its action runs (the action may schedule
  // into the cursor chain) and released only after: records never move, so
  // the action runs in place, and is destroyed in place even if it throws.
  if (from_heap) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  } else {
    cur_head_ = nd.next;
  }
  --pending_;
  now_ = nd.time;
  sync_cursor();
  ++executed_;
  if (trace_sink_ != nullptr) trace_sink_->on_event(now_, nd.seq);
  struct Release {
    EventQueue& q;
    Node& nd;
    ~Release() {
      nd.action.reset();
      q.release_node(nd);
      --q.running_;
    }
  } release{*this, nd};
  ++running_;
  nd.action();
}

bool EventQueue::step() {
  bool from_heap = false;
  Node* next = peek_next(from_heap);
  if (next == nullptr) return false;
  execute(*next, from_heap);
  return true;
}

void EventQueue::run_until(SimTime t) {
  const std::uint64_t t0 = wall_ns();
  while (!stopped_) {
    bool from_heap = false;
    Node* next = peek_next(from_heap);
    if (next == nullptr || next->time > t) break;
    execute(*next, from_heap);
  }
  if (!stopped_ && now_ < t) {
    now_ = t;
    sync_cursor();
  }
  run_wall_ns_ += wall_ns() - t0;
}

void EventQueue::run() {
  const std::uint64_t t0 = wall_ns();
  while (!stopped_ && step()) {
  }
  run_wall_ns_ += wall_ns() - t0;
}

std::string EventQueue::audit() const {
  audit_seen_.assign(constructed_, 0);
  const auto touch = [&](std::uint32_t n, const char* where) -> std::string {
    if (n >= constructed_)
      return std::string(where) + ": node index " + std::to_string(n) + " outside pool of " +
             std::to_string(constructed_);
    if (audit_seen_[n] != 0)
      return std::string(where) + ": node " + std::to_string(n) +
             " reachable twice (cycle or double release)";
    audit_seen_[n] = 1;
    return {};
  };
  const auto before_now = [&](const char* where, SimTime t) {
    return std::string(where) + " event at t=" + std::to_string(t) + " ps is before now=" +
           std::to_string(now_) + " ps (monotonicity)";
  };
  const auto out_of_order = [](const Node& a, const Node& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  };

  // Freelist: bounded walk (a cycle would otherwise loop forever).
  std::size_t free_count = 0;
  for (std::uint32_t n = free_head_; n != kNil; n = node(n).next) {
    if (auto err = touch(n, "freelist"); !err.empty()) return err;
    ++free_count;
  }

  // Wheel slots: occupancy bits, chain order and tails, event times within
  // the horizon and not in the past.
  std::size_t wheel_count = 0;
  std::size_t occupied = 0;
  for (std::size_t slot = 0; slot < kNumSlots; ++slot) {
    const bool bit = ((occupied_[slot >> 6] >> (slot & 63)) & 1u) != 0;
    const bool unsorted = ((unsorted_[slot >> 6] >> (slot & 63)) & 1u) != 0;
    const bool has_chain = slot_head_[slot] != kNil;
    if (bit != has_chain)
      return "wheel slot " + std::to_string(slot) + ": occupancy bit " +
             (bit ? "set" : "clear") + " but chain " + (has_chain ? "non-empty" : "empty");
    if (unsorted && !has_chain)
      return "wheel slot " + std::to_string(slot) + ": flagged for sorting but empty";
    if (!has_chain) continue;
    ++occupied;
    std::uint32_t last = kNil;
    for (std::uint32_t n = slot_head_[slot]; n != kNil; n = node(n).next) {
      if (auto err = touch(n, "wheel chain"); !err.empty()) return err;
      ++wheel_count;
      const Node& e = node(n);
      if (e.time < now_) return before_now("wheel", e.time);
      const std::uint64_t abs_slot = e.time >> kSlotShift;
      if ((abs_slot & (kNumSlots - 1)) != slot)
        return "wheel event at t=" + std::to_string(e.time) + " ps hashed to slot " +
               std::to_string(abs_slot & (kNumSlots - 1)) + " but found in slot " +
               std::to_string(slot);
      if (abs_slot <= cursor_ || abs_slot - cursor_ >= kNumSlots)
        return "wheel event at t=" + std::to_string(e.time) +
               " ps outside the horizon of cursor slot " + std::to_string(cursor_);
      if (!unsorted && last != kNil && out_of_order(node(last), e))
        return "wheel slot " + std::to_string(slot) + ": chain out of (time, seq) order";
      last = n;
    }
    if (last != slot_tail_[slot])
      return "wheel slot " + std::to_string(slot) + ": tail is not the chain's last node";
  }
  if (occupied != occupied_slots_)
    return "wheel has " + std::to_string(occupied) + " occupied slots but the count says " +
           std::to_string(occupied_slots_);

  // Cursor chain (the slot being served): in order, at or after now.
  std::size_t cursor_count = 0;
  std::uint32_t last = kNil;
  for (std::uint32_t n = cur_head_; n != kNil; n = node(n).next) {
    if (auto err = touch(n, "cursor chain"); !err.empty()) return err;
    ++cursor_count;
    const Node& e = node(n);
    if (e.time < now_) return before_now("cursor", e.time);
    if (last != kNil && out_of_order(node(last), e))
      return "cursor chain out of (time, seq) order";
    last = n;
  }
  if (last != kNil && last != cur_tail_) return "cursor chain: tail is not its last node";

  // Overflow heap.
  for (const EventKey& k : heap_) {
    if (auto err = touch(k.node, "overflow heap"); !err.empty()) return err;
    if (node(k.node).time < now_) return before_now("heap", node(k.node).time);
  }

  const std::size_t scheduled = wheel_count + cursor_count + heap_.size();
  if (free_count + scheduled + running_ != constructed_)
    return "node conservation: freelist " + std::to_string(free_count) + " + wheel " +
           std::to_string(wheel_count) + " + cursor " + std::to_string(cursor_count) +
           " + heap " + std::to_string(heap_.size()) + " + running " +
           std::to_string(running_) + " != pool " + std::to_string(constructed_);
  if (scheduled != pending_)
    return "pending count " + std::to_string(pending_) + " but " + std::to_string(scheduled) +
           " events are scheduled";
  return {};
}

void EventQueue::bind_telemetry(telemetry::MetricTree& tree, const std::string& prefix) {
  if (tm_executed_.valid()) return;  // already bound
  tm_executed_ = tree.counter(prefix + ".events_executed");
  tm_wheel_ = tree.counter(prefix + ".wheel_scheduled");
  tm_heap_ = tree.counter(prefix + ".heap_scheduled");
  tm_rate_ = tree.gauge(prefix + ".events_per_wall_second");
  publish_telemetry();
}

void EventQueue::bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix) {
  bind_telemetry(registry.shard(0), prefix);
}

void EventQueue::publish_telemetry() {
  if (!tm_executed_.valid()) return;
  tm_executed_.add(executed_ - tm_executed_published_);
  tm_wheel_.add(wheel_scheduled_ - tm_wheel_published_);
  tm_heap_.add(heap_scheduled_ - tm_heap_published_);
  tm_executed_published_ = executed_;
  tm_wheel_published_ = wheel_scheduled_;
  tm_heap_published_ = heap_scheduled_;
  if (run_wall_ns_ > 0) {
    tm_rate_.set(static_cast<double>(executed_) /
                 (static_cast<double>(run_wall_ns_) / 1e9));
  }
}

}  // namespace moongen::sim
