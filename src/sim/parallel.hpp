// Sharded parallel simulation runtime (conservative synchronization).
//
// The sequential engine dispatches every port, wire, and DuT of a testbed
// from one EventQueue, so multi-port scaling experiments (paper Figures
// 3/4) serialize on one core. The ParallelRuntime splits a testbed into
// shards — each shard owns one EventQueue plus the components pinned to it
// — and advances all shards in lockstep windows:
//
//   window length W = min over cross-shard channels of their lookahead
//   (the smallest possible latency of the wire they carry). A frame sent
//   during window k arrives no earlier than k*W + L >= (k+1)*W, i.e. always
//   in a later window — so draining incoming channels at the window
//   boundary can never schedule into a shard's past. This is the classic
//   null-message/conservative-lookahead argument with the link latency as
//   the lookahead bound.
//
// Determinism contract (see DESIGN.md section 10):
//  * channels are FIFO and drained in registration order, exactly one
//    epoch per window — the interleaving of cross-shard deliveries into a
//    shard's event order does not depend on thread scheduling;
//  * producers close each window's epoch with a marker before the barrier,
//    so a drain consumes a well-defined prefix of the channel, never a
//    racy snapshot;
//  * global events (telemetry sampling ticks, experiment control) run in
//    the barrier's completion step, single-threaded, while every shard is
//    quiesced at the same virtual time.
//
// The runtime does not create threads itself: the caller injects an
// executor (testbed::Testbed supplies core::TaskSet pinned threads — the
// sim layer cannot depend on core). Without channels the window is
// unbounded and shards only meet at global events.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace moongen::sim {

class ParallelRuntime {
 public:
  using Work = std::function<void()>;
  /// Runs every element of `work` concurrently (one per shard) and returns
  /// after all of them finished. The default executor spawns plain
  /// std::threads.
  using Executor = std::function<void(std::vector<Work>&)>;

  explicit ParallelRuntime(std::size_t shards);

  ParallelRuntime(const ParallelRuntime&) = delete;
  ParallelRuntime& operator=(const ParallelRuntime&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] EventQueue& shard(std::size_t i) { return *shards_.at(i); }

  /// Registers a cross-shard channel. `lookahead_ps` must be > 0: it is the
  /// smallest latency a frame entering the channel can have, and bounds the
  /// synchronization window. `drain` delivers one published epoch into the
  /// destination shard (runs on the destination shard's thread); `flush`
  /// closes the current epoch on the producer side (runs on the source
  /// shard's thread). Channels must be registered before run_until.
  void add_channel(std::size_t from_shard, std::size_t to_shard, SimTime lookahead_ps,
                   std::function<void()> drain, std::function<void()> flush);

  /// Schedules `fn` at absolute virtual time `t`, executed single-threaded
  /// while all shards are quiesced at `t`. FIFO order for equal times. May
  /// only be called from the main thread (outside run_until) or from
  /// another global callback — never from shard events. A closure that
  /// fits InlineFunction re-arms without allocating (periodic ticks).
  void schedule_global(SimTime t, InlineFunction fn);

  /// Registers a periodic hook on the global timeline: `fn(due)` runs
  /// single-threaded at every multiple of `period_ps` while all shards are
  /// quiesced there (the barrier completion step in parallel runs), starting
  /// with the first multiple strictly after now(). Hook due times bound the
  /// window target exactly like globals, so shards stop *at* the due time —
  /// a hook never observes a shard past its boundary. Hooks fire before any
  /// global events due at the same instant (window closers run before the
  /// sampling ticks that read them) and must be registered before run_until.
  /// This is the telemetry window-merge hook: RttPlane window closes and
  /// streaming-export ticks ride on it.
  void add_window_hook(SimTime period_ps, std::function<void(SimTime)> fn);

  [[nodiscard]] std::size_t window_hook_count() const { return hooks_.size(); }

  void set_executor(Executor executor) { executor_ = std::move(executor); }

  /// Advances every shard to `t`: all events with time <= t run, clocks end
  /// at t. With one shard this is inline and thread-free; with more, the
  /// executor runs one worker per shard in barrier-synchronized windows.
  void run_until(SimTime t);

  /// Global virtual time (the last window boundary reached).
  [[nodiscard]] SimTime now() const { return now_; }

  /// Synchronization window length, or UINT64_MAX with no channels.
  [[nodiscard]] SimTime window_ps() const { return window_ps_; }
  [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }
  /// Barrier windows completed over the runtime's lifetime.
  [[nodiscard]] std::uint64_t windows_run() const { return windows_; }

  // --- health-plane observability (watchdog support) ------------------------
  /// Monotonic per-shard progress counter: bumped once per window iteration
  /// of the shard's worker loop (sequential runs bump shard 0 once per
  /// window/global boundary). Relaxed atomic — safe to sample from a
  /// wall-clock monitor thread without perturbing the run.
  [[nodiscard]] std::uint64_t heartbeat(std::size_t shard) const {
    return heartbeats_[shard].count.load(std::memory_order_relaxed);
  }
  /// True while run_until is advancing shards. A watchdog accumulates stall
  /// time only while this is set: a paused experiment is not a deadlock.
  /// Note that a one-shard run with no global events heartbeats only at
  /// run_until boundaries — schedule a periodic global (the health plane's
  /// checker tick does this) to give the watchdog a pulse.
  [[nodiscard]] bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  struct Channel {
    std::size_t from = 0;
    std::size_t to = 0;
    SimTime lookahead_ps = 0;
    std::function<void()> drain;
    std::function<void()> flush;
    /// Epochs published by the producer (release) vs. consumed (consumer-
    /// owned). The pair lets a drain catch up exactly on the epochs whose
    /// markers are guaranteed present — including leftovers from the final
    /// window of a previous run_until call.
    std::atomic<std::uint64_t> epochs_flushed{0};
    std::uint64_t epochs_drained = 0;
  };

  void run_sequential(SimTime t);
  void run_parallel(SimTime t);
  /// Runs all due global events at now_ (including ones scheduled by the
  /// callbacks themselves for the current time).
  void run_globals();
  /// Next window boundary: min(cur + W, end, first global event).
  [[nodiscard]] SimTime next_target(SimTime cur, SimTime end) const;
  static void default_executor(std::vector<Work>& work);

  /// Cache-line-isolated so shard heartbeat stores never false-share.
  struct alignas(64) Heartbeat {
    std::atomic<std::uint64_t> count{0};
  };

  struct WindowHook {
    SimTime period_ps = 0;
    SimTime next_due = 0;
    std::function<void(SimTime)> fn;
  };

  std::vector<std::unique_ptr<EventQueue>> shards_;
  std::unique_ptr<Heartbeat[]> heartbeats_;
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::vector<Channel*>> incoming_;  // per destination shard
  std::vector<std::vector<Channel*>> outgoing_;  // per source shard
  SimTime window_ps_ = UINT64_MAX;
  struct Global {
    SimTime t = 0;
    std::uint64_t seq = 0;  // FIFO among equal times
    InlineFunction fn;
  };
  struct GlobalLater {
    bool operator()(const Global& a, const Global& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  std::vector<Global> globals_;  // binary min-heap by (t, seq)
  std::uint64_t global_seq_ = 0;
  std::vector<WindowHook> hooks_;
  Executor executor_;
  SimTime now_ = 0;
  std::uint64_t windows_ = 0;
};

}  // namespace moongen::sim
