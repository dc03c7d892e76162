// Tests of the Testbed/Scenario API: declaration validation, shard
// partitioning, component lookup, telemetry naming, and the two satellite
// fixes that ride with it — the per-testbed DeviceTable (replacing the
// deprecated Device::config process registry) and the per-testbed RunState
// (replacing the process-global run flag).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/device.hpp"
#include "core/rate_control.hpp"
#include "core/task.hpp"
#include "nic/chip.hpp"
#include "telemetry/registry.hpp"
#include "testbed/scenario.hpp"

namespace mc = moongen::core;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mt = moongen::telemetry;
namespace mtb = moongen::testbed;

namespace {

// The standard 4-device fig10 topology used throughout.
mtb::Scenario fig10_scenario(int shards) {
  mtb::Scenario s;
  s.seed(1)
      .shards(shards)
      .telemetry(true)
      .device(0, mn::intel_x540()).name("gen_tx")
      .device(1, mn::intel_x540()).name("dut_in")
      .device(2, mn::intel_x540()).name("dut_out")
      .device(3, mn::intel_x540()).name("sink")
      .link(0, 1)
      .link(2, 3)
      .forwarder(1, 2)
      .couple(0, 3);
  return s;
}

bool has_counter(const mt::Snapshot& snap, const std::string& name) {
  return std::any_of(snap.counters.begin(), snap.counters.end(),
                     [&](const auto& c) { return c.name == name; });
}

}  // namespace

// ---------------------------------------------------------------------------
// Scenario validation
// ---------------------------------------------------------------------------

TEST(Scenario, RejectsDuplicateDeviceId) {
  mtb::Scenario s;
  s.device(0, mn::intel_x540());
  EXPECT_THROW(s.device(0, mn::intel_x540()), std::invalid_argument);
}

TEST(Scenario, RejectsLinkToUndeclaredDevice) {
  mtb::Scenario s;
  s.device(0, mn::intel_x540()).link(0, 7);
  EXPECT_THROW((void)s.build(), std::invalid_argument);
}

TEST(Scenario, RejectsForwarderOnUndeclaredDevice) {
  mtb::Scenario s;
  s.device(0, mn::intel_x540()).forwarder(0, 5);
  EXPECT_THROW((void)s.build(), std::invalid_argument);
}

TEST(Scenario, RejectsModifierWithoutCursor) {
  mtb::Scenario s;
  EXPECT_THROW(s.name("x"), std::logic_error);
  EXPECT_THROW(s.with_seed(7), std::logic_error);
  EXPECT_THROW(s.cable(moongen::wire::cat5e_10gbaset(2.0)), std::logic_error);
}

TEST(Scenario, RejectsDeviceModifierOnLinkCursor) {
  mtb::Scenario s;
  s.device(0, mn::intel_x540()).device(1, mn::intel_x540()).link(0, 1);
  EXPECT_THROW(s.rx_store(false), std::logic_error);  // link is current
}

TEST(Scenario, RejectsConflictingPinsInOneGroup) {
  mtb::Scenario s;
  s.shards(2)
      .device(0, mn::intel_x540()).pin_shard(0)
      .device(1, mn::intel_x540()).pin_shard(1)
      .couple(0, 1);
  EXPECT_THROW((void)s.build(), std::invalid_argument);
}

TEST(Scenario, RejectsPinBeyondEffectiveShards) {
  mtb::Scenario s;
  s.shards(4)
      .device(0, mn::intel_x540()).pin_shard(3)  // only 2 groups -> 2 shards
      .device(1, mn::intel_x540())
      .device(2, mn::intel_x540())
      .couple(1, 2);
  EXPECT_THROW((void)s.build(), std::invalid_argument);
}

TEST(Scenario, RejectsMalformedFaultSpec) {
  mtb::Scenario s;
  EXPECT_THROW(s.faults("loss@wire.l1:p=not_a_number"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Shard partitioning
// ---------------------------------------------------------------------------

TEST(Scenario, SingleShardByDefault) {
  auto tb = fig10_scenario(1).build();
  EXPECT_EQ(tb->shard_count(), 1u);
  EXPECT_EQ(tb->cross_shard_frames(), 0u);
  // engine() is unambiguous on one shard.
  EXPECT_NO_THROW((void)tb->engine());
}

TEST(Scenario, ShardCountCappedAtGroupCount) {
  // fig10 has two coupling groups: {0,3} and {1,2}. Asking for 8 shards
  // must yield 2, not 8 idle engines.
  auto tb = fig10_scenario(8).build();
  EXPECT_EQ(tb->shard_count(), 2u);
}

TEST(Scenario, FullyCoupledScenarioIsSequential) {
  mtb::Scenario s = fig10_scenario(4);
  s.couple(0, 1);  // merges both groups -> one shard regardless of shards(4)
  auto tb = s.build();
  EXPECT_EQ(tb->shard_count(), 1u);
}

TEST(Scenario, CoupledDevicesShareAShard) {
  auto tb = fig10_scenario(2).build();
  EXPECT_EQ(tb->shard_of(0), tb->shard_of(3));  // couple(0, 3)
  EXPECT_EQ(tb->shard_of(1), tb->shard_of(2));  // forwarder(1, 2)
  EXPECT_NE(tb->shard_of(0), tb->shard_of(1));
}

TEST(Scenario, PinShardIsHonored) {
  mtb::Scenario s;
  s.shards(2)
      .device(0, mn::intel_x540()).pin_shard(1)
      .device(1, mn::intel_x540()).pin_shard(0)
      .device(2, mn::intel_x540())
      .device(3, mn::intel_x540())
      .link(0, 1)
      .couple(0, 2)
      .couple(1, 3);
  auto tb = s.build();
  EXPECT_EQ(tb->shard_of(0), 1u);
  EXPECT_EQ(tb->shard_of(2), 1u);
  EXPECT_EQ(tb->shard_of(1), 0u);
  EXPECT_EQ(tb->shard_of(3), 0u);
}

TEST(Testbed, MultiShardEngineLookupNeedsDeviceId) {
  auto tb = fig10_scenario(2).build();
  EXPECT_THROW((void)tb->engine(), std::logic_error);
  EXPECT_NO_THROW((void)tb->engine(0));
  // Devices in one group resolve to the same engine object.
  EXPECT_EQ(&tb->engine(1), &tb->engine(2));
  EXPECT_NE(&tb->engine(0), &tb->engine(1));
}

// ---------------------------------------------------------------------------
// Component lookup
// ---------------------------------------------------------------------------

TEST(Testbed, LookupByNameAndId) {
  auto tb = fig10_scenario(1).build();
  EXPECT_EQ(&tb->port("gen_tx"), &tb->port(0));
  EXPECT_EQ(&tb->port("sink"), &tb->port(3));
  EXPECT_THROW((void)tb->port("nonexistent"), std::out_of_range);
  EXPECT_THROW((void)tb->port(42), std::out_of_range);
  EXPECT_NO_THROW((void)tb->link(0, 1));
  EXPECT_THROW((void)tb->link(3, 0), std::out_of_range);
  EXPECT_EQ(tb->forwarder_count(), 1u);
  EXPECT_THROW((void)tb->forwarder(1), std::out_of_range);
}

TEST(Testbed, DuplexCreatesBothDirections) {
  mtb::Scenario s;
  s.device(0, mn::intel_x540()).device(1, mn::intel_x540()).link(0, 1).duplex().couple(0, 1);
  auto tb = s.build();
  EXPECT_NO_THROW((void)tb->link(0, 1));
  EXPECT_NO_THROW((void)tb->link(1, 0));
  EXPECT_NE(&tb->link(0, 1), &tb->link(1, 0));
}

TEST(Testbed, RunForAdvancesVirtualTime) {
  auto tb = fig10_scenario(1).build();
  tb->run_for(0.001);  // 1 ms
  EXPECT_EQ(tb->now(), static_cast<ms::SimTime>(1e9));  // ps
}

// ---------------------------------------------------------------------------
// Telemetry naming
// ---------------------------------------------------------------------------

TEST(Testbed, SequentialTelemetryKeepsLegacyEnginePrefix) {
  auto tb = fig10_scenario(1).build();
  tb->run_for(0.0001);
  tb->publish_telemetry();
  const auto snap = tb->registry().snapshot();
  EXPECT_TRUE(has_counter(snap, "engine.events_executed"));
  EXPECT_FALSE(has_counter(snap, "engine.shard0.events_executed"));
  EXPECT_TRUE(has_counter(snap, "port.gen_tx.tx_packets"));
}

TEST(Testbed, ShardedTelemetryUsesPerShardPrefixes) {
  auto tb = fig10_scenario(2).build();
  tb->run_for(0.0001);
  tb->publish_telemetry();
  const auto snap = tb->registry().snapshot();
  EXPECT_TRUE(has_counter(snap, "engine.shard0.events_executed"));
  EXPECT_TRUE(has_counter(snap, "engine.shard1.events_executed"));
  EXPECT_FALSE(has_counter(snap, "engine.events_executed"));
}

// ---------------------------------------------------------------------------
// Fault plane integration
// ---------------------------------------------------------------------------

TEST(Testbed, FaultSitesLandOnTheOwningShardsPlane) {
  mtb::Scenario s = fig10_scenario(2);
  s.faults("loss@wire.l1:p=1");  // drop everything on link 0->1
  auto tb = s.build();
  EXPECT_TRUE(tb->has_faults());
  // One plane per shard; the wire.l1 site lives on gen_tx's shard.
  EXPECT_NE(tb->fault_plane(0), nullptr);
  EXPECT_NE(tb->fault_plane(1), nullptr);
  mc::UdpTemplateOptions opts;
  opts.frame_size = 96;
  for (int i = 0; i < 50; ++i) tb->port("gen_tx").tx_queue(0).post(mc::make_udp_frame(opts));
  tb->run_for(0.001);
  EXPECT_GT(tb->fault_fires_at("wire.l1"), 0u);
  EXPECT_EQ(tb->fault_fires(), tb->fault_fires_at("wire.l1"));
}

TEST(Testbed, NoFaultsMeansNoPlanes) {
  auto tb = fig10_scenario(1).build();
  EXPECT_FALSE(tb->has_faults());
  EXPECT_EQ(tb->fault_plane(0), nullptr);
  EXPECT_EQ(tb->fault_fires(), 0u);
}

// ---------------------------------------------------------------------------
// Satellite: per-testbed DeviceTable vs the deprecated global registry
// ---------------------------------------------------------------------------

TEST(DeviceTable, TablesAreIsolated) {
  mc::DeviceTable a;
  mc::DeviceTable b;
  mc::Device& da = a.config(5, 1, 1);
  mc::Device& db = b.config(5, 1, 1);
  EXPECT_NE(&da, &db);  // same id, different tables, different devices
  da.set_link_up(false);
  EXPECT_FALSE(da.link_up());
  EXPECT_TRUE(db.link_up());  // state does not leak across tables
  da.set_link_up(true);
}

TEST(DeviceTable, FindDoesNotCreate) {
  mc::DeviceTable t;
  EXPECT_EQ(t.find(3), nullptr);
  mc::Device& d = t.config(3, 1, 1);
  EXPECT_EQ(t.find(3), &d);
}

TEST(DeviceTable, DeprecatedStaticConfigDelegatesToProcessDefault) {
  mc::Device& via_static = mc::Device::config(6, 1, 1);
  mc::Device& via_table = mc::DeviceTable::process_default().config(6, 1, 1);
  EXPECT_EQ(&via_static, &via_table);
}

TEST(DeviceTable, ScenarioFastDevicesLiveInThePrivateTable) {
  auto tb = mtb::Scenario().fast_device(0, 1, 1).fast_device(1, 1, 1).fast_connect(0, 1).build();
  // The testbed's device 0 is NOT the process-global device 0.
  mc::Device& global0 = mc::Device::config(0, 1, 1);
  EXPECT_NE(&tb->fast_device(0), &global0);
  EXPECT_EQ(tb->fast_devices().find(0), &tb->fast_device(0));
  EXPECT_THROW((void)tb->fast_device(9), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Satellite: per-testbed RunState
// ---------------------------------------------------------------------------

TEST(RunState, InstancesAreIsolated) {
  mc::RunState a;
  mc::RunState b;
  EXPECT_TRUE(a.running());
  EXPECT_TRUE(b.running());
  a.request_stop();
  EXPECT_FALSE(a.running());
  EXPECT_TRUE(b.running());  // stopping one experiment leaves the other alone
  a.reset();
  EXPECT_TRUE(a.running());
}

TEST(RunState, StopAfterStops) {
  mc::RunState run;
  run.stop_after(0.02);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (run.running() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_FALSE(run.running());
}

TEST(RunState, ResetInvalidatesPendingStopAfter) {
  mc::RunState run;
  const std::uint64_t gen = run.generation();
  run.stop_after(0.1);
  run.reset();  // bumps generation before the timer fires
  EXPECT_GT(run.generation(), gen);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_TRUE(run.running());  // the stale timer was a no-op
}

TEST(RunState, TestbedOwnsItsRunState) {
  auto tb1 = mtb::Scenario().fast_device(0, 1, 1).build();
  auto tb2 = mtb::Scenario().fast_device(0, 1, 1).build();
  tb1->run_state().request_stop();
  EXPECT_FALSE(tb1->run_state().running());
  EXPECT_TRUE(tb2->run_state().running());
  EXPECT_TRUE(mc::running());  // the process-global flag is untouched too
}
