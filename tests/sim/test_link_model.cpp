// LinkModel unit battery (sim/link_model.hpp, DESIGN.md §5e): fair-share
// arithmetic at 1/2/N flows, path/link selection for intra- vs cross-rack
// flows, unconstrained-capacity and single-gang edge cases, comm-window
// circular-overlap geometry, the per-link share-sum invariant, and a
// randomized equivalence check of the incremental per-link bookkeeping
// against a from-scratch rebuild (the auditor's conservation check, driven
// much harder here than any single simulation would).
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "sim/link_model.hpp"

namespace mlfs {
namespace {

using Flow = LinkModel::Flow;

// 4 servers in 2 racks ({0,1} and {2,3}); NIC links 0..3, uplinks 4..5.
LinkModel racked(double nic = 1000.0, double uplink = 600.0) {
  LinkModel m;
  m.reset(4, 2, nic, uplink);
  return m;
}

TEST(LinkModel, TopologyAndLinkIndexing) {
  const LinkModel m = racked();
  EXPECT_EQ(m.server_count(), 4u);
  EXPECT_EQ(m.link_count(), 6u);  // 4 NICs + 2 uplinks
  EXPECT_EQ(m.nic_link(3), 3u);
  EXPECT_EQ(m.uplink_link(0), 4u);
  EXPECT_EQ(m.uplink_link(1), 5u);
  EXPECT_EQ(m.rack_of(1), 0);
  EXPECT_EQ(m.rack_of(2), 1);
  EXPECT_DOUBLE_EQ(m.link_capacity(0), 1000.0);
  EXPECT_DOUBLE_EQ(m.link_capacity(4), 600.0);
}

TEST(LinkModel, IntraRackFlowTouchesOnlyEndpointNics) {
  LinkModel m = racked();
  m.update_job_flows(0, {Flow{0, 1}});  // both endpoints in rack 0
  EXPECT_EQ(m.total_flows_on(m.nic_link(0)), 1u);
  EXPECT_EQ(m.total_flows_on(m.nic_link(1)), 1u);
  EXPECT_EQ(m.total_flows_on(m.nic_link(2)), 0u);
  EXPECT_EQ(m.total_flows_on(m.uplink_link(0)), 0u);
  EXPECT_EQ(m.total_flows_on(m.uplink_link(1)), 0u);
}

TEST(LinkModel, CrossRackFlowTraversesBothUplinks) {
  LinkModel m = racked();
  m.update_job_flows(0, {Flow{0, 2}});  // rack 0 -> rack 1
  EXPECT_EQ(m.total_flows_on(m.nic_link(0)), 1u);
  EXPECT_EQ(m.total_flows_on(m.nic_link(2)), 1u);
  EXPECT_EQ(m.total_flows_on(m.uplink_link(0)), 1u);
  EXPECT_EQ(m.total_flows_on(m.uplink_link(1)), 1u);
  EXPECT_EQ(m.total_flows_on(m.nic_link(1)), 0u);
}

TEST(LinkModel, FlatNetworkHasNoUplinks) {
  LinkModel m;
  m.reset(4, 0, 1000.0, 600.0);  // servers_per_rack <= 0: flat fabric
  EXPECT_EQ(m.link_count(), 4u);
  m.update_job_flows(0, {Flow{0, 3}});
  EXPECT_EQ(m.total_flows_on(m.nic_link(0)), 1u);
  EXPECT_EQ(m.total_flows_on(m.nic_link(3)), 1u);
}

// ------------------------------------------------------ fair-share queries

TEST(LinkModel, SingleFlowGetsFullLinkCapacity) {
  LinkModel m = racked();
  m.update_job_flows(0, {Flow{0, 1}});
  EXPECT_DOUBLE_EQ(m.effective_concurrency(m.nic_link(0), 0), 1.0);
  // min(base, C/1) in both directions of the min.
  EXPECT_DOUBLE_EQ(m.flow_bandwidth(0, 0, 1, 800.0), 800.0);
  EXPECT_DOUBLE_EQ(m.flow_bandwidth(0, 0, 1, 4000.0), 1000.0);
}

TEST(LinkModel, TwoJobsOnOneLinkHalveIt) {
  LinkModel m = racked();
  m.update_job_flows(0, {Flow{0, 1}});
  m.update_job_flows(1, {Flow{0, 1}});  // same NIC pair, default duty 1.0
  EXPECT_DOUBLE_EQ(m.effective_concurrency(m.nic_link(0), 0), 2.0);
  EXPECT_DOUBLE_EQ(m.flow_bandwidth(0, 0, 1, 4000.0), 500.0);
  // Saturated link, duty cycles off: the handed-out share sums to exactly 1.
  EXPECT_DOUBLE_EQ(m.share_sum(m.nic_link(0)), 1.0);
}

TEST(LinkModel, NFlowsOfOneGangShareItsOwnNic) {
  LinkModel m = racked();
  // A 4-worker ring rooted at server 0: three flows all leave NIC 0.
  m.update_job_flows(0, {Flow{0, 1}, Flow{0, 2}, Flow{0, 3}});
  EXPECT_DOUBLE_EQ(m.effective_concurrency(m.nic_link(0), 0), 3.0);
  // Path 0->1: NIC 0 is the bottleneck at C/3; NIC 1 would allow C/1.
  EXPECT_DOUBLE_EQ(m.flow_bandwidth(0, 0, 1, 4000.0), 1000.0 / 3.0);
  // Single gang alone on the fabric still respects the share-sum bound.
  EXPECT_DOUBLE_EQ(m.share_sum(m.nic_link(0)), 1.0);
}

TEST(LinkModel, TightUplinkDominatesCrossRackPath) {
  LinkModel m = racked(1000.0, 120.0);
  m.update_job_flows(0, {Flow{0, 2}});
  m.update_job_flows(1, {Flow{1, 3}});  // different NICs, same two uplinks
  EXPECT_DOUBLE_EQ(m.effective_concurrency(m.uplink_link(0), 0), 2.0);
  EXPECT_DOUBLE_EQ(m.flow_bandwidth(0, 0, 2, 4000.0), 60.0);  // 120 / 2
}

TEST(LinkModel, ZeroCapacityMeansUnconstrained) {
  LinkModel m = racked(0.0, 0.0);
  m.update_job_flows(0, {Flow{0, 2}});
  m.update_job_flows(1, {Flow{0, 2}});
  m.update_job_flows(2, {Flow{0, 2}});
  // Any amount of sharing leaves the base path bandwidth untouched.
  EXPECT_DOUBLE_EQ(m.flow_bandwidth(0, 0, 2, 937.5), 937.5);
}

TEST(LinkModel, UnregisteredFlowCountsItselfOnce) {
  LinkModel m = racked();
  m.update_job_flows(0, {Flow{0, 1}});
  // Job 7 never registered anything: querying its would-be flow on a link
  // occupied by job 0 sees job 0's flow plus itself.
  EXPECT_DOUBLE_EQ(m.flow_bandwidth(7, 0, 1, 4000.0), 500.0);
  EXPECT_DOUBLE_EQ(m.effective_concurrency(m.nic_link(0), 7), 0.0);
}

// -------------------------------------------------- comm-window geometry

TEST(LinkModel, CommOverlapGeometry) {
  LinkModel m = racked();
  m.update_job_flows(0, {Flow{0, 1}});
  m.update_job_flows(1, {Flow{0, 1}});
  // Defaults: both windows span the whole circle.
  EXPECT_DOUBLE_EQ(m.comm_overlap(0, 1), 1.0);

  m.set_job_duty_cycle(0, 0.45);
  m.set_job_duty_cycle(1, 0.40);
  // Same offset: the shorter window is fully contained.
  EXPECT_DOUBLE_EQ(m.comm_overlap(0, 1), 0.40);
  // Anti-phased back-to-back (0.45 + 0.40 <= 1): no overlap at all.
  ASSERT_TRUE(m.set_phase_offset(1, 0.45));
  EXPECT_DOUBLE_EQ(m.comm_overlap(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.comm_overlap(1, 0), 0.0);  // symmetric
  // Wrap-around: a window starting at 0.9 covers [0.9, 1) u [0, 0.3),
  // intersecting job 0's [0, 0.45) in the wrapped part only.
  ASSERT_TRUE(m.set_phase_offset(1, 0.9));
  EXPECT_NEAR(m.comm_overlap(0, 1), 0.30, 1e-12);

  // Anti-phased jobs stop contending: each sees only its own flow.
  ASSERT_TRUE(m.set_phase_offset(1, 0.45));
  EXPECT_DOUBLE_EQ(m.effective_concurrency(m.nic_link(0), 0), 1.0);
  EXPECT_DOUBLE_EQ(m.flow_bandwidth(0, 0, 1, 4000.0), 1000.0);
}

TEST(LinkModel, SetPhaseOffsetReportsChangesOnly) {
  LinkModel m = racked();
  EXPECT_FALSE(m.set_phase_offset(0, 0.0));  // default is already 0
  EXPECT_TRUE(m.set_phase_offset(0, 0.25));
  EXPECT_FALSE(m.set_phase_offset(0, 0.25));
  EXPECT_DOUBLE_EQ(m.phase_offset(0), 0.25);
}

TEST(LinkModel, CommVersionsMoveForLinkSharersOnly) {
  LinkModel m = racked();
  m.update_job_flows(0, {Flow{0, 2}});  // NICs 0 and 2, both uplinks
  m.update_job_flows(1, {Flow{0, 1}});  // NICs 0 and 1
  m.update_job_flows(2, {Flow{2, 3}});  // NICs 2 and 3
  m.update_job_flows(3, {});            // registered nowhere
  const auto versions = [&m] {
    std::vector<std::uint64_t> v;
    for (JobId j = 0; j < 4; ++j) v.push_back(m.comm_version(j));
    return v;
  };
  const auto moved = [&versions](const std::vector<std::uint64_t>& before) {
    const std::vector<std::uint64_t> now = versions();
    std::vector<bool> out;
    for (std::size_t j = 0; j < now.size(); ++j) out.push_back(now[j] != before[j]);
    return out;
  };

  // Job 1's phase moves job 1 and its NIC 0 sharer, job 0.
  std::vector<std::uint64_t> before = versions();
  ASSERT_TRUE(m.set_phase_offset(1, 0.5));
  EXPECT_EQ(moved(before), (std::vector<bool>{true, true, false, false}));

  // Job 2 leaving NIC 2 moves job 0, which shared it, and job 2.
  before = versions();
  m.update_job_flows(2, {});
  EXPECT_EQ(moved(before), (std::vector<bool>{true, false, true, false}));

  // Job 2 coming back the same way moves the same two.
  before = versions();
  m.update_job_flows(2, {Flow{2, 3}});
  EXPECT_EQ(moved(before), (std::vector<bool>{true, false, true, false}));

  // A duty change moves the job and its link sharers.
  before = versions();
  m.set_job_duty_cycle(2, 0.3);
  EXPECT_EQ(moved(before), (std::vector<bool>{true, false, true, false}));
}

// ------------------------------------------- incremental bookkeeping

TEST(LinkModel, UpdateIsIdempotentAndRemovalRestoresEmpty) {
  LinkModel once = racked();
  once.update_job_flows(0, {Flow{0, 2}, Flow{1, 2}});

  LinkModel twice = racked();
  twice.update_job_flows(0, {Flow{0, 2}, Flow{1, 2}});
  twice.update_job_flows(0, {Flow{0, 2}, Flow{1, 2}});  // replace with itself
  EXPECT_TRUE(twice.equals(once));

  // Removing the registration leaves a model equal to one that never saw
  // the job (absent registrations compare as empty).
  twice.update_job_flows(0, {});
  EXPECT_TRUE(twice.equals(racked()));
  EXPECT_EQ(twice.total_flows_on(twice.uplink_link(0)), 0u);

  // And re-adding restores full equality with the once-registered model.
  twice.update_job_flows(0, {Flow{0, 2}, Flow{1, 2}});
  EXPECT_TRUE(twice.equals(once));
  EXPECT_TRUE(once.equals(twice));
}

TEST(LinkModel, RandomizedIncrementalMatchesFromScratchRebuild) {
  Rng rng(0x11ce);
  LinkModel live;
  live.reset(6, 2, 900.0, 300.0);  // 3 racks
  constexpr JobId kJobs = 6;
  std::vector<std::vector<Flow>> current(kJobs);
  std::vector<double> duty(kJobs, 1.0), phase(kJobs, 0.0);

  for (int step = 0; step < 300; ++step) {
    const JobId job = static_cast<JobId>(rng.uniform_int(0, kJobs - 1));
    if (rng.bernoulli(0.2)) {
      duty[job] = rng.uniform(0.05, 1.0);
      live.set_job_duty_cycle(job, duty[job]);
    }
    if (rng.bernoulli(0.2)) {
      phase[job] = rng.uniform(0.0, 0.999);
      (void)live.set_phase_offset(job, phase[job]);
    }
    std::vector<Flow> flows;
    const int n = static_cast<int>(rng.uniform_int(0, 4));
    for (int i = 0; i < n; ++i) {
      Flow f;
      f.a = static_cast<ServerId>(rng.uniform_int(0, 5));
      do {
        f.b = static_cast<ServerId>(rng.uniform_int(0, 5));
      } while (f.b == f.a);
      flows.push_back(f);
    }
    current[job] = flows;
    live.update_job_flows(job, std::move(flows));

    // From-scratch rebuild: register everything into a fresh model.
    LinkModel rebuilt;
    rebuilt.reset(6, 2, 900.0, 300.0);
    for (JobId j = 0; j < kJobs; ++j) {
      rebuilt.set_job_duty_cycle(j, duty[j]);
      (void)rebuilt.set_phase_offset(j, phase[j]);
      rebuilt.update_job_flows(j, current[j]);
    }
    ASSERT_TRUE(live.equals(rebuilt)) << "step " << step;
    ASSERT_TRUE(rebuilt.equals(live)) << "step " << step;

    // The share-sum invariant must hold on every link at every step.
    for (std::size_t link = 0; link < live.link_count(); ++link) {
      ASSERT_LE(live.share_sum(link), 1.0 + 1e-9) << "link " << link << " step " << step;
    }
  }
}

TEST(LinkModel, StateRoundTripsThroughSaveRestore) {
  LinkModel live = racked();
  live.update_job_flows(0, {Flow{0, 2}, Flow{2, 0}});
  live.update_job_flows(2, {Flow{1, 3}});  // job 1 left unregistered on purpose
  live.set_job_duty_cycle(0, 0.45);
  (void)live.set_phase_offset(2, 0.45);

  std::string bytes;
  {
    io::BinWriter w(bytes);
    live.save_state(w);
  }
  LinkModel twin = racked();
  {
    io::BinReader r(bytes);
    twin.restore_state(r);
  }
  EXPECT_TRUE(twin.equals(live));
  EXPECT_TRUE(live.equals(twin));

  // Lossless: re-saving the restored model reproduces the original bytes.
  std::string resaved;
  {
    io::BinWriter w(resaved);
    twin.save_state(w);
  }
  EXPECT_EQ(resaved, bytes);
}

}  // namespace
}  // namespace mlfs
