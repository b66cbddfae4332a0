// PlacementIndex unit tests: bucket-boundary edge cases (empty buckets,
// all-equal loads, single feasible server, FP-drift negatives) plus a
// randomized index-vs-brute-force equivalence sweep, and the cluster-level
// contracts that ride on the index (noop-reindex dedupe, the served
// partitions against a brute-force fleet walk).
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/placement_index.hpp"
#include "workload/model_zoo.hpp"

namespace mlfs {
namespace {

constexpr double kHr = 0.85;
constexpr int kBuckets = 8;

struct Loads {
  double gpu = 0.0, cpu = 0.0, mem = 0.0, net = 0.0;
};

/// The exact four-comparison feasibility check the linear funnel performs,
/// in the same order placement.cpp evaluates it.
bool feasible(const Loads& l, const Loads& u, double hr) {
  return !(l.cpu + u.cpu > hr) && !(l.mem + u.mem > hr) && !(l.net + u.net > hr) &&
         !(l.gpu + u.gpu > hr);
}

PlacementIndex make_index(const std::vector<Loads>& fleet) {
  PlacementIndex idx;
  idx.reset(fleet.size(), kHr, kBuckets);
  for (ServerId id = 0; id < fleet.size(); ++id) {
    const Loads& l = fleet[id];
    idx.set_server(id, true, l.gpu, l.cpu, l.mem, l.net);
  }
  return idx;
}

std::vector<ServerId> brute_force(const std::vector<Loads>& fleet, const Loads& u, double hr,
                                  ServerId skip) {
  std::vector<ServerId> out;
  for (ServerId id = 0; id < fleet.size(); ++id) {
    if (id == skip) continue;
    if (feasible(fleet[id], u, hr)) out.push_back(id);
  }
  return out;
}

TEST(PlacementIndex, EmptyIndexReturnsNothing) {
  PlacementIndex idx;
  idx.reset(4, kHr, kBuckets);
  EXPECT_EQ(idx.member_count(), 0u);
  std::vector<ServerId> out;
  EXPECT_EQ(idx.collect_feasible(kHr, 0.1, 0.1, 0.1, 0.1, kInvalidServer, out), 0u);
  EXPECT_TRUE(out.empty());
  // Every server carries the non-member sentinel on every dimension.
  for (int d = 0; d < PlacementIndex::kDims; ++d)
    for (ServerId id = 0; id < idx.server_count(); ++id) EXPECT_EQ(idx.bucket_of(d, id), -1);
}

TEST(PlacementIndex, BucketBoundaryMapping) {
  PlacementIndex idx;
  idx.reset(1, kHr, kBuckets);
  // boundary(0) is -inf: arbitrarily negative loads land in bucket 0.
  EXPECT_EQ(idx.bucket_for_load(-1e30), 0);
  EXPECT_EQ(idx.bucket_for_load(0.0), 0);
  // A load exactly on a boundary belongs to the bucket it opens.
  for (int b = 1; b < kBuckets; ++b) {
    EXPECT_EQ(idx.bucket_for_load(idx.boundary(b)), b) << "boundary " << b;
    EXPECT_EQ(idx.bucket_for_load(std::nextafter(idx.boundary(b), 0.0)), b - 1);
  }
  // Loads at/above hr land in the last bucket (members can exceed hr on
  // dimensions other than the one that made them underloaded).
  EXPECT_EQ(idx.bucket_for_load(kHr), kBuckets - 1);
  EXPECT_EQ(idx.bucket_for_load(2.0), kBuckets - 1);
}

TEST(PlacementIndex, NegativeDriftLoadIsIndexedAndFound) {
  // Incremental maintenance can drift a near-zero sum slightly negative;
  // such a server must stay findable (bucket 0 is never pruned — here it
  // sits strictly below every cutoff, so it is bypassed as provably
  // feasible without an exact check).
  std::vector<Loads> fleet(1);
  fleet[0] = {-1e-17, -1e-17, 0.0, -1e-17};
  PlacementIndex idx = make_index(fleet);
  EXPECT_EQ(idx.bucket_of(0, 0), 0);
  std::vector<ServerId> out;
  const std::size_t examined = idx.collect_feasible(kHr, 0.5, 0.5, 0.5, 0.5, kInvalidServer, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(examined + idx.stats().servers_bypassed, 1u);
}

TEST(PlacementIndex, AllEqualLoadsShareOneBucketAndPruneTogether) {
  std::vector<Loads> fleet(6, Loads{0.5, 0.5, 0.5, 0.5});
  PlacementIndex idx = make_index(fleet);
  const int b = idx.bucket_for_load(0.5);
  for (int d = 0; d < PlacementIndex::kDims; ++d) {
    for (ServerId id = 0; id < 6; ++id) EXPECT_EQ(idx.bucket_of(d, id), b);
  }
  std::vector<ServerId> out;
  // Usage that fits everyone with room to spare: the shared bucket sits
  // strictly below every cutoff, so all 6 are *bypassed* as provably
  // feasible — zero exact checks, all returned ascending.
  std::size_t examined = idx.collect_feasible(kHr, 0.1, 0.1, 0.1, 0.1, kInvalidServer, out);
  EXPECT_EQ(examined, 0u);
  EXPECT_EQ(idx.stats().servers_bypassed, 6u);
  EXPECT_EQ(out, (std::vector<ServerId>{0, 1, 2, 3, 4, 5}));
  // Usage that fits no one: the shared bucket is pruned wholesale — zero
  // servers examined, not six exact-check rejections.
  out.clear();
  examined = idx.collect_feasible(kHr, 0.5, 0.5, 0.5, 0.5, kInvalidServer, out);
  EXPECT_EQ(examined, 0u);
  EXPECT_TRUE(out.empty());
  // Usage that lands the shared bucket exactly on the cutoff: all 6 get
  // the exact four-comparison check.
  // bucket_for_load(0.5) opens at boundary b; usage just below hr - that
  // boundary keeps bucket b as the cutoff bucket itself.
  const int b_shared = idx.bucket_for_load(0.5);
  const double edge = kHr - idx.boundary(b_shared);
  out.clear();
  examined = idx.collect_feasible(kHr, edge, edge, edge, edge, kInvalidServer, out);
  EXPECT_EQ(examined, 6u);
  EXPECT_TRUE(out.empty());  // 0.5 + edge > hr: exact check rejects all 6
}

TEST(PlacementIndex, SingleFeasibleServerSurvivesPruning) {
  // Five heavily loaded servers and one idle one: the query must return
  // exactly the idle server, and pruning must have skipped at least the
  // top-bucket crowd.
  std::vector<Loads> fleet(6, Loads{0.8, 0.8, 0.8, 0.8});
  fleet[3] = {0.0, 0.0, 0.0, 0.0};
  PlacementIndex idx = make_index(fleet);
  std::vector<ServerId> out;
  const std::size_t examined = idx.collect_feasible(kHr, 0.3, 0.3, 0.3, 0.3, kInvalidServer, out);
  EXPECT_EQ(out, std::vector<ServerId>{3});
  EXPECT_LT(examined, 6u);
  // Full accounting: every member is pruned, bypassed, or exact-checked.
  EXPECT_EQ(idx.stats().servers_pruned, 6u - examined - idx.stats().servers_bypassed);
}

TEST(PlacementIndex, SkipExcludesMigratingSelf) {
  std::vector<Loads> fleet(3, Loads{0.1, 0.1, 0.1, 0.1});
  PlacementIndex idx = make_index(fleet);
  std::vector<ServerId> out;
  idx.collect_feasible(kHr, 0.1, 0.1, 0.1, 0.1, 1, out);
  EXPECT_EQ(out, (std::vector<ServerId>{0, 2}));
}

/// True iff member `id` is filed in bucket `b` of `dim` (the bucket id per
/// server IS the structure — there are no member lists to cross-check).
bool filed_in(const PlacementIndex& idx, int dim, int b, ServerId id) {
  return idx.is_member(id) && idx.bucket_of(dim, id) == b;
}

TEST(PlacementIndex, SetServerMovesBetweenBucketsAndTogglesMembership) {
  std::vector<Loads> fleet(2, Loads{0.1, 0.1, 0.1, 0.1});
  PlacementIndex idx = make_index(fleet);
  EXPECT_EQ(idx.member_count(), 2u);
  const int b_lo = idx.bucket_for_load(0.1);
  ASSERT_TRUE(filed_in(idx, 1, b_lo, 0));
  // Move server 0's cpu load to a different bucket; other dims unchanged.
  idx.set_server(0, true, 0.1, 0.7, 0.1, 0.1);
  const int b_hi = idx.bucket_for_load(0.7);
  ASSERT_NE(b_lo, b_hi);
  EXPECT_FALSE(filed_in(idx, 1, b_lo, 0));
  EXPECT_TRUE(filed_in(idx, 1, b_hi, 0));
  EXPECT_EQ(idx.load_of(1, 0), 0.7);
  // Same-bucket value update keeps membership where it is.
  idx.set_server(0, true, 0.1, 0.7 + 1e-6, 0.1, 0.1);
  EXPECT_EQ(idx.bucket_of(1, 0), b_hi);
  EXPECT_EQ(idx.load_of(1, 0), 0.7 + 1e-6);
  // Dropping membership stamps the sentinel on every dimension, so no
  // stale bucket id can ever satisfy a query's cutoff compares.
  idx.set_server(0, false, 0.1, 0.7, 0.1, 0.1);
  EXPECT_EQ(idx.member_count(), 1u);
  EXPECT_FALSE(idx.is_member(0));
  for (int d = 0; d < PlacementIndex::kDims; ++d) EXPECT_EQ(idx.bucket_of(d, 0), -1);
  std::vector<ServerId> out;
  idx.collect_feasible(kHr, 0.1, 0.1, 0.1, 0.1, kInvalidServer, out);
  EXPECT_EQ(out, std::vector<ServerId>{1});
}

TEST(PlacementIndex, RandomizedEquivalenceWithBruteForce) {
  std::mt19937_64 rng(20260807);
  std::uniform_real_distribution<double> load(-1e-16, 1.1);
  std::uniform_real_distribution<double> usage(0.0, 0.6);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng() % 40;
    std::vector<Loads> fleet(n);
    for (auto& l : fleet) l = {load(rng), load(rng), load(rng), load(rng)};
    PlacementIndex idx = make_index(fleet);
    // Mutate a few servers to exercise bucket surgery mid-stream.
    for (int m = 0; m < 5 && n > 1; ++m) {
      const ServerId id = static_cast<ServerId>(rng() % n);
      fleet[id] = {load(rng), load(rng), load(rng), load(rng)};
      idx.set_server(id, true, fleet[id].gpu, fleet[id].cpu, fleet[id].mem, fleet[id].net);
    }
    const Loads u{usage(rng), usage(rng), usage(rng), usage(rng)};
    const ServerId skip =
        (rng() % 3 == 0) ? static_cast<ServerId>(rng() % n) : kInvalidServer;
    const PlacementIndexStats before = idx.stats();
    std::vector<ServerId> got;
    const std::size_t examined = idx.collect_feasible(kHr, u.gpu, u.cpu, u.mem, u.net, skip, got);
    EXPECT_EQ(got, brute_force(fleet, u, kHr, skip)) << "trial " << trial;
    EXPECT_LE(examined, n);
    const std::size_t bypassed = idx.stats().servers_bypassed - before.servers_bypassed;
    const std::size_t pruned = idx.stats().servers_pruned - before.servers_pruned;
    // Bypassed members are emitted without a check, so together with the
    // exact-checked ones they cover the result; with pruning they cover
    // the whole membership (minus the skipped self).
    EXPECT_GE(examined + bypassed, got.size()) << "trial " << trial;
    const std::size_t skipped = (skip != kInvalidServer && idx.is_member(skip)) ? 1u : 0u;
    EXPECT_EQ(examined + bypassed + pruned + skipped, idx.member_count()) << "trial " << trial;
  }
}

TEST(PlacementIndex, StatsSurviveSaveRestoreRoundTrip) {
  std::vector<Loads> fleet(4, Loads{0.2, 0.2, 0.2, 0.2});
  PlacementIndex idx = make_index(fleet);
  std::vector<ServerId> out;
  idx.collect_feasible(kHr, 0.1, 0.1, 0.1, 0.1, kInvalidServer, out);
  std::string bytes;
  io::BinWriter w(bytes);
  idx.save_state(w);

  PlacementIndex fresh;
  fresh.reset(fleet.size(), kHr, kBuckets);
  io::BinReader r(bytes);
  fresh.restore_state(r);
  EXPECT_EQ(fresh.stats().queries, idx.stats().queries);
  EXPECT_EQ(fresh.stats().servers_examined, idx.stats().servers_examined);
  EXPECT_EQ(fresh.stats().servers_pruned, idx.stats().servers_pruned);
  EXPECT_EQ(fresh.stats().buckets_pruned, idx.stats().buckets_pruned);
  EXPECT_EQ(fresh.stats().servers_bypassed, idx.stats().servers_bypassed);
}

// --- cluster-level contracts -----------------------------------------------

JobId add_job(Cluster& cluster, int gpus) {
  JobSpec spec;
  spec.id = static_cast<JobId>(cluster.job_count());
  spec.algorithm = MlAlgorithm::Mlp;
  spec.comm = CommStructure::AllReduce;
  spec.gpu_request = gpus;
  spec.max_iterations = 10;
  spec.seed = 3;
  auto inst = ModelZoo::instantiate(spec, static_cast<TaskId>(cluster.task_count()));
  cluster.register_job(std::move(inst.job), std::move(inst.tasks));
  return spec.id;
}

TEST(PlacementIndex, ClusterIndexMirrorsUnderloadedPartition) {
  ClusterConfig cfg;
  cfg.server_count = 6;
  cfg.gpus_per_server = 2;
  Cluster cluster(cfg);
  const JobId id = add_job(cluster, 2);
  cluster.place_task(cluster.job(id).task_at(0), 0, 0);
  cluster.place_task(cluster.job(id).task_at(1), 0, 1);

  const PlacementIndex& idx = cluster.placement_index(kHr);
  const std::vector<ServerId> under = cluster.underloaded_servers(kHr);
  EXPECT_EQ(idx.member_count(), under.size());
  for (ServerId s : under) EXPECT_TRUE(idx.is_member(s));
  for (ServerId s = 0; s < cluster.server_count(); ++s) {
    if (idx.is_member(s)) {
      EXPECT_EQ(idx.load_of(1, s), cluster.cached_utilization(s)[Resource::Cpu]);
      EXPECT_EQ(idx.load_of(0, s), cluster.cached_least_gpu_load(s));
    }
  }
}

TEST(PlacementIndex, NoopReindexSkipsUnchangedDirtyServers) {
  ClusterConfig cfg;
  cfg.server_count = 4;
  cfg.gpus_per_server = 2;
  Cluster cluster(cfg);
  const JobId id = add_job(cluster, 1);
  const TaskId tid = cluster.job(id).task_at(0);

  // Prime the index, then make a place/unplace round trip that leaves the
  // server's load exactly where it started.
  (void)cluster.underloaded_servers(kHr);
  const LoadIndexStats before = cluster.load_index_stats();
  cluster.place_task(tid, 2, 0);
  cluster.unplace_task(tid);
  (void)cluster.underloaded_servers(kHr);
  const LoadIndexStats after = cluster.load_index_stats();
  // The dirty server was re-evaluated but nothing changed: that must be
  // counted as a noop, not a reindex.
  EXPECT_GT(after.noop_reindexes, before.noop_reindexes);
  EXPECT_EQ(after.servers_reindexed, before.servers_reindexed);

  // A placement that sticks must still count as a real reindex.
  cluster.place_task(tid, 2, 0);
  (void)cluster.underloaded_servers(kHr);
  EXPECT_GT(cluster.load_index_stats().servers_reindexed, after.servers_reindexed);
}

TEST(PlacementIndex, UnderloadedServersIntoMatchesVectorReturn) {
  // The index-served partitions against a brute-force walk of the fleet,
  // with an overloaded, a down and a quarantined server in it.
  ClusterConfig cfg;
  cfg.server_count = 6;
  cfg.gpus_per_server = 2;
  Cluster cluster(cfg);
  const JobId id = add_job(cluster, 2);
  cluster.place_task(cluster.job(id).task_at(0), 1, 0);
  cluster.place_task(cluster.job(id).task_at(1), 1, 0);
  cluster.set_server_up(3, false);
  cluster.set_placement_cap(4, 0);

  const auto brute_force = [&cluster](bool under) {
    std::vector<ServerId> ids;
    for (const Server& s : cluster.servers()) {
      const bool pick = under ? s.accepts_placements() && !s.overloaded(kHr)
                              : s.up() && s.overloaded(kHr);
      if (pick) ids.push_back(s.id());
    }
    return ids;
  };
  const std::vector<ServerId> expected_under = brute_force(true);
  ASSERT_EQ(expected_under, (std::vector<ServerId>{0, 2, 5}));
  EXPECT_EQ(cluster.underloaded_servers(kHr), expected_under);
  EXPECT_EQ(cluster.overloaded_servers(kHr), brute_force(false));

  // Mutations reach the served partition through the dirty-tracked refresh.
  cluster.unplace_task(cluster.job(id).task_at(1));
  cluster.set_server_up(3, true);
  cluster.set_placement_cap(4, -1);
  EXPECT_EQ(cluster.underloaded_servers(kHr), brute_force(true));
  EXPECT_EQ(cluster.overloaded_servers(kHr), brute_force(false));
}

}  // namespace
}  // namespace mlfs
