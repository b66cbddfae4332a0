#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>

#include "sim/cluster.hpp"
#include "workload/model_zoo.hpp"

namespace mlfs {
namespace {

JobSpec spec_with(int gpus, std::uint64_t seed = 3,
                  CommStructure comm = CommStructure::AllReduce) {
  JobSpec spec;
  spec.id = 0;
  spec.algorithm = MlAlgorithm::Mlp;
  spec.comm = comm;
  spec.gpu_request = gpus;
  spec.max_iterations = 10;
  spec.seed = seed;
  return spec;
}

ClusterConfig small_cluster() {
  ClusterConfig c;
  c.server_count = 2;
  c.gpus_per_server = 2;
  return c;
}

/// Registers one job into the cluster and returns its id.
JobId add_job(Cluster& cluster, JobSpec spec) {
  spec.id = static_cast<JobId>(cluster.job_count());
  auto inst = ModelZoo::instantiate(spec, static_cast<TaskId>(cluster.task_count()));
  cluster.register_job(std::move(inst.job), std::move(inst.tasks));
  return spec.id;
}

TEST(Cluster, ConstructionAndAccessors) {
  Cluster cluster(small_cluster());
  EXPECT_EQ(cluster.server_count(), 2u);
  EXPECT_EQ(cluster.server(1).gpu_count(), 2);
  EXPECT_EQ(cluster.server(0).id(), 0u);
  EXPECT_THROW(cluster.server(5), ContractViolation);
}

TEST(Cluster, RegisterJobAssignsPools) {
  Cluster cluster(small_cluster());
  const JobId id = add_job(cluster, spec_with(2));
  EXPECT_EQ(cluster.job_count(), 1u);
  EXPECT_EQ(cluster.task_count(), cluster.job(id).task_count());
  EXPECT_THROW(cluster.task(999), ContractViolation);
}

TEST(Cluster, RegisterRejectsNonContiguousIds) {
  Cluster cluster(small_cluster());
  auto spec = spec_with(1);
  spec.id = 5;  // pool expects 0
  auto inst = ModelZoo::instantiate(spec, 0);
  EXPECT_THROW(cluster.register_job(std::move(inst.job), std::move(inst.tasks)),
               ContractViolation);
}

TEST(Cluster, PlaceUnplaceUpdatesUtilization) {
  Cluster cluster(small_cluster());
  const JobId id = add_job(cluster, spec_with(1));
  const TaskId tid = cluster.job(id).task_at(0);
  const Task& task = cluster.task(tid);

  EXPECT_DOUBLE_EQ(cluster.server(0).utilization().norm(), 0.0);
  cluster.place_task(tid, 0, 1);
  EXPECT_EQ(task.server, 0u);
  EXPECT_EQ(task.gpu, 1);
  EXPECT_EQ(task.state, TaskState::Running);
  const ResourceVector u = cluster.server(0).utilization();
  EXPECT_NEAR(u[Resource::Cpu], task.demand[Resource::Cpu], 1e-12);
  EXPECT_NEAR(cluster.server(0).gpu_load(1), task.demand[Resource::Gpu], 1e-12);
  EXPECT_NEAR(cluster.server(0).gpu_load(0), 0.0, 1e-12);

  cluster.unplace_task(tid);
  EXPECT_FALSE(task.placed());
  EXPECT_EQ(task.state, TaskState::Queued);
  EXPECT_NEAR(cluster.server(0).utilization().norm(), 0.0, 1e-9);
}

TEST(Cluster, DoublePlacementRejected) {
  Cluster cluster(small_cluster());
  const JobId id = add_job(cluster, spec_with(1));
  const TaskId tid = cluster.job(id).task_at(0);
  cluster.place_task(tid, 0, 0);
  EXPECT_THROW(cluster.place_task(tid, 1, 0), ContractViolation);
}

TEST(Cluster, MoveTaskKeepsSumsConsistent) {
  Cluster cluster(small_cluster());
  const JobId id = add_job(cluster, spec_with(1));
  const TaskId tid = cluster.job(id).task_at(0);
  cluster.place_task(tid, 0, 0);
  cluster.move_task(tid, 1, 1);
  EXPECT_EQ(cluster.task(tid).server, 1u);
  EXPECT_EQ(cluster.task(tid).migrations, 1);
  EXPECT_NEAR(cluster.server(0).utilization().norm(), 0.0, 1e-9);
  EXPECT_GT(cluster.server(1).gpu_load(1), 0.0);
}

TEST(Cluster, UsageFactorAdjustsSums) {
  Cluster cluster(small_cluster());
  const JobId id = add_job(cluster, spec_with(1));
  const TaskId tid = cluster.job(id).task_at(0);
  cluster.place_task(tid, 0, 0);
  const double base_load = cluster.server(0).gpu_load(0);
  cluster.set_usage_factor(tid, 1.5);
  EXPECT_NEAR(cluster.server(0).gpu_load(0), base_load * 1.5, 1e-9);
  cluster.set_usage_factor(tid, 1.0);
  EXPECT_NEAR(cluster.server(0).gpu_load(0), base_load, 1e-9);
}

TEST(Cluster, OverloadDetection) {
  Cluster cluster(small_cluster());
  const JobId a = add_job(cluster, spec_with(1, 3));
  const JobId b = add_job(cluster, spec_with(1, 4));
  const JobId c = add_job(cluster, spec_with(1, 5));
  // Stack three workers on the same GPU: load ~1.0-1.9 > 0.9.
  cluster.place_task(cluster.job(a).task_at(0), 0, 0);
  cluster.place_task(cluster.job(b).task_at(0), 0, 0);
  cluster.place_task(cluster.job(c).task_at(0), 0, 0);
  EXPECT_TRUE(cluster.server(0).overloaded(0.9));
  EXPECT_FALSE(cluster.server(1).overloaded(0.9));
  EXPECT_EQ(cluster.overloaded_servers(0.9), std::vector<ServerId>{0});
  EXPECT_EQ(cluster.underloaded_servers(0.9), std::vector<ServerId>{1});
}

TEST(Cluster, FitsWithoutOverloadChecksTargetGpu) {
  Cluster cluster(small_cluster());
  const JobId a = add_job(cluster, spec_with(1, 3));
  const JobId b = add_job(cluster, spec_with(1, 4));
  cluster.place_task(cluster.job(a).task_at(0), 0, 0);
  const Task& incoming = cluster.task(cluster.job(b).task_at(0));
  // GPU 0 already holds ~0.35-0.62; GPU 1 is empty.
  EXPECT_TRUE(cluster.server(0).fits_without_overload(incoming, 1, 0.9));
  EXPECT_EQ(cluster.server(0).least_loaded_gpu(), 1);
}

TEST(Cluster, OverloadDegreeAveragesNorms) {
  Cluster cluster(small_cluster());
  EXPECT_DOUBLE_EQ(cluster.overload_degree(), 0.0);
  const JobId a = add_job(cluster, spec_with(1));
  cluster.place_task(cluster.job(a).task_at(0), 0, 0);
  const double expected = cluster.server(0).utilization().norm() / 2.0;
  EXPECT_NEAR(cluster.overload_degree(), expected, 1e-12);
}

TEST(Cluster, BandwidthLedgerIgnoresIntraServer) {
  Cluster cluster(small_cluster());
  cluster.record_transfer(0, 0, 100.0);
  EXPECT_DOUBLE_EQ(cluster.total_bandwidth_mb(), 0.0);
  cluster.record_transfer(0, 1, 100.0);
  cluster.record_transfer(1, 0, 50.0);
  EXPECT_DOUBLE_EQ(cluster.total_bandwidth_mb(), 150.0);
  EXPECT_EQ(cluster.transfer_count(), 2u);
}

TEST(Cluster, JobFullyPlacedTracksLiveTasks) {
  Cluster cluster(small_cluster());
  const JobId id = add_job(cluster, spec_with(2));
  const Job& job = cluster.job(id);
  EXPECT_FALSE(cluster.job_fully_placed(job));
  cluster.place_task(job.task_at(0), 0, 0);
  EXPECT_FALSE(cluster.job_fully_placed(job));
  cluster.place_task(job.task_at(1), 1, 0);
  EXPECT_TRUE(cluster.job_fully_placed(job));
}

TEST(Cluster, EstimateFreeWorkerSlotsShrinksWithLoad) {
  Cluster cluster(small_cluster());
  const int empty_slots = cluster.estimate_free_worker_slots(0.9);
  EXPECT_GT(empty_slots, 0);
  const JobId a = add_job(cluster, spec_with(2, 7));
  cluster.place_task(cluster.job(a).task_at(0), 0, 0);
  cluster.place_task(cluster.job(a).task_at(1), 0, 1);
  EXPECT_LT(cluster.estimate_free_worker_slots(0.9), empty_slots);
}

// --- the incremental load index ---------------------------------------------

constexpr double kHr = 0.85;

/// Everything the load index serves, read through the refreshing queries;
/// the cached doubles as bit patterns so that equality is bitwise.
struct IndexView {
  std::vector<ServerId> underloaded;
  std::vector<ServerId> overloaded;
  int free_slots = 0;
  std::vector<std::uint64_t> cached;

  bool operator==(const IndexView&) const = default;
};

IndexView index_view(const Cluster& cluster) {
  IndexView v;
  v.underloaded = cluster.underloaded_servers(kHr);
  v.overloaded = cluster.overloaded_servers(kHr);
  v.free_slots = cluster.estimate_free_worker_slots(kHr);
  for (ServerId id = 0; id < cluster.server_count(); ++id) {
    for (std::size_t r = 0; r < kNumResources; ++r) {
      v.cached.push_back(std::bit_cast<std::uint64_t>(cluster.cached_utilization(id).at(r)));
    }
    v.cached.push_back(static_cast<std::uint64_t>(cluster.cached_least_gpu(id)));
    v.cached.push_back(std::bit_cast<std::uint64_t>(cluster.cached_least_gpu_load(id)));
  }
  return v;
}

TEST(Cluster, NoopReindexSkipsUnchangedDirtyServers) {
  ClusterConfig cfg;
  cfg.server_count = 4;
  cfg.gpus_per_server = 2;
  Cluster cluster(cfg);
  const JobId loaded = add_job(cluster, spec_with(2, 7));
  cluster.place_task(cluster.job(loaded).task_at(0), 0, 0);
  cluster.place_task(cluster.job(loaded).task_at(1), 0, 0);
  const JobId id = add_job(cluster, spec_with(1));
  const TaskId tid = cluster.job(id).task_at(0);

  // A place/unplace round trip (a gang placed and rolled back between
  // refreshing queries) leaves the server's load exactly where it started:
  // the refresh re-evaluates the dirty server and serves the same index.
  const IndexView before = index_view(cluster);
  ASSERT_EQ(before.overloaded, (std::vector<ServerId>{0}));
  cluster.place_task(tid, 2, 0);
  cluster.unplace_task(tid);
  EXPECT_EQ(index_view(cluster), before);

  // A placement that sticks shows.
  cluster.place_task(tid, 2, 0);
  EXPECT_NE(index_view(cluster), before);
}

TEST(Cluster, RestoredLoadIndexIsRebuiltFromLiveState) {
  ClusterConfig cfg;
  cfg.server_count = 6;
  cfg.gpus_per_server = 2;
  const auto build = [&cfg] {
    auto cluster = std::make_unique<Cluster>(cfg);
    add_job(*cluster, spec_with(2, 7));
    add_job(*cluster, spec_with(2, 9));
    return cluster;
  };
  const std::unique_ptr<Cluster> cluster = build();
  const Job& a = cluster->job(0);
  const Job& b = cluster->job(1);
  cluster->place_task(a.task_at(0), 1, 0);
  cluster->place_task(a.task_at(1), 1, 1);
  cluster->place_task(b.task_at(0), 2, 0);
  cluster->set_server_up(4, false);
  cluster->set_placement_cap(5, 0);
  (void)index_view(*cluster);

  // Saved while servers 1, 2 and 3 are dirty: a place, an unplace and a
  // usage change since the last refreshing query.
  cluster->place_task(b.task_at(1), 3, 1);
  cluster->unplace_task(b.task_at(0));
  cluster->set_usage_factor(a.task_at(0), 4.0);
  std::string bytes;
  {
    io::BinWriter w(bytes);
    cluster->save_state(w);
  }
  // The twin's index is valid for its own, empty fleet until the restore.
  const std::unique_ptr<Cluster> twin = build();
  (void)index_view(*twin);
  {
    io::BinReader r(bytes);
    twin->restore_state(r);
  }

  const IndexView expected = index_view(*cluster);
  ASSERT_EQ(expected.overloaded, (std::vector<ServerId>{1}));
  ASSERT_EQ(expected.underloaded, (std::vector<ServerId>{0, 2, 3}));
  EXPECT_EQ(index_view(*twin), expected);
}

TEST(Cluster, UnderloadedServersIntoMatchesVectorReturn) {
  // The index-served partitions against a brute-force walk of the fleet,
  // with an overloaded, a down and a quarantined server in it.
  ClusterConfig cfg;
  cfg.server_count = 6;
  cfg.gpus_per_server = 2;
  Cluster cluster(cfg);
  const JobId id = add_job(cluster, spec_with(2));
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
