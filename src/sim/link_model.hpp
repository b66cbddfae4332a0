// Link-level bandwidth contention (DESIGN.md §5e). The fabric is modeled
// as one NIC link per server plus one uplink per rack; every cross-server
// flow traverses both endpoints' NICs and, when it crosses racks, both
// racks' uplinks. Each link divides its capacity fairly among the flows
// concurrently active on it, so a flow's effective bandwidth is
//
//   min(base path bandwidth, min over traversed links of C_L / n_L)
//
// where n_L is the link's effective concurrency. With compute/communicate
// duty cycles enabled, a job only occupies its links during its
// communication window — an arc of length d_j starting at phase offset
// phi_j on the unit circle (CASSINI's circle abstraction) — and the
// concurrency another job contributes is weighted by the circular overlap
// of the two windows, so anti-phased gangs stop contending entirely.
//
// Registered flow sets are a pure function of current placements
// (Cluster::compute_job_flows), maintained incrementally on every
// place/unplace/move; SimAuditor rebuilds them from scratch after audited
// events and checks conservation plus the per-link share-sum invariant
// (the time-averaged capacity handed out never exceeds the link's).
//
// Each job also carries a communication version: bumped whenever anything
// its fair-share bandwidths depend on may have moved — its own or a
// link-sharing job's flow set, phase offset or duty cycle — and, through
// Cluster, on every placement change of its tasks. SimEngine keys its
// per-job communication plans on it (DESIGN.md §5e). Derived state: never
// saved, and meaningful only as "changed since you last looked".
#pragma once

#include <cstdint>
#include <vector>

#include "common/binio.hpp"
#include "workload/ids.hpp"

namespace mlfs {

class LinkModel {
 public:
  /// One cross-server flow of a job (unordered endpoint pair).
  struct Flow {
    ServerId a = kInvalidServer;
    ServerId b = kInvalidServer;
    friend bool operator==(const Flow& x, const Flow& y) {
      return x.a == y.a && x.b == y.b;
    }
    static constexpr auto fields() { return std::tuple{&Flow::a, &Flow::b}; }
  };

  /// Per-link registration: `flows` of `job` traverse the link.
  struct LinkEntry {
    JobId job = kInvalidJob;
    std::uint32_t flows = 0;
    friend bool operator==(const LinkEntry& x, const LinkEntry& y) {
      return x.job == y.job && x.flows == y.flows;
    }
  };

  LinkModel() = default;

  /// (Re)builds the link tables. `nic_capacity_mbps` / `uplink_capacity_mbps`
  /// <= 0 mean that link class imposes no constraint; `servers_per_rack`
  /// <= 0 means a flat network (no uplinks).
  void reset(std::size_t server_count, int servers_per_rack, double nic_capacity_mbps,
             double uplink_capacity_mbps);

  std::size_t server_count() const { return server_count_; }
  std::size_t link_count() const { return capacity_.size(); }
  /// Link index of a server's NIC.
  std::size_t nic_link(ServerId s) const { return s; }
  /// Link index of a rack's uplink (only valid when servers_per_rack > 0).
  std::size_t uplink_link(int rack) const {
    return server_count_ + static_cast<std::size_t>(rack);
  }
  int rack_of(ServerId s) const {
    return servers_per_rack_ > 0 ? static_cast<int>(s) / servers_per_rack_ : 0;
  }
  double link_capacity(std::size_t link) const { return capacity_[link]; }

  // -- per-job communication profile ------------------------------------
  /// Fraction of each iteration the job spends communicating, in (0, 1].
  /// 1.0 (the default) = always-on flows, i.e. duty cycles disabled.
  void set_job_duty_cycle(JobId job, double duty);
  double job_duty_cycle(JobId job) const;
  /// Start of the job's communication window on the unit circle, in [0, 1).
  /// Returns true iff the stored offset changed (the phase-offset-hit
  /// signal surfaced through RunMetrics).
  bool set_phase_offset(JobId job, double offset);
  double phase_offset(JobId job) const;

  /// Circular overlap (in [0, min(d_a, d_b)]) of two jobs' comm windows.
  double comm_overlap(JobId a, JobId b) const;

  // -- flow registration -------------------------------------------------
  /// Replaces `job`'s registered flow set (incremental bookkeeping: the old
  /// set is removed from every link count, the new one added).
  void update_job_flows(JobId job, std::vector<Flow> flows);
  const std::vector<Flow>& job_flows(JobId job) const;

  // -- communication versions (derived; not saved) ------------------------
  /// `job`'s communication version (0 before its first bump).
  std::uint64_t comm_version(JobId job) const {
    return job < versions_.size() ? versions_[job] : 0;
  }
  /// Bumps `job`'s version alone (Cluster: a placement change).
  void bump_comm_version(JobId job);
  std::size_t registered_job_count() const { return flows_.size(); }

  /// Per-link registrations, sorted ascending by job id.
  const std::vector<LinkEntry>& link_entries(std::size_t link) const {
    return entries_[link];
  }
  std::uint32_t total_flows_on(std::size_t link) const;

  // -- fair-share queries ------------------------------------------------
  /// Effective concurrency `job`'s flows see on `link`: the job's own flow
  /// count (its flows are simultaneously active) plus every other job's
  /// count weighted by comm-window overlap relative to this job's window.
  /// Returns 0 when the job has no flow on the link.
  double effective_concurrency(std::size_t link, JobId job) const;

  /// Fair-share bandwidth of one of `job`'s flows between `a` and `b`,
  /// starting from the uncongested path bandwidth `base_mbps` and applying
  /// every traversed constrained link's C_L / n_L cap. Falls back to
  /// treating the flow as a sole occupant on links it is not registered on
  /// (concurrency from the registered set + 1).
  double flow_bandwidth(JobId job, ServerId a, ServerId b, double base_mbps) const;

  /// Time-averaged fraction of `link`'s capacity handed out across all
  /// registered flows: sum over jobs of c_j * d_j / n_eff_j. Provably
  /// <= 1 (+ float tolerance) under the overlap-weighted fair share — the
  /// auditor's "link-share" invariant; exactly 1.0 on a saturated link
  /// with duty cycles off.
  double share_sum(std::size_t link) const;

  /// True iff the incremental per-link state equals what registering every
  /// job's current flow set from scratch would produce (auditor helper).
  bool equals(const LinkModel& other) const;

  void save_state(io::BinWriter& w) const;
  void restore_state(io::BinReader& r);

 private:
  void add_flows(JobId job, const std::vector<Flow>& flows, int sign);
  void touch_job(JobId job);
  /// Bumps `job` and every job registered on a link `job`'s flows traverse.
  void bump_link_sharers(JobId job);
  /// Links traversed by a flow (2 NICs + up to 2 uplinks), deduplicated.
  int path_links(ServerId a, ServerId b, std::size_t out[4]) const;

  std::size_t server_count_ = 0;
  int servers_per_rack_ = 0;
  std::vector<double> capacity_;                  ///< per link; <= 0 = unconstrained
  std::vector<std::vector<LinkEntry>> entries_;   ///< per link, sorted by job id
  std::vector<std::vector<Flow>> flows_;          ///< per job, registration order
  std::vector<double> duty_;                      ///< per job, default 1.0
  std::vector<double> phase_;                     ///< per job, default 0.0
  std::vector<std::uint64_t> versions_;           ///< per job, grown on first bump
};

}  // namespace mlfs
