// Bucketed feasibility index over the server load vectors — the sublinear
// candidate funnel behind MlfPlacement's RIAL-style host query (see
// DESIGN.md, "Scheduler hot path").
//
// The linear funnel runs the four-comparison feasibility check
// (cpu/mem/net sums + least-loaded-GPU load against hr) on every
// underloaded server per placement call. This index makes almost every
// verdict wholesale: each member's four load dimensions are quantized
// into buckets (boundary(b) = hr·b/K), a query derives — per dimension —
// the highest bucket whose members could still pass that dimension's
// comparison (the cutoff), and then classifies each member with four
// integer compares of its bucket ids against the cutoffs:
//   above any cutoff          -> provably infeasible (pruned),
//   strictly below every one  -> provably feasible (bypassed),
//   on a cutoff bucket        -> the exact four-comparison check.
// Only the last class counts toward candidates_scanned, so the funnel's
// exact-check count shrinks to the boundary-bucket population while the
// emitted feasible set (and therefore every scheduling decision) stays
// byte-identical to the linear funnel's.
//
// FP soundness of both wholesale rules rests on IEEE addition being
// monotone in its operands:
//   prune:  bucket b holds load_r >= boundary(b); if fl(boundary(b) + u_r)
//           > hr then fl(load_r + u_r) >= fl(boundary(b) + u_r) > hr —
//           exactly the comparison the four-check performs.
//   bypass: bucket b < cutoff holds load_r < boundary(b+1) <=
//           boundary(cutoff), and fl(boundary(cutoff) + u_r) <= hr by the
//           cutoff's definition, so fl(load_r + u_r) <= hr.
// boundary(0) = -inf, so bucket 0 is never pruned and slightly-negative
// drifted sums are still indexed (and bypassed or examined like any other
// member).
//
// Deliberately NO per-bucket member lists: the underloaded membership is
// a small fraction of the fleet under the saturation this index targets,
// so a flat ascending walk over the membership flags — four integer
// compares per member, output already in the linear funnel's order —
// beats maintaining sorted per-bucket lists (whose surgery cost, not the
// query, dominated earlier designs). Maintenance is four stores and four
// quantizations per reindex.
#pragma once

#include <cstdint>
#include <vector>

#include "common/binio.hpp"
#include "workload/ids.hpp"

namespace mlfs {

/// Query-side instrumentation (surfaced through RunMetrics).
struct PlacementIndexStats {
  std::size_t queries = 0;           ///< collect_feasible calls
  std::size_t servers_examined = 0;  ///< members exact-checked across queries
  std::size_t servers_pruned = 0;    ///< members rejected by bucket bound alone
  std::size_t buckets_pruned = 0;    ///< buckets above the GPU-dimension cutoff
  std::size_t servers_bypassed = 0;  ///< members emitted feasible by bucket bound alone

  /// Snapshot order (io::write_fields / read_fields).
  static constexpr auto fields() {
    return std::tuple{&PlacementIndexStats::queries, &PlacementIndexStats::servers_examined,
                      &PlacementIndexStats::servers_pruned, &PlacementIndexStats::buckets_pruned,
                      &PlacementIndexStats::servers_bypassed};
  }
};
static_assert(io::lists_every_field<PlacementIndexStats>);

class PlacementIndex {
 public:
  /// Indexed load dimensions, in the order the feasibility check reads
  /// them: least-loaded-GPU load, then the CPU/MEM/NET usage sums.
  static constexpr int kDims = 4;

  /// Resets the index for a fleet of `server_count` servers under overload
  /// threshold `hr` with `bucket_count` buckets per dimension; every server
  /// starts as a non-member. Call set_server for each to populate.
  void reset(std::size_t server_count, double hr, int bucket_count);

  /// Installs server `id`'s membership and load vector. `member` mirrors
  /// the cluster's underloaded partition; the four loads must be the exact
  /// doubles the cluster's refresh caches (index_least_load_ /
  /// index_util_ components) so the cutoff-bucket exact checks reproduce
  /// the linear funnel bit for bit.
  void set_server(ServerId id, bool member, double least_gpu_load, double cpu, double mem,
                  double net);

  /// Feasible candidates for a task with usage components (u_gpu..u_net)
  /// under threshold `hr`: appends to `out` — ascending, the linear
  /// funnel's candidate order — every member whose exact four-comparison
  /// check would pass, skipping `skip` (kInvalidServer = no skip). Returns
  /// the number of members exact-checked (the candidates_scanned
  /// currency); bucket-bound classifications are free.
  std::size_t collect_feasible(double hr, double u_gpu, double u_cpu, double u_mem, double u_net,
                               ServerId skip, std::vector<ServerId>& out) const;

  std::size_t member_count() const { return member_count_; }
  bool is_member(ServerId id) const { return member_[id] != 0; }
  std::size_t server_count() const { return member_.size(); }
  bool initialized() const { return !member_.empty(); }

  const PlacementIndexStats& stats() const { return stats_; }

  // --- introspection for the auditor and tests ---
  int bucket_count() const { return bucket_count_; }
  double hr() const { return hr_; }
  /// Lower boundary of bucket `b` (boundary(0) == -infinity).
  double boundary(int b) const { return boundaries_[static_cast<std::size_t>(b)]; }
  /// Bucket holding `id` along `dim` (meaningful only while a member).
  int bucket_of(int dim, ServerId id) const {
    return bucket_of_[static_cast<std::size_t>(dim)][id];
  }
  double load_of(int dim, ServerId id) const {
    return loads_[static_cast<std::size_t>(dim)][id];
  }
  /// Bucket a load value maps to (boundaries_[b] <= load < boundaries_[b+1]).
  int bucket_for_load(double load) const;

  /// Snapshot support: only the stats counters are serialized — the
  /// structure itself is rebuilt by Cluster::restore_state from the
  /// restored refresh-time caches (which this index mirrors exactly), so
  /// the round-trip is bit-identical without a second copy of the fleet.
  void save_state(io::BinWriter& w) const;
  void restore_state(io::BinReader& r);

 private:
  double hr_ = 0.0;
  int bucket_count_ = 0;
  std::size_t member_count_ = 0;
  std::vector<double> boundaries_;  ///< [bucket_count_]; [0] = -inf
  std::vector<char> member_;
  /// SoA load values per dimension ([kDims][server]); exact copies of the
  /// cluster's refresh-time caches for members (stale for non-members).
  std::vector<double> loads_[kDims];
  /// Quantized bucket id per dimension ([kDims][server]) — what the query
  /// compares against the cutoffs (-1 for non-members).
  std::vector<std::int32_t> bucket_of_[kDims];
  mutable PlacementIndexStats stats_;
};

}  // namespace mlfs
