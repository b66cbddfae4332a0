#include "sim/placement_index.hpp"

#include <limits>

#include "common/expect.hpp"

namespace mlfs {

void PlacementIndex::reset(std::size_t server_count, double hr, int bucket_count) {
  MLFS_EXPECT(bucket_count >= 1);
  MLFS_EXPECT(hr > 0.0);
  hr_ = hr;
  bucket_count_ = bucket_count;
  member_count_ = 0;
  boundaries_.resize(static_cast<std::size_t>(bucket_count));
  // boundary(0) = -inf keeps bucket 0 unprunable: drifted (slightly
  // negative) sums land there and always reach the exact check.
  boundaries_[0] = -std::numeric_limits<double>::infinity();
  for (int b = 1; b < bucket_count; ++b) {
    boundaries_[static_cast<std::size_t>(b)] =
        hr * static_cast<double>(b) / static_cast<double>(bucket_count);
  }
  member_.assign(server_count, 0);
  for (int d = 0; d < kDims; ++d) {
    loads_[d].assign(server_count, 0.0);
    bucket_of_[d].assign(server_count, -1);
  }
}

int PlacementIndex::bucket_for_load(double load) const {
  // Arithmetic guess, then an exact adjustment against the stored
  // boundaries: the guess is within one bucket of the answer, but the
  // membership rule (boundaries_[b] <= load < boundaries_[b+1]) must be
  // decided by the same doubles the query compares against, not by the
  // (differently rounded) division here.
  int b = static_cast<int>(load / hr_ * static_cast<double>(bucket_count_));
  if (b < 0) b = 0;
  if (b >= bucket_count_) b = bucket_count_ - 1;
  while (b > 0 && boundaries_[static_cast<std::size_t>(b)] > load) --b;
  while (b + 1 < bucket_count_ && boundaries_[static_cast<std::size_t>(b + 1)] <= load) ++b;
  return b;
}

void PlacementIndex::set_server(ServerId id, bool member, double least_gpu_load, double cpu,
                                double mem, double net) {
  MLFS_EXPECT(id < member_.size());
  const double loads[kDims] = {least_gpu_load, cpu, mem, net};
  const bool was_member = member_[id] != 0;
  for (int d = 0; d < kDims; ++d) {
    loads_[d][id] = loads[d];
    bucket_of_[d][id] = member ? bucket_for_load(loads[d]) : -1;
  }
  if (member != was_member) {
    member_[id] = member ? 1 : 0;
    member_count_ += member ? 1 : std::size_t(-1);
  }
}

std::size_t PlacementIndex::collect_feasible(double hr, double u_gpu, double u_cpu, double u_mem,
                                             double u_net, ServerId skip,
                                             std::vector<ServerId>& out) const {
  ++stats_.queries;
  if (member_count_ == 0) return 0;
  const double usage[kDims] = {u_gpu, u_cpu, u_mem, u_net};

  // Per dimension: the highest bucket whose members could still pass that
  // dimension's comparison. Arithmetic guess plus an exact adjustment — the
  // prune predicate fl(boundary(b) + u_d) > hr is monotone in b (boundaries
  // ascend, IEEE addition is monotone), so nudging the guess until the
  // predicate flips lands on the same cutoff a full descent from the top
  // would. Bucket 0 (boundary -inf) always qualifies.
  int cutoffs[kDims];
  for (int d = 0; d < kDims; ++d) {
    int b = static_cast<int>((hr - usage[d]) / hr_ * static_cast<double>(bucket_count_));
    if (b < 0) b = 0;
    if (b >= bucket_count_) b = bucket_count_ - 1;
    while (b > 0 && boundaries_[static_cast<std::size_t>(b)] + usage[d] > hr) --b;
    while (b + 1 < bucket_count_ &&
           !(boundaries_[static_cast<std::size_t>(b + 1)] + usage[d] > hr)) {
      ++b;
    }
    cutoffs[d] = b;
  }
  // Instrumentation: wholesale-eliminated buckets along the GPU dimension
  // (the dimension the exact check is keyed on in the paper's funnel).
  stats_.buckets_pruned += static_cast<std::size_t>(bucket_count_ - 1 - cutoffs[0]);

  // Flat ascending walk over the membership — output lands in the linear
  // funnel's candidate order with no sort. Four integer compares resolve
  // almost every member wholesale:
  //   - above any cutoff  -> provably infeasible (pruned): bucket b of
  //     dimension d holds load_d >= boundary(b) and fl(boundary(b)+u_d) >
  //     hr, and IEEE addition is monotone, so the exact check would reject.
  //   - strictly below every cutoff -> provably feasible (bypassed):
  //     bucket b < cutoff means load_d < boundary(b+1) <= boundary(cutoff)
  //     and fl(boundary(cutoff)+u_d) <= hr, so by the same monotonicity the
  //     exact check would accept on every dimension.
  // Only members sitting exactly on a cutoff (boundary) bucket need the
  // exact four-comparison check — identical doubles, identical comparisons
  // to the linear funnel, so the emitted feasible set is byte-identical.
  std::size_t examined = 0;
  std::size_t bypassed = 0;
  const std::size_t n = member_.size();
  for (ServerId id = 0; id < n; ++id) {
    if (member_[id] == 0 || id == skip) continue;
    if (bucket_of_[0][id] > cutoffs[0] || bucket_of_[1][id] > cutoffs[1] ||
        bucket_of_[2][id] > cutoffs[2] || bucket_of_[3][id] > cutoffs[3]) {
      continue;
    }
    if (bucket_of_[0][id] < cutoffs[0] && bucket_of_[1][id] < cutoffs[1] &&
        bucket_of_[2][id] < cutoffs[2] && bucket_of_[3][id] < cutoffs[3]) {
      ++bypassed;
      out.push_back(id);
      continue;
    }
    ++examined;
    if (loads_[1][id] + u_cpu > hr || loads_[2][id] + u_mem > hr ||
        loads_[3][id] + u_net > hr || loads_[0][id] + u_gpu > hr) {
      continue;
    }
    out.push_back(id);
  }
  stats_.servers_examined += examined;
  stats_.servers_bypassed += bypassed;
  const std::size_t skip_member =
      (skip != kInvalidServer && skip < member_.size() && member_[skip] != 0) ? 1 : 0;
  stats_.servers_pruned += member_count_ - skip_member - examined - bypassed;
  return examined;
}

void PlacementIndex::save_state(io::BinWriter& w) const {
  io::write_fields(w, stats_);
}

void PlacementIndex::restore_state(io::BinReader& r) {
  io::read_fields(r, stats_);
}

}  // namespace mlfs
