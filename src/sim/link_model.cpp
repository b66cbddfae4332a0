#include "sim/link_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"

namespace mlfs {

namespace {

// Circular overlap of arcs [s1, s1+d1) and [s2, s2+d2) on the unit circle.
double circular_overlap(double s1, double d1, double s2, double d2) {
  MLFS_EXPECT(d1 >= 0.0 && d1 <= 1.0 && d2 >= 0.0 && d2 <= 1.0);
  // Linear-interval overlap of [a1, a1+d1) and [a2, a2+d2).
  const auto linear = [](double a1, double l1, double a2, double l2) {
    return std::max(0.0, std::min(a1 + l1, a2 + l2) - std::max(a1, a2));
  };
  // Unrolling the circle: arc 2 can intersect arc 1 directly or via the
  // wrap-around copies one period to either side.
  double ov = linear(s1, d1, s2, d2) + linear(s1, d1, s2 - 1.0, d2) +
              linear(s1, d1, s2 + 1.0, d2);
  return std::min(ov, std::min(d1, d2));
}

}  // namespace

void LinkModel::reset(std::size_t server_count, int servers_per_rack,
                      double nic_capacity_mbps, double uplink_capacity_mbps) {
  server_count_ = server_count;
  servers_per_rack_ = servers_per_rack;
  std::size_t racks = 0;
  if (servers_per_rack_ > 0) {
    racks = (server_count_ + static_cast<std::size_t>(servers_per_rack_) - 1) /
            static_cast<std::size_t>(servers_per_rack_);
  }
  capacity_.assign(server_count_ + racks, nic_capacity_mbps);
  for (std::size_t r = 0; r < racks; ++r) capacity_[server_count_ + r] = uplink_capacity_mbps;
  entries_.assign(capacity_.size(), {});
  flows_.clear();
  duty_.clear();
  phase_.clear();
  versions_.clear();
}

void LinkModel::touch_job(JobId job) {
  if (job >= flows_.size()) {
    flows_.resize(job + 1);
    duty_.resize(job + 1, 1.0);
    phase_.resize(job + 1, 0.0);
  }
}

void LinkModel::set_job_duty_cycle(JobId job, double duty) {
  MLFS_EXPECT(duty > 0.0 && duty <= 1.0);
  touch_job(job);
  duty_[job] = duty;
  bump_link_sharers(job);
}

double LinkModel::job_duty_cycle(JobId job) const {
  return job < duty_.size() ? duty_[job] : 1.0;
}

bool LinkModel::set_phase_offset(JobId job, double offset) {
  MLFS_EXPECT(offset >= 0.0 && offset < 1.0);
  touch_job(job);
  if (phase_[job] == offset) return false;
  phase_[job] = offset;
  bump_link_sharers(job);
  return true;
}

double LinkModel::phase_offset(JobId job) const {
  return job < phase_.size() ? phase_[job] : 0.0;
}

double LinkModel::comm_overlap(JobId a, JobId b) const {
  return circular_overlap(phase_offset(a), job_duty_cycle(a), phase_offset(b),
                          job_duty_cycle(b));
}

int LinkModel::path_links(ServerId a, ServerId b, std::size_t out[4]) const {
  MLFS_EXPECT(a < server_count_ && b < server_count_ && a != b);
  int n = 0;
  out[n++] = nic_link(a);
  out[n++] = nic_link(b);
  if (servers_per_rack_ > 0) {
    const int ra = rack_of(a);
    const int rb = rack_of(b);
    if (ra != rb) {
      out[n++] = uplink_link(ra);
      out[n++] = uplink_link(rb);
    }
  }
  return n;
}

void LinkModel::add_flows(JobId job, const std::vector<Flow>& flows, int sign) {
  std::size_t links[4];
  for (const Flow& f : flows) {
    const int n = path_links(f.a, f.b, links);
    for (int i = 0; i < n; ++i) {
      std::vector<LinkEntry>& on_link = entries_[links[i]];
      const auto it = std::lower_bound(
          on_link.begin(), on_link.end(), job,
          [](const LinkEntry& e, JobId j) { return e.job < j; });
      if (sign > 0) {
        if (it != on_link.end() && it->job == job) {
          ++it->flows;
        } else {
          on_link.insert(it, LinkEntry{job, 1});
        }
      } else {
        MLFS_EXPECT(it != on_link.end() && it->job == job && it->flows > 0);
        if (--it->flows == 0) on_link.erase(it);
      }
    }
  }
}

void LinkModel::update_job_flows(JobId job, std::vector<Flow> flows) {
  touch_job(job);
  // Every job on a link that loses or gains one of these flows sees its
  // concurrency move: bump the old links' sharers and the new links'.
  bump_link_sharers(job);
  add_flows(job, flows_[job], -1);
  flows_[job] = std::move(flows);
  add_flows(job, flows_[job], +1);
  bump_link_sharers(job);
}

void LinkModel::bump_comm_version(JobId job) {
  if (job >= versions_.size()) versions_.resize(job + 1, 0);
  ++versions_[job];
}

void LinkModel::bump_link_sharers(JobId job) {
  bump_comm_version(job);
  std::size_t links[4];
  for (const Flow& f : flows_[job]) {
    const int n = path_links(f.a, f.b, links);
    for (int i = 0; i < n; ++i) {
      for (const LinkEntry& e : entries_[links[i]]) bump_comm_version(e.job);
    }
  }
}

const std::vector<LinkModel::Flow>& LinkModel::job_flows(JobId job) const {
  static const std::vector<Flow> kEmpty;
  return job < flows_.size() ? flows_[job] : kEmpty;
}

std::uint32_t LinkModel::total_flows_on(std::size_t link) const {
  std::uint32_t n = 0;
  for (const LinkEntry& e : entries_[link]) n += e.flows;
  return n;
}

double LinkModel::effective_concurrency(std::size_t link, JobId job) const {
  const double d = job_duty_cycle(job);
  double n = 0.0;
  bool present = false;
  for (const LinkEntry& e : entries_[link]) {
    if (e.job == job) {
      // The job's own flows are simultaneously active during its window.
      n += static_cast<double>(e.flows);
      present = true;
    } else {
      n += static_cast<double>(e.flows) * comm_overlap(job, e.job) / d;
    }
  }
  return present ? n : 0.0;
}

double LinkModel::flow_bandwidth(JobId job, ServerId a, ServerId b,
                                 double base_mbps) const {
  std::size_t links[4];
  const int n = path_links(a, b, links);
  double bw = base_mbps;
  for (int i = 0; i < n; ++i) {
    const double cap = capacity_[links[i]];
    if (cap <= 0.0) continue;  // unconstrained link class
    double conc = effective_concurrency(links[i], job);
    // A flow queried before registration (or on a link the job has no flow
    // on) still occupies the link itself while transferring, alongside
    // every overlap-weighted flow already registered there.
    if (conc == 0.0) {
      conc = 1.0;
      for (const LinkEntry& e : entries_[links[i]]) {
        if (e.job == job) continue;
        conc += static_cast<double>(e.flows) * comm_overlap(job, e.job) / job_duty_cycle(job);
      }
    }
    bw = std::min(bw, cap / conc);
  }
  return bw;
}

double LinkModel::share_sum(std::size_t link) const {
  double sum = 0.0;
  for (const LinkEntry& e : entries_[link]) {
    const double n_eff = effective_concurrency(link, e.job);
    MLFS_EXPECT(n_eff >= static_cast<double>(e.flows));
    sum += static_cast<double>(e.flows) * job_duty_cycle(e.job) / n_eff;
  }
  return sum;
}

bool LinkModel::equals(const LinkModel& other) const {
  if (server_count_ != other.server_count_ || servers_per_rack_ != other.servers_per_rack_ ||
      capacity_ != other.capacity_ || entries_ != other.entries_) {
    return false;
  }
  // Flow sets compare over the union of registered jobs (a job index absent
  // on one side is equivalent to an empty registration).
  const std::size_t jobs = std::max(flows_.size(), other.flows_.size());
  for (JobId j = 0; j < jobs; ++j) {
    if (!(job_flows(j) == other.job_flows(j))) return false;
    if (job_duty_cycle(j) != other.job_duty_cycle(j)) return false;
    if (phase_offset(j) != other.phase_offset(j)) return false;
  }
  return true;
}

void LinkModel::save_state(io::BinWriter& w) const {
  // Static structure (capacities, rack layout) comes from the config; only
  // the dynamic per-job state is written. Flow sets are a pure function of
  // placements, but persisting them keeps restore independent of replay
  // order and lets the auditor's conservation check run immediately.
  static_assert(io::lists_every_field<Flow>);
  w.u64(flows_.size());
  for (JobId j = 0; j < flows_.size(); ++j) {
    w.vec(flows_[j], [&w](const Flow& f) { io::write_fields(w, f); });
    w.f64(duty_[j]);
    w.f64(phase_[j]);
  }
}

void LinkModel::restore_state(io::BinReader& r) {
  // Rebuild the per-link tables by re-registering every job's flow set —
  // insertion is order-independent (entries stay sorted by job id), so the
  // result is bit-identical to the saving model's incremental state.
  for (std::vector<LinkEntry>& on_link : entries_) on_link.clear();
  flows_.clear();
  duty_.clear();
  phase_.clear();
  const std::uint64_t jobs = r.u64();
  for (std::uint64_t j = 0; j < jobs; ++j) {
    std::vector<Flow> flows = r.vec<Flow>([&r] {
      Flow f;
      io::read_fields(r, f);
      return f;
    });
    const double duty = r.f64();
    const double phase = r.f64();
    const JobId id = static_cast<JobId>(j);
    touch_job(id);
    duty_[id] = duty;
    phase_[id] = phase;
    update_job_flows(id, std::move(flows));
  }
}

}  // namespace mlfs
