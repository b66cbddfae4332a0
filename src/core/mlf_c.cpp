#include "core/mlf_c.hpp"

#include "common/binio.hpp"

namespace mlfs::core {

MlfC::MlfC(const LoadControlParams& params) : params_(params) {}

void MlfC::before_schedule(Cluster& cluster, const std::vector<TaskId>& queue, SimTime now) {
  if (!params_.enabled) {
    overloaded_ = false;
    return;
  }
  // §3.5: the system is overloaded when there are queued tasks or when the
  // cluster overload degree exceeds h_s. "Queued" means backlog — tasks
  // that already waited past a round or two — not tasks in transit to
  // their first placement.
  bool backlog = false;
  for (const TaskId tid : queue) {
    const Task& t = cluster.task(tid);
    if (t.state == TaskState::Queued && now - t.queued_since >= kBacklogSeconds) {
      backlog = true;
      break;
    }
  }
  overloaded_ = backlog || cluster.overload_degree() > params_.hs;
  if (!overloaded_) return;

  // Every unfinished job, not just the live set: a job that arrives during
  // an overload starts at its downgraded policy.
  for (Job& job : cluster.jobs()) {
    if (job.done()) continue;
    const StopPolicy next =
        job.active_policy() == StopPolicy::FixedIterations ? StopPolicy::OptStop
                                                           : StopPolicy::AccuracyOnly;
    if (job.downgrade_policy(next)) ++downgrades_;
  }
}

void MlfC::save_state(std::ostream& os) const {
  std::string bytes;
  io::BinWriter w(bytes);
  w.boolean(overloaded_);
  w.u64(downgrades_);
  io::write_all(os, bytes);
}

void MlfC::restore_state(std::istream& is) {
  const std::string bytes = io::read_all(is);
  io::BinReader r(bytes);
  overloaded_ = r.boolean();
  downgrades_ = static_cast<std::size_t>(r.u64());
}

}  // namespace mlfs::core
