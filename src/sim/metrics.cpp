#include "sim/metrics.hpp"

#include <sstream>

#include "common/table.hpp"

namespace mlfs {

std::string RunMetrics::summary() const {
  std::ostringstream os;
  os << scheduler << ": jobs=" << job_count;
  if (jobs_injected > 0) os << " (" << jobs_injected << " streamed)";
  os
     << " avgJCT=" << format_double(average_jct_minutes(), 1) << "min"
     << " makespan=" << format_double(makespan_hours, 1) << "h"
     << " deadline=" << format_double(100.0 * deadline_ratio, 1) << "%"
     << " wait=" << format_double(average_waiting_seconds(), 0) << "s"
     << " acc=" << format_double(average_accuracy, 3)
     << " accOK=" << format_double(100.0 * accuracy_ratio, 1) << "%"
     << " bw=" << format_double(bandwidth_tb, 2) << "TB"
     << " sched=" << format_double(sched_overhead_ms, 2) << "ms"
     << " rounds=" << sched_rounds;
  if (candidates_scanned > 0) {
    os << " scans=" << candidates_scanned;
    const std::size_t lookups = comm_cache_hits + comm_cache_misses;
    if (lookups > 0) {
      os << " commHit="
         << format_double(100.0 * static_cast<double>(comm_cache_hits) /
                              static_cast<double>(lookups),
                          1)
         << "%";
    }
  }
  if (server_failures > 0 || task_kills > 0) {
    os << " failures=" << server_failures << " kills=" << task_kills
       << " goodput=" << format_double(goodput, 3)
       << " lost=" << format_double(work_lost_gpu_seconds, 0) << "gpu-s"
       << " recovery=" << format_double(mean_recovery_seconds, 0) << "s";
  }
  if (fits_cold + fits_warm > 0) {
    os << " fits=" << fits_cold << "c/" << fits_warm << "w"
       << " fitHits=" << prediction_cache_hits << " nmEvals=" << nm_objective_evals
       << " fitWall=" << format_double(fit_wall_ms, 0) << "ms";
  }
  if (link_busy_seconds > 0.0 || phase_offset_hits > 0) {
    os << " linkBusy=" << format_double(link_busy_seconds, 0) << "s"
       << " contention=" << format_double(contention_slowdown_seconds, 0) << "s"
       << " rephased=" << phase_offset_hits;
  }
  if (quarantines > 0 || task_retries > 0 || jobs_failed_permanent > 0) {
    os << " quarantines=" << quarantines << " retries=" << task_retries
       << " backoff=" << format_double(backoff_delay_seconds, 0) << "s"
       << " failedPerm=" << jobs_failed_permanent
       << " absorbed=" << crashes_absorbed
       << " avoided=" << format_double(wasted_work_avoided_gpu_seconds, 0) << "gpu-s";
  }
  return os.str();
}

}  // namespace mlfs
