#include "sim/server.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "sim/cluster.hpp"

namespace mlfs {

Server::Server(ServerId id, int gpu_count, double speed)
    : id_(id), gpu_count_(gpu_count), speed_(speed) {
  MLFS_EXPECT(gpu_count >= 1);
  MLFS_EXPECT(speed > 0.0);
  gpu_tasks_.resize(static_cast<std::size_t>(gpu_count));
  gpu_sums_.resize(static_cast<std::size_t>(gpu_count), 0.0);
}

const std::vector<TaskId>& Server::tasks_on_gpu(int gpu) const {
  MLFS_EXPECT(gpu >= 0 && gpu < gpu_count_);
  return gpu_tasks_[static_cast<std::size_t>(gpu)];
}

void Server::attach_task(const Task& task, int gpu) {
  MLFS_EXPECT(up_);  // placing onto a down server is a contract violation
  MLFS_EXPECT(gpu >= 0 && gpu < gpu_count_);
  tasks_.push_back(task.id);
  gpu_tasks_[static_cast<std::size_t>(gpu)].push_back(task.id);
  const ResourceVector usage = task.demand * task.usage_factor;
  cpu_sum_ += usage[Resource::Cpu];
  mem_sum_ += usage[Resource::Mem];
  net_sum_ += usage[Resource::Net];
  gpu_sums_[static_cast<std::size_t>(gpu)] += usage[Resource::Gpu];
}

void Server::detach_task(const Task& task, int gpu) {
  MLFS_EXPECT(gpu >= 0 && gpu < gpu_count_);
  auto erase_from = [&task](std::vector<TaskId>& v) {
    const auto it = std::find(v.begin(), v.end(), task.id);
    MLFS_EXPECT(it != v.end());
    v.erase(it);
  };
  erase_from(tasks_);
  erase_from(gpu_tasks_[static_cast<std::size_t>(gpu)]);
  const ResourceVector usage = task.demand * task.usage_factor;
  cpu_sum_ = std::max(0.0, cpu_sum_ - usage[Resource::Cpu]);
  mem_sum_ = std::max(0.0, mem_sum_ - usage[Resource::Mem]);
  net_sum_ = std::max(0.0, net_sum_ - usage[Resource::Net]);
  auto& g = gpu_sums_[static_cast<std::size_t>(gpu)];
  g = std::max(0.0, g - usage[Resource::Gpu]);
}

void Server::adjust_usage(const Task& task, double old_factor, double new_factor) {
  const double delta = new_factor - old_factor;
  cpu_sum_ += task.demand[Resource::Cpu] * delta;
  mem_sum_ += task.demand[Resource::Mem] * delta;
  net_sum_ += task.demand[Resource::Net] * delta;
  MLFS_EXPECT(task.gpu >= 0 && task.gpu < gpu_count_);
  gpu_sums_[static_cast<std::size_t>(task.gpu)] += task.demand[Resource::Gpu] * delta;
}

ResourceVector Server::utilization() const {
  double gpu_total = 0.0;
  for (const double g : gpu_sums_) gpu_total += g;
  return {gpu_total / static_cast<double>(gpu_count_), cpu_sum_, mem_sum_, net_sum_};
}

double Server::gpu_load(int gpu) const {
  MLFS_EXPECT(gpu >= 0 && gpu < gpu_count_);
  return gpu_sums_[static_cast<std::size_t>(gpu)];
}

int Server::least_loaded_gpu() const {
  int best = 0;
  for (int g = 1; g < gpu_count_; ++g) {
    if (gpu_sums_[static_cast<std::size_t>(g)] < gpu_sums_[static_cast<std::size_t>(best)]) {
      best = g;
    }
  }
  return best;
}

int Server::best_fitting_gpu(const Task& task, double hr) const {
  const ResourceVector usage = task.demand * task.usage_factor;
  const int least = least_loaded_gpu();
  if (fits_usage_without_overload(usage, least, hr)) return least;
  int best = kNoGpu;
  for (int g = 0; g < gpu_count_; ++g) {
    if (g == least || !fits_usage_without_overload(usage, g, hr)) continue;
    if (best == kNoGpu || gpu_sums_[static_cast<std::size_t>(g)] <
                              gpu_sums_[static_cast<std::size_t>(best)]) {
      best = g;
    }
  }
  return best;
}

bool Server::overloaded(double hr) const {
  if (cpu_sum_ > hr || mem_sum_ > hr || net_sum_ > hr) return true;
  for (const double g : gpu_sums_) {
    if (g > hr) return true;
  }
  return false;
}

bool Server::fits_without_overload(const Task& task, int gpu, double hr) const {
  return fits_usage_without_overload(task.demand * task.usage_factor, gpu, hr);
}

void Server::save_state(io::BinWriter& w) const {
  w.boolean(up_);
  w.i64(placement_cap_);
  w.vec(tasks_, [&w](TaskId t) { w.u64(t); });
  w.u64(gpu_tasks_.size());
  for (const std::vector<TaskId>& g : gpu_tasks_) {
    w.vec(g, [&w](TaskId t) { w.u64(t); });
  }
  w.f64(cpu_sum_);
  w.f64(mem_sum_);
  w.f64(net_sum_);
  w.vec_f64(gpu_sums_);
}

void Server::restore_state(io::BinReader& r) {
  up_ = r.boolean();
  placement_cap_ = static_cast<int>(r.i64());
  tasks_ = r.vec<TaskId>([&r] { return static_cast<TaskId>(r.u64()); });
  const std::uint64_t gpus = r.u64();
  MLFS_EXPECT(gpus == gpu_tasks_.size());  // static shape, set by the ctor
  for (std::vector<TaskId>& g : gpu_tasks_) {
    g = r.vec<TaskId>([&r] { return static_cast<TaskId>(r.u64()); });
  }
  cpu_sum_ = r.f64();
  mem_sum_ = r.f64();
  net_sum_ = r.f64();
  gpu_sums_ = r.vec_f64();
  MLFS_EXPECT(gpu_sums_.size() == static_cast<std::size_t>(gpu_count_));
}

bool Server::fits_usage_without_overload(const ResourceVector& usage, int gpu, double hr) const {
  MLFS_EXPECT(gpu >= 0 && gpu < gpu_count_);
  if (!accepts_placements()) return false;
  if (cpu_sum_ + usage[Resource::Cpu] > hr) return false;
  if (mem_sum_ + usage[Resource::Mem] > hr) return false;
  if (net_sum_ + usage[Resource::Net] > hr) return false;
  if (gpu_sums_[static_cast<std::size_t>(gpu)] + usage[Resource::Gpu] > hr) return false;
  return true;
}

}  // namespace mlfs
