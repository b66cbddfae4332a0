#include "predict/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "common/expect.hpp"

namespace mlfs {

PredictionService::PredictionService(int check_interval, bool coarsen)
    : check_interval_(check_interval), coarsen_(coarsen) {
  MLFS_EXPECT(check_interval_ >= 1);
}

int PredictionService::first_link() const {
  // Smallest multiple of the check interval that passes the engine's
  // OptStop gate (done >= 3) and carries enough points to fit.
  const int least = std::max(3, static_cast<int>(kMinCurveObservations));
  return ((least + check_interval_ - 1) / check_interval_) * check_interval_;
}

int PredictionService::quantize(int done) const {
  const int k = (done / check_interval_) * check_interval_;
  return k >= first_link() ? k : 0;
}

void PredictionService::backfill(JobState& st, const Job& job, int done) const {
  while (static_cast<int>(st.observed.size()) < done) {
    const int next = static_cast<int>(st.observed.size()) + 1;
    st.observed.push_back(job.curve().accuracy_at(next));
  }
}

namespace {

/// First search step of a cold fit, and the cap on a warm fit's step.
constexpr double kColdStep = NelderMeadOptions{}.initial_step;

/// Coarsened tail bin of 0-based observation index i (valid for
/// i >= head): log-spaced, ~per_octave bins per doubling.
int coarse_bin(int i, int head, int per_octave) {
  return static_cast<int>(std::floor(
      static_cast<double>(per_octave) *
      std::log2(static_cast<double>(i + 1) / static_cast<double>(head))));
}

/// Logarithmic tail subsample: the first `head` observations exactly, the
/// last observation always, and otherwise the last index of each log bin.
void build_coarse_points(std::span<const double> obs, int head, int per_octave,
                         std::vector<double>& xs, std::vector<double>& ys) {
  const int n = static_cast<int>(obs.size());
  xs.clear();
  ys.clear();
  for (int i = 0; i < n; ++i) {
    const bool keep = i < head || i == n - 1 ||
                      coarse_bin(i, head, per_octave) != coarse_bin(i + 1, head, per_octave);
    if (keep) {
      xs.push_back(static_cast<double>(i + 1));
      ys.push_back(obs[i]);
    }
  }
}

}  // namespace

void PredictionService::fit_link(JobState& st, int done) {
  MLFS_EXPECT(static_cast<int>(st.observed.size()) >= done);
  const std::span<const double> obs(st.observed.data(), static_cast<std::size_t>(done));
  std::vector<double> xs, ys;
  curve_detail::FitPoints points{obs};
  if (coarsen_ && done > kCoarsenHead) {
    build_coarse_points(obs, kCoarsenHead, kCoarsenPerOctave, xs, ys);
    points = {ys, xs};
  }

  const auto& bs = curve_detail::bases();
  LinkRecord rec;
  rec.done = done;
  rec.basis.resize(bs.size());
  const LinkRecord* prev = st.links.empty() ? nullptr : &st.links.back();

  for (std::size_t bi = 0; bi < bs.size(); ++bi) {
    BasisFitRec& out = rec.basis[bi];
    const BasisFitRec* pb = prev ? &prev->basis[bi] : nullptr;
    if (pb != nullptr && pb->frozen) {
      out = *pb;  // frozen: params/rmse carried forward, never refit
      continue;
    }
    const curve_detail::Basis& basis = bs[bi];
    const auto fit = [&](const std::vector<double>& start, double initial_step) {
      curve_detail::FitResult r = curve_detail::fit_basis(basis, points, start, initial_step);
      stats_.nm_objective_evals += r.evaluations;
      return r;
    };

    curve_detail::FitResult res;
    bool settled = false;
    if (pb == nullptr) {
      res = fit(basis.init, kColdStep);
      ++stats_.fits_cold;
      out.restarts = 0;
    } else if (pb->restarts >= kRestartBudget) {
      // Budget spent: this basis regresses chronically under warm starts;
      // one cold fit per link beats warm-then-cold double fits.
      res = fit(basis.init, kColdStep);
      ++stats_.fits_cold;
      out.restarts = pb->restarts;
    } else {
      // Settled-fit probe: if the previous params still explain the grown
      // prefix, carry them forward for one objective evaluation.
      ++stats_.nm_objective_evals;
      const double probe = curve_detail::fit_residual(basis, pb->params, points);
      if (probe <= kSettleFactor * pb->value + kSettleEpsilon) {
        out.params = pb->params;
        out.value = probe;
        out.rmse = std::sqrt(std::max(probe, 0.0));
        out.drift = 0.0;
        out.restarts = pb->restarts;
        settled = true;
      } else {
        const double step =
            pb->drift < 0.0
                ? kColdStep
                : std::clamp(kWarmStepScale * pb->drift, kWarmStepFloor, kColdStep);
        res = fit(pb->params, step);
        ++stats_.fits_warm;
        out.restarts = pb->restarts;
        if (res.value > kRegressionFactor * pb->value + kRegressionEpsilon) {
          curve_detail::FitResult cold = fit(basis.init, kColdStep);
          ++stats_.fits_cold;
          ++out.restarts;
          if (cold.value < res.value) res = std::move(cold);
        }
      }
    }
    if (!settled) {
      out.params = std::move(res.params);
      out.value = res.value;
      out.rmse = std::sqrt(std::max(res.value, 0.0));
      if (pb != nullptr) {
        double drift = 0.0;
        for (std::size_t d = 0; d < out.params.size(); ++d) {
          drift = std::max(drift, std::abs(out.params[d] - pb->params[d]));
        }
        out.drift = drift;
      }
    }
    out.low_streak = pb != nullptr ? pb->low_streak : 0;
  }

  // Freeze bookkeeping: recompute the combination weights (same kernel as
  // curve_detail::combine_fits) and advance each unfrozen non-best basis'
  // low-weight streak.
  std::size_t best = 0;
  for (std::size_t bi = 1; bi < rec.basis.size(); ++bi) {
    if (rec.basis[bi].rmse < rec.basis[best].rmse) best = bi;
  }
  const double scale = std::max(2.0 * rec.basis[best].rmse, 1e-3);
  double weight_sum = 0.0;
  std::vector<double> weights(rec.basis.size());
  for (std::size_t bi = 0; bi < rec.basis.size(); ++bi) {
    const double z = rec.basis[bi].rmse / scale;
    weights[bi] = std::exp(-0.5 * z * z) + 1e-12;
    weight_sum += weights[bi];
  }
  const int link_index = static_cast<int>(st.links.size()) + 1;
  for (std::size_t bi = 0; bi < rec.basis.size(); ++bi) {
    BasisFitRec& b = rec.basis[bi];
    if (b.frozen) continue;
    if (bi != best && weights[bi] / weight_sum < kFreezeWeightThreshold) {
      ++b.low_streak;
    } else {
      b.low_streak = 0;
    }
    if (link_index >= kFreezeMinLinks && b.low_streak >= kFreezeStreak) {
      b.frozen = true;
    }
  }

  st.links.push_back(std::move(rec));
}

const PredictionService::LinkRecord* PredictionService::advance_links(JobState& st,
                                                                      int link_done) {
  if (!st.links.empty() && st.links.back().done >= link_done) {
    // Rollback re-entry (or an out-of-band query behind the chain tip):
    // the canonical link was already computed — pure-function reuse.
    const auto it = std::lower_bound(
        st.links.begin(), st.links.end(), link_done,
        [](const LinkRecord& r, int d) { return r.done < d; });
    MLFS_EXPECT(it != st.links.end() && it->done == link_done);
    ++stats_.cache_hits;
    return &*it;
  }
  int next = st.links.empty() ? first_link() : st.links.back().done + check_interval_;
  for (; next <= link_done; next += check_interval_) fit_link(st, next);
  return &st.links.back();
}

CurvePrediction PredictionService::prediction_from(const LinkRecord& rec, int target) const {
  const auto& bs = curve_detail::bases();
  std::vector<curve_detail::BasisFit> fits(rec.basis.size());
  for (std::size_t bi = 0; bi < rec.basis.size(); ++bi) {
    fits[bi].rmse = rec.basis[bi].rmse;
    fits[bi].prediction = std::clamp(
        bs[bi].eval(rec.basis[bi].params, static_cast<double>(target)), 0.0, 1.0);
  }
  return curve_detail::combine_fits(fits);
}

CurvePrediction PredictionService::predict_at_max(const Job& job) {
  const int done = job.completed_iterations();
  const int target = job.spec().max_iterations;
  const int link = quantize(done);
  if (link == 0) {
    // Below the first canonical link: mirror predict_at's fallback.
    return {done <= 0 ? 0.0 : job.curve().accuracy_at(done), 0.0};
  }

  JobState& st = states_[job.id()];
  if (st.memo_valid && st.memo_done == link && st.memo_target == target) {
    ++stats_.cache_hits;
    return st.memo;
  }
  const auto t0 = std::chrono::steady_clock::now();
  backfill(st, job, done);
  const LinkRecord* rec = advance_links(st, link);
  const CurvePrediction out = prediction_from(*rec, target);
  st.memo_valid = true;
  st.memo_done = link;
  st.memo_target = target;
  st.memo = out;
  stats_.fit_wall_ms +=
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  return out;
}

void PredictionService::on_iteration_complete(const Job& job) {
  if (job.active_policy() != StopPolicy::OptStop) return;
  backfill(states_[job.id()], job, job.completed_iterations());
}

void PredictionService::on_job_complete(const Job& job) {
  runtime_.record_completion(job);
  states_.erase(job.id());
}

void PredictionService::on_job_failed(const Job& job) { states_.erase(job.id()); }

void PredictionService::save_state(io::BinWriter& w) const {
  static_assert(io::lists_every_field<BasisFitRec> && io::lists_every_field<LinkRecord> &&
                io::lists_every_field<JobState>);
  io::write_fields(w, stats_);
  w.u64(states_.size());
  for (const auto& [id, st] : states_) {  // std::map: sorted, canonical bytes
    w.u64(id);
    io::write_fields(w, st);
  }
}

PredictionService::SavedState PredictionService::read_state(io::BinReader& r) const {
  SavedState saved;
  io::read_fields(r, saved.stats);
  const auto& bs = curve_detail::bases();
  const std::uint64_t jobs = r.u64();
  for (std::uint64_t j = 0; j < jobs; ++j) {
    const JobId id = static_cast<JobId>(r.u64());
    if (!saved.states.empty() && id <= saved.states.rbegin()->first) {
      throw ContractViolation("predict: job " + std::to_string(id) +
                              " is not in ascending id order");
    }
    JobState st;
    io::read_fields(r, st);
    for (std::size_t l = 0; l < st.links.size(); ++l) {
      // The chain is contiguous from the first canonical link (only whole
      // jobs are ever evicted), and every link is covered by observations.
      const LinkRecord& rec = st.links[l];
      const int want = first_link() + static_cast<int>(l) * check_interval_;
      if (rec.done != want || rec.done > static_cast<int>(st.observed.size())) {
        throw ContractViolation("predict: job " + std::to_string(id) + " link " +
                                std::to_string(l) + " at done=" + std::to_string(rec.done) +
                                " is not the canonical point " + std::to_string(want) +
                                " within " + std::to_string(st.observed.size()) +
                                " observations");
      }
      if (rec.basis.size() != bs.size()) {
        throw ContractViolation("predict: job " + std::to_string(id) + " link at done=" +
                                std::to_string(rec.done) + " has " +
                                std::to_string(rec.basis.size()) + " basis records, want " +
                                std::to_string(bs.size()));
      }
      for (std::size_t bi = 0; bi < bs.size(); ++bi) {
        const std::size_t n = rec.basis[bi].params.size();
        if (n != bs[bi].init.size()) {
          throw ContractViolation("predict: job " + std::to_string(id) + " " + bs[bi].name +
                                  " params have " + std::to_string(n) + " values, want " +
                                  std::to_string(bs[bi].init.size()));
        }
      }
    }
    saved.states.emplace_hint(saved.states.end(), id, std::move(st));
  }
  return saved;
}

void PredictionService::restore_state(SavedState saved) {
  stats_ = saved.stats;
  states_ = std::move(saved.states);
}

}  // namespace mlfs
