#include "core/inference.hpp"

#include <algorithm>
#include <cmath>

#include "autograd/grad_mode.hpp"
#include "core/entropy.hpp"
#include "data/loader.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ddnn::core {

ExitEval evaluate_exits(DdnnModel& model,
                        const std::vector<data::MvmcSample>& samples,
                        const std::vector<int>& devices,
                        const std::vector<bool>& active,
                        std::size_t batch_size) {
  DDNN_CHECK(!samples.empty(), "empty evaluation set");
  autograd::NoGradGuard no_grad;
  model.set_training(false);

  const auto n = static_cast<std::int64_t>(samples.size());
  const std::int64_t c = model.config().num_classes;
  const int num_exits = model.config().num_exits();

  ExitEval eval;
  eval.exit_names = model.exit_names();
  eval.labels.reserve(samples.size());
  for (int e = 0; e < num_exits; ++e) {
    eval.exit_probs.emplace_back(Shape{n, c});
  }

  const auto batches =
      data::chunk_batches(data::all_indices(samples.size()), batch_size);
  std::vector<std::int64_t> row_start(batches.size(), 0);
  std::int64_t row = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    row_start[i] = row;
    row += static_cast<std::int64_t>(batches[i].size());
  }
  DDNN_ASSERT(row == n);
  eval.labels.assign(samples.size(), 0);

  // Batches write disjoint row blocks of each exit's probability matrix, so
  // they evaluate in parallel; eval-mode forward only reads model state.
  parallel_for(
      0, static_cast<std::int64_t>(batches.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        autograd::NoGradGuard worker_no_grad;  // grad mode is thread-local
        for (std::int64_t bi = lo; bi < hi; ++bi) {
          const auto& batch_idx = batches[static_cast<std::size_t>(bi)];
          const data::Batch batch =
              data::make_batch(samples, batch_idx, devices);
          std::vector<Variable> views;
          views.reserve(batch.views.size());
          for (const auto& v : batch.views) views.emplace_back(v);

          DdnnOutputs out = model.forward(views, active);
          const std::int64_t base = row_start[static_cast<std::size_t>(bi)];
          for (int e = 0; e < num_exits; ++e) {
            const Tensor probs = ops::softmax_rows(
                out.exit_logits[static_cast<std::size_t>(e)].value());
            // The batch's rows are contiguous in the [n, c] matrix; copy the
            // whole row block instead of bounds-checked element accesses.
            DDNN_ASSERT(probs.dim(0) == batch.size() && probs.dim(1) == c);
            std::copy_n(probs.data(), batch.size() * c,
                        eval.exit_probs[static_cast<std::size_t>(e)].data() +
                            base * c);
          }
          for (std::int64_t b = 0; b < batch.size(); ++b) {
            eval.labels[static_cast<std::size_t>(base + b)] =
                batch.labels[static_cast<std::size_t>(b)];
          }
        }
      });
  return eval;
}

ExitEval evaluate_exits(DdnnModel& model,
                        const std::vector<data::MvmcSample>& samples,
                        const std::vector<int>& devices,
                        std::size_t batch_size) {
  return evaluate_exits(model, samples, devices,
                        std::vector<bool>(devices.size(), true), batch_size);
}

double exit_accuracy(const ExitEval& eval, std::size_t exit_index) {
  DDNN_CHECK(exit_index < eval.num_exits(), "exit index out of range");
  const auto preds = ops::argmax_rows(eval.exit_probs[exit_index]);
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == eval.labels[i]) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(eval.sample_count());
}

namespace {

/// Every exit's confidence score and argmax for every sample, computed once
/// so that apply() replays only the decision rule. apply_policy is
/// ScoredExits(eval, criterion).apply(thresholds), so a threshold search
/// that scores once and applies many grid points gets the same bits.
class ScoredExits {
 public:
  ScoredExits(const ExitEval& eval, ConfidenceCriterion criterion)
      : eval_(eval),
        n_(eval.sample_count()),
        scores_(eval.num_exits() * static_cast<std::size_t>(n_)),
        preds_(scores_.size()) {
    parallel_for(0, n_, 256, [&](std::int64_t lo, std::int64_t hi) {
      for (std::size_t e = 0; e < eval.num_exits(); ++e) {
        const Tensor& probs = eval.exit_probs[e];
        const std::int64_t c = probs.dim(1);
        for (std::int64_t i = lo; i < hi; ++i) {
          scores_[slot(e, i)] = confidence_score_row(probs, i, criterion);
          preds_[slot(e, i)] = ops::argmax_row(probs.data() + i * c, c);
        }
      }
    });
  }

  PolicyResult apply(const std::vector<double>& thresholds) const {
    DDNN_CHECK(eval_.num_exits() >= 1, "no exits");
    DDNN_CHECK(thresholds.size() + 1 == eval_.num_exits(),
               "need one threshold per non-final exit: got "
                   << thresholds.size() << " for " << eval_.num_exits()
                   << " exits");

    PolicyResult result;
    result.exit_fraction.assign(eval_.num_exits(), 0.0);
    result.decisions.assign(static_cast<std::size_t>(n_), SampleDecision{});
    const std::size_t last = eval_.num_exits() - 1;

    // Per-sample decisions are independent; each chunk writes its own slice
    // of `decisions`. The counting reduction stays serial (exact integer
    // counts), so results are identical for every thread count.
    parallel_for(0, n_, 256, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        SampleDecision d;
        d.exit_taken = static_cast<int>(last);
        for (std::size_t e = 0; e < thresholds.size(); ++e) {
          const double eta = scores_[slot(e, i)];
          if (should_exit(eta, thresholds[e])) {
            d.exit_taken = static_cast<int>(e);
            d.entropy = eta;
            break;
          }
        }
        const auto taken = static_cast<std::size_t>(d.exit_taken);
        if (taken == last) d.entropy = scores_[slot(last, i)];
        d.prediction = preds_[slot(taken, i)];
        result.decisions[static_cast<std::size_t>(i)] = d;
      }
    });

    std::int64_t correct = 0;
    for (std::int64_t i = 0; i < n_; ++i) {
      const SampleDecision& d = result.decisions[static_cast<std::size_t>(i)];
      if (d.prediction == eval_.labels[static_cast<std::size_t>(i)]) ++correct;
      result.exit_fraction[static_cast<std::size_t>(d.exit_taken)] += 1.0;
    }
    for (auto& f : result.exit_fraction) f /= static_cast<double>(n_);
    result.overall_accuracy =
        static_cast<double>(correct) / static_cast<double>(n_);
    return result;
  }

 private:
  std::size_t slot(std::size_t e, std::int64_t i) const {
    return e * static_cast<std::size_t>(n_) + static_cast<std::size_t>(i);
  }

  const ExitEval& eval_;
  std::int64_t n_;
  std::vector<double> scores_;       // [exit][sample]
  std::vector<std::int64_t> preds_;  // [exit][sample]
};

}  // namespace

PolicyResult apply_policy(const ExitEval& eval,
                          const std::vector<double>& thresholds,
                          ConfidenceCriterion criterion) {
  return ScoredExits(eval, criterion).apply(thresholds);
}

double search_threshold_best_overall(const ExitEval& eval, double step) {
  DDNN_CHECK(eval.num_exits() == 2,
             "threshold search implemented for 2-exit models");
  DDNN_CHECK(step > 0.0 && step <= 1.0, "bad grid step");
  const ScoredExits scored(eval, ConfidenceCriterion::kNormalizedEntropy);
  double best_t = 0.0;
  double best_acc = -1.0;
  for (double t = 0.0; t <= 1.0 + 1e-9; t += step) {
    const auto r = scored.apply({t});
    // Ties prefer larger T: more samples exit locally for the same accuracy.
    if (r.overall_accuracy >= best_acc) {
      best_acc = r.overall_accuracy;
      best_t = t;
    }
  }
  return best_t;
}

namespace {

/// Tier preference of a policy result: mean exit depth (lower = earlier
/// exits = cheaper). Used to break accuracy ties in threshold search.
double mean_exit_depth(const PolicyResult& r) {
  double depth = 0.0;
  for (std::size_t e = 0; e < r.exit_fraction.size(); ++e) {
    depth += static_cast<double>(e) * r.exit_fraction[e];
  }
  return depth;
}

}  // namespace

std::vector<double> search_thresholds_best_overall(const ExitEval& eval,
                                                   double step) {
  DDNN_CHECK(step > 0.0 && step <= 1.0, "bad grid step");
  const std::size_t knobs = eval.num_exits() - 1;
  DDNN_CHECK(knobs >= 1, "nothing to search for a single-exit model");

  std::vector<double> grid;
  for (double t = 0.0; t <= 1.0 + 1e-9; t += step) grid.push_back(t);

  // Enumerate the odometer as flat combo indices (digit k of the base-|grid|
  // expansion is knob k, least significant first — the original iteration
  // order). Grid points are scored in parallel into preallocated slots, then
  // reduced serially in the original order so tie-breaking is unchanged.
  std::int64_t total = 1;
  for (std::size_t k = 0; k < knobs; ++k) {
    total *= static_cast<std::int64_t>(grid.size());
    DDNN_CHECK(total <= (std::int64_t{1} << 32),
               "threshold grid too large: " << grid.size() << "^" << knobs);
  }
  auto combo_thresholds = [&](std::int64_t combo) {
    std::vector<double> thresholds(knobs);
    for (std::size_t k = 0; k < knobs; ++k) {
      thresholds[k] =
          grid[static_cast<std::size_t>(combo) % grid.size()];
      combo /= static_cast<std::int64_t>(grid.size());
    }
    return thresholds;
  };

  const ScoredExits scored(eval, ConfidenceCriterion::kNormalizedEntropy);
  std::vector<double> accs(static_cast<std::size_t>(total), 0.0);
  std::vector<double> depths(static_cast<std::size_t>(total), 0.0);
  parallel_for(0, total, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t combo = lo; combo < hi; ++combo) {
      const auto r = scored.apply(combo_thresholds(combo));
      accs[static_cast<std::size_t>(combo)] = r.overall_accuracy;
      depths[static_cast<std::size_t>(combo)] = mean_exit_depth(r);
    }
  });

  std::int64_t best_combo = 0;
  double best_acc = -1.0;
  double best_depth = 1e18;
  for (std::int64_t combo = 0; combo < total; ++combo) {
    const double acc = accs[static_cast<std::size_t>(combo)];
    const double depth = depths[static_cast<std::size_t>(combo)];
    if (acc > best_acc + 1e-12 || (acc > best_acc - 1e-12 && depth < best_depth)) {
      best_acc = acc;
      best_depth = depth;
      best_combo = combo;
    }
  }
  return combo_thresholds(best_combo);
}

double search_threshold_for_local_fraction(const ExitEval& eval,
                                           double target_fraction,
                                           double step) {
  DDNN_CHECK(eval.num_exits() == 2,
             "threshold search implemented for 2-exit models");
  DDNN_CHECK(target_fraction >= 0.0 && target_fraction <= 1.0,
             "bad target fraction");
  const ScoredExits scored(eval, ConfidenceCriterion::kNormalizedEntropy);
  for (double t = 0.0; t <= 1.0 + 1e-9; t += step) {
    const auto r = scored.apply({t});
    if (r.local_exit_fraction() >= target_fraction) return t;
  }
  return 1.0;
}

double individual_accuracy(IndividualModel& model,
                           const std::vector<data::MvmcSample>& samples,
                           int device, std::size_t batch_size) {
  DDNN_CHECK(!samples.empty(), "empty evaluation set");
  autograd::NoGradGuard no_grad;
  model.set_training(false);

  std::int64_t correct = 0;
  for (const auto& batch_idx :
       data::chunk_batches(data::all_indices(samples.size()), batch_size)) {
    const data::Batch batch = data::make_batch(samples, batch_idx, {device});
    const Variable logits = model.forward(Variable(batch.views[0]));
    const auto preds = ops::argmax_rows(logits.value());
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (preds[i] == batch.labels[i]) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(samples.size());
}

}  // namespace ddnn::core
