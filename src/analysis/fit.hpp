#pragma once

// Empirical asymptotics: least-squares shape fitting.
//
// The paper's claims are asymptotic (O/Ω classes). Benches therefore sweep a
// size parameter, measure median rounds, and ask which candidate growth
// shape c·g(x) explains the series best. For each model we fit the scale c
// minimizing squared *relative* error (so small-x and large-x points weigh
// equally across decades) and rank models by that error. The scenario
// report prints the winning shape for every column a scenario lists in its
// `fit` field, below the table that the paper's claim heads.

#include <functional>
#include <string>
#include <vector>

namespace dualcast {

struct ScalingModel {
  std::string name;
  std::function<double(double)> shape;  ///< g(x); must be > 0 on the sweep
};

struct FitResult {
  std::string model;
  double scale = 0.0;     ///< fitted c in y ≈ c * g(x)
  double rel_rmse = 0.0;  ///< sqrt(mean((y - c g)/y)^2)
  double r2 = 0.0;        ///< coefficient of determination in y-space
};

/// The standard model family used by the Figure 1 benches:
/// 1, log x, log²x, log³x, √x, √x/log x, x/log x, x, x·log x, x².
std::vector<ScalingModel> standard_models();

/// Fits a single model; xs/ys must be equal-length, non-empty, positive.
FitResult fit_model(const std::vector<double>& xs, const std::vector<double>& ys,
                    const ScalingModel& model);

/// Fits all models and returns results sorted by ascending rel_rmse.
std::vector<FitResult> rank_models(const std::vector<double>& xs,
                                   const std::vector<double>& ys,
                                   const std::vector<ScalingModel>& models);

/// Convenience: name of the best-fitting standard model.
std::string best_fit_name(const std::vector<double>& xs,
                          const std::vector<double>& ys);

}  // namespace dualcast
