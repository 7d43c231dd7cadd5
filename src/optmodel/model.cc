#include "optmodel/model.h"

#include <cmath>

namespace srpc::opt {

double exp_prediction_rate(double lambda_per_T, double t, double T) {
  return 1.0 - std::exp(-lambda_per_T * t / T);
}

double stage_cost(double lambda_per_T, double t, double T) {
  return exp_prediction_rate(lambda_per_T, t, T) * (t - T) + T;
}

double optimal_handoff(double lambda_per_T, double T) {
  double lo = 0.0;
  double hi = T;
  for (int i = 0; i < 200; ++i) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (stage_cost(lambda_per_T, m1, T) < stage_cost(lambda_per_T, m2, T)) {
      hi = m2;
    } else {
      lo = m1;
    }
  }
  return (lo + hi) / 2.0;
}

double equation5_lhs(double lambda_per_T, double t, double T) {
  const double lam = lambda_per_T / T;  // absolute rate
  return 1.0 + std::exp(-lam * t) * (lam * (t - T) - 1.0);
}

double t_new(int stages, double lambda_per_T, double t, double T) {
  if (stages <= 1) return T;
  return (stages - 1) * stage_cost(lambda_per_T, t, T) + T;
}

double t_old(int stages, double T) { return stages * T; }

double speedup(int stages, double lambda_per_T, double t, double T) {
  return t_old(stages, T) / t_new(stages, lambda_per_T, t, T);
}

double max_speedup(int stages, double lambda_per_T, double T) {
  const double t = optimal_handoff(lambda_per_T, T);
  return speedup(stages, lambda_per_T, t, T);
}

double t_new_fixed_p(int stages, double p, double T) {
  if (stages <= 1) return T;
  return (stages - 1) * (1.0 - p) * T + T;
}

double speculation_benefit(double p, double misspec_cost, double T) {
  return p * T - (1.0 - p) * misspec_cost * T;
}

double break_even_accuracy(double misspec_cost) {
  if (misspec_cost <= 0.0) return 0.0;
  return misspec_cost / (1.0 + misspec_cost);
}

AccuracyBand break_even_band(double misspec_cost, double hysteresis) {
  const double centre = break_even_accuracy(misspec_cost);
  return {centre - hysteresis, centre + hysteresis};
}

double max_speedup_general(const std::vector<Stage>& stages) {
  if (stages.empty()) return 1.0;
  double old_time = 0.0;
  for (const auto& s : stages) old_time += s.T;
  // Equation (2): per-stage terms are independent; the last stage always
  // costs T_n.
  double new_time = stages.back().T;
  for (std::size_t i = 0; i + 1 < stages.size(); ++i) {
    const auto& s = stages[i];
    const double t = optimal_handoff(s.lambda_per_T, s.T);
    new_time += stage_cost(s.lambda_per_T, t, s.T);
  }
  return old_time / new_time;
}

}  // namespace srpc::opt
