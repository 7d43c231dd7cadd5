// Multi-objective optimizer speedup model (paper §4.2, Equations (1)-(5)).
//
// n dependent optimization stages run on n*N CPUs. Without speculation the
// stages run sequentially, each using all n*N CPUs: T_old = sum_j g_j(n*N).
// With speculation, stage i hands its current best solution to stage i+1 at
// time t_i; the hand-off is a correct prediction with probability
// P_i = f_i(t_i). Expected completion (Equation 1, solved as Equation 2):
//
//   T_new = sum_{i<n} [ P_i * (t_i - T_i) + T_i ] + T_n
//
// The per-stage terms are independent, so the optimal t_i minimizes
// h_i(t) = P_i(t) * (t - T_i) + T_i on [0, T_i].
//
// The paper's illustration (Figure 7) uses equal stages (T_i = T, enough
// CPUs that g(N) ~ g(nN)) and an exponential convergence model
// P(t) = 1 - exp(-lambda * t), lambda in units of 1/T; the optimal t solves
// Equation (5): 1 + exp(-lambda*t0) * (lambda*(t0 - T) - 1) = 0.
#pragma once

#include <functional>
#include <vector>

namespace srpc::opt {

/// P(t) = 1 - exp(-lambda_per_T * t / T): exponential convergence.
double exp_prediction_rate(double lambda_per_T, double t, double T);

/// h(t) = P(t)*(t - T) + T — expected cost of one speculated stage.
double stage_cost(double lambda_per_T, double t, double T);

/// argmin_{t in [0,T]} h(t) via ternary search (h is unimodal there).
double optimal_handoff(double lambda_per_T, double T);

/// Left-hand side of Equation (5); zero at the optimal hand-off time.
double equation5_lhs(double lambda_per_T, double t, double T);

/// T_new for n equal stages with per-stage hand-off time t (Equation 2).
double t_new(int stages, double lambda_per_T, double t, double T = 1.0);

/// T_old = n*T (equal stages, negligible CPU-scaling difference).
double t_old(int stages, double T = 1.0);

/// Speedup with per-stage hand-off t.
double speedup(int stages, double lambda_per_T, double t, double T = 1.0);

/// max_t speedup — one point of Figure 7.
double max_speedup(int stages, double lambda_per_T, double T = 1.0);

/// Generalized, unequal stages: T_i and lambda_i per stage.
struct Stage {
  double T = 1.0;
  double lambda_per_T = 1.0;
};
double max_speedup_general(const std::vector<Stage>& stages);

// ---- Fixed-accuracy specialization (online adaptive speculation) ----
//
// Client-side predictions are available *before* the call is issued, i.e.
// hand-off at t = 0, and the prediction rate P is not the exponential model
// but an accuracy measured online. Equation (2) then degenerates to
//   T_new = (n-1) * [P*(0 - T) + T] + T = (n-1)*(1-P)*T + T
// These are what predict::AdaptiveSpeculationController evaluates per call.

/// Expected completion of an n-call dependent chain, unit-T calls, when
/// every call speculates on a prediction of accuracy p (Equation (2) with
/// t = 0 and constant P = p).
double t_new_fixed_p(int stages, double p, double T = 1.0);

/// Expected net benefit (time saved vs. the sequential chain) of
/// speculating one call at accuracy p, charging `misspec_cost` (in units of
/// T) for each incorrect speculation's wasted work:
///   benefit(p) = p*T - (1-p)*misspec_cost*T
double speculation_benefit(double p, double misspec_cost, double T = 1.0);

/// The break-even accuracy: speculation_benefit(p*, misspec_cost) == 0,
/// i.e. p* = misspec_cost / (1 + misspec_cost). The adaptive controllers
/// centre their hysteresis band on this threshold.
double break_even_accuracy(double misspec_cost);

/// The band break_even_accuracy(misspec_cost) ± hysteresis: an accuracy
/// gate closes below `off` and reopens at or above `on`. Unclamped.
struct AccuracyBand {
  double off = 0.0;
  double on = 0.0;
};
AccuracyBand break_even_band(double misspec_cost, double hysteresis);

}  // namespace srpc::opt
