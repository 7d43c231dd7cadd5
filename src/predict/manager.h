// SpeculationManager — wires a Predictor, an AccuracyTracker and (optionally)
// an AdaptiveSpeculationController into one SpecEngine (DESIGN.md §8.3).
//
// Data flow, per speculation-capable call:
//
//   call()/call_quorum() ──supplier──► gate? ──► Predictor::predict
//        │                                             │
//        ▼                                             ▼
//   actual arrives ──observer──► shadow-evaluate ► AccuracyTracker
//                                └► Predictor::learn   │
//                                                      ▼
//                                        AdaptiveSpeculationController
//
// The installed hooks capture the manager's state by shared_ptr, so a
// SpecConfig (and the engines built from it) stays valid even if the
// manager object itself is destroyed first.
//
// Shadow evaluation: calls that carried no prediction (gate closed, or the
// predictor had nothing) still report through the observer; the manager
// asks the predictor what it *would* have predicted, scores it against the
// actual, and records that. Accuracy therefore keeps tracking the workload
// while speculation is off — the gate can re-open without waiting for
// probe traffic alone.
#pragma once

#include <atomic>
#include <memory>

#include "predict/admission.h"
#include "predict/controller.h"
#include "predict/predictor.h"
#include "specrpc/engine.h"

namespace srpc::predict {

struct ManagerConfig {
  AccuracyConfig accuracy;
  /// nullopt-style toggle: when false, every call with a warm predictor
  /// speculates (the "always" mode of the benches).
  bool adaptive = false;
  AdaptiveConfig adaptive_config;
  /// Optional overload admission controller (DESIGN.md §11), consulted
  /// before the adaptive gate and the predictor: under pressure the
  /// supplier returns no predictions at all and the call runs as TradRPC.
  /// Shared so one controller can govern every client of a process.
  std::shared_ptr<AdmissionController> admission;
};

/// Aggregate counters for benches/tests (snapshot; internally consistent
/// per counter, not across counters).
struct ManagerStats {
  std::uint64_t supplier_calls = 0;
  std::uint64_t predictions_supplied = 0;  // calls given >= 1 prediction
  std::uint64_t gate_suppressed = 0;       // calls the controller declined
  std::uint64_t admission_shed = 0;        // calls the overload ladder shed
  std::uint64_t predictor_empty = 0;       // gate open but predictor cold
  std::uint64_t learned = 0;               // actuals fed to the predictor

  ManagerStats& operator+=(const ManagerStats& o) {
    supplier_calls += o.supplier_calls;
    predictions_supplied += o.predictions_supplied;
    gate_suppressed += o.gate_suppressed;
    admission_shed += o.admission_shed;
    predictor_empty += o.predictor_empty;
    learned += o.learned;
    return *this;
  }
};

class SpeculationManager {
 public:
  explicit SpeculationManager(PredictorPtr predictor,
                              ManagerConfig config = {});

  /// Sets `config.prediction_supplier` / `config.prediction_observer`.
  /// Install before constructing the engine; one manager may serve several
  /// engines (its components are thread-safe).
  void install(spec::SpecConfig& config);

  /// The supplier/observer as bare hooks (for engines configured by hand).
  spec::PredictionSupplier supplier();
  spec::PredictionObserver observer();

  Predictor& predictor() { return *state_->predictor; }
  AccuracyTracker& tracker() { return state_->tracker; }
  /// nullptr unless config.adaptive.
  AdaptiveSpeculationController* controller() {
    return state_->controller.get();
  }
  /// nullptr unless config.admission was set.
  const std::shared_ptr<AdmissionController>& admission() const {
    return state_->admission;
  }
  /// Late-binds the admission controller (it often needs this manager's
  /// tracker(), which exists only after construction). Wire before traffic
  /// starts; not synchronized against a concurrently running supplier.
  void set_admission(std::shared_ptr<AdmissionController> admission) {
    state_->admission = std::move(admission);
  }
  ManagerStats stats() const;

 private:
  struct State {
    State(PredictorPtr p, const ManagerConfig& c)
        : predictor(std::move(p)), tracker(c.accuracy), admission(c.admission) {
      if (c.adaptive) {
        controller = std::make_unique<AdaptiveSpeculationController>(
            tracker, c.adaptive_config);
      }
    }
    PredictorPtr predictor;
    AccuracyTracker tracker;
    std::unique_ptr<AdaptiveSpeculationController> controller;
    std::shared_ptr<AdmissionController> admission;
    std::atomic<std::uint64_t> supplier_calls{0};
    std::atomic<std::uint64_t> predictions_supplied{0};
    std::atomic<std::uint64_t> gate_suppressed{0};
    std::atomic<std::uint64_t> admission_shed{0};
    std::atomic<std::uint64_t> predictor_empty{0};
    std::atomic<std::uint64_t> learned{0};
  };

  std::shared_ptr<State> state_;
};

}  // namespace srpc::predict
