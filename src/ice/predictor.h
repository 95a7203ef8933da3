// App-usage prediction for proactive thawing — the extension §6.3.1 sketches:
// "this penalty can be further eliminated by using it in combination with
// application prediction [6, 52]. If a BG application is predicted as the
// next used application, Ice can thaw it ahead of time."
//
// The predictor is a first-order Markov chain over foreground transitions
// (the standard mobile app-prediction baseline of Parate et al. [52]): after
// each switch A -> B it bumps count[A][B]; the most likely successors of the
// current foreground app are pre-thawed so a hot launch never pays the thaw
// + refault-in-freeze penalty.
#ifndef SRC_ICE_PREDICTOR_H_
#define SRC_ICE_PREDICTOR_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "src/base/units.h"

namespace ice {

class SnapshotArchive;

class AppUsagePredictor {
 public:
  AppUsagePredictor() = default;

  // Records a foreground switch from `from` (may be kInvalidUid at boot).
  void RecordSwitch(Uid from, Uid to);

  // The `k` most likely next apps given the current foreground app, most
  // probable first. Empty when nothing has been learned yet.
  std::vector<Uid> PredictNext(Uid current, size_t k = 2) const;

  // Transition probability estimate P(next | current); 0 when unseen.
  double TransitionProbability(Uid current, Uid next) const;

  uint64_t transitions_recorded() const { return transitions_; }

  // Snapshot support (std::map iteration is ordered, so the wire format is
  // deterministic).
  void Transfer(SnapshotArchive& ar);

 private:
  // count_[from][to] = observed transitions.
  std::map<Uid, std::map<Uid, uint64_t>> counts_;
  uint64_t transitions_ = 0;
};

}  // namespace ice

#endif  // SRC_ICE_PREDICTOR_H_
