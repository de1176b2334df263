// Processors communicating through a non-order-preserving network
// (paper Section IV.A, second example).
//
// n processors non-deterministically issue requests into an n-slot network;
// each message carries a valid bit, a req/ack flag and a 4-bit return
// address.  A server non-deterministically converts requests to acks;
// processors non-deterministically consume acks addressed to them.  Every
// processor counts its outstanding requests.
//
// Property (one conjunct per processor): the counter equals the number of
// valid network messages carrying that processor's ID.
//
// The counters are FUNCTIONS of the network contents on every reachable
// state -- which is exactly what the FD baseline [16] exploits: nominate the
// counter bits as dependency candidates and the traversal never builds the
// cross-product of all the counting relations.
//
// Bug injection: on receive, the counter of the *selected* processor is
// decremented instead of the counter of the message's return address.
#pragma once

#include <memory>
#include <vector>

#include "sym/bitvector.hpp"
#include "sym/fsm.hpp"

namespace icb {

struct NetworkConfig {
  unsigned processors = 4;  ///< n < 16 (IDs are 4 bits, as in the paper)
  bool injectBug = false;
};

class NetworkModel {
 public:
  NetworkModel(BddManager& mgr, const NetworkConfig& config);

  [[nodiscard]] Fsm& fsm() { return *fsm_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  /// FD candidates: every counter bit, MSB-last.
  [[nodiscard]] std::vector<unsigned> fdCandidates() const {
    return counterStateBits_;
  }

 private:
  static constexpr unsigned kIdWidth = 4;  // the paper: "IDs are 4 bits each"

  NetworkConfig config_;
  unsigned counterWidth_ = 0;
  std::unique_ptr<Fsm> fsm_;
  std::vector<unsigned> counterStateBits_;
};

}  // namespace icb
