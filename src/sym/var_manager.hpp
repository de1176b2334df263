// Variable bookkeeping for symbolic finite-state machines.
//
// Each state bit owns a (current, next) variable pair, allocated adjacently
// in the BDD order -- the standard interleaving for image computation.
// Models control the *global* allocation order themselves, which is how the
// paper's bit-slice-interleaved datapath orders (Jeong et al. [19]) are
// expressed: allocate bit 0 of every lane, then bit 1 of every lane, ...
#pragma once

#include <string>
#include <vector>

#include "bdd/bdd.hpp"

namespace icb {

struct StateBit {
  unsigned cur;      ///< BDD variable index of the current-state copy
  unsigned nxt;      ///< BDD variable index of the next-state copy
  std::string name;  ///< for traces and dot dumps
};

class VarManager {
 public:
  explicit VarManager(BddManager& mgr) : mgr_(&mgr) {}

  [[nodiscard]] BddManager& mgr() const { return *mgr_; }

  /// Allocates a state bit (cur followed by nxt in the order).
  /// Returns the state-bit index.
  unsigned addStateBit(const std::string& name);

  /// Allocates a free (nondeterministic) input bit.  Returns the input index.
  unsigned addInputBit(const std::string& name);

  [[nodiscard]] std::size_t stateBitCount() const { return state_.size(); }

  [[nodiscard]] const StateBit& stateBit(unsigned i) const { return state_[i]; }
  [[nodiscard]] const std::vector<StateBit>& stateBits() const { return state_; }
  [[nodiscard]] const std::vector<unsigned>& inputVars() const { return inputs_; }

  [[nodiscard]] Bdd cur(unsigned stateBitIndex) const {
    return mgr_->var(state_[stateBitIndex].cur);
  }
  [[nodiscard]] Bdd nxt(unsigned stateBitIndex) const {
    return mgr_->var(state_[stateBitIndex].nxt);
  }
  [[nodiscard]] Bdd input(unsigned inputIndex) const {
    return mgr_->var(inputs_[inputIndex]);
  }

  /// Cube of all input variables (for quantification in the images).
  [[nodiscard]] Bdd inputCube() const;
  /// Cube of all current-state variables.
  [[nodiscard]] Bdd curCube() const;
  /// Cube of all next-state variables.
  [[nodiscard]] Bdd nxtCube() const;

 private:
  BddManager* mgr_;
  std::vector<StateBit> state_;
  std::vector<unsigned> inputs_;
};

}  // namespace icb
