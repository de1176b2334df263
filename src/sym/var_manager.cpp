#include "sym/var_manager.hpp"

#include <array>

namespace icb {

unsigned VarManager::addStateBit(const std::string& name) {
  const unsigned cur = mgr_->newVar(name);
  const unsigned nxt = mgr_->newVar(name + "'");
  // Reordering must keep the (cur, nxt) interleaving the relational
  // operations rely on: sift moves the pair as one block.
  mgr_->groupVars(std::array{cur, nxt});
  state_.push_back(StateBit{cur, nxt, name});
  return static_cast<unsigned>(state_.size() - 1);
}

unsigned VarManager::addInputBit(const std::string& name) {
  const unsigned v = mgr_->newVar(name);
  inputs_.push_back(v);
  return static_cast<unsigned>(inputs_.size() - 1);
}

Bdd VarManager::inputCube() const {
  return Bdd(mgr_, mgr_->cubeE(inputs_));
}

Bdd VarManager::curCube() const {
  std::vector<unsigned> vars;
  vars.reserve(state_.size());
  for (const StateBit& b : state_) vars.push_back(b.cur);
  return Bdd(mgr_, mgr_->cubeE(vars));
}

Bdd VarManager::nxtCube() const {
  std::vector<unsigned> vars;
  vars.reserve(state_.size());
  for (const StateBit& b : state_) vars.push_back(b.nxt);
  return Bdd(mgr_, mgr_->cubeE(vars));
}

}  // namespace icb
