#include "sym/fsm.hpp"

#include <unordered_set>

#include "sym/image.hpp"

namespace icb {

void Fsm::setNext(unsigned stateBitIndex, Bdd fn) {
  if (next_.size() < vars_.stateBitCount()) {
    next_.resize(vars_.stateBitCount());
  }
  if (stateBitIndex >= next_.size()) {
    throw BddUsageError("setNext: state bit index out of range");
  }
  next_[stateBitIndex] = std::move(fn);
}

ConjunctList Fsm::property(bool withAssists) const {
  std::vector<Bdd> items = invariant_;
  if (withAssists) {
    items.insert(items.end(), assists_.begin(), assists_.end());
  }
  ConjunctList list(mgr_, std::move(items));
  list.normalize();
  return list;
}

void Fsm::validate() const {
  if (init_.isNull()) throw BddUsageError("Fsm: init not set");
  if (next_.size() != vars_.stateBitCount()) {
    throw BddUsageError("Fsm: missing next-state functions");
  }
  for (const Bdd& f : next_) {
    if (f.isNull()) throw BddUsageError("Fsm: a next-state function is null");
  }
  if (invariant_.empty()) throw BddUsageError("Fsm: no invariant");
}

std::vector<Edge> Fsm::composeMap() const {
  std::vector<Edge> map(mgr_->varCount());
  for (unsigned v = 0; v < map.size(); ++v) map[v] = mgr_->varEdge(v);
  for (unsigned k = 0; k < vars_.stateBitCount(); ++k) {
    map[vars_.stateBit(k).cur] = next_[k].edge();
  }
  return map;
}

Bdd Fsm::backImage(const Bdd& z) const {
  return !preImage(!z);
}

Bdd Fsm::preImage(const Bdd& z) const {
  mgr_->autoGc();
  // Rename z's current-state variables to the next-state copies...
  std::vector<unsigned> perm(mgr_->varCount());
  for (unsigned v = 0; v < perm.size(); ++v) perm[v] = v;
  for (const StateBit& b : vars_.stateBits()) perm[b.cur] = b.nxt;
  const Bdd renamed = z.permute(perm);

  // ...then conjoin the transition conjuncts of exactly the bits z reads
  // (the others quantify to TRUE) and quantify nxt + inputs early.
  std::unordered_set<unsigned> support;
  for (const unsigned v : renamed.support()) support.insert(v);
  std::vector<Bdd> conjuncts;
  std::vector<unsigned> quantVars;
  for (unsigned k = 0; k < vars_.stateBitCount(); ++k) {
    const StateBit& b = vars_.stateBit(k);
    if (support.count(b.nxt) == 0) continue;
    conjuncts.push_back(vars_.nxt(k).xnor(next_[k]));
    quantVars.push_back(b.nxt);
  }
  for (const unsigned v : vars_.inputVars()) quantVars.push_back(v);
  return clusteredExistsProduct(*mgr_, renamed, conjuncts, quantVars,
                                kClusterCap);
}

Bdd Fsm::backImageByCompose(const Bdd& z) const {
  mgr_->autoGc();
  const std::vector<Edge> map = composeMap();
  const Bdd substituted(mgr_, mgr_->composeVecE(z.edge(), map));
  return substituted.forall(vars_.inputCube());
}

Bdd Fsm::preImageByCompose(const Bdd& z) const {
  mgr_->autoGc();
  const std::vector<Edge> map = composeMap();
  const Bdd substituted(mgr_, mgr_->composeVecE(z.edge(), map));
  return substituted.exists(vars_.inputCube());
}

std::vector<char> Fsm::step(std::span<const char> values) const {
  std::vector<char> out(mgr_->varCount(), 0);
  for (unsigned k = 0; k < vars_.stateBitCount(); ++k) {
    out[vars_.stateBit(k).cur] = next_[k].eval(values) ? 1 : 0;
  }
  return out;
}

std::string Fsm::describeState(std::span<const char> values) const {
  if (printer_) return printer_(*this, values);
  std::string out;
  for (unsigned k = 0; k < vars_.stateBitCount(); ++k) {
    const StateBit& b = vars_.stateBit(k);
    if (!out.empty()) out += ' ';
    out += b.name + "=" + (values[b.cur] != 0 ? "1" : "0");
  }
  return out;
}

}  // namespace icb
