// RAII installation of an engine's resource caps onto a BDD manager.
#pragma once

#include "bdd/manager.hpp"
#include "verif/engine.hpp"

namespace icb {

class LimitGuard {
 public:
  LimitGuard(BddManager& mgr, const EngineOptions& options) : mgr_(mgr) {
    saved_ = mgr.limits();
    ResourceLimits limits;
    limits.maxNodes = options.maxNodes;
    if (options.timeLimitSeconds > 0) {
      limits.deadline = Deadline::afterSeconds(options.timeLimitSeconds);
    }
    limits.cancelFlag = options.cancelFlag;
    mgr.setLimits(limits);
  }
  ~LimitGuard() { mgr_.setLimits(saved_); }

  LimitGuard(const LimitGuard&) = delete;
  LimitGuard& operator=(const LimitGuard&) = delete;

 private:
  BddManager& mgr_;
  ResourceLimits saved_;
};

}  // namespace icb
