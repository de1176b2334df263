// Shared helpers for the test suite: truth-table oracles, random function
// generation over small variable counts, and a check-level scope.
#pragma once

#include <cstdint>
#include <vector>

#include "bdd/bdd.hpp"
#include "check/check.hpp"
#include "util/rng.hpp"

namespace icb::test {

/// Restores the process check level on scope exit (the suite shares one
/// process; a leaked level would change every later test's behavior).
class ScopedCheckLevel {
 public:
  explicit ScopedCheckLevel(CheckLevel level) : saved_(checkLevel()) {
    setCheckLevel(level);
  }
  ~ScopedCheckLevel() { setCheckLevel(saved_); }
  ScopedCheckLevel(const ScopedCheckLevel&) = delete;
  ScopedCheckLevel& operator=(const ScopedCheckLevel&) = delete;

 private:
  CheckLevel saved_;
};

/// Full truth table of `f` over variables [0, nvars): 2^nvars entries,
/// entry m is f evaluated with variable v = bit v of m.
inline std::vector<char> truthTable(const Bdd& f, unsigned nvars) {
  std::vector<char> table(std::size_t{1} << nvars);
  std::vector<char> values(f.manager()->varCount(), 0);
  for (std::size_t m = 0; m < table.size(); ++m) {
    for (unsigned v = 0; v < nvars; ++v) {
      values[v] = static_cast<char>((m >> v) & 1u);
    }
    table[m] = f.eval(values) ? 1 : 0;
  }
  return table;
}

/// Random function over variables [0, nvars) built as an expression tree of
/// the given depth -- exercises all the basic connectives.
inline Bdd randomBdd(BddManager& mgr, unsigned nvars, Rng& rng,
                     unsigned depth = 4) {
  if (depth == 0 || rng.below(8) == 0) {
    switch (rng.below(4)) {
      case 0:
        return mgr.one();
      case 1:
        return mgr.zero();
      default: {
        const Bdd v = mgr.var(static_cast<unsigned>(rng.below(nvars)));
        return rng.coin() ? v : !v;
      }
    }
  }
  const Bdd a = randomBdd(mgr, nvars, rng, depth - 1);
  const Bdd b = randomBdd(mgr, nvars, rng, depth - 1);
  switch (rng.below(5)) {
    case 0:
      return a & b;
    case 1:
      return a | b;
    case 2:
      return a ^ b;
    case 3:
      return !a;
    default: {
      const Bdd c = randomBdd(mgr, nvars, rng, depth - 1);
      return a.ite(b, c);
    }
  }
}

/// A manager pre-loaded with `nvars` variables.
inline BddManager& freshManager(unsigned nvars, BddManager& storage) {
  for (unsigned i = 0; i < nvars; ++i) storage.newVar();
  return storage;
}

}  // namespace icb::test
