// Engine checkpoint persistence: save/load of EngineSnapshot on top of
// bdd/serialize, plus the small emitter the engines call at their iteration
// boundary.
//
// Format (text header lines, then one binary saveBdds dump):
//   icbdd-ckpt-v1
//   method <fwd|bkwd|fd|ici|xici>
//   iteration <n>
//   numbers <count> <value> ...
//   lists <count> <len0> <len1> ...
//   <icbdd-bdd-v3 dump of all list members, flattened in list order>
//
// The BDD dump carries the writer's variable order, so a snapshot taken
// after dynamic reordering restores into a manager with the same order --
// the property the byte-identical resume guarantee rests on.  A snapshot
// whose dump is in an older format fails to load with a SerializeError.
#pragma once

#include <iosfwd>

#include "verif/engine.hpp"

namespace icb {

/// Writes `snap` (whose handles must belong to `mgr`).
void saveSnapshot(std::ostream& os, const BddManager& mgr,
                  const EngineSnapshot& snap);

/// Reads a snapshot into `mgr` (usually a freshly built model's manager).
/// Throws SerializeError (a BddUsageError) on malformed or truncated input;
/// its byteOffset() counts from the start of the stream, header lines
/// included.
EngineSnapshot loadSnapshot(std::istream& is, BddManager& mgr);

/// The engine checkpoint hook, owned by EngineRun (verif/engine_run.hpp)
/// and driven once per loop pass at the iteration boundary: it handles the
/// every-N cadence, skips the iteration the run was resumed at (that state
/// is already journaled), and credits the sink's wall time back to the
/// manager deadline.
class CheckpointEmitter {
 public:
  CheckpointEmitter(BddManager& mgr, const CheckpointOptions& options,
                    Method method)
      : mgr_(mgr),
        options_(options),
        method_(method),
        lastEmitted_(options.resume != nullptr ? options.resume->iteration
                                               : 0) {}

  /// True when a snapshot is wanted for `iteration` -- callers may use this
  /// to skip building the lists vector entirely on non-checkpoint passes.
  [[nodiscard]] bool due(unsigned iteration) const {
    return options_.everyIterations != 0 && options_.sink != nullptr &&
           iteration != 0 && iteration % options_.everyIterations == 0 &&
           iteration > lastEmitted_;
  }

  void emit(unsigned iteration, std::vector<std::vector<Bdd>> lists,
            std::vector<std::uint64_t> numbers = {});

 private:
  BddManager& mgr_;
  const CheckpointOptions& options_;
  Method method_;
  unsigned lastEmitted_;
};

}  // namespace icb
