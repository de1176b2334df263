// L2 bad fixture: the engine run protocol's step end (which reorders) and
// checkpoint emission called with no registered safe point.
void iterate(EngineRun& run, const Bdd& reached) {
  run.emitCheckpoint({{reached}});
  run.endStep("image", [&] { return std::vector<std::uint64_t>{}; });
}
