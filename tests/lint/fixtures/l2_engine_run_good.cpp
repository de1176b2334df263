// L2 good fixture: both EngineRun calls sit under an ICBDD_SAFE_POINT
// marker; the declarations of the methods themselves are not calls.
void EngineRun::endStep(std::string_view phase);
void iterate(EngineRun& run, const Bdd& reached) {
  ICBDD_SAFE_POINT("fixture loop head: all state rooted in handles");
  if (run.checkpointDue()) run.emitCheckpoint({{reached}});
  ICBDD_SAFE_POINT("fixture step complete, no raw edges outstanding");
  run.endStep("image", [&] { return std::vector<std::uint64_t>{}; });
}
