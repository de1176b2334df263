// L4 good fixture: histogram writers with histogram-typed catalog names.
void record(MetricsRegistry& metrics, const Histogram& h) {
  metrics.recordHistogram("svc.job.queue_wait_us", 42);
  metrics.mergeHistogram("bdd.gc.pause_us", h);
  metrics.mergeHistogram("bdd.reorder.pause_us", h);
}
