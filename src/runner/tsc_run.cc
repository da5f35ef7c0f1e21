// tsc_run - the unified experiment driver.
//
//   tsc_run --list
//   tsc_run --experiment fig5 --samples 20000 --shards 8 --json
//   tsc_run --experiment fig5 --dispatch 4 --watchdog-ms 30000 --json
//
// Every paper figure, evaluation section and ablation is a registered
// experiment (src/runner/experiments.cc).  Results are printed as JSON on
// stdout; the document is bit-identical for any --shards value (worker
// count is a throughput knob, never a semantic one).
//
// --dispatch N runs the same campaign as a supervisor over N crash-isolated
// worker subprocesses (src/runner/dispatcher.h): workers lease shards over
// pipes, a SIGKILL-based watchdog reclaims wedged workers, and crashes
// become retried shards - with the merged JSON still byte-identical to the
// single-process run.  The same binary re-executes itself with the internal
// --dispatch-worker flag to become a worker.
#include "runner/experiment.h"

int main(int argc, char** argv) {
  return tsc::runner::experiment_main(argc, argv);
}
