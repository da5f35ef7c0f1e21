// Pooled per-run machines for the MBPTA fresh-layout protocols.
//
// The paper's MBPTA collection protocol (section 2.1) demands a FRESH
// machine per run: a new random layout, empty caches, time zero.  Naively
// that means constructing a Machine (three caches, line arrays, RPCache
// permutation tables) plus an Interpreter (paged memory) for every one of
// the campaign's tens of thousands of runs - allocation work that rivals
// the simulation itself now that the access path is fast (PR 2).
//
// MachinePool keeps one machine + interpreter per (placement policy,
// partitioned) PER WORKER THREAD and re-deploys it with core::deploy
// instead of reconstruction.  The seed policy is not part of the key: a
// deployment resets every seed, so MBPTACache, TSCache and the matrix's
// random-modulo cell all lease the same slot.  The contract is
// bit-exactness, not approximation: the re-deployed machine behaves
// exactly like core::build_machine's (the golden campaign fixtures pin
// this end to end; tests/machine_pool_test.cc pins it per slot).  Workers
// never share a pool - local() hands each thread its own - so no
// synchronization exists anywhere on the run path.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>

#include "core/policy.h"
#include "isa/interpreter.h"

namespace tsc::runner {

/// A leased machine, in the fresh-deployment state of core::build_machine,
/// with a pooled interpreter (zeroed registers/memory) bound to it.  Valid
/// until the same pool leases the same (policy, partitioned) slot again.
struct PooledMachine {
  sim::Machine& machine;
  isa::Interpreter& interpreter;
};

class MachinePool {
 public:
  /// Lease the slot of (deployment.platform.policy, .partitioned),
  /// re-deployed - bit-exact with core::build_machine(deployment, procs).
  PooledMachine lease(const core::Deployment& deployment,
                      std::initializer_list<ProcId> procs);

  /// The attack-matrix cell: lease core::build_policy_machine's deployment.
  PooledMachine policy_machine(core::PlacementPolicy policy,
                               std::uint64_t deployment_seed,
                               bool partitioned);

  /// The calling thread's pool.  Campaign tasks run on ThreadPool workers,
  /// so each worker reuses its own machines across the tasks it executes
  /// and the pool dies with the thread.
  static MachinePool& local();

 private:
  struct Slot {
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<isa::Interpreter> interpreter;
  };

  std::array<Slot, 2 * core::kPolicyCount> slots_;  ///< [policy*2 + partitioned]
};

}  // namespace tsc::runner
