#include "runner/machine_pool.h"

namespace tsc::runner {

PooledMachine MachinePool::lease(const core::Deployment& deployment,
                                 std::initializer_list<ProcId> procs) {
  const core::Platform& platform = deployment.platform;
  Slot& slot = slots_.at(static_cast<std::size_t>(platform.policy) * 2 +
                         (platform.partitioned ? 1 : 0));
  if (slot.machine == nullptr) {
    slot.machine = core::build_machine(deployment, procs);
    slot.interpreter = std::make_unique<isa::Interpreter>(*slot.machine);
  } else {
    core::deploy(*slot.machine, deployment, procs);
    slot.interpreter->reset();
  }
  return {*slot.machine, *slot.interpreter};
}

PooledMachine MachinePool::policy_machine(core::PlacementPolicy policy,
                                          std::uint64_t deployment_seed,
                                          bool partitioned) {
  return lease({{policy, core::SeedPolicy::kPerProcess, partitioned},
                deployment_seed},
               {core::kMatrixVictim, core::kMatrixAttacker});
}

MachinePool& MachinePool::local() {
  thread_local MachinePool pool;
  return pool;
}

}  // namespace tsc::runner
