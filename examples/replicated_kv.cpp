// Replicated bank accounts over the Atomic Broadcast RSM.
//
// Five replicas apply deposits/withdrawals in total order while two of them
// keep crashing and recovering; application-level checkpoints (paper §5.2)
// keep logs bounded and make recovery instant. At the end every replica
// holds identical balances. Run:  ./replicated_kv
#include <cstdio>

#include "apps/kv_store.hpp"
#include "apps/rsm.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulation.hpp"

using namespace abcast;
using namespace abcast::apps;

int main() {
  sim::Simulation sim({.n = 5, .seed = 7});
  core::StackConfig stack_cfg;
  stack_cfg.ab.checkpointing = true;
  stack_cfg.ab.app_checkpointing = true;   // A-checkpoint upcall (Fig. 5)
  stack_cfg.ab.truncate_logs = true;       // bounded logs (Fig. 4, line c)
  stack_cfg.ab.state_transfer = true;      // catch up long-dead replicas
  stack_cfg.ab.log_unordered = true;       // deposits survive sender crashes

  sim.set_node_factory([stack_cfg](Env& env) {
    return std::make_unique<RsmNode>(
        env, stack_cfg, [] { return std::make_unique<KvStore>(); });
  });
  sim.start_all();
  auto node = [&sim](ProcessId p) {
    return static_cast<RsmNode*>(sim.node(p));
  };
  auto kv = [&node](ProcessId p) -> KvStore& {
    return static_cast<KvStore&>(node(p)->rsm().machine());
  };

  // Replicas 3 and 4 crash and recover randomly throughout the run.
  sim::ChurnConfig churn;
  churn.mtbf = seconds(2);
  churn.mttr = millis(500);
  churn.victims = {3, 4};
  churn.stop = seconds(30);
  sim::ChurnInjector injector(sim, churn);

  // 300 banking operations, submitted via whichever replica is up.
  const char* accounts[] = {"alice", "bob", "carol"};
  int submitted = 0;
  for (int i = 0; i < 300; ++i) {
    const ProcessId via = static_cast<ProcessId>(i % 5);
    if (sim.host(via).is_up()) {
      node(via)->submit(KvCommand::add(accounts[i % 3], (i % 7) - 3));
      submitted += 1;
    }
    sim.run_for(millis(40));
  }

  // Settle: end churn, revive everyone, wait for convergence.
  sim.run_until(seconds(32));
  for (ProcessId p = 0; p < 5; ++p) {
    if (!sim.host(p).is_up()) sim.recover(p);
  }
  const bool converged = sim.run_until_pred(
      [&] {
        const auto d = kv(0).digest();
        for (ProcessId p = 1; p < 5; ++p) {
          if (kv(p).digest() != d) return false;
        }
        return kv(0).applied_commands() >= static_cast<std::uint64_t>(
                                               submitted);
      },
      sim.now() + seconds(120));

  std::printf("submitted %d ops; churn injected %llu crashes\n", submitted,
              static_cast<unsigned long long>(injector.crashes_injected()));
  std::printf("replicas converged: %s\n", converged ? "yes" : "NO");
  for (const char* account : accounts) {
    std::printf("  %-6s = %lld (identical at all %u replicas)\n", account,
                static_cast<long long>(kv(0).get_int(account)), sim.n());
  }
  std::printf("stable storage at p0: %llu bytes (bounded by checkpoints)\n",
              static_cast<unsigned long long>(
                  sim.host(0).storage().footprint_bytes()));
  return converged ? 0 : 1;
}
