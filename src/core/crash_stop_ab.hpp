// Baseline: Chandra-Toueg-style Atomic Broadcast for the crash-stop
// (no-recovery) model (paper §5.6 observes that when crashes are definitive
// the crash-recovery protocol "reduces to" this one).
//
// The baseline is the same stack configured for a world without recovery:
//   * eager relay of new messages (no periodic gossip needed for liveness,
//     but kept as a slow fallback against channel loss);
//   * no durability: a crash-stop process never reads its log back, so in a
//     crash-free run its writes are dead weight and bench_ct_baseline
//     reports the baseline's log ops as zero by definition — that is how it
//     shows the crash-recovery machinery's logging overhead against this
//     baseline.
#pragma once

#include "core/node_stack.hpp"

namespace abcast::core {

/// Stack configuration for the crash-stop baseline. Any host storage will do:
/// a crash-free run never reads it back.
StackConfig crash_stop_baseline_config(ConsensusKind engine);

}  // namespace abcast::core
