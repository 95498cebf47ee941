// Umbrella header: the public API of the kdchoice library.
//
//   #include "core/kdchoice.hpp"
//
//   kdc::core::kd_choice_process process(/*n=*/1 << 16, /*k=*/8, /*d=*/16,
//                                        /*seed=*/42);
//   process.run_balls(process.n());
//   auto metrics = kdc::core::compute_load_metrics(process.loads());
//
// See examples/quickstart.cpp for a complete walk-through.
#pragma once

#include "core/baselines.hpp"   // (1+beta), batched-greedy, adaptive
#include "core/coupling.hpp"    // Section 3 coupling experiments
#include "core/exact.hpp"       // exact small-instance distributions
#include "core/fault_injection.hpp" // deterministic fault-plan sites
#include "core/level_process.hpp" // level-compressed kernels (huge n)
#include "core/level_profile.hpp" // counts-per-load-level state
#include "core/metrics.hpp"     // nu_y / mu_y / sorted loads / gap
#include "core/process.hpp"     // kd_choice_process + classic baselines
#include "core/round_kernel.hpp" // one-round primitive (advanced use)
#include "core/runner.hpp"      // multi-repetition experiments
#include "core/scenario.hpp"    // scenarios: policy table + factory
#include "core/serialized.hpp"  // Definition 1 serialization
#include "core/sharded_kernel.hpp" // sharded round-parallel kernels
#include "core/snapshot_stage.hpp" // --snapshot-out/--resume bench staging
#include "core/steady_state.hpp" // warmup=ff steady-state fast-forward
#include "core/sweep.hpp"       // cross-cell grid sweeps on a shared pool
#include "core/threshold.hpp"   // Definition 3 SA_{x0}
#include "core/types.hpp"
#include "core/weighted.hpp"    // weighted (k,d)-choice
