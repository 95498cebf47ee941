// The installed umbrella header: the whole public surface of the kdchoice
// library behind one include.
//
//   #include <kdchoice.hpp>               // installed tree
//   #include "kdchoice.hpp"               // in-tree, src/ on the path
//
//   auto sc = kdc::core::parse_scenario("kd:n=1e6,k=2,d=4,kernel=auto");
//   auto process = kdc::core::make_process(sc, /*seed=*/42);
//   process.run_balls(kdc::core::resolved_balls(sc));
//   std::cout << process.observe().max_load << '\n';
//
// The scenario API (core/scenario.hpp) is the recommended entry point —
// one declarative value, one policy table, one factory behind every kernel.
// The concrete process/engine/stats layers it is built from are all
// exported here too; see examples/quickstart.cpp for the walk-through.
#pragma once

#include "core/kdchoice.hpp"      // processes, kernels, engine, sweeps
#include "core/scenario.hpp"      // the declarative scenario API
#include "serve/service.hpp"      // the allocation service + serial oracle
#include "stats/histogram.hpp"    // aggregation used by experiment results
#include "stats/hypothesis.hpp"   // KS / Mann-Whitney / t-interval tests
#include "stats/running_stats.hpp"
#include "support/cli.hpp"        // --scenario / --kernel / --adaptive flags
#include "support/csv_writer.hpp"
#include "support/row_emitter.hpp" // shared table/CSV emission
#include "support/text_table.hpp"
#include "theory/bounds.hpp"      // the paper's closed-form bounds
