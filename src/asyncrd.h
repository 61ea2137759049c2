// Umbrella header: everything a downstream user of the library needs.
//
//   #include "asyncrd.h"
//
//   asyncrd::graph::digraph g;               // who initially knows whom
//   g.add_edge(0, 1);
//   asyncrd::sim::random_delay_scheduler sched(1);
//   asyncrd::core::config cfg;               // pick a variant + knobs
//   asyncrd::core::discovery_run run(g, cfg, sched);
//   run.wake_all(); run.run();
//   asyncrd::core::check_final_state(run, g);  // the paper's spec, as code
//
// See README.md for the tour and DESIGN.md / EXPERIMENTS.md for the
// paper-reproduction map.
#pragma once

#include "common/bitmath.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/table.h"

#include "sim/load_observer.h"
#include "sim/message.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "sim/stats.h"

#include "graph/digraph.h"
#include "graph/graphio.h"
#include "graph/topology.h"

#include "unionfind/ackermann.h"
#include "unionfind/dsu.h"

#include "core/adversary.h"
#include "core/checker.h"
#include "core/messages.h"
#include "core/node.h"
#include "core/runner.h"
#include "core/status.h"
#include "core/trace.h"
#include "core/uf_reduction.h"

#include "telemetry/critical_path.h"
#include "telemetry/histogram.h"
#include "telemetry/json.h"
#include "telemetry/perfetto.h"
#include "telemetry/report.h"
#include "telemetry/tracer.h"

#include "baselines/absorption.h"
#include "baselines/baseline_result.h"
#include "baselines/dfs_election.h"
#include "baselines/flooding.h"
#include "baselines/name_dropper.h"
#include "baselines/pointer_doubling.h"
