// Core API: everything needed to state and solve an LCRB instance — the
// graph/community/diffusion substrate plus the paper's algorithms (bridge
// ends, RR sets, LCRB-P greedy, SCBG) and the unified
// LcrbOptions knob aggregate.
//
// The experiment-harness layer (pipeline, baselines, source detection,
// CLI/CSV/table utilities) lives in lcrb/experiments.h, which includes this
// header.
#pragma once

#include "community/detect.h"
#include "community/io.h"
#include "community/label_propagation.h"
#include "community/louvain.h"
#include "community/modularity.h"
#include "community/nmi.h"
#include "community/partition.h"
#include "community/quality.h"
#include "diffusion/cascade.h"
#include "diffusion/doam.h"
#include "diffusion/model_traits.h"
#include "diffusion/montecarlo.h"
#include "diffusion/opoao.h"
#include "graph/builder.h"
#include "graph/centrality.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "graph/subgraph.h"
#include "graph/transform.h"
#include "graph/traversal.h"
#include "lcrb/bridge.h"
#include "lcrb/greedy.h"
#include "lcrb/options.h"
#include "lcrb/ris.h"
#include "lcrb/scbg.h"
#include "lcrb/sigma.h"
#include "util/bitset.h"
#include "util/error.h"
#include "util/json.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/threadpool.h"
#include "util/timer.h"
#include "util/types.h"
