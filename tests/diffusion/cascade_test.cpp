#include "diffusion/cascade.h"

#include <gtest/gtest.h>

#include "diffusion/montecarlo.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "util/error.h"

namespace lcrb {
namespace {

TEST(ValidateSeeds, AcceptsDisjointSets) {
  const DiGraph g = cycle_graph(6);
  EXPECT_NO_THROW(validate_seeds(g, {{0, 1}, {3, 4}}));
  EXPECT_NO_THROW(validate_seeds(g, {{0}, {}}));
  EXPECT_NO_THROW(validate_seeds(g, {{}, {}}));
}

TEST(ValidateSeeds, RejectsOverlap) {
  const DiGraph g = cycle_graph(6);
  EXPECT_THROW(validate_seeds(g, {{0, 1}, {1, 2}}), Error);
}

TEST(ValidateSeeds, RejectsDuplicates) {
  const DiGraph g = cycle_graph(6);
  EXPECT_THROW(validate_seeds(g, {{0, 0}, {}}), Error);
  EXPECT_THROW(validate_seeds(g, {{}, {2, 2}}), Error);
}

TEST(ValidateSeeds, RejectsOutOfRange) {
  const DiGraph g = cycle_graph(6);
  EXPECT_THROW(validate_seeds(g, {{6}, {}}), Error);
  EXPECT_THROW(validate_seeds(g, {{}, {99}}), Error);
}

TEST(DiffusionResult, CountsAndCumulatives) {
  DiffusionResult r;
  r.state = {NodeState::kInfected, NodeState::kProtected, NodeState::kInactive,
             NodeState::kInfected};
  r.newly_infected = {1, 1, 0};
  r.newly_protected = {1, 0, 0};
  EXPECT_EQ(r.infected_count(), 2u);
  EXPECT_EQ(r.protected_count(), 1u);
  EXPECT_EQ(r.cumulative_infected_at(0), 1u);
  EXPECT_EQ(r.cumulative_infected_at(1), 2u);
  EXPECT_EQ(r.cumulative_infected_at(2), 2u);
  // Beyond the recorded series the curve is flat.
  EXPECT_EQ(r.cumulative_infected_at(100), 2u);
  EXPECT_EQ(r.cumulative_protected_at(100), 1u);
}

TEST(DiffusionResultValidate, AcceptsRealSimulationAndRejectsCorruption) {
  // A genuine OPOAO run on a path passes; targeted corruptions of each
  // invariant the validator states must throw.
  const DiGraph g = make_graph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const SeedSets seeds{{0}, {4}};
  const DiffusionResult r =
      simulate(g, seeds, 17, DiffusionModel::kOpoao, RealizationParams{});
  EXPECT_NO_THROW(r.validate(g, seeds));

  {  // state says active, activation_step says unreached
    DiffusionResult bad = r;
    bad.state[0] = NodeState::kInactive;
    EXPECT_THROW(bad.validate(g, seeds), Error);
  }
  {  // a non-seed claiming step 0
    DiffusionResult bad = r;
    bad.state[2] = NodeState::kInfected;
    bad.activation_step[2] = 0;
    EXPECT_THROW(bad.validate(g, seeds), Error);
  }
  {  // newly_* series out of sync with the activation steps
    DiffusionResult bad = r;
    bad.newly_infected[0] += 1;
    EXPECT_THROW(bad.validate(g, seeds), Error);
  }
  {  // hand-built result whose counting invariants all hold, but node 2's
     // protection at step 1 has no protected in-neighbor at step 0 (its only
     // in-neighbor, 1, is inactive) — only the propagation rule can catch it
    DiffusionResult bad;
    bad.state.assign(5, NodeState::kInactive);
    bad.activation_step.assign(5, kUnreached);
    bad.state[0] = NodeState::kInfected;
    bad.activation_step[0] = 0;
    bad.state[4] = NodeState::kProtected;
    bad.activation_step[4] = 0;
    bad.state[2] = NodeState::kProtected;
    bad.activation_step[2] = 1;
    bad.newly_infected = {1, 0};
    bad.newly_protected = {1, 1};
    bad.steps = 1;
    EXPECT_THROW(bad.validate(g, seeds), Error);
  }
}

TEST(DiffusionResult, SavedFraction) {
  DiffusionResult r;
  r.state = {NodeState::kInfected, NodeState::kProtected, NodeState::kInactive};
  const NodeId targets[] = {0, 1, 2};
  EXPECT_EQ(r.saved_count(targets), 2u);
  EXPECT_NEAR(r.saved_fraction(targets), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.saved_fraction({}), 1.0);
}

}  // namespace
}  // namespace lcrb
