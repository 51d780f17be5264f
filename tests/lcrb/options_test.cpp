#include "lcrb/options.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/args.h"

namespace lcrb {
namespace {

/// The lcrb::Error message `f` throws, or "no error".
template <class F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "no error";
}

TEST(OptionsTest, DefaultsValidate) {
  LcrbOptions opts;
  EXPECT_NO_THROW(opts.validate());
}

TEST(OptionsTest, BudgetRule) {
  LcrbOptions opts;
  EXPECT_EQ(opts.resolved_budget(7), 7u);  // 0 = |rumors|
  opts.budget = 3;
  EXPECT_EQ(opts.resolved_budget(7), 3u);

  // Self-sizing selectors reject a budget outright.
  opts.selector = SelectorKind::kScbg;
  EXPECT_THROW(opts.validate(), Error);
  opts.selector = SelectorKind::kNoBlocking;
  EXPECT_THROW(opts.validate(), Error);
  opts.budget = 0;
  EXPECT_NO_THROW(opts.validate());
}

TEST(OptionsTest, ValidateRejectsOutOfRange) {
  const auto broken = [](auto&& mutate) {
    LcrbOptions o;
    mutate(o);
    return o;
  };
  EXPECT_THROW(broken([](LcrbOptions& o) { o.alpha = 0.0; }).validate(),
               Error);
  EXPECT_THROW(broken([](LcrbOptions& o) { o.alpha = 1.5; }).validate(),
               Error);
  EXPECT_THROW(
      broken([](LcrbOptions& o) { o.sigma_samples = 0; }).validate(), Error);
  EXPECT_THROW(
      broken([](LcrbOptions& o) { o.ic_edge_prob = -0.1; }).validate(), Error);
  EXPECT_THROW(
      broken([](LcrbOptions& o) { o.ris_epsilon = 0.0; }).validate(), Error);
  EXPECT_THROW(broken([](LcrbOptions& o) { o.ris_delta = 1.0; }).validate(),
               Error);
  EXPECT_THROW(
      broken([](LcrbOptions& o) { o.ris_initial_sets = 0; }).validate(),
      Error);
  EXPECT_THROW(broken([](LcrbOptions& o) {
                 o.ris_initial_sets = 100;
                 o.ris_max_sets = 10;
               }).validate(),
               Error);
  // RIS sigma only exists for the greedy selector.
  EXPECT_THROW(broken([](LcrbOptions& o) {
                 o.selector = SelectorKind::kMaxDegree;
                 o.sigma_mode = SigmaMode::kRis;
               }).validate(),
               Error);
}

TEST(OptionsTest, JsonRoundTripIsExact) {
  LcrbOptions opts;
  opts.selector = SelectorKind::kGvs;
  opts.budget = 12;
  opts.alpha = 0.73;
  opts.candidates = CandidateStrategy::kAllNodes;
  opts.use_celf = false;
  opts.model = DiffusionModel::kIc;
  opts.ic_edge_prob = 0.25;
  opts.sigma_samples = 9;
  opts.sigma_seed = 1234567;
  opts.ris_epsilon = 0.05;
  const LcrbOptions back = LcrbOptions::from_json(opts.to_json());
  EXPECT_EQ(back, opts);
  // And the canonical serialization is stable under a second trip.
  EXPECT_EQ(back.to_json().dump(), opts.to_json().dump());
}

TEST(OptionsTest, FromJsonRejectsUnknownKeysAndInvalidValues) {
  JsonValue v = LcrbOptions{}.to_json();
  v.set("typo_knob", 1);
  EXPECT_THROW(LcrbOptions::from_json(v), Error);
  // A removed key is unknown too, not silently ignored.
  JsonValue removed = LcrbOptions{}.to_json();
  removed.set("ris_max_pool_bytes", 0);
  EXPECT_EQ(error_of([&] { LcrbOptions::from_json(removed); }),
            "options: unknown key 'ris_max_pool_bytes'");

  JsonValue bad = LcrbOptions{}.to_json();
  bad.set("alpha", 0.0);
  EXPECT_THROW(LcrbOptions::from_json(bad), Error);
}

TEST(OptionsTest, FromJsonAbsentKeysKeepDefaults) {
  const JsonValue v = JsonValue::parse("{\"alpha\":0.5}");
  const LcrbOptions opts = LcrbOptions::from_json(v);
  EXPECT_DOUBLE_EQ(opts.alpha, 0.5);
  EXPECT_EQ(opts.sigma_samples, LcrbOptions{}.sigma_samples);
  EXPECT_EQ(opts.selector, SelectorKind::kGreedy);
}

TEST(OptionsTest, EnumParsingIsCaseInsensitive) {
  EXPECT_EQ(selector_kind_from_string("SCBG"), SelectorKind::kScbg);
  EXPECT_EQ(selector_kind_from_string("scbg"), SelectorKind::kScbg);
  EXPECT_EQ(selector_kind_from_string("Greedy"), SelectorKind::kGreedy);
  EXPECT_EQ(selector_kind_from_string("greedy"), SelectorKind::kGreedy);
  EXPECT_EQ(diffusion_model_from_string("OPOAO"), DiffusionModel::kOpoao);
  EXPECT_EQ(diffusion_model_from_string("opoao"), DiffusionModel::kOpoao);
  EXPECT_EQ(diffusion_model_from_string("doam"), DiffusionModel::kDoam);
  EXPECT_EQ(sigma_mode_from_string("MC"), SigmaMode::kMonteCarlo);
  EXPECT_EQ(sigma_mode_from_string("ris"), SigmaMode::kRis);
  EXPECT_THROW(selector_kind_from_string("bogus"), Error);
  EXPECT_THROW(diffusion_model_from_string(""), Error);
}

TEST(OptionsTest, FromArgsOverridesOnlyPresentFlags) {
  const Args args(std::vector<std::string>{
      "--selector", "maxdegree", "--budget", "4", "--samples", "11",
      "--sigma-seed", "99", "--no-celf"});
  const LcrbOptions opts = LcrbOptions::from_args(args);
  EXPECT_EQ(opts.selector, SelectorKind::kMaxDegree);
  EXPECT_EQ(opts.budget, 4u);
  EXPECT_EQ(opts.sigma_samples, 11u);
  EXPECT_EQ(opts.sigma_seed, 99u);
  EXPECT_FALSE(opts.use_celf);
  EXPECT_DOUBLE_EQ(opts.alpha, LcrbOptions{}.alpha);  // untouched
}

LcrbOptions parse_args(std::vector<std::string> argv) {
  return LcrbOptions::from_args(Args(argv));
}

TEST(OptionsTest, FromArgsRejectsNegativeCountsLikeFromJson) {
  // flag -> JSON key of the same field.
  const std::pair<const char*, const char*> fields[] = {
      {"samples", "sigma_samples"},
      {"budget", "budget"},
      {"hops", "max_hops"},
      {"candidates", "max_candidates"},
      {"selector-seed", "selector_seed"},
      {"sigma-seed", "sigma_seed"},
      {"ris-initial-sets", "ris_initial_sets"},
      {"ris-max-sets", "ris_max_sets"},
      {"gvs-samples", "gvs_samples"},
      {"gvs-candidates", "gvs_max_candidates"}};
  for (const auto& [flag, key] : fields) {
    EXPECT_EQ(error_of([&] { parse_args({std::string("--") + flag, "-1"}); }),
              std::string("options: --") + flag +
                  " must be non-negative, got -1");
    JsonValue v = JsonValue::object();
    v.set(key, std::int64_t{-1});
    EXPECT_EQ(error_of([&] { LcrbOptions::from_json(v); }),
              std::string("options: ") + key +
                  " must be non-negative, got -1");
  }
}

TEST(OptionsTest, ProtectorBudgetListRejectsNegativeAndMalformedItems) {
  const std::vector<std::string> multi{"--multi-mode", "coordinated"};
  auto with_budgets = [&](const std::string& list) {
    std::vector<std::string> argv = multi;
    argv.push_back("--protector-budgets=" + list);
    return argv;
  };
  EXPECT_EQ(parse_args(with_budgets("2,1")).protector_budgets,
            (std::vector<std::size_t>{2, 1}));
  EXPECT_EQ(error_of([&] { parse_args(with_budgets("-1,1")); }),
            "options: --protector-budgets must be non-negative, got -1");
  EXPECT_EQ(error_of([&] { parse_args(with_budgets("1x,1")); }),
            "options: --protector-budgets: bad number '1x' in list '1x,1'");
}

TEST(OptionsTest, HopCapPastThirtyTwoBitsIsRejectedNotTruncated) {
  // 2^32 + 1 would otherwise truncate to a cap of 1 hop.
  EXPECT_EQ(error_of([] { parse_args({"--hops", "4294967297"}); }),
            "options: --hops must be at most 4294967295, got 4294967297");
  JsonValue v = JsonValue::object();
  v.set("max_hops", std::int64_t{4294967297});
  EXPECT_EQ(error_of([&] { LcrbOptions::from_json(v); }),
            "options: max_hops must be at most 4294967295, got 4294967297");
  EXPECT_EQ(parse_args({"--hops", "4294967295"}).max_hops, 0xffffffffu);
}

TEST(OptionsTest, EngineViewsCarryTheSharedKnobs) {
  LcrbOptions opts;
  opts.budget = 5;
  opts.alpha = 0.6;
  opts.sigma_samples = 13;
  opts.sigma_seed = 21;
  opts.model = DiffusionModel::kDoam;
  opts.ris_epsilon = 0.2;

  const GreedyConfig gc = opts.greedy_config();
  EXPECT_DOUBLE_EQ(gc.alpha, 0.6);
  EXPECT_EQ(gc.max_protectors, 5u);
  EXPECT_EQ(gc.sigma.samples, 13u);
  EXPECT_EQ(gc.sigma.seed, 21u);
  EXPECT_EQ(gc.sigma.model, DiffusionModel::kDoam);

  const SigmaConfig sc = opts.sigma_config();
  EXPECT_EQ(sc.samples, 13u);
  EXPECT_EQ(sc.model, DiffusionModel::kDoam);

  const RisConfig rc = opts.ris_config();
  EXPECT_EQ(rc.seed, 21u);
  EXPECT_DOUBLE_EQ(rc.epsilon, 0.2);
}

}  // namespace
}  // namespace lcrb
