// cosoft-mc: exhaustive interleaving exploration of the §3.2 multiple-
// execution algorithm, reduction effectiveness, seeded fault violations,
// trace minimization, and deterministic replay.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cosoft/mc/explorer.hpp"
#include "cosoft/mc/scenario.hpp"
#include "cosoft/mc/trace.hpp"
#include "cosoft/mc/world.hpp"

namespace cosoft::mc {
namespace {

const Scenario& scenario(const char* name) {
    const Scenario* s = find_scenario(name);
    EXPECT_NE(s, nullptr) << name;
    return *s;
}

/// Pins an exploration's exact shape. The counts move whenever the server's
/// state fingerprint partitions states differently (or the protocol gains or
/// loses a step), so such a change fails here instead of passing silently.
void expect_counts(const ExploreResult& result, std::uint64_t interleavings, std::uint64_t states,
                   std::uint64_t pruned) {
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.interleavings, interleavings);
    EXPECT_EQ(result.states_visited, states);
    EXPECT_EQ(result.states_pruned, pruned);
}

TEST(McWorld, ConstructionIsDeterministic) {
    const Options options;
    World a(scenario("couple_lock_execute"), options);
    World b(scenario("couple_lock_execute"), options);
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_FALSE(a.quiescent()) << "injected stimuli must be in flight";
    EXPECT_TRUE(a.step_violations().empty());
}

TEST(McWorld, SameScheduleSameDigest) {
    const Options options;
    World a(scenario("couple_lock_execute"), options);
    World b(scenario("couple_lock_execute"), options);
    // Drive both with the identical greedy schedule.
    while (!a.quiescent()) {
        const std::vector<Choice> choices = a.choices();
        ASSERT_FALSE(choices.empty());
        a.apply(choices.front());
        b.apply(choices.front());
        ASSERT_EQ(a.digest(), b.digest());
    }
    EXPECT_TRUE(b.quiescent());
    EXPECT_TRUE(a.quiescence_violations().empty()) << a.quiescence_violations().front();
}

TEST(McWorld, DigestDistinguishesDifferentOrders) {
    const Options options;
    World a(scenario("couple_lock_execute"), options);
    const std::vector<Choice> choices = a.choices();
    ASSERT_GE(choices.size(), 2u);
    World b(scenario("couple_lock_execute"), options);
    a.apply(choices[0]);
    b.apply(choices[1]);
    EXPECT_NE(a.digest(), b.digest());
}

// The acceptance bar: the 2-client couple/lock/execute scenario explores
// exhaustively — at least 1,000 distinct interleavings survive reduction —
// and every safety property (invariants, conformance, drain, convergence,
// accounting) holds on every path.
TEST(McExplore, CoupleLockExecuteExhaustiveAllGreen) {
    Options options;  // no faults, full reduction
    Explorer explorer(scenario("couple_lock_execute"), options);
    const ExploreResult result = explorer.explore();
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.depth_cap_hits, 0u);
    ASSERT_TRUE(result.violations.empty()) << result.violations.front().detail;
    EXPECT_GE(result.interleavings, 1000u);
    expect_counts(result, 1445, 2610, 1443);
}

TEST(McExplore, ReductionsActuallyPrune) {
    Options options;
    Explorer explorer(scenario("couple_lock_execute"), options);
    const ExploreResult reduced = explorer.explore();
    ASSERT_TRUE(reduced.complete);
    EXPECT_GT(reduced.states_pruned, 0u) << "digest pruning never fired";
    EXPECT_GT(reduced.sleep_skips, 0u) << "sleep sets never fired";

    // Without reductions the same space must be at least as large; bound the
    // run so the test stays fast even though the full tree is much bigger.
    Options raw = options;
    raw.use_por = false;
    raw.use_state_pruning = false;
    raw.max_interleavings = reduced.interleavings;
    Explorer unreduced(scenario("couple_lock_execute"), raw);
    const ExploreResult full = unreduced.explore();
    EXPECT_TRUE(full.violations.empty());
    EXPECT_GE(full.interleavings, reduced.interleavings);
}

TEST(McExplore, LooseSyncBoundedAllGreen) {
    Options options;
    options.max_interleavings = 4000;
    Explorer explorer(scenario("loose_sync"), options);
    const ExploreResult result = explorer.explore();
    EXPECT_TRUE(result.violations.empty()) << result.violations.front().detail;
    EXPECT_GT(result.interleavings, 0u);
    expect_counts(result, 140, 330, 136);
}

TEST(McExplore, TrioRaceBoundedAllGreen) {
    Options options;
    options.max_interleavings = 4000;
    Explorer explorer(scenario("trio_race"), options);
    const ExploreResult result = explorer.explore();
    EXPECT_TRUE(result.violations.empty()) << result.violations.front().detail;
    EXPECT_GT(result.interleavings, 0u);
    expect_counts(result, 1466, 2520, 1463);
}

// Durable-session companion: a third client's Register (and the server's
// SyncBegin..SyncEnd catch-up stream answering it) interleaves with the
// founders' couple/lock/execute burst at every explored point. Conformance
// checkers enforce the stream lifecycle on every path; quiescence requires
// the founders converged and the joiner promoted.
TEST(McExplore, JoinMidCoupleLockExecuteBoundedAllGreen) {
    Options options;
    options.max_interleavings = 4000;
    Explorer explorer(scenario("join_mid_couple_lock_execute"), options);
    const ExploreResult result = explorer.explore();
    EXPECT_TRUE(result.violations.empty()) << result.violations.front().detail;
    EXPECT_GT(result.interleavings, 0u);
    expect_counts(result, 2350, 4166, 2348);
}

TEST(McExplore, CrashFaultPathsKeepServerConsistent) {
    Options options;
    options.close_faults = 1;
    options.max_interleavings = 4000;
    Explorer explorer(scenario("couple_lock_execute"), options);
    const ExploreResult result = explorer.explore();
    EXPECT_TRUE(result.violations.empty()) << result.violations.front().detail;
}

// The seeded violation: one frame-loss fault lets the model checker find a
// schedule where a dropped frame strands the lock table / a pending action —
// the drain property trips at quiescence, the schedule minimizes, and the
// minimized trace replays deterministically.
TEST(McFaults, DroppedFrameYieldsMinimizedReplayableTrace) {
    Options options;
    options.drop_faults = 1;
    Explorer explorer(scenario("couple_lock_execute"), options);
    const ExploreResult result = explorer.explore();
    ASSERT_FALSE(result.violations.empty()) << "loss fault should strand state";
    const Violation& v = result.violations.front();
    EXPECT_EQ(v.property, "drain") << v.detail;

    // Replay of the raw schedule reproduces the same property...
    const auto raw = explorer.replay(v.schedule);
    ASSERT_TRUE(raw.has_value());
    EXPECT_EQ(raw->property, v.property);

    // ...minimization shrinks it (or at least never grows it)...
    const std::vector<Choice> minimized = explorer.minimize(v);
    EXPECT_LE(minimized.size(), v.schedule.size());
    const auto replayed = explorer.replay(minimized);
    ASSERT_TRUE(replayed.has_value()) << "minimized schedule lost the violation";
    EXPECT_EQ(replayed->property, v.property);

    // ...and replay is deterministic: same violation, twice.
    const auto again = explorer.replay(minimized);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->detail, replayed->detail);
}

TEST(McFaults, TraceFileRoundTripsAndReplays) {
    Options options;
    options.drop_faults = 1;
    Explorer explorer(scenario("couple_lock_execute"), options);
    const ExploreResult result = explorer.explore();
    ASSERT_FALSE(result.violations.empty());
    const Violation& v = result.violations.front();
    const std::vector<Choice> minimized = explorer.minimize(v);

    Trace trace;
    trace.scenario = "couple_lock_execute";
    trace.drop_faults = options.drop_faults;
    trace.close_faults = options.close_faults;
    trace.property = v.property;
    trace.steps = minimized;

    const std::vector<std::string> labels = explorer.endpoint_labels();
    const std::string text = format_trace(trace, labels);

    // The file survives a write/read cycle byte-for-byte.
    const std::string path = testing::TempDir() + "cosoft_mc_trace.txt";
    {
        std::ofstream out(path);
        ASSERT_TRUE(out.good());
        out << text;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());

    const auto parsed = parse_trace(buf.str(), labels);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
    EXPECT_EQ(parsed.value().scenario, trace.scenario);
    EXPECT_EQ(parsed.value().drop_faults, trace.drop_faults);
    EXPECT_EQ(parsed.value().property, trace.property);
    ASSERT_TRUE(parsed.value().steps == trace.steps);

    // A fresh explorer (fresh worlds) reproduces the violation from the file.
    Explorer fresh(scenario("couple_lock_execute"), options);
    const auto replayed = fresh.replay(parsed.value().steps);
    ASSERT_TRUE(replayed.has_value());
    EXPECT_EQ(replayed->property, trace.property);
}

TEST(McTrace, FormatParseRoundTrip) {
    Trace trace;
    trace.scenario = "couple_lock_execute";
    trace.drop_faults = 2;
    trace.close_faults = 1;
    trace.property = "drain";
    trace.steps = {{ChoiceKind::kDeliver, 0}, {ChoiceKind::kDrop, 3}, {ChoiceKind::kCrash, 1},
                   {ChoiceKind::kDeliver, 2}};
    const std::vector<std::string> labels{"c0->srv", "srv->c0", "c1->srv", "srv->c1"};
    const auto parsed = parse_trace(format_trace(trace, labels), labels);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
    EXPECT_EQ(parsed.value().scenario, trace.scenario);
    EXPECT_EQ(parsed.value().drop_faults, trace.drop_faults);
    EXPECT_EQ(parsed.value().close_faults, trace.close_faults);
    EXPECT_EQ(parsed.value().property, trace.property);
    EXPECT_TRUE(parsed.value().steps == trace.steps);
}

TEST(McTrace, ParseRejectsUnknownDirectives) {
    const std::vector<std::string> labels{"c0->srv"};
    EXPECT_FALSE(parse_trace("bogus line\n", labels).is_ok());
    EXPECT_FALSE(parse_trace("scenario x\nstep deliver nowhere\n", labels).is_ok());
    EXPECT_FALSE(parse_trace("step deliver c0->srv\n", labels).is_ok());  // no scenario
}

}  // namespace
}  // namespace cosoft::mc
