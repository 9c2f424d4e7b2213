// The checked-invariant layer (cosoft/common/check.hpp):
//   - CO_CHECK semantics in both build flavors: checked builds abort on a
//     false condition, ordinary builds compile the check out entirely (the
//     condition is not even evaluated);
//   - check_invariants() on the server databases and the widget tree returns
//     no violations across representative and randomized workloads, and does
//     report violations for deliberately corrupted structures;
//   - the server holds its cross-database invariants at every dispatch
//     boundary of a full session, including disconnects mid-action.
#include <gtest/gtest.h>

#include "cosoft/common/check.hpp"
#include "cosoft/common/strings.hpp"
#include "cosoft/server/couple_graph.hpp"
#include "cosoft/server/history_store.hpp"
#include "cosoft/server/lock_table.hpp"
#include "cosoft/sim/rng.hpp"
#include "cosoft/toolkit/widget.hpp"
#include "helpers.hpp"

namespace cosoft {
namespace {

using server::CoupleGraph;
using server::HistoryStore;
using server::LockTable;

ObjectRef o(InstanceId i, const char* p) { return {i, p}; }

// --- CO_CHECK build-flavor semantics ----------------------------------------

TEST(CheckMode, ReleaseBuildsCompileChecksOutCheckedBuildsEvaluateThem) {
    int evaluations = 0;
    CO_CHECK([&] {
        ++evaluations;
        return true;
    }());
    CO_CHECK_MSG([&] {
        ++evaluations;
        return true;
    }(),
                 "never fails");
    // In a checked build both conditions ran; otherwise neither was evaluated.
    EXPECT_EQ(evaluations, checked_build() ? 2 : 0);
}

TEST(CheckModeDeathTest, FalseConditionAbortsOnlyInCheckedBuilds) {
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    if (checked_build()) {
        EXPECT_DEATH(CO_CHECK_MSG(1 == 2, "arithmetic is broken"), "CO_CHECK failed");
    } else {
        CO_CHECK_MSG(1 == 2, "arithmetic is broken");  // compiled out: must not abort
        SUCCEED();
    }
}

TEST(CheckMode, RebasePathOutsidePrefixIsRefused) {
    // The release-build contract of the former assert in rebase_path: a path
    // outside `from` comes back unchanged instead of being spliced. In
    // checked builds the same call aborts, which the death test covers.
    if (checked_build()) {
        GTEST_FLAG_SET(death_test_style, "threadsafe");
        EXPECT_DEATH((void)rebase_path("elsewhere/x", "main", "copy"), "rebase_path");
    } else {
        EXPECT_EQ(rebase_path("elsewhere/x", "main", "copy"), "elsewhere/x");
    }
    // In-contract rebases are unaffected by the flavor.
    EXPECT_EQ(rebase_path("main/a/b", "main", "copy"), "copy/a/b");
    EXPECT_EQ(rebase_path("main", "main", "copy"), "copy");
}

// --- LockTable ---------------------------------------------------------------

TEST(LockTableInvariants, HoldAcrossLockUnlockSequences) {
    LockTable locks;
    EXPECT_TRUE(locks.check_invariants().empty());

    ASSERT_TRUE(locks.try_lock_all({1, 1}, {o(1, "a"), o(2, "b")}).is_ok());
    ASSERT_TRUE(locks.try_lock_all({2, 9}, {o(3, "c")}).is_ok());
    EXPECT_TRUE(locks.check_invariants().empty());

    // Re-locking held objects under the same action must not duplicate them.
    ASSERT_TRUE(locks.try_lock_all({1, 1}, {o(1, "a"), o(4, "d")}).is_ok());
    EXPECT_TRUE(locks.check_invariants().empty());

    // Locking zero objects must not leave an empty action entry behind.
    ASSERT_TRUE(locks.try_lock_all({5, 5}, {}).is_ok());
    EXPECT_TRUE(locks.check_invariants().empty());

    locks.unlock_action({1, 1});
    EXPECT_TRUE(locks.check_invariants().empty());
    locks.unlock_instance(2);
    EXPECT_TRUE(locks.check_invariants().empty());
    EXPECT_EQ(locks.locked_count(), 0u);
}

TEST(LockTableInvariants, RandomizedLockChurnStaysConsistent) {
    sim::Rng rng{2024};
    LockTable locks;
    for (int step = 0; step < 2000; ++step) {
        const auto instance = static_cast<InstanceId>(1 + rng.below(5));
        const LockTable::ActionKey key{instance, rng.below(4)};
        switch (rng.below(3)) {
            case 0: {
                std::vector<ObjectRef> objs;
                const std::uint64_t n = rng.below(4);
                for (std::uint64_t i = 0; i < n; ++i) {
                    objs.push_back(o(static_cast<InstanceId>(1 + rng.below(5)), "w"));
                    objs.back().path += std::to_string(rng.below(6));
                }
                (void)locks.try_lock_all(key, objs);
                break;
            }
            case 1: locks.unlock_action(key); break;
            default: locks.unlock_instance(instance); break;
        }
        const auto violations = locks.check_invariants();
        ASSERT_TRUE(violations.empty()) << violations.front() << " at step " << step;
    }
}

// --- CoupleGraph -------------------------------------------------------------

TEST(CoupleGraphInvariants, HoldAcrossLinkChurn) {
    CoupleGraph g;
    EXPECT_TRUE(g.check_invariants().empty());
    ASSERT_TRUE(g.add_link(o(1, "a"), o(2, "b"), 1).is_ok());
    ASSERT_TRUE(g.add_link(o(2, "b"), o(3, "c"), 2).is_ok());
    ASSERT_TRUE(g.add_link(o(3, "c"), o(4, "d"), 3).is_ok());
    EXPECT_TRUE(g.check_invariants().empty());

    ASSERT_TRUE(g.remove_link(o(2, "b"), o(3, "c")).is_ok());
    EXPECT_TRUE(g.check_invariants().empty());
    g.remove_object(o(3, "c"));
    EXPECT_TRUE(g.check_invariants().empty());
    g.remove_instance(1);
    EXPECT_TRUE(g.check_invariants().empty());
}

TEST(CoupleGraphInvariants, RandomizedChurnStaysConsistent) {
    sim::Rng rng{777};
    CoupleGraph g;
    const auto random_ref = [&] {
        ObjectRef r{static_cast<InstanceId>(1 + rng.below(4)), "w"};
        r.path += std::to_string(rng.below(8));
        return r;
    };
    for (int step = 0; step < 2000; ++step) {
        switch (rng.below(4)) {
            case 0: (void)g.add_link(random_ref(), random_ref(), static_cast<InstanceId>(1 + rng.below(4))); break;
            case 1: (void)g.remove_link(random_ref(), random_ref()); break;
            case 2: g.remove_object(random_ref()); break;
            default: g.remove_instance(static_cast<InstanceId>(1 + rng.below(4))); break;
        }
        const auto violations = g.check_invariants();
        ASSERT_TRUE(violations.empty()) << violations.front() << " at step " << step;
    }
}

// --- HistoryStore ------------------------------------------------------------

TEST(HistoryStoreInvariants, DepthBoundHoldsUnderPressure) {
    HistoryStore history{4};
    for (int i = 0; i < 40; ++i) {
        history.push_overwritten(o(1, "a"), toolkit::UiState{});
        history.push_redo(o(1, "a"), toolkit::UiState{});
        history.push_undo_preserving_redo(o(2, "b"), toolkit::UiState{});
        const auto violations = history.check_invariants();
        ASSERT_TRUE(violations.empty()) << violations.front();
    }
    EXPECT_EQ(history.undo_depth(o(1, "a")), 4u);
    (void)history.pop_undo(o(1, "a"));
    (void)history.pop_redo(o(1, "a"));
    history.forget_object(o(2, "b"));
    EXPECT_TRUE(history.check_invariants().empty());
}

// --- WidgetTree --------------------------------------------------------------

TEST(WidgetTreeInvariants, HoldAcrossBuildReorderAndRemove) {
    toolkit::WidgetTree tree;
    EXPECT_TRUE(tree.check_invariants().empty());

    auto* form = tree.root().add_child(toolkit::WidgetClass::kForm, "main").value();
    auto* query = form->add_child(toolkit::WidgetClass::kForm, "query").value();
    (void)query->add_child(toolkit::WidgetClass::kTextField, "author").value();
    (void)query->add_child(toolkit::WidgetClass::kTextField, "title").value();
    (void)form->add_child(toolkit::WidgetClass::kButton, "go").value();
    EXPECT_TRUE(tree.check_invariants().empty());

    // Duplicate names are rejected before they can break path uniqueness.
    EXPECT_FALSE(query->add_child(toolkit::WidgetClass::kLabel, "author").is_ok());
    EXPECT_TRUE(tree.check_invariants().empty());

    form->reorder_children({"go", "query"});
    EXPECT_TRUE(tree.check_invariants().empty());
    ASSERT_TRUE(form->remove_child("query").is_ok());
    EXPECT_TRUE(tree.check_invariants().empty());
}

// --- CoSession dispatch boundaries -------------------------------------------

TEST(ServerInvariants, HoldThroughoutACoupledSession) {
    testing::Session session;
    auto& alice = session.add_app("tori", "alice", 1);
    auto& bob = session.add_app("tori", "bob", 2);
    EXPECT_TRUE(session.server().check_invariants().empty());

    for (auto* app : {&alice, &bob}) {
        auto* form = app->ui().root().add_child(toolkit::WidgetClass::kForm, "main").value();
        (void)form->add_child(toolkit::WidgetClass::kTextField, "author").value();
    }
    alice.couple("main", {bob.instance(), "main"});
    session.run();
    EXPECT_TRUE(session.server().check_invariants().empty());

    // Drive a few locked event rounds through the coupled group.
    for (int i = 0; i < 3; ++i) {
        auto* author = alice.ui().find("main/author");
        ASSERT_NE(author, nullptr);
        alice.emit("main/author", author->make_event(toolkit::EventType::kValueChanged, std::string{"Hoppe"}));
        session.run();
        const auto violations = session.server().check_invariants();
        ASSERT_TRUE(violations.empty()) << violations.front();
    }

    // A client vanishing mid-session must not leave dangling locks or edges.
    session.disconnect(0);
    const auto violations = session.server().check_invariants();
    EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations.front());
    EXPECT_EQ(session.server().connection_count(), 1u);
}

}  // namespace
}  // namespace cosoft
