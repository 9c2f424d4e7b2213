// Tests for loose coupling — the time-dimension relaxation (§1/§2.2):
// "collaboration can be based on periodical updates". A loose object stops
// receiving re-executions immediately; the server queues them; sync_now (or
// switching back to tight) delivers the backlog in order. Loose objects do
// not participate in floor control.
#include <gtest/gtest.h>

#include <algorithm>

#include "cosoft/sim/rng.hpp"
#include "helpers.hpp"

namespace cosoft {
namespace {

using client::CoApp;
using testing::Session;
using toolkit::EventType;
using toolkit::WidgetClass;

struct Trio {
    Session session;
    CoApp* a;
    CoApp* b;
    CoApp* c;

    Trio() {
        a = &session.add_app("A", "alice", 1);
        b = &session.add_app("B", "bob", 2);
        c = &session.add_app("C", "carol", 3);
        for (CoApp* app : {a, b, c}) (void)app->ui().root().add_child(WidgetClass::kCanvas, "pad");
        a->couple("pad", b->ref("pad"));
        session.run();
        b->couple("pad", c->ref("pad"));
        session.run();
    }

    void draw(CoApp& app, const std::string& stroke) {
        app.emit("pad", app.ui().find("pad")->make_event(EventType::kStroke, stroke));
        session.run();
    }

    std::size_t strokes(CoApp& app) { return app.ui().find("pad")->text_list("strokes").size(); }
};

TEST(LooseCoupling, LooseMemberStopsReceivingImmediately) {
    Trio t;
    Status st{ErrorCode::kInvalidArgument, "pending"};
    t.c->set_loose("pad", true, [&](const Status& r) { st = r; });
    t.session.run();
    ASSERT_TRUE(st.is_ok()) << st.message();
    EXPECT_TRUE(t.c->is_loose("pad"));

    t.draw(*t.a, "s1");
    t.draw(*t.a, "s2");
    EXPECT_EQ(t.strokes(*t.b), 2u);  // tight member synchronized
    EXPECT_EQ(t.strokes(*t.c), 0u);  // loose member deferred
    EXPECT_EQ(t.session.server().deferred_count(t.c->ref("pad")), 2u);
}

TEST(LooseCoupling, SyncNowDeliversBacklogInOrder) {
    Trio t;
    t.c->set_loose("pad", true);
    t.session.run();
    for (int i = 0; i < 5; ++i) t.draw(*t.a, "s" + std::to_string(i));
    ASSERT_EQ(t.strokes(*t.c), 0u);

    Status st{ErrorCode::kInvalidArgument, "pending"};
    t.c->sync_now("pad", [&](const Status& r) { st = r; });
    t.session.run();
    ASSERT_TRUE(st.is_ok());
    const auto strokes = t.c->ui().find("pad")->text_list("strokes");
    ASSERT_EQ(strokes.size(), 5u);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(strokes[static_cast<std::size_t>(i)], "s" + std::to_string(i));
    EXPECT_EQ(t.session.server().deferred_count(t.c->ref("pad")), 0u);
}

TEST(LooseCoupling, ReturningToTightFlushesAndResumes) {
    Trio t;
    t.c->set_loose("pad", true);
    t.session.run();
    t.draw(*t.a, "while-loose");

    t.c->set_loose("pad", false);
    t.session.run();
    EXPECT_EQ(t.strokes(*t.c), 1u);  // backlog flushed on mode switch
    EXPECT_FALSE(t.c->is_loose("pad"));

    t.draw(*t.a, "tight-again");
    EXPECT_EQ(t.strokes(*t.c), 2u);  // immediate again
}

TEST(LooseCoupling, LooseMemberIsNotLockedNorDisabled) {
    Trio t;
    t.c->set_loose("pad", true);
    t.session.run();

    // Use a latency session view: simpler — check invariants post-hoc: while
    // an action runs, c never gets disabled; afterwards nothing is locked.
    t.draw(*t.a, "x");
    EXPECT_FALSE(t.c->has_locked_objects());
    EXPECT_TRUE(t.c->ui().find("pad")->enabled());
    EXPECT_EQ(t.session.server().locks().locked_count(), 0u);
}

TEST(LooseCoupling, LooseMembersOwnActionsStillBroadcast) {
    Trio t;
    t.c->set_loose("pad", true);
    t.session.run();

    t.draw(*t.c, "from-loose-member");
    EXPECT_EQ(t.strokes(*t.a), 1u);
    EXPECT_EQ(t.strokes(*t.b), 1u);
    // Its own action is applied locally too, of course.
    EXPECT_EQ(t.strokes(*t.c), 1u);
}

TEST(LooseCoupling, TwoLooseMembersQueueIndependently) {
    Trio t;
    t.b->set_loose("pad", true);
    t.c->set_loose("pad", true);
    t.session.run();

    t.draw(*t.a, "s1");
    t.draw(*t.a, "s2");
    EXPECT_EQ(t.session.server().deferred_count(t.b->ref("pad")), 2u);
    EXPECT_EQ(t.session.server().deferred_count(t.c->ref("pad")), 2u);

    t.b->sync_now("pad");
    t.session.run();
    EXPECT_EQ(t.strokes(*t.b), 2u);
    EXPECT_EQ(t.strokes(*t.c), 0u);  // c's queue untouched
}

TEST(LooseCoupling, OnlyOwnerMayChangeModeOrSync) {
    Trio t;
    Status st = Status::ok();
    // CoApp always uses ref(local); craft the abuse through a raw check:
    // b tries to sync c's object by sending the ref directly.
    // (The public API does not allow it, so go through the wire.)
    auto [raw_client, raw_server] = t.session.net().make_pipe();
    t.session.manager().attach(raw_server);
    raw_client->on_receive([&](std::span<const std::uint8_t> frame) {
        auto decoded = protocol::decode_message(frame);
        if (decoded.is_ok()) {
            if (const auto* ack = std::get_if<protocol::Ack>(&decoded.value())) {
                st = Status{ack->code, ack->message};
            }
        }
    });
    (void)raw_client->send(protocol::encode_message(protocol::Register{9, "rogue", "h", "raw"}));
    t.session.run();
    (void)raw_client->send(
        protocol::encode_message(protocol::SetCouplingMode{1, t.c->ref("pad"), true}));
    t.session.run();
    EXPECT_EQ(st.code(), ErrorCode::kPermissionDenied);
    EXPECT_FALSE(t.session.server().is_loose(t.c->ref("pad")));
}

class LooseConvergence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LooseConvergence, FinalSyncConvergesContent) {
    // Property: however tight/loose modes toggle and whenever syncs happen
    // during an append-only stroke stream, a final sync of every loose
    // member delivers every action everywhere — the stroke *sets* converge.
    // Exact sequence order is NOT guaranteed when loose members act while
    // holding a backlog: their local actions interleave with the deferred
    // ones differently per site (the floor control only serializes the
    // tight subset; the paper's timestamp-based alternative, §2.1, is what
    // a total order would require).
    sim::Rng rng{GetParam()};
    Trio t;
    int stroke_id = 0;
    for (int step = 0; step < 120; ++step) {
        const std::uint64_t op = rng.below(100);
        CoApp* actor = (op % 3 == 0) ? t.a : (op % 3 == 1) ? t.b : t.c;
        if (op < 60) {
            if (actor->ui().find("pad")->enabled()) {
                t.draw(*actor, "s" + std::to_string(stroke_id++));
            }
        } else if (op < 75) {
            actor->set_loose("pad", true);
            t.session.run();
        } else if (op < 90) {
            actor->set_loose("pad", false);  // flushes
            t.session.run();
        } else {
            actor->sync_now("pad");
            t.session.run();
        }
    }
    // Final settlement: everyone returns to tight (flushing their queues).
    for (CoApp* app : {t.a, t.b, t.c}) {
        app->set_loose("pad", false);
        t.session.run();
    }
    auto reference = t.a->ui().find("pad")->text_list("strokes");
    std::sort(reference.begin(), reference.end());
    EXPECT_EQ(reference.size(), static_cast<std::size_t>(stroke_id));
    for (CoApp* app : {t.b, t.c}) {
        auto strokes = app->ui().find("pad")->text_list("strokes");
        std::sort(strokes.begin(), strokes.end());
        EXPECT_EQ(strokes, reference) << app->app_name();
    }
    EXPECT_EQ(t.session.server().locks().locked_count(), 0u);
}

TEST_P(LooseConvergence, ReceiveOnlyLooseMembersConvergeExactly) {
    // When loose members only *receive* (the monitoring/periodic-update use
    // case the paper describes), the delivered order equals the tight
    // order, so sequences — not just sets — converge.
    sim::Rng rng{GetParam() * 17 + 1};
    Trio t;
    t.c->set_loose("pad", true);
    t.session.run();
    int stroke_id = 0;
    for (int step = 0; step < 80; ++step) {
        CoApp* actor = rng.chance(0.5) ? t.a : t.b;  // only tight members act
        t.draw(*actor, "s" + std::to_string(stroke_id++));
        if (rng.chance(0.2)) {
            t.c->sync_now("pad");
            t.session.run();
        }
    }
    t.c->sync_now("pad");
    t.session.run();
    const auto reference = t.a->ui().find("pad")->text_list("strokes");
    EXPECT_EQ(t.b->ui().find("pad")->text_list("strokes"), reference);
    EXPECT_EQ(t.c->ui().find("pad")->text_list("strokes"), reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LooseConvergence, ::testing::Values(3, 9, 27, 81));

TEST(LooseCoupling, DisconnectDropsQueueAndMode) {
    Trio t;
    t.c->set_loose("pad", true);
    t.session.run();
    t.draw(*t.a, "s1");
    ASSERT_EQ(t.session.server().deferred_count(t.c->ref("pad")), 1u);

    t.session.disconnect(2);  // carol terminates
    EXPECT_EQ(t.session.server().deferred_count(ObjectRef{3, "pad"}), 0u);
    EXPECT_FALSE(t.session.server().is_loose(ObjectRef{3, "pad"}));
}

TEST(LooseCoupling, WidgetDestructionDropsQueueAndMode) {
    Trio t;
    t.c->set_loose("pad", true);
    t.session.run();
    t.draw(*t.a, "s1");
    const ObjectRef ref = t.c->ref("pad");
    ASSERT_EQ(t.session.server().deferred_count(ref), 1u);

    ASSERT_TRUE(t.c->ui().root().remove_child("pad").is_ok());
    t.session.run();
    EXPECT_EQ(t.session.server().deferred_count(ref), 0u);
    EXPECT_FALSE(t.session.server().is_loose(ref));
}

}  // namespace
}  // namespace cosoft
