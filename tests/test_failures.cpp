// Failure injection: disconnects mid-action, malformed frames, frame loss,
// and operations against missing objects. The server must never wedge a
// coupling group or leak locks.
#include <gtest/gtest.h>

#include "cosoft/protocol/messages.hpp"
#include "helpers.hpp"

namespace cosoft {
namespace {

using client::CoApp;
using protocol::MergeMode;
using testing::Session;
using toolkit::EventType;
using toolkit::WidgetClass;

void add_field(CoApp& app) { ASSERT_TRUE(app.ui().root().add_child(WidgetClass::kTextField, "f").is_ok()); }

TEST(Failures, HolderDisconnectReleasesLocks) {
    Session s{net::PipeConfig{.latency = 1000}};
    CoApp& a = s.add_app("A", "alice", 1);
    CoApp& b = s.add_app("B", "bob", 2);
    add_field(a);
    add_field(b);
    a.couple("f", b.ref("f"));
    s.run();

    // Alice grabs the floor but dies before completing the cycle.
    a.emit("f", a.ui().find("f")->make_event(EventType::kValueChanged, std::string{"doomed"}));
    s.net().run_until(s.net().now() + 2100);  // lock held, widgets disabled
    ASSERT_TRUE(b.is_locked("f"));

    s.disconnect(0);
    EXPECT_EQ(s.server().locks().locked_count(), 0u);
    EXPECT_FALSE(b.is_locked("f"));
    EXPECT_TRUE(b.ui().find("f")->enabled());

    // Bob can act again immediately.
    Status st{ErrorCode::kInvalidArgument, "pending"};
    b.emit("f", b.ui().find("f")->make_event(EventType::kValueChanged, std::string{"alive"}),
           [&](const Status& r) { st = r; });
    s.run();
    EXPECT_TRUE(st.is_ok()) << st.message();
}

TEST(Failures, TargetDisconnectDoesNotWedgeUnlock) {
    Session s{net::PipeConfig{.latency = 1000}};
    CoApp& a = s.add_app("A", "alice", 1);
    CoApp& b = s.add_app("B", "bob", 2);
    CoApp& c = s.add_app("C", "carol", 3);
    for (CoApp* app : {&a, &b, &c}) add_field(*app);
    a.couple("f", b.ref("f"));
    s.run();
    a.couple("f", c.ref("f"));
    s.run();

    a.emit("f", a.ui().find("f")->make_event(EventType::kValueChanged, std::string{"x"}));
    // Let the lock cycle begin, then kill one of the re-execution targets
    // before its ExecuteAck can arrive.
    s.net().run_until(s.net().now() + 2100);
    s.disconnect(1);  // bob vanishes

    s.run();
    EXPECT_EQ(s.server().locks().locked_count(), 0u);
    EXPECT_EQ(c.ui().find("f")->text("value"), "x");  // survivor still synchronized
}

TEST(Failures, CopyFromDeadSourceReportsError) {
    Session s{net::PipeConfig{.latency = 1000}};
    CoApp& a = s.add_app("A", "alice", 1);
    CoApp& b = s.add_app("B", "bob", 2);
    add_field(a);
    add_field(b);

    Status st = Status::ok();
    a.copy_from(b.ref("f"), "f", MergeMode::kStrict, [&](const Status& r) { st = r; });
    // The StateQuery is in flight towards bob; bob dies before answering.
    s.net().run_until(s.net().now() + 1500);
    s.disconnect(1);
    s.run();
    EXPECT_EQ(st.code(), ErrorCode::kUnknownInstance);
}

TEST(Failures, DisconnectFailsAllPendingRequestsClientSide) {
    Session s{net::PipeConfig{.latency = 1000}};
    CoApp& a = s.add_app("A", "alice", 1);
    CoApp& b = s.add_app("B", "bob", 2);
    add_field(a);
    add_field(b);

    Status st = Status::ok();
    a.couple("f", b.ref("f"), [&](const Status& r) { st = r; });
    s.server_vanishes(0);  // the server link dies while the request is in flight
    EXPECT_EQ(st.code(), ErrorCode::kTransport);
    EXPECT_FALSE(a.online());
}

TEST(Failures, EmitAfterDisconnectActsLocally) {
    Session s;
    CoApp& a = s.add_app("A", "alice", 1);
    CoApp& b = s.add_app("B", "bob", 2);
    add_field(a);
    add_field(b);
    a.couple("f", b.ref("f"));
    s.run();

    s.disconnect(0);
    Status st{ErrorCode::kInvalidArgument, "pending"};
    a.emit("f", a.ui().find("f")->make_event(EventType::kValueChanged, std::string{"offline"}),
           [&](const Status& r) { st = r; });
    EXPECT_TRUE(st.is_ok());
    EXPECT_EQ(a.ui().find("f")->text("value"), "offline");
    EXPECT_EQ(b.ui().find("f")->text("value"), "");
}

TEST(Failures, MalformedFramesAreIgnoredByServer) {
    Session s;
    CoApp& a = s.add_app("A", "alice", 1);
    add_field(a);

    // Handcraft a garbage frame on a fresh raw channel. It registers first:
    // an unregistered connection's garbage never leaves the manager's lobby.
    auto [raw_client, raw_server] = s.net().make_pipe();
    s.manager().attach(raw_server);
    ASSERT_TRUE(raw_client->send(protocol::encode_message(protocol::Register{9, "raw", "h", "raw"})).is_ok());
    ASSERT_TRUE(raw_client->send(std::vector<std::uint8_t>{0xff, 0x01, 0x02}).is_ok());
    ASSERT_TRUE(raw_client->send(std::vector<std::uint8_t>{}).is_ok());
    s.run();
    // Each garbage frame is counted and dropped.
    EXPECT_EQ(s.server().stats().malformed_frames, 2u);
    // Server survives and the registered client still works.
    Status st{ErrorCode::kInvalidArgument, "pending"};
    a.emit("f", a.ui().find("f")->make_event(EventType::kValueChanged, std::string{"still-alive"}),
           [&](const Status& r) { st = r; });
    s.run();
    EXPECT_TRUE(st.is_ok());
    EXPECT_EQ(s.server().stats().malformed_frames, 2u);
}

TEST(Failures, UnregisteredClientsCannotOperate) {
    Session s;
    CoApp& a = s.add_app("A", "alice", 1);
    add_field(a);

    // A raw channel that never registers tries to couple alice's object.
    auto [raw_client, raw_server] = s.net().make_pipe();
    s.manager().attach(raw_server);
    const protocol::Message msg = protocol::CoupleReq{1, {a.instance(), "f"}, {a.instance(), "f"}};
    ASSERT_TRUE(raw_client->send(protocol::encode_message(msg)).is_ok());
    s.run();
    EXPECT_EQ(s.server().couples().link_count(), 0u);
}

TEST(Failures, CoupleToUnknownInstanceFails) {
    Session s;
    CoApp& a = s.add_app("A", "alice", 1);
    add_field(a);
    Status st = Status::ok();
    a.couple("f", ObjectRef{777, "f"}, [&](const Status& r) { st = r; });
    s.run();
    EXPECT_EQ(st.code(), ErrorCode::kUnknownInstance);
}

TEST(Failures, CopyToMissingDestObjectIsCountedNotFatal) {
    Session s;
    CoApp& a = s.add_app("A", "alice", 1);
    CoApp& b = s.add_app("B", "bob", 2);
    add_field(a);
    // b has no "f" widget.
    a.copy_to("f", b.ref("f"), MergeMode::kStrict);
    s.run();
    EXPECT_EQ(b.stats().apply_errors, 1u);
    EXPECT_EQ(b.stats().states_applied, 0u);
}

TEST(Failures, StrictApplyOntoIncompatibleStructureHasNoEffect) {
    Session s;
    CoApp& a = s.add_app("A", "alice", 1);
    CoApp& b = s.add_app("B", "bob", 2);
    // a/f is a form with a child; b/f is a bare form.
    toolkit::Widget* fa = a.ui().root().add_child(WidgetClass::kForm, "f").value();
    (void)fa->add_child(WidgetClass::kTextField, "inner");
    (void)fa->find("inner")->set_attribute("value", std::string{"data"});
    (void)b.ui().root().add_child(WidgetClass::kForm, "f");

    a.copy_to("f", b.ref("f"), MergeMode::kStrict);
    s.run();
    EXPECT_EQ(b.stats().apply_errors, 1u);
    EXPECT_EQ(b.ui().find("f")->child_count(), 0u);  // untouched

    // The same transfer with destructive merging succeeds.
    a.copy_to("f", b.ref("f"), MergeMode::kDestructive);
    s.run();
    ASSERT_NE(b.ui().find("f/inner"), nullptr);
    EXPECT_EQ(b.ui().find("f/inner")->text("value"), "data");
}

TEST(Failures, LossyLinkDegradesButDoesNotCrash) {
    // 20% frame loss in both directions: operations may fail, state may lag,
    // but nothing crashes and the server's tables stay consistent.
    Session s{net::PipeConfig{.latency = 100, .drop_probability = 0.2, .drop_seed = 5}};
    CoApp& a = s.add_app("A", "alice", 1);
    CoApp& b = s.add_app("B", "bob", 2);
    // Registration frames may themselves be lost; skip the test if so.
    if (!a.online() || !b.online()) GTEST_SKIP() << "registration lost on lossy link";
    add_field(a);
    add_field(b);
    a.couple("f", b.ref("f"));
    s.run();

    for (int i = 0; i < 50; ++i) {
        a.emit("f", a.ui().find("f")->make_event(EventType::kValueChanged,
                                                 std::string{"v"} + std::to_string(i)));
        s.run();
    }
    // A dropped LockGrant or ExecuteAck can leave a lock pending (the paper
    // assumes a reliable transport, which TCP provides); instance cleanup is
    // the backstop that must always release everything.
    s.disconnect(0);
    s.disconnect(1);
    EXPECT_EQ(s.server().locks().locked_count(), 0u);
    EXPECT_EQ(s.server().couples().link_count(), 0u);
}

TEST(Failures, DecoupleUnknownLinkReportsNotCoupled) {
    Session s;
    CoApp& a = s.add_app("A", "alice", 1);
    CoApp& b = s.add_app("B", "bob", 2);
    add_field(a);
    add_field(b);
    Status st = Status::ok();
    a.decouple("f", b.ref("f"), [&](const Status& r) { st = r; });
    s.run();
    EXPECT_EQ(st.code(), ErrorCode::kNotCoupled);
}

TEST(Failures, EmitOnMissingWidgetFailsFast) {
    Session s;
    CoApp& a = s.add_app("A", "alice", 1);
    Status st = Status::ok();
    a.emit("ghost", toolkit::Event{}, [&](const Status& r) { st = r; });
    EXPECT_EQ(st.code(), ErrorCode::kUnknownObject);
}

}  // namespace
}  // namespace cosoft
