// Direct edge-case tests of the server's message handling: stale or forged
// messages, wildcard permissions, and unusual-but-legal sequences. The
// server must tolerate anything a confused (or malicious) client sends.
#include <gtest/gtest.h>

#include "helpers.hpp"

namespace cosoft {
namespace {

using client::CoApp;
using protocol::Right;
using testing::Session;
using toolkit::EventType;
using toolkit::WidgetClass;

/// A raw channel speaking the protocol directly, bypassing CoApp's rules.
struct RawClient {
    std::shared_ptr<net::SimChannel> channel;
    std::vector<protocol::Message> received;
    InstanceId instance = kInvalidInstance;

    explicit RawClient(Session& s) {
        auto [client_end, server_end] = s.net().make_pipe();
        channel = client_end;
        s.manager().attach(server_end);
        channel->on_receive([this](std::span<const std::uint8_t> frame) {
            auto decoded = protocol::decode_message(frame);
            if (decoded.is_ok()) received.push_back(std::move(decoded).value());
        });
    }

    void send(const protocol::Message& msg) { (void)channel->send(protocol::encode_message(msg)); }

    void register_as(Session& s, const char* name, UserId user) {
        send(protocol::Register{user, name, "host", "raw"});
        s.run();
        for (const auto& m : received) {
            if (const auto* ack = std::get_if<protocol::RegisterAck>(&m)) instance = ack->instance;
        }
    }

    template <typename T>
    [[nodiscard]] std::size_t count() const {
        std::size_t n = 0;
        for (const auto& m : received) n += std::holds_alternative<T>(m);
        return n;
    }
};

TEST(ServerEdge, EventMsgWithoutLockIsIgnored) {
    Session s;
    CoApp& a = s.add_app("A", "alice", 1);
    CoApp& b = s.add_app("B", "bob", 2);
    (void)a.ui().root().add_child(WidgetClass::kTextField, "f");
    (void)b.ui().root().add_child(WidgetClass::kTextField, "f");
    a.couple("f", b.ref("f"));
    s.run();

    RawClient raw{s};
    raw.register_as(s, "rogue", 9);
    // A forged EventMsg for an action that never locked anything.
    raw.send(protocol::EventMsg{777, ObjectRef{a.instance(), "f"}, "", toolkit::Event{}});
    s.run();
    EXPECT_EQ(b.stats().events_reexecuted, 0u);
    EXPECT_EQ(s.server().locks().locked_count(), 0u);
}

TEST(ServerEdge, ExecuteAckFromUninvolvedInstanceIsIgnored) {
    Session s{net::PipeConfig{.latency = 1000}};
    CoApp& a = s.add_app("A", "alice", 1);
    CoApp& b = s.add_app("B", "bob", 2);
    (void)a.ui().root().add_child(WidgetClass::kTextField, "f");
    (void)b.ui().root().add_child(WidgetClass::kTextField, "f");
    a.couple("f", b.ref("f"));
    s.run();

    RawClient raw{s};
    raw.register_as(s, "rogue", 9);

    a.emit("f", a.ui().find("f")->make_event(EventType::kValueChanged, std::string{"x"}));
    // Let the lock be granted but not completed; the rogue acks a foreign
    // action id hoping to force an early unlock.
    s.net().run_until(s.net().now() + 2100);
    raw.send(protocol::ExecuteAck{1});  // alice's first action id is 1
    s.net().run_until(s.net().now() + 500);
    // The action must still complete properly and only then unlock.
    s.run();
    EXPECT_EQ(b.ui().find("f")->text("value"), "x");
    EXPECT_EQ(s.server().locks().locked_count(), 0u);
}

TEST(ServerEdge, HistorySaveForForeignObjectIsRejected) {
    Session s;
    CoApp& a = s.add_app("A", "alice", 1);
    CoApp& b = s.add_app("B", "bob", 2);
    (void)b.ui().root().add_child(WidgetClass::kTextField, "f");
    (void)a.ui().root().add_child(WidgetClass::kTextField, "f");

    RawClient raw{s};
    raw.register_as(s, "rogue", 9);
    // The rogue tries to plant history under bob's object.
    raw.send(protocol::HistorySave{ObjectRef{b.instance(), "f"}, protocol::HistoryTag::kNormal, {}});
    s.run();
    EXPECT_EQ(s.server().history().undo_depth(ObjectRef{b.instance(), "f"}), 0u);
}

TEST(ServerEdge, StateReplyFromWrongInstanceIsIgnored) {
    Session s{net::PipeConfig{.latency = 1000}};
    CoApp& a = s.add_app("A", "alice", 1);
    CoApp& b = s.add_app("B", "bob", 2);
    (void)a.ui().root().add_child(WidgetClass::kTextField, "f");
    (void)b.ui().root().add_child(WidgetClass::kTextField, "f");
    (void)b.ui().find("f")->set_attribute("value", std::string{"real"});

    RawClient raw{s};
    raw.register_as(s, "rogue", 9);

    Status st{ErrorCode::kInvalidArgument, "pending"};
    a.copy_from(b.ref("f"), "f", protocol::MergeMode::kStrict, [&](const Status& r) { st = r; });
    // The rogue races a fake StateReply for the pending server request id 1.
    toolkit::UiState fake;
    fake.cls = WidgetClass::kTextField;
    fake.name = "f";
    fake.attributes = {{"value", std::string{"poison"}}};
    raw.send(protocol::StateReply{1, "f", true, fake, {}});
    s.run();

    ASSERT_TRUE(st.is_ok()) << st.message();
    EXPECT_EQ(a.ui().find("f")->text("value"), "real");  // only bob's answer counted
}

TEST(ServerEdge, UnregisterMessageCleansUpLikeDisconnect) {
    Session s;
    CoApp& a = s.add_app("A", "alice", 1);
    CoApp& b = s.add_app("B", "bob", 2);
    (void)a.ui().root().add_child(WidgetClass::kTextField, "f");
    (void)b.ui().root().add_child(WidgetClass::kTextField, "f");
    a.couple("f", b.ref("f"));
    s.run();

    RawClient raw{s};
    raw.register_as(s, "temp", 9);
    ASSERT_EQ(s.server().registrations().size(), 3u);
    raw.send(protocol::Unregister{});
    s.run();
    EXPECT_EQ(s.server().registrations().size(), 2u);
    // Existing couplings survive an unrelated instance's departure.
    EXPECT_TRUE(b.is_coupled("f"));
}

TEST(ServerEdge, WildcardPermissionAppliesToAllUsers) {
    Session s;
    CoApp& a = s.add_app("A", "alice", 1);
    CoApp& b = s.add_app("B", "bob", 2);
    CoApp& c = s.add_app("C", "carol", 3);
    (void)a.ui().root().add_child(WidgetClass::kTextField, "f");
    (void)b.ui().root().add_child(WidgetClass::kTextField, "f");
    (void)c.ui().root().add_child(WidgetClass::kTextField, "f");

    // kInvalidUser as the subject = every user (the wildcard rule).
    a.set_permission(kInvalidUser, "f", static_cast<protocol::RightsMask>(Right::kModify), false);
    s.run();

    for (CoApp* peer : {&b, &c}) {
        Status st = Status::ok();
        peer->copy_to("f", a.ref("f"), protocol::MergeMode::kStrict, [&](const Status& r) { st = r; });
        s.run();
        EXPECT_EQ(st.code(), ErrorCode::kPermissionDenied);
    }
}

TEST(ServerEdge, CoupleBetweenTwoForeignObjectsNeedsBothCoupleRights) {
    Session s;
    CoApp& mod = s.add_app("console", "teacher", 1);
    CoApp& x = s.add_app("X", "x", 2);
    CoApp& y = s.add_app("Y", "y", 3);
    (void)x.ui().root().add_child(WidgetClass::kTextField, "f");
    (void)y.ui().root().add_child(WidgetClass::kTextField, "f");
    // y forbids coupling by user 1 (the moderator).
    y.set_permission(1, "f", static_cast<protocol::RightsMask>(Right::kCouple), false);
    s.run();

    Status st = Status::ok();
    mod.remote_couple(x.ref("f"), y.ref("f"), [&](const Status& r) { st = r; });
    s.run();
    EXPECT_EQ(st.code(), ErrorCode::kPermissionDenied);
    EXPECT_EQ(s.server().couples().link_count(), 0u);
}

TEST(ServerEdge, DoubleRegisterUpdatesTheRecord) {
    Session s;
    RawClient raw{s};
    raw.register_as(s, "first-name", 9);
    const InstanceId id = raw.instance;
    raw.send(protocol::Register{9, "renamed", "host", "raw"});
    s.run();
    const auto recs = s.server().registrations();
    const auto it = std::find_if(recs.begin(), recs.end(),
                                 [&](const auto& r) { return r.instance == id; });
    ASSERT_NE(it, recs.end());
    EXPECT_EQ(it->user_name, "renamed");
    EXPECT_EQ(recs.size(), 1u);  // still one registration, not two
}

TEST(ServerEdge, LockReqForUncoupledObjectGrantsSingleton) {
    // A client may lock an uncoupled object (its CO(o) is just itself);
    // the cycle must complete normally.
    Session s;
    CoApp& a = s.add_app("A", "alice", 1);
    (void)a.ui().root().add_child(WidgetClass::kTextField, "f");

    RawClient raw{s};
    raw.register_as(s, "r", 9);
    raw.send(protocol::LockReq{1, ObjectRef{raw.instance, "x"}, {}});
    s.run();
    EXPECT_EQ(raw.count<protocol::LockGrant>(), 1u);
    raw.send(protocol::EventMsg{1, ObjectRef{raw.instance, "x"}, "", toolkit::Event{}});
    s.run();
    raw.send(protocol::ExecuteAck{1});
    s.run();
    EXPECT_EQ(s.server().locks().locked_count(), 0u);
}

TEST(ServerEdge, PermissionSetWithEmptyMaskIsRejected) {
    Session s;
    RawClient raw{s};
    raw.register_as(s, "mallory", 9);
    ASSERT_NE(raw.instance, kInvalidInstance);

    raw.send(protocol::PermissionSet{77, 2, ObjectRef{raw.instance, "w"}, 0, true});
    s.run();

    // Rejected with kInvalidArgument; nothing entered the table.
    bool saw_rejection = false;
    for (const auto& m : raw.received) {
        if (const auto* ack = std::get_if<protocol::Ack>(&m); ack && ack->request == 77) {
            saw_rejection = ack->code == ErrorCode::kInvalidArgument;
        }
    }
    EXPECT_TRUE(saw_rejection);
    EXPECT_EQ(s.server().permissions().rule_count(), 0u);
    EXPECT_TRUE(s.server().permissions().check_invariants().empty());
}

TEST(ServerEdge, PermissionSetSanitizesOutOfRangeRights) {
    Session s;
    RawClient raw{s};
    raw.register_as(s, "mallory", 9);
    ASSERT_NE(raw.instance, kInvalidInstance);

    // Garbage high bits must be masked away, not stored: the invariant
    // check at the dispatch boundary would flag them.
    raw.send(protocol::PermissionSet{78, 2, ObjectRef{raw.instance, "w"}, 0xf5, false});
    s.run();

    EXPECT_EQ(s.server().permissions().rule_count(), 1u);
    EXPECT_TRUE(s.server().permissions().check_invariants().empty())
        << s.server().permissions().check_invariants().front();
    EXPECT_TRUE(s.server().check_invariants().empty());
}

// The front-door interleaving: an app, a raw client, another app. Every
// connection draws its id from the one manager, so the second app cannot
// collide with the raw connection: both apps come online under distinct
// instances, and the raw client stays unregistered in the lobby.
TEST(ServerEdge, RawClientBetweenAppsKeepsEveryInstanceDistinct) {
    Session s;
    CoApp& a = s.add_app("A", "alice", 1);
    auto [raw_client, raw_server] = s.net().make_pipe();
    const InstanceId raw = s.manager().attach(raw_server);
    CoApp& b = s.add_app("B", "bob", 2);
    s.run();

    ASSERT_TRUE(a.online());
    ASSERT_TRUE(b.online());
    EXPECT_NE(a.instance(), b.instance());
    EXPECT_NE(a.instance(), raw);
    EXPECT_NE(b.instance(), raw);
    EXPECT_EQ(s.server().registered_count(), 2u);
    EXPECT_EQ(s.server().connection_count(), 2u);  // the raw client never left the lobby
    const server::ServerStatus status = s.manager().status();
    ASSERT_EQ(status.connections.size(), 3u);
    for (const server::ConnectionRow& row : status.connections) {
        EXPECT_EQ(row.registered, row.instance != raw) << row.instance;
    }
    EXPECT_TRUE(s.server().check_invariants().empty());
}

}  // namespace
}  // namespace cosoft
