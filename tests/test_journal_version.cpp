// Tests for the server's traffic counters and the protocol version handshake.
#include <gtest/gtest.h>

#include "helpers.hpp"

namespace cosoft {
namespace {

using client::CoApp;
using testing::Session;
using toolkit::EventType;
using toolkit::WidgetClass;

// One coupled emit between two partners (§3.2), observed through the
// server's counters: the couple, the lock cycle and the re-execution each
// leave exactly their own trace.
TEST(ServerStats, CountsASessionEndToEnd) {
    Session s;
    CoApp& a = s.add_app("A", "alice", 1);
    CoApp& b = s.add_app("B", "bob", 2);
    (void)a.ui().root().add_child(WidgetClass::kTextField, "f");
    (void)b.ui().root().add_child(WidgetClass::kTextField, "f");

    const server::ServerStats before = s.server().stats();
    a.couple("f", b.ref("f"));
    s.run();
    const server::ServerStats coupled = s.server().stats();
    EXPECT_EQ(coupled.messages_received - before.messages_received, 1u);  // CoupleReq
    EXPECT_EQ(coupled.group_updates - before.group_updates, 2u);          // one per member instance

    a.emit("f", a.ui().find("f")->make_event(EventType::kValueChanged, std::string{"x"}));
    s.run();
    const server::ServerStats after = s.server().stats();
    EXPECT_EQ(after.locks_granted - coupled.locks_granted, 1u);
    EXPECT_EQ(after.locks_denied, before.locks_denied);
    EXPECT_EQ(after.events_broadcast - coupled.events_broadcast, 1u);  // one ExecuteEvent
    // LockReq + EventMsg + one ExecuteAck from the source and one from the target.
    EXPECT_EQ(after.messages_received - coupled.messages_received, 4u);
    EXPECT_GT(after.messages_sent, coupled.messages_sent);
    EXPECT_EQ(after.malformed_frames, 0u);
    EXPECT_EQ(s.server().locks().locked_count(), 0u) << "the cycle must release its lock";
}

TEST(ServerStats, MalformedFramesAreCounted) {
    Session s;
    // The raw client registers first: an unregistered connection's garbage
    // never leaves the manager's lobby.
    auto [raw_client, raw_server] = s.net().make_pipe();
    s.manager().attach(raw_server);
    ASSERT_TRUE(raw_client->send(protocol::encode_message(protocol::Register{9, "raw", "h", "raw"})).is_ok());
    s.run();
    const server::ServerStats before = s.server().stats();
    ASSERT_TRUE(raw_client->send(std::vector<std::uint8_t>{0xff, 0xff, 0xff}).is_ok());
    s.run();
    const server::ServerStats stats = s.server().stats();
    EXPECT_EQ(stats.malformed_frames - before.malformed_frames, 1u);
    EXPECT_EQ(stats.messages_received - before.messages_received, 1u);
    EXPECT_EQ(stats.messages_sent - before.messages_sent, 0u) << "a malformed frame is dropped without a reply";
}

TEST(ProtocolVersion, MismatchedClientIsRefused) {
    Session s;
    auto [raw_client, raw_server] = s.net().make_pipe();
    s.manager().attach(raw_server);

    protocol::Register reg;
    reg.user = 5;
    reg.user_name = "old-build";
    reg.host_name = "h";
    reg.app_name = "legacy";
    reg.version = protocol::kProtocolVersion + 7;

    bool got_error = false;
    raw_client->on_receive([&](std::span<const std::uint8_t> frame) {
        auto decoded = protocol::decode_message(frame);
        ASSERT_TRUE(decoded.is_ok());
        if (const auto* ack = std::get_if<protocol::Ack>(&decoded.value())) {
            got_error = ack->code == ErrorCode::kBadMessage;
        }
    });
    ASSERT_TRUE(raw_client->send(protocol::encode_message(reg)).is_ok());
    s.run();
    EXPECT_TRUE(got_error);
    EXPECT_TRUE(s.server().registrations().empty());
}

TEST(ProtocolVersion, CurrentClientsRegisterNormally) {
    Session s;
    CoApp& a = s.add_app("A", "alice", 1);
    EXPECT_TRUE(a.online());
    EXPECT_EQ(s.server().registrations().size(), 1u);
}

}  // namespace
}  // namespace cosoft
