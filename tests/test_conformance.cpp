// Wire-protocol conformance checker: rule-table sanity, the per-connection
// state machine (registration, request/response pairing, the §3.2 lock
// lifecycle, ack balancing), and zero-violation interposition on a live
// LocalSession.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cosoft/apps/local_session.hpp"
#include "cosoft/protocol/conformance.hpp"
#include "cosoft/protocol/messages.hpp"
#include "cosoft/toolkit/widget.hpp"

namespace cosoft {
namespace {

using protocol::ConformanceChecker;
using protocol::Direction;
using protocol::Message;

constexpr Direction kC2S = Direction::kClientToServer;
constexpr Direction kS2C = Direction::kServerToClient;

/// A checker that has already seen a clean Register/RegisterAck exchange.
ConformanceChecker registered_checker() {
    ConformanceChecker c{"test"};
    c.observe(kC2S, protocol::Register{1, "alice", "host", "app", protocol::kProtocolVersion});
    c.observe(kS2C, protocol::RegisterAck{7});
    EXPECT_TRUE(c.violations().empty());
    return c;
}

TEST(ConformanceRules, TableCoversEveryMessageType) {
    const auto& rules = protocol::message_rules();
    ASSERT_EQ(rules.size(), std::variant_size_v<Message>);
    for (const auto& rule : rules) {
        EXPECT_FALSE(rule.name.empty());
        EXPECT_TRUE(rule.client_to_server || rule.server_to_client) << rule.name;
    }
}

TEST(ConformanceRules, DirectionAssignments) {
    const auto& rules = protocol::message_rules();
    const auto rule_of = [&](const Message& m) { return rules[m.index()]; };
    EXPECT_TRUE(rule_of(Message{protocol::Register{}}).client_to_server);
    EXPECT_FALSE(rule_of(Message{protocol::Register{}}).server_to_client);
    EXPECT_FALSE(rule_of(Message{protocol::Register{}}).needs_registration);
    EXPECT_FALSE(rule_of(Message{protocol::RegisterAck{}}).client_to_server);
    EXPECT_TRUE(rule_of(Message{protocol::RegisterAck{}}).server_to_client);
    // StateReply is the only message that legally travels both ways.
    EXPECT_TRUE(rule_of(Message{protocol::StateReply{}}).client_to_server);
    EXPECT_TRUE(rule_of(Message{protocol::StateReply{}}).server_to_client);
    EXPECT_TRUE(rule_of(Message{protocol::ExecuteEvent{}}).server_to_client);
    EXPECT_FALSE(rule_of(Message{protocol::ExecuteEvent{}}).client_to_server);
}

TEST(ConformanceChecker, CleanRegistrationHasNoViolations) {
    ConformanceChecker c = registered_checker();
    EXPECT_EQ(c.frames_observed(), 2u);
}

TEST(ConformanceChecker, MessageBeforeRegistrationIsFlagged) {
    ConformanceChecker c{"test"};
    c.observe(kC2S, protocol::LockReq{1, {}, {}});
    ASSERT_EQ(c.violations().size(), 1u);
    EXPECT_NE(c.violations().front().find("before registration"), std::string::npos);
}

TEST(ConformanceChecker, WrongDirectionIsFlagged) {
    ConformanceChecker c = registered_checker();
    c.observe(kS2C, protocol::LockReq{1, {}, {}});  // LockReq never travels S2C
    ASSERT_EQ(c.violations().size(), 1u);
    EXPECT_NE(c.violations().front().find("never travels"), std::string::npos);
}

TEST(ConformanceChecker, UnsolicitedErrorAckIsAllowed) {
    ConformanceChecker c{"test"};
    // Request 0 is the unsolicited slot (e.g. version mismatch before
    // registration); it must not be flagged.
    c.observe(kS2C, protocol::Ack{0, ErrorCode::kBadMessage, "protocol version mismatch"});
    EXPECT_TRUE(c.violations().empty());
}

TEST(ConformanceChecker, AckToUnknownRequestIsFlagged) {
    ConformanceChecker c = registered_checker();
    c.observe(kS2C, protocol::Ack{42, ErrorCode::kOk, ""});
    ASSERT_EQ(c.violations().size(), 1u);
    EXPECT_NE(c.violations().front().find("unknown"), std::string::npos);
}

TEST(ConformanceChecker, RequestResponsePairingConsumesOnce) {
    // Every request type with a Reply, answered by that reply type.
    const protocol::Ack ack{5, ErrorCode::kOk, ""};
    const std::vector<std::pair<Message, Message>> exchanges = {
        {protocol::RegistryQuery{5}, protocol::RegistryReply{5, {}}},
        {protocol::CoupleReq{5, {}, {}}, ack},
        {protocol::DecoupleReq{5, {}, {}}, ack},
        {protocol::CopyTo{5, {}, {}, {}, {}}, ack},
        {protocol::CopyFrom{5, {}, "", {}}, ack},
        {protocol::RemoteCopy{5, {}, {}, {}}, ack},
        {protocol::UndoReq{5, {}}, ack},
        {protocol::RedoReq{5, {}}, ack},
        {protocol::Command{5, "f", 0, {}}, ack},
        {protocol::PermissionSet{5, 1, {}, 0, true}, ack},
        {protocol::FetchState{5, {}}, protocol::StateReply{5, "", false, {}, {}}},
        {protocol::SetCouplingMode{5, {}, true}, ack},
        {protocol::SyncRequest{5, {}}, ack},
    };
    for (const auto& [request, reply] : exchanges) {
        ConformanceChecker c = registered_checker();
        c.observe(kC2S, request);
        c.observe(kS2C, reply);
        EXPECT_TRUE(c.violations().empty()) << protocol::message_name(request);
        c.observe(kS2C, reply);  // answered twice
        EXPECT_EQ(c.violations().size(), 1u) << protocol::message_name(request);
    }
}

TEST(ConformanceChecker, ReusedRequestIdIsFlagged) {
    ConformanceChecker c = registered_checker();
    c.observe(kC2S, protocol::CoupleReq{5, {}, {}});
    c.observe(kC2S, protocol::DecoupleReq{5, {}, {}});
    ASSERT_EQ(c.violations().size(), 1u);
    EXPECT_NE(c.violations().front().find("reused request id"), std::string::npos);
}

TEST(ConformanceChecker, TypedReplyMustMatchRequestKind) {
    ConformanceChecker c = registered_checker();
    c.observe(kC2S, protocol::RegistryQuery{9});
    c.observe(kS2C, protocol::StateReply{9, "x", false, {}, {}});  // wrong reply type
    ASSERT_EQ(c.violations().size(), 1u);
    EXPECT_NE(c.violations().front().find("does not match"), std::string::npos);
}

TEST(ConformanceChecker, LockLifecycleHappyPath) {
    ConformanceChecker c = registered_checker();
    const ObjectRef source{7, "field"};
    c.observe(kC2S, protocol::LockReq{1, source, {source}});
    c.observe(kS2C, protocol::LockGrant{1});
    c.observe(kC2S, protocol::EventMsg{1, source, "", {}});
    c.observe(kC2S, protocol::ExecuteAck{1});  // own completion
    EXPECT_TRUE(c.violations().empty());
}

TEST(ConformanceChecker, EventWithoutGrantIsFlagged) {
    ConformanceChecker c = registered_checker();
    const ObjectRef source{7, "field"};
    c.observe(kC2S, protocol::LockReq{1, source, {source}});
    c.observe(kC2S, protocol::EventMsg{1, source, "", {}});  // grant never arrived
    ASSERT_EQ(c.violations().size(), 1u);
    EXPECT_NE(c.violations().front().find("without a LockGrant"), std::string::npos);
}

TEST(ConformanceChecker, GrantWithoutRequestIsFlagged) {
    ConformanceChecker c = registered_checker();
    c.observe(kS2C, protocol::LockGrant{3});
    ASSERT_EQ(c.violations().size(), 1u);
    EXPECT_NE(c.violations().front().find("without a pending LockReq"), std::string::npos);
}

TEST(ConformanceChecker, DenyClearsTheAction) {
    ConformanceChecker c = registered_checker();
    const ObjectRef source{7, "field"};
    c.observe(kC2S, protocol::LockReq{1, source, {source}});
    c.observe(kS2C, protocol::LockDeny{1, source});
    EXPECT_TRUE(c.violations().empty());
    // The id may not be reused afterwards (client counters are monotonic).
    c.observe(kC2S, protocol::LockReq{1, source, {source}});
    EXPECT_EQ(c.violations().size(), 1u);
}

TEST(ConformanceChecker, ExecuteAckBalancesExecuteEvent) {
    ConformanceChecker c = registered_checker();
    const ObjectRef source{9, "field"};
    const ObjectRef target{7, "field"};
    c.observe(kS2C, protocol::ExecuteEvent{11, source, {target}, "", {}});
    c.observe(kC2S, protocol::ExecuteAck{11});
    EXPECT_TRUE(c.violations().empty());
    c.observe(kC2S, protocol::ExecuteAck{11});  // one ack too many
    ASSERT_EQ(c.violations().size(), 1u);
    EXPECT_NE(c.violations().front().find("ExecuteAck"), std::string::npos);
}

TEST(ConformanceChecker, ClientFrameAfterUnregisterIsFlagged) {
    ConformanceChecker c = registered_checker();
    c.observe(kC2S, protocol::Unregister{});
    c.observe(kC2S, protocol::RegistryQuery{3});
    ASSERT_EQ(c.violations().size(), 1u);
    EXPECT_NE(c.violations().front().find("after Unregister"), std::string::npos);
}

TEST(ConformanceChecker, ServerStateQueryPairsWithClientStateReply) {
    ConformanceChecker c = registered_checker();
    c.observe(kS2C, protocol::StateQuery{21, "field"});
    c.observe(kC2S, protocol::StateReply{21, "field", true, {}, {}});
    EXPECT_TRUE(c.violations().empty());
    c.observe(kC2S, protocol::StateReply{22, "field", true, {}, {}});  // nobody asked
    EXPECT_EQ(c.violations().size(), 1u);
}

TEST(ConformanceChecker, MalformedFrameIsFlagged) {
    ConformanceChecker c{"test"};
    const std::vector<std::uint8_t> garbage{0xff, 0xfe, 0x01, 0x02};
    c.observe_frame(kC2S, garbage);
    ASSERT_EQ(c.violations().size(), 1u);
    EXPECT_NE(c.violations().front().find("malformed"), std::string::npos);
}

// --- live interposition ------------------------------------------------------

TEST(ConformanceIntegration, LocalSessionEmitFlowIsCleanUnderChecking) {
    apps::LocalSession s;
    s.set_conformance(true);
    auto& a = s.add_app("editorA", "alice", 1);
    auto& b = s.add_app("editorB", "bob", 2);
    ASSERT_TRUE(a.ui().root().add_child(toolkit::WidgetClass::kTextField, "field").is_ok());
    ASSERT_TRUE(b.ui().root().add_child(toolkit::WidgetClass::kTextField, "field").is_ok());

    Status couple_status = Status::ok();
    a.couple("field", b.ref("field"), [&](const Status& st) { couple_status = st; });
    s.run();
    ASSERT_TRUE(couple_status.is_ok());

    toolkit::Widget* fa = a.ui().find("field");
    ASSERT_NE(fa, nullptr);
    a.emit("field", fa->make_event(toolkit::EventType::kValueChanged, std::string{"hello"}));
    s.run();
    b.emit("field", b.ui().find("field")->make_event(toolkit::EventType::kValueChanged, std::string{"world"}));
    s.run();

    EXPECT_EQ(a.ui().find("field")->text("value"), b.ui().find("field")->text("value"));

    // Both connections were observed and neither tripped the state machine.
    ASSERT_NE(s.conformance(0), nullptr);
    ASSERT_NE(s.conformance(1), nullptr);
    EXPECT_GT(s.conformance(0)->frames_observed(), 4u);
    EXPECT_GT(s.conformance(1)->frames_observed(), 4u);
    EXPECT_TRUE(s.conformance_violations().empty())
        << "first violation: " << s.conformance_violations().front();
}

TEST(ConformanceIntegration, DisconnectAndRequestsStayClean) {
    apps::LocalSession s;
    s.set_conformance(true);
    auto& a = s.add_app("editorA", "alice", 1);
    auto& b = s.add_app("editorB", "bob", 2);
    ASSERT_TRUE(a.ui().root().add_child(toolkit::WidgetClass::kTextField, "field").is_ok());
    ASSERT_TRUE(b.ui().root().add_child(toolkit::WidgetClass::kTextField, "field").is_ok());
    a.couple("field", b.ref("field"));
    s.run();

    a.query_registry([](const std::vector<protocol::RegistrationRecord>&) {});
    s.run();
    s.disconnect(1);  // bob crashes; server cleans up
    a.emit("field", a.ui().find("field")->make_event(toolkit::EventType::kValueChanged, std::string{"solo"}));
    s.run();

    EXPECT_TRUE(s.conformance_violations().empty())
        << "first violation: " << s.conformance_violations().front();
}

}  // namespace
}  // namespace cosoft
