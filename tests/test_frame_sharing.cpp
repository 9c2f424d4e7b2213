// Encode-once fan-out: broadcasts serialize each message exactly once and
// share the resulting refcounted Frame across every recipient connection,
// under both the SimNetwork and the TCP transport. Also unit-tests the
// Frame value type itself (sharing, equality, emptiness).
#include <gtest/gtest.h>

#include "cosoft/apps/local_session.hpp"
#include "cosoft/net/sim_network.hpp"
#include "cosoft/protocol/frame.hpp"
#include "cosoft/protocol/messages.hpp"
#include "helpers.hpp"

namespace cosoft {
namespace {

using apps::LocalSession;
using client::CoApp;
using protocol::Frame;
using testing::pump_until;
using testing::TcpRig;
using toolkit::EventType;
using toolkit::WidgetClass;

TEST(Frame, DefaultIsEmpty) {
    const Frame f;
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.size(), 0u);
    EXPECT_EQ(f.shares(), 0);
    EXPECT_TRUE(f.to_vector().empty());
}

TEST(Frame, CopiesShareOneBuffer) {
    const Frame a{std::vector<std::uint8_t>{1, 2, 3}};
    EXPECT_EQ(a.shares(), 1);
    const Frame b = a;       // NOLINT(performance-unnecessary-copy-initialization)
    const Frame c = b;       // NOLINT(performance-unnecessary-copy-initialization)
    EXPECT_EQ(a.shares(), 3);
    EXPECT_EQ(b.data(), a.data());  // same bytes, not a copy
    EXPECT_EQ(c.data(), a.data());
    EXPECT_EQ(b, a);
}

TEST(Frame, CopyOfDetachesFromTheSource) {
    const std::vector<std::uint8_t> bytes{9, 8, 7};
    const Frame f = Frame::copy_of(bytes);
    EXPECT_NE(f.data(), bytes.data());
    EXPECT_EQ(f, bytes);
    EXPECT_EQ(f.to_vector(), bytes);
}

TEST(Frame, EqualityComparesBytesAcrossBuffers) {
    const Frame a{std::vector<std::uint8_t>{1, 2}};
    const Frame b{std::vector<std::uint8_t>{1, 2}};
    const Frame c{std::vector<std::uint8_t>{1, 3}};
    EXPECT_EQ(a, b);  // distinct buffers, same bytes
    EXPECT_FALSE(a == c);
    EXPECT_EQ(Frame{}, Frame{});
}

TEST(Frame, SpanConversionSeesTheSameBytes) {
    const Frame f{std::vector<std::uint8_t>{5, 6, 7}};
    const std::span<const std::uint8_t> s = f;
    EXPECT_EQ(s.data(), f.data());
    EXPECT_EQ(s.size(), 3u);
}

/// A session of `n` apps, each with one "f" text field, all coupled into a
/// single group through app 0.
void couple_all(LocalSession& s, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        CoApp& app = s.add_app("editor" + std::to_string(i), "user" + std::to_string(i),
                               static_cast<UserId>(i + 1));
        ASSERT_TRUE(app.ui().root().add_child(WidgetClass::kTextField, "f").is_ok());
    }
    for (std::size_t i = 1; i < n; ++i) s.app(0).couple("f", s.app(i).ref("f"));
    s.run();
}

/// Encodes spent on one full emit cycle (lock, broadcast, acks, unlock)
/// with `n` coupled apps.
std::uint64_t encodes_for_emit(std::size_t n, std::uint64_t* fanned_out = nullptr) {
    LocalSession s;
    couple_all(s, n);
    const std::uint64_t before_fanout = s.server().stats().frames_fanned_out;
    protocol::reset_encode_count();
    s.app(0).emit("f", s.app(0).ui().find("f")->make_event(EventType::kValueChanged, std::string{"x"}));
    s.run();
    EXPECT_EQ(s.app(n - 1).ui().find("f")->text("value"), "x");
    if (fanned_out != nullptr) *fanned_out = s.server().stats().frames_fanned_out - before_fanout;
    return protocol::encode_count();
}

TEST(EncodeOnce, ServerEncodesDoNotScaleWithPartnerCount) {
    // Growing the group from 2 to 8 apps adds 6 recipients. The only extra
    // serializations allowed are the 6 ExecuteAcks those recipients send
    // back; every server-side broadcast (LockNotify x2, ExecuteEvent) must
    // stay a single encode however wide the fan-out is.
    std::uint64_t fanout2 = 0;
    std::uint64_t fanout8 = 0;
    const std::uint64_t encodes2 = encodes_for_emit(2, &fanout2);
    const std::uint64_t encodes8 = encodes_for_emit(8, &fanout8);
    EXPECT_EQ(encodes8 - encodes2, 6u);
    EXPECT_GT(fanout8, fanout2);  // ...while the shared frames reach more partners
}

TEST(EncodeOnce, BroadcastStatsCountOneEncodePerFanout) {
    LocalSession s;
    couple_all(s, 5);
    const server::ServerStats before = s.server().stats();
    s.app(0).emit("f", s.app(0).ui().find("f")->make_event(EventType::kValueChanged, std::string{"y"}));
    s.run();
    const server::ServerStats& after = s.server().stats();
    // One emit = three broadcasts, each encoded once however many partners
    // share it: lock notify and ExecuteEvent reach the 4 non-source owners,
    // the unlock notify reaches all 5.
    EXPECT_EQ(after.broadcast_encodes - before.broadcast_encodes, 3u);
    EXPECT_EQ(after.frames_fanned_out - before.frames_fanned_out, 13u);
    EXPECT_EQ(after.events_broadcast - before.events_broadcast, 4u);
}

TEST(EncodeOnce, CommandBroadcastSharesOneFrame) {
    LocalSession s;
    couple_all(s, 6);
    for (std::size_t i = 1; i < 6; ++i) {
        s.app(i).on_command("ping", [](InstanceId, std::span<const std::uint8_t>) {});
    }
    const server::ServerStats before = s.server().stats();
    s.app(0).send_command("ping", {1, 2, 3});
    s.run();
    const server::ServerStats& after = s.server().stats();
    EXPECT_EQ(after.broadcast_encodes - before.broadcast_encodes, 1u);
    EXPECT_EQ(after.frames_fanned_out - before.frames_fanned_out, 5u);
    EXPECT_EQ(after.commands_routed - before.commands_routed, 5u);
}

TEST(EncodeOnce, SimChannelDeliversTheSharedBufferWithoutCopying) {
    net::SimNetwork net;
    auto [a, b] = net.make_pipe();
    const std::uint8_t* delivered = nullptr;
    b->on_receive([&](const Frame& f) { delivered = f.data(); });
    const Frame frame{std::vector<std::uint8_t>{1, 2, 3, 4}};
    ASSERT_TRUE(a->send(frame).is_ok());
    net.run_all();
    // Zero-copy all the way through the queue: the receiver sees the very
    // same buffer the sender enqueued.
    EXPECT_EQ(delivered, frame.data());
}

TEST(EncodeOnce, TcpBroadcastEncodesExactlyOncePerMessage) {
    TcpRig rig;
    ASSERT_NE(rig.listener, nullptr);
    const server::CoSession& server = rig.manager.default_session();

    constexpr std::size_t kApps = 3;
    std::vector<std::shared_ptr<net::TcpChannel>> pump;
    std::vector<std::unique_ptr<CoApp>> apps;
    for (std::size_t i = 0; i < kApps; ++i) {
        pump.push_back(rig.connect());
        ASSERT_NE(pump.back(), nullptr);
        apps.push_back(std::make_unique<CoApp>("editor", "user" + std::to_string(i),
                                               static_cast<UserId>(i + 1)));
        apps.back()->connect(pump.back());
    }
    ASSERT_TRUE(pump_until(pump, [&] {
        for (auto& app : apps) {
            if (!app->online()) return false;
        }
        return true;
    }));
    for (auto& app : apps) {
        ASSERT_TRUE(app->ui().root().add_child(WidgetClass::kTextField, "f").is_ok());
    }
    for (std::size_t i = 1; i < kApps; ++i) apps[0]->couple("f", apps[i]->ref("f"));
    // Every app — the future emitter included — must have seen its
    // GroupUpdate: an emit from a not-yet-coupled replica stays local.
    ASSERT_TRUE(pump_until(pump, [&] {
        for (auto& app : apps) {
            if (!app->is_coupled("f")) return false;
        }
        return true;
    }));

    const server::ServerStats before = server.stats();
    Status emit_status{ErrorCode::kInvalidArgument, "pending"};
    apps[0]->emit("f", apps[0]->ui().find("f")->make_event(EventType::kValueChanged, std::string{"tcp"}),
                  [&](const Status& st) { emit_status = st; });
    ASSERT_TRUE(pump_until(pump, [&] { return apps[kApps - 1]->ui().find("f")->text("value") == "tcp"; }));
    EXPECT_TRUE(emit_status.is_ok());
    ASSERT_TRUE(pump_until(pump, [&] { return rig.default_row().locks_held == 0; }));
    const server::ServerStats& after = server.stats();
    // The same invariant as over SimNetwork: three broadcasts, three encodes,
    // each shared across recipient connections (lock notify and execute to
    // the 2 non-source partners, unlock notify to all 3).
    EXPECT_EQ(after.broadcast_encodes - before.broadcast_encodes, 3u);
    EXPECT_EQ(after.frames_fanned_out - before.frames_fanned_out, 7u);
}

}  // namespace
}  // namespace cosoft
