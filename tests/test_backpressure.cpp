// Per-connection outbound queues and explicit backpressure: a stalled TCP
// peer must never delay the sender or other partners, queue overflow fires
// the high-watermark callback and (under kDisconnect) closes the channel
// cleanly, and draining below half the watermark signals decongestion.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "cosoft/client/co_app.hpp"
#include "cosoft/net/tcp.hpp"
#include "cosoft/protocol/conformance.hpp"
#include "helpers.hpp"

namespace cosoft {
namespace {

using namespace std::chrono_literals;

/// Connects a raw socket that never reads: the TCP peer from hell. A tiny
/// receive buffer makes the kernel path fill (and the sender's queue grow)
/// after a few hundred KB instead of several MB.
int raw_stalled_connect(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    int small = 4096;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof small);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    return fd;
}

std::vector<std::uint8_t> payload(std::size_t n) { return std::vector<std::uint8_t>(n, 0xab); }

TEST(Backpressure, StalledPeerDoesNotBlockSenders) {
    auto listener = net::TcpListener::create(0);
    ASSERT_TRUE(listener.is_ok());
    const int peer_fd = raw_stalled_connect(listener.value()->port());
    auto served = listener.value()->accept(2000);
    ASSERT_TRUE(served.is_ok());
    auto& ch = *served.value();
    ch.configure_send_queue({.max_bytes = 64U << 20, .high_watermark = 32U << 20,
                             .overflow = net::OverflowPolicy::kBlock, .drain_timeout_ms = 50});

    // Push well past anything the kernel can absorb with a 4KB peer window.
    // Every send must return promptly (it only enqueues); the overflow the
    // old blocking transport would have hit shows up as queue depth instead.
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 200; ++i) ASSERT_TRUE(ch.send(payload(64 << 10)).is_ok());
    EXPECT_LT(std::chrono::steady_clock::now() - start, 3s);
    EXPECT_GT(ch.outbound_queued_bytes(), 0u);
    EXPECT_GT(ch.outbound_queued_frames(), 0u);
    EXPECT_GT(ch.stats().send_queue_peak_bytes, 0u);

    ch.close();  // bounded by drain_timeout_ms: the destructor must not hang
    ::close(peer_fd);
}

TEST(Backpressure, OverflowDisconnectFiresCallbackAndClosesCleanly) {
    auto listener = net::TcpListener::create(0);
    ASSERT_TRUE(listener.is_ok());
    const int peer_fd = raw_stalled_connect(listener.value()->port());
    auto served = listener.value()->accept(2000);
    ASSERT_TRUE(served.is_ok());
    auto& ch = *served.value();
    ch.configure_send_queue({.max_bytes = 64 << 10, .high_watermark = 32 << 10,
                             .overflow = net::OverflowPolicy::kDisconnect, .drain_timeout_ms = 50});
    std::atomic<int> congested_events{0};
    std::atomic<std::size_t> reported_bytes{0};
    ch.on_backpressure([&](bool congested, std::size_t queued) {
        if (congested) {
            congested_events.fetch_add(1);
            reported_bytes.store(queued);
        }
    });

    // The stalled peer eventually forces the bounded queue over max_bytes;
    // that send fails and the channel fail-fast closes.
    Status last = Status::ok();
    for (int i = 0; i < 4000 && last.is_ok(); ++i) last = ch.send(payload(16 << 10));
    ASSERT_FALSE(last.is_ok());
    EXPECT_EQ(last.code(), ErrorCode::kTransport);
    EXPECT_GE(congested_events.load(), 1);
    EXPECT_GT(reported_bytes.load(), 0u);
    EXPECT_GE(ch.stats().backpressure_events, 1u);
    EXPECT_FALSE(ch.connected());
    EXPECT_FALSE(ch.send(payload(8)).is_ok());  // stays closed
    ::close(peer_fd);
}

TEST(Backpressure, HighWatermarkOnsetThenDrainSignalsDecongestion) {
    auto listener = net::TcpListener::create(0);
    ASSERT_TRUE(listener.is_ok());
    const int peer_fd = raw_stalled_connect(listener.value()->port());
    auto served = listener.value()->accept(2000);
    ASSERT_TRUE(served.is_ok());
    auto& ch = *served.value();
    ch.configure_send_queue({.max_bytes = 64U << 20, .high_watermark = 256 << 10,
                             .overflow = net::OverflowPolicy::kBlock, .drain_timeout_ms = 50});
    std::atomic<int> onsets{0};
    std::atomic<int> drains{0};
    ch.on_backpressure([&](bool congested, std::size_t) {
        if (congested) {
            onsets.fetch_add(1);
        } else {
            drains.fetch_add(1);
        }
    });

    // Phase 1: peer stalled; cross the watermark. The rising edge fires once.
    int sent = 0;
    while (onsets.load() == 0 && sent < 2000) {
        ASSERT_TRUE(ch.send(payload(32 << 10)).is_ok());
        ++sent;
    }
    ASSERT_EQ(onsets.load(), 1);
    EXPECT_EQ(drains.load(), 0);

    // Phase 2: the peer wakes up and drinks everything; dropping below half
    // the watermark fires the falling edge (from the writer thread).
    std::atomic<bool> stop_reading{false};
    std::thread reader([&] {
        std::vector<std::uint8_t> sink(1 << 16);
        while (!stop_reading.load()) {
            if (::recv(peer_fd, sink.data(), sink.size(), MSG_DONTWAIT) < 0) {
                std::this_thread::sleep_for(200us);
            }
        }
    });
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (drains.load() == 0 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(1ms);
    }
    EXPECT_EQ(drains.load(), 1);
    EXPECT_EQ(onsets.load(), 1);  // hysteresis: no re-onset while draining
    EXPECT_GE(ch.stats().backpressure_events, 1u);
    stop_reading.store(true);
    reader.join();
    ::close(peer_fd);
}

TEST(Backpressure, StalledPartnerDoesNotDelayLivePartners) {
    testing::TcpRig rig;
    ASSERT_NE(rig.listener, nullptr);

    // Two live clients, conformance-checked end to end.
    std::vector<std::shared_ptr<net::TcpChannel>> pump;
    std::vector<std::unique_ptr<client::CoApp>> apps;
    std::vector<std::shared_ptr<protocol::ConformanceChecker>> checkers;
    for (std::size_t i = 0; i < 2; ++i) {
        pump.push_back(rig.connect());
        ASSERT_NE(pump.back(), nullptr);
        checkers.push_back(std::make_shared<protocol::ConformanceChecker>("live" + std::to_string(i)));
        apps.push_back(std::make_unique<client::CoApp>("editor", "user" + std::to_string(i),
                                                       static_cast<UserId>(i + 1)));
        apps.back()->connect(std::make_shared<protocol::CheckedChannel>(pump.back(), checkers.back()));
    }

    // One rude partner: registers, then never reads again. Its server end
    // keeps the manager's kDisconnect send queue (8 MiB cap).
    const int rude_fd = raw_stalled_connect(rig.listener->port());
    auto rude_served = rig.listener->accept(2000);
    ASSERT_TRUE(rude_served.is_ok());
    const InstanceId rude_instance = rig.manager.attach(rude_served.value());
    {
        const protocol::Frame reg = protocol::encode_message(
            protocol::Register{9, "rude", "host", "stalled", protocol::kProtocolVersion});
        const auto size = static_cast<std::uint32_t>(reg.size());
        std::vector<std::uint8_t> wire(4 + reg.size());
        for (int i = 0; i < 4; ++i) wire[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(size >> (8 * i));
        std::copy(reg.data(), reg.data() + reg.size(), wire.begin() + 4);
        ASSERT_EQ(::send(rude_fd, wire.data(), wire.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(wire.size()));
    }
    const auto rude_queued = [&] {
        for (const server::ConnectionRow& row : rig.manager.status().connections) {
            if (row.instance == rude_instance) return row.queued_frames;
        }
        return std::uint64_t{0};
    };

    ASSERT_TRUE(testing::pump_until(pump, [&] { return apps[0]->online() && apps[1]->online(); }, 3000));
    ASSERT_TRUE(testing::pump_until(pump, [&] { return rig.default_row().registered == 3; }, 3000));

    // Wedge the rude partner's connection: pile on frames until the queue is
    // backed up well past anything the kernel send buffer could still absorb
    // (it autotunes to a few MB), so the backlog provably outlives the pump —
    // yet stays below the 8 MiB cap at which kDisconnect would drop it.
    while (rude_served.value()->outbound_queued_bytes() < (4U << 20)) {
        ASSERT_TRUE(rude_served.value()->send(payload(256 << 10)).is_ok());
    }
    EXPECT_GT(rude_queued(), 0u);

    // A broadcast now hits both the live partner and the wedged one. Sends
    // only enqueue, so the live partner must not wait behind the wedged
    // partner's backlog.
    std::atomic<int> received{0};
    apps[1]->on_command("ping", [&](InstanceId, std::span<const std::uint8_t>) { received.fetch_add(1); });
    apps[0]->send_command("ping", {1, 2, 3});
    EXPECT_TRUE(testing::pump_until(pump, [&] { return received.load() == 1; }, 3000));

    // The wedged connection took the same broadcast into its queue instead.
    EXPECT_GT(rude_queued(), 0u);
    for (const auto& checker : checkers) EXPECT_TRUE(checker->violations().empty());
    ::close(rude_fd);
}

}  // namespace
}  // namespace cosoft
