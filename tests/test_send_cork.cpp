// The send cork: while a SessionManager worker runs a strand batch, its TCP
// sends only enqueue, and every connection the batch touched is flushed once,
// so a batch's frames to one client leave in one gathered sendmsg. These
// tests pin the cork's contract over real sockets:
//  - corked frames to one channel share one sendmsg, and per-channel order
//    holds;
//  - outside a cork, send() still flushes inline;
//  - the size bound flushes a corked channel as soon as a full gather is
//    queued, so a burst cannot creep toward a kDisconnect peer's max_bytes;
//  - the delay bound flushes once the oldest corked frame is due;
//  - a reactor shard that visits a corked channel to read leaves its
//    queued frames to the cork, and a kBlock sender that must wait for
//    space hands its corked channel to the shard instead of waiting on a
//    flush only it could run;
//  - a strand batch's frames to one client leave in one sendmsg;
//  - the journal append for a dispatch runs only after the dispatch's
//    frames have left.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cosoft/net/tcp.hpp"
#include "cosoft/protocol/messages.hpp"
#include "cosoft/server/session_manager.hpp"
#include "helpers.hpp"

namespace cosoft {
namespace {

using namespace std::chrono_literals;
using net::SendCork;
using net::TcpChannel;
using protocol::Frame;
using protocol::Message;
using server::SessionManager;
using server::SessionManagerOptions;

struct FlushTotals {
    std::uint64_t syscalls = 0;
    std::uint64_t frames = 0;
};

FlushTotals flush_totals(const net::Reactor& reactor) {
    FlushTotals t;
    for (const auto& shard : reactor.shard_stats()) {
        t.syscalls += shard.flush_syscalls;
        t.frames += shard.frames_flushed;
    }
    return t;
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= deadline) return false;
        std::this_thread::sleep_for(1ms);
    }
    return true;
}

std::string temp_dir(const char* tag) {
    std::string dir = ::testing::TempDir() + "cosoft-cork-" + tag + "-XXXXXX";
    std::vector<char> buf(dir.begin(), dir.end());
    buf.push_back('\0');
    EXPECT_NE(::mkdtemp(buf.data()), nullptr);
    return std::string{buf.data()};
}

/// A frame whose payload is `n` copies of `tag`, so order is checkable.
Frame tagged(std::uint8_t tag, std::size_t n = 16) {
    return Frame::copy_of(std::vector<std::uint8_t>(n, tag));
}

/// The client end of a connection, polled from the test thread, collecting
/// every frame it receives.
struct Peer {
    std::shared_ptr<TcpChannel> channel;
    std::mutex mu;
    std::vector<Frame> frames;

    explicit Peer(std::shared_ptr<TcpChannel> ch) : channel(std::move(ch)) {
        channel->on_receive([this](const Frame& f) {
            const std::lock_guard<std::mutex> lock{mu};
            frames.push_back(f);
        });
    }
    std::size_t count() {
        const std::lock_guard<std::mutex> lock{mu};
        return frames.size();
    }
    bool await(std::size_t n) {
        const auto deadline = std::chrono::steady_clock::now() + 5s;
        while (count() < n) {
            if (std::chrono::steady_clock::now() >= deadline) return false;
            channel->poll_blocking(10);
        }
        return true;
    }
    std::vector<Message> messages() {
        const std::lock_guard<std::mutex> lock{mu};
        std::vector<Message> out;
        for (const Frame& f : frames) {
            auto decoded = protocol::decode_message(f);
            EXPECT_TRUE(decoded.is_ok());
            if (decoded.is_ok()) out.push_back(std::move(decoded.value()));
        }
        return out;
    }
};

/// A server reactor plus a listener on it; clients connect through their
/// own reactor so the server shard's flush counters see only server sends.
struct Link {
    std::shared_ptr<net::Reactor> server = net::Reactor::create();
    std::shared_ptr<net::Reactor> client = net::Reactor::create();
    std::unique_ptr<net::TcpListener> listener;

    Link() {
        net::ListenOptions options;
        options.reactor = server;
        auto l = net::TcpListener::create(0, options);
        EXPECT_TRUE(l.is_ok());
        if (l.is_ok()) listener = std::move(l.value());
    }
    /// Connects one client; returns {server end, client end}. Waits out the
    /// shard's first visits to the new fd (an edge-triggered poller reports
    /// it writable at once, and every visit also flushes), so that a test's
    /// flush counts see only the flushes it causes.
    std::pair<std::shared_ptr<TcpChannel>, std::shared_ptr<TcpChannel>> connect() {
        auto c = net::tcp_connect("127.0.0.1", listener->port(), client);
        EXPECT_TRUE(c.is_ok());
        auto s = listener->accept(2000);
        EXPECT_TRUE(s.is_ok());
        std::this_thread::sleep_for(20ms);
        return {s.is_ok() ? s.value() : nullptr, c.is_ok() ? c.value() : nullptr};
    }
};

// --- transport level ----------------------------------------------------------

TEST(SendCork, CorkedFramesToOneChannelShareOneSendmsg) {
    Link link;
    auto [a, a_client] = link.connect();
    auto [b, b_client] = link.connect();
    ASSERT_TRUE(a && b && a_client && b_client);
    Peer pa{a_client};
    Peer pb{b_client};

    const FlushTotals before = flush_totals(*link.server);
    {
        SendCork cork;
        ASSERT_EQ(SendCork::active(), &cork);
        for (std::uint8_t i = 1; i <= 5; ++i) ASSERT_TRUE(a->send(tagged(i)).is_ok());
        for (std::uint8_t i = 1; i <= 3; ++i) ASSERT_TRUE(b->send(tagged(i)).is_ok());
        // Nothing left yet: every frame waits in its channel for the cork.
        EXPECT_EQ(flush_totals(*link.server).syscalls, before.syscalls);
        EXPECT_EQ(a->outbound_queued_frames(), 5u);
        EXPECT_EQ(b->outbound_queued_frames(), 3u);
        EXPECT_FALSE(cork.empty());
        cork.flush();
        EXPECT_TRUE(cork.empty());
        const FlushTotals after = flush_totals(*link.server);
        EXPECT_EQ(after.syscalls - before.syscalls, 2u) << "one sendmsg per channel";
        EXPECT_EQ(after.frames - before.frames, 8u);
    }
    EXPECT_EQ(SendCork::active(), nullptr);

    // Outside a cork, send() keeps its inline flush: one sendmsg per frame,
    // before send() returns.
    const FlushTotals uncorked = flush_totals(*link.server);
    ASSERT_TRUE(a->send(tagged(6)).is_ok());
    EXPECT_EQ(flush_totals(*link.server).syscalls - uncorked.syscalls, 1u);

    ASSERT_TRUE(pa.await(6));
    ASSERT_TRUE(pb.await(3));
    const std::lock_guard<std::mutex> la{pa.mu};
    for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(pa.frames[i].data()[0], i + 1) << "order on a";
    const std::lock_guard<std::mutex> lb{pb.mu};
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(pb.frames[i].data()[0], i + 1) << "order on b";
}

TEST(SendCork, ANestedCorkIsInertAndTheDestructorFlushes) {
    Link link;
    auto [a, a_client] = link.connect();
    ASSERT_TRUE(a && a_client);
    Peer pa{a_client};
    {
        SendCork outer;
        {
            SendCork inner;  // the thread already has an armed cork
            EXPECT_EQ(SendCork::active(), &outer);
            ASSERT_TRUE(a->send(tagged(1)).is_ok());
            EXPECT_TRUE(inner.empty());
        }
        EXPECT_EQ(a->outbound_queued_frames(), 1u) << "the inner cork must not flush the outer's";
        SendCork unarmed{false};
        EXPECT_EQ(SendCork::active(), &outer);
    }  // the outer cork's destructor owes the flush
    EXPECT_EQ(a->outbound_queued_frames(), 0u);
    ASSERT_TRUE(pa.await(1));
}

TEST(SendCork, DelayBoundFlushesOnceTheOldestFrameIsDue) {
    Link link;
    auto [a, a_client] = link.connect();
    ASSERT_TRUE(a && a_client);
    Peer pa{a_client};
    SendCork cork;
    ASSERT_TRUE(a->send(tagged(1)).is_ok());
    std::this_thread::sleep_for(SendCork::kMaxDelay * 10);
    const FlushTotals before = flush_totals(*link.server);
    cork.flush_if_due();
    EXPECT_TRUE(cork.empty());
    EXPECT_EQ(flush_totals(*link.server).syscalls - before.syscalls, 1u);
    ASSERT_TRUE(pa.await(1));
}

TEST(SendCork, FullGatherFlushesEarlyAndKeepsAKDisconnectPeer) {
    Link link;
    auto [a, a_client] = link.connect();
    ASSERT_TRUE(a && a_client);
    Peer pa{a_client};
    // Six 64 KiB frames overflow this queue unless the cork flushes once a
    // full gather (WritevBatch::kMaxBytes = four of them) is queued.
    constexpr std::size_t kFrame = 64U << 10;
    static_assert(4 * kFrame == net::WritevBatch::kMaxBytes);
    a->configure_send_queue({.max_bytes = 5 * kFrame,
                             .high_watermark = 4 * kFrame,
                             .overflow = net::OverflowPolicy::kDisconnect,
                             .drain_timeout_ms = 5000});

    const FlushTotals before = flush_totals(*link.server);
    {
        SendCork cork;
        for (std::uint8_t i = 1; i <= 3; ++i) ASSERT_TRUE(a->send(tagged(i, kFrame)).is_ok());
        EXPECT_EQ(flush_totals(*link.server).syscalls, before.syscalls) << "below a gather: corked";
        ASSERT_TRUE(a->send(tagged(4, kFrame)).is_ok());
        EXPECT_GT(flush_totals(*link.server).syscalls, before.syscalls)
            << "a full gather must flush before the cork does";
        for (std::uint8_t i = 5; i <= 6; ++i) {
            ASSERT_TRUE(a->send(tagged(i, kFrame)).is_ok()) << "frame " << int{i} << " overflowed";
        }
        EXPECT_TRUE(a->connected());
    }
    ASSERT_TRUE(pa.await(6));
    EXPECT_TRUE(a->connected());
    EXPECT_EQ(a->stats().backpressure_events, 0u);
    const std::lock_guard<std::mutex> lock{pa.mu};
    for (std::size_t i = 0; i < 6; ++i) {
        ASSERT_EQ(pa.frames[i].size(), kFrame);
        EXPECT_EQ(pa.frames[i].data()[0], i + 1) << "order";
        EXPECT_EQ(pa.frames[i].data()[kFrame - 1], i + 1);
    }
}

TEST(SendCork, AShardVisitToReadLeavesCorkedFramesToTheCork) {
    Link link;
    auto [a, a_client] = link.connect();
    ASSERT_TRUE(a && a_client);
    Peer pa{a_client};
    Peer server_end{a};

    const FlushTotals before = flush_totals(*link.server);
    SendCork cork;
    ASSERT_TRUE(a->send(tagged(1)).is_ok());
    ASSERT_TRUE(a->send(tagged(2)).is_ok());
    // The peer talks (from a thread with no cork): the server shard visits
    // `a` to read it.
    std::thread([&] { EXPECT_TRUE(a_client->send(tagged(9)).is_ok()); }).join();
    ASSERT_TRUE(server_end.await(1));
    std::this_thread::sleep_for(20ms);  // the visit's write half runs after the read
    EXPECT_EQ(flush_totals(*link.server).syscalls, before.syscalls)
        << "the shard flushed frames the cork holds";
    EXPECT_EQ(a->outbound_queued_frames(), 2u);

    cork.flush();
    const FlushTotals after = flush_totals(*link.server);
    EXPECT_EQ(after.syscalls - before.syscalls, 1u);
    EXPECT_EQ(after.frames - before.frames, 2u);
    ASSERT_TRUE(pa.await(2));
    const std::lock_guard<std::mutex> lock{pa.mu};
    for (std::size_t i = 0; i < 2; ++i) EXPECT_EQ(pa.frames[i].data()[0], i + 1) << "order";
}

TEST(SendCork, ABlockedSenderHandsItsCorkedChannelToTheShard) {
    Link link;
    auto [a, a_client] = link.connect();
    ASSERT_TRUE(a && a_client);
    Peer pa{a_client};
    // Three 16 KiB frames overflow this kBlock queue, far below a full
    // gather: the third send waits for space while this thread's own cork
    // holds the channel.
    constexpr std::size_t kFrame = 16U << 10;
    a->configure_send_queue({.max_bytes = 2 * kFrame,
                             .high_watermark = 2 * kFrame,
                             .overflow = net::OverflowPolicy::kBlock,
                             .drain_timeout_ms = 5000});

    std::atomic<bool> sent{false};
    std::thread sender([&] {
        SendCork cork;
        for (std::uint8_t i = 1; i <= 3; ++i) {
            if (!a->send(tagged(i, kFrame)).is_ok()) return;
        }
        sent = true;
    });
    const bool done = wait_until([&] { return sent.load(); });
    if (!done) a->close();  // unblock a sender stuck behind its own cork
    sender.join();
    ASSERT_TRUE(done) << "the send waited on a flush only its own cork could run";
    ASSERT_TRUE(pa.await(3));
    EXPECT_TRUE(a->connected());
    const std::lock_guard<std::mutex> lock{pa.mu};
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(pa.frames[i].data()[0], i + 1) << "order";
}

// --- a SessionManager with workers -------------------------------------------

protocol::Register register_msg(UserId user, const std::string& session) {
    protocol::Register reg;
    reg.user = user;
    reg.user_name = "u" + std::to_string(user);
    reg.host_name = "host";
    reg.app_name = "app";
    reg.session = session;
    return reg;
}

TEST(SendCork, StrandBatchFramesToOneClientLeaveInOneSendmsg) {
    Link link;
    SessionManagerOptions options;
    options.workers = 2;
    options.reactor = link.server;
    options.sync_late_joiners = true;  // Register answers with four frames
    SessionManager manager(options);

    // The hook runs on the worker just before the dispatch. Waiting there
    // lets the reactor finish the visit that delivered the Register (a
    // reactor visit also flushes), so the counters below see this batch's
    // flush alone.
    std::atomic<bool> sampled{false};
    FlushTotals at_dispatch;
    manager.debug_set_dispatch_hook([&](const std::string&) {
        if (sampled.load()) return;
        std::this_thread::sleep_for(20ms);
        at_dispatch = flush_totals(*link.server);
        sampled.store(true);
    });

    auto [served, client] = link.connect();
    ASSERT_TRUE(served && client);
    Peer peer{client};
    manager.attach(served);
    ASSERT_TRUE(client->send(protocol::encode_message(Message{register_msg(1, "room")})).is_ok());
    ASSERT_TRUE(peer.await(4));
    manager.quiesce();
    ASSERT_TRUE(sampled.load());

    const FlushTotals after = flush_totals(*link.server);
    EXPECT_EQ(after.frames - at_dispatch.frames, 4u);
    EXPECT_EQ(after.syscalls - at_dispatch.syscalls, 1u)
        << "the batch's four frames to one client must leave in one sendmsg";

    const std::vector<Message> got = peer.messages();
    ASSERT_EQ(got.size(), 4u);
    EXPECT_TRUE(std::holds_alternative<protocol::RegisterAck>(got[0]));
    EXPECT_TRUE(std::holds_alternative<protocol::SyncBegin>(got[1]));
    EXPECT_TRUE(std::holds_alternative<protocol::SyncState>(got[2]));
    EXPECT_TRUE(std::holds_alternative<protocol::SyncEnd>(got[3]));
    manager.debug_set_dispatch_hook(nullptr);
}

TEST(SendCork, BurstAboveAGatherInOneBatchKeepsOrderAndConnection) {
    Link link;
    SessionManagerOptions options;
    options.workers = 2;
    options.reactor = link.server;
    SessionManager manager(options);

    auto [sa, ca] = link.connect();
    auto [sb, cb] = link.connect();
    ASSERT_TRUE(sa && ca && sb && cb);
    Peer pa{ca};
    Peer pb{cb};
    const InstanceId id_a = manager.attach(sa);
    const InstanceId id_b = manager.attach(sb);
    ASSERT_TRUE(ca->send(protocol::encode_message(Message{register_msg(1, "room")})).is_ok());
    ASSERT_TRUE(cb->send(protocol::encode_message(Message{register_msg(2, "room")})).is_ok());
    ASSERT_TRUE(pa.await(1));
    ASSERT_TRUE(pb.await(1));
    manager.quiesce();

    // Hold the first Command's dispatch until every other Command has been
    // routed, so the rest of the burst is one strand batch: 1 MiB of
    // CommandDeliver to b, well above one gather.
    constexpr int kCommands = 16;
    constexpr std::size_t kPayload = 64U << 10;
    const auto frames_received = [&](InstanceId id) {
        for (const auto& row : manager.status().connections) {
            if (row.instance == id) return row.frames_received;
        }
        return std::uint64_t{0};
    };
    std::atomic<bool> held{false};
    manager.debug_set_dispatch_hook([&](const std::string&) {
        if (held.exchange(true)) return;
        // Register + all the Commands.
        (void)wait_until([&] { return frames_received(id_a) >= 1 + kCommands; });
    });
    for (int i = 0; i < kCommands; ++i) {
        protocol::Command cmd;
        cmd.request = static_cast<protocol::ActionId>(i + 1);
        cmd.name = "burst";
        cmd.target = id_b;
        cmd.payload.assign(kPayload, static_cast<std::uint8_t>(i));
        ASSERT_TRUE(ca->send(protocol::encode_message(Message{std::move(cmd)})).is_ok());
    }
    ASSERT_TRUE(pb.await(1 + kCommands));
    ASSERT_TRUE(pa.await(1 + kCommands));
    manager.quiesce();
    manager.debug_set_dispatch_hook(nullptr);

    const std::vector<Message> to_b = pb.messages();
    for (int i = 0; i < kCommands; ++i) {
        const auto* deliver = std::get_if<protocol::CommandDeliver>(&to_b[1 + i]);
        ASSERT_NE(deliver, nullptr);
        ASSERT_EQ(deliver->payload.size(), kPayload);
        EXPECT_EQ(deliver->payload.front(), i) << "order to b";
    }
    const std::vector<Message> to_a = pa.messages();
    for (int i = 0; i < kCommands; ++i) {
        const auto* ack = std::get_if<protocol::Ack>(&to_a[1 + i]);
        ASSERT_NE(ack, nullptr);
        EXPECT_EQ(ack->request, static_cast<protocol::ActionId>(i + 1)) << "order to a";
    }
    EXPECT_TRUE(sa->connected());
    EXPECT_TRUE(sb->connected());
    EXPECT_EQ(manager.connection_count(), 2u);
}

TEST(SendCork, DispatchFramesLeaveBeforeTheirJournalAppend) {
    Link link;
    SessionManagerOptions options;
    options.workers = 2;
    options.reactor = link.server;
    options.journal_dir = temp_dir("journal");
    options.sync_late_joiners = true;  // the Register is answered with three frames
    SessionManager manager(options);

    // The default session exists (journal open) before any traffic, so its
    // hooks can be installed while nothing runs on its strand.
    server::SessionJournal* journal = manager.default_session().session_journal();
    ASSERT_NE(journal, nullptr);
    const FlushTotals before = flush_totals(*link.server);
    std::atomic<std::uint64_t> flushed_at_first_append{~std::uint64_t{0}};
    server::JournalFaults hooks;
    hooks.before_append = [&] {
        std::uint64_t unset = ~std::uint64_t{0};
        flushed_at_first_append.compare_exchange_strong(unset, flush_totals(*link.server).frames -
                                                                   before.frames);
    };
    journal->set_faults(hooks);
    // As above: let the reactor finish delivering before the dispatch runs.
    std::atomic<bool> waited{false};
    manager.debug_set_dispatch_hook([&](const std::string&) {
        if (!waited.exchange(true)) std::this_thread::sleep_for(20ms);
    });

    auto [served, client] = link.connect();
    ASSERT_TRUE(served && client);
    Peer peer{client};
    manager.attach(served);
    ASSERT_TRUE(client->send(protocol::encode_message(Message{register_msg(1, "")})).is_ok());
    ASSERT_TRUE(peer.await(4));
    manager.quiesce();
    manager.debug_set_dispatch_hook(nullptr);

    // The Register is journaled after RegisterAck, SyncBegin and SyncState
    // have left: a journal write (and its fsync) never sits between a
    // dispatch and its partners. SyncEnd follows the fsync, as before.
    const std::vector<Message> got = peer.messages();
    ASSERT_EQ(got.size(), 4u);
    EXPECT_TRUE(std::holds_alternative<protocol::RegisterAck>(got[0]));
    EXPECT_TRUE(std::holds_alternative<protocol::SyncEnd>(got[3]));
    EXPECT_EQ(flushed_at_first_append.load(), 3u);
}

}  // namespace
}  // namespace cosoft
